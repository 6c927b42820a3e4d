import dataclasses

import numpy as np
import pytest

from hifbench.evaluation import (
    ConfusionMatrix,
    EvalReport,
    confusion_from_predictions,
    evaluate,
    format_accuracy,
    render_report,
    reports_to_csv,
)
from hifbench.models import build_model, forward_batch

from test_models import TINY_MLP


class TestConfusionMatrix:
    def test_accuracy_and_recalls(self):
        m = ConfusionMatrix(tp=8, fp=1, fn=2, tn=9)
        assert m.total == 20
        assert m.accuracy == pytest.approx(17 / 20)
        assert m.hif_recall == pytest.approx(8 / 10)
        assert m.normal_recall == pytest.approx(9 / 10)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)

    def test_empty_matrix_has_no_accuracy(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(0, 0, 0, 0).accuracy


def trimmed(dataset, length):
    """The dataset with each window cut to its first length samples."""
    windows = [dataclasses.replace(w, samples=w.samples[:length]) for w in dataset.windows]
    return dataclasses.replace(dataset, windows=windows)


class TestClassify:
    def test_threshold_is_strict(self, small_dataset):
        model = build_model(TINY_MLP, 0)
        data = trimmed(small_dataset, TINY_MLP.input_length)
        one = dataclasses.replace(data, windows=data.windows[:1])
        prob = float(forward_batch(model, one.to_arrays()[0])[0])

        def predicted_hif(threshold):
            m = evaluate(model, one, threshold=threshold).matrix
            return m.tp + m.fp

        # a window whose probability equals the threshold is NORMAL
        assert predicted_hif(prob) == 0
        assert predicted_hif(np.nextafter(prob, 0.0)) == 1
        assert predicted_hif(0.0) == 1
        assert predicted_hif(1.0) == 0


class TestCounting:
    def test_confusion_from_predictions(self):
        y_true = np.array([1, 1, 1, 0, 0, 0], dtype=bool)
        y_pred = np.array([1, 0, 1, 0, 1, 0], dtype=bool)
        m = confusion_from_predictions(y_true, y_pred)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 2)

    def test_counts_partition_the_dataset(self, small_dataset):
        model = build_model(TINY_MLP, 0)
        # TINY_MLP wants 20-sample windows, so trim the dataset windows
        data = trimmed(small_dataset, TINY_MLP.input_length)
        report = evaluate(model, data, name="probe")
        assert report.matrix.total == len(data)


class TestRendering:
    def test_paper_style_accuracies_render_exactly(self):
        # pure confusion-matrix arithmetic at 2-decimal rendering
        assert format_accuracy(ConfusionMatrix(1242, 4, 8, 1246).accuracy) == "99.52 %"
        assert format_accuracy(ConfusionMatrix(75, 3, 5, 79).accuracy) == "95.06 %"
        assert format_accuracy(ConfusionMatrix(55, 15, 26, 66).accuracy) == "74.69 %"

    def test_render_report_table(self):
        a = EvalReport("cnn", ConfusionMatrix(8, 1, 2, 9), 0.5)
        b = EvalReport("mlp", ConfusionMatrix(7, 3, 3, 7), 0.5)
        table = render_report(a, b)
        lines = table.strip().split("\n")
        assert len(lines) == 6
        assert "cnn" in lines[0] and "mlp" in lines[0]
        assert lines[1].startswith("True Positive")
        assert lines[-1].startswith("Accuracy")
        assert "85.00 %" in lines[-1] and "70.00 %" in lines[-1]

    def test_render_needs_a_report(self):
        with pytest.raises(ValueError):
            render_report()

    def test_reports_to_csv(self, tmp_path):
        r = EvalReport("cnn", ConfusionMatrix(8, 1, 2, 9), 0.5)
        path = tmp_path / "report.csv"
        text = reports_to_csv([r], path)
        assert path.read_text() == text
        assert text.splitlines()[0] == "model,tp,fp,fn,tn,accuracy"
        assert text.splitlines()[1] == "cnn,8,1,2,9,0.850000"
