"""Classification, confusion-matrix accounting, and report rendering.

HIF is the positive class throughout: tp counts actual HIFs predicted HIF,
tn counts actual normal transients predicted NORMAL.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .fileio import write_atomic
from .models import Model, forward_batch
from .waveforms import Dataset

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion-matrix counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise ValueError("empty confusion matrix has no accuracy")
        return (self.tp + self.tn) / self.total

    @property
    def hif_recall(self) -> float:
        actual = self.tp + self.fn
        return self.tp / actual if actual else float("nan")

    @property
    def normal_recall(self) -> float:
        actual = self.tn + self.fp
        return self.tn / actual if actual else float("nan")


@dataclass(frozen=True)
class EvalReport:
    name: str
    matrix: ConfusionMatrix

    @property
    def accuracy(self) -> float:
        return self.matrix.accuracy


def confusion_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    return ConfusionMatrix(
        tp=int(np.sum(y_true & y_pred)),
        fp=int(np.sum(~y_true & y_pred)),
        fn=int(np.sum(y_true & ~y_pred)),
        tn=int(np.sum(~y_true & ~y_pred)),
    )


def evaluate(
    model: Model, test_dataset: Dataset, threshold: float = DEFAULT_THRESHOLD, name: str = "model"
) -> EvalReport:
    """Confusion matrix of the model on the dataset: a window is predicted
    HIF iff its probability strictly exceeds the threshold."""
    if len(test_dataset) == 0:
        raise ValueError("test dataset is empty")
    x, y = test_dataset.to_arrays()
    try:
        with np.errstate(over="raise", invalid="raise"):
            probs = forward_batch(model, x)
    except FloatingPointError as exc:  # an overflow raises, rather than warning
        raise FloatingPointError("non-finite activation in forward pass") from exc
    matrix = confusion_from_predictions(y > 0.5, probs > threshold)
    return EvalReport(name, matrix)


def format_accuracy(accuracy: float) -> str:
    return f"{100.0 * accuracy:.2f} %"


_ROWS = [
    ("True Positive", lambda m: m.tp),
    ("False Positive", lambda m: m.fp),
    ("False Negative", lambda m: m.fn),
    ("True Negative", lambda m: m.tn),
]


def render_report(*reports: EvalReport) -> str:
    """Side-by-side text table: four count rows plus an accuracy row."""
    if not reports:
        raise ValueError("need at least one report")
    label_w = max(len("Accuracy"), max(len(name) for name, _ in _ROWS))
    col_w = max(12, max(len(r.name) for r in reports))
    lines = [" " * label_w + "  " + "  ".join(r.name.rjust(col_w) for r in reports)]
    for name, get in _ROWS:
        lines.append(
            name.ljust(label_w)
            + "  "
            + "  ".join(str(get(r.matrix)).rjust(col_w) for r in reports)
        )
    lines.append(
        "Accuracy".ljust(label_w)
        + "  "
        + "  ".join(format_accuracy(r.accuracy).rjust(col_w) for r in reports)
    )
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: list[EvalReport], path=None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "tp", "fp", "fn", "tn", "accuracy"])
    for r in reports:
        m = r.matrix
        writer.writerow([r.name, m.tp, m.fp, m.fn, m.tn, f"{m.accuracy:.6f}"])
    text = buf.getvalue()
    if path is not None:
        write_atomic(path, text)
    return text
