"""Every artifact writer replaces its file whole or leaves it as it was."""

import errno

import pytest

from hifbench import cli, fileio
from hifbench.datafile import write_dataset
from hifbench.evaluation import ConfusionMatrix, EvalReport, reports_to_csv
from hifbench.models import build_model, save_checkpoint
from hifbench.training import EpochRecord, TrainConfig, TrainingRun

from test_models import TINY_MLP


def _curves(dataset, path):
    run = TrainingRun([EpochRecord(1, 0.5, 0.6, 0.7, 0.0)], build_model(TINY_MLP, 1),
                      TrainConfig())
    run.to_csv(path)


WRITERS = {
    "d.dataset": lambda dataset, path: write_dataset(dataset, path),
    "m.ckpt": lambda dataset, path: save_checkpoint(build_model(TINY_MLP, 1), {}, path),
    "m.curves.csv": _curves,
    "report.csv": lambda dataset, path: reports_to_csv(
        [EvalReport("m", ConfusionMatrix(1, 2, 3, 4))], path),
    "m.ckpt.manifest.json": lambda dataset, path: cli._write_manifest(
        path.parent / "m.ckpt", "gen", {}, {}, {}),
}


class _FullDisk:
    """A file that takes half of the first write, then runs out of space."""

    def __init__(self, path, mode):
        self._file = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def write(self, data):
        self._file.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_the_previous_file(small_dataset, tmp_path, monkeypatch, name):
    target = tmp_path / name
    target.write_bytes(b"previous artifact")
    with monkeypatch.context() as m:
        m.setattr(fileio, "open", _FullDisk, raising=False)
        with pytest.raises(OSError):
            WRITERS[name](small_dataset, target)
    assert target.read_bytes() == b"previous artifact"
    assert list(tmp_path.iterdir()) == [target]  # no temporary file left behind

    WRITERS[name](small_dataset, target)
    assert target.read_bytes() != b"previous artifact"
    assert list(tmp_path.iterdir()) == [target]
