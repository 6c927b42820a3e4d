"""Mini-batch SGD-with-momentum training and fine-tuning loops.

Everything is deterministic given (model init seed, dataset, config seed):
shuffling uses a dedicated generator, batches are visited in a fixed order,
and gradients are reduced in a fixed order inside each batch.

When the first k stages are frozen (freeze_conv, as in fine-tuning), each
window's input to stage k stays the same for the whole run, so train()
computes it once, for the training and the validation windows, with the
same models.run_stages pass that validation and evaluation use.  Every step
and validation pass then runs only stages k..end, and backward stops at
stage k, where its forward started.  With OpenBLAS, conv output for a window
has the same bytes in any batch of 2 or more windows, so the run equals one
that recomputes the frozen stages for every batch, except that a batch of one
window is rounded differently in the last conv block's matmul: when the
fit-set size mod batch_size is 1, the two can differ in the last bit.

The trained stages own the tail of the model's parameter vector, which each
momentum step updates from the same tail of the step's gradient vector.
Divergence raises DivergenceError at the batch that first overflows, as
training runs under np.errstate(over="raise", invalid="raise"); the
frozen-feature pass counts as epoch 1's batch 0.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from . import layers as L
from .fileio import write_atomic
from .models import (
    Checkpoint,
    Model,
    batch_loss_and_grads,
    forward_batch,
    restore_for_transfer,
    run_stages,
)
from .waveforms import Dataset, _is_number, split

CONVERGENCE_BAND = 0.05
CONVERGENCE_TAIL_FRACTION = 0.10


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    validation_fraction: float = 0.25
    freeze_conv: bool = False
    early_stop: tuple[int, float] | None = None  # (patience, min_delta)

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            if type(getattr(self, name)) is not int:  # a bool or float is refused, not truncated
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("learning_rate", "momentum"):  # NaN fails both comparisons
            if not (_is_number(getattr(self, name)) and 0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be a finite number >= 0")
        if not (_is_number(self.validation_fraction) and 0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must lie strictly between 0 and 1")
        stop = self.early_stop
        if stop is not None and not (
                isinstance(stop, tuple) and len(stop) == 2 and type(stop[0]) is int
                and stop[0] >= 1 and _is_number(stop[1]) and 0 <= stop[1] < math.inf):
            raise ValueError("early_stop must be None or a pair of an integer patience >= 1 "
                             f"and a finite min_delta >= 0, got {stop!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    seconds: float


@dataclass
class TrainingRun:
    records: list[EpochRecord]
    model: Model
    config: TrainConfig
    convergence_epoch: int = 0

    def to_csv(self, path=None) -> str:
        """Plot-ready curves.  Wall-clock timing is kept out of the CSV so
        that repeated runs with the same seeds produce identical bytes."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "val_loss", "val_accuracy"])
        for r in self.records:
            writer.writerow(
                [r.epoch, f"{r.train_loss:.12g}", f"{r.val_loss:.12g}",
                 f"{r.val_accuracy:.12g}"]
            )
        text = buf.getvalue()
        if path is not None:
            write_atomic(path, text)
        return text


def detect_convergence(records: list[EpochRecord]) -> int:
    """First epoch whose validation loss is within 5% of the terminal level.

    The terminal level is the median validation loss over the last 10% of
    epochs (at least one).
    """
    if len(records) < 2:
        raise ValueError("need at least 2 epoch records")
    losses = [r.val_loss for r in records]
    tail = max(1, int(np.ceil(CONVERGENCE_TAIL_FRACTION * len(losses))))
    steady = float(np.median(losses[-tail:]))
    band = CONVERGENCE_BAND * steady
    for r, loss in zip(records, losses):
        if abs(loss - steady) <= band:
            return r.epoch
    return records[-1].epoch


def train(model: Model, dataset: Dataset, config: TrainConfig) -> TrainingRun:
    """SGD with momentum over seeded shuffled mini-batches.

    The dataset is split internally into train/validation portions
    (stratified, seeded from config.seed); records carry per-epoch losses.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    work = model.copy()
    train_set, val_set = split(dataset, 1.0 - config.validation_fraction, config.seed)
    x_train, y_train = train_set.to_arrays()
    x_val, y_val = val_set.to_arrays()
    n = len(y_train)

    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5D]))
    # Conv stages lead layer_list.  The frozen ones map each window to the
    # same input of the first trained stage all run long: compute it once.
    frozen = work.n_conv if config.freeze_conv else 0
    trained = work.params[work.offsets[frozen]:]  # a view: stepping it steps the layers
    velocity = np.zeros_like(trained)

    records: list[EpochRecord] = []
    best_val = np.inf
    best_params = None
    stale = 0
    at = (1, 0)  # (epoch, batch) a FloatingPointError is reported at; -1 is validation
    try:
        with np.errstate(over="raise", invalid="raise"):
            if frozen and config.epochs > 0:
                x_train = run_stages(work, x_train, stop=frozen)
                x_val = run_stages(work, x_val, stop=frozen)
            for epoch in range(1, config.epochs + 1):
                start = time.perf_counter()
                order = shuffle_rng.permutation(n)
                loss_sum = 0.0
                for bi, lo in enumerate(range(0, n, config.batch_size)):
                    at = (epoch, bi)
                    sel = order[lo : lo + config.batch_size]
                    # grad lives until the next step's replaces it: made after this
                    # step's buffers, it keeps glibc from trimming the heap they are
                    # freed to, so the next step's buffers reuse their pages
                    loss, _, _, grad = batch_loss_and_grads(work, x_train[sel], y_train[sel],
                                                            frozen)
                    if not np.isfinite(loss):
                        raise DivergenceError(*at)
                    velocity *= config.momentum
                    velocity -= config.learning_rate * grad[work.offsets[frozen]:]
                    trained += velocity
                    loss_sum += loss * sel.size
                train_loss = loss_sum / n
                at = (epoch, -1)
                val_probs = forward_batch(work, x_val, start=frozen)
                val_loss = L.bce_loss(val_probs, y_val)
                if not np.isfinite(val_loss):
                    raise DivergenceError(*at)
                val_acc = float(np.mean((val_probs > 0.5) == (y_val > 0.5)))
                records.append(EpochRecord(epoch, train_loss, val_loss, val_acc,
                                           time.perf_counter() - start))
                if config.early_stop is not None:
                    patience, min_delta = config.early_stop
                    if val_loss < best_val - min_delta:
                        best_val = val_loss
                        best_params = work.flat_parameters()
                        stale = 0
                    else:
                        stale += 1
                        if stale >= patience:
                            break
    except FloatingPointError as exc:
        raise DivergenceError(*at) from exc

    # early stopping keeps the weights from the best validation epoch
    if best_params is not None:
        work.params[...] = best_params

    run = TrainingRun(records, work, config)
    if len(records) >= 2:
        run.convergence_epoch = detect_convergence(records)
    elif records:
        run.convergence_epoch = records[0].epoch
    return run


def fine_tune(checkpoint: Checkpoint, target_dataset: Dataset, config: TrainConfig) -> TrainingRun:
    """Same loop as train, but warm-started from a checkpoint."""
    return train(restore_for_transfer(checkpoint, checkpoint.spec), target_dataset, config)
