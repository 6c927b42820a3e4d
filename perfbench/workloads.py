"""The four benchmark workloads.

Each workload is a closed loop: one caller in one process, and the next
cycle starts only after the previous one has finished.  Every cycle of a
run works on the same inputs, made from the workload seed, so the digest of
its outputs and its exact counts must repeat from cycle to cycle.  A
workload has

- ``setup(seed)``: builds the inputs; timed as ``setup_s``;
- ``warmup(state)``: a shortened cycle, run once before timing;
- ``cycle(state)``: the timed unit of work; returns a ``Cycle``;
- ``verify(state, cycle)``: the output checks of a cycle, neither timed nor
  traced.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hifbench import (cli, datafile, evaluation, gradcheck, layers, models, profiles, training,
                      waveforms)

# Holdout accuracy floors of source_train, after one epoch on a 1000-window
# balanced holdout, where a classifier without skill scores 0.50 +- 0.016.
# Seeds 0-9 and 30 random seeds in [0, 2**31) gave the CNN 0.599-0.726 and the
# MLP 0.630-0.762.
CNN_ACCURACY_FLOOR = 0.55
MLP_ACCURACY_FLOOR = 0.55
# target_transfer has no holdout accuracy floor.  Its source CNN trains for
# only 3 epochs on 1000 windows, and on 70 random seeds the fine-tuned CNN
# scored 0.487-0.740 on the 150-window holdout, where a classifier without
# skill scores 0.50 +- 0.04.  Its checks are structural instead: see
# TargetTransfer.verify.

GRADCHECK_TOLERANCE = 1e-4
WINDOW_LIMIT_S = 0.020  # one window lasts 300 samples at 15 kHz


@dataclass
class Cycle:
    """What one cycle produced."""

    seconds: float  # wall time of the whole cycle
    samples: dict = field(default_factory=dict)  # metric -> list of values
    digest: str = ""  # SHA-256 over every output that must repeat
    items: int = 1  # units of work done, for items_per_s_p90
    item_seconds: float = 0.0  # time the items took, when not the whole cycle
    ref_speed: float = 0.0  # reference calls per second around the cycle, set by run.py
    attempted: int = 1
    failed: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # for verify(); dropped after it

    @property
    def rate(self) -> float:
        """Items per second, for items_per_s_p90."""
        return self.items / (self.item_seconds or self.seconds)

    def fail(self, message: str, operations: int = 1) -> None:
        self.failures.append(message)
        self.failed = min(self.attempted, self.failed + operations)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def _params(model) -> bytes:
    return model.flat_parameters().tobytes()


def _fit_set(dataset, config):
    """The windows train() fits on after holding out its validation share."""
    return waveforms.split(dataset, 1.0 - config.validation_fraction, config.seed)[0]


def _conv_and_head(path) -> tuple[bytes, bytes]:
    """A CNN checkpoint's conv-layer parameters and its other parameters."""
    ckpt = models.load_checkpoint(path)
    model = models.restore_for_transfer(ckpt, ckpt.spec)
    parts = {True: [], False: []}
    for layer in model.layer_list:
        parts[isinstance(layer, layers.ConvLayer)] += [layer.weights.tobytes(), layer.bias.tobytes()]
    return b"".join(parts[True]), b"".join(parts[False])


def _constant_loss(dataset) -> float:
    """Cross-entropy of the best constant prediction: the labels' entropy, in nats."""
    p = float(np.mean(dataset.to_arrays()[1]))
    return -(p * np.log(p) + (1.0 - p) * np.log(1.0 - p))


# ---------------------------------------------------------------------------
# source_train


class SourceTrain:
    """Case-1 protocol on the source feeder: CNN then MLP, then evaluate both."""

    name = "source_train"
    cnn_spec = profiles.CNN_SPEC
    epochs = 1

    def __init__(self, workdir: Path, quick: bool):
        self.workdir = workdir
        self.quick = quick
        self.count = 400 if quick else profiles.CASE1_GEN.count
        self.cnn_config = dataclasses.replace(profiles.CASE1_CNN_TRAIN, epochs=self.epochs,
                                              early_stop=None)
        self.mlp_config = dataclasses.replace(profiles.CASE1_MLP_TRAIN, epochs=self.epochs,
                                              early_stop=None)

    def setup(self, seed: int) -> dict:
        gen = dataclasses.replace(profiles.CASE1_GEN, count=self.count, seed=seed)
        dataset = waveforms.build_dataset(gen)
        path = self.workdir / "case1.dataset"
        datafile.write_dataset(dataset, path)
        train_set, holdout = waveforms.split(dataset, profiles.CASE1_TRAIN_FRACTION,
                                             profiles.SPLIT_SEED)
        return {
            "train": train_set,
            "holdout": holdout,
            "cnn": models.build_model(profiles.CNN_SPEC, 1),
            "mlp": models.build_model(profiles.MLP_SPEC, 1),
            "fit": len(_fit_set(train_set, self.cnn_config)),
            "digest": _sha(path.read_bytes()),
        }

    def warmup(self, state: dict) -> None:
        small, _ = waveforms.split(state["train"], 0.1, 0)
        for key in ("cnn", "mlp"):
            run = training.train(state[key], small, self.cnn_config)
            evaluation.evaluate(run.model, state["holdout"])

    def cycle(self, state: dict) -> Cycle:
        t0 = time.perf_counter()
        cnn_run = training.train(state["cnn"], state["train"], self.cnn_config)
        t1 = time.perf_counter()
        mlp_run = training.train(state["mlp"], state["train"], self.mlp_config)
        t2 = time.perf_counter()
        cnn_report = evaluation.evaluate(cnn_run.model, state["holdout"])
        mlp_report = evaluation.evaluate(mlp_run.model, state["holdout"])
        t3 = time.perf_counter()

        fit = state["fit"] * self.epochs
        out = Cycle(t3 - t0, items=2 * fit, attempted=2)
        out.samples = {
            "cnn_train_samples_per_s": [fit / (t1 - t0)],
            "mlp_train_samples_per_s": [fit / (t2 - t1)],
            "eval_windows_per_s": [2 * len(state["holdout"]) / (t3 - t2)],
            "cnn_holdout_accuracy": [cnn_report.accuracy],
            "mlp_holdout_accuracy": [mlp_report.accuracy],
        }
        out.outputs = {"cnn": (cnn_run, cnn_report), "mlp": (mlp_run, mlp_report)}
        return out

    def verify(self, state: dict, out: Cycle) -> None:
        (cnn_run, cnn_report), (mlp_run, mlp_report) = out.outputs["cnn"], out.outputs["mlp"]
        for label, run in (("cnn", cnn_run), ("mlp", mlp_run)):
            losses = [v for r in run.records for v in (r.train_loss, r.val_loss)]
            if not (np.all(np.isfinite(losses)) and np.all(np.isfinite(run.model.flat_parameters()))):
                out.fail(f"{label}: non-finite loss or parameter")
        for label, report, floor in (("cnn", cnn_report, CNN_ACCURACY_FLOOR),
                                     ("mlp", mlp_report, MLP_ACCURACY_FLOOR)):
            if report.accuracy < floor and not self.quick:
                out.fail(f"{label} holdout accuracy {report.accuracy:.3f} < {floor}")
        out.digest = _sha(state["digest"], _params(cnn_run.model), _params(mlp_run.model),
                          cnn_run.to_csv(), mlp_run.to_csv(), cnn_report.matrix, mlp_report.matrix)


# ---------------------------------------------------------------------------
# target_transfer


class _TrainTimer:
    """Wall time of each training.train call the CLI makes.

    The CLI calls train() by the name it imported, so the timer replaces
    that binding for the duration of a cycle.
    """

    def __init__(self):
        self.seconds: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        inner = cli.train

        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds.append(time.perf_counter() - t)

        cli.train = timed
        try:
            yield self
        finally:
            cli.train = inner


class TargetTransfer:
    """Case-2 pipeline through the CLI: gen, finetune, finetune --scratch, eval."""

    name = "target_transfer"
    cnn_spec = profiles.CNN_SPEC
    source_count = 1000
    source_epochs = 3
    scratch_epochs = 20

    def __init__(self, workdir: Path, quick: bool):
        self.workdir = workdir
        self.quick = quick
        self.finetune_epochs = ()
        if quick:
            self.source_count, self.source_epochs, self.scratch_epochs = 100, 1, 2
            self.finetune_epochs = ("--epochs", 2)

    def _cli(self, *argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([str(a) for a in argv])
        return code, buf.getvalue()

    def setup(self, seed: int) -> dict:
        w = self.workdir
        codes = [
            self._cli("gen", "--profile", "case1", "--seed", seed, "--count", self.source_count,
                      "--out", w / "source.dataset"),
            self._cli("train", "--data", w / "source.dataset", "--model", "cnn",
                      "--epochs", self.source_epochs, "--out", w / "source.ckpt"),
        ]
        if any(code for code, _ in codes):
            raise RuntimeError(f"source checkpoint set-up failed: {codes}")
        # the library's own view of the case-2 data the CLI will generate
        target = waveforms.build_dataset(profiles.CASE2_GEN, master_seed=seed)
        datafile.write_dataset(target, w / "expected.dataset")
        train_set, holdout = waveforms.split(target, profiles.CASE2_TRAIN_FRACTION,
                                             profiles.SPLIT_SEED)
        fit_set = _fit_set(train_set, profiles.CASE2_SCRATCH)
        return {
            "seed": seed,
            "fit": len(fit_set),
            "constant_loss": _constant_loss(fit_set),
            "holdout": len(holdout),
            "source": _conv_and_head(w / "source.ckpt"),
            "digest": _sha((w / "expected.dataset").read_bytes()),
        }

    def _pipeline(self, state: dict, finetune_epochs, scratch_epochs):
        w = self.workdir
        data, transfer, scratch = w / "case2.dataset", w / "transfer.ckpt", w / "scratch.ckpt"
        fraction = str(profiles.CASE2_TRAIN_FRACTION)
        steps = [
            ("gen", ("gen", "--profile", "case2", "--seed", state["seed"], "--out", data)),
            ("finetune", ("finetune", "--ckpt", w / "source.ckpt", "--data", data,
                          "--out", transfer, *finetune_epochs)),
            ("scratch", ("finetune", "--ckpt", w / "source.ckpt", "--data", data, "--scratch",
                         "--epochs", scratch_epochs, "--out", scratch)),
            ("eval", ("eval", "--ckpt", transfer, scratch, "--data", data, "--holdout",
                      "--train-fraction", fraction, "--out", w / "report.csv")),
        ]
        timer = _TrainTimer()
        times, codes = {}, {}
        with timer.installed():
            for label, argv in steps:
                t = time.perf_counter()
                codes[label], _ = self._cli(*argv)
                times[label] = time.perf_counter() - t
        return times, codes, timer.seconds

    def warmup(self, state: dict) -> None:
        self._pipeline(state, ("--epochs", 1), 1)

    def cycle(self, state: dict) -> Cycle:
        t0 = time.perf_counter()
        times, codes, train_seconds = self._pipeline(state, self.finetune_epochs,
                                                     self.scratch_epochs)
        # items are the epochs trained (counted in verify), over the time train() took:
        # gen, eval and CLI work would otherwise make a longer early stop read faster
        out = Cycle(time.perf_counter() - t0, items=0, item_seconds=sum(train_seconds),
                    attempted=len(codes))
        out.samples = {
            "finetune_s": [times["finetune"]],
            "eval_windows_per_s": [2 * state["holdout"] / times["eval"]],
        }
        if len(train_seconds) == 2:  # the CLI called train() once per finetune command
            out.samples["cnn_train_samples_per_s"] = [
                state["fit"] * self.scratch_epochs / train_seconds[1]]
        out.outputs = {"codes": codes}
        return out

    def verify(self, state: dict, out: Cycle) -> None:
        for label, code in out.outputs["codes"].items():
            if code != 0:
                out.fail(f"{label}: exit {code}")
        if out.failures:
            return
        w = self.workdir
        with open(w / "report.csv") as f:
            report = {row["model"]: row for row in csv.DictReader(f)}
        for stem in ("transfer", "scratch"):
            out.samples[f"{stem}_holdout_accuracy"] = [float(report[stem]["accuracy"])]
        data_sha = _sha((w / "case2.dataset").read_bytes())
        if data_sha != state["digest"]:
            out.fail("gen wrote other bytes than waveforms.build_dataset")
        parts, train_loss = [data_sha], {}
        for stem in ("transfer", "scratch"):
            ckpt = models.load_checkpoint(w / f"{stem}.ckpt")
            curves = (w / f"{stem}.curves.csv").read_text()
            rows = [[float(v) for v in line.split(",")] for line in curves.splitlines()[1:]]
            out.items += len(rows)  # epochs trained
            if not (np.all(np.isfinite(ckpt.params)) and np.all(np.isfinite(rows))):
                out.fail(f"{stem}: non-finite parameter or curve value")
            train_loss[stem] = [row[1] for row in rows]
            if min(train_loss[stem]) >= train_loss[stem][0] and not self.quick:
                out.fail(f"{stem}: training loss never fell below its first epoch's")
            parts += [(w / f"{stem}.ckpt").read_bytes(), curves]
        # fine-tuning freezes the conv layers and retrains the dense head
        conv, head = _conv_and_head(w / "transfer.ckpt")
        if conv != state["source"][0]:
            out.fail("transfer: frozen conv parameters differ from the source checkpoint's")
        if head == state["source"][1]:
            out.fail("transfer: dense head is the source checkpoint's, unchanged")
        m = report["transfer"]
        if not self.quick and (int(m["tp"]) + int(m["fp"]) == 0 or int(m["tn"]) + int(m["fn"]) == 0):
            out.fail("transfer: gives every holdout window the same label")
        final_train_loss = train_loss["scratch"][-1]
        out.samples["scratch_final_train_loss"] = [final_train_loss]
        if final_train_loss >= state["constant_loss"] and not self.quick:
            out.fail(f"scratch final train loss {final_train_loss:.4f} is not below "
                     f"{state['constant_loss']:.4f}, the best constant prediction's")
        out.digest = _sha(*parts, (w / "report.csv").read_bytes())


# ---------------------------------------------------------------------------
# stream_detect


class StreamDetect:
    """Synthesize, store, read back and score windows one at a time at B=1."""

    name = "stream_detect"
    cnn_spec = profiles.CNN_SPEC
    count = 200

    def __init__(self, workdir: Path, quick: bool):
        self.workdir = workdir
        if quick:
            self.count = 20

    def setup(self, seed: int) -> dict:
        gen = dataclasses.replace(profiles.CASE1_GEN, count=self.count, seed=seed)
        reference = waveforms.build_dataset(gen)
        cnn = models.build_model(profiles.CNN_SPEC, seed)
        mlp = models.build_model(profiles.MLP_SPEC, seed)
        x, _ = reference.to_arrays()
        return {"gen": gen, "reference": reference, "cnn": cnn, "mlp": mlp,
                "digest": _sha(x.tobytes(), _params(cnn), _params(mlp)),
                "cnn_batch": models.forward_batch(cnn, x),
                "mlp_batch": models.forward_batch(mlp, x)}

    def _stream(self, state: dict, count: int):
        gen, seed = state["gen"], state["gen"].seed
        t0 = time.perf_counter()
        windows = [waveforms.generate_window(gen, seed, i) for i in range(count)]
        t1 = time.perf_counter()
        dataset = waveforms.Dataset(windows, seed, waveforms.SCENARIOS[gen.scenario])
        path = self.workdir / "stream.dataset"
        datafile.write_dataset(dataset, path)
        back = datafile.read_dataset(path)
        scores = np.empty((count, 2))
        latency = np.empty((count, 2))
        cpu = np.empty(count)
        for i, w in enumerate(back.windows):
            a, cpu_a = time.perf_counter(), time.thread_time()
            scores[i, 0] = models.forward(state["cnn"], w.samples)
            b = time.perf_counter()
            scores[i, 1] = models.forward(state["mlp"], w.samples)
            c, cpu_c = time.perf_counter(), time.thread_time()
            latency[i] = (b - a, c - b)
            cpu[i] = cpu_c - cpu_a
        return t1 - t0, dataset, back, path, scores, latency, cpu

    def warmup(self, state: dict) -> None:
        self._stream(state, 5)

    def cycle(self, state: dict) -> Cycle:
        t0 = time.perf_counter()
        gen_s, dataset, back, path, scores, latency, cpu = self._stream(state, self.count)
        out = Cycle(time.perf_counter() - t0, items=self.count, attempted=self.count)
        out.samples = {
            "gen_windows_per_s": [self.count / gen_s],
            "detect_ms": list(latency[:, 0] * 1e3),
            "mlp_detect_ms": list(latency[:, 1] * 1e3),
        }
        out.outputs = {"dataset": dataset, "back": back, "path": path, "scores": scores,
                       "latency": latency, "cpu": cpu}
        return out

    def verify(self, state: dict, out: Cycle) -> None:
        dataset, back, scores = out.outputs["dataset"], out.outputs["back"], out.outputs["scores"]
        latency, cpu = out.outputs["latency"], out.outputs["cpu"]
        late_wall = int(np.count_nonzero(latency.sum(axis=1) > WINDOW_LIMIT_S))
        late = int(np.count_nonzero(cpu > WINDOW_LIMIT_S))
        out.samples["late_wall_windows"] = [late_wall]
        if late:
            out.fail(f"{late} windows took over {WINDOW_LIMIT_S * 1e3:.0f} ms of CPU to score", late)
        if back != dataset or dataset.windows != state["reference"].windows:
            out.fail("streamed windows differ from the reference dataset")
        if not (np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))):
            out.fail("score outside [0, 1]")
        # B=1 and batched BLAS calls may round differently in the last bits
        for col, key in ((0, "cnn_batch"), (1, "mlp_batch")):
            if not np.allclose(scores[:, col], state[key], rtol=1e-9, atol=1e-12):
                out.fail(f"{key[:3]} B=1 scores differ from the batched scores")
        out.digest = _sha(out.outputs["path"].read_bytes(), scores.tobytes())


# ---------------------------------------------------------------------------
# gradcheck


class GradCheck:
    """find_check_point then grad_check, for the CNN and the MLP.

    The inputs are those of ``hifbench gradcheck`` with its default seed,
    which acceptance criterion 4 also checks: model init seed 0 and check
    point seed 0.  They do not follow the workload seed, because for other
    init seeds (2 and 3, for instance) grad_check reports errors above
    1e-4 on parameters whose gradient is about 1e-8, where the finite
    difference is dominated by rounding.
    """

    name = "gradcheck"
    cnn_spec = profiles.CNN_SPEC
    mlp_spec = profiles.MLP_SPEC
    seed = 0

    def __init__(self, workdir: Path, quick: bool):
        if quick:
            self.cnn_spec = models.CnnSpec(
                blocks=tuple(models.ConvBlockSpec(c, k, 2, 2)
                             for c, k in ((2, 5), (3, 3), (4, 3), (5, 3))),
                hidden_dim=4)
            self.mlp_spec = models.MlpSpec(hidden_dims=(4, 3, 2))

    def setup(self, seed: int) -> dict:
        pair = [("cnn", models.build_model(self.cnn_spec, self.seed)),
                ("mlp", models.build_model(self.mlp_spec, self.seed))]
        return {"seed": self.seed, "models": pair, "digest": _sha(*(_params(m) for _, m in pair))}

    def warmup(self, state: dict) -> None:
        for _, model in state["models"]:
            x, _ = gradcheck.find_check_point(model, seed=state["seed"])
            models.forward_batch(model, x)

    def cycle(self, state: dict) -> Cycle:
        t0 = time.perf_counter()
        results = []
        for label, model in state["models"]:
            before = _params(model)
            x, y = gradcheck.find_check_point(model, seed=state["seed"])
            err = gradcheck.grad_check(model, x, y)
            results.append((label, before, x, err, _params(model)))
        probes = sum(m.parameter_count() for _, m in state["models"])
        out = Cycle(time.perf_counter() - t0, items=probes, attempted=len(results))
        out.samples = {"gradcheck_s": [out.seconds]}
        out.outputs = {"results": results}
        return out

    def verify(self, state: dict, out: Cycle) -> None:
        results = out.outputs["results"]
        for label, before, x, err, after in results:
            out.samples[f"{label}_gradcheck_error"] = [err]
            if not (np.isfinite(err) and err < GRADCHECK_TOLERANCE):
                out.fail(f"{label}: gradcheck error {err:.3e} >= {GRADCHECK_TOLERANCE}")
            if before != after:
                out.fail(f"{label}: grad_check changed the model's parameters")
        out.digest = _sha(*(p for r in results for p in (r[1], r[2].tobytes(), repr(r[3]))))


WORKLOADS = {w.name: w for w in (SourceTrain, TargetTransfer, StreamDetect, GradCheck)}
