"""Span tracing around calls into hifbench's public functions.

The program is not modified: each traced function is replaced by a wrapper
in every hifbench module that binds it by name (``from .models import
forward_batch`` makes a second binding that patching ``hifbench.models``
alone would miss).  Spans go into flat arrays while a cycle runs and are
written out once, when the run ends.  Per-layer statistics are derived from
the spans afterwards: busy time is the sum of span durations, self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (defining module, attribute, span name).  Every binding of the attribute's
# object in any hifbench module is replaced.
TRACED = [
    ("layers", "conv_forward_batch", "layers.conv_fwd"),
    ("layers", "conv_backward_batch", "layers.conv_bwd"),
    ("layers", "maxpool_forward_batch", "layers.pool_fwd"),
    ("layers", "maxpool_backward_batch", "layers.pool_bwd"),
    ("layers", "relu_forward", "layers.relu_fwd"),
    ("layers", "relu_backward", "layers.relu_bwd"),
    ("layers", "dense_forward_batch", "layers.dense_fwd"),
    ("layers", "dense_backward_batch", "layers.dense_bwd"),
    ("models", "standardize", "models.standardize"),
    ("models", "forward_batch", "models.forward_batch"),
    ("models", "backward_batch", "models.backward_batch"),
    ("models", "batch_loss_and_grads", "models.batch_loss_and_grads"),
    ("models", "save_checkpoint", "models.save_checkpoint"),
    ("models", "load_checkpoint", "models.load_checkpoint"),
    ("training", "train", "training.train"),
    ("waveforms", "generate_window", "waveforms.generate_window"),
    ("waveforms", "split", "waveforms.split"),
    ("datafile", "write_dataset", "datafile.write_dataset"),
    ("datafile", "read_dataset", "datafile.read_dataset"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("gradcheck", "kink_margin", "gradcheck.kink_margin"),
    ("gradcheck", "find_check_point", "gradcheck.find_check_point"),
    ("gradcheck", "grad_check", "gradcheck.grad_check"),
    ("cli", "main", "cli.main"),
]
# Methods are patched once, on their class.
TRACED_METHODS = [("waveforms", "Dataset", "to_arrays", "waveforms.to_arrays")]

KERNELS = ["conv_fwd", "conv_bwd", "pool_fwd", "pool_bwd",
           "relu_fwd", "relu_bwd", "dense_fwd", "dense_bwd"]
BLOCK_KERNELS = ["conv_fwd", "conv_bwd", "pool_fwd", "pool_bwd"]
FLOP_KERNELS = ["conv_fwd", "conv_bwd", "dense_fwd", "dense_bwd"]
N_BLOCKS = 4


def _nbytes(obj) -> int:
    """Bytes of every array in an argument or result, layer parameters included."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    weights = getattr(obj, "weights", None)
    if isinstance(weights, np.ndarray):
        return weights.nbytes + obj.bias.nbytes
    return 0


def kernel_facts(kernel: str, args, result) -> tuple[int, int, tuple]:
    """(flop, computed bytes, block key) of one kernel call, from shapes only.

    A block key identifies a conv block by (in channels, out channels,
    kernel size, input length) and a pool block by (channels, input length).
    """
    nbytes = _nbytes(args) + _nbytes(result)
    if kernel == "conv_fwd":
        x, layer = args[0], args[1]
        b, c, length = x.shape
        out_ch, _, k = layer.weights.shape
        return 2 * b * (length - k + 1) * out_ch * c * k, nbytes, ("conv", c, out_ch, k, length)
    if kernel == "conv_bwd":
        grad_out, layer, input_shape = args[0], args[2], args[3]
        b, out_ch, t = grad_out.shape
        _, c, k = layer.weights.shape
        # d_w = g^T cols and d_cols = g W, each 2*B*T*out*in*k
        return 4 * b * t * out_ch * c * k, nbytes, ("conv", c, out_ch, k, input_shape[2])
    if kernel == "pool_fwd":
        return 0, nbytes, ("pool", args[0].shape[1], args[0].shape[2])
    if kernel == "pool_bwd":
        return 0, nbytes, ("pool", args[0].shape[1], args[2])
    if kernel == "dense_fwd":
        return 2 * args[0].shape[0] * args[1].weights.size, nbytes, ()
    if kernel == "dense_bwd":
        return 4 * args[0].shape[0] * args[2].weights.size, nbytes, ()
    return 0, nbytes, ()


def block_keys(spec) -> dict:
    """Block key -> 1-based block number, for a CNN spec."""
    keys = {}
    lengths = spec.feature_lengths()
    in_ch = 1
    for i, blk in enumerate(spec.blocks):
        keys[("conv", in_ch, blk.out_channels, blk.kernel_size, lengths[2 * i])] = i + 1
        keys[("pool", blk.out_channels, lengths[2 * i + 1])] = i + 1
        in_ch = blk.out_channels
    return keys


def best_epoch(run) -> int:
    """Epoch whose weights training.train returned."""
    if run.config.early_stop is None:
        return len(run.records)
    # the rule training.train applies when it keeps the best weights
    _, min_delta = run.config.early_stop
    best, best_val = 0, np.inf
    for r in run.records:
        if r.val_loss < best_val - min_delta:
            best, best_val = r.epoch, r.val_loss
    return best


def layers_changed(before, after) -> int:
    return sum(
        1 for b, a in zip(before.layer_list, after.layer_list)
        if not (np.array_equal(b.weights, a.weights) and np.array_equal(b.bias, a.bias))
    )


class Tracer:
    """Span recorder.  Records only while ``cycle`` is non-negative."""

    def __init__(self, run_id: str, cnn_spec):
        self.run_id = run_id
        self.cycle = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.cycle_of = array("i")
        self.block = array("b")  # conv/pool block number, 0 elsewhere
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.block_map = block_keys(cnn_spec)
        # (cycle, kernel) -> [flop, computed bytes]
        self.kernel_totals: dict = defaultdict(lambda: [0, 0])
        # span index -> fact, for the few spans whose result matters
        self.facts: dict[int, object] = {}
        self._originals: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        kernel = name[len("layers."):] if name.startswith("layers.") else None
        tracer = self

        def traced(*args, **kwargs):
            if tracer.cycle < 0:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.cycle_of.append(tracer.cycle)
            tracer.block.append(0)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer.stack.append(idx)
            tracer.start[idx] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter_ns()
                tracer.stack.pop()
            if kernel is not None:
                flop, nbytes, key = kernel_facts(kernel, args, result)
                totals = tracer.kernel_totals[(tracer.cycle, kernel)]
                totals[0] += flop
                totals[1] += nbytes
                tracer.block[idx] = tracer.block_map.get(key, 0)
            elif name == "training.train":
                model = args[0] if args else kwargs["model"]
                tracer.facts[idx] = (len(result.records), best_epoch(result),
                                     layers_changed(model, result.model))
            elif name == "models.batch_loss_and_grads":
                tracer.facts[idx] = sum(g is not None for g in result[1])
            elif name == "gradcheck.kink_margin":
                tracer.facts[idx] = result
            elif name == "evaluation.evaluate":
                tracer.facts[idx] = len(args[1])
            elif name == "datafile.write_dataset":
                tracer.facts[idx] = os.path.getsize(args[1])
            elif name == "datafile.read_dataset":
                tracer.facts[idx] = os.path.getsize(args[0])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Wrap every traced function at every import site; returns the site count."""
        import hifbench

        modules = {info.name: importlib.import_module(f"hifbench.{info.name}")
                   for info in pkgutil.iter_modules(hifbench.__path__)}
        sites = 0
        originals = set()
        for mod_name, attr, span in TRACED:
            self._id(span)
            original = getattr(modules[mod_name], attr, None)
            if original is None:  # gone from the program: its metrics read 0
                continue
            originals.add(id(original))
            wrapper = self.wrap(original, span)
            for mod in modules.values():
                if vars(mod).get(attr) is original:
                    self._originals.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    sites += 1
        for mod_name, cls_name, attr, span in TRACED_METHODS:
            self._id(span)
            original = vars(getattr(modules[mod_name], cls_name, object)).get(attr)
            if original is None:
                continue
            cls = getattr(modules[mod_name], cls_name)
            self._originals.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, span))
            sites += 1
        # a binding left unwrapped (say, under another name) would silently
        # drop spans, as the validation forward inside training.train would be
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "hifbench" or mod_name.startswith("hifbench."):
                for attr, value in vars(mod).items():
                    if id(value) in originals:
                        raise RuntimeError(f"{mod_name}.{attr} is still the untraced function")
        return sites

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "cycle": np.frombuffer(self.cycle_of, dtype=np.int32),
            "block": np.frombuffer(self.block, dtype=np.int8),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span (name, start, end, parent, cycle) with the run id."""
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 **self.arrays())

    def cycle_stats(self, cycle: int) -> tuple[dict, dict]:
        """(counts, times) of one traced cycle.

        Counts are exact and must repeat from cycle to cycle of the same
        inputs.  Times are seconds, except the per-block medians in µs.
        """
        a = self.arrays()
        sel = np.flatnonzero(a["cycle"] == cycle)
        dur_all = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur_all[has_parent],
                            minlength=len(dur_all))
        dur = dur_all[sel]
        self_dur = (dur_all - child)[sel]
        nid = a["name_id"][sel]
        parent = a["parent"][sel]
        parent_nid = np.where(parent >= 0, a["name_id"][np.maximum(parent, 0)], -1)
        block = a["block"][sel]

        def mask(name):
            return nid == self._name_ids.get(name, -2)

        def busy(name):
            return float(dur[mask(name)].sum())

        def self_time(name):
            return float(self_dur[mask(name)].sum())

        def calls(name):
            return int(np.count_nonzero(mask(name)))

        counts: dict = {}
        times: dict = {}
        for k in KERNELS:
            counts[f"layers.{k}.calls"] = calls("layers." + k)
            times[f"layers.{k}.busy_s"] = busy("layers." + k)
        for k in FLOP_KERNELS:
            counts[f"layers.{k}.flop"] = self.kernel_totals[(cycle, k)][0]
        for k in BLOCK_KERNELS:
            counts[f"layers.{k}.computed_bytes"] = self.kernel_totals[(cycle, k)][1]
            for b in range(1, N_BLOCKS + 1):
                d = dur[mask("layers." + k) & (block == b)]
                times[f"layers.{k}.block{b}.us_per_call"] = float(np.median(d)) * 1e6 if d.size else 0.0

        counts["models.forward_batch.calls"] = calls("models.forward_batch")
        for name in ("models.forward_batch", "models.backward_batch"):
            times[f"{name}.busy_s"] = busy(name)
            times[f"{name}.self_s"] = self_time(name)
        for name in ("models.standardize", "models.save_checkpoint", "models.load_checkpoint"):
            times[f"{name}.busy_s"] = busy(name)

        train_id = self._name_ids["training.train"]
        under_train = np.zeros(sel.size, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            under_train[live] |= a["name_id"][anc[live]] == train_id
            anc[live] = a["parent"][anc[live]]
        is_layer = np.isin(nid, [self._name_ids["layers." + k] for k in KERNELS])
        train_busy = busy("training.train")
        times["training.train.layers_share"] = (
            float(dur[is_layer & under_train].sum()) / train_busy if train_busy else 0.0)
        times["training.train.busy_s"] = train_busy
        times["training.train.self_s"] = self_time("training.train")
        in_train = parent_nid == train_id
        times["training.validation.busy_s"] = float(
            dur[mask("models.forward_batch") & in_train].sum())
        steps = sel[mask("models.batch_loss_and_grads") & in_train]
        counts["training.steps"] = int(steps.size)
        trains = sel[mask("training.train")]
        epochs = sum(self.facts[t][0] for t in trains)
        counts["training.epochs"] = epochs
        counts["training.useful_epoch_ratio"] = (
            sum(self.facts[t][1] for t in trains) / epochs if epochs else 0.0)
        # layer updates applied / layer gradients computed, over every step
        applied = computed = 0
        for i in (1, 2):
            counts[f"training.train{i}.applied_grad_ratio"] = 0.0
        for i, t in enumerate(trains):
            mine = steps[a["parent"][steps] == t]
            t_computed = sum(self.facts[s] for s in mine)
            t_applied = self.facts[t][2] * mine.size
            applied += t_applied
            computed += t_computed
            if i < 2 and t_computed:
                counts[f"training.train{i + 1}.applied_grad_ratio"] = t_applied / t_computed
        counts["training.applied_grad_ratio"] = applied / computed if computed else 0.0

        counts["waveforms.generate_window.calls"] = calls("waveforms.generate_window")
        for name in ("waveforms.generate_window", "waveforms.split", "waveforms.to_arrays",
                     "datafile.write_dataset", "datafile.read_dataset",
                     "evaluation.evaluate", "gradcheck.grad_check",
                     "gradcheck.find_check_point", "cli.main"):
            times[f"{name}.busy_s"] = busy(name)
        counts["evaluation.evaluate.windows"] = sum(
            self.facts[s] for s in sel[mask("evaluation.evaluate")])
        counts["datafile.bytes"] = sum(
            self.facts[s] for s in sel[mask("datafile.write_dataset") | mask("datafile.read_dataset")])
        times["gradcheck.grad_check.self_s"] = self_time("gradcheck.grad_check")
        times["cli.main.self_s"] = self_time("cli.main")
        counts["cli.main.calls"] = calls("cli.main")

        from hifbench.gradcheck import MIN_KINK_MARGIN

        counts["gradcheck.kink_margin.calls"] = calls("gradcheck.kink_margin")
        searched = sel[mask("gradcheck.kink_margin")
                       & (parent_nid == self._name_ids["gradcheck.find_check_point"])]
        accepted = sum(1 for s in searched if self.facts[s] >= MIN_KINK_MARGIN)
        counts["gradcheck.find_check_point.accept_ratio"] = (
            accepted / searched.size if searched.size else 0.0)
        counts["trace.spans"] = int(sel.size)
        return counts, times
