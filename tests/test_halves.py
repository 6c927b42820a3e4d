"""The per-window work of a CNN step runs on two window halves at once, one
on the calling thread and one on a worker thread; the cross-window sums run
once, on the whole batch.  These tests hold the result to a serial
composition of the layers kernels, byte for byte, and check the worker's
error handling and lifetime."""

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import hifbench
from hifbench import layers as L
from hifbench import models, training, waveforms
from hifbench.models import build_model, forward_batch, standardize
from hifbench.profiles import CNN_SPEC

from test_models import TINY_CNN, TINY_MLP


def serial_forward(model, x):
    """(output, caches): every stage on the whole batch, one kernel call each."""
    h, caches = standardize(x), []
    last = len(model.layer_list) - 1
    for i, layer in enumerate(model.layer_list):
        pool = model.pool(i)
        if pool is None:
            pre = L.dense_forward_batch(h, layer)
            caches.append((h, pre))
            out = L.relu_forward(pre) if i < last else pre
        else:
            pre, cols = L.conv_forward_batch(
                h.reshape(len(h), -1, layer.in_channels).transpose(0, 2, 1), layer)
            out, offset = L.maxpool_forward_batch(L.relu_forward(pre), *pool)
            caches.append((h, pre, cols, offset))
            out = (out if model.pool(i + 1) is None else out.transpose(0, 2, 1)).reshape(len(h), -1)
        h = out
    return h, caches


def serial_step(model, x, y):
    """(loss, grads, probs) of one step composed from the layers kernels."""
    logits, caches = serial_forward(model, x)
    probs = L.sigmoid(logits[:, 0])
    grad = L.sigmoid_bce_backward(probs, y)[:, None]
    grads = [None] * len(model.layer_list)
    for i in reversed(range(len(model.layer_list))):
        layer, (h, pre, *rest) = model.layer_list[i], caches[i]
        if model.pool(i) is None:
            if i < len(model.layer_list) - 1:
                grad = L.relu_backward(grad, pre)
            d_w, d_b, grad = L.dense_backward_batch(grad, h, layer, i > 0)
        else:
            cols, offset = rest
            d_pre = L.relu_backward(L.maxpool_backward_batch(
                model.channels(i, grad), offset, pre.shape[2], *model.pool(i)), pre)
            shape = (len(h), layer.in_channels, h.shape[-1] // layer.in_channels)
            d_w, d_b, d_x = L.conv_backward_batch(d_pre, cols, layer, shape, i > 0)
            grad = None if d_x is None else d_x.transpose(0, 2, 1).reshape(h.shape)
        grads[i] = (d_w, d_b)
    return L.bce_loss(probs, y), grads, probs


HALVES = 2 * models.HALF_WINDOWS  # the smallest batch that runs as two halves


class TestBytes:
    # batches below HALVES run as one part; HALVES + 1, 31 and 33 have halves
    # of unequal size, as a short tail batch of an epoch can
    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 5, HALVES - 1, HALVES, HALVES + 1, 31, 32, 33])
    @pytest.mark.parametrize("spec", [CNN_SPEC, TINY_CNN], ids=["cnn", "tiny_cnn"])
    def test_step_equals_serial_composition(self, spec, batch):
        model = build_model(spec, 3)
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, spec.input_length)) * rng.uniform(0.1, 10.0, (batch, 1))
        y = (rng.random(batch) < 0.5).astype(np.float64)
        loss, grads, probs, _ = models.batch_loss_and_grads(model, x, y)
        r_loss, r_grads, r_probs = serial_step(model, x, y)
        assert np.float64(loss).tobytes() == np.float64(r_loss).tobytes()
        assert probs.tobytes() == r_probs.tobytes()
        for (d_w, d_b), (r_w, r_b) in zip(grads, r_grads):
            assert d_w.tobytes() == r_w.tobytes()
            assert d_b.tobytes() == r_b.tobytes()

    @pytest.mark.parametrize("spec, start", [(CNN_SPEC, 0), (CNN_SPEC, len(CNN_SPEC.blocks)),
                                             (TINY_MLP, 0), (TINY_MLP, 2)],
                             ids=["cnn", "cnn_frozen_conv", "mlp", "mlp_from_stage_2"])
    @pytest.mark.parametrize("batch", [7, HALVES + 1])
    def test_gradient_vector_equals_serial_composition(self, spec, start, batch):
        """The trained tail of the gradient vector holds the serial kernels'
        (d_weights, d_bias) of each trained stage, in layer_list order."""
        model = build_model(spec, 3)
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, spec.input_length))
        y = (rng.random(batch) < 0.5).astype(np.float64)
        want = np.concatenate([g.ravel() for pair in serial_step(model, x, y)[1][start:]
                               for g in pair])
        stored = models.run_stages(model, x, stop=start)
        vector = models.batch_loss_and_grads(model, stored, y, start)[3]
        assert vector[model.offsets[start]:].tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [64, 65, 66, 130])
    def test_forward_equals_stage_by_stage_composition(self, n):
        model = build_model(CNN_SPEC, 4)
        x = np.random.default_rng(n).normal(size=(n, CNN_SPEC.input_length))
        logits, caches = serial_forward(model, x)
        assert forward_batch(model, x).tobytes() == L.sigmoid(logits[:, 0]).tobytes()
        probs, got = forward_batch(model, x, want_cache=True)
        assert probs.tobytes() == L.sigmoid(logits[:, 0]).tobytes()
        for cache, want in zip(got, caches):
            assert [a.tobytes() for a in cache] == [a.tobytes() for a in want]


class TestConcurrentCallers:
    def test_callers_on_many_threads_share_the_worker_and_keep_their_bytes(self):
        """More calling threads than cores, switching often: each step still
        equals its serial composition, so no half landed in another call's
        buffers."""
        rng = np.random.default_rng(21)
        jobs = []
        for seed in range(4):
            model = build_model(CNN_SPEC, seed)
            x = rng.normal(size=(HALVES + seed, CNN_SPEC.input_length))
            y = (rng.random(len(x)) < 0.5).astype(np.float64)
            jobs.append((model, x, y, serial_step(model, x, y)[1]))
        failures = []

        def caller(model, x, y, want):
            for _ in range(5):
                grads = models.batch_loss_and_grads(model, x, y)[1]
                if any(g.tobytes() != w.tobytes()
                       for pair, want_pair in zip(grads, want) for g, w in zip(pair, want_pair)):
                    failures.append(len(x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=job) for job in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


def spike_model():
    """A CNN whose first conv block overflows on a window holding one spike
    (standardized to about 17.3) and not on a sine (peak about 1.41)."""
    model = build_model(CNN_SPEC, 5)
    for layer in model.layer_list[:len(CNN_SPEC.blocks)]:
        layer.weights[...] = 0.0
        layer.bias[...] = 0.0
    model.layer_list[0].weights[:, 0, 3] = 2.5e307
    return model


def sines(n, length=CNN_SPEC.input_length):
    t = np.arange(length)
    return np.stack([np.sin(2 * np.pi * t / 50 + phase) for phase in np.linspace(0, 3, n)])


def spike(length=CNN_SPEC.input_length):
    w = np.zeros(length)
    w[150] = 1.0
    return w


class TestErrors:
    @pytest.mark.parametrize("row", [1, HALVES - 2], ids=["first", "second"])
    def test_overflow_in_either_half_raises(self, row):
        """The first half runs on the calling thread and the second on the
        worker.  Either half's overflow reaches the caller, and a clean step on
        the same model then gets the bytes it got before."""
        model = spike_model()
        x = sines(HALVES)
        y = np.tile([1.0, 0.0], HALVES // 2)
        with np.errstate(over="raise"):
            want = models.batch_loss_and_grads(model, x, y)[3].copy()  # the sines are fine
            spiked = x.copy()
            spiked[row] = spike()
            with pytest.raises(FloatingPointError, match="overflow"):
                models.batch_loss_and_grads(model, spiked, y)
            assert models.batch_loss_and_grads(model, x, y)[3].tobytes() == want.tobytes()

    def test_a_raising_caller_half_waits_for_the_worker_half(self):
        """The worker's half may still be writing into the caller's buffers, so
        the caller's error is raised only once that half has returned."""
        finished = threading.Event()

        def there():
            time.sleep(0.2)
            finished.set()

        def here():
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            models._both(here, there)
        assert finished.is_set()
        assert models._both(lambda: 1, lambda: 2) == (1, 2)

    def test_train_diverges_at_the_batch_whose_second_half_overflows(self, spy):
        x = sines(4 * HALVES)  # a fit set of 3 batches of HALVES windows
        windows = [waveforms.Window(row, waveforms.Label(i % 2), waveforms.SystemId.SOURCE, i)
                   for i, row in enumerate(x)]
        config = training.TrainConfig(epochs=1, batch_size=HALVES, seed=3)
        model = spike_model()
        calls = spy(training, "batch_loss_and_grads")
        dataset = waveforms.Dataset(windows, 0, waveforms.SCENARIOS["source"])
        training.train(model, dataset, config)
        batches = [c.args[1] for c in calls]
        # a window that lands in the second half of batch 2
        assert len(batches) == 3 and len(batches[2]) == HALVES
        row = batches[2][-2]
        target = next(i for i, w in enumerate(windows) if w.samples.tobytes() == row.tobytes())
        windows[target] = waveforms.Window(spike(), windows[target].label,
                                           waveforms.SystemId.SOURCE, target)
        dataset = waveforms.Dataset(windows, 0, waveforms.SCENARIOS["source"])
        with np.errstate(over="raise"), pytest.raises(training.DivergenceError) as info:
            training.train(model, dataset, config)
        assert (info.value.epoch, info.value.batch) == (1, 2)
        assert "overflow" in str(info.value.__cause__)


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(hifbench.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)


class TestWorkerLifetime:
    def test_import_and_two_window_gradcheck_start_no_thread(self):
        done = run_python("""
            import threading
            before = threading.active_count()
            import hifbench
            from hifbench import cli, gradcheck, models
            assert threading.active_count() == before
            spec = models.CnnSpec(blocks=tuple(models.ConvBlockSpec(c, k, 2, 2)
                                               for c, k in ((2, 5), (3, 3), (4, 3), (5, 3))),
                                  hidden_dim=4)
            model = models.build_model(spec, 0)
            x, y = gradcheck.find_check_point(model)
            assert gradcheck.grad_check(model, x, y) < 1e-4
            assert threading.active_count() == before, threading.enumerate()
            print("ok")
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"]

    @pytest.mark.parametrize("call", ["batch_loss_and_grads(model, x, y)",
                                      "forward_batch(model, x)"], ids=["step", "forward"])
    def test_sixteen_windows_start_no_thread(self, call):
        """Below 2 * HALF_WINDOWS windows, handing a half to the worker costs
        more than it saves, so the batch runs as one part."""
        done = run_python(f"""
            import threading
            import numpy as np
            from hifbench.models import batch_loss_and_grads, build_model, forward_batch
            from hifbench.profiles import CNN_SPEC
            before = threading.active_count()
            model = build_model(CNN_SPEC, 0)
            x = np.random.default_rng(0).normal(size=(16, CNN_SPEC.input_length))
            y = np.tile([1.0, 0.0], 8)
            {call}
            assert threading.active_count() == before, threading.enumerate()
            print("ok")
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"]

    def test_a_forked_child_starts_a_worker_of_its_own(self):
        """A child forked after the worker started has the worker object but
        not its thread; without a worker of its own its first halves step
        would wait forever (here, until the alarm ends it)."""
        done = run_python("""
            import os, signal
            import numpy as np
            from hifbench import models
            from hifbench.profiles import CNN_SPEC
            n = 2 * models.HALF_WINDOWS
            model = models.build_model(CNN_SPEC, 0)
            x = np.random.default_rng(0).normal(size=(n, CNN_SPEC.input_length))
            y = np.tile([1.0, 0.0], n // 2)
            want = models.batch_loss_and_grads(model, x, y)[3].tobytes()
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                os._exit(0 if models.batch_loss_and_grads(model, x, y)[3].tobytes() == want
                         else 1)
            print("child", os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["child", "0"]

    def test_train_leaves_one_idle_worker_and_the_process_exits(self, tmp_path):
        done = run_python(f"""
            import threading
            from hifbench import cli
            data, ckpt = {str(tmp_path / "d.dataset")!r}, {str(tmp_path / "m.ckpt")!r}
            assert cli.main(["gen", "--profile", "case2", "--count", "40", "--out", data]) == 0
            before = threading.active_count()
            assert cli.main(["train", "--data", data, "--model", "cnn", "--epochs", "1",
                             "--out", ckpt]) == 0
            extra = [t for t in threading.enumerate() if t is not threading.main_thread()]
            assert threading.active_count() == before + 1, extra
            assert [(t.name, t.daemon) for t in extra] == [("hifbench-half", True)]
            print("ok")
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-1] == "ok"
