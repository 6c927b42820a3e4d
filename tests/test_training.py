import dataclasses

import numpy as np
import pytest

from hifbench.models import MlpSpec, build_model, save_checkpoint
from hifbench.training import (
    DivergenceError,
    EpochRecord,
    TrainConfig,
    TrainingRun,
    detect_convergence,
    fine_tune,
    train,
)

from test_models import TINY_MLP  # 20-sample windows keep these tests fast

TINY_GEN = None  # real datasets come from the fixtures


def quick_config(**overrides) -> TrainConfig:
    base = dict(epochs=3, batch_size=8, learning_rate=0.05, momentum=0.9,
                seed=7, validation_fraction=0.25)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            quick_config(epochs=-1)
        with pytest.raises(ValueError):
            quick_config(batch_size=0)
        with pytest.raises(ValueError):
            quick_config(learning_rate=-0.1)
        with pytest.raises(ValueError):
            quick_config(validation_fraction=1.0)

    @pytest.mark.parametrize("name", ["learning_rate", "momentum"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
    def test_rates_must_be_finite_and_nonnegative(self, name, value):
        with pytest.raises(ValueError, match=name):
            quick_config(**{name: value})

    @pytest.mark.parametrize("overrides,check", [
        ({"epochs": 2.5}, "epochs must be an integer"),
        ({"epochs": True}, "epochs must be an integer"),
        ({"batch_size": 8.0}, "batch_size must be an integer"),
        ({"seed": 1.0}, "seed must be an integer"),
        ({"seed": -1}, "seed must be nonnegative"),
        ({"learning_rate": "0.1"}, "learning_rate must be a finite number"),
        ({"learning_rate": None}, "learning_rate must be a finite number"),
        ({"momentum": True}, "momentum must be a finite number"),
        ({"validation_fraction": "0.5"}, "validation_fraction must lie"),
        ({"early_stop": (3,)}, "early_stop"),
        ({"early_stop": (3, 1e-4, 0)}, "early_stop"),
        ({"early_stop": [3, 1e-4]}, "early_stop"),
        ({"early_stop": (0, 1e-4)}, "early_stop"),
        ({"early_stop": (3.0, 1e-4)}, "early_stop"),
        ({"early_stop": (3, float("nan"))}, "early_stop"),
        ({"early_stop": (3, float("inf"))}, "early_stop"),
        ({"early_stop": (3, -1e-4)}, "early_stop"),
        ({"early_stop": (3, "0")}, "early_stop"),
        ({"early_stop": (3, True)}, "early_stop"),
    ], ids=["float_epochs", "bool_epochs", "float_batch_size", "float_seed", "negative_seed",
            "str_learning_rate", "none_learning_rate", "bool_momentum", "str_validation_fraction",
            "early_stop_single", "early_stop_triple", "early_stop_list", "zero_patience",
            "float_patience", "nan_min_delta", "inf_min_delta", "negative_min_delta",
            "string_min_delta", "bool_min_delta"])
    def test_an_invalid_config_is_never_made(self, overrides, check):
        """Each is refused as the config is made; else it would fail, or train
        wrongly, only once train() runs: (3,) after a full epoch, a NaN
        min_delta by keeping the last weights, not the best."""
        with pytest.raises(ValueError, match=check):
            quick_config(**overrides)
        with pytest.raises(ValueError, match=check):
            dataclasses.replace(quick_config(), **overrides)

    def test_zero_epochs_allowed(self):
        assert quick_config(epochs=0).epochs == 0


class TestTrainLoop:
    def test_zero_learning_rate_is_fixed_point(self, small_dataset):
        from hifbench.profiles import CNN_SPEC
        model = build_model(CNN_SPEC, 1)
        before = model.flat_parameters().copy()
        run = train(model, small_dataset, quick_config(epochs=2, learning_rate=0.0))
        assert np.array_equal(run.model.flat_parameters(), before)
        assert np.array_equal(model.flat_parameters(), before)  # input untouched

    def test_bit_for_bit_deterministic(self, small_dataset):
        from hifbench.profiles import MLP_SPEC
        cfg = quick_config(epochs=3)
        a = train(build_model(MLP_SPEC, 2), small_dataset, cfg)
        b = train(build_model(MLP_SPEC, 2), small_dataset, cfg)
        assert np.array_equal(a.model.flat_parameters(), b.model.flat_parameters())
        assert [dataclasses.astuple(r)[:4] for r in a.records] == [
            dataclasses.astuple(r)[:4] for r in b.records
        ]

    def test_train_loss_decreases(self, small_dataset):
        from hifbench.profiles import MLP_SPEC
        run = train(build_model(MLP_SPEC, 3), small_dataset,
                    quick_config(epochs=25, learning_rate=0.01))
        assert run.records[-1].train_loss < run.records[0].train_loss

    def test_freeze_conv_contract(self, small_dataset):
        from hifbench import layers as L
        from hifbench.profiles import CNN_SPEC

        def convs(m):
            return [l for l in m.layer_list if isinstance(l, L.ConvLayer)]

        model = build_model(CNN_SPEC, 4)
        conv_before = [(l.weights.tobytes(), l.bias.tobytes()) for l in convs(model)]
        head_before = model.layer_list[-1].weights.copy()
        run = train(model, small_dataset, quick_config(epochs=2, freeze_conv=True))
        for before, layer in zip(conv_before, convs(run.model)):
            assert before == (layer.weights.tobytes(), layer.bias.tobytes())
        assert not np.array_equal(head_before, run.model.layer_list[-1].weights)

    @pytest.mark.parametrize("freeze", [False, True], ids=["all", "freeze_conv"])
    def test_step_has_the_bytes_of_a_per_layer_momentum_update(self, small_dataset, spy,
                                                              freeze):
        """train steps the trained tail of Model.params as one vector; replaying
        its gradients through a per-layer update gives the same bytes."""
        from hifbench import training
        from hifbench.profiles import CNN_SPEC

        calls = spy(training, "batch_loss_and_grads")
        model = build_model(CNN_SPEC, 4)
        cfg = quick_config(epochs=2, freeze_conv=freeze)
        run = train(model, small_dataset, cfg)
        steps = [list(filter(None, c.result[1])) for c in calls]

        ref = model.copy()
        trained = ref.layer_list[len(ref.layer_list) - len(steps[0]):]
        assert len(trained) == (2 if freeze else len(ref.layer_list))
        velocity = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in trained]
        for grads in steps:
            for layer, (v_w, v_b), (d_w, d_b) in zip(trained, velocity, grads):
                v_w *= cfg.momentum
                v_w -= cfg.learning_rate * d_w
                v_b *= cfg.momentum
                v_b -= cfg.learning_rate * d_b
                layer.weights += v_w
                layer.bias += v_b
        assert ref.flat_parameters().tobytes() == run.model.flat_parameters().tobytes()

    def test_freeze_conv_runs_the_conv_blocks_once(self, small_dataset, spy):
        from hifbench import layers as L
        from hifbench.models import CONV_CHUNK, HALF_WINDOWS
        from hifbench.profiles import CNN_SPEC
        from hifbench.waveforms import split

        calls = spy(L, "conv_forward_batch")
        cfg = quick_config(freeze_conv=True)
        n_fit = len(split(small_dataset, 1.0 - cfg.validation_fraction, cfg.seed)[0])

        # one pass over the fit set and one over the validation set, each one
        # chunk of CONV_CHUNK or fewer windows: the fit set runs as two window
        # halves, the smaller validation set as one part
        assert len(small_dataset) - n_fit < 2 * HALF_WINDOWS <= n_fit <= CONV_CHUNK
        n_calls = 2 + 1
        for epochs in (1, 4):
            calls.clear()
            train(build_model(CNN_SPEC, 4), small_dataset, dataclasses.replace(cfg, epochs=epochs))
            assert len(calls) == 4 * n_calls
            # every window through every block once
            assert sum(c.args[0].shape[0] for c in calls) == 4 * len(small_dataset)

    def test_frozen_store_is_one_pass_at_batch_size_1(self, small_dataset, spy):
        from hifbench import training
        from hifbench.models import run_stages
        from hifbench.profiles import CNN_SPEC
        from hifbench.waveforms import split

        calls = spy(training, "batch_loss_and_grads")
        cfg = quick_config(epochs=1, batch_size=1, freeze_conv=True)
        model = build_model(CNN_SPEC, 4)
        train(model, small_dataset, cfg)
        stored = [c.args[1] for c in calls]
        fit, _ = split(small_dataset, 1.0 - cfg.validation_fraction, cfg.seed)
        want = run_stages(model, fit.to_arrays()[0], stop=len(CNN_SPEC.blocks))
        assert len(stored) == len(want)
        assert sorted(r.tobytes() for r in np.concatenate(stored)) == sorted(
            r.tobytes() for r in want)

    def test_divergence_raises(self, small_dataset):
        from hifbench.profiles import MLP_SPEC
        with pytest.raises(DivergenceError):
            train(build_model(MLP_SPEC, 5), small_dataset,
                  quick_config(epochs=5, learning_rate=1e18))

    def test_divergence_surfaces_at_the_batch_that_overflows(self, small_dataset):
        model = build_model(MlpSpec(hidden_dims=(4, 3, 2)), 5)
        for layer in model.layer_list[1:]:
            layer.weights *= 1e3
        config = TrainConfig(epochs=2, batch_size=8, learning_rate=1e308, momentum=0.0, seed=0)
        with pytest.raises(DivergenceError) as info:
            train(model, small_dataset, config)
        # the first step's momentum update overflows, a batch before the
        # weights it makes give a non-finite loss
        assert (info.value.epoch, info.value.batch) == (1, 0)
        assert "overflow encountered in multiply" in str(info.value.__cause__)

    def test_early_stop_restores_best_weights(self, small_dataset):
        from hifbench.profiles import MLP_SPEC
        cfg = quick_config(epochs=40, learning_rate=0.05, early_stop=(3, 0.0))
        run = train(build_model(MLP_SPEC, 6), small_dataset, cfg)
        assert len(run.records) < 40
        # rerunning without early stop for the same number of epochs lands on
        # the best-validation epoch's weights, not the final epoch's
        best_epoch = int(np.argmin([r.val_loss for r in run.records])) + 1
        replay = train(build_model(MLP_SPEC, 6), small_dataset,
                       quick_config(epochs=best_epoch, learning_rate=0.05))
        assert np.array_equal(run.model.flat_parameters(),
                              replay.model.flat_parameters())

    def test_empty_dataset_rejected(self, small_dataset):
        from hifbench.profiles import MLP_SPEC
        empty = dataclasses.replace(small_dataset, windows=[])
        with pytest.raises(ValueError):
            train(build_model(MLP_SPEC, 1), empty, quick_config())


class TestFineTune:
    def test_zero_epochs_keeps_parameters(self, small_dataset, tmp_path):
        from hifbench.profiles import MLP_SPEC
        model = build_model(MLP_SPEC, 7)
        ckpt = save_checkpoint(model, {}, tmp_path / "m.ckpt")
        run = fine_tune(ckpt, small_dataset, quick_config(epochs=0))
        assert np.array_equal(run.model.flat_parameters(), model.flat_parameters())
        assert run.records == []

    def test_warm_start_differs_from_scratch(self, small_dataset, tmp_path):
        from hifbench.profiles import MLP_SPEC
        model = build_model(MLP_SPEC, 7)
        ckpt = save_checkpoint(model, {}, tmp_path / "m.ckpt")
        warm = fine_tune(ckpt, small_dataset, quick_config(epochs=1))
        cold = train(build_model(MLP_SPEC, 8), small_dataset, quick_config(epochs=1))
        assert not np.array_equal(warm.model.flat_parameters(),
                                  cold.model.flat_parameters())


def fake_records(losses):
    return [EpochRecord(i + 1, 1.0, v, 0.5, 0.0) for i, v in enumerate(losses)]


class TestDetectConvergence:
    def test_decreasing_run_converges_when_reaching_plateau(self):
        losses = [1.0, 0.6, 0.4, 0.31, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3]
        assert detect_convergence(fake_records(losses)) == 4

    def test_rising_run_converges_late(self):
        # overfitting: validation loss keeps climbing, so the first epoch near
        # the terminal value is a late one
        losses = list(np.linspace(0.7, 2.0, 100))
        epoch = detect_convergence(fake_records(losses))
        assert epoch > 80

    def test_flat_run_converges_immediately(self):
        assert detect_convergence(fake_records([0.5] * 10)) == 1

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            detect_convergence(fake_records([0.5]))


class TestCurvesCsv:
    def test_csv_shape_and_determinism(self, small_dataset):
        from hifbench.profiles import MLP_SPEC
        run = train(build_model(MLP_SPEC, 9), small_dataset, quick_config(epochs=2))
        text = run.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert len(lines) == 3
        assert run.to_csv() == text  # no wall-clock leakage
