import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hifbench import profiles
from hifbench.datafile import write_dataset
from hifbench.waveforms import (
    CHUNK_WINDOWS,
    SAMPLING_RATE_HZ,
    SCENARIOS,
    ConfigError,
    Dataset,
    GenConfig,
    HifParams,
    Label,
    ParamRanges,
    SystemId,
    TransientKind,
    TransientParams,
    Window,
    _synthesize,
    add_noise,
    build_dataset,
    generate_window,
    hif_current,
    split,
)

SOURCE = SCENARIOS["source"]
TARGET = SCENARIOS["target"]
# a single window's loading level and grid frequency, unless a test says otherwise
LOADING, FREQUENCY = 1.0, 60.0


def job(p, seed, loading=LOADING, frequency=FREQUENCY):
    """A synthesis job: loading, frequency, event parameters and draw seed."""
    return loading, frequency, p, np.random.SeedSequence(seed)


def synth(scenario, p, seed, loading=LOADING, frequency=FREQUENCY) -> Window:
    return _synthesize(scenario, [job(p, seed, loading, frequency)], 1)[0]


def make_params(**overrides) -> HifParams:
    base = dict(v_p=3000.0, v_n=-2500.0, r_p=200.0, r_n=350.0,
                inception_angle=0.5, arc_jitter=0.1)
    base.update(overrides)
    return HifParams(**base)


hif_params_strategy = st.builds(
    make_params,
    v_p=st.floats(200.0, 19000.0),
    v_n=st.floats(-19000.0, -200.0),
    r_p=st.floats(100.0, 600.0),
    r_n=st.floats(100.0, 600.0),
    inception_angle=st.floats(0.0, 2 * math.pi, exclude_max=True),
    arc_jitter=st.floats(0.0, 0.5),
)


class TestHifCurrent:
    @given(hif_params_strategy)
    def test_dead_band_is_zero(self, p):
        for v in np.linspace(p.v_n, p.v_p, 25):
            assert hif_current(float(v), p) == 0.0

    @given(hif_params_strategy)
    def test_continuity_at_thresholds(self, p):
        eps = 1e-8
        for v0 in (p.v_p, p.v_n):
            left = hif_current(v0 - eps, p)
            right = hif_current(v0 + eps, p)
            assert abs(left - right) < 1e-9

    @given(hif_params_strategy)
    def test_monotone_in_voltage(self, p):
        v = np.linspace(-25000.0, 25000.0, 2001)
        i = np.array([hif_current(float(vv), p) for vv in v])
        assert np.all(np.diff(i) >= 0.0)

    def test_piecewise_values(self):
        p = make_params(v_p=1000.0, v_n=-500.0, r_p=100.0, r_n=250.0)
        assert hif_current(1100.0, p) == pytest.approx(1.0)
        assert hif_current(-1000.0, p) == pytest.approx(-2.0)
        assert hif_current(0.0, p) == 0.0
        assert hif_current(1000.0, p) == 0.0  # threshold itself blocks

    def test_current_sign_matches_conduction_side(self):
        p = make_params()
        assert hif_current(p.v_p + 1.0, p) > 0
        assert hif_current(p.v_n - 1.0, p) < 0


class TestParamValidation:
    def test_resistance_bounds(self):
        with pytest.raises(ConfigError):
            make_params(r_p=50.0).validate(SOURCE.peak_voltage)
        with pytest.raises(ConfigError):
            make_params(r_n=700.0).validate(SOURCE.peak_voltage)

    def test_threshold_signs(self):
        with pytest.raises(ConfigError):
            make_params(v_p=-1.0).validate(SOURCE.peak_voltage)
        with pytest.raises(ConfigError):
            make_params(v_n=1.0).validate(SOURCE.peak_voltage)

    def test_threshold_below_peak(self):
        with pytest.raises(ConfigError):
            make_params(v_p=25000.0).validate(SOURCE.peak_voltage)

    def test_inception_angle_range(self):
        with pytest.raises(ConfigError):
            make_params(inception_angle=7.0).validate(SOURCE.peak_voltage)

    def test_load_step_allows_zero_magnitude(self):
        TransientParams(TransientKind.LOAD_STEP, 0.0, 1.0).validate()

    def test_switch_transients_need_positive_magnitude(self):
        with pytest.raises(ConfigError):
            TransientParams(TransientKind.FEEDER_SWITCH, 0.0, 1.0).validate()

    def test_capacitor_needs_damping_and_frequency(self):
        with pytest.raises(ConfigError):
            TransientParams(TransientKind.CAPACITOR_SWITCH, 0.5, 1.0,
                            damping_time_constant=0.0,
                            oscillation_frequency=400.0).validate()
        with pytest.raises(ConfigError):
            TransientParams(TransientKind.CAPACITOR_SWITCH, 0.5, 1.0,
                            damping_time_constant=0.005,
                            oscillation_frequency=50.0).validate()


class TestAddNoise:
    def test_zero_level_is_exact_copy(self):
        x = np.random.default_rng(0).normal(size=64)
        out = add_noise(x, 0.0, None)
        assert np.array_equal(out, x)
        assert out is not x

    def test_sigma_scales_with_rms(self):
        x = np.full(200_000, 10.0)
        out = add_noise(x, 0.02, np.random.default_rng(7).standard_normal(x.shape))
        sigma = np.std(out - x)
        assert sigma == pytest.approx(0.2, rel=0.02)

    def test_negative_level_rejected(self):
        with pytest.raises(ConfigError):
            add_noise(np.ones(4), -0.1, np.zeros(4))

    def test_zero_signal_stays_zero(self):
        x = np.zeros(16)
        out = add_noise(x, 0.02, np.random.default_rng(0).standard_normal(16))
        assert np.array_equal(out, x)

    def test_noise_is_what_normal_draws_row_by_row(self):
        # rows of different RMS; the third is zero and holds a -0.0
        x = np.random.default_rng(1).normal(size=(4, 50)) * np.array([[1.0], [1e-3], [0.0], [7.0]])
        x[2, 3] = -0.0
        out = add_noise(x, 0.02, np.random.default_rng(2).standard_normal(x.shape))
        rng = np.random.default_rng(2)
        for row, noisy in zip(x, out):
            rms = math.sqrt(float(np.mean(row * row)))
            drawn = rng.normal(0.0, 0.02 * rms, size=row.shape)
            assert noisy.tobytes() == (row + drawn if rms else row).tobytes()


class TestSynthesis:
    def test_hif_window_deterministic_in_seed(self):
        p = make_params()
        a = synth(SOURCE, p, [1, 2, 3])
        b = synth(SOURCE, p, [1, 2, 3])
        assert a == b

    def test_different_seeds_differ(self):
        p = make_params()
        a = synth(SOURCE, p, [1, 2, 3])
        b = synth(SOURCE, p, [1, 2, 4])
        assert not np.array_equal(a.samples, b.samples)

    def test_window_shape_and_label(self):
        w = synth(TARGET, make_params(v_p=800.0, v_n=-700.0), [5])
        assert w.label is Label.HIF
        assert w.scenario_id is SystemId.TARGET
        assert w.samples.shape == (TARGET.window_length,)

    def test_transient_window_label(self):
        tp = TransientParams(TransientKind.LOAD_STEP, 0.5, 1.0)
        w = synth(SOURCE, tp, [6])
        assert w.label is Label.NORMAL

    def test_load_step_raises_later_amplitude(self):
        quiet = dataclasses.replace(SOURCE, noise_level=0.0,
                                    harmonic_max=0.0, saturation_max=0.0,
                                    am_depth_max=0.0)
        tp = TransientParams(TransientKind.LOAD_STEP, 1.0, 0.0)
        stepped = synth(quiet, tp, [7]).samples
        flat = synth(
            quiet, TransientParams(TransientKind.LOAD_STEP, 0.0, 0.0), [7]
        ).samples
        assert np.max(np.abs(stepped)) > 1.5 * np.max(np.abs(flat))

    def test_feeder_switch_dropout_region(self):
        quiet = dataclasses.replace(SOURCE, noise_level=0.0,
                                    harmonic_max=0.0, saturation_max=0.0,
                                    am_depth_max=0.0)
        tp = TransientParams(TransientKind.FEEDER_SWITCH, 0.2, 0.0)
        dropped = synth(quiet, tp, [8]).samples
        baseline = synth(
            quiet, TransientParams(TransientKind.LOAD_STEP, 0.0, 0.0), [8]
        ).samples
        dur = int(round(0.2 * (SAMPLING_RATE_HZ / FREQUENCY)))
        assert np.allclose(dropped[:dur], 0.05 * baseline[:dur])
        assert np.array_equal(dropped[dur:], baseline[dur:])

    def test_window_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            Window(np.array([1.0, np.nan]), Label.HIF, SystemId.SOURCE, 0)


class TestGenerate:
    def test_label_alternates_with_index(self, small_config):
        hif = generate_window(small_config, small_config.seed, 0)
        normal = generate_window(small_config, small_config.seed, 1)
        assert hif.label is Label.HIF
        assert normal.label is Label.NORMAL

    def test_window_purity(self, small_config, small_dataset):
        # any window can be regenerated in isolation
        for i in (0, 7, 39):
            again = generate_window(small_config, small_config.seed, i)
            assert again == small_dataset.windows[i]

    def test_dataset_is_balanced(self, small_dataset):
        labels = [w.label for w in small_dataset.windows]
        assert labels.count(Label.HIF) == labels.count(Label.NORMAL) == 20

    def test_build_dataset_deterministic(self, small_config, small_dataset):
        assert build_dataset(small_config) == small_dataset

    def test_frequency_range_changes_waveforms(self, small_config):
        shifted = dataclasses.replace(
            small_config, ranges=dataclasses.replace(small_config.ranges,
                                                     frequency=(45.0, 46.0)))
        a = generate_window(small_config, small_config.seed, 0)
        b = generate_window(shifted, small_config.seed, 0)
        assert not np.array_equal(a.samples, b.samples)

    def test_to_arrays(self, small_dataset):
        x, y = small_dataset.to_arrays()
        assert x.shape == (40, SOURCE.window_length)
        assert set(np.unique(y)) == {0.0, 1.0}


class TestGenConfig:
    def test_json_roundtrip(self, small_config):
        again = GenConfig.from_json(json.dumps(small_config.to_dict()))
        assert again == small_config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            GenConfig.from_dict({"scenario": "source", "count": 10, "seed": 1,
                                 "bogus": True})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            GenConfig(scenario="moon", count=10, seed=1).validate()

    def test_bad_transient_mix_rejected(self):
        with pytest.raises(ConfigError):
            GenConfig(scenario="source", count=10, seed=1,
                      transient_mix={"load_step": -1.0}).validate()
        with pytest.raises(ConfigError):
            GenConfig(scenario="source", count=10, seed=1,
                      transient_mix={"lightning": 1.0}).validate()

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            ParamRanges(loading=(1.5, 0.5)).validate()

    def test_not_json_rejected(self):
        with pytest.raises(ConfigError):
            GenConfig.from_json("{nope")


class TestSplit:
    def test_stratified_and_disjoint(self, small_dataset):
        left, right = split(small_dataset, 0.8, 99)
        assert len(left) == 32 and len(right) == 8
        assert [w.label for w in left.windows].count(Label.HIF) == 16
        assert [w.label for w in right.windows].count(Label.HIF) == 4
        seeds = [w.generation_seed for w in left.windows + right.windows]
        assert len(set(seeds)) == len(seeds)

    def test_deterministic(self, small_dataset):
        a = split(small_dataset, 0.5, 7)
        b = split(small_dataset, 0.5, 7)
        assert a[0] == b[0] and a[1] == b[1]

    def test_fraction_bounds(self, small_dataset):
        with pytest.raises(ConfigError):
            split(small_dataset, 1.0, 0)
        with pytest.raises(ConfigError):
            split(small_dataset, 0.0, 0)

    @pytest.mark.parametrize("count", [4, 41, 300])
    @pytest.mark.parametrize("fraction", [0.01, 0.3, 0.5, 0.8])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_equals_the_list_based_reference(self, count, fraction, seed):
        """Both sides hold the reference's windows in the reference's order,
        and both raise on the same splits."""
        d = _labelled_dataset(count, seed)
        try:
            want = _ref_split(d, fraction, seed)
        except ConfigError:
            with pytest.raises(ConfigError, match="leaves one side of the split empty"):
                split(d, fraction, seed)
            return
        got = split(d, fraction, seed)
        for side, want_side in zip(got, want):
            assert [id(w) for w in side.windows] == [id(w) for w in want_side]
            assert (side.master_seed, side.scenario) == (d.master_seed, d.scenario)

    def test_empty_side_raises(self):
        """4 windows at 0.01 put none on the left; the reference agrees."""
        d = _labelled_dataset(4, 1)
        with pytest.raises(ConfigError, match="leaves one side of the split empty"):
            _ref_split(d, 0.01, 3)
        with pytest.raises(ConfigError, match="leaves one side of the split empty"):
            split(d, 0.01, 3)
        with pytest.raises(ConfigError, match="leaves one side of the split empty"):
            split(Dataset([], 0, SOURCE), 0.5, 3)


def _labelled_dataset(count, seed):
    """count windows of one-sample rows, labelled in a shuffled, unbalanced order."""
    rng = np.random.default_rng(seed % 1000)
    labels = rng.random(count) < 0.4
    return Dataset([Window(np.array([float(i)]), Label(int(hif)), SystemId.SOURCE, i)
                    for i, hif in enumerate(labels)], seed, SOURCE)


def _ref_split(d, train_fraction, seed):
    """The list-based split that the mask-based one replaced: windows per side."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xC0FFEE])))
    left_idx, right_idx = [], []
    for label in (Label.HIF, Label.NORMAL):
        idx = [i for i, w in enumerate(d.windows) if w.label == label]
        order = rng.permutation(len(idx))
        n_left = int(round(train_fraction * len(idx)))
        for j, pos in enumerate(order):
            (left_idx if j < n_left else right_idx).append(idx[pos])
    if not left_idx or not right_idx:
        raise ConfigError("train_fraction leaves one side of the split empty")
    return [d.windows[i] for i in sorted(left_idx)], [d.windows[i] for i in sorted(right_idx)]


# ---------------------------------------------------------------------------
# The chunked synthesizer against a per-window reference.  The reference is the
# scalar law one window at a time, as generation ran before it was vectorised;
# the synthesizer must give every window its bytes.

def _ref_rng(rng_seed):
    return np.random.default_rng(np.random.SeedSequence(rng_seed))


def _ref_add_noise(samples, level, rng):
    if level == 0:
        return samples.copy()
    rms = math.sqrt(float(np.mean(samples * samples)))
    if rms == 0.0:
        return samples.copy()
    return samples + rng.normal(0.0, level * rms, size=samples.shape)


def _ref_base_waves(scenario, loading, frequency, rng):
    t = np.arange(scenario.window_length) / scenario.sampling_rate
    phase0 = rng.uniform(0.0, 2 * math.pi)
    phase = 2 * math.pi * frequency * t + phase0
    voltage = scenario.peak_voltage * np.sin(phase)
    fundamental = np.sin(phase)
    shape = fundamental.copy()
    for order in (3, 5):
        amp = rng.uniform(0.0, scenario.harmonic_max)
        shift = rng.uniform(0.0, 2 * math.pi)
        shape = shape + amp * np.sin(order * phase + shift)
    beta = rng.uniform(0.0, scenario.saturation_max)
    shape = shape - beta * fundamental**3
    depth = rng.uniform(0.0, scenario.am_depth_max)
    am_freq = rng.uniform(1.0, 8.0)
    am_phase = rng.uniform(0.0, 2 * math.pi)
    shape = shape * (1.0 + depth * np.sin(2 * math.pi * am_freq * t + am_phase))
    load = loading * scenario.base_load_current * shape
    return t, phase, voltage, load


def _ref_inception(scenario, frequency, angle):
    return min(int(round(angle / (2 * math.pi) * (scenario.sampling_rate / frequency))),
               scenario.window_length)


def _ref_seed(rng_seed):
    return int(np.random.SeedSequence(rng_seed).generate_state(1, np.uint64)[0])


def ref_hif_window(scenario, loading, frequency, p, rng_seed):
    p.validate(scenario.peak_voltage)
    rng = _ref_rng(rng_seed)
    t, phase, voltage, load = _ref_base_waves(scenario, loading, frequency, rng)
    k0 = _ref_inception(scenario, frequency, p.inception_angle)
    fault = np.zeros(scenario.window_length)
    if k0 < scenario.window_length:
        half_ids = np.floor(phase[k0:] / math.pi).astype(np.int64)
        for hid in np.unique(half_ids):
            j_p = 1.0 + rng.uniform(-p.arc_jitter, p.arc_jitter)
            j_n = 1.0 + rng.uniform(-p.arc_jitter, p.arc_jitter)
            mask = half_ids == hid
            fault[k0:][mask] = hif_current(voltage[k0:][mask],
                                           dataclasses.replace(p, r_p=p.r_p * j_p, r_n=p.r_n * j_n))
    samples = _ref_add_noise(load + fault, scenario.noise_level, rng)
    return Window(samples, Label.HIF, scenario.system_id, _ref_seed(rng_seed))


def ref_transient_window(scenario, loading, frequency, tp, rng_seed):
    tp.validate()
    rng = _ref_rng(rng_seed)
    t, phase, voltage, load = _ref_base_waves(scenario, loading, frequency, rng)
    k0 = _ref_inception(scenario, frequency, tp.inception_angle)
    clean = load.copy()
    if k0 < scenario.window_length:
        if tp.kind == TransientKind.LOAD_STEP:
            clean[k0:] *= 1.0 + tp.magnitude
        elif tp.kind == TransientKind.CAPACITOR_SWITCH:
            dt = t[k0:] - t[k0]
            amp = tp.magnitude * scenario.base_load_current
            clean[k0:] += (amp * np.exp(-dt / tp.damping_time_constant)
                           * np.sin(2 * math.pi * tp.oscillation_frequency * dt))
        else:
            dur = max(1, int(round(tp.magnitude * (scenario.sampling_rate / frequency))))
            clean[k0 : k0 + dur] *= 0.05
    samples = _ref_add_noise(clean, scenario.noise_level, rng)
    return Window(samples, Label.NORMAL, scenario.system_id, _ref_seed(rng_seed))


_REF_KINDS = {"load_step": TransientKind.LOAD_STEP,
              "capacitor_switch": TransientKind.CAPACITOR_SWITCH,
              "feeder_switch": TransientKind.FEEDER_SWITCH}


def ref_generate_window(config, master_seed, index):
    scenario = SCENARIOS[config.scenario]
    r = config.ranges
    rng = _ref_rng([master_seed, index, 0])
    loading = rng.uniform(*r.loading)
    frequency = rng.uniform(*r.frequency)
    seed = [master_seed, index, 1]
    span = 2 * math.pi * 0.55
    if index % 2 == 0:
        p = HifParams(v_p=rng.uniform(*r.v_p) * scenario.peak_voltage,
                      v_n=-rng.uniform(*r.v_n) * scenario.peak_voltage,
                      r_p=rng.uniform(*r.r_p), r_n=rng.uniform(*r.r_n),
                      inception_angle=rng.uniform(0.0, span), arc_jitter=rng.uniform(*r.jitter))
        return ref_hif_window(scenario, loading, frequency, p, seed)
    names = sorted(config.transient_mix)
    weights = np.array([config.transient_mix[n] for n in names], dtype=np.float64)
    kind = _REF_KINDS[names[rng.choice(len(names), p=weights / weights.sum())]]
    angle = rng.uniform(0.0, span)
    if kind == TransientKind.LOAD_STEP:
        tp = TransientParams(kind, rng.uniform(0.2, 1.5), angle)
    elif kind == TransientKind.CAPACITOR_SWITCH:
        tp = TransientParams(kind, rng.uniform(0.3, 1.2), angle,
                             damping_time_constant=rng.uniform(0.002, 0.010),
                             oscillation_frequency=rng.uniform(300.0, 900.0))
    else:
        tp = TransientParams(kind, rng.uniform(0.1, 0.5), angle)
    return ref_transient_window(scenario, loading, frequency, tp, seed)


def assert_same_windows(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a.label, a.scenario_id, a.generation_seed) == (
            b.label, b.scenario_id, b.generation_seed), i
        assert a.samples.tobytes() == b.samples.tobytes(), i


QUIET = dataclasses.replace(SOURCE, noise_level=0.0)

REFERENCE_CASES = {
    "source": GenConfig(scenario="source", count=CHUNK_WINDOWS + 1, seed=5),
    "target": dataclasses.replace(profiles.CASE2_GEN, count=CHUNK_WINDOWS + 1, seed=6),
    "load_step": GenConfig(scenario="source", count=40, seed=7, transient_mix={"load_step": 1.0}),
    "capacitor_switch": GenConfig(scenario="target", count=40, seed=8,
                                  transient_mix={"capacitor_switch": 1.0}),
    "feeder_switch": GenConfig(scenario="source", count=40, seed=9,
                               transient_mix={"feeder_switch": 2.0}),
    # 5-10 Hz: up to 3000 samples per cycle, so most inceptions fall past the window
    "late_inception": GenConfig(scenario="target", count=40, seed=10,
                                ranges=ParamRanges(frequency=(5.0, 10.0))),
    "quiet": GenConfig(scenario="quiet", count=40, seed=11),
    # a cycle longer than any int64 sample count: dropouts that outlast the window
    "endless_cycle": GenConfig(scenario="source", count=6, seed=12,
                               ranges=ParamRanges(frequency=(1e-300, 1e-300)),
                               transient_mix={"feeder_switch": 1.0}),
}


class TestChunkedSynthesis:
    @pytest.fixture(autouse=True)
    def quiet_scenario(self, monkeypatch):
        monkeypatch.setitem(SCENARIOS, "quiet", QUIET)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_dataset_equals_per_window_reference(self, case):
        cfg = REFERENCE_CASES[case]
        want = [ref_generate_window(cfg, cfg.seed, i) for i in range(cfg.count)]
        assert_same_windows(build_dataset(cfg).windows, want)

    @pytest.mark.parametrize("count", [2, CHUNK_WINDOWS - 1, CHUNK_WINDOWS, CHUNK_WINDOWS + 1])
    def test_every_chunk_split_equals_the_reference(self, count):
        cfg = dataclasses.replace(profiles.CASE2_GEN, count=count)
        want = [ref_generate_window(cfg, cfg.seed, i) for i in range(count)]
        assert_same_windows(build_dataset(cfg).windows, want)

    def test_late_inception_case_reaches_past_the_window(self):
        cfg = REFERENCE_CASES["late_inception"]
        r = cfg.ranges
        late = 0
        for i in range(0, cfg.count, 2):
            rng = _ref_rng([cfg.seed, i, 0])
            rng.uniform(*r.loading)
            spc = SAMPLING_RATE_HZ / rng.uniform(*r.frequency)
            for _ in range(4):  # v_p, v_n, r_p, r_n
                rng.uniform()
            angle = rng.uniform(0.0, 2 * math.pi * 0.55)
            late += int(round(angle / (2 * math.pi) * spc)) >= TARGET.window_length
        assert 0 < late < cfg.count // 2

    @pytest.mark.parametrize("kind", ["hif", "load_step", "capacitor_switch", "feeder_switch"])
    def test_single_windows_equal_the_reference(self, kind):
        for scenario in (SOURCE, TARGET, QUIET):
            for seed in ([1, 2, 3], [5], [9, 9, 9, 9]):
                if kind == "hif":
                    p = make_params(v_p=0.2 * scenario.peak_voltage,
                                    v_n=-0.3 * scenario.peak_voltage, inception_angle=2.0)
                    want = ref_hif_window(scenario, LOADING, FREQUENCY, p, seed)
                else:
                    p = TransientParams(_REF_KINDS[kind], 0.4, 1.5, 0.004, 500.0)
                    want = ref_transient_window(scenario, LOADING, FREQUENCY, p, seed)
                assert_same_windows([synth(scenario, p, seed)], [want])

    def test_generate_window_equals_dataset_across_a_chunk_boundary(self):
        cfg = dataclasses.replace(profiles.CASE2_GEN, count=CHUNK_WINDOWS + 2)
        windows = build_dataset(cfg).windows
        for i in (0, CHUNK_WINDOWS - 2, CHUNK_WINDOWS - 1, CHUNK_WINDOWS, CHUNK_WINDOWS + 1):
            assert_same_windows([generate_window(cfg, cfg.seed, i)], [windows[i]])

    def test_windows_are_rows_of_one_block(self, small_dataset):
        rows = [w.samples for w in small_dataset.windows]
        assert all(r.base is not None and r.base is rows[0].base for r in rows)

    def test_non_finite_window_is_rejected(self):
        # a loading range this wide overflows the load current to inf
        cfg = GenConfig(scenario="source", count=4, seed=1,
                        ranges=ParamRanges(loading=(1e307, 1e307)))
        with pytest.raises(ConfigError, match="window 0: samples must be finite"):
            build_dataset(cfg)

    def test_first_non_finite_window_past_the_first_chunk_is_named(self):
        # two overflowing windows in the second chunk, and in the third a window
        # whose parameters are invalid: the chunk that fails first names the error
        p = make_params()
        jobs = [job(p, [i]) for i in range(2 * CHUNK_WINDOWS + 2)]
        for i in (CHUNK_WINDOWS + 3, CHUNK_WINDOWS + 7):
            jobs[i] = job(p, [i], loading=1e307)
        jobs[2 * CHUNK_WINDOWS + 1] = job(make_params(r_p=50.0), [0])
        with pytest.raises(ConfigError, match=f"window {CHUNK_WINDOWS + 3}: samples must be finite"):
            _synthesize(SOURCE, jobs, len(jobs))

    def test_case2_profile_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "case2.dataset"
        write_dataset(build_dataset(profiles.CASE2_GEN), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CASE2_SHA256


CASE2_SHA256 = "1e83a4e81971c0c71c402970304a9806fdca10b67624fe90a68572a1f87ca887"
