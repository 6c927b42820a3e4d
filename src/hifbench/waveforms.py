"""Synthetic current-waveform generation for HIF and normal-transient windows.

The fault model is the classic anti-parallel pair of DC sources, each in
series with a diode and a variable resistor: fault current flows through the
positive path when the instantaneous phase voltage exceeds v_p, through the
negative path when it drops below v_n, and is zero on the dead band in
between.  Arc randomness is modeled as an independent multiplicative
perturbation of the two resistances every half cycle.

Each window's random draws come from its own generators, made and drawn from
one window at a time; the waveforms themselves are computed CHUNK_WINDOWS
windows at a time, as rows of one array, by elementwise operations that give
each row the bytes a per-window computation would.  Each chunk is checked
finite once, as it is computed, and its windows are then built from its rows.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

GENERATOR_VERSION = 1

SAMPLING_RATE_HZ = 15000.0
WINDOW_LENGTH = 300
NOISE_LEVEL = 0.02

# Fault/transient inception is confined to the leading portion of the window
# so that at least one full half cycle of the event is always captured.
INCEPTION_SPAN_FRACTION = 0.55

CHUNK_WINDOWS = 128  # windows per vectorised pass: ~300 kB per temporary at 300 samples


class Label(enum.IntEnum):
    NORMAL = 0
    HIF = 1


class SystemId(enum.IntEnum):
    SOURCE = 0
    TARGET = 1


class TransientKind(enum.IntEnum):
    LOAD_STEP = 0
    CAPACITOR_SWITCH = 1
    FEEDER_SWITCH = 2


class ConfigError(ValueError):
    """Raised for invalid generation configs or parameter sets."""


@dataclass(frozen=True)
class FeederScenario:
    system_id: SystemId
    peak_voltage: float
    base_load_current: float
    sampling_rate: float = SAMPLING_RATE_HZ
    window_length: int = WINDOW_LENGTH
    noise_level: float = NOISE_LEVEL
    # Upper bounds for the per-window load-texture draws (see _synthesize_chunk).
    harmonic_max: float = 0.05
    saturation_max: float = 0.45
    am_depth_max: float = 0.22


# The two feeder profiles stand in for the data-rich and data-poor systems.
# They differ in voltage class, load scale, and the parameter ranges used by
# the dataset builder (see profiles).
SCENARIOS = {
    "source": FeederScenario(SystemId.SOURCE, peak_voltage=20000.0, base_load_current=40.0),
    "target": FeederScenario(SystemId.TARGET, peak_voltage=3400.0, base_load_current=25.0,
                             harmonic_max=0.02, saturation_max=0.12, am_depth_max=0.06),
}


@dataclass(frozen=True)
class HifParams:
    v_p: float  # positive conduction threshold, volts (> 0)
    v_n: float  # negative conduction threshold, volts (< 0)
    r_p: float  # ohms
    r_n: float  # ohms
    inception_angle: float  # radians in [0, 2*pi)
    arc_jitter: float = 0.1  # per-half-cycle multiplicative resistance perturbation

    def validate(self, peak_voltage: float) -> None:
        if not (100.0 <= self.r_p <= 600.0 and 100.0 <= self.r_n <= 600.0):
            raise ConfigError("fault resistances must lie in [100, 600] ohms")
        if not (self.v_p > 0 and self.v_n < 0):
            raise ConfigError("require v_p > 0 and v_n < 0")
        if abs(self.v_p) >= peak_voltage or abs(self.v_n) >= peak_voltage:
            raise ConfigError("conduction thresholds must be below the peak phase voltage")
        if not (0.0 <= self.inception_angle < 2 * math.pi):
            raise ConfigError("inception_angle must lie in [0, 2*pi)")
        if not (0.0 <= self.arc_jitter <= 0.5):
            raise ConfigError("arc_jitter must lie in [0, 0.5]")


@dataclass(frozen=True)
class TransientParams:
    kind: TransientKind
    magnitude: float  # per-unit of base load current
    inception_angle: float  # radians
    damping_time_constant: float = 0.0  # seconds, CapacitorSwitch only
    oscillation_frequency: float = 0.0  # hertz, CapacitorSwitch only

    def validate(self) -> None:
        if not (0.0 <= self.inception_angle < 2 * math.pi):
            raise ConfigError("inception_angle must lie in [0, 2*pi)")
        if self.magnitude < 0:
            raise ConfigError("magnitude must be nonnegative")
        if self.kind != TransientKind.LOAD_STEP and self.magnitude == 0:
            raise ConfigError("magnitude must be positive for switching transients")
        if self.kind == TransientKind.CAPACITOR_SWITCH:
            if self.damping_time_constant <= 0:
                raise ConfigError("damping_time_constant must be positive")
            if self.oscillation_frequency <= 60.0:
                raise ConfigError("oscillation_frequency must exceed 60 Hz")


@dataclass
class Window:
    samples: np.ndarray  # float64, length = scenario window_length
    label: Label
    scenario_id: SystemId
    generation_seed: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ConfigError("samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigError("samples must be finite")

    def __eq__(self, other):
        if not isinstance(other, Window):
            return NotImplemented
        return (
            self.label == other.label
            and self.scenario_id == other.scenario_id
            and self.generation_seed == other.generation_seed
            and np.array_equal(self.samples, other.samples)
        )


@dataclass
class Dataset:
    windows: list[Window]
    master_seed: int
    scenario: FeederScenario
    generator_version: int = GENERATOR_VERSION

    def __len__(self) -> int:
        return len(self.windows)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.master_seed == other.master_seed
            and self.generator_version == other.generator_version
            and self.scenario == other.scenario
            and self.windows == other.windows
        )

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stack into (X, y) with y = 1 for HIF windows."""
        x = np.stack([w.samples for w in self.windows])
        y = np.array([float(w.label) for w in self.windows])
        return x, y


def hif_current(v, p: HifParams):
    """Instantaneous fault current of the anti-parallel diode model, elementwise
    in the voltage.  Each diode conducts only beyond its own threshold, and
    v_n < 0 < v_p, so at most one of the two terms is nonzero.  The fields of p
    may be arrays that broadcast against v."""
    return np.maximum(v - p.v_p, 0.0) / p.r_p + np.minimum(v - p.v_n, 0.0) / p.r_n


def add_noise(samples: np.ndarray, level: float, z: np.ndarray | None) -> np.ndarray:
    """Add zero-mean Gaussian noise to each row (last axis) of samples, with
    sigma = level * the row's RMS; z holds standard-normal draws of samples'
    shape, so the noise is what rng.normal(0.0, sigma) would draw from them.
    At level 0, and on rows of zero RMS, a row comes back unchanged (adding
    0.0 would turn -0.0 into +0.0), and z may then be None."""
    if level < 0:
        raise ConfigError("noise level must be nonnegative")
    samples = np.asarray(samples, dtype=np.float64)
    if level == 0:
        return samples.copy()
    # np.mean's sum and division, without its per-call overhead
    rms = np.sqrt(np.add.reduce(samples * samples, axis=-1, keepdims=True) / samples.shape[-1])
    noisy = samples + (0.0 + (level * rms) * z)
    return noisy if rms.all() else np.where(rms == 0.0, samples, noisy)


def _row_windows(block: np.ndarray, labels, scenario_ids, seeds) -> list[Window]:
    """Windows whose samples are the rows of a float64 (N, L) block.

    The caller has checked every row finite, as it made or read the block, so
    Window()'s own per-row check is not repeated.
    """
    windows = []
    for row, label, scenario_id, seed in zip(block, labels, scenario_ids, seeds):
        w = object.__new__(Window)
        w.samples, w.label, w.scenario_id, w.generation_seed = row, label, scenario_id, seed
        windows.append(w)
    return windows


def _rng(rng_seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))


@dataclass(frozen=True)
class ParamRanges:
    """Sampling ranges for per-window parameters, per scenario.

    v_p / v_n are fractions of the scenario peak voltage (v_n is drawn
    independently and negated, so asymmetric thresholds are the norm).
    frequency is the grid fundamental in hertz, drawn per window to mimic
    a feeder whose measured frequency wanders around nominal.
    """

    _FIELDS = ("v_p", "v_n", "r_p", "r_n", "loading", "jitter", "frequency")

    v_p: tuple[float, float] = (0.1, 0.5)
    v_n: tuple[float, float] = (0.1, 0.5)
    r_p: tuple[float, float] = (100.0, 600.0)
    r_n: tuple[float, float] = (100.0, 600.0)
    loading: tuple[float, float] = (0.5, 1.35)
    jitter: tuple[float, float] = (0.10, 0.30)
    frequency: tuple[float, float] = (52.0, 68.0)

    def validate(self) -> None:
        for name in self._FIELDS:
            lo, hi = getattr(self, name)
            if not (lo <= hi):
                raise ConfigError(f"empty range for {name}: ({lo}, {hi})")
            if not math.isfinite(hi - lo):  # a range numpy cannot draw from
                raise ConfigError(f"unbounded range for {name}: ({lo}, {hi})")
        if self.frequency[0] <= 0:
            raise ConfigError("frequency range must be positive")

    def to_dict(self) -> dict:
        return {name: list(getattr(self, name)) for name in self._FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "ParamRanges":
        if not isinstance(d, dict):
            raise ConfigError("ranges must be an object")
        kwargs = {}
        for name, value in d.items():
            if name not in cls._FIELDS:
                raise ConfigError(f"unknown range key: {name}")
            try:
                lo, hi = value
                kwargs[name] = (float(lo), float(hi))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"range {name} must be a [low, high] pair of numbers") from exc
        r = cls(**kwargs)
        r.validate()
        return r


DEFAULT_TRANSIENT_MIX = {"load_step": 1.0, "capacitor_switch": 1.0, "feeder_switch": 1.0}

_TRANSIENT_KINDS = {
    "load_step": TransientKind.LOAD_STEP,
    "capacitor_switch": TransientKind.CAPACITOR_SWITCH,
    "feeder_switch": TransientKind.FEEDER_SWITCH,
}

# Internal sampling ranges for transient parameters (plumbing, not exposed).
_LOAD_STEP_MAG = (0.2, 1.5)
_CAP_MAG = (0.3, 1.2)
_CAP_TAU = (0.002, 0.010)
_CAP_FREQ = (300.0, 900.0)
_FEEDER_MAG = (0.1, 0.5)  # dropout length in cycles

# Nuisance texture of the steady load current (see _synthesize_chunk): random 3rd
# and 5th harmonics, flat-top saturation, and slow amplitude modulation.
# Intensity bounds live on FeederScenario; only the structure is fixed here.
_HARMONIC_ORDERS = (3, 5)
_AM_FREQ_RANGE = (1.0, 8.0)  # hertz


@dataclass(frozen=True)
class GenConfig:
    scenario: str
    count: int
    seed: int
    ranges: ParamRanges = field(default_factory=ParamRanges)
    transient_mix: dict = field(default_factory=lambda: dict(DEFAULT_TRANSIENT_MIX))

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario: {self.scenario!r}")
        if not 2 <= self.count < 2**64:  # the dataset file stores it as a u64
            raise ConfigError(f"count must lie in [2, 2**64), got {self.count}")
        if not 0 <= self.seed < 2**64:  # the dataset file stores it as a u64
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        self.ranges.validate()
        # Above the Nyquist rate a half cycle is shorter than a sample; at a low
        # enough frequency the samples per cycle, and so the inception, overflow.
        sampling_rate = SCENARIOS[self.scenario].sampling_rate
        low, high = self.ranges.frequency
        if not (high < sampling_rate / 2 and math.isfinite(sampling_rate / low)):
            raise ConfigError(f"frequency range ({low}, {high}) must lie within "
                              f"(0, {sampling_rate / 2}) Hz with finite samples per cycle")
        weights = list(self.transient_mix.values())
        if not all(isinstance(w, numbers.Real) and math.isfinite(w) and w >= 0 for w in weights):
            raise ConfigError("transient_mix weights must be finite nonnegative numbers")
        if not (weights and 0 < sum(weights) < math.inf):
            raise ConfigError("transient_mix weights must sum to a finite number > 0")
        for kind in self.transient_mix:
            if kind not in _TRANSIENT_KINDS:
                raise ConfigError(f"unknown transient kind: {kind}")

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "count": self.count,
            "seed": self.seed,
            "ranges": self.ranges.to_dict(),
            "transient_mix": dict(self.transient_mix),
        }

    @classmethod
    def from_dict(cls, d: dict, overrides: dict | None = None) -> "GenConfig":
        """The config a document describes, with the values in overrides
        replacing the document's before anything is checked."""
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        d = {**d, **(overrides or {})}
        allowed = {"scenario", "count", "seed", "ranges", "transient_mix"}
        unknown = set(d) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            cfg = cls(
                scenario=str(d["scenario"]),
                count=int(d["count"]),
                seed=int(d["seed"]),
                ranges=ParamRanges.from_dict(d.get("ranges", {})),
                transient_mix=dict(d.get("transient_mix", DEFAULT_TRANSIENT_MIX)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, text: str, overrides: dict | None = None) -> "GenConfig":
        try:
            d = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(d, overrides)


@functools.lru_cache(maxsize=16)
def _transient_choices(mix: tuple) -> tuple[tuple[TransientKind, ...], np.ndarray]:
    """The kinds of a mix, given as sorted (name, weight) pairs, and their draw
    probabilities (read-only: every caller shares them)."""
    weights = np.array([w for _, w in mix], dtype=np.float64)
    probs = weights / weights.sum()
    probs.flags.writeable = False
    return tuple(_TRANSIENT_KINDS[name] for name, _ in mix), probs


def _draw_hif_params(rng: np.random.Generator, scenario: FeederScenario, r: ParamRanges) -> HifParams:
    return HifParams(
        v_p=rng.uniform(*r.v_p) * scenario.peak_voltage,
        v_n=-rng.uniform(*r.v_n) * scenario.peak_voltage,
        r_p=rng.uniform(*r.r_p),
        r_n=rng.uniform(*r.r_n),
        inception_angle=rng.uniform(0.0, 2 * math.pi * INCEPTION_SPAN_FRACTION),
        arc_jitter=rng.uniform(*r.jitter),
    )


def _draw_transient_params(rng: np.random.Generator, kinds: tuple, probs: np.ndarray) -> TransientParams:
    kind = kinds[rng.choice(len(kinds), p=probs)]
    angle = rng.uniform(0.0, 2 * math.pi * INCEPTION_SPAN_FRACTION)
    if kind == TransientKind.LOAD_STEP:
        return TransientParams(kind, rng.uniform(*_LOAD_STEP_MAG), angle)
    if kind == TransientKind.CAPACITOR_SWITCH:
        return TransientParams(
            kind,
            rng.uniform(*_CAP_MAG),
            angle,
            damping_time_constant=rng.uniform(*_CAP_TAU),
            oscillation_frequency=rng.uniform(*_CAP_FREQ),
        )
    return TransientParams(kind, rng.uniform(*_FEEDER_MAG), angle)


def _synthesize(scenario: FeederScenario, jobs, count: int) -> list[Window]:
    """The windows of `count` jobs, each (loading, frequency, params, seq): the
    window's loading level and grid frequency, its HifParams or TransientParams,
    and the SeedSequence of its synthesis draws.  The scenario gives every other
    field.  Draws are made window by window, in the order of the per-window law;
    the waveforms are computed CHUNK_WINDOWS windows at a time into one block,
    each chunk checked finite as it is filled."""
    try:
        block = np.empty((count, scenario.window_length))
    except (MemoryError, ValueError) as exc:  # ValueError: more elements than an index holds
        raise ConfigError(f"count {count} is too large to allocate: {exc}") from None
    labels, seeds = [], []
    jobs = iter(jobs)
    for start in range(0, count, CHUNK_WINDOWS):
        chunk = [next(jobs) for _ in range(min(CHUNK_WINDOWS, count - start))]
        part = block[start : start + len(chunk)]
        with np.errstate(over="ignore", invalid="ignore"):  # the check below raises instead
            _synthesize_chunk(scenario, chunk, part, labels, seeds)
        finite = np.isfinite(part).all(axis=1)
        if not finite.all():
            raise ConfigError(f"window {start + int(finite.argmin())}: samples must be finite")
    return _row_windows(block, labels, [scenario.system_id] * count, seeds)


@functools.lru_cache(maxsize=4)
def _sample_axes(window_length: int, sampling_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """A window's sample indices and sample times, as shared read-only arrays."""
    cols = np.arange(window_length)
    t = cols / sampling_rate
    cols.flags.writeable = t.flags.writeable = False
    return cols, t


def _synthesize_chunk(scenario: FeederScenario, jobs, out: np.ndarray, labels: list,
                      seeds: list) -> None:
    """Fill out's rows with the jobs' samples, in job order; append their
    labels and seeds.  Each event law (HIF, then each transient kind) runs on
    its windows' rows, picked by one index array; each window draws its arc
    jitter and then its noise from its own generator."""
    L = scenario.window_length
    two_pi = 2 * math.pi
    rngs, rows, kinds = [], [], []
    events = [[], [], [], []]  # HIF windows' fields, then one list per TransientKind
    for loading, frequency, p, seq in jobs:
        if loading <= 0:
            raise ConfigError("loading must be positive")
        is_hif = isinstance(p, HifParams)
        if is_hif:
            p.validate(scenario.peak_voltage)
        else:
            p.validate()
        rng = np.random.Generator(np.random.PCG64(seq))
        uniform = rng.uniform
        # the window's load texture, drawn in the order the waveform uses it
        row = [two_pi * frequency, uniform(0.0, two_pi)]
        for _ in _HARMONIC_ORDERS:
            row += [uniform(0.0, scenario.harmonic_max), uniform(0.0, two_pi)]
        row += [uniform(0.0, scenario.saturation_max), uniform(0.0, scenario.am_depth_max),
                two_pi * uniform(*_AM_FREQ_RANGE), uniform(0.0, two_pi),
                loading * scenario.base_load_current]
        samples_per_cycle = scenario.sampling_rate / frequency
        row.append(min(int(round(p.inception_angle / two_pi * samples_per_cycle)), L))
        rows.append(row)
        rngs.append(rng)
        seeds.append(int(seq.generate_state(1, np.uint64)[0]))
        labels.append(Label.HIF if is_hif else Label.NORMAL)
        if is_hif:
            event = (p.v_p, p.v_n, p.r_p, p.r_n, p.arc_jitter)
        elif p.kind == TransientKind.LOAD_STEP:
            event = (1.0 + p.magnitude,)
        elif p.kind == TransientKind.CAPACITOR_SWITCH:
            event = (p.magnitude * scenario.base_load_current, p.damping_time_constant,
                     two_pi * p.oscillation_frequency)
        else:  # dropout lasting `magnitude` cycles, at most to the window's end
            event = (min(max(1, int(round(p.magnitude * samples_per_cycle))), L),)
        kinds.append(0 if is_hif else 1 + p.kind)
        events[kinds[-1]].append(event)

    # each event's rows of the chunk, and one (len(rows), 1) column per event field
    kinds = np.array(kinds)
    hif, step, cap, drop = [(np.flatnonzero(kinds == k), np.array(e).T[:, :, None]) if e
                            else (None, None) for k, e in enumerate(events)]
    # one (n, 1) column per per-window scalar: rate, phase0, (amplitude, shift)
    # per harmonic, beta, depth, am_rate, am_phase, load_scale, k0
    w = np.array(rows).T[:, :, None]
    rate, phase0 = w[0], w[1]
    beta, depth, am_rate, am_phase, load_scale = w[-6:-1]
    k0 = w[-1].astype(np.int64)
    cols, t = _sample_axes(L, scenario.sampling_rate)
    started = cols >= k0

    # Random-phase voltage and in-phase load current.  The load current is not
    # a clean sinusoid: on top of the fundamental it carries random low-order
    # harmonics, a flat-top saturation term and a slow amplitude modulation,
    # all drawn per window.  These nuisance components appear in both classes,
    # so waveform texture alone is not a label giveaway; the HIF signature
    # remains the distortion locked to the voltage extrema.
    phase = rate * t + phase0
    fundamental = np.sin(phase)
    shape = fundamental
    for h, harmonic in enumerate(_HARMONIC_ORDERS):
        shape = shape + w[2 + 2 * h] * np.sin(harmonic * phase + w[3 + 2 * h])
    # Flat-top saturation of the load current peaks (odd, peak-flattening).
    shape = shape - beta * fundamental**3
    # Slow amplitude modulation from load fluctuation.
    shape = shape * (1.0 + depth * np.sin(am_rate * t + am_phase))
    clean = load_scale * shape

    s, fields = hif
    if fields is not None:
        v_p, v_n, _, _, jitter = fields
        # Arc jitter: one (r_p, r_n) perturbation per half cycle from inception,
        # drawn in half-cycle order.  A sample's rank is the number of changes of
        # half-cycle id between k0 and it, so it indexes its half cycle's draw.
        half_ids = np.floor(phase[s] / math.pi).astype(np.int64)
        rank = np.zeros(half_ids.shape, np.int64)
        np.add.accumulate((half_ids[:, 1:] != half_ids[:, :-1]) & (cols[1:] > k0[s]), axis=1,
                          dtype=np.int64, out=rank[:, 1:])
        n_half = rank[:, -1] + (k0[s, 0] < L)  # none if inception falls past the window
        width = max(1, n_half.max())
        draws = np.zeros((len(n_half), width, 2))
        for i, j in enumerate(s):
            a = jitter[i, 0]
            draws[i, : n_half[i]] = rngs[j].uniform(-a, a, size=(n_half[i], 2))
        # each sample's (r_p, r_n) is its half cycle's row of the flattened table
        r = (fields[2:4].transpose(1, 2, 0) * (1.0 + draws)).reshape(-1, 2)
        r = np.take(r, rank + width * np.arange(len(n_half))[:, None], axis=0)
        fault = hif_current(scenario.peak_voltage * fundamental[s],
                            HifParams(v_p, v_n, r[..., 0], r[..., 1], 0.0))
        clean[s] = np.where(started[s], clean[s] + fault, clean[s])
    s, fields = step
    if fields is not None:
        clean[s] = np.where(started[s], clean[s] * fields[0], clean[s])
    s, fields = cap
    if fields is not None:
        amp, tau, osc_rate = fields
        # time since inception; the clip only touches samples before it
        dt = np.maximum(t - t[np.minimum(k0[s], L - 1)], 0.0)
        ring = amp * np.exp(-dt / tau) * np.sin(osc_rate * dt)
        clean[s] = np.where(started[s], clean[s] + ring, clean[s])
    s, fields = drop
    if fields is not None:
        dropped = started[s] & (cols < k0[s] + fields[0].astype(np.int64))
        clean[s] = np.where(dropped, clean[s] * 0.05, clean[s])

    z = None
    if scenario.noise_level > 0:
        z = np.empty(clean.shape)
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row)
    out[...] = add_noise(clean, scenario.noise_level, z)


def _dataset_jobs(config: GenConfig, master_seed: int, indices):
    """Synthesis jobs of the dataset's windows: each window's loading, frequency
    and event parameters come from its own generator, seeded by (seed, index, 0);
    even windows are HIF, odd ones normal transients."""
    scenario = SCENARIOS[config.scenario]
    r = config.ranges
    kinds, probs = _transient_choices(tuple(sorted(config.transient_mix.items())))
    for i in indices:
        draw_rng = _rng([master_seed, i, 0])
        loading = draw_rng.uniform(*r.loading)
        frequency = draw_rng.uniform(*r.frequency)
        if i % 2 == 0:
            params = _draw_hif_params(draw_rng, scenario, r)
        else:
            params = _draw_transient_params(draw_rng, kinds, probs)
        yield loading, frequency, params, np.random.SeedSequence([master_seed, i, 1])


def generate_window(config: GenConfig, master_seed: int, index: int) -> Window:
    """Window `index` of the dataset: pure in (config, master_seed, index)."""
    return _synthesize(SCENARIOS[config.scenario], _dataset_jobs(config, master_seed, [index]), 1)[0]


def build_dataset(config: GenConfig, master_seed: int | None = None) -> Dataset:
    """Balanced labeled dataset; windows are independent given (seed, index)."""
    if master_seed is not None:
        config = replace(config, seed=master_seed)
    config.validate()
    scenario = SCENARIOS[config.scenario]
    jobs = _dataset_jobs(config, config.seed, range(config.count))
    return Dataset(_synthesize(scenario, jobs, config.count), config.seed, scenario)


def split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split preserving class balance on both sides: per class, HIF
    then NORMAL, one permutation of its windows puts round(train_fraction *
    count) of them on the left.  Each side keeps the dataset's window order."""
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    rng = _rng([seed, 0xC0FFEE])
    labels = np.array([w.label for w in d.windows], dtype=np.int64)
    left = np.zeros(len(labels), bool)
    for label in (Label.HIF, Label.NORMAL):
        idx = np.flatnonzero(labels == label)
        left[idx[rng.permutation(len(idx))[: int(round(train_fraction * len(idx)))]]] = True
    if left.all() or not left.any():
        raise ConfigError("train_fraction leaves one side of the split empty")
    return tuple(Dataset([d.windows[i] for i in np.flatnonzero(side)], d.master_seed, d.scenario,
                         d.generator_version) for side in (left, ~left))
