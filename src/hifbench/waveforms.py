"""Synthetic current-waveform generation for HIF and normal-transient windows.

The fault model is the classic anti-parallel pair of DC sources, each in
series with a diode and a variable resistor: fault current flows through the
positive path when the instantaneous phase voltage exceeds v_p, through the
negative path when it drops below v_n, and is zero on the dead band in
between.  Arc randomness is modeled as an independent multiplicative
perturbation of the two resistances every half cycle.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

GENERATOR_VERSION = 1

GRID_FREQUENCY_HZ = 60.0
SAMPLING_RATE_HZ = 15000.0
WINDOW_LENGTH = 300
NOISE_LEVEL = 0.02

# Fault/transient inception is confined to the leading portion of the window
# so that at least one full half cycle of the event is always captured.
INCEPTION_SPAN_FRACTION = 0.55


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
    loading_level: float = 1.0
    grid_frequency: float = GRID_FREQUENCY_HZ
    sampling_rate: float = SAMPLING_RATE_HZ
    window_length: int = WINDOW_LENGTH
    noise_level: float = NOISE_LEVEL
    # Upper bounds for the per-window load-texture draws (see _base_waves).
    harmonic_max: float = 0.05
    saturation_max: float = 0.45
    am_depth_max: float = 0.22

    def __post_init__(self):
        if self.peak_voltage <= 0 or self.base_load_current <= 0:
            raise ConfigError("peak_voltage and base_load_current must be positive")
        if self.loading_level <= 0:
            raise ConfigError("loading_level must be positive")
        if self.sampling_rate <= 0 or self.window_length < 1:
            raise ConfigError("invalid sampling parameters")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be nonnegative")
        if min(self.harmonic_max, self.saturation_max, self.am_depth_max) < 0:
            raise ConfigError("texture bounds must be nonnegative")

    @property
    def samples_per_cycle(self) -> float:
        return self.sampling_rate / self.grid_frequency


# The two feeder profiles stand in for the data-rich and data-poor systems.
# They differ in voltage class, load scale, and the parameter ranges used by
# the dataset builder (see default_ranges).
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

    def count(self, label: Label) -> int:
        return sum(1 for w in self.windows if w.label == label)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stack into (X, y) with y = 1 for HIF windows."""
        x = np.stack([w.samples for w in self.windows])
        y = np.array([float(w.label) for w in self.windows])
        return x, y


def hif_current(v, p: HifParams):
    """Instantaneous fault current of the anti-parallel diode model, elementwise
    in the voltage.  Each diode conducts only beyond its own threshold, and
    v_n < 0 < v_p, so at most one of the two terms is nonzero."""
    return np.maximum(v - p.v_p, 0.0) / p.r_p + np.minimum(v - p.v_n, 0.0) / p.r_n


def add_noise(samples: np.ndarray, level: float, rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean Gaussian noise with sigma = level * RMS of the clean signal."""
    if level < 0:
        raise ConfigError("noise level must be nonnegative")
    samples = np.asarray(samples, dtype=np.float64)
    if level == 0:
        return samples.copy()
    rms = math.sqrt(float(np.mean(samples * samples)))
    if rms == 0.0:
        return samples.copy()
    return samples + rng.normal(0.0, level * rms, size=samples.shape)


def _derived_seed(rng_seed) -> int:
    return int(np.random.SeedSequence(rng_seed).generate_state(1, np.uint64)[0])


def _rng(rng_seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(rng_seed))


def _inception_sample(scenario: FeederScenario, angle: float) -> int:
    return int(round(angle / (2 * math.pi) * scenario.samples_per_cycle))


def _base_waves(scenario: FeederScenario, rng: np.random.Generator):
    """Random-phase voltage and in-phase load current over one window.

    The load current is not a clean sinusoid.  On top of the fundamental it
    carries random low-order harmonics, a flat-top saturation term, and a slow
    amplitude modulation, all drawn per window.  These nuisance components
    appear in both classes, so waveform texture alone is not a label giveaway;
    the HIF signature remains the distortion locked to the voltage extrema.
    """
    t = np.arange(scenario.window_length) / scenario.sampling_rate
    phase0 = rng.uniform(0.0, 2 * math.pi)
    phase = 2 * math.pi * scenario.grid_frequency * t + phase0
    voltage = scenario.peak_voltage * np.sin(phase)
    fundamental = np.sin(phase)
    shape = fundamental.copy()
    for order in _HARMONIC_ORDERS:
        amp = rng.uniform(0.0, scenario.harmonic_max)
        shift = rng.uniform(0.0, 2 * math.pi)
        shape = shape + amp * np.sin(order * phase + shift)
    # Flat-top saturation of the load current peaks (odd, peak-flattening).
    beta = rng.uniform(0.0, scenario.saturation_max)
    shape = shape - beta * fundamental**3
    # Slow amplitude modulation from load fluctuation.
    depth = rng.uniform(0.0, scenario.am_depth_max)
    am_freq = rng.uniform(*_AM_FREQ_RANGE)
    am_phase = rng.uniform(0.0, 2 * math.pi)
    shape = shape * (1.0 + depth * np.sin(2 * math.pi * am_freq * t + am_phase))
    load = scenario.loading_level * scenario.base_load_current * shape
    return t, phase, voltage, load


def synth_hif_window(scenario: FeederScenario, p: HifParams, rng_seed) -> Window:
    """One labeled HIF window: load current + faulted diode-model current + noise."""
    p.validate(scenario.peak_voltage)
    rng = _rng(rng_seed)
    t, phase, voltage, load = _base_waves(scenario, rng)
    k0 = min(_inception_sample(scenario, p.inception_angle), scenario.window_length)

    fault = np.zeros(scenario.window_length)
    if k0 < scenario.window_length:
        # phase is strictly increasing, so half-cycle ids come out sorted and
        # the per-half-cycle jitter draws happen in a fixed order
        half_ids = np.floor(phase[k0:] / math.pi).astype(np.int64)
        for hid in np.unique(half_ids):
            j_p = 1.0 + rng.uniform(-p.arc_jitter, p.arc_jitter)
            j_n = 1.0 + rng.uniform(-p.arc_jitter, p.arc_jitter)
            mask = half_ids == hid
            fault[k0:][mask] = hif_current(voltage[k0:][mask],
                                           replace(p, r_p=p.r_p * j_p, r_n=p.r_n * j_n))

    samples = add_noise(load + fault, scenario.noise_level, rng)
    return Window(samples, Label.HIF, scenario.system_id, _derived_seed(rng_seed))


def synth_transient_window(scenario: FeederScenario, tp: TransientParams, rng_seed) -> Window:
    """One labeled normal-transient window (load step, capacitor or feeder switch)."""
    tp.validate()
    rng = _rng(rng_seed)
    t, phase, voltage, load = _base_waves(scenario, rng)
    k0 = min(_inception_sample(scenario, tp.inception_angle), scenario.window_length)

    clean = load.copy()
    if k0 < scenario.window_length:
        if tp.kind == TransientKind.LOAD_STEP:
            clean[k0:] *= 1.0 + tp.magnitude
        elif tp.kind == TransientKind.CAPACITOR_SWITCH:
            dt = t[k0:] - t[k0]
            amp = tp.magnitude * scenario.base_load_current
            clean[k0:] += (
                amp
                * np.exp(-dt / tp.damping_time_constant)
                * np.sin(2 * math.pi * tp.oscillation_frequency * dt)
            )
        else:  # FEEDER_SWITCH: dropout lasting `magnitude` cycles, then restore
            dur = max(1, int(round(tp.magnitude * scenario.samples_per_cycle)))
            clean[k0 : k0 + dur] *= 0.05

    samples = add_noise(clean, scenario.noise_level, rng)
    return Window(samples, Label.NORMAL, scenario.system_id, _derived_seed(rng_seed))


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
        if self.frequency[0] <= 0:
            raise ConfigError("frequency range must be positive")

    def to_dict(self) -> dict:
        return {name: list(getattr(self, name)) for name in self._FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "ParamRanges":
        kwargs = {}
        for name, value in d.items():
            if name not in cls._FIELDS:
                raise ConfigError(f"unknown range key: {name}")
            kwargs[name] = (float(value[0]), float(value[1]))
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

# Nuisance texture of the steady load current (see _base_waves): random 3rd
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
        if self.count < 2:
            raise ConfigError("count must be at least 2")
        self.ranges.validate()
        weights = list(self.transient_mix.values())
        if not self.transient_mix or any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigError("transient_mix must have nonnegative weights summing > 0")
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
    def from_dict(cls, d: dict) -> "GenConfig":
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
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "GenConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(d)


def _draw_hif_params(rng: np.random.Generator, scenario: FeederScenario, r: ParamRanges) -> HifParams:
    return HifParams(
        v_p=rng.uniform(*r.v_p) * scenario.peak_voltage,
        v_n=-rng.uniform(*r.v_n) * scenario.peak_voltage,
        r_p=rng.uniform(*r.r_p),
        r_n=rng.uniform(*r.r_n),
        inception_angle=rng.uniform(0.0, 2 * math.pi * INCEPTION_SPAN_FRACTION),
        arc_jitter=rng.uniform(*r.jitter),
    )


def _draw_transient_params(rng: np.random.Generator, mix: dict) -> TransientParams:
    names = sorted(mix)
    weights = np.array([mix[n] for n in names], dtype=np.float64)
    kind = _TRANSIENT_KINDS[names[rng.choice(len(names), p=weights / weights.sum())]]
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


def generate_window(config: GenConfig, master_seed: int, index: int) -> Window:
    """Window `index` of the dataset: pure in (config, master_seed, index)."""
    base = SCENARIOS[config.scenario]
    draw_rng = _rng([master_seed, index, 0])
    loading = draw_rng.uniform(*config.ranges.loading)
    frequency = draw_rng.uniform(*config.ranges.frequency)
    scenario = replace(base, loading_level=loading, grid_frequency=frequency)
    synth_seed = [master_seed, index, 1]
    if index % 2 == 0:
        params = _draw_hif_params(draw_rng, scenario, config.ranges)
        return synth_hif_window(scenario, params, synth_seed)
    tparams = _draw_transient_params(draw_rng, config.transient_mix)
    return synth_transient_window(scenario, tparams, synth_seed)


def build_dataset(config: GenConfig, master_seed: int | None = None) -> Dataset:
    """Balanced labeled dataset; windows are independent given (seed, index)."""
    config.validate()
    if master_seed is None:
        master_seed = config.seed
    windows = [generate_window(config, master_seed, i) for i in range(config.count)]
    return Dataset(windows, master_seed, SCENARIOS[config.scenario])


def split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split preserving class balance on both sides."""
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    rng = _rng([seed, 0xC0FFEE])
    left_idx: list[int] = []
    right_idx: list[int] = []
    for label in (Label.HIF, Label.NORMAL):
        idx = [i for i, w in enumerate(d.windows) if w.label == label]
        order = rng.permutation(len(idx))
        n_left = int(round(train_fraction * len(idx)))
        for j, pos in enumerate(order):
            (left_idx if j < n_left else right_idx).append(idx[pos])
    if not left_idx or not right_idx:
        raise ConfigError("train_fraction leaves one side of the split empty")
    left_idx.sort()
    right_idx.sort()
    left = Dataset([d.windows[i] for i in left_idx], d.master_seed, d.scenario, d.generator_version)
    right = Dataset([d.windows[i] for i in right_idx], d.master_seed, d.scenario, d.generator_version)
    return left, right
