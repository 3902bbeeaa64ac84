"""TH-PPM impulse-radio waveform synthesis on a uniform sample grid.

The transmit signal is a train of unit-energy monocycle pulses, one per
frame, position-hopped by a per-frame chip code and position-modulated by
the data bit.  Every timing parameter is required to sit on the sample
grid so that shift properties are sample-exact and testable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "ConfigError",
    "FrameConfig",
    "SampledWaveform",
    "SymbolSequence",
    "monocycle",
    "sampled_monocycle",
    "draw_th_code",
    "place_symbols",
    "generate_tx",
]

DEFAULT_SAMPLE_RATE = 50e9

# Shape parameter of the monocycle relative to its nominal duration.  With
# tau_m = T_p / 2.5 the amplitude at the support edges is ~0.1% of the peak,
# so truncating to [0, T_p] loses negligible energy.
SHAPE_RATIO = 2.5

_GRID_TOL = 1e-6

# Draws of a hopping code before a trial gives up (see draw_th_code).
TH_CODE_ATTEMPTS = 1000


class ConfigError(ValueError):
    """A configuration value violates a constraint of the signal format.

    ``field`` names the config dataclass field at fault, when there is one.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _on_grid(value_s: float, sample_rate: float, name: str) -> int:
    """Convert a duration to a whole number of samples, or raise."""
    ticks = value_s * sample_rate
    if ticks < 0 or abs(ticks - round(ticks)) > _GRID_TOL:
        raise ConfigError(
            f"{name} = {value_s!r} s is not a non-negative integer number of "
            f"samples at sample_rate = {sample_rate!r} Hz", field=name
        )
    return int(round(ticks))


@dataclass(frozen=True)
class FrameConfig:
    """All timing parameters of the TH-PPM symbol format.

    A symbol spans ``n_frames_per_symbol`` frames; each frame carries one
    pulse offset by ``th_code[i]`` chips plus the PPM shift when the data
    bit is 1.  The code defaults to all zeros.
    """

    n_frames_per_symbol: int = 32
    frame_duration: float = 35e-9
    chip_duration: float = 1e-9
    n_chips: int = 35
    ppm_shift: float = 1e-9
    pulse_duration: float = 0.8e-9
    pulse_energy: float = 1.0
    th_code: tuple[int, ...] | None = None
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        code = (0,) * self.n_frames_per_symbol if self.th_code is None else self.th_code
        object.__setattr__(self, "th_code", tuple(int(c) for c in code))
        if self.n_frames_per_symbol < 1:
            raise ConfigError("n_frames_per_symbol must be >= 1",
                              field="n_frames_per_symbol")
        if self.n_chips < 1:
            raise ConfigError("n_chips must be >= 1", field="n_chips")
        for name in ("frame_duration", "chip_duration", "ppm_shift",
                     "pulse_duration", "sample_rate"):
            if getattr(self, name) <= 0 and name != "ppm_shift":
                raise ConfigError(f"{name} must be positive", field=name)
        if self.ppm_shift < 0:
            raise ConfigError("ppm_shift must be non-negative", field="ppm_shift")
        if self.pulse_energy < 0:
            raise ConfigError("pulse_energy must be non-negative", field="pulse_energy")
        # Grid alignment: chip, frame, PPM shift and pulse duration must be
        # whole numbers of samples so that shifts are sample-exact.
        self.n_chip_samples
        self.n_frame_samples
        self.n_shift_samples
        self.n_pulse_samples
        if len(self.th_code) != self.n_frames_per_symbol:
            raise ConfigError(
                f"th_code has length {len(self.th_code)}, expected "
                f"{self.n_frames_per_symbol}"
            )
        for i, c in enumerate(self.th_code):
            if not 0 <= c <= self.n_chips - 1:
                raise ConfigError(
                    f"th_code[{i}] = {c} outside [0, {self.n_chips - 1}]"
                )
            if self._leaks(c):
                raise ConfigError(
                    f"th_code[{i}] = {c}: pulse would leak out of its "
                    f"{self.frame_duration * 1e9:.3f} ns frame", field="frame_duration"
                )

    def _leaks(self, chip: int) -> bool:
        """Whether a PPM-shifted pulse at ``chip`` ends past its frame."""
        end = chip * self.chip_duration + self.ppm_shift + self.pulse_duration
        return end > self.frame_duration + _GRID_TOL / self.sample_rate

    @property
    def n_fitting_chips(self) -> int:
        """How many of the chips 0, 1, ... keep every pulse inside its frame."""
        return bisect.bisect_left(range(self.n_chips), True, key=self._leaks)

    @property
    def symbol_duration(self) -> float:
        return self.n_frames_per_symbol * self.frame_duration

    @property
    def n_chip_samples(self) -> int:
        return _on_grid(self.chip_duration, self.sample_rate, "chip_duration")

    @property
    def n_frame_samples(self) -> int:
        return _on_grid(self.frame_duration, self.sample_rate, "frame_duration")

    @property
    def n_shift_samples(self) -> int:
        return _on_grid(self.ppm_shift, self.sample_rate, "ppm_shift")

    @property
    def n_pulse_samples(self) -> int:
        return _on_grid(self.pulse_duration, self.sample_rate, "pulse_duration")

    @property
    def n_symbol_samples(self) -> int:
        return self.n_frames_per_symbol * self.n_frame_samples

    def with_th_code(self, code) -> "FrameConfig":
        """Copy of this config with a different TH code (re-validated)."""
        return replace(self, th_code=tuple(int(c) for c in code))

    def frame_start_samples(self) -> np.ndarray:
        """Pulse start index of each frame within one symbol (bit 0)."""
        i = np.arange(self.n_frames_per_symbol)
        code = np.asarray(self.th_code)
        return i * self.n_frame_samples + code * self.n_chip_samples


@dataclass
class SampledWaveform:
    """A uniformly sampled real-valued signal starting at time 0."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must all be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    def index_of(self, t: float) -> int:
        """Nearest sample index for time ``t``."""
        return int(round(t * self.sample_rate))


@dataclass(frozen=True)
class SymbolSequence:
    """A sequence of {0,1} data bits."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if not self.bits:
            raise ValueError("bits must be non-empty")
        for b in self.bits:
            if b not in (0, 1):
                raise ValueError(f"bit {b!r} outside {{0, 1}}")

    def __len__(self) -> int:
        return len(self.bits)

    @classmethod
    def fixed(cls, bits) -> "SymbolSequence":
        return cls(tuple(bits))

    @classmethod
    def random(cls, n: int, seed) -> "SymbolSequence":
        rng = np.random.default_rng(seed)
        return cls(tuple(rng.integers(0, 2, size=n).tolist()))


@lru_cache(maxsize=32)
def _unit_amplitude(pulse_duration: float, sample_rate: float) -> float:
    """Amplitude that gives the sampled pulse unit energy.

    Normalization is numerical on the realized sample grid, not analytic,
    so the discrete pulse energy is exactly 1 at this rate.
    """
    n = _on_grid(pulse_duration, sample_rate, "pulse_duration")
    if n < 1:
        raise ConfigError("pulse_duration shorter than one sample")
    t = np.arange(n) / sample_rate
    shape = _raw_shape(t, pulse_duration)
    energy = np.dot(shape, shape) / sample_rate
    return 1.0 / math.sqrt(energy)


def _raw_shape(t: np.ndarray, pulse_duration: float) -> np.ndarray:
    tau_m = pulse_duration / SHAPE_RATIO
    u = (t - pulse_duration / 2.0) / tau_m
    u2 = u * u
    return (1.0 - 4.0 * math.pi * u2) * np.exp(-2.0 * math.pi * u2)


def monocycle(t, pulse_duration: float, sample_rate: float = DEFAULT_SAMPLE_RATE):
    """Second-derivative-Gaussian monocycle, causal on [0, pulse_duration].

    The pulse is centered at pulse_duration/2 and scaled so the sampled
    pulse has unit energy at ``sample_rate``.  Zero outside the support.
    """
    if pulse_duration <= 0:
        raise ConfigError("pulse_duration must be positive")
    t_arr = np.asarray(t, dtype=np.float64)
    amp = _unit_amplitude(pulse_duration, sample_rate)
    out = amp * _raw_shape(t_arr, pulse_duration)
    out = np.where((t_arr >= 0.0) & (t_arr <= pulse_duration), out, 0.0)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


@lru_cache(maxsize=32)
def _sampled_monocycle_cached(pulse_duration: float, sample_rate: float):
    n = _on_grid(pulse_duration, sample_rate, "pulse_duration")
    t = np.arange(n) / sample_rate
    pulse = monocycle(t, pulse_duration, sample_rate)
    pulse.setflags(write=False)
    return pulse


def sampled_monocycle(pulse_duration: float,
                      sample_rate: float = DEFAULT_SAMPLE_RATE) -> np.ndarray:
    """The unit-energy pulse on the sample grid (read-only array)."""
    return _sampled_monocycle_cached(float(pulse_duration), float(sample_rate))


def draw_th_code(rng: np.random.Generator, cfg: FrameConfig) -> FrameConfig:
    """Copy of ``cfg`` with a hopping code drawn from ``rng``.

    Chips are i.i.d. uniform on {0, ..., n_chips - 1}.  A code that would
    push a pulse out of its frame is redrawn from the same stream, up to
    TH_CODE_ATTEMPTS times, so the code is uniform over the fitting chips.
    """
    for _ in range(TH_CODE_ATTEMPTS):
        code = rng.integers(0, cfg.n_chips, size=cfg.n_frames_per_symbol)
        try:
            return cfg.with_th_code(code)
        except ConfigError:
            continue
    raise ConfigError(f"could not draw a valid TH code in {TH_CODE_ATTEMPTS} "
                      "attempts", field="n_chips")


def place_symbols(symbols: SymbolSequence, wave: np.ndarray, cfg: FrameConfig,
                  n_out: int, offset: int = 0) -> np.ndarray:
    """Overlap-add one symbol-long waveform once per data bit.

    Symbol k's copy of ``wave`` starts at sample k*n_symbol_samples +
    bit*n_shift_samples + offset of an ``n_out``-sample output; each copy
    must start inside the output and is cut at its end.
    """
    out = np.zeros(n_out)
    n_sym = cfg.n_symbol_samples
    n_shift = cfg.n_shift_samples
    for k, bit in enumerate(symbols.bits):
        start = k * n_sym + bit * n_shift + offset
        stop = min(n_out, start + len(wave))
        out[start:stop] += wave[:stop - start]
    return out


def generate_tx(symbols: SymbolSequence, cfg: FrameConfig) -> SampledWaveform:
    """Synthesize the TH-PPM pulse train for a bit sequence.

    Output length is exactly ``len(symbols) * cfg.n_symbol_samples``;
    each frame carries one pulse of energy ``cfg.pulse_energy``, and a
    data bit of 1 shifts all pulses of its symbol by the PPM shift.
    Pulses never overlap, so placing one bit-0 symbol per bit is exact.
    """
    n_sym = cfg.n_symbol_samples
    pulse = sampled_monocycle(cfg.pulse_duration, cfg.sample_rate)
    pulse = pulse * math.sqrt(cfg.pulse_energy)
    symbol = np.zeros(n_sym)
    for start in cfg.frame_start_samples():
        symbol[start:start + len(pulse)] = pulse
    return SampledWaveform(place_symbols(symbols, symbol, cfg, len(symbols) * n_sym),
                           cfg.sample_rate)
