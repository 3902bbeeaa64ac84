"""The TH-PPM signal format on a uniform sample grid: timing, pulse, hopping code.

The transmit signal is a train of unit-energy monocycle pulses, one per
frame, position-hopped by a per-frame chip code and position-modulated by
the data bit; :mod:`uwbsync.channel` synthesizes it.  Every timing
parameter is required to sit on the sample grid so that shift properties
are sample-exact and testable.
"""

from __future__ import annotations

import bisect
import decimal
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "ConfigError",
    "FrameConfig",
    "SampledWaveform",
    "sampled_monocycle",
    "draw_th_code",
]

# Shape parameter of the monocycle relative to its nominal duration.  With
# tau_m = T_p / 2.5 the amplitude at the support edges is ~0.1% of the peak,
# so truncating to [0, T_p] loses negligible energy.
SHAPE_RATIO = 2.5

_GRID_TOL = 1e-6


class ConfigError(ValueError):
    """A configuration value violates a constraint of the signal format.

    ``field`` names the config dataclass field at fault, when there is one.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _on_grid(value_s: float, sample_rate: float, name: str) -> int:
    """Convert a duration to a whole number of at least one sample, or raise."""
    ticks = value_s * sample_rate
    if (not 1 - _GRID_TOL <= ticks < math.inf
            or abs(ticks - round(ticks)) > _GRID_TOL):
        raise ConfigError(
            f"{name} = {value_s!r} s is not a whole number of at least one "
            f"sample at sample_rate = {sample_rate!r} Hz", field=name
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
    th_code: tuple[int, ...] | None = None
    sample_rate: float = 50e9

    def __post_init__(self):
        code = (0,) * self.n_frames_per_symbol if self.th_code is None else self.th_code
        object.__setattr__(self, "th_code", tuple(int(c) for c in code))
        if self.n_frames_per_symbol < 1:
            raise ConfigError("n_frames_per_symbol must be >= 1",
                              field="n_frames_per_symbol")
        if self.n_chips < 1:
            raise ConfigError("n_chips must be >= 1", field="n_chips")
        if not 0 < self.sample_rate < math.inf:
            raise ConfigError(f"sample_rate {self.sample_rate!r} must be positive "
                              "and finite", field="sample_rate")
        # Grid alignment: frame, chip, PPM shift and pulse duration must be
        # whole numbers of at least one sample so that shifts are sample-exact.
        for name in ("frame_duration", "chip_duration", "ppm_shift", "pulse_duration"):
            _on_grid(getattr(self, name), self.sample_rate, name)
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

    def frame_start_samples(self) -> np.ndarray:
        """Pulse start index of each frame within one symbol (bit 0)."""
        i = np.arange(self.n_frames_per_symbol)
        code = np.asarray(self.th_code)
        return i * self.n_frame_samples + code * self.n_chip_samples


@dataclass
class SampledWaveform:
    """A received record: a uniformly sampled real-valued signal starting
    at time 0, every sample finite."""

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


@lru_cache(maxsize=32)
def sampled_monocycle(pulse_duration: float, sample_rate: float) -> np.ndarray:
    """The unit-energy pulse on the sample grid (read-only array).

    A second-derivative-Gaussian monocycle centred at pulse_duration/2,
    sampled at t = 0, 1/sample_rate, ... inside [0, pulse_duration).  The
    amplitude is normalized numerically on this grid, not analytically, so
    the discrete pulse energy is exactly 1 at this rate.

    Its bytes are the same on every CPU: the exponentials are rounded
    correctly from 50-digit decimals, where numpy's exp loop for a CPU
    may miss by an ulp, and the energy is a numpy sum, not a BLAS dot.
    """
    n = _on_grid(pulse_duration, sample_rate, "pulse_duration")
    tau_m = pulse_duration / SHAPE_RATIO
    u = (np.arange(n) / sample_rate - pulse_duration / 2.0) / tau_m
    u2 = u * u
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exp = np.array([float(decimal.Decimal(a).exp())
                        for a in (-2.0 * math.pi * u2).tolist()])
    shape = (1.0 - 4.0 * math.pi * u2) * exp
    amp = 1.0 / math.sqrt(np.sum(shape * shape) / sample_rate)
    pulse = amp * shape
    pulse.setflags(write=False)
    return pulse


def draw_th_code(rng: np.random.Generator, cfg: FrameConfig) -> FrameConfig:
    """Copy of ``cfg`` with a hopping code drawn from ``rng``.

    Chips are i.i.d. uniform on {0, ..., n_fitting_chips - 1}, the chips
    that keep a PPM-shifted pulse inside its frame.
    """
    code = rng.integers(0, cfg.n_fitting_chips, size=cfg.n_frames_per_symbol)
    return replace(cfg, th_code=code)
