"""Two-floor blind timing synchronizer for TH-PPM impulse radios.

Floor one is a coarse acquisition over candidate offsets in [0, T_s):
adjacent symbol-long segments of the received waveform are correlated
against each other through a PPM difference template, and the squared
correlation (averaged per candidate) peaks when the segment windows align
with the true symbol boundaries.  It needs no channel knowledge and, in
its non-data-aided form, no training either.

Floor two refines the coarse estimate on a sub-chip grid around it.  It
slides the receiver's own frame pattern across [tau1 - t_corr,
tau1 + t_corr] and, at each step, correlates short pulse-pair windows of
the waveform against itself two symbols later (the period of the training
pattern, and the smallest symbol lag whose product is immune to the PPM
bit shifts).  Its peak is pulse-sharp, which is what lets it repair both
the coarse grid quantization and adjacent-frame coarse misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .waveform import ConfigError, FrameConfig, SampledWaveform

__all__ = [
    "CoarseConfig",
    "FineConfig",
    "SyncEstimate",
    "training_pattern",
    "coarse_extent",
    "fine_extent",
    "coarse_sync",
    "fine_sync",
    "two_floor_sync",
]

COARSE_MODES = ("nda", "da")


@dataclass(frozen=True)
class CoarseConfig:
    """First-floor settings: observation length, mode and search grid."""

    n_symbols: int = 16
    mode: str = "nda"
    search_step: float = 35e-9
    segment_origin: float | None = None  # defaults to one symbol duration

    def __post_init__(self):
        if self.n_symbols < 1:
            raise ConfigError("n_symbols must be >= 1")
        if self.mode not in COARSE_MODES:
            raise ConfigError(f"mode {self.mode!r} not in {COARSE_MODES}")
        if self.search_step <= 0:
            raise ConfigError("search_step must be positive", field="search_step")

    def grid_size(self, cfg: FrameConfig) -> int:
        t_s = cfg.symbol_duration
        ratio = t_s / self.search_step
        if self.search_step > t_s or abs(ratio - round(ratio)) > 1e-6:
            raise ConfigError(
                f"search_step {self.search_step!r} must divide the symbol "
                f"duration {t_s!r}", field="search_step"
            )
        return int(round(ratio))

    def origin(self, cfg: FrameConfig) -> float:
        return cfg.symbol_duration if self.segment_origin is None else self.segment_origin


@dataclass(frozen=True)
class FineConfig:
    """Second-floor settings: scan half-width, step, and averaging depth."""

    t_corr: float = 560e-9
    fine_step: float = 0.25e-9
    n_symbols_avg: int = 8

    def __post_init__(self):
        if self.fine_step <= 0:
            raise ConfigError("fine_step must be positive", field="fine_step")
        if self.t_corr < 0:
            raise ConfigError("t_corr must be non-negative", field="t_corr")
        if self.n_symbols_avg < 1:
            raise ConfigError("n_symbols_avg must be >= 1", field="n_symbols_avg")

    @property
    def n_steps(self) -> int:
        """Scan size N; candidate steps are n = -N+1 ... N-1."""
        if self.t_corr == 0:
            return 1
        return max(1, int(math.ceil(self.t_corr / self.fine_step - 1e-9)))


@dataclass
class SyncEstimate:
    """Both floors' estimates plus their objective curves."""

    tau1: float
    tau2: float
    n_opt: int
    coarse_objective: np.ndarray
    coarse_taus: np.ndarray
    fine_objective: np.ndarray
    fine_offsets: np.ndarray  # signed step index per fine candidate


def training_pattern(k: int) -> int:
    """Training bit for symbol k: the alternating pattern 1,0,1,0,..."""
    if k < 0:
        raise ValueError("symbol index must be >= 0")
    return (k + 1) % 2


def _pattern_signs(m: int) -> np.ndarray:
    """Known-pattern correlation signs s(k) - s(k+1) for k = 0..m-1."""
    k = np.arange(m)
    return np.where(k % 2 == 0, 1.0, -1.0)


def coarse_extent(cfg: FrameConfig, cc: CoarseConfig) -> int:
    """Samples the coarse floor reads from the record start: up to the end
    of the last candidate's (M+1)-th segment."""
    n_s = cfg.n_symbol_samples
    n_grid = cc.grid_size(cfg)
    origin_idx = round(cc.origin(cfg) * cfg.sample_rate)
    return origin_idx + (cc.n_symbols + 1) * n_s + (n_grid - 1) * (n_s // n_grid)


def fine_extent(cfg: FrameConfig, fc: FineConfig, tau1: float) -> tuple[int, int]:
    """Samples [lo, hi) the fine floor reads around the coarse estimate tau1.

    The scan is centred one symbol past tau1, a guard for candidates up to
    one symbol back (ExperimentPlan checks t_corr for that); each window
    is read again two symbols on.
    """
    n_s = cfg.n_symbol_samples
    base = round((tau1 + cfg.symbol_duration) * cfg.sample_rate)
    reach = round((fc.n_steps - 1) * fc.fine_step * cfg.sample_rate)
    frame_pos = cfg.frame_start_samples()
    lo = base - reach + int(frame_pos.min())
    hi = (base + reach + (fc.n_symbols_avg + 1) * n_s + int(frame_pos.max())
          + cfg.n_pulse_samples + cfg.n_shift_samples)
    return lo, hi


def coarse_sync(r: SampledWaveform, cfg: FrameConfig,
                cc: CoarseConfig) -> tuple[float, np.ndarray]:
    """Blind coarse acquisition over the offset grid in [0, T_s).

    For each candidate tau the statistic averages M adjacent-segment
    correlations; NDA squares each term (mean of squares), DA applies the
    known training-pattern signs before averaging (square of mean).  The
    transmitted pattern alternates, so consecutive correlations flip
    sign; folding the known signs in is what makes the DA average
    accumulate coherently.  Returns the argmax (ties -> smallest tau) and
    the full objective curve.
    """
    fs = cfg.sample_rate
    n_s = cfg.n_symbol_samples
    n_d = cfg.n_shift_samples
    m = cc.n_symbols
    n_grid = cc.grid_size(cfg)
    step_samples = n_s // n_grid
    origin_idx = r.index_of(cc.origin(cfg))

    x = r.samples
    need = coarse_extent(cfg, cc)
    if origin_idx < n_d:
        raise ValueError(
            f"segment origin at sample {origin_idx} is closer to the record "
            f"start than the PPM shift ({n_d} samples) the difference "
            f"template reads back"
        )
    if need > len(x):
        raise ValueError(
            f"record too short for coarse search: need {need} samples from "
            f"origin, have {len(x)} (M={m} plus guards)"
        )

    # All (segment, tau) correlations come from one lagged product array:
    # g[i] = r[i + n_s] * (r[i + n_d] - r[i - n_d]); a segment correlation
    # is a window sum of g, so a prefix sum serves every candidate.  g and
    # its prefix sum stop at the last window end any candidate reads; a
    # cumulative sum is sequential, so its leading values do not change.
    taus = np.arange(n_grid) * step_samples
    starts = origin_idx + taus[:, None] + np.arange(m)[None, :] * n_s
    end = int(starts.max()) + n_s
    csum = np.empty(end + 1)  # csum[i] = g[0] + ... + g[i - 1], built in place
    csum[:n_d + 1] = 0.0
    g = csum[n_d + 1:]
    np.subtract(x[2 * n_d:end + n_d], x[:end - n_d], out=g)
    np.multiply(x[n_s + n_d:n_s + end], g, out=g)
    np.cumsum(csum[1:], out=csum[1:])
    corr = (csum[starts + n_s] - csum[starts]) / fs

    if cc.mode == "nda":
        objective = np.mean(corr ** 2, axis=1)
    else:
        signs = _pattern_signs(m)
        objective = np.mean(signs[None, :] * corr, axis=1) ** 2

    best = int(np.argmax(objective))  # first max == smallest tau on ties
    tau1 = best * cc.search_step
    return tau1, objective


def fine_sync(r: SampledWaveform, tau1: float, cfg: FrameConfig,
              fc: FineConfig) -> tuple[float, int, np.ndarray]:
    """Sub-chip refinement scan around the coarse estimate.

    Candidate offsets are tau1 + n*fine_step for n in [-N+1, N-1],
    N = ceil(t_corr / fine_step).  Each candidate's score is a sum over
    ``n_symbols_avg`` symbol pairs of |correlation between the waveform
    and itself two symbols later|, taken in short windows placed at the
    receiver's own frame/chip positions.  Ties resolve to the smallest
    |n|, negative first.  Offsets are rounded to the sample grid per
    candidate.
    """
    fs = cfg.sample_rate
    n_s = cfg.n_symbol_samples
    n_cand = fc.n_steps
    offsets = np.arange(-n_cand + 1, n_cand)
    x = r.samples
    k_avg = fc.n_symbols_avg
    lo, hi = fine_extent(cfg, fc, tau1)
    if lo < 0 or hi > len(x):
        raise ValueError(
            f"fine scan needs samples [{lo}, {hi}) beyond the record "
            f"({len(x)} samples); extend the record"
        )
    base = r.index_of(tau1 + cfg.symbol_duration)
    off_samples = np.round(offsets * fc.fine_step * fs).astype(np.int64)
    lag = 2 * n_s
    window = cfg.n_pulse_samples + cfg.n_shift_samples
    frame_pos = cfg.frame_start_samples()
    # Lagged products and their prefix sum up to the last window end read;
    # w[j] is the sum of the window starting at j.
    csum = np.empty(hi - lag + 1)
    csum[0] = 0.0
    np.multiply(x[:hi - lag], x[lag:hi], out=csum[1:])
    np.cumsum(csum[1:], out=csum[1:])
    w = csum[window:] - csum[:-window]
    # One (candidate, frame) index of window starts serves every symbol:
    # symbol k reads it k symbols on, so each gather covers about one
    # symbol of w.  sums[c, k] is candidate c's frame sum in symbol k.
    idx = (base + off_samples)[:, None] + frame_pos[None, :]
    sums = np.empty((len(offsets), k_avg))
    for k in range(k_avg):
        np.sum(np.take(w[k * n_s:], idx), axis=1, out=sums[:, k])
    z = np.sum(np.abs(sums), axis=1) / fs

    # Tie order: smallest |n| first, negative first.  np.argmax keeps the
    # first maximum of z taken in that order.
    order = np.lexsort((offsets, np.abs(offsets)))
    n_opt = int(offsets[order[np.argmax(z[order])]])
    tau2 = tau1 + n_opt * fc.fine_step
    return tau2, n_opt, z


def two_floor_sync(r: SampledWaveform, cfg: FrameConfig, cc: CoarseConfig,
                   fc: FineConfig) -> SyncEstimate:
    """Run both floors and assemble the estimate with diagnostics.

    tau2 is reported modulo the symbol duration; the raw scan offset
    n_opt stays available for diagnostics.
    """
    tau1, coarse_obj = coarse_sync(r, cfg, cc)
    tau2_raw, n_opt, fine_obj = fine_sync(r, tau1, cfg, fc)
    t_s = cfg.symbol_duration
    tau2 = tau2_raw % t_s
    n_cand = fc.n_steps
    return SyncEstimate(
        tau1=tau1,
        tau2=tau2,
        n_opt=n_opt,
        coarse_objective=coarse_obj,
        coarse_taus=np.arange(len(coarse_obj)) * cc.search_step,
        fine_objective=fine_obj,
        fine_offsets=np.arange(-n_cand + 1, n_cand),
    )
