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
pattern, so each DA pair carries one bit twice; an NDA pair whose bits
differ scores 0 when the PPM shift is wider than the pulse).  Its peak
is pulse-sharp, which is what lets it remove the coarse grid
quantization.  On the default grid it clearly lowers the MSE only at 12
and 16 dB, and it raises it at 8 dB M=32 DA (the README names the cells).

Both floors report their offset in [0, T_s), as the estimators see the
timing offset modulo one symbol.  Each also returns its objective curve,
and the fine floor its raw scan step n_opt.

The timing offset cuts into the record's first symbol, so both floors
start one symbol in: the coarse floor's first segment at sample n_s, the
fine scan centred on tau1 plus one symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .waveform import ConfigError, FrameConfig, SampledWaveform, _on_grid

__all__ = [
    "CoarseConfig",
    "FineConfig",
    "training_pattern",
    "coarse_extent",
    "fine_extent",
    "coarse_sync",
    "fine_sync",
]

COARSE_MODES = ("nda", "da")


@dataclass(frozen=True)
class CoarseConfig:
    """First-floor search grid.  A sweep cell's observation length M and
    mode are arguments of the floor itself (:func:`coarse_sync`)."""

    search_step: float = 35e-9

    def grid_size(self, cfg: FrameConfig) -> int:
        """Candidates in [0, T_s): a whole number of samples apart, and the
        step divides the symbol, so every candidate is scored at its tau."""
        step = _on_grid(self.search_step, cfg.sample_rate, "search_step")
        if cfg.n_symbol_samples % step:
            raise ConfigError(
                f"search_step {self.search_step!r} must divide the symbol "
                f"duration {cfg.symbol_duration!r}", field="search_step"
            )
        return cfg.n_symbol_samples // step


@dataclass(frozen=True)
class FineConfig:
    """Second-floor settings: scan half-width, step, and averaging depth."""

    t_corr: float = 560e-9
    fine_step: float = 0.25e-9
    n_symbols_avg: int = 8

    def __post_init__(self):
        if not 0 < self.fine_step < math.inf:
            raise ConfigError(f"fine_step {self.fine_step!r} must be positive "
                              "and finite", field="fine_step")
        if not 0 <= self.t_corr < math.inf:
            raise ConfigError(f"t_corr {self.t_corr!r} must be non-negative "
                              "and finite", field="t_corr")
        if self.n_symbols_avg < 1:
            raise ConfigError("n_symbols_avg must be >= 1", field="n_symbols_avg")

    @property
    def n_steps(self) -> int:
        """Scan size N; candidate steps are n = -N+1 ... N-1."""
        return max(1, int(math.ceil(self.t_corr / self.fine_step - 1e-9)))


def training_pattern(k: int) -> int:
    """Training bit for symbol k: the alternating pattern 1,0,1,0,..."""
    if k < 0:
        raise ValueError("symbol index must be >= 0")
    return (k + 1) % 2


def coarse_extent(cfg: FrameConfig, cc: CoarseConfig, m: int) -> int:
    """Samples the coarse floor reads from the record start at M = ``m``:
    up to the end of the last candidate's (M+1)-th segment, the first at n_s."""
    n_s = cfg.n_symbol_samples
    n_grid = cc.grid_size(cfg)
    return (m + 2) * n_s + (n_grid - 1) * (n_s // n_grid)


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


def _unspent(r: SampledWaveform) -> np.ndarray:
    """The record's samples, unless the fine floor has computed in them."""
    if r.spent:
        raise ValueError("record spent by the fine floor, which computes in "
                         "its samples; run fine_sync on a copy to reuse them")
    return r.samples


def coarse_sync(r: SampledWaveform, cfg: FrameConfig, cc: CoarseConfig,
                m: int, mode: str) -> tuple[float, np.ndarray]:
    """Blind coarse acquisition over the offset grid in [0, T_s).

    For each candidate tau the statistic averages M = ``m`` adjacent-segment
    correlations; ``mode`` "nda" squares each term (mean of squares), "da"
    weights each by its known sign before averaging (square of mean).
    Correlation k pairs symbols k+1 and k+2, as the first segment starts at
    n_s, so its sign is ``training_pattern(k + 1) - training_pattern(k + 2)``;
    folding the signs in is what makes the DA average accumulate
    coherently.  Returns the argmax (ties -> smallest tau) and the full
    objective curve.  ``r`` holds samples on ``cfg``'s grid; a record
    spent by :func:`fine_sync` raises ``ValueError``.
    """
    if m < 1:
        raise ValueError(f"M = {m} must be >= 1")
    if mode not in COARSE_MODES:
        raise ValueError(f"mode {mode!r} not in {COARSE_MODES}")
    fs = cfg.sample_rate
    n_s = cfg.n_symbol_samples
    n_d = cfg.n_shift_samples
    n_grid = cc.grid_size(cfg)
    step_samples = n_s // n_grid

    x = _unspent(r)
    need = coarse_extent(cfg, cc, m)
    if need > len(x):
        raise ValueError(
            f"record too short for coarse search: need {need} samples, "
            f"have {len(x)} (M={m} plus guards)"
        )

    # Every (segment, tau) correlation is a window sum of one lagged product,
    # g[i] = r[i + n_s] * (r[i + n_d] - r[i - n_d]), over a segment starting
    # at n_s + tau + k*n_s.  Each tau is a whole number of steps, and the
    # step divides the symbol, so every segment is n_grid consecutive
    # step-long blocks from sample n_s on.  g is built one symbol of blocks
    # at a time in one reused buffer; the last symbol stops a step short, at
    # the last sample any candidate reads.
    blocks = np.empty((m + 1) * n_grid - 1)
    buf = np.empty(n_s)
    for k in range(m + 1):
        nb = min(n_grid, len(blocks) - k * n_grid)
        n = nb * step_samples
        i = (k + 1) * n_s
        g = buf[:n]
        np.subtract(x[i + n_d:i + n_d + n], x[i - n_d:i - n_d + n], out=g)
        np.multiply(x[i + n_s:i + n_s + n], g, out=g)
        np.sum(g.reshape(nb, step_samples), axis=1,
               out=blocks[k * n_grid:k * n_grid + nb])
    # Segment k of candidate j starts at block j + k*n_grid.
    seg = sliding_window_view(blocks, n_grid).sum(axis=1)
    corr = seg.reshape(m, n_grid).T / fs

    if mode == "nda":
        objective = np.mean(corr ** 2, axis=1)
    else:
        signs = np.array([training_pattern(k + 1) - training_pattern(k + 2)
                          for k in range(m)], dtype=float)
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
    candidate.  Returns tau2 = (tau1 + n_opt*fine_step) mod T_s, in
    [0, T_s), n_opt and the objective curve.

    The lagged products, their running sum and the window sums are
    computed in place in the record's first hi samples (hi from
    :func:`fine_extent`): the call clobbers ``r.samples[:hi - 2 n_s]``
    and marks ``r`` spent, so either floor then refuses it with a
    ``ValueError``.  A caller that reads the samples afterwards passes a
    new :class:`SampledWaveform` around a copy.
    """
    fs = cfg.sample_rate
    n_s = cfg.n_symbol_samples
    n_cand = fc.n_steps
    offsets = np.arange(-n_cand + 1, n_cand)
    x = _unspent(r)
    k_avg = fc.n_symbols_avg
    lo, hi = fine_extent(cfg, fc, tau1)
    if lo < 0 or hi > len(x):
        raise ValueError(
            f"fine scan needs samples [{lo}, {hi}) beyond the record "
            f"({len(x)} samples); extend the record"
        )
    base = round((tau1 + cfg.symbol_duration) * fs)
    off_samples = np.round(offsets * fc.fine_step * fs).astype(np.int64)
    lag = 2 * n_s
    window = cfg.n_pulse_samples + cfg.n_shift_samples
    frame_pos = cfg.frame_start_samples()
    # In place in x[:n], n = hi - lag: the lagged products x[i] * x[i + lag]
    # over x[i], then their running sum, then the window sums.  numpy makes
    # no temporary for an overlapping 1-D call only when the output starts at
    # or before each input it overlaps, as the product's does; the product
    # goes in blocks no longer than the lag, since such a block does not
    # overlap its second input, so numpy keeps its vector loop.  A window
    # sum's input starts below its output, so they go one symbol at a time,
    # which bounds numpy's copy of a block's input, and from the top, which
    # keeps every block's input unwritten.  The window at j ends at
    # j + window - 1: w[j] = x[j + window - 1] - x[j - 1], less nothing at 0.
    n = hi - lag
    r.spent = True
    for a in range(0, n, lag):
        b = min(n, a + lag)
        np.multiply(x[a:b], x[a + lag:b + lag], out=x[a:b])
    np.cumsum(x[:n], out=x[:n])
    w = x[window - 1:n]
    for top in range(len(w), 1, -n_s):
        a = max(1, top - n_s)
        np.subtract(w[a:top], x[a - 1:top - 1], out=w[a:top])
    # One (candidate, frame) index of window starts serves every symbol:
    # symbol k reads it k symbols on, so each gather covers about one
    # symbol of w.  sums[c, k] is candidate c's frame sum in symbol k.
    idx = (base + off_samples)[:, None] + frame_pos[None, :]
    sums = np.empty((len(offsets), k_avg))
    for k in range(k_avg):
        np.sum(w[k * n_s:][idx], axis=1, out=sums[:, k])
    z = np.sum(np.abs(sums), axis=1) / fs

    # Tie order: smallest |n| first, negative first.  np.argmax keeps the
    # first maximum of z taken in that order.
    order = np.lexsort((offsets, np.abs(offsets)))
    n_opt = int(offsets[order[np.argmax(z[order])]])
    tau2 = (tau1 + n_opt * fc.fine_step) % cfg.symbol_duration
    # A sum rounded a hair below 0 wraps to T_s itself, outside [0, T_s).
    if tau2 == cfg.symbol_duration:
        tau2 = 0.0
    return tau2, n_opt, z

