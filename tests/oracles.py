"""Reference forms the tests check the library against, and shared fixtures.

The dirty correlation here is the literal timing-with-dirty-templates
statistic of Yang & Giannakis (IEEE Trans. Wireless Commun., 2005), one
segment pair at a time; ``coarse_sync`` computes the same values through
one prefix sum.  The two fine objectives are direct forms of ``fine_sync``.
"""

import numpy as np

from uwbsync import FrameConfig, SampledWaveform, draw_th_code

# The default frame format with the hopping code of seed 0.  Its first draw
# already keeps every pulse inside its frame, so the code is that draw:
# 29, 22, 17, 9, ..., 6 (TestThCode pins it).
FRAME = draw_th_code(np.random.default_rng(0), FrameConfig())


def energy(w: SampledWaveform) -> float:
    """Riemann-sum energy, sum(x^2) / sample_rate."""
    return float(np.sum(w.samples * w.samples) / w.sample_rate)


def _segment_start(r: SampledWaveform, k: int, tau: float, cfg: FrameConfig) -> int:
    return r.index_of(k * cfg.symbol_duration + tau)


def difference_template(r: SampledWaveform, k: int, tau: float, cfg: FrameConfig,
                        ppm_shift: float | None = None) -> SampledWaveform:
    """PPM difference template of segment k: r_k(t + d) - r_k(t - d).

    The segment is the symbol-long window of ``r`` starting at
    k*T_s + tau; the shift d defaults to the configured PPM shift.  The
    caller must provide guard samples, since the template reads d beyond
    both segment ends.
    """
    shift = cfg.ppm_shift if ppm_shift is None else ppm_shift
    n_d = int(round(shift * cfg.sample_rate))
    n_s = cfg.n_symbol_samples
    i0 = _segment_start(r, k, tau, cfg)
    lo, hi = i0 - n_d, i0 + n_s + n_d
    if lo < 0 or hi > len(r.samples):
        raise ValueError(
            f"segment k={k}, tau={tau!r} needs samples [{lo}, {hi}) outside "
            f"the record of length {len(r.samples)}; provide guard symbols"
        )
    plus = r.samples[i0 + n_d:i0 + n_d + n_s]
    minus = r.samples[i0 - n_d:i0 - n_d + n_s]
    return SampledWaveform(plus - minus, r.sample_rate)


def dirty_correlation(r: SampledWaveform, k: int, tau: float,
                      cfg: FrameConfig) -> float:
    """Correlation of segment k+1 against segment k's difference template.

    Riemann sum of the symbol-long product; the blind acquisition
    statistic is built from these values.
    """
    template = difference_template(r, k, tau, cfg)
    n_s = cfg.n_symbol_samples
    i1 = _segment_start(r, k + 1, tau, cfg)
    if i1 < 0 or i1 + n_s > len(r.samples):
        raise ValueError("segment k+1 outside the record; provide guard symbols")
    seg = r.samples[i1:i1 + n_s]
    return float(np.sum(seg * template.samples) / cfg.sample_rate)


def fine_objective_loop(r, tau1, cfg, fc):
    """The fine objective from direct window sums, one candidate at a time."""
    fs = cfg.sample_rate
    n_s = cfg.n_symbol_samples
    lag = 2 * n_s
    w = cfg.n_pulse_samples + cfg.n_shift_samples
    base = int(round((tau1 + cfg.symbol_duration) * fs))
    frame_pos = cfg.frame_start_samples()
    oracle = []
    for n in range(-fc.n_steps + 1, fc.n_steps):
        off = int(round(n * fc.fine_step * fs))
        total = 0.0
        for k in range(fc.n_symbols_avg):
            acc = 0.0
            for p in frame_pos:
                s = base + off + k * n_s + int(p)
                acc += float(np.sum(r.samples[s:s + w] * r.samples[s + lag:s + lag + w]))
            total += abs(acc)
        oracle.append(total / fs)
    return np.asarray(oracle)


def fine_objective_cube(r, tau1, cfg, fc):
    """The fine objective through one (candidates, symbols x frames) index
    over the window sums, gathered in one piece and summed over frames."""
    fs = cfg.sample_rate
    n_s = cfg.n_symbol_samples
    offsets = np.arange(-fc.n_steps + 1, fc.n_steps)
    base = int(round((tau1 + cfg.symbol_duration) * fs))
    off_samples = np.round(offsets * fc.fine_step * fs).astype(np.int64)
    w = cfg.n_pulse_samples + cfg.n_shift_samples
    frame_pos = cfg.frame_start_samples()
    pos = ((np.arange(fc.n_symbols_avg) * n_s)[:, None] + frame_pos[None, :]).ravel()
    hi = base + int(off_samples.max()) + int(pos.max()) + w
    x = r.samples
    csum = np.concatenate(([0.0], np.cumsum(x[:hi] * x[2 * n_s:2 * n_s + hi])))
    window_sums = csum[w:] - csum[:-w]
    cube = window_sums[(base + off_samples)[:, None] + pos[None, :]].reshape(
        len(offsets), fc.n_symbols_avg, len(frame_pos))
    return np.sum(np.abs(np.sum(cube, axis=2)), axis=1) / fs
