"""Reference forms the tests check the library against, and shared fixtures.

The dirty correlation here is the literal timing-with-dirty-templates
statistic of Yang & Giannakis (IEEE Trans. Wireless Commun., 2005), one
segment pair at a time; ``coarse_sync`` computes the same values from
sums of step-long blocks.  The two fine objectives are direct forms of
``fine_sync``, and the pulse train is written pulse by pulse, apart from
the library's one synthesis path.  The record oracle composes a record
from two arrays, the templates overlap-added into zeros and then the
scaled noise draw plus that sum, where ``propagate`` writes one.  The RMS
delay spread is the statistic the CM1 profile is specified by (Foerster
et al., IEEE P802.15-02/490).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from uwbsync import (
    FrameConfig,
    SampledWaveform,
    aggregate_template,
    draw_th_code,
    sampled_monocycle,
)
from uwbsync.channel import noise_std, snr_ref_samples

# The default frame format with the hopping code of seed 0.  Its first draw
# already keeps every pulse inside its frame, so the code is that draw:
# 29, 22, 17, 9, ..., 6 (TestThCode pins it).
FRAME = draw_th_code(np.random.default_rng(0), FrameConfig())


def energy(samples: np.ndarray, sample_rate: float) -> float:
    """Riemann-sum energy, sum(x^2) / sample_rate."""
    return float(np.sum(samples * samples) / sample_rate)


def random_bits(n: int, seed) -> list[int]:
    """``n`` uniform 0/1 bits from ``seed``, drawn as a trial draws NDA bits."""
    return np.random.default_rng(seed).integers(0, 2, size=n).tolist()


def rms_delay_spread(ch) -> float:
    """Energy-weighted RMS spread of a channel's tap delays, in seconds."""
    w = np.asarray(ch.gains) ** 2
    d = np.asarray(ch.delays)
    mean = float(np.sum(w * d) / np.sum(w))
    return math.sqrt(float(np.sum(w * (d - mean) ** 2) / np.sum(w)))


def pulse_train(bits, cfg: FrameConfig) -> np.ndarray:
    """The transmit train of a list of 0/1 bits, one pulse written per
    (symbol, frame): symbol k's pulse in frame i starts at k*n_s +
    bit*n_shift + i*n_frame + th_code[i]*n_chip, and the train is exactly
    K symbols long."""
    pulse = sampled_monocycle(cfg.pulse_duration, cfg.sample_rate)
    n_s = cfg.n_symbol_samples
    out = np.zeros(len(bits) * n_s)
    for k, bit in enumerate(bits):
        for i, chip in enumerate(cfg.th_code):
            start = (k * n_s + bit * cfg.n_shift_samples + i * cfg.n_frame_samples
                     + chip * cfg.n_chip_samples)
            out[start:start + len(pulse)] = pulse
    return out


def record(bits, ch, cfg: FrameConfig, timing_offset: float = 0.0,
           snr_db: float = math.inf, noise_seed=None) -> np.ndarray:
    """The received record in two arrays: the channel template overlap-added
    into zeros once per bit, in symbol order, then sigma * z + that sum."""
    template = aggregate_template(ch, cfg)
    n_s = cfg.n_symbol_samples
    n_off = int(round(timing_offset * cfg.sample_rate))
    out = np.zeros(len(bits) * n_s)
    for k, bit in enumerate(bits):
        start = k * n_s + bit * cfg.n_shift_samples + n_off
        seg = out[start:start + len(template)]
        seg += template[:len(seg)]
    if snr_db == math.inf:
        return out
    head = template[:n_s]
    sigma = noise_std(float(np.sum(head * head)), snr_db, snr_ref_samples(cfg))
    return sigma * np.random.default_rng(noise_seed).standard_normal(len(out)) + out


def _segment_start(r: SampledWaveform, k: int, tau: float, cfg: FrameConfig) -> int:
    return round((k * cfg.symbol_duration + tau) * r.sample_rate)


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
                      cfg: FrameConfig, exact: bool = False) -> float:
    """Correlation of segment k+1 against segment k's difference template.

    Riemann sum of the symbol-long product; the blind acquisition
    statistic is built from these values.  ``exact`` sums the products
    with ``math.fsum``, correctly rounded, so equal sets of products give
    equal sums whatever their order.
    """
    template = difference_template(r, k, tau, cfg)
    n_s = cfg.n_symbol_samples
    i1 = _segment_start(r, k + 1, tau, cfg)
    if i1 < 0 or i1 + n_s > len(r.samples):
        raise ValueError("segment k+1 outside the record; provide guard symbols")
    prod = r.samples[i1:i1 + n_s] * template.samples
    total = math.fsum(prod) if exact else np.sum(prod)
    return float(total / cfg.sample_rate)


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


def run_python(code: str, **env_vars) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this source."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()
