"""Multipath channels and record synthesis: pulse train, taps, offset, noise.

Every record, the transmit train included, is synthesized here, from one
received symbol template placed once per data bit.  Channel realizations
follow the cluster/ray (Saleh-Valenzuela style) statistics of the IEEE
802.15.3a CM1 profile.  All realizations are energy-normalized and
delay-shifted so the first tap sits at zero; the propagation delay of the
link is modeled separately as the timing offset.
"""

from __future__ import annotations

import copy
import math
import reprlib
import threading
from dataclasses import dataclass

import numpy as np

from .waveform import (
    ConfigError,
    FrameConfig,
    SampledWaveform,
    sampled_monocycle,
)

__all__ = [
    "CM1_PARAMS",
    "ChannelRealization",
    "generate_cm1",
    "single_path",
    "propagate",
    "generate_tx",
    "aggregate_template",
    "partial_energies",
    "noise_std",
]

# CM1 (LOS, 0-4 m) cluster/ray statistics.  Pinned here so they are
# auditable; rates are per second, decays in seconds, fading in dB.
CM1_PARAMS = {
    "cluster_rate": 0.0233e9,      # cluster arrival rate (1/s)
    "ray_rate": 2.5e9,             # ray arrival rate within a cluster (1/s)
    "cluster_decay": 7.1e-9,       # cluster energy decay constant (s)
    "ray_decay": 4.3e-9,           # ray energy decay constant (s)
    "lognormal_std_db": 3.3941,    # fading std per cluster and per ray (dB)
}

DEFAULT_MAX_DELAY = 25e-9

_NORM_TOL = 1e-9

# At the default format a noise-only correlation squared overflows below
# about -2000 dB, and the noise level itself below about -3000 dB or above
# about +3080 dB; the bound keeps every finite SNR far from both.
MAX_ABS_SNR_DB = 300.0

# Normals the first half's generator draws past its half, to find where
# the second half's parse of the stream rejoins its own.  Sixteen doubles
# drawn from different words do not match by chance.
_LOOK_AHEAD = 16


@dataclass(frozen=True)
class ChannelRealization:
    """A multipath channel as a finite list of (gain, delay) taps."""

    gains: tuple[float, ...]
    delays: tuple[float, ...]

    def __post_init__(self):
        gains = tuple(float(g) for g in self.gains)
        delays = tuple(float(d) for d in self.delays)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "delays", delays)
        if len(gains) != len(delays) or len(gains) < 1:
            raise ConfigError("channel needs >= 1 tap with matching gains/delays")
        if not all(map(math.isfinite, gains + delays)):
            raise ConfigError("tap gains and delays must all be finite")
        if any(d2 < d1 for d1, d2 in zip(delays, delays[1:])):
            raise ConfigError("tap delays must be sorted non-decreasing")
        if abs(delays[0]) > 1e-15:
            raise ConfigError("first tap delay must be 0 (offset is modeled separately)")
        total = sum(g * g for g in gains)
        if abs(total - 1.0) > _NORM_TOL:
            raise ConfigError(f"tap energy sum {total!r} != 1 (normalize first)")

    @property
    def n_taps(self) -> int:
        return len(self.gains)


def _normalized(gains: np.ndarray, delays: np.ndarray) -> ChannelRealization:
    order = np.argsort(delays, kind="stable")
    delays = delays[order] - delays[order][0]
    gains = gains[order]
    gains = gains / math.sqrt(float(np.sum(gains * gains)))
    return ChannelRealization(tuple(gains), tuple(delays))


def generate_cm1(seed, max_delay: float = DEFAULT_MAX_DELAY) -> ChannelRealization:
    """Draw a CM1 cluster/ray realization truncated at ``max_delay``.

    Ray amplitudes are lognormal about the double-exponential power decay
    profile, with equiprobable polarity.  The result is energy-normalized
    and shifted so its first tap is at delay 0.
    """
    if not 0 < max_delay < math.inf:
        raise ConfigError(f"max_delay {max_delay!r} must be positive and finite")
    p = CM1_PARAMS
    sigma_db = math.sqrt(2.0) * p["lognormal_std_db"]  # cluster + ray terms
    rng = np.random.default_rng(seed)
    delays = []
    gains = []
    t_cluster = 0.0
    while t_cluster <= max_delay:
        t_ray = 0.0
        while t_cluster + t_ray <= max_delay:
            # Mean power follows the double-exponential decay profile;
            # 20log10|gain| is Normal with the mean offset that keeps
            # E[gain^2] on that profile.
            mean_pow_db = 10.0 * (-(t_cluster / p["cluster_decay"])
                                  - (t_ray / p["ray_decay"])) / math.log(10.0)
            mu_db = mean_pow_db - sigma_db * sigma_db * math.log(10.0) / 20.0
            amp_db = rng.normal(mu_db, sigma_db)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            gains.append(sign * 10.0 ** (amp_db / 20.0))
            delays.append(t_cluster + t_ray)
            t_ray += rng.exponential(1.0 / p["ray_rate"])
        t_cluster += rng.exponential(1.0 / p["cluster_rate"])
    # max_delay > 0, so the first ray, at delay 0, is always drawn.
    return _normalized(np.asarray(gains), np.asarray(delays))


def single_path() -> ChannelRealization:
    """The identity channel: one unit tap at delay 0."""
    return ChannelRealization((1.0,), (0.0,))


def check_snr_db(snr_db: float) -> None:
    """Refuse any SNR but +inf (noiseless) and finite values within
    +-``MAX_ABS_SNR_DB``, naming the ``snr_grid_db`` field."""
    if not (abs(snr_db) <= MAX_ABS_SNR_DB or snr_db == math.inf):
        raise ConfigError(f"{snr_db!r} dB is neither inf nor within "
                          f"[-{MAX_ABS_SNR_DB:g}, {MAX_ABS_SNR_DB:g}] dB",
                          field="snr_grid_db")


def noise_std(symbol_energy_sumsq: float, snr_db: float, ref_samples: int) -> float:
    """Per-sample AWGN standard deviation for a given SNR.

    SNR is defined as the received per-symbol template energy over the
    expected noise energy collected in ``ref_samples`` samples (half a
    chip duration by default).  Both energies use the same sample-sum
    convention, so units cancel.  The half-chip reference window places
    the acquisition transition of the default format inside the 0-16 dB
    band, where the sweep criteria measure it.
    """
    check_snr_db(snr_db)
    if snr_db == math.inf:
        return 0.0
    if ref_samples < 1:
        raise ConfigError("ref_samples must be >= 1")
    var = symbol_energy_sumsq / (ref_samples * 10.0 ** (snr_db / 10.0))
    return math.sqrt(var)


def snr_ref_samples(cfg: FrameConfig) -> int:
    """Noise reference window of the SNR definition, in samples."""
    return max(1, int(round(cfg.n_chip_samples / 2)))


def aggregate_template(ch: ChannelRealization, cfg: FrameConfig) -> np.ndarray:
    """Noise-free received samples of one isolated bit-0 symbol, on the
    grid of ``cfg``.

    This is the one-symbol pulse train convolved with the channel taps,
    over [0, symbol_duration + channel excess delay], so never shorter
    than a symbol: each tap, its delay rounded to the grid, adds one
    shifted, scaled copy of the pulses.
    Pulses never overlap, so only the pulse samples are shifted, and the
    cost scales as pulse samples x taps.  This is the only code that
    writes pulses; :func:`propagate` builds every record and its noise
    level from the template, and the estimators never see it.
    """
    pulse = sampled_monocycle(cfg.pulse_duration, cfg.sample_rate)
    pos = (cfg.frame_start_samples()[:, None] + np.arange(len(pulse))).ravel()
    values = np.tile(pulse, cfg.n_frames_per_symbol)
    idx = np.array([int(round(d * cfg.sample_rate)) for d in ch.delays])
    out = np.zeros(cfg.n_symbol_samples + int(idx.max()))
    # One unbuffered add, taps in order: each sample sums its taps in the
    # order a per-tap loop would, but in one numpy call, not a few per tap,
    # so a trial on a sweep thread gives up and retakes the GIL less often.
    np.add.at(out, (idx[:, None] + pos).ravel(),
              (np.asarray(ch.gains)[:, None] * values).ravel())
    return out


def partial_energies(template: np.ndarray, tau: float,
                     cfg: FrameConfig) -> tuple[float, float, float]:
    """Split the symbol-window energy of a template at T_s - tau.

    ``template`` is :func:`aggregate_template`'s array on the grid of
    ``cfg``.  Returns (eps_a, eps_b, eps_r): the Riemann-sum energies over
    [T_s - tau, T_s), [0, T_s - tau) and [0, T_s).  The split point is
    rounded to the grid, so eps_a + eps_b = eps_r up to float rounding.
    """
    if not 0 <= tau < cfg.symbol_duration:
        raise ValueError(f"tau = {tau!r} outside [0, symbol_duration)")
    fs = cfg.sample_rate
    n_s = cfg.n_symbol_samples
    n_tau = int(round(tau * fs))
    s = template[:n_s]
    cut = n_s - n_tau
    eps_b = float(np.sum(s[:cut] * s[:cut]) / fs)
    eps_a = float(np.sum(s[cut:] * s[cut:]) / fs)
    eps_r = float(np.sum(s * s) / fs)
    return eps_a, eps_b, eps_r


def _rejoin(tail: np.ndarray, look: np.ndarray) -> int | None:
    """The first offset at which ``look`` runs in ``tail``, or None.

    The offset is a few percent into ``tail``, so it is searched for in
    doubling windows from the start.
    """
    lo, size = 0, 4096
    while lo + len(look) <= len(tail):
        for j in lo + np.flatnonzero(tail[lo:lo + size] == look[0]):
            if np.array_equal(tail[j:j + len(look)], look):
                return int(j)
        lo += size
        size *= 2
    return None


def _standard_normal(seed, n: int, threads: int = 1) -> np.ndarray:
    """``np.random.default_rng(seed).standard_normal(n)``, byte for byte,
    drawn on one thread or, for ``threads`` >= 2, on two.

    numpy's ziggurat computes each normal only from the 64-bit words at its
    own start: one word for most normals, more for a few.  So a second
    generator advanced ``h = n // 2`` words parses the same PCG64 stream,
    and within a few words its parse meets the first generator's.  From
    there it draws the first generator's normals, from some ``j`` before
    normal ``h`` on; ``j`` is about the extra words the first ``h``
    normals took, some 2% of ``h``.

    The calling thread draws ``out[:h]`` while a helper thread draws
    ``out[h:]`` from the advanced generator.  The first generator's next
    normals, found at offset ``j`` of ``out[h:]``, place the splice:
    ``out[h:]`` shifts left by ``j`` in one slice assignment, which numpy
    makes in place because its output starts before its input, and the
    advanced generator draws the last ``j``.
    Where they are not found (a draw of a few dozen normals or less), the
    first generator draws ``out[h:]`` itself, so the bytes never depend on
    the splice.
    """
    first = np.random.default_rng(seed)
    if threads < 2:
        return first.standard_normal(n)
    h = n // 2
    second = np.random.Generator(copy.deepcopy(first.bit_generator).advance(h))
    out = np.empty(n)
    helper = threading.Thread(target=second.standard_normal, kwargs={"out": out[h:]})
    helper.start()
    first.standard_normal(out=out[:h])
    helper.join()
    state = first.bit_generator.state
    j = _rejoin(out[h:], first.standard_normal(_LOOK_AHEAD))
    if j is None:
        first.bit_generator.state = state
        first.standard_normal(out=out[h:])
    elif j:
        out[h:n - j] = out[h + j:]
        second.standard_normal(out=out[n - j:])
    return out


def propagate(bits, ch: ChannelRealization, cfg: FrameConfig, *,
              timing_offset: float = 0.0, snr_db: float = math.inf,
              noise_seed=None, draw_threads: int = 1) -> SampledWaveform:
    """Transmit a bit sequence through the channel, the offset and AWGN,
    and return the received record.

    ``bits`` is any non-empty sequence of data bits, each equal to 0 or 1
    (a list, a tuple of bools, a numpy int array).  The noiseless record
    is the received one-symbol template (:func:`aggregate_template`)
    overlap-added once per bit, at k*symbol_duration + bit*ppm_shift +
    timing_offset for symbol k; the same template sets the noise level.
    The output window is the bits' own, [0, K * symbol_duration) for K
    bits: the template tails past it are cut.  Tap delays and the timing
    offset are rounded to ``cfg``'s grid, the record's only grid.  The
    record is one array: the noise drawn from ``noise_seed``, which a finite
    ``snr_db`` requires (zeros when noiseless), with each template added
    into it in place, in symbol order.
    ``draw_threads`` (1 or 2) is the number of threads that draw the
    noise; the record's bytes do not depend on it.
    """
    values = np.asarray(bits)
    if values.ndim != 1 or not values.size or not np.all((values == 0) | (values == 1)):
        raise ValueError(f"bits {reprlib.repr(bits)} are not a non-empty "
                         "sequence of 0s and 1s")
    t_s = cfg.symbol_duration
    if not 0 <= timing_offset < t_s:
        raise ValueError(f"timing_offset = {timing_offset!r} outside [0, {t_s!r})")
    if snr_db != math.inf and noise_seed is None:
        raise ValueError(f"snr_db = {snr_db!r} needs a noise_seed, or the record "
                         "cannot be reproduced")
    n_sym = cfg.n_symbol_samples
    n_off = int(round(timing_offset * cfg.sample_rate))
    n = values.size * n_sym
    template = aggregate_template(ch, cfg)
    noisy = snr_db != math.inf
    out = _standard_normal(noise_seed, n, draw_threads) if noisy else np.zeros(n)
    if noisy:
        # np.sum, not np.dot: a BLAS dot this long runs threaded, and its
        # rounding (so the record) then depends on the BLAS thread count.
        head = template[:n_sym]
        sigma = noise_std(float(np.sum(head * head)), snr_db, snr_ref_samples(cfg))
        # The same noise as normal(0, sigma), which draws 0.0 + sigma * z.
        out *= sigma

    # One add per bit, in symbol order, each tail cut at the record's end:
    # where tails overlap a sample is ((sigma*z + t_0) + t_1) + ...
    for k, bit in enumerate(values.tolist()):
        start = k * n_sym + int(bit) * cfg.n_shift_samples + n_off
        seg = out[start:start + len(template)]
        seg += template[:len(seg)]
    return SampledWaveform(out)


def generate_tx(bits, cfg: FrameConfig) -> SampledWaveform:
    """The TH-PPM transmit train of a sequence of 0/1 bits: its noiseless
    record through the identity channel, ``len(bits) * n_symbol_samples``
    long."""
    return propagate(bits, single_path(), cfg)
