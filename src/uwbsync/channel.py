"""Multipath channel generation, propagation and noise injection.

Channel realizations follow the cluster/ray (Saleh-Valenzuela style)
statistics of the IEEE 802.15.3a CM1 profile.  All realizations are
energy-normalized and delay-shifted so the first tap sits at zero; the
propagation delay of the link is modeled separately as the timing offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .waveform import (
    ConfigError,
    FrameConfig,
    SampledWaveform,
    SymbolSequence,
    generate_tx,
    place_symbols,
)

__all__ = [
    "CM1_PARAMS",
    "ChannelRealization",
    "LinkParams",
    "generate_cm1",
    "single_path",
    "propagate",
    "aggregate_template",
    "partial_energies",
    "noise_std",
    "taps_to_text",
    "taps_from_text",
    "rms_delay_spread",
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


def _snap_to_ns_grid(delay_s: float) -> float:
    """Nearest double reachable from a nanosecond float via *1e-9.

    Keeps every stored delay exactly representable in the two-column
    (delay_ns, gain) text format; the adjustment is ~1 part in 2^52,
    far below the sample grid the delays are later rounded to.
    """
    y0 = delay_s * 1e9
    best = None
    for y in (y0, math.nextafter(y0, math.inf), math.nextafter(y0, -math.inf)):
        d = y * 1e-9
        if best is None or abs(d - delay_s) < abs(best - delay_s):
            best = d
    return best


@dataclass(frozen=True)
class ChannelRealization:
    """A multipath channel as a finite list of (gain, delay) taps.

    Delays are snapped to nanosecond-representable doubles so text
    serialization round-trips bit-exactly.
    """

    gains: tuple[float, ...]
    delays: tuple[float, ...]
    seed: object = None
    model: str = "fixed"

    def __post_init__(self):
        gains = tuple(float(g) for g in self.gains)
        delays = tuple(_snap_to_ns_grid(float(d)) for d in self.delays)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "delays", delays)
        if len(gains) != len(delays) or len(gains) < 1:
            raise ConfigError("channel needs >= 1 tap with matching gains/delays")
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


@dataclass(frozen=True)
class LinkParams:
    """Per-trial link conditions: the offset to estimate, and the noise."""

    timing_offset: float
    snr_db: float = math.inf
    noise_seed: object = None


def _normalized(gains: np.ndarray, delays: np.ndarray, seed, model) -> ChannelRealization:
    order = np.argsort(delays, kind="stable")
    delays = delays[order] - delays[order][0]
    gains = gains[order]
    gains = gains / math.sqrt(float(np.sum(gains * gains)))
    return ChannelRealization(tuple(gains), tuple(delays), seed=seed, model=model)


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
    for attempt in range(16):
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
        if gains:
            return _normalized(np.asarray(gains), np.asarray(delays),
                               seed=seed, model="cm1")
        # Degenerate draw; perturb the substream and retry.
    raise RuntimeError("CM1 generation produced no taps after 16 attempts")


def single_path() -> ChannelRealization:
    """The identity channel: one unit tap at delay 0."""
    return ChannelRealization((1.0,), (0.0,), model="single_path")


def noise_std(symbol_energy_sumsq: float, snr_db: float, ref_samples: int) -> float:
    """Per-sample AWGN standard deviation for a given SNR.

    SNR is defined as the received per-symbol template energy over the
    expected noise energy collected in ``ref_samples`` samples (half a
    chip duration by default).  Both energies use the same sample-sum
    convention, so units cancel.  The half-chip reference window places
    the acquisition transition of the default format inside the 0-16 dB
    band, where the sweep criteria measure it.
    """
    if snr_db == math.inf:
        return 0.0
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ConfigError(f"snr_db = {snr_db!r} is not a finite SNR or +inf")
    if ref_samples < 1:
        raise ConfigError("ref_samples must be >= 1")
    var = symbol_energy_sumsq / (ref_samples * 10.0 ** (snr_db / 10.0))
    return math.sqrt(var)


def snr_ref_samples(cfg: FrameConfig) -> int:
    """Noise reference window of the SNR definition, in samples."""
    return max(1, int(round(cfg.n_chip_samples / 2)))


def _apply_taps(samples, ch: ChannelRealization, sample_rate: float):
    """Convolve with the tap list as one exact shifted sum per tap.

    Tap delays are rounded to the sample grid, and only the nonzero input
    samples are shifted, so the cost scales as nonzero samples x taps.
    A pulse train leaves most samples zero (about 2% are nonzero at the
    default format).
    """
    idx = [int(round(d * sample_rate)) for d in ch.delays]
    out = np.zeros(len(samples) + max(idx))
    nz = np.flatnonzero(samples)
    values = samples[nz]
    for g, i in zip(ch.gains, idx):
        out[nz + i] += g * values
    return out


def aggregate_template(ch: ChannelRealization, cfg: FrameConfig) -> SampledWaveform:
    """Noise-free received waveform of one isolated bit-0 symbol.

    This is the one-symbol pulse train convolved with the channel taps,
    carrying the sqrt(pulse_energy) scale, over [0, symbol_duration +
    channel excess delay].  :func:`propagate` builds every record and
    its noise level from it; the estimators never see it.
    """
    tx1 = generate_tx(SymbolSequence.fixed([0]), cfg)
    return SampledWaveform(_apply_taps(tx1.samples, ch, cfg.sample_rate),
                           cfg.sample_rate)


def partial_energies(p_r: SampledWaveform, tau: float,
                     symbol_duration: float) -> tuple[float, float, float]:
    """Split the symbol-window energy of a template at T_s - tau.

    Returns (eps_a, eps_b, eps_r): the Riemann-sum energies over
    [T_s - tau, T_s), [0, T_s - tau) and [0, T_s).  The split point is
    rounded to the grid, so eps_a + eps_b = eps_r up to float rounding.
    """
    if not 0 <= tau < symbol_duration:
        raise ValueError(f"tau = {tau!r} outside [0, symbol_duration)")
    fs = p_r.sample_rate
    n_s = int(round(symbol_duration * fs))
    n_tau = int(round(tau * fs))
    s = p_r.samples[:n_s]
    if len(s) < n_s:
        s = np.pad(s, (0, n_s - len(s)))
    cut = n_s - n_tau
    eps_b = float(np.sum(s[:cut] * s[:cut]) / fs)
    eps_a = float(np.sum(s[cut:] * s[cut:]) / fs)
    eps_r = eps_a + eps_b
    return eps_a, eps_b, eps_r


def propagate(bits: SymbolSequence, ch: ChannelRealization, link: LinkParams,
              cfg: FrameConfig) -> SampledWaveform:
    """Transmit a bit sequence through the channel, the offset and AWGN.

    The noiseless record is the received one-symbol template
    (:func:`aggregate_template`) overlap-added once per bit, delayed by
    the timing offset; the same template sets the noise level.  The
    output window is [0, (K+1) * symbol_duration] for K bits, so adjacent
    symbol-long segment pairs exist at any candidate offset in [0, T_s).
    Tap delays and the timing offset are rounded to the sample grid.
    """
    if not isinstance(bits, SymbolSequence):
        raise TypeError(
            f"propagate takes the data bits as a SymbolSequence, not "
            f"{type(bits).__name__}"
        )
    t_s = cfg.symbol_duration
    if not 0 <= link.timing_offset < t_s:
        raise ValueError(
            f"timing_offset = {link.timing_offset!r} outside [0, {t_s!r})"
        )
    fs = cfg.sample_rate
    n_sym = cfg.n_symbol_samples
    n_off = int(round(link.timing_offset * fs))
    template = aggregate_template(ch, cfg).samples
    out = place_symbols(bits, template, cfg, (len(bits) + 1) * n_sym, n_off)

    if link.snr_db != math.inf:
        # np.sum, not np.dot: a BLAS dot this long runs threaded, and its
        # rounding (so the record) then depends on the BLAS thread count.
        head = template[:n_sym]
        e_sum = float(np.sum(head * head))
        sigma = noise_std(e_sum, link.snr_db, snr_ref_samples(cfg))
        # normal(0, sigma) draws 0.0 + sigma * z, so this is the same noise
        # without a second record-sized array.
        noisy = np.random.default_rng(link.noise_seed).standard_normal(len(out))
        noisy *= sigma
        noisy += out
        out = noisy
    return SampledWaveform(out, fs)


def rms_delay_spread(ch: ChannelRealization) -> float:
    """Energy-weighted RMS spread of the tap delays, in seconds."""
    w = np.asarray(ch.gains) ** 2
    d = np.asarray(ch.delays)
    mean = float(np.sum(w * d) / np.sum(w))
    return math.sqrt(float(np.sum(w * (d - mean) ** 2) / np.sum(w)))


def _exact_ns(delay_s: float) -> float:
    """A nanosecond value whose *1e-9 reconstruction is bit-exact."""
    y = delay_s * 1e9
    for _ in range(8):
        if y * 1e-9 == delay_s:
            return y
        y = math.nextafter(y, math.inf if y * 1e-9 < delay_s else -math.inf)
    raise ValueError(f"cannot represent delay {delay_s!r} in ns exactly")


def taps_to_text(ch: ChannelRealization) -> str:
    """Serialize a realization as a two-column (delay_ns, gain) table."""
    seed_token = "".join(str(ch.seed).split())
    lines = [f"# model={ch.model} seed={seed_token} taps={ch.n_taps}"]
    for g, d in zip(ch.gains, ch.delays):
        lines.append(f"{_exact_ns(d)!r} {g!r}")
    return "\n".join(lines) + "\n"


def taps_from_text(text: str) -> ChannelRealization:
    """Reload a realization written by :func:`taps_to_text` (bit-exact)."""
    model = "fixed"
    seed = None
    gains = []
    delays = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tokenpair in line[1:].split():
                if "=" in tokenpair:
                    key, val = tokenpair.split("=", 1)
                    if key == "model":
                        model = val
                    elif key == "seed" and val != "None":
                        seed = val
            continue
        d_ns, g = line.split()
        delays.append(float(d_ns) * 1e-9)
        gains.append(float(g))
    return ChannelRealization(tuple(gains), tuple(delays), seed=seed, model=model)
