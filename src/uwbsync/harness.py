"""Monte-Carlo harness: seeded trials, SNR/M sweeps, normalized MSE records.

Each trial derives independent substreams (TH code, channel, noise, data
bits, timing offset) from the base seed via spawn keys, so trials can run
in any order or in parallel and still reproduce bit-identically.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from io import StringIO

import numpy as np

from .waveform import (
    TH_CODE_ATTEMPTS,
    ConfigError,
    FrameConfig,
    SymbolSequence,
    draw_th_code,
    generate_tx,  # not called; the benchmark tracer wraps it (ROADMAP benchmark note)
)
from .channel import (
    DEFAULT_MAX_DELAY,
    LinkParams,
    generate_cm1,
    propagate,
    single_path,
)
from .sync import (CoarseConfig, FineConfig, SyncEstimate, coarse_extent,
                   fine_extent, training_pattern, two_floor_sync)

__all__ = [
    "ExperimentPlan",
    "MseRecord",
    "TrialResult",
    "TrialScene",
    "build_trial_scene",
    "sync_trial",
    "wrapped_error",
    "run_trial",
    "run_sweep",
    "sweep_workers",
    "records_to_csv",
]

CHANNEL_MODELS = ("cm1", "single_path")
FLOORS = ("coarse_only", "coarse_plus_fine")

CSV_HEADER = "snr_db,m,mode,floor,normalized_mse,std_error,n_trials"


@dataclass(frozen=True)
class ExperimentPlan:
    """A full sweep: grids, trial count, seed, and module configs.

    These field defaults are the only defaults of the sweep config keys.
    A plan is resolved on construction: ``coarse_cfg.segment_origin``
    becomes its ``origin`` in ``frame_cfg``.
    """

    snr_grid_db: tuple[float, ...] = (0.0, 4.0, 8.0, 12.0, 16.0)
    m_grid: tuple[int, ...] = (8, 32)
    modes: tuple[str, ...] = ("nda", "da")
    floors: tuple[str, ...] = ("coarse_only", "coarse_plus_fine")
    trials_per_cell: int = 200
    base_seed: int = 20260801
    frame_cfg: FrameConfig = FrameConfig()
    coarse_cfg: CoarseConfig = CoarseConfig()
    fine_cfg: FineConfig = FineConfig()
    channel_model: str = "cm1"
    channel_max_delay: float = DEFAULT_MAX_DELAY

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "m_grid", tuple(int(m) for m in self.m_grid))
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "floors", tuple(self.floors))
        if self.trials_per_cell < 1:
            raise ConfigError("trials_per_cell must be >= 1")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed: {self.base_seed} must be >= 0")
        for name in ("snr_grid_db", "m_grid", "modes", "floors"):
            grid = getattr(self, name)
            if not grid:
                raise ConfigError(f"{name}: sweep grid must be non-empty")
            if len(set(grid)) != len(grid):
                raise ConfigError(f"{name}: duplicate entries in {grid}")
        for snr in self.snr_grid_db:
            if math.isnan(snr) or snr == -math.inf:
                raise ConfigError(f"snr_grid_db: {snr!r} is not a finite SNR or inf")
        for m in self.m_grid:
            if m < 1:
                raise ConfigError(f"m_grid: M = {m} must be >= 1")
        for mode in self.modes:
            if mode not in ("nda", "da"):
                raise ConfigError(f"unknown mode {mode!r}")
        for floor in self.floors:
            if floor not in FLOORS:
                raise ConfigError(f"unknown floor {floor!r}")
        if self.channel_model not in CHANNEL_MODELS:
            raise ConfigError(f"unknown channel model {self.channel_model!r}")
        if not 0 < self.channel_max_delay < math.inf:
            raise ConfigError(f"max_delay_ns: {self.channel_max_delay!r} s "
                              "must be positive and finite")
        # Each trial redraws its hopping code until no pulse leaks out of
        # its frame (draw_th_code); the alphabet must make running out of
        # draws negligible.
        frame = self.frame_cfg
        p_fit = (frame.n_fitting_chips / frame.n_chips) ** frame.n_frames_per_symbol
        if (1.0 - p_fit) ** TH_CODE_ATTEMPTS > 1e-12:
            raise ConfigError(
                f"{frame.n_chips} chips, of which only {frame.n_fitting_chips} "
                f"keep a pulse inside its frame: a trial could fail to draw a "
                f"hopping code in {TH_CODE_ATTEMPTS} attempts", field="n_chips")
        object.__setattr__(self, "coarse_cfg", replace(
            self.coarse_cfg, segment_origin=self.coarse_cfg.origin(frame)))
        fine = self.fine_cfg
        self.coarse_cfg.grid_size(frame)
        origin = self.coarse_cfg.segment_origin
        if round(origin * frame.sample_rate) < frame.n_shift_samples:
            raise ConfigError(
                f"segment_origin {origin!r} s is closer to the record start "
                f"than the PPM shift {frame.ppm_shift!r} s the coarse floor "
                f"reads back", field="segment_origin")
        # The fine scan's guard is one symbol: at tau1 = 0 and a code
        # starting at chip 0, its first window must not start before sample 0.
        n_s = frame.n_symbol_samples
        lo, _ = fine_extent(replace(frame, th_code=None), fine, 0.0)
        if lo < 0:
            raise ConfigError(
                f"t_corr {fine.t_corr!r} s: the fine scan reaches {n_s - lo} "
                f"samples before the coarse estimate, past its one-symbol "
                f"guard of {n_s} samples", field="t_corr")

    def groups(self):
        """Deterministic enumeration of (snr, m, mode) trial groups."""
        out = []
        for snr in self.snr_grid_db:
            for m in self.m_grid:
                for mode in self.modes:
                    out.append((snr, m, mode))
        return out


@dataclass(frozen=True)
class MseRecord:
    """One sweep cell: normalized MSE of the timing estimate."""

    snr_db: float
    m: int
    mode: str
    floor: str
    normalized_mse: float
    std_error: float
    n_trials: int


@dataclass(frozen=True)
class TrialResult:
    tau_hat_coarse: float
    tau_hat_fine: float
    delta_tau_true: float


def wrapped_error(tau_hat: float, delta_tau: float, t_symbol: float) -> float:
    """Circular estimation error on [-T_s/2, T_s/2].

    The estimators see the offset modulo one symbol, so the error metric
    must wrap; the T_s/2 boundary is reported with a positive sign.
    """
    e = (tau_hat - delta_tau + t_symbol / 2.0) % t_symbol - t_symbol / 2.0
    if e == -t_symbol / 2.0:
        e = t_symbol / 2.0
    return e


@dataclass(frozen=True)
class TrialScene:
    """What one trial draws, and its coarse config, before the floors run."""

    cfg: object
    coarse_cfg: CoarseConfig
    channel: object
    delta_tau: float
    bits: SymbolSequence
    received: object


def build_trial_scene(plan: ExperimentPlan, snr_db: float, m: int, mode: str,
                      trial_index: int, group_index: int) -> TrialScene:
    """Draw one trial's randomness and synthesize its received record.

    Substreams: 0=TH code, 1=channel, 2=noise, 3=data bits, 4=timing
    offset.  The record holds the fewest whole symbols that cover the
    furthest sample either floor reads, the fine floor's at the last
    coarse candidate.
    """
    ss = np.random.SeedSequence(entropy=plan.base_seed,
                                spawn_key=(group_index, trial_index))
    s_code, s_channel, s_noise, s_bits, s_dtau = ss.spawn(5)
    cfg = draw_th_code(np.random.default_rng(s_code), plan.frame_cfg)

    if plan.channel_model == "cm1":
        ch = generate_cm1(s_channel, plan.channel_max_delay)
    else:
        ch = single_path()

    delta_tau = float(np.random.default_rng(s_dtau).uniform(0.0, cfg.symbol_duration))

    cc = replace(plan.coarse_cfg, n_symbols=m, mode=mode)
    last_tau1 = (cc.grid_size(cfg) - 1) * cc.search_step
    extent = max(coarse_extent(cfg, cc), fine_extent(cfg, plan.fine_cfg, last_tau1)[1])
    k_total = -(-extent // cfg.n_symbol_samples)
    if mode == "da":
        bits = SymbolSequence.fixed([training_pattern(k) for k in range(k_total)])
    else:
        bits = SymbolSequence.random(k_total, s_bits)

    link = LinkParams(timing_offset=delta_tau, snr_db=snr_db, noise_seed=s_noise)
    r = propagate(bits, ch, link, cfg)
    return TrialScene(cfg, cc, ch, delta_tau, bits, r)


def sync_trial(plan: ExperimentPlan, snr_db: float, m: int, mode: str,
               trial_index: int, group_index: int) -> tuple[TrialScene, SyncEstimate]:
    """Build one trial's scene and run both floors on its record."""
    scene = build_trial_scene(plan, snr_db, m, mode, trial_index, group_index)
    est = two_floor_sync(scene.received, scene.cfg, scene.coarse_cfg, plan.fine_cfg)
    if abs(est.n_opt * plan.fine_cfg.fine_step) > plan.fine_cfg.t_corr + 1e-15:
        raise RuntimeError("fine estimate left the scan interval")
    return scene, est


def run_trial(plan: ExperimentPlan, snr_db: float, m: int, mode: str,
              trial_index: int, group_index: int) -> TrialResult:
    """One Monte-Carlo realization of a sweep cell, both floors."""
    scene, est = sync_trial(plan, snr_db, m, mode, trial_index, group_index)
    return TrialResult(est.tau1, est.tau2, scene.delta_tau)


def _run_group(plan: ExperimentPlan, group_index: int,
               group: tuple[float, int, str]) -> list[TrialResult]:
    snr, m, mode = group
    return [run_trial(plan, snr, m, mode, t, group_index)
            for t in range(plan.trials_per_cell)]


def _group_task(args):
    plan, group_index, group = args
    return group_index, _run_group(plan, group_index, group)


def sweep_workers(plan: ExperimentPlan, n_workers: int) -> int:
    """Processes :func:`run_sweep` uses for ``n_workers``; 1 means serial.

    A fork pool starts all its workers at once, so at most one per group.
    """
    return max(1, min(n_workers, len(plan.groups())))


def run_sweep(plan: ExperimentPlan, n_workers: int = 1) -> list[MseRecord]:
    """Run every (snr, m, mode) group and aggregate per-floor records.

    A trial produces both floors' estimates, so floor cells that share
    (snr, m, mode) are paired on the same realizations.  Results are
    bit-identical for any worker count: substreams are keyed by group
    and trial index, and records are assembled in plan order.
    """
    groups = plan.groups()
    tasks = [(plan, gi, g) for gi, g in enumerate(groups)]
    workers = sweep_workers(plan, n_workers)
    if workers == 1:
        results = {gi: trials for gi, trials in map(_group_task, tasks)}
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = {gi: trials for gi, trials in pool.map(_group_task, tasks)}

    t_s = plan.frame_cfg.symbol_duration
    records = []
    for gi, (snr, m, mode) in enumerate(groups):
        trials = results[gi]
        for floor in plan.floors:
            errs = np.array([
                wrapped_error(
                    t.tau_hat_coarse if floor == "coarse_only" else t.tau_hat_fine,
                    t.delta_tau_true, t_s)
                for t in trials
            ])
            sq = (errs / t_s) ** 2
            n = len(sq)
            mse = float(np.mean(sq))
            std_error = float(np.std(sq, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            records.append(MseRecord(snr, m, mode, floor, mse, std_error, n))
    return records


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def records_to_csv(records) -> str:
    """Render records in the stable CSV format used for regression diffs."""
    out = StringIO()
    out.write(CSV_HEADER + "\n")
    for r in records:
        out.write(
            f"{_fmt(r.snr_db)},{r.m},{r.mode},{r.floor},"
            f"{_fmt(r.normalized_mse)},{_fmt(r.std_error)},{r.n_trials}\n"
        )
    return out.getvalue()
