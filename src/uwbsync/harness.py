"""Monte-Carlo harness: seeded trials, SNR/M sweeps, normalized MSE records.

Each trial derives independent substreams (TH code, channel, noise, data
bits, timing offset) from the base seed via spawn keys, so trials can run
in any order or in parallel and still reproduce bit-identically.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from io import StringIO
from typing import ClassVar

import numpy as np

from .waveform import (
    _GRID_TOL,
    ConfigError,
    FrameConfig,
    SampledWaveform,
    draw_th_code,
)
from .channel import (
    DEFAULT_MAX_DELAY,
    ChannelRealization,
    check_snr_db,
    generate_cm1,
    generate_tx,  # not called; perfbench/spans.py's STAGES wraps it here
    propagate,
    single_path,
)
from . import sync
from .sync import (COARSE_MODES, CoarseConfig, FineConfig, coarse_extent,
                   fine_extent, training_pattern)

__all__ = [
    "ExperimentPlan",
    "MseRecord",
    "TrialResult",
    "TrialScene",
    "build_trial_scene",
    "wrapped_error",
    "run_trial",
    "run_trials",
    "mse_records",
    "run_sweep",
    "sweep_workers",
    "records_to_csv",
    "snr_label",
]

CHANNEL_MODELS = ("cm1", "single_path")
FLOORS = ("coarse_only", "coarse_plus_fine")

CSV_HEADER = "snr_db,m,mode,floor,normalized_mse,std_error,n_trials"


@dataclass(frozen=True)
class ExperimentPlan:
    """A full sweep: grids, trial count, seed, and module configs.

    Its fields are exactly the config keys, and these defaults their only
    defaults.  Every trial runs both floors, so every cell reports both.
    """

    floors: ClassVar[tuple[str, ...]] = FLOORS
    snr_grid_db: tuple[float, ...] = (0.0, 4.0, 8.0, 12.0, 16.0)
    m_grid: tuple[int, ...] = (8, 32)
    modes: tuple[str, ...] = COARSE_MODES
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
        if self.trials_per_cell < 1:
            raise ConfigError(f"must be >= 1, got {self.trials_per_cell}",
                              field="trials_per_cell")
        if self.base_seed < 0:
            raise ConfigError(f"must be >= 0, got {self.base_seed}", field="base_seed")
        for name in ("snr_grid_db", "m_grid", "modes"):
            grid = getattr(self, name)
            if not grid:
                raise ConfigError("sweep grid must be non-empty", field=name)
            if len(set(grid)) != len(grid):
                raise ConfigError(f"duplicate entries in {grid}", field=name)
        for snr in self.snr_grid_db:
            check_snr_db(snr)
        for m in self.m_grid:
            if m < 1:
                raise ConfigError(f"M = {m} must be >= 1", field="m_grid")
        for mode in self.modes:
            if mode not in COARSE_MODES:
                raise ConfigError(f"unknown mode {mode!r}", field="modes")
        if self.channel_model not in CHANNEL_MODELS:
            raise ConfigError(f"unknown channel model {self.channel_model!r}",
                              field="channel_model")
        if not 0 < self.channel_max_delay < math.inf:
            raise ConfigError(f"{self.channel_max_delay!r} s must be positive and "
                              "finite", field="channel_max_delay")
        # Each trial draws its own hopping code (draw_th_code), so a plan's
        # own code would go unused.
        frame = self.frame_cfg
        if frame != replace(frame, th_code=None):
            raise ConfigError(f"th_code {frame.th_code}: every trial draws its "
                              "own hopping code", field="th_code")
        fine = self.fine_cfg
        self.coarse_cfg.grid_size(frame)
        # A step below one sample rescores the same offsets many times over.
        if fine.fine_step * frame.sample_rate < 1 - _GRID_TOL:
            raise ConfigError(
                f"a step of {fine.fine_step * frame.sample_rate:g} samples is "
                f"below one sample at {frame.sample_rate!r} Hz", field="fine_step")
        # The fine scan's guard is one symbol: at tau1 = 0 and the plan's
        # all-zero code, its first window must not start before sample 0.
        n_s = frame.n_symbol_samples
        lo, _ = fine_extent(frame, fine, 0.0)
        if lo < 0:
            raise ConfigError(
                f"t_corr {fine.t_corr!r} s: the fine scan reaches {n_s - lo} "
                f"samples before the coarse estimate, past its one-symbol "
                f"guard of {n_s} samples", field="t_corr")

    def groups(self):
        """Deterministic enumeration of (snr, m, mode) trial groups."""
        return list(itertools.product(self.snr_grid_db, self.m_grid, self.modes))


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
    # (coarse, fine) objective curves of trial 0 of a cell, else None; == skips them.
    objectives: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False)


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
    """What one trial draws before the floors run."""

    cfg: FrameConfig
    channel: ChannelRealization
    delta_tau: float
    bits: list[int]
    received: SampledWaveform


def build_trial_scene(plan: ExperimentPlan, snr_db: float, m: int, mode: str,
                      trial_index: int, group_index: int, *,
                      draw_threads: int = 1) -> TrialScene:
    """Draw one trial's randomness and synthesize its received record.

    Substreams: 0=TH code, 1=channel, 2=noise, 3=data bits, 4=timing
    offset.  The trial draws the fewest bits K whose symbols cover the
    furthest sample either floor reads, the fine floor's at the last
    coarse candidate, and its record is exactly those K symbols.  The
    bits are a list of 0s and 1s: the training pattern in DA mode, K
    uniform draws from the bits substream in NDA mode.
    ``draw_threads`` threads draw its noise (:func:`propagate`).
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

    cc = plan.coarse_cfg
    last_tau1 = (cc.grid_size(cfg) - 1) * cc.search_step
    extent = max(coarse_extent(cfg, cc, m), fine_extent(cfg, plan.fine_cfg, last_tau1)[1])
    k_total = -(-extent // cfg.n_symbol_samples)
    if mode == "da":
        bits = [training_pattern(k) for k in range(k_total)]
    else:
        bits = np.random.default_rng(s_bits).integers(0, 2, size=k_total).tolist()

    r = propagate(bits, ch, cfg, timing_offset=delta_tau, snr_db=snr_db,
                  noise_seed=s_noise, draw_threads=draw_threads)
    return TrialScene(cfg, ch, delta_tau, bits, r)


def run_trial(plan: ExperimentPlan, snr_db: float, m: int, mode: str,
              trial_index: int, group_index: int, *,
              draw_threads: int = 1) -> TrialResult:
    """One Monte-Carlo realization of a sweep cell: build its record, then
    run both floors on it.  Trial 0 keeps its objective curves."""
    scene = build_trial_scene(plan, snr_db, m, mode, trial_index, group_index,
                              draw_threads=draw_threads)
    # Through the module, so that a tracer replacing its floors sees them.
    tau1, coarse = sync.coarse_sync(scene.received, scene.cfg, plan.coarse_cfg, m, mode)
    # The fine floor computes in the record, which nothing reads after it.
    tau2, _, fine = sync.fine_sync(scene.received, tau1, scene.cfg, plan.fine_cfg)
    return TrialResult(tau1, tau2, scene.delta_tau,
                       (coarse, fine) if trial_index == 0 else None)


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_workers(plan: ExperimentPlan, n_workers: int) -> int:
    """Threads :func:`run_trials` runs trials on when asked for
    ``n_workers`` (1 means serially): never more than there are trials or
    CPUs this process may use."""
    return max(1, min(n_workers, len(plan.groups()) * plan.trials_per_cell, _cpus()))


def run_trials(plan: ExperimentPlan, n_workers: int = 1) -> list[TrialResult]:
    """Every trial of the plan: trial t of group gi is element
    ``gi * trials_per_cell + t``.

    Trials run largest record first: groups in descending M, each group's
    trials together and in trial order.  The returned order, so the CSV
    and the objective dumps, stays the plan's.  They run on
    :func:`sweep_workers` threads of this process; numpy releases the GIL
    in every heavy stage of a trial.  Results are bit-identical for any
    worker count: substreams are keyed by group and trial index.  Each
    worker draws a record's noise on two threads when that leaves no more
    threads than CPUs, else on one; the bytes are the same either way.
    """
    workers = sweep_workers(plan, n_workers)
    # Two draw threads at any worker count made 2 workers on 2 CPUs 14% slower.
    trial = partial(run_trial, plan, draw_threads=2 if 2 * workers <= _cpus() else 1)
    n = plan.trials_per_cell
    jobs = [(snr, m, mode, t, gi)
            for gi, (snr, m, mode) in enumerate(plan.groups()) for t in range(n)]
    # Largest M first (the record grows with M), each group's trials together
    # and in order: glibc keeps freed blocks below the largest one freed so
    # far in the heap, so small records run first stay resident under later
    # large ones.
    jobs.sort(key=lambda job: -job[1])
    if workers == 1:
        done = map(trial, *zip(*jobs))
    else:
        # Imported here: it loads logging, which a serial run never uses.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(trial, *zip(*jobs)))
    results = [None] * len(jobs)
    for (*_, t, gi), result in zip(jobs, done):
        results[gi * n + t] = result
    return results


def mse_records(plan: ExperimentPlan, trials: list[TrialResult]) -> list[MseRecord]:
    """Per-floor records of the plan's trials, as :func:`run_trials`
    orders them.  A trial produces both floors' estimates, so floor cells
    that share (snr, m, mode) are paired on the same realizations."""
    n = plan.trials_per_cell
    t_s = plan.frame_cfg.symbol_duration
    records = []
    for gi, (snr, m, mode) in enumerate(plan.groups()):
        cell = trials[gi * n:(gi + 1) * n]
        for floor in plan.floors:
            errs = np.array([
                wrapped_error(
                    t.tau_hat_coarse if floor == "coarse_only" else t.tau_hat_fine,
                    t.delta_tau_true, t_s)
                for t in cell
            ])
            sq = (errs / t_s) ** 2
            mse = float(np.mean(sq))
            std_error = float(np.std(sq, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            records.append(MseRecord(snr, m, mode, floor, mse, std_error, n))
    return records


def run_sweep(plan: ExperimentPlan, n_workers: int = 1) -> list[MseRecord]:
    """Run every trial of the plan and aggregate its per-floor records."""
    return mse_records(plan, run_trials(plan, n_workers))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def snr_label(snr_db: float) -> str:
    """The SNR as results.csv and the objective dumps name it: six
    significant digits where they read back as the same double, else the
    shortest text that does, so distinct grid values keep distinct labels."""
    text = _fmt(snr_db)
    return text if float(text) == snr_db else repr(snr_db)


def records_to_csv(records) -> str:
    """Render records in the stable CSV format used for regression diffs."""
    out = StringIO()
    out.write(CSV_HEADER + "\n")
    for r in records:
        out.write(
            f"{snr_label(r.snr_db)},{r.m},{r.mode},{r.floor},"
            f"{_fmt(r.normalized_mse)},{_fmt(r.std_error)},{r.n_trials}\n"
        )
    return out.getvalue()
