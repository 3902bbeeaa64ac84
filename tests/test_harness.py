"""Monte-Carlo harness: error metric, trial seeding, sweep aggregation."""

import math

import numpy as np
import pytest

from uwbsync import (
    CoarseConfig,
    ConfigError,
    ExperimentPlan,
    FineConfig,
    FrameConfig,
    MseRecord,
    records_to_csv,
    run_sweep,
    run_trial,
    wrapped_error,
)

TS = 1120e-9


class TestWrappedError:
    def test_zero(self):
        assert wrapped_error(0.0, 0.0, TS) == 0.0

    def test_wraps_near_boundary(self):
        assert wrapped_error(TS - 1e-9, 0.0, TS) == pytest.approx(-1e-9)
        assert wrapped_error(0.0, TS - 1e-9, TS) == pytest.approx(1e-9)

    def test_half_symbol_boundary_is_positive(self):
        assert wrapped_error(TS / 2, 0.0, TS) == TS / 2

    def test_bounded_and_congruent(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, b = rng.uniform(0, TS, size=2)
            e = wrapped_error(a, b, TS)
            assert abs(e) <= TS / 2
            # e differs from the raw difference by a whole number of T_s
            k = (a - b - e) / TS
            assert k == pytest.approx(round(k), abs=1e-9)


class TestPlanGuards:
    def test_segment_origin_may_sit_at_the_ppm_shift(self):
        ExperimentPlan(coarse_cfg=CoarseConfig(segment_origin=1e-9))
        with pytest.raises(ConfigError, match="PPM shift") as exc:
            ExperimentPlan(coarse_cfg=CoarseConfig(segment_origin=0.98e-9))
        assert exc.value.field == "segment_origin"

    def test_fine_scan_may_reach_exactly_one_symbol_back(self):
        # The scan TestBuffers runs: at tau1 = 0 its first window starts at
        # sample 0.  One step wider passes the record start.
        step = TS / 1120
        ExperimentPlan(fine_cfg=FineConfig(t_corr=1120.5 * step, fine_step=step))
        with pytest.raises(ConfigError, match="one-symbol guard") as exc:
            ExperimentPlan(fine_cfg=FineConfig(t_corr=1121.5 * step, fine_step=step))
        assert exc.value.field == "t_corr"

    def test_default_code_has_one_chip_per_frame(self):
        plan = ExperimentPlan(frame_cfg=FrameConfig(n_frames_per_symbol=16))
        assert plan.frame_cfg.th_code == (0,) * 16
        res = run_trial(plan, 8.0, 4, "da", 0, 0)
        assert 0.0 <= res.tau_hat_fine < plan.frame_cfg.symbol_duration

    def test_chip_alphabet_must_let_trials_draw_a_code(self):
        # 34 of the chips fit a 35 ns frame.  At 38 chips all 1000 draws of
        # a trial fail with probability 2.9e-13, at 39 with 3.8e-6.
        for n_chips in (35, 36, 38):
            ExperimentPlan(frame_cfg=FrameConfig(n_chips=n_chips))
        with pytest.raises(ConfigError, match="1000 attempts") as exc:
            ExperimentPlan(frame_cfg=FrameConfig(n_chips=39))
        assert exc.value.field == "n_chips"


class TestRunTrial:
    def test_noiseless_da_recovers_offset(self):
        plan = ExperimentPlan(channel_model="single_path")
        res = run_trial(plan, math.inf, 16, "da", 0, 0)
        e = wrapped_error(res.tau_hat_fine, res.delta_tau_true, TS)
        assert abs(e) <= plan.fine_cfg.fine_step

    def test_deterministic(self):
        plan = ExperimentPlan()
        a = run_trial(plan, 12.0, 8, "nda", 3, 1)
        b = run_trial(plan, 12.0, 8, "nda", 3, 1)
        assert a == b

    def test_no_blas_call_in_the_trial_loop(self, monkeypatch):
        # A BLAS reduction runs threaded above a size threshold: it keeps a
        # second core busy and its rounding depends on the thread count.
        plan = ExperimentPlan()
        run_trial(plan, 8.0, 8, "nda", 0, 0)  # fills the per-process pulse cache

        def no_blas(*args, **kwargs):
            raise AssertionError("BLAS call in the trial loop")
        for name in ("dot", "vdot", "vecdot", "inner"):
            monkeypatch.setattr(np, name, no_blas, raising=False)
        monkeypatch.setattr(np.linalg, "norm", no_blas)
        run_trial(plan, 8.0, 8, "nda", 1, 0)

    def test_trials_draw_independent_randomness(self):
        plan = ExperimentPlan()
        a = run_trial(plan, math.inf, 8, "nda", 0, 0)
        b = run_trial(plan, math.inf, 8, "nda", 1, 0)
        assert a.delta_tau_true != b.delta_tau_true


class TestRunSweep:
    def test_single_trial_cell_equals_trial_error(self):
        plan = ExperimentPlan(
            snr_grid_db=(math.inf,), m_grid=(8,), modes=("da",),
            floors=("coarse_only", "coarse_plus_fine"), trials_per_cell=1,
            channel_model="single_path",
        )
        records = run_sweep(plan)
        res = run_trial(plan, math.inf, 8, "da", 0, 0)
        e1 = wrapped_error(res.tau_hat_coarse, res.delta_tau_true, TS)
        e2 = wrapped_error(res.tau_hat_fine, res.delta_tau_true, TS)
        assert records[0].normalized_mse == pytest.approx((e1 / TS) ** 2)
        assert records[1].normalized_mse == pytest.approx((e2 / TS) ** 2)
        assert records[0].std_error == 0.0
        assert records[0].n_trials == 1

    def test_record_order_and_cardinality(self):
        plan = ExperimentPlan(
            snr_grid_db=(0.0, 16.0), m_grid=(8,), modes=("nda", "da"),
            trials_per_cell=1,
        )
        records = run_sweep(plan)
        assert len(records) == 2 * 1 * 2 * 2
        keys = [(r.snr_db, r.m, r.mode, r.floor) for r in records]
        assert keys == [
            (0.0, 8, "nda", "coarse_only"), (0.0, 8, "nda", "coarse_plus_fine"),
            (0.0, 8, "da", "coarse_only"), (0.0, 8, "da", "coarse_plus_fine"),
            (16.0, 8, "nda", "coarse_only"), (16.0, 8, "nda", "coarse_plus_fine"),
            (16.0, 8, "da", "coarse_only"), (16.0, 8, "da", "coarse_plus_fine"),
        ]

    def test_reproducible_across_worker_counts(self):
        plan = ExperimentPlan(
            snr_grid_db=(10.0,), m_grid=(8,), modes=("nda", "da"),
            trials_per_cell=4,
        )
        serial = records_to_csv(run_sweep(plan, n_workers=1))
        parallel = records_to_csv(run_sweep(plan, n_workers=2))
        assert serial == parallel

    def test_pool_starts_at_most_one_worker_per_group(self, monkeypatch):
        started = []

        class InlinePool:
            """Records the pool size and runs the tasks in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("uwbsync.harness.ProcessPoolExecutor", InlinePool)
        plan = ExperimentPlan(snr_grid_db=(10.0,), m_grid=(8,), modes=("nda", "da"),
                              trials_per_cell=1, channel_model="single_path")
        pooled = records_to_csv(run_sweep(plan, n_workers=500))
        assert started == [2]
        assert pooled == records_to_csv(run_sweep(plan, n_workers=1))

    def test_mse_within_wrapped_bound(self):
        plan = ExperimentPlan(snr_grid_db=(-100.0,), m_grid=(8,),
                            modes=("nda",), trials_per_cell=8)
        for rec in run_sweep(plan):
            assert 0.0 <= rec.normalized_mse <= 0.25
            assert rec.std_error >= 0.0


class TestCsv:
    def test_format(self):
        rec = MseRecord(16.0, 8, "nda", "coarse_only", 1.2345678e-4, 3.3e-6, 200)
        text = records_to_csv([rec])
        lines = text.splitlines()
        assert lines[0] == "snr_db,m,mode,floor,normalized_mse,std_error,n_trials"
        assert lines[1] == "16,8,nda,coarse_only,0.000123457,3.3e-06,200"
