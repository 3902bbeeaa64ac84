"""Monte-Carlo harness: error metric, trial seeding, sweep aggregation."""

import importlib.util
import math
import os
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uwbsync import (
    CoarseConfig,
    ConfigError,
    ExperimentPlan,
    FineConfig,
    FrameConfig,
    MseRecord,
    TrialResult,
    coarse_sync,
    fine_sync,
    records_to_csv,
    run_sweep,
    run_trial,
    sampled_monocycle,
    wrapped_error,
)
from uwbsync import harness
from uwbsync.cli import load_plan
from uwbsync.harness import (mse_records, run_trials, snr_label, sweep_draw_threads,
                             sweep_workers)

from oracles import run_python

TS = 1120e-9


@pytest.fixture()
def draw_threads_seen(monkeypatch):
    """Lists the noise-draw thread count of every record a sweep builds."""
    seen = []
    propagate = harness.propagate

    def spy(*args, **kwargs):
        seen.append(kwargs["draw_threads"])
        return propagate(*args, **kwargs)

    monkeypatch.setattr(harness, "propagate", spy)
    return seen


@pytest.fixture()
def trial_threads(monkeypatch):
    """Lists the thread that runs each trial of a sweep."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(threading.get_ident())
        return run_trial(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", spy)
    return seen


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
    def test_fine_scan_may_reach_exactly_one_symbol_back(self):
        # The scan TestBuffers runs: at tau1 = 0 its first window starts at
        # sample 0.  One step wider passes the record start.
        step = TS / 1120
        ExperimentPlan(fine_cfg=FineConfig(t_corr=1120.5 * step, fine_step=step))
        with pytest.raises(ConfigError, match="one-symbol guard") as exc:
            ExperimentPlan(fine_cfg=FineConfig(t_corr=1121.5 * step, fine_step=step))
        assert exc.value.field == "t_corr"

    def test_fine_step_is_at_least_one_sample(self):
        # 0.02 ns is one sample at 50 GHz; 0.001 ns would score 560 000
        # steps each way, about 20 per sample offset.
        ExperimentPlan(fine_cfg=FineConfig(fine_step=0.02e-9))
        with pytest.raises(ConfigError, match="below one sample") as exc:
            ExperimentPlan(fine_cfg=FineConfig(fine_step=0.001e-9))
        assert exc.value.field == "fine_step"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("part, cls, name", [
        ("coarse_cfg", CoarseConfig, "search_step"),
        ("frame_cfg", FrameConfig, "frame_duration"),
        ("frame_cfg", FrameConfig, "sample_rate"),
        ("fine_cfg", FineConfig, "fine_step"),
        ("fine_cfg", FineConfig, "t_corr"),
    ])
    def test_a_non_finite_duration_names_its_field(self, part, cls, name, value):
        with pytest.raises(ConfigError) as exc:
            ExperimentPlan(**{part: cls(**{name: value})})
        assert exc.value.field == name

    def test_default_code_has_one_chip_per_frame(self):
        plan = ExperimentPlan(frame_cfg=FrameConfig(n_frames_per_symbol=16))
        assert plan.frame_cfg.th_code == (0,) * 16
        res = run_trial(plan, 8.0, 4, "da", 0, 0)
        assert 0.0 <= res.tau_hat_fine < plan.frame_cfg.symbol_duration

    def test_a_plan_holds_no_hopping_code(self):
        # Every trial draws its own code, so a plan's own would go unused
        # and the manifest would drop it.
        ExperimentPlan(frame_cfg=FrameConfig(th_code=(0,) * 32))
        with pytest.raises(ConfigError, match="draws its own") as exc:
            ExperimentPlan(frame_cfg=FrameConfig(th_code=(3,) * 32))
        assert exc.value.field == "th_code"

    def test_chips_that_leak_are_never_drawn(self, tmp_path):
        # 34 of 45 chips keep a PPM-shifted pulse inside a 35 ns frame.
        path = tmp_path / "chips.cfg"
        path.write_text("[frame]\nn_chips = 45\n")
        plan = load_plan(path)
        assert plan.frame_cfg.n_fitting_chips == 34
        scene = harness.build_trial_scene(plan, 8.0, 8, "nda", 0, 0)
        assert max(scene.cfg.th_code) < 34
        res = run_trial(plan, 8.0, 8, "nda", 0, 0)
        assert 0.0 <= res.tau_hat_fine < plan.frame_cfg.symbol_duration


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

    def test_the_cell_gives_the_coarse_floor_its_m_and_mode(self):
        # A scene holds only what a trial draws; M and mode reach the
        # floor from the cell.
        assert "coarse_cfg" not in {f.name for f in fields(harness.TrialScene)}
        plan = ExperimentPlan()
        scene = harness.build_trial_scene(plan, 8.0, 4, "da", 2, 0)
        tau1, _ = coarse_sync(scene.received, scene.cfg, plan.coarse_cfg, 4, "da")
        tau2, _, _ = fine_sync(scene.received, tau1, scene.cfg, plan.fine_cfg)
        res = run_trial(plan, 8.0, 4, "da", 2, 0)
        assert (res.tau_hat_coarse, res.tau_hat_fine) == (tau1, tau2)

    def test_trials_draw_independent_randomness(self):
        plan = ExperimentPlan()
        a = run_trial(plan, math.inf, 8, "nda", 0, 0)
        b = run_trial(plan, math.inf, 8, "nda", 1, 0)
        assert a.delta_tau_true != b.delta_tau_true


class TestMseRecords:
    PLAN = ExperimentPlan(snr_grid_db=(4.0,), m_grid=(8,), modes=("nda", "da"),
                          trials_per_cell=2)

    @staticmethod
    def trial(coarse_err, fine_err):
        # Errors in symbols around a true offset of half a symbol.
        return TrialResult((0.5 + coarse_err) % 1 * TS, (0.5 + fine_err) % 1 * TS,
                           0.5 * TS)

    def test_known_mse_and_std_error_of_each_floor(self):
        trials = [self.trial(0.1, 0.0), self.trial(0.3, 0.2),
                  self.trial(-0.25, 0.05), self.trial(0.05, -0.05)]
        # Two trials of squared errors a, b: MSE (a + b) / 2, std error |a - b| / 2.
        expected = [("nda", "coarse_only", 0.05, 0.04),
                    ("nda", "coarse_plus_fine", 0.02, 0.02),
                    ("da", "coarse_only", 0.0325, 0.03),
                    ("da", "coarse_plus_fine", 0.0025, 0.0)]
        records = mse_records(self.PLAN, trials)
        assert [(r.snr_db, r.m, r.mode, r.floor, r.n_trials) for r in records] == [
            (4.0, 8, mode, floor, 2) for mode, floor, _, _ in expected]
        for rec, (_, _, mse, std_error) in zip(records, expected):
            assert rec.normalized_mse == pytest.approx(mse, rel=1e-9)
            assert rec.std_error == pytest.approx(std_error, rel=1e-9, abs=1e-15)

    def test_one_trial_has_zero_std_error(self):
        plan = replace(self.PLAN, modes=("nda",), trials_per_cell=1)
        coarse, fine = mse_records(plan, [self.trial(0.1, -0.2)])
        assert coarse.normalized_mse == pytest.approx(0.01, rel=1e-9)
        assert fine.normalized_mse == pytest.approx(0.04, rel=1e-9)
        assert coarse.std_error == fine.std_error == 0.0


class TestRunSweep:
    def test_only_trial_0_of_each_group_keeps_its_curves(self):
        plan = ExperimentPlan(snr_grid_db=(8.0,), m_grid=(4,), modes=("nda", "da"),
                              trials_per_cell=2, channel_model="single_path")
        trials = run_trials(plan)
        assert [t.objectives is None for t in trials] == [False, True, False, True]
        coarse, fine = trials[0].objectives
        assert len(coarse) == plan.coarse_cfg.grid_size(plan.frame_cfg)
        assert len(fine) == 2 * plan.fine_cfg.n_steps - 1

    def test_single_trial_cell_equals_trial_error(self):
        plan = ExperimentPlan(
            snr_grid_db=(math.inf,), m_grid=(8,), modes=("da",), trials_per_cell=1,
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

    def test_reproducible_across_worker_counts(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        # Two M values: trials run largest M first, not in the plan's order.
        plan = ExperimentPlan(
            snr_grid_db=(10.0,), m_grid=(8, 16), modes=("nda", "da"),
            trials_per_cell=4,
        )
        serial = records_to_csv(run_sweep(plan, n_workers=1))
        parallel = records_to_csv(run_sweep(plan, n_workers=2))
        assert serial == parallel
        # One group runs on several workers too; 3 split its 4 trials unevenly.
        one_group = replace(plan, modes=("nda",))
        serial = records_to_csv(run_sweep(one_group, n_workers=1))
        for workers in (2, 3):
            assert records_to_csv(run_sweep(one_group, n_workers=workers)) == serial

    def test_pooled_trials_equal_serial_ones_curves_included(self, monkeypatch):
        # Three threads switching often start on an empty pulse cache: what
        # they share is read-only, so the bytes cannot depend on the timing.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        plan = ExperimentPlan(snr_grid_db=(8.0,), m_grid=(8, 16), modes=("nda", "da"),
                              trials_per_cell=3)
        serial = run_trials(plan, 1)
        sampled_monocycle.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_trials(plan, 3)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial
        for gi in range(4):
            for a, b in zip(pooled[3 * gi].objectives, serial[3 * gi].objectives):
                assert np.array_equal(a, b)

    def test_trials_run_largest_record_first_and_return_in_plan_order(
            self, monkeypatch):
        # The record grows with M: groups run in descending M, each group's
        # trials together and in order, and come back in the plan's order.
        calls = []

        def spy(plan, snr_db, m, mode, trial_index, group_index, **kwargs):
            calls.append((m, trial_index))
            return run_trial(plan, snr_db, m, mode, trial_index, group_index, **kwargs)

        monkeypatch.setattr(harness, "run_trial", spy)
        plan = ExperimentPlan(snr_grid_db=(8.0,), m_grid=(8, 32, 16), modes=("nda",),
                              trials_per_cell=2, channel_model="single_path")
        trials = run_trials(plan, 1)
        assert calls == [(32, 0), (32, 1), (16, 0), (16, 1), (8, 0), (8, 1)]
        for gi, (snr, m, mode) in enumerate(plan.groups()):
            for t in range(2):
                assert trials[2 * gi + t] == run_trial(plan, snr, m, mode, t, gi)

    def test_never_more_workers_than_cpus(self, monkeypatch, trial_threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        plan = ExperimentPlan(snr_grid_db=(8.0,), m_grid=(8,), modes=("nda",),
                              trials_per_cell=500)
        assert sweep_workers(plan, 500) == 2
        few = replace(plan, trials_per_cell=4, channel_model="single_path")
        run_trials(few, 500)
        assert len(trial_threads) == 4
        assert len(set(trial_threads)) <= 2

    def test_pool_starts_at_most_one_worker_per_trial(self, monkeypatch, trial_threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        plan = ExperimentPlan(snr_grid_db=(10.0,), m_grid=(8,), modes=("nda",),
                              trials_per_cell=3, channel_model="single_path")
        assert sweep_workers(plan, 500) == 3
        pooled = records_to_csv(run_sweep(plan, n_workers=500))
        # Every trial ran on a pool thread.
        assert len(trial_threads) == 3
        assert threading.get_ident() not in trial_threads
        assert pooled == records_to_csv(run_sweep(plan, n_workers=1))

    def test_a_serial_sweep_loads_no_process_pool(self):
        # A serial run starts no pool, and a pooled one runs on threads:
        # neither loads multiprocessing or starts a child process.
        cfg = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
        code = (
            "import os, resource, sys\n"
            "from dataclasses import replace\n"
            "from uwbsync.cli import load_plan\n"
            "from uwbsync.harness import run_trials\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"plan = load_plan({str(cfg)!r})\n"
            "plan = replace(plan, snr_grid_db=(8.0,), m_grid=(8,), modes=('nda',),\n"
            "               trials_per_cell=2)\n"
            "run_trials(replace(plan, trials_per_cell=1), 1)\n"
            "print('multiprocessing' in sys.modules)\n"
            "run_trials(plan, 2)\n"
            "print('multiprocessing' in sys.modules,\n"
            "      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        assert run_python(code).splitlines() == ["False", "False 0"]

    @pytest.mark.parametrize("workers, cpus, draw_threads",
                             [(1, 1, 1), (1, 2, 2), (2, 3, 1), (2, 4, 2)])
    def test_noise_is_drawn_on_two_threads_only_where_cpus_are_idle(
            self, monkeypatch, draw_threads_seen, workers, cpus, draw_threads):
        plan = ExperimentPlan(snr_grid_db=(8.0,), m_grid=(8,), modes=("nda",),
                              trials_per_cell=2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert sweep_draw_threads(workers) == draw_threads
        csv = records_to_csv(run_sweep(plan, n_workers=workers))
        assert draw_threads_seen == [draw_threads] * 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert records_to_csv(run_sweep(plan)) == csv
        assert draw_threads_seen[2:] == [1] * 2

    def test_cpu_count_stands_in_for_the_affinity_mask(self, monkeypatch,
                                                       draw_threads_seen):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        plan = ExperimentPlan(snr_grid_db=(8.0,), m_grid=(8,), modes=("nda",),
                              trials_per_cell=1)
        for cpus in (1, 2):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            run_sweep(plan)
        assert draw_threads_seen == [1, 2]

    def test_pooled_workers_drawing_on_two_threads_write_the_same_csv(
            self, monkeypatch):
        plan = ExperimentPlan(snr_grid_db=(8.0,), m_grid=(8,), modes=("nda",),
                              trials_per_cell=4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = records_to_csv(run_sweep(plan))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        assert records_to_csv(run_sweep(plan, n_workers=2)) == serial

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

    @given(snr=st.floats(allow_nan=False) | st.sampled_from(
        [0.0, 4.0, 16.0, -100.0, math.inf, 10.0000001, 10.0000002]))
    def test_snr_label_reads_back_as_the_same_double(self, snr):
        label = snr_label(snr)
        assert float(label) == snr
        if float(f"{snr:.6g}") == snr:  # round grid values keep their old label
            assert label == f"{snr:.6g}"


def test_benchmark_tracer_fits_the_library():
    # perfbench/spans.py wraps stage functions by module and name, and reads
    # a few argument and field names; a rename would break `--trace 1`.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    plan = ExperimentPlan(snr_grid_db=(8.0,), m_grid=(8,), modes=("nda",),
                          trials_per_cell=1)
    originals = [getattr(importlib.import_module(mod), attr)
                 for mod, attr, _ in spans.STAGES]
    tracer = spans.Tracer()
    with tracer.installed():
        records = run_sweep(plan)
    assert [getattr(importlib.import_module(mod), attr)
            for mod, attr, _ in spans.STAGES] == originals
    assert records_to_csv(records) == records_to_csv(run_sweep(plan))
    # Every stage but the transmit train (no trial builds one) ran once.
    ran = {span[0] for span in tracer.spans}
    assert ran == {name for *_, name in spans.STAGES} - {"waveform.generate_tx"}
    flat, detail = spans.layer_metrics(tracer.spans, plan)
    assert detail["trials"] == 1
    assert flat["channel.aggregate_template.calls_per_trial"] == 1.0
    assert flat["sync.record_bytes"] > 0
    assert flat["sync.fine_sync.candidates"] == 2 * plan.fine_cfg.n_steps - 1
