"""Synchronizer floors: templates, correlations, coarse and fine search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwbsync import (
    CoarseConfig,
    ExperimentPlan,
    FineConfig,
    LinkParams,
    SampledWaveform,
    SymbolSequence,
    coarse_sync,
    fine_sync,
    propagate,
    single_path,
    training_pattern,
    two_floor_sync,
    wrapped_error,
)
from uwbsync.harness import build_trial_scene
from uwbsync.sync import coarse_extent, fine_extent

from oracles import (
    FRAME,
    difference_template,
    dirty_correlation,
    fine_objective_cube,
    fine_objective_loop,
)

FS = 50e9


@pytest.fixture(scope="module")
def cfg():
    return FRAME


def make_received(cfg, bits, delta_tau, snr_db=math.inf, noise_seed=0):
    return propagate(SymbolSequence.fixed(bits), single_path(),
                     LinkParams(delta_tau, snr_db, noise_seed), cfg)


def da_bits(n):
    return [training_pattern(k) for k in range(n)]


class TestTrainingPattern:
    def test_first_values(self):
        assert training_pattern(0) == 1
        assert training_pattern(1) == 0

    def test_even_indices_are_one(self):
        for j in range(40):
            assert training_pattern(2 * j) == 1
            assert training_pattern(2 * j + 1) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            training_pattern(-1)


class TestDifferenceTemplate:
    def test_zero_waveform_gives_zero_template(self, cfg):
        r = SampledWaveform(np.zeros(4 * cfg.n_symbol_samples), FS)
        t = difference_template(r, 1, 3e-9, cfg)
        assert np.all(t.samples == 0.0)
        assert len(t.samples) == cfg.n_symbol_samples

    def test_zero_shift_cancels(self, cfg):
        r = make_received(cfg, da_bits(4), 11e-9)
        t = difference_template(r, 1, 0.0, cfg, ppm_shift=0.0)
        assert np.all(t.samples == 0.0)

    def test_shift_and_subtract_oracle(self, cfg):
        # Independent oracle: build the two shifted windows straight from
        # the sample array and subtract.
        r = make_received(cfg, da_bits(5), 250e-9)
        k, tau = 2, 17e-9
        n_s = cfg.n_symbol_samples
        n_d = cfg.n_shift_samples
        i0 = int(round((k * cfg.symbol_duration + tau) * FS))
        expected = (r.samples[i0 + n_d:i0 + n_d + n_s]
                    - r.samples[i0 - n_d:i0 - n_d + n_s])
        t = difference_template(r, k, tau, cfg)
        assert np.array_equal(t.samples, expected)

    def test_needs_guard_samples(self, cfg):
        r = SampledWaveform(np.zeros(2 * cfg.n_symbol_samples), FS)
        with pytest.raises(ValueError):
            difference_template(r, 0, 0.0, cfg)


class TestDirtyCorrelation:
    def test_zero_waveform(self, cfg):
        r = SampledWaveform(np.zeros(5 * cfg.n_symbol_samples), FS)
        assert dirty_correlation(r, 1, 5e-9, cfg) == 0.0

    def test_scaling_is_quadratic(self, cfg):
        r = make_received(cfg, da_bits(5), 100e-9)
        x1 = dirty_correlation(r, 1, 40e-9, cfg)
        r3 = SampledWaveform(r.samples * 3.0, r.sample_rate)
        x2 = dirty_correlation(r3, 1, 40e-9, cfg)
        assert x2 == pytest.approx(9.0 * x1, rel=1e-12)

    def test_aligned_value_against_quadrature_oracle(self, cfg):
        # Noiseless, offset equal to the candidate: the correlation is
        # (d_k - d_{k+1}) times the symbol energy.  Cross-checked against
        # an independent Riemann-sum oracle built from raw slices.
        delta_tau = 140e-9
        bits = [0, 1, 1, 0, 1, 0]
        r = make_received(cfg, bits, delta_tau)
        n_s = cfg.n_symbol_samples
        n_d = cfg.n_shift_samples
        eps_r = cfg.n_frames_per_symbol * cfg.pulse_energy
        for k in range(1, 4):
            # oracle: independent index arithmetic on the raw array
            a = int(round((k * cfg.symbol_duration + delta_tau) * FS))
            b = a + n_s
            seg_next = r.samples[b:b + n_s]
            templ = r.samples[a + n_d:a + n_d + n_s] - r.samples[a - n_d:a - n_d + n_s]
            oracle = float(np.sum(seg_next * templ) / FS)
            got = dirty_correlation(r, k, delta_tau, cfg)
            assert got == pytest.approx(oracle, rel=1e-12)
            expected = (bits[k] - bits[k + 1]) * eps_r
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-9)


class TestCoarseSync:
    def test_noiseless_single_path_nda_hits_grid_cell(self, cfg):
        # Objective peaks at the true offset; on the frame grid the argmax
        # may sit anywhere inside the code-dependent flat around it.
        rng = np.random.default_rng(3)
        cc = CoarseConfig(n_symbols=32, mode="nda")
        for trial in range(4):
            delta_tau = float(rng.uniform(0, cfg.symbol_duration))
            bits = list(rng.integers(0, 2, size=32 + 12))
            r = make_received(cfg, bits, delta_tau, noise_seed=trial)
            tau1, objective = coarse_sync(r, cfg, cc)
            err = abs(wrapped_error(tau1, delta_tau, cfg.symbol_duration))
            assert err <= 34e-9 + cc.search_step / 2
            assert len(objective) == 32

    def test_fast_path_matches_literal_correlations(self, cfg):
        # The prefix-sum objective must agree with per-segment literal
        # dirty correlations.
        m = 6
        r = make_received(cfg, da_bits(m + 12), 87e-9, snr_db=14.0, noise_seed=5)
        cc = CoarseConfig(n_symbols=m, mode="nda")
        _, objective = coarse_sync(r, cfg, cc)
        origin = cfg.symbol_duration
        for gi in (0, 7, 19, 31):
            tau = gi * cc.search_step
            xs = [dirty_correlation(r, k, origin + tau, cfg) for k in range(m)]
            assert objective[gi] == pytest.approx(
                float(np.mean(np.square(xs))), rel=1e-9)

    def test_da_objective_peaks_near_true_offset(self, cfg):
        # Noiseless over CM1 seeds: objective at the true cell beats every
        # candidate more than one frame away.
        from uwbsync import generate_cm1
        cc = CoarseConfig(n_symbols=8, mode="da")
        t_s = cfg.symbol_duration
        hits = 0
        n_seeds = 50
        for seed in range(n_seeds):
            ch = generate_cm1(3000 + seed)
            rng = np.random.default_rng(900 + seed)
            delta_tau = float(rng.uniform(0, t_s))
            r = propagate(SymbolSequence.fixed(da_bits(8 + 12)), ch,
                          LinkParams(delta_tau, math.inf, 0), cfg)
            _, objective = coarse_sync(r, cfg, cc)
            taus = np.arange(len(objective)) * cc.search_step
            dist = np.abs([wrapped_error(t, delta_tau, t_s) for t in taus])
            near_best = objective[dist <= cfg.frame_duration].max()
            far_best = objective[dist > cfg.frame_duration].max()
            hits += near_best > far_best
        assert hits == n_seeds

    def test_noise_only_argmax_spreads_over_grid(self, cfg):
        # Null case: no signal at all; the argmax must not favor any cell.
        cc = CoarseConfig(n_symbols=4, mode="nda")
        n_grid = 32
        need = (4 + 3) * cfg.n_symbol_samples
        counts = np.zeros(n_grid, int)
        flatness = []
        for seed in range(160):
            rng = np.random.default_rng(10_000 + seed)
            r = SampledWaveform(rng.normal(0.0, 1.0, size=need), FS)
            tau1, objective = coarse_sync(r, cfg, cc)
            counts[int(round(tau1 / cc.search_step))] += 1
            flatness.append(objective.max() / np.median(objective))
        from scipy import stats
        expected = counts.sum() / n_grid
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(0.999, df=n_grid - 1)
        assert float(np.median(flatness)) < 5.0

    def test_rejects_short_record(self, cfg):
        r = SampledWaveform(np.zeros(3 * cfg.n_symbol_samples), FS)
        with pytest.raises(ValueError):
            coarse_sync(r, cfg, CoarseConfig(n_symbols=8))

    def test_origin_before_ppm_shift_is_not_a_length_error(self, cfg):
        r = SampledWaveform(np.zeros(20 * cfg.n_symbol_samples), FS)
        with pytest.raises(ValueError, match="closer to the record start"):
            coarse_sync(r, cfg, CoarseConfig(n_symbols=8, segment_origin=0.0))

    def test_rejects_bad_grid(self, cfg):
        with pytest.raises(Exception):
            CoarseConfig(search_step=33e-9).grid_size(cfg)


class TestFineSync:
    def test_zero_residual_gives_n_opt_zero(self, cfg):
        delta_tau = 200e-9
        r = make_received(cfg, da_bits(14), delta_tau)
        tau2, n_opt, z = fine_sync(r, delta_tau, cfg, FineConfig())
        assert n_opt == 0
        assert tau2 == delta_tau

    def test_known_residual_recovered_exactly(self, cfg):
        # Start the scan two steps early: the peak must land at +2.
        fc = FineConfig()
        delta_tau = 100e-9
        tau1 = delta_tau - 2 * fc.fine_step
        r = make_received(cfg, da_bits(14), delta_tau)
        tau2, n_opt, z = fine_sync(r, tau1, cfg, fc)
        assert n_opt == 2
        assert tau2 == pytest.approx(delta_tau, rel=1e-12)

    def test_brute_force_peak_oracle(self, cfg):
        # Independent check of the reported peak against a brute-force
        # scan of the same statistic recomputed trial-by-trial from raw
        # window sums.
        fc = FineConfig(t_corr=4e-9, fine_step=0.25e-9, n_symbols_avg=4)
        delta_tau = 63.5e-9
        r = make_received(cfg, da_bits(12), delta_tau, snr_db=20.0, noise_seed=3)
        tau1 = 63e-9
        tau2, n_opt, z = fine_sync(r, tau1, cfg, fc)
        oracle = fine_objective_loop(r, tau1, cfg, fc)
        assert np.allclose(z, oracle, rtol=1e-9)
        assert n_opt == int(np.argmax(oracle)) - (fc.n_steps - 1)

    def test_small_config_matches_window_sum_loop(self, cfg):
        # At 0 dB every window sum is far from zero, so the prefix-sum
        # differences agree with the direct sums to 1e-12 relative.
        fc = FineConfig(t_corr=2e-9, fine_step=0.5e-9, n_symbols_avg=2)
        r = make_received(cfg, da_bits(12), 63.5e-9, snr_db=0.0, noise_seed=3)
        _, _, z = fine_sync(r, 63e-9, cfg, fc)
        oracle = fine_objective_loop(r, 63e-9, cfg, fc)
        np.testing.assert_allclose(z, oracle, rtol=1e-12, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(code=st.lists(st.integers(0, 33), min_size=32, max_size=32),
           k_avg=st.integers(1, 8), t_corr=st.floats(0.0, 40e-9),
           step=st.sampled_from([0.02e-9, 0.25e-9, 0.3e-9]),
           cell=st.integers(0, 31), snr_db=st.sampled_from([math.inf, 0.0, 12.0]),
           delta_tau=st.floats(0.0, 1119e-9), noise_seed=st.integers(0, 2**16))
    def test_matches_the_cube_gather_bit_for_bit(self, cfg, code, k_avg, t_corr,
                                                 step, cell, snr_db, delta_tau,
                                                 noise_seed):
        # Steps of 1, 12.5 and 15 samples; 12.5 rounds half to even.
        cfg = cfg.with_th_code(code)
        fc = FineConfig(t_corr=t_corr, fine_step=step, n_symbols_avg=k_avg)
        r = make_received(cfg, da_bits(14), delta_tau, snr_db, noise_seed)
        tau1 = cell * 35e-9
        _, n_opt, z = fine_sync(r, tau1, cfg, fc)
        expected = fine_objective_cube(r, tau1, cfg, fc)
        assert z.tobytes() == expected.tobytes()
        peaks = np.flatnonzero(expected == expected.max()) - (fc.n_steps - 1)
        assert n_opt == min(peaks, key=lambda n: (abs(n), n))

    def test_zero_waveform_ties_to_zero_step(self, cfg):
        r = SampledWaveform(np.zeros(16 * cfg.n_symbol_samples), FS)
        for fc in (FineConfig(t_corr=4e-9), FineConfig()):
            tau2, n_opt, z = fine_sync(r, 30e-9, cfg, fc)
            assert len(z) == 2 * fc.n_steps - 1
            assert np.all(z == 0.0)
            assert n_opt == 0
            assert tau2 == 30e-9

    def test_symmetric_tie_picks_negative_step(self, cfg):
        # Two unit lagged products, one just inside the windows of steps
        # -1..-8 only and one just inside those of steps +1..+8 only: the
        # objective ties at +-1, and the tie goes to the negative step.
        fc = FineConfig(t_corr=4e-9)
        tau1 = 30e-9
        lag = 2 * cfg.n_symbol_samples
        w = cfg.n_pulse_samples + cfg.n_shift_samples
        start = (int(round((tau1 + cfg.symbol_duration) * FS))
                 + int(cfg.frame_start_samples()[0]))
        x = np.zeros(16 * cfg.n_symbol_samples)
        for i in (start - 12, start + 12 + w - 1):  # steps +-1 move 12 samples
            x[i] = x[i + lag] = 1.0
        _, n_opt, z = fine_sync(SampledWaveform(x, FS), tau1, cfg, fc)
        mid = fc.n_steps - 1
        assert z[mid] == 0.0
        assert z[mid - 1] == z[mid + 1] == z.max() > 0.0
        assert n_opt == -1

    def test_zero_scan_width_is_identity(self, cfg):
        r = make_received(cfg, da_bits(14), 40e-9)
        tau2, n_opt, z = fine_sync(r, 35e-9, cfg, FineConfig(t_corr=0.0))
        assert n_opt == 0 and tau2 == 35e-9 and len(z) == 1


# A small scan that still reads several symbols past the coarse window.
SHORT_FINE = FineConfig(t_corr=4e-9, n_symbols_avg=2)


def coarse_min_samples(cfg, cc):
    """Shortest record coarse_sync accepts: it ends at the last sample read,
    the end of the last candidate's (M+1)-th segment."""
    n_s = cfg.n_symbol_samples
    step = n_s // cc.grid_size(cfg)
    origin = int(round(cc.origin(cfg) * FS))
    return origin + (cc.n_symbols + 1) * n_s + (cc.grid_size(cfg) - 1) * step


def fine_min_samples(cfg, fc, tau1):
    """Shortest record fine_sync accepts: its last window, two symbols on."""
    n_s = cfg.n_symbol_samples
    base = int(round((tau1 + cfg.symbol_duration) * FS))
    last_off = int(np.round((fc.n_steps - 1) * fc.fine_step * FS))
    return (base + last_off + (fc.n_symbols_avg - 1) * n_s
            + int(cfg.frame_start_samples().max())
            + cfg.n_pulse_samples + cfg.n_shift_samples + 2 * n_s)


class TestReadExtent:
    """Each floor reads no sample past its own shortest accepted record."""

    @pytest.fixture(scope="class")
    def record(self, cfg):
        return make_received(cfg, da_bits(10), 417e-9, snr_db=6.0, noise_seed=8)

    def test_one_sample_short_raises(self, cfg, record):
        cc = CoarseConfig(n_symbols=2)
        n = coarse_min_samples(cfg, cc)
        coarse_sync(SampledWaveform(record.samples[:n], FS), cfg, cc)
        with pytest.raises(ValueError, match="too short"):
            coarse_sync(SampledWaveform(record.samples[:n - 1], FS), cfg, cc)
        tau1 = 31 * cc.search_step
        n = fine_min_samples(cfg, SHORT_FINE, tau1)
        fine_sync(SampledWaveform(record.samples[:n], FS), tau1, cfg, SHORT_FINE)
        with pytest.raises(ValueError, match="beyond the record"):
            fine_sync(SampledWaveform(record.samples[:n - 1], FS), tau1, cfg,
                      SHORT_FINE)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 3), cell=st.integers(0, 31),
           tail=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=40))
    def test_samples_past_the_last_read_change_nothing(self, cfg, record, m,
                                                       cell, tail):
        # The invariant that lets both floors stop their prefix sums early.
        def cut(n, extra=()):
            return SampledWaveform(np.concatenate((record.samples[:n], extra)), FS)

        cc = CoarseConfig(n_symbols=m, mode="nda" if m % 2 else "da")
        n = coarse_min_samples(cfg, cc)
        tau1, obj = coarse_sync(cut(n), cfg, cc)
        tau1_x, obj_x = coarse_sync(cut(n, tail), cfg, cc)
        assert tau1_x == tau1 and obj_x.tobytes() == obj.tobytes()

        tau1 = cell * cc.search_step
        n = fine_min_samples(cfg, SHORT_FINE, tau1)
        tau2, n_opt, z = fine_sync(cut(n), tau1, cfg, SHORT_FINE)
        tau2_x, n_opt_x, z_x = fine_sync(cut(n, tail), tau1, cfg, SHORT_FINE)
        assert (tau2_x, n_opt_x) == (tau2, n_opt) and z_x.tobytes() == z.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 40), cell=st.integers(0, 31),
           origin=st.integers(50, 4 * 56000), t_corr=st.floats(0.0, 20e-9),
           step=st.sampled_from((0.1e-9, 0.25e-9, 1e-9)), k_avg=st.integers(1, 12))
    def test_extents_equal_the_oracles(self, cfg, m, cell, origin, t_corr, step,
                                       k_avg):
        cc = CoarseConfig(n_symbols=m, segment_origin=origin / FS)
        assert coarse_extent(cfg, cc) == coarse_min_samples(cfg, cc)
        fc = FineConfig(t_corr=t_corr, fine_step=step, n_symbols_avg=k_avg)
        tau1 = cell * cc.search_step
        assert fine_extent(cfg, fc, tau1)[1] == fine_min_samples(cfg, fc, tau1)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 33), k_avg=st.integers(1, 12),
           t_corr=st.floats(0.0, 1.0), origin=st.integers(50, 4 * 56000),
           model=st.sampled_from(("cm1", "single_path")),
           mode=st.sampled_from(("nda", "da")))
    def test_trial_records_hold_the_fewest_symbols_both_floors_read(
            self, m, k_avg, t_corr, origin, model, mode):
        # t_corr runs over [0, T_s] and the origin from the PPM shift to
        # four symbols; the fine floor reads furthest at the last coarse cell.
        cc = CoarseConfig(n_symbols=m, mode=mode, segment_origin=origin / FS)
        fc = FineConfig(t_corr=t_corr * FRAME.symbol_duration, n_symbols_avg=k_avg)
        plan = ExperimentPlan(coarse_cfg=cc, fine_cfg=fc, channel_model=model)
        scene = build_trial_scene(plan, math.inf, m, mode, 0, 0)
        tau1 = (cc.grid_size(scene.cfg) - 1) * cc.search_step
        extent = max(coarse_min_samples(scene.cfg, cc),
                     fine_min_samples(scene.cfg, fc, tau1))
        n_s = scene.cfg.n_symbol_samples
        assert (len(scene.bits) - 1) * n_s < extent <= len(scene.bits) * n_s
        coarse_sync(scene.received, scene.cfg, cc)
        fine_sync(scene.received, tau1, scene.cfg, fc)


class TestTwoFloorSync:
    def test_fine_floor_repairs_coarse_grid(self, cfg):
        # Frame-level first floor, 0.1 ns second floor: the final estimate
        # lands within one fine step even though the coarse floor cannot.
        delta_tau = 400.02e-9
        r = make_received(cfg, da_bits(16 + 12), delta_tau)
        cc = CoarseConfig(n_symbols=16, mode="da", search_step=cfg.frame_duration)
        fc = FineConfig(fine_step=0.1e-9)
        est = two_floor_sync(r, cfg, cc, fc)
        assert abs(est.tau2 - delta_tau) <= 0.1e-9 + 1e-15
        # the coarse estimate itself stays on the frame grid
        assert est.tau1 / cc.search_step == pytest.approx(
            round(est.tau1 / cc.search_step), abs=1e-9)

    def test_scale_invariance_bit_exact(self, cfg):
        bits = list(np.random.default_rng(8).integers(0, 2, 20))
        r = make_received(cfg, bits, 333e-9, snr_db=10.0, noise_seed=9)
        cc = CoarseConfig(n_symbols=8, mode="nda")
        fc = FineConfig()
        ref = two_floor_sync(r, cfg, cc, fc)
        for c in (1e-3, 1e3):
            rc = SampledWaveform(r.samples * c, r.sample_rate)
            est = two_floor_sync(rc, cfg, cc, fc)
            assert est.tau1 == ref.tau1
            assert est.n_opt == ref.n_opt
            assert est.tau2 == ref.tau2

    def test_outputs_in_range(self, cfg):
        rng = np.random.default_rng(4)
        for trial in range(3):
            delta_tau = float(rng.uniform(0, cfg.symbol_duration))
            bits = list(rng.integers(0, 2, 20))
            r = make_received(cfg, bits, delta_tau, snr_db=8.0, noise_seed=trial)
            est = two_floor_sync(r, cfg, CoarseConfig(n_symbols=8), FineConfig())
            assert 0.0 <= est.tau1 < cfg.symbol_duration
            assert 0.0 <= est.tau2 < cfg.symbol_duration
            assert abs(est.n_opt) * 0.25e-9 <= 560e-9

    def test_record_start_symbol_does_not_matter(self, cfg):
        # Offsetting the record by a whole symbol leaves both floors'
        # estimates unchanged (everything is modulo T_s).
        delta_tau = 77.7e-9
        bits = da_bits(16 + 13)
        r = make_received(cfg, bits, delta_tau)
        r_shifted = SampledWaveform(r.samples[cfg.n_symbol_samples:], FS)
        cc = CoarseConfig(n_symbols=16, mode="da")
        fc = FineConfig()
        a = two_floor_sync(r, cfg, cc, fc)
        b = two_floor_sync(r_shifted, cfg, cc, fc)
        assert a.tau1 == b.tau1
        assert a.tau2 == b.tau2


class TestBuffers:
    def test_floors_write_every_buffer_entry_they_read(self, cfg, monkeypatch):
        # np.empty may hand back used memory, so NaN-filled buffers must
        # change no bit.  With the all-zero code and a fine scan half a step
        # wider than a symbol, the first window at tau1 = 0 starts at sample
        # 0 and reads the prefix sum's leading zero.
        cfg = cfg.with_th_code([0] * cfg.n_frames_per_symbol)
        bits = list(np.random.default_rng(5).integers(0, 2, 20))
        r = make_received(cfg, bits, 500e-9, snr_db=10.0, noise_seed=3)
        step = cfg.symbol_duration / 1120
        fc = FineConfig(t_corr=1120.5 * step, fine_step=step, n_symbols_avg=2)

        def floors():
            _, coarse = coarse_sync(r, cfg, CoarseConfig(n_symbols=8))
            _, _, fine = fine_sync(r, 0.0, cfg, fc)
            return coarse.tobytes(), fine.tobytes()
        expected = floors()
        empty = np.empty

        def nan_filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(np.nan)
            return out
        monkeypatch.setattr(np, "empty", nan_filled)
        assert floors() == expected


class TestModeContrast:
    def test_da_median_error_not_worse_than_nda(self, cfg):
        # Training symbols help: at a mid SNR and short observation, the
        # DA coarse floor's median squared error stays at or below NDA's.
        from uwbsync import ExperimentPlan, run_trial
        plan = ExperimentPlan()
        t_s = cfg.symbol_duration
        sq = {"nda": [], "da": []}
        for mode, gi in (("nda", 0), ("da", 1)):
            for t in range(200):
                res = run_trial(plan, 12.0, 8, mode, t, group_index=gi)
                e = wrapped_error(res.tau_hat_coarse, res.delta_tau_true, t_s)
                sq[mode].append((e / t_s) ** 2)
        assert np.median(sq["da"]) <= np.median(sq["nda"])
