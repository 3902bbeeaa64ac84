"""Synchronizer floors: templates, correlations, coarse and fine search."""

import math
import os
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwbsync import (
    CoarseConfig,
    ExperimentPlan,
    FineConfig,
    FrameConfig,
    SampledWaveform,
    coarse_sync,
    fine_sync,
    propagate,
    single_path,
    training_pattern,
    wrapped_error,
)
from uwbsync import sync
from uwbsync.harness import build_trial_scene, run_trials
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
    return propagate(bits, single_path(),
                     cfg, timing_offset=delta_tau, snr_db=snr_db, noise_seed=noise_seed)


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
        r = SampledWaveform(np.zeros(4 * cfg.n_symbol_samples))
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
        r = SampledWaveform(np.zeros(2 * cfg.n_symbol_samples))
        with pytest.raises(ValueError):
            difference_template(r, 0, 0.0, cfg)


class TestDirtyCorrelation:
    def test_zero_waveform(self, cfg):
        r = SampledWaveform(np.zeros(5 * cfg.n_symbol_samples))
        assert dirty_correlation(r, 1, 5e-9, cfg) == 0.0

    def test_scaling_is_quadratic(self, cfg):
        r = make_received(cfg, da_bits(5), 100e-9)
        x1 = dirty_correlation(r, 1, 40e-9, cfg)
        r3 = SampledWaveform(r.samples * 3.0)
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
        eps_r = cfg.n_frames_per_symbol  # unit-energy pulses
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
        cc = CoarseConfig()
        for trial in range(4):
            delta_tau = float(rng.uniform(0, cfg.symbol_duration))
            bits = list(rng.integers(0, 2, size=32 + 12))
            r = make_received(cfg, bits, delta_tau, noise_seed=trial)
            tau1, objective = coarse_sync(r, cfg, cc, 32, "nda")
            err = abs(wrapped_error(tau1, delta_tau, cfg.symbol_duration))
            assert err <= 34e-9 + cc.search_step / 2
            assert len(objective) == 32

    def test_fast_path_matches_literal_correlations(self, cfg):
        # The block-sum objective must agree with per-segment literal
        # dirty correlations.
        m = 6
        r = make_received(cfg, da_bits(m + 12), 87e-9, snr_db=14.0, noise_seed=5)
        cc = CoarseConfig()
        _, objective = coarse_sync(r, cfg, cc, m, "nda")
        origin = cfg.symbol_duration
        for gi in (0, 7, 19, 31):
            tau = gi * cc.search_step
            xs = [dirty_correlation(r, k, origin + tau, cfg) for k in range(m)]
            assert objective[gi] == pytest.approx(
                float(np.mean(np.square(xs))), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(code=st.lists(st.integers(0, 33), min_size=32, max_size=32),
           m=st.integers(1, 4), mode=st.sampled_from(("nda", "da")),
           cell=st.integers(0, 31), snr_db=st.sampled_from([0.0, 8.0, 20.0]),
           delta_tau=st.floats(0.0, 1119e-9), noise_seed=st.integers(0, 2**16))
    def test_objective_matches_the_literal_oracle(self, cfg, code, m, mode, cell,
                                                  snr_db, delta_tau, noise_seed):
        # Segment by segment against the literal dirty correlations.  The
        # two sum the same products in different orders, so they agree to
        # 1e-10 of the cell's mean squared correlation (the NDA objective,
        # which bounds the DA one from above); the worst seen was 4.4e-13.
        # Correlation k spans symbols k+1 and k+2, whose bits give its sign.
        cfg = replace(cfg, th_code=code)
        r = make_received(cfg, da_bits(m + 3), delta_tau, snr_db, noise_seed)
        cc = CoarseConfig()
        _, objective = coarse_sync(r, cfg, cc, m, mode)
        tau = cfg.symbol_duration + cell * cc.search_step
        xs = np.array([dirty_correlation(r, k, tau, cfg) for k in range(m)])
        scale = float(np.mean(xs ** 2))
        signs = [training_pattern(k + 1) - training_pattern(k + 2) for k in range(m)]
        expected = scale if mode == "nda" else float(np.mean(signs * xs)) ** 2
        assert abs(objective[cell] - expected) <= 1e-10 * scale

    def test_exact_tie_goes_to_the_smallest_tau(self, cfg):
        # Noiseless single path: candidates 9-12 read the same pulse
        # products, so their objectives tie exactly (correctly rounded
        # sums agree), and the tie goes to the smallest tau, 315 ns.
        plan = ExperimentPlan(base_seed=1, channel_model="single_path",
                              snr_grid_db=(math.inf,), m_grid=(16,))
        scene = build_trial_scene(plan, math.inf, 16, "nda", 43, 0)
        cc = plan.coarse_cfg
        tau1, objective = coarse_sync(scene.received, scene.cfg, cc, 16, "nda")
        assert tau1 == 315e-9
        assert len({objective[j].tobytes() for j in range(9, 13)}) == 1
        assert objective[9] > max(objective[8], objective[13])
        exact = {
            math.fsum(dirty_correlation(scene.received, k,
                                        scene.cfg.symbol_duration + j * cc.search_step,
                                        scene.cfg, exact=True) ** 2
                      for k in range(16))
            for j in range(9, 13)
        }
        assert len(exact) == 1

    def test_da_objective_peaks_near_true_offset(self, cfg):
        # Noiseless over CM1 seeds: objective at the true cell beats every
        # candidate more than one frame away.
        from uwbsync import generate_cm1
        cc = CoarseConfig()
        t_s = cfg.symbol_duration
        hits = 0
        n_seeds = 50
        for seed in range(n_seeds):
            ch = generate_cm1(3000 + seed)
            rng = np.random.default_rng(900 + seed)
            delta_tau = float(rng.uniform(0, t_s))
            r = propagate(da_bits(8 + 12), ch,
                          cfg, timing_offset=delta_tau)
            _, objective = coarse_sync(r, cfg, cc, 8, "da")
            taus = np.arange(len(objective)) * cc.search_step
            dist = np.abs([wrapped_error(t, delta_tau, t_s) for t in taus])
            near_best = objective[dist <= cfg.frame_duration].max()
            far_best = objective[dist > cfg.frame_duration].max()
            hits += near_best > far_best
        assert hits == n_seeds

    def test_da_signs_follow_the_training_pattern(self, cfg, monkeypatch):
        # A non-alternating training sequence, transmitted as is: correlation
        # k spans symbols k+1 and k+2, so its sign must come from their bits.
        # The alternating signs, or signs one symbol early, miss here.
        pattern = (1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1)
        monkeypatch.setattr(sync, "training_pattern", lambda k: pattern[k])
        cc = CoarseConfig()
        m = 8
        bits = list(pattern[:-(-coarse_extent(cfg, cc, m) // cfg.n_symbol_samples)])
        rng = np.random.default_rng(29)
        for _ in range(8):
            delta_tau = float(rng.uniform(0, cfg.symbol_duration))
            tau1, _ = coarse_sync(make_received(cfg, bits, delta_tau), cfg, cc, m, "da")
            err = abs(wrapped_error(tau1, delta_tau, cfg.symbol_duration))
            assert err <= cc.search_step

    def test_noise_only_argmax_spreads_over_grid(self, cfg):
        # Null case: no signal at all; the argmax must not favor any cell.
        cc = CoarseConfig()
        n_grid = 32
        need = (4 + 3) * cfg.n_symbol_samples
        counts = np.zeros(n_grid, int)
        flatness = []
        for seed in range(160):
            rng = np.random.default_rng(10_000 + seed)
            r = SampledWaveform(rng.normal(0.0, 1.0, size=need))
            tau1, objective = coarse_sync(r, cfg, cc, 4, "nda")
            counts[int(round(tau1 / cc.search_step))] += 1
            flatness.append(objective.max() / np.median(objective))
        from scipy import stats
        expected = counts.sum() / n_grid
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(0.999, df=n_grid - 1)
        assert float(np.median(flatness)) < 5.0

    def test_rejects_short_record(self, cfg):
        r = SampledWaveform(np.zeros(3 * cfg.n_symbol_samples))
        with pytest.raises(ValueError):
            coarse_sync(r, cfg, CoarseConfig(), 8, "nda")

    def test_rejects_bad_grid(self, cfg):
        with pytest.raises(Exception):
            CoarseConfig(search_step=33e-9).grid_size(cfg)

    def test_refuses_m_below_one_and_an_unknown_mode(self, cfg):
        r = make_received(cfg, da_bits(10), 417e-9)
        coarse_sync(r, cfg, CoarseConfig(), 1, "da")
        with pytest.raises(ValueError, match="M = 0 must be >= 1"):
            coarse_sync(r, cfg, CoarseConfig(), 0, "nda")
        with pytest.raises(ValueError, match="mode 'xyz'"):
            coarse_sync(r, cfg, CoarseConfig(), 1, "xyz")

    def test_config_holds_only_the_search_grid(self):
        # M and mode are a cell's arguments to the floor, not config fields.
        assert [f.name for f in fields(CoarseConfig)] == ["search_step"]
        with pytest.raises(TypeError):
            CoarseConfig(n_symbols=4)


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

    def test_tau2_stays_below_one_symbol(self):
        # The peak lies 6 steps back from tau1 = 3 ns, at offset 0, where
        # tau1 + n_opt * fine_step comes out at -4.1e-25 s: % alone wraps
        # that to T_s.
        cfg = FrameConfig(n_frames_per_symbol=1, frame_duration=4.4e-9,
                          sample_rate=5e9, th_code=(0,))
        fc = FineConfig(fine_step=0.5e-9, t_corr=3.5e-9)
        tau1 = 15 * 0.2e-9
        _, hi = fine_extent(cfg, fc, tau1)
        r = make_received(cfg, da_bits(math.ceil(hi / cfg.n_symbol_samples)), 0.0)
        tau2, n_opt, _ = fine_sync(r, tau1, cfg, fc)
        assert n_opt == -6
        assert tau2 == 0.0

    def test_brute_force_peak_oracle(self, cfg):
        # Independent check of the reported peak against a brute-force
        # scan of the same statistic recomputed trial-by-trial from raw
        # window sums.
        fc = FineConfig(t_corr=4e-9, fine_step=0.25e-9, n_symbols_avg=4)
        delta_tau = 63.5e-9
        r = make_received(cfg, da_bits(12), delta_tau, snr_db=20.0, noise_seed=3)
        tau1 = 63e-9
        oracle = fine_objective_loop(r, tau1, cfg, fc)
        tau2, n_opt, z = fine_sync(r, tau1, cfg, fc)
        assert np.allclose(z, oracle, rtol=1e-9)
        assert n_opt == int(np.argmax(oracle)) - (fc.n_steps - 1)

    def test_small_config_matches_window_sum_loop(self, cfg):
        # At 0 dB every window sum is far from zero, so the prefix-sum
        # differences agree with the direct sums to 1e-12 relative.
        fc = FineConfig(t_corr=2e-9, fine_step=0.5e-9, n_symbols_avg=2)
        r = make_received(cfg, da_bits(12), 63.5e-9, snr_db=0.0, noise_seed=3)
        oracle = fine_objective_loop(r, 63e-9, cfg, fc)
        _, _, z = fine_sync(r, 63e-9, cfg, fc)
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
        cfg = replace(cfg, th_code=code)
        fc = FineConfig(t_corr=t_corr, fine_step=step, n_symbols_avg=k_avg)
        r = make_received(cfg, da_bits(14), delta_tau, snr_db, noise_seed)
        tau1 = cell * 35e-9
        expected = fine_objective_cube(r, tau1, cfg, fc)
        _, n_opt, z = fine_sync(r, tau1, cfg, fc)
        assert z.tobytes() == expected.tobytes()
        peaks = np.flatnonzero(expected == expected.max()) - (fc.n_steps - 1)
        assert n_opt == min(peaks, key=lambda n: (abs(n), n))

    def test_zero_waveform_ties_to_zero_step(self, cfg):
        for fc in (FineConfig(t_corr=4e-9), FineConfig()):
            r = SampledWaveform(np.zeros(16 * cfg.n_symbol_samples))
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
        _, n_opt, z = fine_sync(SampledWaveform(x), tau1, cfg, fc)
        mid = fc.n_steps - 1
        assert z[mid] == 0.0
        assert z[mid - 1] == z[mid + 1] == z.max() > 0.0
        assert n_opt == -1

    def test_differing_bits_two_symbols_on_blind_the_true_step(self, cfg):
        # The lag product pairs each symbol with the one two symbols on.
        # From symbol 1 on the bits have period 0,0,1,1, so every averaged
        # pair (symbols j and j+2, j = 1..8) differs, its pulses miss each
        # other by the PPM shift (wider than the pulse) and the true step
        # scores exactly 0.  Symbol 0 equals symbol 2, so steps reaching
        # back into it score more, and the scan leaves an exact coarse
        # pick.  Random NDA bits do this in 1 trial in 2^8.
        fc = FineConfig()
        delta_tau = 12 * 35e-9
        bits = [1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
        tau2, n_opt, z = fine_sync(make_received(cfg, bits, delta_tau), delta_tau,
                                   cfg, fc)
        assert z[fc.n_steps - 1] == 0.0 < z.max()
        assert n_opt != 0 and tau2 != delta_tau

    def test_zero_scan_width_is_identity(self, cfg):
        r = make_received(cfg, da_bits(14), 40e-9)
        tau2, n_opt, z = fine_sync(r, 35e-9, cfg, FineConfig(t_corr=0.0))
        assert n_opt == 0 and tau2 == 35e-9 and len(z) == 1

    def test_estimate_before_zero_wraps_into_the_symbol(self, cfg):
        # The offset sits 1 ns below T_s, so a scan from tau1 = 0 peaks
        # four steps back and reports the step modulo T_s.
        fc = FineConfig()
        r = make_received(cfg, da_bits(14), cfg.symbol_duration - 1e-9)
        tau2, n_opt, _ = fine_sync(r, 0.0, cfg, fc)
        assert n_opt == -4
        assert tau2 == (n_opt * fc.fine_step) % cfg.symbol_duration
        assert 0.0 <= tau2 < cfg.symbol_duration

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), step=st.floats(0.02e-9, 40e-9),
           cell=st.integers(0, 31), k_avg=st.integers(1, 2),
           seed=st.integers(0, 2**16))
    def test_estimate_stays_inside_the_scan_interval(self, cfg, data, step, cell,
                                                     k_avg, seed):
        # t_corr is drawn anywhere up to the one-symbol guard, or within a
        # few ulps of a whole number of steps, where the scan size's ceil
        # comes closest to admitting one step too many.
        guard = 1.12e-6
        near_multiple = st.builds(
            lambda n, ulps: float(np.nextafter(n * step, ulps * math.inf) if ulps
                                  else n * step),
            st.integers(1, max(1, int(guard / step) - 1)), st.sampled_from([-1, 0, 1]))
        t_corr = data.draw(st.floats(0.0, guard) | near_multiple)
        fc = FineConfig(t_corr=t_corr, fine_step=step, n_symbols_avg=k_avg)
        tau1 = cell * 35e-9
        x = np.random.default_rng(seed).standard_normal(fine_extent(cfg, fc, tau1)[1])
        tau2, n_opt, z = fine_sync(SampledWaveform(x), tau1, cfg, fc)
        assert len(z) == 2 * fc.n_steps - 1
        assert (fc.n_steps - 1) * step <= t_corr  # the widest step any record picks
        assert abs(n_opt * step) <= t_corr
        assert tau2 == (tau1 + n_opt * step) % cfg.symbol_duration


# A small scan that still reads several symbols past the coarse window.
SHORT_FINE = FineConfig(t_corr=4e-9, n_symbols_avg=2)


def coarse_min_samples(cfg, cc, m):
    """Shortest record coarse_sync accepts at M = m: it ends at the last
    sample read, the end of the last candidate's (M+1)-th segment, the
    first starting one symbol in."""
    n_s = cfg.n_symbol_samples
    step = n_s // cc.grid_size(cfg)
    return n_s + (m + 1) * n_s + (cc.grid_size(cfg) - 1) * step


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
        cc = CoarseConfig()
        n = coarse_min_samples(cfg, cc, 2)
        coarse_sync(SampledWaveform(record.samples[:n]), cfg, cc, 2, "nda")
        with pytest.raises(ValueError, match="too short"):
            coarse_sync(SampledWaveform(record.samples[:n - 1]), cfg, cc, 2,
                        "nda")
        tau1 = 31 * cc.search_step
        n = fine_min_samples(cfg, SHORT_FINE, tau1)
        fine_sync(SampledWaveform(record.samples[:n].copy()), tau1, cfg,
                  SHORT_FINE)
        with pytest.raises(ValueError, match="beyond the record"):
            fine_sync(SampledWaveform(record.samples[:n - 1]), tau1, cfg,
                      SHORT_FINE)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 3), cell=st.integers(0, 31),
           tail=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=40))
    def test_samples_past_the_last_read_change_nothing(self, cfg, record, m,
                                                       cell, tail):
        # The invariant that lets the coarse floor stop its last block of
        # sums, and the fine floor its prefix sum, at the last sample read.
        def cut(n, extra=()):
            return SampledWaveform(np.concatenate((record.samples[:n], extra)))

        cc = CoarseConfig()
        mode = "nda" if m % 2 else "da"
        n = coarse_min_samples(cfg, cc, m)
        tau1, obj = coarse_sync(cut(n), cfg, cc, m, mode)
        tau1_x, obj_x = coarse_sync(cut(n, tail), cfg, cc, m, mode)
        assert tau1_x == tau1 and obj_x.tobytes() == obj.tobytes()

        tau1 = cell * cc.search_step
        n = fine_min_samples(cfg, SHORT_FINE, tau1)
        tau2, n_opt, z = fine_sync(cut(n), tau1, cfg, SHORT_FINE)
        tau2_x, n_opt_x, z_x = fine_sync(cut(n, tail), tau1, cfg, SHORT_FINE)
        assert (tau2_x, n_opt_x) == (tau2, n_opt) and z_x.tobytes() == z.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 40), cell=st.integers(0, 31),
           t_corr=st.floats(0.0, 20e-9),
           step=st.sampled_from((0.1e-9, 0.25e-9, 1e-9)), k_avg=st.integers(1, 12))
    def test_extents_equal_the_oracles(self, cfg, m, cell, t_corr, step, k_avg):
        cc = CoarseConfig()
        assert coarse_extent(cfg, cc, m) == coarse_min_samples(cfg, cc, m)
        fc = FineConfig(t_corr=t_corr, fine_step=step, n_symbols_avg=k_avg)
        tau1 = cell * cc.search_step
        assert fine_extent(cfg, fc, tau1)[1] == fine_min_samples(cfg, fc, tau1)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 33), k_avg=st.integers(1, 12),
           t_corr=st.floats(0.0, 1.0),
           model=st.sampled_from(("cm1", "single_path")),
           mode=st.sampled_from(("nda", "da")))
    def test_trial_records_hold_the_fewest_symbols_both_floors_read(
            self, m, k_avg, t_corr, model, mode):
        # t_corr runs over [0, T_s]; the fine floor reads furthest at the
        # last coarse cell.
        fc = FineConfig(t_corr=t_corr * FRAME.symbol_duration, n_symbols_avg=k_avg)
        plan = ExperimentPlan(fine_cfg=fc, channel_model=model)
        cc = plan.coarse_cfg
        scene = build_trial_scene(plan, math.inf, m, mode, 0, 0)
        tau1 = (cc.grid_size(scene.cfg) - 1) * cc.search_step
        extent = max(coarse_min_samples(scene.cfg, cc, m),
                     fine_min_samples(scene.cfg, fc, tau1))
        n_s = scene.cfg.n_symbol_samples
        assert (len(scene.bits) - 1) * n_s < extent <= len(scene.bits) * n_s
        assert len(scene.received.samples) == len(scene.bits) * n_s
        coarse_sync(scene.received, scene.cfg, cc, m, mode)
        fine_sync(scene.received, tau1, scene.cfg, fc)


class TestTwoFloorSync:
    def test_fine_floor_repairs_coarse_grid(self, cfg):
        # Frame-level first floor, 0.1 ns second floor: the final estimate
        # lands within one fine step even though the coarse floor cannot.
        delta_tau = 400.02e-9
        r = make_received(cfg, da_bits(16 + 12), delta_tau)
        cc = CoarseConfig(search_step=cfg.frame_duration)
        fc = FineConfig(fine_step=0.1e-9)
        tau1, _ = coarse_sync(r, cfg, cc, 16, "da")
        tau2, _, _ = fine_sync(r, tau1, cfg, fc)
        assert abs(tau2 - delta_tau) <= 0.1e-9 + 1e-15
        # the coarse estimate itself stays on the frame grid
        assert tau1 / cc.search_step == pytest.approx(
            round(tau1 / cc.search_step), abs=1e-9)

    def test_scale_invariance_bit_exact(self, cfg):
        bits = list(np.random.default_rng(8).integers(0, 2, 20))
        r = make_received(cfg, bits, 333e-9, snr_db=10.0, noise_seed=9)
        cc = CoarseConfig()
        fc = FineConfig()
        tau1, _ = coarse_sync(r, cfg, cc, 8, "nda")
        ref = fine_sync(SampledWaveform(r.samples.copy()), tau1, cfg, fc)[:2]
        for c in (1e-3, 1e3):
            rc = SampledWaveform(r.samples * c)
            assert coarse_sync(rc, cfg, cc, 8, "nda")[0] == tau1
            assert fine_sync(rc, tau1, cfg, fc)[:2] == ref

    def test_outputs_in_range(self, cfg):
        rng = np.random.default_rng(4)
        for trial in range(3):
            delta_tau = float(rng.uniform(0, cfg.symbol_duration))
            bits = list(rng.integers(0, 2, 20))
            r = make_received(cfg, bits, delta_tau, snr_db=8.0, noise_seed=trial)
            tau1, _ = coarse_sync(r, cfg, CoarseConfig(), 8, "nda")
            tau2, n_opt, _ = fine_sync(r, tau1, cfg, FineConfig())
            assert 0.0 <= tau1 < cfg.symbol_duration
            assert 0.0 <= tau2 < cfg.symbol_duration
            assert abs(n_opt) * 0.25e-9 <= 560e-9

    def test_record_start_symbol_does_not_matter(self, cfg):
        # Offsetting the record by a whole symbol leaves both floors'
        # estimates unchanged (everything is modulo T_s).
        delta_tau = 77.7e-9
        bits = da_bits(16 + 13)
        r = make_received(cfg, bits, delta_tau)
        r_shifted = SampledWaveform(r.samples[cfg.n_symbol_samples:].copy())
        cc = CoarseConfig()
        fc = FineConfig()
        estimates = []
        for rec in (r, r_shifted):
            tau1, _ = coarse_sync(rec, cfg, cc, 16, "da")
            estimates.append((tau1, fine_sync(rec, tau1, cfg, fc)[0]))
        assert estimates[0] == estimates[1]

    def test_floors_refuse_a_record_the_fine_floor_spent(self, cfg):
        # The fine floor computes in the record: neither floor may then read
        # it as a record again.
        r = make_received(cfg, da_bits(16 + 12), 400.02e-9)
        cc, fc = CoarseConfig(), FineConfig()
        tau1, _ = coarse_sync(r, cfg, cc, 16, "da")
        fine_sync(r, tau1, cfg, fc)
        with pytest.raises(ValueError, match="record spent by the fine floor"):
            coarse_sync(r, cfg, cc, 16, "da")
        with pytest.raises(ValueError, match="record spent by the fine floor"):
            fine_sync(r, tau1, cfg, fc)


class TestBuffers:
    def test_floors_write_every_buffer_entry_they_read(self, cfg, monkeypatch):
        # np.empty may hand back used memory, so NaN-filled buffers must
        # change no bit.  With the all-zero code and a fine scan half a step
        # wider than a symbol, the first window at tau1 = 0 starts at sample
        # 0: its sum is the running sum's first window end, less nothing.
        # The fine floor computes in a fresh copy of the record each time.
        cfg = replace(cfg, th_code=[0] * cfg.n_frames_per_symbol)
        bits = list(np.random.default_rng(5).integers(0, 2, 20))
        r = make_received(cfg, bits, 500e-9, snr_db=10.0, noise_seed=3)
        step = cfg.symbol_duration / 1120
        fc = FineConfig(t_corr=1120.5 * step, fine_step=step, n_symbols_avg=2)
        assert fine_extent(cfg, fc, 0.0)[0] == 0

        def floors():
            _, coarse = coarse_sync(r, cfg, CoarseConfig(), 8, "nda")
            _, _, fine = fine_sync(SampledWaveform(r.samples.copy()), 0.0, cfg, fc)
            return coarse.tobytes(), fine.tobytes()
        expected = floors()
        empty = np.empty

        def nan_filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(np.nan)
            return out
        monkeypatch.setattr(np, "empty", nan_filled)
        assert floors() == expected

    def test_fine_scan_keeps_one_prefix_sum_sized_array(self):
        # The scan computes in the record, whose samples are the one
        # prefix-sum-sized array: its traced peak stays well under one more.
        plan = ExperimentPlan()
        scene = build_trial_scene(plan, 8.0, 32, "nda", 0, 0)
        tau1, _ = coarse_sync(scene.received, scene.cfg, plan.coarse_cfg, 32, "nda")
        _, hi = fine_extent(scene.cfg, plan.fine_cfg, tau1)
        csum_bytes = 8 * (hi - 2 * scene.cfg.n_symbol_samples + 1)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            fine_sync(scene.received, tau1, scene.cfg, plan.fine_cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 0.75 * csum_bytes

    @pytest.mark.parametrize("model, snr_db, m, mode", [
        ("cm1", 8.0, 8, "nda"), ("cm1", 8.0, 8, "da"),
        ("cm1", 8.0, 32, "nda"), ("cm1", 8.0, 32, "da"),
        ("single_path", math.inf, 8, "nda"),
    ])
    @pytest.mark.parametrize("start", ["coarse_pick", "first_window", "last_cell"])
    def test_fine_scan_in_the_record_matches_the_cube(self, model, snr_db, m, mode,
                                                      start):
        # Computing in the record gives the cube oracle's bits, taken from
        # the intact record, and clobbers only its first hi - 2 n_s samples.
        plan = ExperimentPlan(channel_model=model)
        scene = build_trial_scene(plan, snr_db, m, mode, 0, 0)
        cfg, fc, r = scene.cfg, plan.fine_cfg, scene.received
        if start == "coarse_pick":
            tau1, _ = coarse_sync(r, cfg, plan.coarse_cfg, m, mode)
        elif start == "first_window":
            # The all-zero code and a scan one symbol back read window 0.
            cfg = replace(cfg, th_code=[0] * cfg.n_frames_per_symbol)
            step = cfg.symbol_duration / 1120
            fc = FineConfig(t_corr=1120.5 * step, fine_step=step, n_symbols_avg=2)
            tau1 = 0.0
            assert fine_extent(cfg, fc, tau1)[0] == 0
        else:
            tau1 = (plan.coarse_cfg.grid_size(cfg) - 1) * plan.coarse_cfg.search_step
        expected = fine_objective_cube(r, tau1, cfg, fc)
        clobbered = SampledWaveform(r.samples.copy())
        tau2, n_opt, z = fine_sync(clobbered, tau1, cfg, fc)
        assert z.tobytes() == expected.tobytes()
        peaks = np.flatnonzero(expected == expected.max()) - (fc.n_steps - 1)
        assert n_opt == min(peaks, key=lambda n: (abs(n), n))
        assert tau2 == (tau1 + n_opt * fc.fine_step) % cfg.symbol_duration
        kept = fine_extent(cfg, fc, tau1)[1] - 2 * cfg.n_symbol_samples
        assert clobbered.samples[kept:].tobytes() == r.samples[kept:].tobytes()


class TestModeContrast:
    def test_da_median_error_not_worse_than_nda(self, cfg):
        # Training symbols help: at a mid SNR and short observation, the
        # DA coarse floor's median squared error stays at or below NDA's.
        # NDA is group 0 and DA group 1, 200 trials each.
        plan = ExperimentPlan(snr_grid_db=(12.0,), m_grid=(8,), modes=("nda", "da"))
        assert plan.trials_per_cell == 200
        trials = run_trials(plan, n_workers=os.cpu_count() or 1)
        t_s = cfg.symbol_duration
        sq = [(wrapped_error(t.tau_hat_coarse, t.delta_tau_true, t_s) / t_s) ** 2
              for t in trials]
        assert np.median(sq[200:]) <= np.median(sq[:200])
