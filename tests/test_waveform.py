"""Waveform synthesis: pulse shape, hop codes, transmit train."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from uwbsync import (
    ConfigError,
    ExperimentPlan,
    FrameConfig,
    SampledWaveform,
    SymbolSequence,
    draw_th_code,
    generate_tx,
    monocycle,
    sampled_monocycle,
)
from uwbsync.harness import build_trial_scene

from oracles import FRAME, energy

FS = 50e9
TP = 0.8e-9


class TestMonocycle:
    def test_even_symmetry_about_center(self):
        for x in (0.05e-9, 0.13e-9, 0.31e-9, 0.39e-9):
            left = monocycle(TP / 2 - x, TP, FS)
            right = monocycle(TP / 2 + x, TP, FS)
            assert left == pytest.approx(right, abs=0.0)

    def test_unit_energy_on_sample_grid(self):
        # Independent quadrature: plain Riemann sum over the support.
        t = np.arange(int(round(TP * FS))) / FS
        vals = monocycle(t, TP, FS)
        energy = float(np.sum(vals ** 2) / FS)
        assert energy == pytest.approx(1.0, abs=1e-6)

    def test_edge_amplitude_below_one_percent_of_peak(self):
        t = np.arange(int(round(TP * FS))) / FS
        vals = np.abs(monocycle(t, TP, FS))
        assert abs(monocycle(0.0, TP, FS)) / vals.max() < 0.01
        assert abs(monocycle(TP, TP, FS)) / vals.max() < 0.01

    def test_zero_outside_support(self):
        assert monocycle(-0.01e-9, TP, FS) == 0.0
        assert monocycle(TP + 0.01e-9, TP, FS) == 0.0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigError):
            monocycle(0.0, 0.0, FS)
        with pytest.raises(ConfigError):
            monocycle(0.0, -1e-9, FS)

    def test_sampled_pulse_matches_pointwise_eval(self):
        pulse = sampled_monocycle(TP, FS)
        t = np.arange(len(pulse)) / FS
        assert np.array_equal(pulse, monocycle(t, TP, FS))


class TestFrameConfig:
    def test_symbol_duration_exact(self):
        cfg = FRAME
        assert cfg.symbol_duration == cfg.n_frames_per_symbol * cfg.frame_duration

    def test_rejects_code_outside_alphabet(self):
        with pytest.raises(ConfigError):
            FrameConfig(th_code=tuple([35] + [0] * 31))

    def test_rejects_leaking_pulse(self):
        # chip 34 + 1 ns shift + 0.8 ns pulse > 35 ns frame
        with pytest.raises(ConfigError):
            FrameConfig(n_chips=36, th_code=tuple([34] + [0] * 31))

    def test_rejects_off_grid_chip(self):
        with pytest.raises(ConfigError):
            FrameConfig(chip_duration=1.00001e-9,
                        th_code=tuple([0] * 32))

    def test_rejects_wrong_code_length(self):
        with pytest.raises(ConfigError):
            FrameConfig(th_code=(0, 1, 2))


def th_code(seed, cfg=FRAME):
    return draw_th_code(np.random.default_rng(seed), cfg).th_code


class TestThCode:
    def test_single_chip_alphabet_gives_all_zero(self):
        cfg = FrameConfig(n_chips=1, th_code=tuple([0] * 32))
        assert th_code(3, cfg) == tuple([0] * 32)

    def test_deterministic_per_seed(self):
        assert th_code(11) == th_code(11)
        assert th_code(11) != th_code(12)

    def test_fixture_code_is_the_seed_0_draw(self):
        assert FRAME.th_code == (29, 22, 17, 9, 10, 1, 2, 0, 6, 28, 22, 31, 17, 21,
                                 33, 25, 22, 19, 19, 32, 9, 28, 23, 0, 13, 30, 19,
                                 1, 26, 25, 29, 6)

    def test_trials_draw_through_draw_th_code(self):
        plan = ExperimentPlan(channel_model="single_path")
        scene = build_trial_scene(plan, math.inf, 8, "nda", 3, 1)
        ss = np.random.SeedSequence(entropy=plan.base_seed, spawn_key=(1, 3))
        assert scene.cfg == draw_th_code(np.random.default_rng(ss.spawn(1)[0]),
                                         plan.frame_cfg)

    def test_uniformity_chi_squared(self):
        # 1e4 codes of length 32; a chip from 34 on would push a bit-1
        # pulse out of its frame, so codes are uniform over the 34 below
        # it.  chi^2 at the 1% level.
        draws = np.concatenate([
            np.asarray(th_code(seed)) for seed in range(7, 7 + 10_000)
        ])
        fit = FRAME.n_fitting_chips
        assert fit == 34
        counts = np.bincount(draws, minlength=FRAME.n_chips)
        assert counts[fit:].sum() == 0
        expected = len(draws) / fit
        chi2 = float(np.sum((counts[:fit] - expected) ** 2 / expected))
        threshold = stats.chi2.ppf(0.99, df=fit - 1)
        assert chi2 < threshold


class TestGenerateTx:
    def test_single_pulse_reduction(self):
        # One frame, all-zero code, bit 0: the output is the bare pulse
        # padded to one frame.
        cfg = FrameConfig(n_frames_per_symbol=1, th_code=(0,), n_chips=1)
        tx = generate_tx(SymbolSequence.fixed([0]), cfg)
        pulse = sampled_monocycle(cfg.pulse_duration, cfg.sample_rate)
        expected = np.zeros(cfg.n_frame_samples)
        expected[:len(pulse)] = math.sqrt(cfg.pulse_energy) * pulse
        assert np.array_equal(tx.samples, expected)

    def test_ppm_shift_is_sample_exact(self):
        cfg = FRAME
        tx0 = generate_tx(SymbolSequence.fixed([0]), cfg)
        tx1 = generate_tx(SymbolSequence.fixed([1]), cfg)
        n = cfg.n_shift_samples
        assert np.array_equal(tx1.samples[n:], tx0.samples[:-n])
        assert np.all(tx1.samples[:n] == 0.0)

    def test_energy_scales_with_pulse_count(self):
        cfg = FRAME
        k = 4
        tx = generate_tx(SymbolSequence.random(k, 99), cfg)
        expected = k * cfg.n_frames_per_symbol * cfg.pulse_energy
        assert energy(tx) == pytest.approx(expected, rel=1e-3)

    def test_per_frame_energy_no_leakage(self):
        cfg = FRAME
        tx = generate_tx(SymbolSequence.fixed([1]), cfg)
        nf = cfg.n_frame_samples
        for i in range(cfg.n_frames_per_symbol):
            frame = tx.samples[i * nf:(i + 1) * nf]
            energy = float(np.sum(frame ** 2) / cfg.sample_rate)
            assert energy == pytest.approx(cfg.pulse_energy, rel=1e-3)

    def test_deterministic(self):
        cfg = FRAME
        bits = SymbolSequence.random(3, 5)
        a = generate_tx(bits, cfg)
        b = generate_tx(bits, cfg)
        assert np.array_equal(a.samples, b.samples)

    @settings(max_examples=30, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=6),
           code_seed=st.integers(0, 2**32 - 1),
           energy=st.floats(0.0, 4.0))
    def test_matches_per_pulse_loop(self, bits, code_seed, energy):
        # Oracle: one pulse added per (symbol, frame) into a zero record.
        # Codes reach the last chip a bit-1 pulse can use without leaking.
        cfg = replace(FRAME, pulse_energy=energy)
        code = np.random.default_rng(code_seed).integers(0, 34, 32)
        cfg = cfg.with_th_code(code)
        pulse = sampled_monocycle(cfg.pulse_duration, cfg.sample_rate)
        pulse = pulse * math.sqrt(energy)
        n_sym = cfg.n_symbol_samples
        expected = np.zeros(len(bits) * n_sym)
        for k, bit in enumerate(bits):
            for i, c in enumerate(cfg.th_code):
                start = (k * n_sym + i * cfg.n_frame_samples + c * cfg.n_chip_samples
                         + bit * cfg.n_shift_samples)
                expected[start:start + len(pulse)] += pulse
        tx = generate_tx(SymbolSequence.fixed(bits), cfg)
        assert tx.samples.tobytes() == expected.tobytes()

    def test_output_length(self):
        cfg = FRAME
        tx = generate_tx(SymbolSequence.random(5, 1), cfg)
        assert len(tx.samples) == 5 * cfg.n_symbol_samples

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            SymbolSequence.fixed([0, 2, 1])
        with pytest.raises(ValueError):
            SymbolSequence.fixed([])


class TestSampledWaveform:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SampledWaveform(np.array([0.0, np.nan]), FS)

    def test_index_of_rounds_to_nearest_sample(self):
        # 50 GHz: one sample is 20 ps; halves round to the even sample.
        w = SampledWaveform(np.zeros(100), FS)
        assert w.index_of(0.0) == 0
        assert w.index_of(1e-9) == 50
        assert w.index_of(1.009e-9) == 50 and w.index_of(1.011e-9) == 51
        assert w.index_of(50e-12) == 2 and w.index_of(70e-12) == 4
