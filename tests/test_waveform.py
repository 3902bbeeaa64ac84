"""Signal format: pulse shape, hop codes, and the transmit train against a
pulse-by-pulse oracle."""

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
    draw_th_code,
    generate_tx,
    sampled_monocycle,
)
from uwbsync.harness import build_trial_scene

from oracles import FRAME, energy, pulse_train, random_bits

FS = 50e9
TP = 0.8e-9


class TestMonocycle:
    def test_even_symmetry_about_center(self):
        pulse = sampled_monocycle(TP, FS)
        center = len(pulse) // 2  # t = TP / 2 falls on this sample
        assert center / FS == pytest.approx(TP / 2, abs=1e-24)
        left = pulse[center - 1:0:-1]
        right = pulse[center + 1:]
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12 * pulse.max())

    def test_unit_energy_on_sample_grid(self):
        # Independent quadrature: plain Riemann sum over the support.
        pulse = sampled_monocycle(TP, FS)
        assert len(pulse) == int(round(TP * FS))
        energy = float(np.sum(pulse ** 2) / FS)
        assert energy == pytest.approx(1.0, abs=1e-6)

    def test_edge_amplitude_below_one_percent_of_peak(self):
        pulse = np.abs(sampled_monocycle(TP, FS))
        assert pulse[0] / pulse.max() < 0.01
        assert pulse[-1] / pulse.max() < 0.01

    def test_matches_closed_form(self):
        # w(t) = (1 - 4 pi x^2) exp(-2 pi x^2), x = (t - TP/2) / tau_m, has
        # energy 3 tau_m / 8 over the real line.  The grid normalization
        # differs from it only by the truncated tails and the Riemann sum,
        # far below 1e-5 of the peak.
        tau_m = TP / 2.5
        x = (np.arange(40) / FS - TP / 2) / tau_m
        w = (1 - 4 * np.pi * x ** 2) * np.exp(-2 * np.pi * x ** 2)
        expected = w / math.sqrt(3 * tau_m / 8)
        pulse = sampled_monocycle(TP, FS)
        assert np.max(np.abs(pulse - expected)) <= 1e-5 * np.max(expected)

    def test_is_cached_and_read_only(self):
        pulse = sampled_monocycle(TP, FS)
        assert sampled_monocycle(TP, FS) is pulse
        assert not pulse.flags.writeable


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

    @pytest.mark.parametrize("name", ["frame_duration", "chip_duration",
                                      "ppm_shift", "pulse_duration"])
    @pytest.mark.parametrize("samples", [0, 1e-7, -1])
    def test_durations_are_at_least_one_sample(self, name, samples):
        with pytest.raises(ConfigError) as exc:
            replace(FRAME, **{name: samples / FRAME.sample_rate})
        assert exc.value.field == name
        assert name in str(exc.value)

    def test_pulse_shorter_than_one_sample_names_its_field(self):
        with pytest.raises(ConfigError) as exc:
            sampled_monocycle(1e-7 / FS, FS)
        assert exc.value.field == "pulse_duration"

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
        assert FRAME.th_code == (28, 21, 17, 9, 10, 1, 2, 0, 5, 27, 22, 31, 17, 20,
                                 33, 24, 21, 18, 19, 31, 9, 27, 22, 0, 13, 29, 18,
                                 1, 26, 24, 28, 5)

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
        tx = generate_tx([0], cfg)
        pulse = sampled_monocycle(cfg.pulse_duration, cfg.sample_rate)
        expected = np.zeros(cfg.n_frame_samples)
        expected[:len(pulse)] = pulse
        assert np.array_equal(tx.samples, expected)

    def test_ppm_shift_is_sample_exact(self):
        cfg = FRAME
        tx0 = generate_tx([0], cfg)
        tx1 = generate_tx([1], cfg)
        n = cfg.n_shift_samples
        assert np.array_equal(tx1.samples[n:], tx0.samples[:-n])
        assert np.all(tx1.samples[:n] == 0.0)

    def test_energy_scales_with_pulse_count(self):
        cfg = FRAME
        k = 4
        tx = generate_tx(random_bits(k, 99), cfg)
        expected = k * cfg.n_frames_per_symbol
        assert energy(tx.samples, cfg.sample_rate) == pytest.approx(expected, rel=1e-3)

    def test_per_frame_energy_no_leakage(self):
        cfg = FRAME
        tx = generate_tx([1], cfg)
        nf = cfg.n_frame_samples
        for i in range(cfg.n_frames_per_symbol):
            frame = tx.samples[i * nf:(i + 1) * nf]
            energy = float(np.sum(frame ** 2) / cfg.sample_rate)
            assert energy == pytest.approx(1.0, rel=1e-3)

    def test_deterministic(self):
        cfg = FRAME
        bits = random_bits(3, 5)
        a = generate_tx(bits, cfg)
        b = generate_tx(bits, cfg)
        assert np.array_equal(a.samples, b.samples)

    @settings(max_examples=30, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=6),
           code_seed=st.integers(0, 2**32 - 1))
    def test_matches_per_pulse_loop(self, bits, code_seed):
        # Oracle: one pulse written per (symbol, frame) into a zero record.
        # Codes reach the last chip a bit-1 pulse can use without leaking.
        code = np.random.default_rng(code_seed).integers(0, 34, 32)
        cfg = replace(FRAME, th_code=code)
        tx = generate_tx(bits, cfg)
        assert tx.samples.tobytes() == pulse_train(bits, cfg).tobytes()

    def test_output_length(self):
        cfg = FRAME
        tx = generate_tx(random_bits(5, 1), cfg)
        assert len(tx.samples) == 5 * cfg.n_symbol_samples


class TestSampledWaveform:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SampledWaveform(np.array([0.0, np.nan]), FS)
