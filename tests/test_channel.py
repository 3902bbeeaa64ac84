"""Channel model: tap statistics, propagation, energies, noise calibration."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uwbsync import (
    ChannelRealization,
    ConfigError,
    aggregate_template,
    generate_cm1,
    generate_tx,
    partial_energies,
    propagate,
    sampled_monocycle,
    single_path,
)
from uwbsync import channel as channel_module
from uwbsync.channel import _standard_normal, noise_std, snr_ref_samples
from uwbsync.harness import ExperimentPlan, build_trial_scene

from oracles import (
    FRAME,
    dirty_correlation,
    energy,
    pulse_train,
    random_bits,
    record,
    rms_delay_spread,
    run_python,
)

BITS = st.lists(st.integers(0, 1), min_size=1, max_size=5)
# Hopping codes up to chip 33, the last one a bit-1 pulse can use, so a
# channel tail can run into the next symbol.
CODES = st.integers(0, 2**32 - 1).map(
    lambda seed: tuple(np.random.default_rng(seed).integers(0, 34, 32)))
OFFSETS = st.integers(0, 55_999).map(lambda n: n / 50e9)
CM1_17 = generate_cm1(17)
# A tap 1.5 symbols late: each template spans 2.5 symbols, so three
# consecutive templates overlap after the second symbol's start.
LONG_TAIL = ChannelRealization((math.sqrt(0.5), -math.sqrt(0.5)), (0.0, 1680e-9))


@st.composite
def tap_lists(draw):
    """(gains, delays): sorted delays in [0, 25 ns] from 0, unit energy."""
    delays = [0.0] + sorted(draw(st.lists(st.floats(0.0, 25e-9), max_size=40)))
    raw = draw(st.lists(st.floats(-1.0, 1.0).filter(lambda g: abs(g) >= 1e-3),
                        min_size=len(delays), max_size=len(delays)))
    norm = math.sqrt(sum(g * g for g in raw))
    return [g / norm for g in raw], delays


@pytest.fixture(scope="module")
def cfg():
    return FRAME


def taps_over_train(bits, ch, offset, cfg):
    """Oracle record: each tap, delay rounded to the grid, adds a scaled copy
    of the whole pulse train, all delayed and cut to the K-symbol window."""
    train = pulse_train(bits, cfg)
    out = np.zeros(len(train))
    n_off = int(round(offset * cfg.sample_rate))
    for g, d in zip(ch.gains, ch.delays):
        start = n_off + int(round(d * cfg.sample_rate))
        if start < len(out):
            out[start:] += g * train[:len(out) - start]
    return out


class TestRealizations:
    def test_single_path_is_identity_tap(self):
        ch = single_path()
        assert ch.gains == (1.0,)
        assert ch.delays == (0.0,)

    def test_cm1_deterministic_per_seed(self):
        a = generate_cm1(5)
        b = generate_cm1(5)
        assert a.gains == b.gains and a.delays == b.delays
        c = generate_cm1(6)
        assert a.gains != c.gains

    def test_cm1_normalized_sorted_and_anchored(self):
        for seed in range(25):
            ch = generate_cm1(seed)
            g = np.asarray(ch.gains)
            d = np.asarray(ch.delays)
            assert abs(float(np.dot(g, g)) - 1.0) <= 1e-9
            assert d[0] == 0.0
            assert np.all(np.diff(d) >= 0)
            assert d[-1] <= 25e-9

    def test_cm1_respects_max_delay(self):
        ch = generate_cm1(3, max_delay=10e-9)
        assert ch.delays[-1] <= 10e-9

    def test_cm1_mean_rms_delay_spread(self):
        # Statistical oracle: the truncated LOS profile should sit near a
        # 5 ns RMS delay spread.  Flag (warn), don't hard-fail, on a miss
        # of the +-20% band; hard-fail only outside a gross sanity band.
        spreads = [rms_delay_spread(generate_cm1(seed)) for seed in range(1000)]
        mean = float(np.mean(spreads))
        if not 4e-9 <= mean <= 6e-9:
            warnings.warn(
                f"CM1 mean RMS delay spread {mean * 1e9:.2f} ns outside "
                "the 5 ns +-20% band")
        assert 2e-9 <= mean <= 10e-9

    def test_rejects_unnormalized_taps(self):
        with pytest.raises(ConfigError):
            ChannelRealization((1.0, 1.0), (0.0, 1e-9))

    def test_rejects_nonzero_first_delay(self):
        with pytest.raises(ConfigError):
            ChannelRealization((1.0,), (1e-9,))

    @pytest.mark.parametrize("gains, delays", [
        ((math.nan,), (0.0,)),
        ((math.sqrt(0.5), math.sqrt(0.5)), (0.0, math.inf)),
        ((math.sqrt(0.5), math.sqrt(0.5)), (0.0, math.nan)),
    ])
    def test_rejects_non_finite_taps(self, gains, delays):
        # A NaN fails every comparison and an infinite delay sorts last, so
        # these passed the other checks and failed only in the template.
        with pytest.raises(ConfigError, match="finite"):
            ChannelRealization(gains, delays)

    @settings(max_examples=200, deadline=None)
    @given(taps=tap_lists())
    @example(taps=(CM1_17.gains, CM1_17.delays))
    def test_delays_are_kept_bit_for_bit(self, taps):
        gains, delays = taps
        ch = ChannelRealization(gains, delays)
        assert ch.delays == tuple(delays)
        assert ch.gains == tuple(gains)


class TestPropagate:
    def test_identity_channel_zero_offset(self, cfg):
        bits = [0, 1]
        out = propagate(bits, single_path(), cfg)
        assert out.samples.tobytes() == pulse_train(bits, cfg).tobytes()

    def test_pure_delay(self, cfg):
        bits = [0, 1]
        tx = pulse_train(bits, cfg)
        off = 7e-9
        out = propagate(bits, single_path(), cfg, timing_offset=off)
        n = int(round(off * cfg.sample_rate))
        assert np.array_equal(out.samples[n:], tx[:len(out.samples) - n])
        assert np.all(out.samples[:n] == 0.0)

    def test_output_window_is_k_symbols(self, cfg):
        out = propagate([0, 1, 0], single_path(),
                        cfg, timing_offset=1e-9)
        assert len(out.samples) == 3 * cfg.n_symbol_samples

    def test_energy_preserved_through_nonoverlapping_channel(self, cfg):
        # A normalized channel whose taps are separated by more than the
        # pulse width adds no cross terms: energy passes through intact.
        gains = np.full(5, 1.0 / math.sqrt(5.0))
        ch = ChannelRealization(tuple(gains), tuple(i * 2e-9 for i in range(5)))
        bits = [0, 1, 1, 0]
        tx = pulse_train(bits, cfg)
        out = propagate(bits, ch, cfg)
        fs = cfg.sample_rate
        assert energy(out.samples, fs) == pytest.approx(energy(tx, fs), rel=5e-3)

    def test_cm1_energy_consistent_with_template(self, cfg):
        # With overlapping rays the energy deviates from the input by the
        # pulse cross terms; propagate and the template agree on it.
        bits = [0, 0, 0, 0]
        tx = pulse_train(bits, cfg)
        ch = generate_cm1(3)
        out = propagate(bits, ch, cfg)
        fs = cfg.sample_rate
        template_ratio = (energy(aggregate_template(ch, cfg), fs)
                          / cfg.n_frames_per_symbol)
        assert (energy(out.samples, fs) / energy(tx, fs)
                == pytest.approx(template_ratio, rel=1e-9))

    def test_rejects_offset_outside_symbol(self, cfg):
        bits = [0]
        with pytest.raises(ValueError):
            propagate(bits, single_path(),
                      cfg, timing_offset=cfg.symbol_duration)
        with pytest.raises(ValueError):
            propagate(bits, single_path(), cfg, timing_offset=-1e-9)

    def test_noise_deterministic_per_seed(self, cfg):
        bits = [0]
        a = propagate(bits, single_path(), cfg, snr_db=10.0, noise_seed=42)
        b = propagate(bits, single_path(), cfg, snr_db=10.0, noise_seed=42)
        c = propagate(bits, single_path(), cfg, snr_db=10.0, noise_seed=43)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_finite_snr_needs_a_noise_seed(self, cfg):
        # Noise drawn from fresh OS entropy could never be drawn again.
        with pytest.raises(ValueError, match="noise_seed"):
            propagate([0], single_path(), cfg, snr_db=10.0)

    @pytest.mark.parametrize("synth", [
        pytest.param(lambda bits, cfg: propagate(bits, single_path(), cfg),
                     id="propagate"),
        pytest.param(generate_tx, id="generate_tx"),
    ])
    @pytest.mark.parametrize("make_bits, accepted", [
        pytest.param(lambda cfg: [0, 1, 1], True, id="list"),
        pytest.param(lambda cfg: (False, True, True), True, id="tuple_of_bools"),
        pytest.param(lambda cfg: np.array([0, 1, 1]), True, id="numpy_ints"),
        pytest.param(lambda cfg: [], False, id="empty"),
        pytest.param(lambda cfg: [0, 2, 1], False, id="a_two"),
        # Not truncated to bit 0.
        pytest.param(lambda cfg: [0.7], False, id="a_fraction"),
        # A transmit waveform, or its samples, is not a bit sequence: its
        # length must not be read as a number of symbols.
        pytest.param(lambda cfg: generate_tx([0, 1], cfg).samples, False,
                     id="pulse_train_samples"),
        pytest.param(lambda cfg: generate_tx([0, 1], cfg), False, id="pulse_train"),
    ])
    def test_bits_are_a_non_empty_sequence_of_0_and_1(self, cfg, synth, make_bits,
                                                      accepted):
        bits = make_bits(cfg)
        if accepted:
            assert synth(bits, cfg).samples.tobytes() == pulse_train([0, 1, 1], cfg).tobytes()
        else:
            with pytest.raises(ValueError, match="not a non-empty sequence of 0s and 1s"):
                synth(bits, cfg)

    @settings(max_examples=25, deadline=None)
    @given(channel_seed=st.integers(0, 2**32 - 1), bits=BITS, code=CODES,
           offset=OFFSETS)
    # Symbol 0's tail reaches symbol 1's first pulse: 209 samples differ.
    @example(channel_seed=0, bits=[1, 0], code=(0,) * 31 + (33,), offset=0.0)
    def test_cm1_record_matches_taps_over_the_whole_train(self, cfg, channel_seed,
                                                          bits, code, offset):
        # Where one symbol's channel tail overlaps the next symbol the
        # record adds two templates instead of summing tap by tap, so the
        # two agree to rounding.
        cfg = replace(cfg, th_code=code)
        ch = generate_cm1(channel_seed)
        out = propagate(bits, ch, cfg, timing_offset=offset)
        expected = taps_over_train(bits, ch, offset, cfg)
        peak = float(np.max(np.abs(expected)))
        assert out.samples.shape == expected.shape
        assert float(np.max(np.abs(out.samples - expected))) <= 1e-12 * peak

    @settings(max_examples=25, deadline=None)
    @given(bits=BITS, code=CODES, offset=OFFSETS)
    # The last bit-1 copy starts past the window's end and is cut whole.
    @example(bits=[0, 1], code=(0,) * 32, offset=55_999 / 50e9)
    def test_single_path_record_is_bit_exact(self, cfg, bits, code, offset):
        cfg = replace(cfg, th_code=code)
        out = propagate(bits, single_path(), cfg, timing_offset=offset)
        expected = taps_over_train(bits, single_path(), offset, cfg)
        assert out.samples.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(ch=st.integers(0, 2**32 - 1).map(generate_cm1) | st.just(LONG_TAIL),
           bits=BITS, code=CODES, offset=OFFSETS,
           snr_db=st.just(math.inf) | st.floats(-10.0, 30.0),
           noise_seed=st.integers(0, 2**32 - 1))
    @example(ch=LONG_TAIL, bits=[1, 0, 1, 1], code=(0,) * 32, offset=700e-9,
             snr_db=4.0, noise_seed=7)
    @example(ch=CM1_17, bits=[1, 0], code=(0,) * 31 + (33,), offset=0.0,
             snr_db=12.0, noise_seed=1)
    def test_record_equals_the_two_array_composition(self, cfg, ch, bits, code,
                                                     offset, snr_db, noise_seed):
        # Byte for byte: overlapping templates are summed in symbol order
        # before they meet the noise, as in the two-array composition.
        cfg = replace(cfg, th_code=code)
        out = propagate(bits, ch, cfg, timing_offset=offset, snr_db=snr_db,
                        noise_seed=noise_seed)
        expected = record(bits, ch, cfg, offset, snr_db, noise_seed)
        assert out.samples.tobytes() == expected.tobytes()

    def test_trial_record_is_the_one_record_sized_array(self):
        # Noise draw, template adds and the record are one array: the traced
        # peak of a trial's build stays well under two records, also when
        # two threads draw the noise.
        for draw_threads in (1, 2):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                scene = build_trial_scene(ExperimentPlan(), 8.0, 32, "nda", 0, 0,
                                          draw_threads=draw_threads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * scene.received.samples.nbytes

    def test_noise_is_added_to_the_clean_record(self, cfg):
        # Bit for bit: the noisy record is the clean one plus
        # normal(0, sigma) drawn from the noise seed.
        bits = random_bits(5, 4)
        ch = generate_cm1(12)
        clean = propagate(bits, ch, cfg, timing_offset=300e-9)
        noisy = propagate(bits, ch, cfg, timing_offset=300e-9, snr_db=4.0,
                          noise_seed=77)
        template = aggregate_template(ch, cfg)[:cfg.n_symbol_samples]
        sigma = noise_std(float(np.sum(template * template)), 4.0, snr_ref_samples(cfg))
        noise = np.random.default_rng(77).normal(0.0, sigma, len(clean.samples))
        assert noisy.samples.tobytes() == (clean.samples + noise).tobytes()

    def test_noise_variance_calibration(self, cfg):
        # Measured variance over ~1e6 noise-only samples within 1%.
        bits = random_bits(18, 0)
        ch = single_path()
        clean = propagate(bits, ch, cfg)
        noisy = propagate(bits, ch, cfg, snr_db=6.0, noise_seed=1)
        noise = noisy.samples - clean.samples
        assert len(noise) >= 1_000_000
        template = aggregate_template(ch, cfg)
        n_s = cfg.n_symbol_samples
        e_sum = float(np.dot(template[:n_s], template[:n_s]))
        sigma = noise_std(e_sum, 6.0, snr_ref_samples(cfg))
        assert float(np.var(noise)) == pytest.approx(sigma ** 2, rel=0.01)

    @pytest.mark.parametrize("snr_db", [3090.0, -3000.0])
    def test_snr_outside_the_bound_names_the_grid_key(self, cfg, snr_db):
        # Before the bound: 10 ** 309 overflowed, and -3000 dB gave an
        # infinite noise level.
        for call in (lambda: noise_std(1.0, snr_db, 1),
                     lambda: propagate([0], single_path(), cfg,
                                       snr_db=snr_db, noise_seed=1)):
            with pytest.raises(ConfigError, match="neither inf nor within") as exc:
                call()
            assert exc.value.field == "snr_grid_db"

    def test_snr_bound_is_inclusive(self):
        for snr_db in (-300.0, 300.0):
            assert 0.0 < noise_std(1.0, snr_db, 1) < math.inf


# Below 32 normals a draw cannot splice; above, odd and even sizes can.
DRAW_SIZES = st.integers(0, 31) | st.integers(32, 60_000)


class TestNoiseDraw:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=DRAW_SIZES)
    @example(seed=0, n=728_000)  # the M=8 record of the default format
    @example(seed=1, n=1_960_000)  # the M=32 record
    @example(seed=4, n=40_001)
    @example(seed=2, n=17)
    @example(seed=3, n=0)
    def test_two_threads_draw_the_one_thread_bytes(self, seed, n):
        expected = np.random.default_rng(seed).standard_normal(n)
        assert _standard_normal(seed, n).tobytes() == expected.tobytes()
        assert _standard_normal(seed, n, 2).tobytes() == expected.tobytes()

    def test_record_sized_draw_splices_and_a_tiny_one_falls_back(self, monkeypatch):
        offsets = []
        rejoin = channel_module._rejoin

        def spy(tail, look):
            offsets.append(rejoin(tail, look))
            return offsets[-1]

        monkeypatch.setattr(channel_module, "_rejoin", spy)
        seed = np.random.SeedSequence(5, spawn_key=(0, 0))
        for n in (728_000, 17):
            expected = np.random.default_rng(seed).standard_normal(n)
            assert _standard_normal(seed, n, 2).tobytes() == expected.tobytes()
        splice, fallback = offsets
        # The splice sits a few percent into the second half; 9 normals
        # cannot hold the 16 looked for.
        assert 0 < splice < 728_000 // 2 // 10
        assert fallback is None

    def test_split_draw_splices_without_a_temporary(self):
        # The splice shifts the second half left in one overlapping copy,
        # which numpy makes in place: the traced peak is the output and
        # small change.
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = _standard_normal(1, 1_960_000, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 64 * 1024

    def test_fallback_draws_the_same_bytes(self, monkeypatch):
        monkeypatch.setattr(channel_module, "_rejoin", lambda tail, look: None)
        expected = np.random.default_rng(9).standard_normal(728_000)
        assert _standard_normal(9, 728_000, 2).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [8, 32])
    def test_trial_record_does_not_depend_on_draw_threads(self, m):
        plan = ExperimentPlan()
        for trial in range(2):
            one, two = (build_trial_scene(plan, 8.0, m, "nda", trial, 1,
                                          draw_threads=k).received.samples
                        for k in (1, 2))
            assert one.tobytes() == two.tobytes()


class TestAggregateTemplate:
    def test_single_path_equals_one_symbol_train(self, cfg):
        t = aggregate_template(single_path(), cfg)
        assert t.tobytes() == pulse_train([0], cfg).tobytes()

    def test_energy_is_a_channel_constant_not_offset_dependent(self, cfg):
        # The template never sees the timing offset, so the record at any
        # offset is the offset-0 record delayed by whole samples, bit for
        # bit: the offset moves energy only across the window's end.
        ch = generate_cm1(9)
        bits = [0, 0, 0]
        base = propagate(bits, ch, cfg).samples
        for off in (13.7e-9, 411.3e-9):
            out = propagate(bits, ch, cfg, timing_offset=off).samples
            n = int(round(off * cfg.sample_rate))
            assert len(out) == len(base)
            assert np.all(out[:n] == 0.0)
            assert out[n:].tobytes() == base[:len(base) - n].tobytes()

    def test_mean_template_energy_matches_pulse_count(self, cfg):
        # Per realization the energy fluctuates with ray-overlap cross
        # terms; the seed average sits at the pulse count (unit pulses).
        vals = [energy(aggregate_template(generate_cm1(s), cfg), cfg.sample_rate)
                for s in range(60)]
        mean = float(np.mean(vals))
        expected = cfg.n_frames_per_symbol
        assert mean == pytest.approx(expected, rel=0.1)

    @pytest.mark.parametrize("taps", ["two", "cm1", "coinciding"])
    def test_taps_superpose_sample_exact(self, cfg, taps):
        # Direct superposition oracle: one scaled, shifted copy of the
        # single-path template per tap, added in tap order (taps on one
        # sample included), equal to the last bit.
        g = 1.0 / math.sqrt(2.0)
        ch = {"two": ChannelRealization((g, g), (0.0, 2 * cfg.frame_duration)),
              "cm1": generate_cm1(3),
              "coinciding": ChannelRealization((0.6, 0.48, -0.64),
                                               (0.0, 3e-9, 3e-9))}[taps]
        t = aggregate_template(ch, cfg)
        base = aggregate_template(single_path(), cfg)
        idx = [int(round(d * cfg.sample_rate)) for d in ch.delays]
        expected = np.zeros(len(base) + max(idx))
        for gain, n in zip(ch.gains, idx):
            expected[n:n + len(base)] += gain * base
        assert t.tobytes() == expected.tobytes()

    def test_many_taps_match_direct_convolution(self, cfg):
        # Oracle: np.convolve of the one-symbol train with the tap kernel
        # on the sample grid (coinciding taps add).
        ch = generate_cm1(3)
        assert ch.n_taps > 16
        idx = np.round(np.asarray(ch.delays) * cfg.sample_rate).astype(np.int64)
        kernel = np.zeros(int(idx[-1]) + 1)
        np.add.at(kernel, idx, np.asarray(ch.gains))
        expected = np.convolve(pulse_train([0], cfg), kernel)
        t = aggregate_template(ch, cfg)
        assert t.shape == expected.shape
        peak = float(np.max(np.abs(expected)))
        assert float(np.max(np.abs(t - expected))) <= 1e-12 * peak


class TestPartialEnergies:
    def test_tau_zero_puts_everything_in_b(self, cfg):
        t = aggregate_template(generate_cm1(2), cfg)
        eps_a, eps_b, eps_r = partial_energies(t, 0.0, cfg)
        assert eps_a == 0.0
        assert eps_b == eps_r

    def test_tau_near_symbol_leaves_first_sample_only(self, cfg):
        t = aggregate_template(single_path(), cfg)
        t_s = cfg.symbol_duration
        tau = t_s - 1.0 / cfg.sample_rate
        eps_a, eps_b, eps_r = partial_energies(t, tau, cfg)
        # First pulse of the default code starts well after t=0.
        assert eps_b == 0.0
        assert eps_a == eps_r

    def test_additivity_over_random_splits(self, cfg):
        # 100 random (channel, tau) pairs; disjoint-interval Riemann sums
        # must reassemble the total within float rounding.
        rng = np.random.default_rng(77)
        t_s = cfg.symbol_duration
        for i in range(100):
            ch = generate_cm1(200 + i)
            t = aggregate_template(ch, cfg)
            tau = float(rng.uniform(0.0, t_s))
            eps_a, eps_b, eps_r = partial_energies(t, tau, cfg)
            assert eps_a + eps_b == pytest.approx(eps_r, rel=1e-12)
            assert eps_a >= 0.0 and eps_b >= 0.0

    def test_total_is_the_window_sum(self, cfg):
        # eps_r is summed over the whole window on its own, not as
        # eps_a + eps_b, so the additivity checks compare independent sums.
        t = aggregate_template(generate_cm1(4), cfg)
        s = t[:cfg.n_symbol_samples]
        for tau in (100e-9, 523.5e-9, 1000e-9):
            eps_r = partial_energies(t, tau, cfg)[2]
            assert eps_r == float(np.sum(s * s) / cfg.sample_rate)

    def test_rejects_tau_out_of_range(self, cfg):
        t = aggregate_template(single_path(), cfg)
        with pytest.raises(ValueError):
            partial_energies(t, cfg.symbol_duration, cfg)


def test_symbol_long_energies_call_no_blas(cfg, monkeypatch):
    # A BLAS dot over a symbol runs threaded, so its last bits would depend
    # on the thread count; the pulse's energy, summed by BLAS, would depend
    # on the CPU's kernels.
    def no_blas(*args, **kwargs):
        raise AssertionError("BLAS call")
    monkeypatch.setattr(np, "dot", no_blas)
    sampled_monocycle.__wrapped__(cfg.pulse_duration, cfg.sample_rate)
    t = aggregate_template(generate_cm1(5), cfg)
    r = propagate([1, 0, 1, 1, 0], generate_cm1(5),
                  cfg, timing_offset=300e-9, snr_db=10.0, noise_seed=2)
    partial_energies(t, 400e-9, cfg)
    energy(t, cfg.sample_rate)
    dirty_correlation(r, 1, 300e-9, cfg)


def test_import_loads_no_scipy():
    code = ("import sys, uwbsync; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert run_python(code) == "[]"


def test_noisy_record_does_not_depend_on_blas_threads():
    # A threaded BLAS dot sums in per-thread blocks, so its rounding, and
    # with it the noise level, would change with the thread count.
    code = ("import hashlib; from uwbsync import ExperimentPlan; "
            "from uwbsync.harness import build_trial_scene; "
            "h = hashlib.sha256(); "
            "[h.update(build_trial_scene(ExperimentPlan(), 8.0, 8, 'nda', t, 0)"
            ".received.samples.tobytes()) for t in range(4)]; "
            "print(h.hexdigest())")
    one, two = (run_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one == two != ""
