"""CLI: config parsing, manifest round trip, subcommand behavior."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from uwbsync import (CoarseConfig, ExperimentPlan, FineConfig, FrameConfig,
                     generate_cm1, taps_from_text)
from uwbsync.cli import load_plan, main, plan_to_config_text

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"

TINY_CONFIG = """\
[channel]
model = single_path

[sweep]
snr_grid_db = inf, 10
m_grid = 8
modes = da
floors = coarse_only, coarse_plus_fine
trials_per_cell = 2
base_seed = 7
"""

# Values that need more than six significant digits to reload exactly.
LONG_DIGITS_CONFIG = """\
[frame]
pulse_energy = 1.23456789

[channel]
max_delay_ns = 12.3456789

[sweep]
snr_grid_db = inf, 0.1234567
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestConfig:
    def test_load_shipped_default(self, monkeypatch):
        monkeypatch.delenv("UWB_SYNC_SEED", raising=False)
        plan = load_plan(REPO_CONFIG)
        assert plan == ExperimentPlan()
        assert plan.snr_grid_db == (0.0, 4.0, 8.0, 12.0, 16.0)
        assert plan.trials_per_cell == 200

    def test_manifest_round_trip(self, tmp_path, tiny_config):
        long_digits = tmp_path / "long_digits.cfg"
        long_digits.write_text(LONG_DIGITS_CONFIG)
        for path in (tiny_config, long_digits):
            plan = load_plan(path)
            manifest = tmp_path / "manifest.cfg"
            manifest.write_text(plan_to_config_text(plan, run_info={"tool_version": "x"}))
            assert load_plan(manifest) == plan
        assert plan.frame_cfg.pulse_energy == 1.23456789
        assert plan.snr_grid_db[1] == 0.1234567

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[frame]\nchip_durationns = 1.0\n")
        code = main(["sweep", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_grid_alignment_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "offgrid.cfg"
        path.write_text("[frame]\nchip_duration_ns = 1.00002\n")
        code = main(["sweep", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "chip_duration" in err

    @pytest.mark.parametrize("text, key", [
        ("[sweep]\nsnr_grid_db = -inf", "snr_grid_db"),
        ("[sweep]\nsnr_grid_db = nan", "snr_grid_db"),
        ("[sweep]\nsnr_grid_db = 0, abc", "snr_grid_db"),
        ("[sweep]\nm_grid = 0", "m_grid"),
        ("[sweep]\nm_grid = -3", "m_grid"),
        ("[fine]\nvariant = th_matched", "variant"),  # removed key
        ("[frame]\nth_code_seed = 0", "th_code_seed"),  # removed key
        ("[frame]\nth_code = 0, 1", "th_code"),  # removed key
        ("[frame]\npulse_energy = nan", "pulse_energy"),
        ("[frame]\npulse_energy = 1e400", "pulse_energy"),
        ("[channel]\nmax_delay_ns = -5", "max_delay_ns"),
        ("[channel]\nmax_delay_ns = 0", "max_delay_ns"),
        ("[channel]\nmax_delay_ns = 1e400", "max_delay_ns"),
        ("[fine]\nt_corr_ns = 1e400", "t_corr_ns"),
        ("[sweep]\nsnr_grid_db = 0, 8, 0", "snr_grid_db"),
        ("[sweep]\nm_grid = 8, 8", "m_grid"),
        ("[sweep]\nmodes = da, da", "modes"),
        ("[sweep]\nfloors = coarse_only, coarse_only", "floors"),
        ("[sweep]\nm_grid =", "m_grid"),
        ("[sweep]\nbase_seed = -1", "base_seed"),
        ("[DEFAULT]\nm_gird = 8", "DEFAULT"),
        ("[frame]\nframe_duration_ns = -35", "frame_duration_ns"),
        ("[frame]\nframe_duration_ns = 1.5", "frame_duration_ns"),  # pulse leaks out
        ("[frame]\nsample_rate_ghz = 0", "sample_rate_ghz"),
        ("[coarse]\nsearch_step_ns = 0", "search_step_ns"),
        ("[coarse]\nsearch_step_ns = 33", "search_step_ns"),  # does not divide T_s
        ("[fine]\nfine_step_ns = -1", "fine_step_ns"),
        ("[fine]\nn_symbols_avg = 0", "n_symbols_avg"),
        ("[coarse]\nsegment_origin_ns = 0", "segment_origin_ns"),  # before the PPM shift
        ("[coarse]\nsegment_origin_ns = -5", "segment_origin_ns"),
        ("[fine]\nt_corr_ns = 1500", "t_corr_ns"),  # scan passes its one-symbol guard
        ("[frame]\nn_chips = 39", "n_chips"),  # a code draw fits too rarely
        ("[frame]\nn_chips = 45", "n_chips"),
    ])
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        code = main(["sweep", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_env_seed_override(self, tiny_config, monkeypatch):
        monkeypatch.setenv("UWB_SYNC_SEED", "123456")
        plan = load_plan(tiny_config)
        assert plan.base_seed == 123456

    def test_inf_snr_parses(self, tiny_config):
        plan = load_plan(tiny_config)
        assert math.isinf(plan.snr_grid_db[0])


@st.composite
def frame_configs(draw):
    """Grid-aligned frame formats: every duration is whole samples."""
    sample_rate = draw(st.floats(1e8, 1e12))
    n_frames = draw(st.integers(1, 4))
    n_chips = draw(st.integers(1, 5))
    chip, shift, pulse, spare = (draw(st.integers(lo, 5)) for lo in (1, 0, 1, 0))
    frame = n_chips * chip + shift + pulse + spare
    return FrameConfig(
        n_frames_per_symbol=n_frames, frame_duration=frame / sample_rate,
        chip_duration=chip / sample_rate, n_chips=n_chips,
        ppm_shift=shift / sample_rate, pulse_duration=pulse / sample_rate,
        pulse_energy=draw(st.floats(0.0, 1e6)), th_code=[0] * n_frames,
        sample_rate=sample_rate)


@st.composite
def resolved_plans(draw):
    """Valid plans in the form load_plan returns (segment origin explicit)."""
    frame = draw(frame_configs())
    t_s = frame.symbol_duration
    return ExperimentPlan(
        snr_grid_db=draw(st.lists(st.floats(-60.0, 60.0) | st.just(math.inf),
                                  min_size=1, max_size=5, unique=True)),
        m_grid=draw(st.lists(st.integers(1, 4096), min_size=1, max_size=4,
                             unique=True)),
        modes=draw(st.lists(st.sampled_from(["nda", "da"]), min_size=1, max_size=2,
                            unique=True)),
        floors=draw(st.lists(st.sampled_from(["coarse_only", "coarse_plus_fine"]),
                             min_size=1, max_size=2, unique=True)),
        trials_per_cell=draw(st.integers(1, 10**6)),
        base_seed=draw(st.integers(0, 2**64)),
        frame_cfg=frame,
        coarse_cfg=CoarseConfig(search_step=t_s / draw(st.integers(1, 64)),
                                segment_origin=draw(st.floats(frame.ppm_shift, 1e-5))),
        fine_cfg=FineConfig(t_corr=draw(st.floats(0.0, t_s)),
                            fine_step=draw(st.floats(1e-13, 1e-8)),
                            n_symbols_avg=draw(st.integers(1, 64))),
        channel_model=draw(st.sampled_from(["cm1", "single_path"])),
        channel_max_delay=draw(st.floats(1e-12, 1e-6)),
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=resolved_plans())
def test_manifest_reloads_any_plan_exactly(plan, tmp_path, monkeypatch):
    monkeypatch.delenv("UWB_SYNC_SEED", raising=False)
    path = tmp_path / "manifest.cfg"
    path.write_text(plan_to_config_text(plan))
    assert load_plan(path) == plan


class TestSweepCommand:
    def test_writes_expected_rows_and_is_deterministic(self, tmp_path, tiny_config):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["sweep", str(tiny_config), "--out", str(out1)]) == 0
        assert main(["sweep", str(tiny_config), "--out", str(out2)]) == 0
        csv1 = (out1 / "results.csv").read_bytes()
        csv2 = (out2 / "results.csv").read_bytes()
        assert csv1 == csv2
        lines = csv1.decode().splitlines()
        assert len(lines) == 1 + 2 * 1 * 1 * 2  # header + snr*m*mode*floor
        plan = load_plan(tiny_config)
        assert load_plan(out1 / "manifest.cfg") == plan

    def test_reports_the_workers_it_uses(self, tmp_path, capsys):
        # One group runs serially whatever --threads asks for, so this
        # starts no process.
        path = tmp_path / "one_group.cfg"
        path.write_text(TINY_CONFIG.replace("inf, 10", "inf")
                        .replace("trials_per_cell = 2", "trials_per_cell = 1"))
        assert main(["sweep", str(path), "--threads", "50",
                     "--out", str(tmp_path / "o")]) == 0
        assert "running 1 trial groups x 1 trials (1 worker(s))" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_threads_below_one_exits_2(self, tmp_path, tiny_config, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(tiny_config), f"--threads={value}",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--threads: expected a whole number >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_segment_origin_many_symbols_in(self, tmp_path):
        # The record grows by the whole symbols the origin lies past the first.
        path = tmp_path / "far_origin.cfg"
        path.write_text(TINY_CONFIG.replace("inf, 10", "10")
                        .replace("trials_per_cell = 2", "trials_per_cell = 1")
                        + "\n[coarse]\nsegment_origin_ns = 20000\n")
        assert main(["sweep", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_dump_objectives(self, tmp_path, tiny_config):
        out = tmp_path / "dump"
        assert main(["sweep", str(tiny_config), "--out", str(out),
                     "--dump-objectives"]) == 0
        dumps = list(out.glob("objective_coarse_*.txt"))
        assert len(dumps) == 2  # one per (snr, m, mode) group
        two_col = dumps[0].read_text().splitlines()
        assert all(len(line.split()) == 2 for line in two_col)


class TestDemoCommand:
    def test_noiseless_demo_reports_tiny_fine_error(self, tmp_path, capsys):
        # Noiseless oracle needs the identity channel; under multipath the
        # blind fine estimate carries the (unknowable) channel-energy bias.
        cfg_path = tmp_path / "sp.cfg"
        cfg_path.write_text("[channel]\nmodel = single_path\n")
        code = main(["demo", "--snr", "inf", "--mode", "da", "--seed", "1",
                     "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        fine_line = [l for l in out.splitlines() if l.startswith("fine")][0]
        err_ns = abs(float(fine_line.split("error")[1].split("ns")[0]))
        assert err_ns <= 0.25
        assert (tmp_path / "demo_objective_coarse.txt").exists()
        assert (tmp_path / "demo_objective_fine.txt").exists()

    def test_config_base_seed_is_not_overridden(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("UWB_SYNC_SEED", raising=False)
        cfg_path = tmp_path / "seed1.cfg"
        cfg_path.write_text("[sweep]\nbase_seed = 1\n")
        outputs = []
        for flags in (["--config", str(cfg_path)], ["--seed", "1"]):
            assert main(["demo", "--m", "1", "--out", str(tmp_path)] + flags) == 0
            outputs.append([l for l in capsys.readouterr().out.splitlines()
                            if l.startswith("true offset")])
        assert outputs[0] == outputs[1] != []

    def test_degenerate_single_symbol_m(self, tmp_path):
        code = main(["demo", "--snr", "10", "--m", "1", "--mode", "nda",
                     "--seed", "2", "--out", str(tmp_path)])
        assert code == 0

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_mode_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--mode", "wat", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_bad_m_exits_2_naming_flag(self, tmp_path, capsys, m):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--m", m, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--m" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["abc", "nan", "-inf"])
    def test_bad_snr_exits_2_naming_key(self, tmp_path, capsys, snr):
        assert main(["demo", f"--snr={snr}", "--out", str(tmp_path)]) == 2
        assert "snr" in capsys.readouterr().err


class TestChannelCommand:
    def test_single_fixture_round_trips(self, tmp_path):
        out = tmp_path / "ch"
        assert main(["channel", "--seed", "0", "--count", "1",
                     "--out", str(out)]) == 0
        files = sorted(out.glob("taps_*.txt"))
        assert len(files) == 1
        ch = taps_from_text(files[0].read_text())
        g = np.asarray(ch.gains)
        assert abs(float(g @ g) - 1.0) <= 1e-9
        assert (out / "summary.txt").exists()

    def test_default_max_delay_matches_sweeps(self, tmp_path, monkeypatch):
        seen = []

        def recording(seed, max_delay):
            seen.append(max_delay)
            return generate_cm1(seed, max_delay)
        monkeypatch.setattr("uwbsync.cli.generate_cm1", recording)
        assert main(["channel", "--out", str(tmp_path)]) == 0
        assert seen == [25e-9]

    @pytest.mark.parametrize("value", ["abc", "nan", "1e400"])
    def test_bad_max_delay_asks_for_ns(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["channel", f"--max-delay-ns={value}", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-delay-ns: expected a finite number of ns" in err
        assert "_ns_to_s" not in err

    @pytest.mark.parametrize("command, flag, value", [
        ("channel", "--seed", "-1"),
        ("channel", "--seed", "abc"),
        ("channel", "--count", "-2"),
        ("demo", "--seed", "-1"),
    ])
    def test_negative_seed_or_count_exits_2_naming_flag(self, tmp_path, capsys,
                                                        command, flag, value):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a whole number >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_count_zero_writes_nothing(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["channel", "--count", "0", "--out", str(out)]) == 0
        assert list(out.glob("taps_*.txt")) == []

    def test_summary_mean_delay_spread_band(self, tmp_path):
        out = tmp_path / "many"
        assert main(["channel", "--seed", "3", "--count", "300",
                     "--out", str(out)]) == 0
        text = (out / "summary.txt").read_text().splitlines()[-1]
        mean_ns = float(text.split("=")[1])
        assert 3.0 <= mean_ns <= 7.0
