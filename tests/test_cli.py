"""CLI: config parsing, manifest round trip, subcommand behavior."""

import configparser
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from uwbsync import (ConfigError, CoarseConfig, ExperimentPlan, FineConfig,
                     FrameConfig)
from uwbsync import harness
from uwbsync.cli import (_KEY_OF_FIELD, _SCHEMA, _numpy_simd, _peak_rss_mb,
                         load_plan, main, plan_to_config_text)

from oracles import run_python

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
# The CI workflow sweeps the same configs and checks the same SHA256SUMS.
CI_CONFIGS = REPO_CONFIG.parent / "ci"

TINY_CONFIG = """\
[channel]
model = single_path

[sweep]
snr_grid_db = inf, 10
m_grid = 8
modes = da
trials_per_cell = 2
base_seed = 7
"""

# The one trial of a one-cell config.
ONE_CELL_CONFIG = """\
[channel]
model = {model}

[sweep]
snr_grid_db = {snr}
m_grid = {m}
modes = {mode}
trials_per_cell = 1
base_seed = {seed}
"""

# Values that need more than six significant digits to reload exactly.
LONG_DIGITS_CONFIG = """\
[channel]
max_delay_ns = 12.3456789

[fine]
fine_step_ns = 0.123456789

[sweep]
snr_grid_db = inf, 0.1234567
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestConfig:
    def test_load_shipped_default(self):
        plan = load_plan(REPO_CONFIG)
        assert plan == ExperimentPlan()
        assert plan.snr_grid_db == (0.0, 4.0, 8.0, 12.0, 16.0)
        assert plan.trials_per_cell == 200

    def test_shipped_default_sets_every_key(self):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        assert parser.read(REPO_CONFIG)
        missing = [(section, key) for section, key, _, _ in _SCHEMA
                   if not parser.has_option(section, key)]
        assert missing == []

    def test_manifest_round_trip(self, tmp_path, tiny_config):
        long_digits = tmp_path / "long_digits.cfg"
        long_digits.write_text(LONG_DIGITS_CONFIG)
        for path in (tiny_config, long_digits):
            plan = load_plan(path)
            manifest = tmp_path / "manifest.cfg"
            manifest.write_text(plan_to_config_text(plan, run_info={"tool_version": "x"}))
            assert load_plan(manifest) == plan
        assert plan.fine_cfg.fine_step == 0.123456789e-9
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
        ("[sweep]\nsnr_grid_db = 1e400", "snr_grid_db"),  # overflows, not 'inf'
        ("[sweep]\nsnr_grid_db = 3090", "snr_grid_db"),  # 10 ** 309 overflows
        ("[sweep]\nsnr_grid_db = -3000", "snr_grid_db"),  # the noise level overflows
        ("[sweep]\nsnr_grid_db = -4000", "snr_grid_db"),  # 10 ** -400 is 0
        ("[sweep]\nm_grid = 0", "m_grid"),
        ("[sweep]\nm_grid = -3", "m_grid"),
        ("[fine]\nvariant = th_matched", "variant"),  # removed key
        ("[frame]\nth_code_seed = 0", "th_code_seed"),  # removed key
        ("[frame]\nth_code = 0, 1", "th_code"),  # removed key
        ("[coarse]\nsegment_origin_ns = 1120", "segment_origin_ns"),  # removed key
        ("[frame]\npulse_energy = 1.0", "pulse_energy"),  # removed key
        ("[frame]\nppm_shift_ns = nan", "ppm_shift_ns: 'nan' is not finite"),
        ("[frame]\nppm_shift_ns = 0", "ppm_shift_ns"),  # no PPM: r(t+d) - r(t-d) = 0
        ("[frame]\npulse_duration_ns = 0.00000001", "pulse_duration_ns"),
        ("[frame]\nchip_duration_ns = 0.00000001", "chip_duration_ns"),
        ("[channel]\nmax_delay_ns = -5", "max_delay_ns"),
        ("[channel]\nmax_delay_ns = 0", "max_delay_ns"),
        ("[channel]\nmax_delay_ns = 1e400", "max_delay_ns"),
        ("[fine]\nt_corr_ns = 1e400", "t_corr_ns"),
        ("[fine]\nt_corr_ns = inf", "t_corr_ns: 'inf' is not finite"),
        ("[sweep]\nsnr_grid_db = 0, 8, 0", "snr_grid_db"),
        ("[sweep]\nm_grid = 8, 8", "m_grid"),
        ("[sweep]\nmodes = da, da", "modes"),
        ("[sweep]\nmodes = nda, xx", "modes"),
        ("[channel]\nmodel = cm2", "model:"),
        ("[sweep]\ntrials_per_cell = 0", "trials_per_cell:"),
        ("[sweep]\nfloors = coarse_only", "floors"),  # removed key
        ("[sweep]\nm_grid =", "m_grid"),
        ("[sweep]\nbase_seed = -1", "base_seed"),
        ("[DEFAULT]\nm_gird = 8", "DEFAULT"),
        ("[frame]\nframe_duration_ns = -35", "frame_duration_ns"),
        ("[frame]\nframe_duration_ns = 1.5", "frame_duration_ns"),  # pulse leaks out
        ("[frame]\nsample_rate_ghz = 0", "sample_rate_ghz"),
        ("[coarse]\nsearch_step_ns = 0", "search_step_ns"),
        ("[coarse]\nsearch_step_ns = -35", "search_step_ns"),
        ("[coarse]\nsearch_step_ns = 33", "search_step_ns"),  # does not divide T_s
        ("[coarse]\nsearch_step_ns = 0.035", "search_step_ns"),  # 1.75 samples
        ("[fine]\nfine_step_ns = -1", "fine_step_ns"),
        ("[fine]\nfine_step_ns = 0.001", "fine_step_ns"),  # 0.05 samples
        ("[fine]\nfine_step_ns = 0.019", "fine_step_ns"),  # 0.95 samples
        ("[fine]\nn_symbols_avg = 0", "n_symbols_avg"),
        ("[fine]\nt_corr_ns = 1500", "t_corr_ns"),  # scan passes its one-symbol guard
        ("[sweep]\nm_grid = 8\nm_grid = 16", "m_grid"),  # repeated key
        ("[sweep]\nm_grid = 8\n[sweep]\nmodes = nda", "sweep"),  # repeated section
        ("m_grid = 8\n[sweep]", "m_grid"),  # key before any section header
        ("[sweep]\nm_grid", "m_grid"),  # key without a value
    ])
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        code = main(["sweep", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err
        assert "e-9" not in err  # the unit's exponent is never quoted back
        assert not (tmp_path / "o").exists()

    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"[sweep]\nm_grid = 8\xff\n")
        code = main(["sweep", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err and "UTF-8" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_missing_file_is_named_as_a_plain_path(self, tmp_path):
        path = tmp_path / "nope.cfg"
        with pytest.raises(ConfigError) as exc:
            load_plan(path)
        assert f"config file {str(path)!r} not found" in str(exc.value)

    def test_inf_snr_parses(self, tiny_config):
        plan = load_plan(tiny_config)
        assert math.isinf(plan.snr_grid_db[0])

    @pytest.mark.parametrize("token", ["+inf", "INF", "Infinity", "+infinity"])
    def test_spelled_infinity_is_noiseless(self, tmp_path, token):
        path = tmp_path / "snr.cfg"
        path.write_text(f"[sweep]\nsnr_grid_db = {token}\n")
        assert load_plan(path).snr_grid_db == (math.inf,)

    @pytest.mark.parametrize("token", ["0.8", "8e-1", "800e-3", "0.08E1"])
    def test_exponent_tokens_load_the_same_double(self, tmp_path, token):
        # The default pulse duration is the literal 0.8e-9, however it is written.
        path = tmp_path / "pulse.cfg"
        path.write_text(f"[frame]\npulse_duration_ns = {token}\n")
        assert load_plan(path) == ExperimentPlan()


@st.composite
def frame_configs(draw):
    """Grid-aligned frame formats: every duration is whole samples."""
    sample_rate = draw(st.floats(1e8, 1e12))
    n_frames = draw(st.integers(1, 4))
    n_chips = draw(st.integers(1, 5))
    chip, shift, pulse, spare = (draw(st.integers(lo, 5)) for lo in (1, 1, 1, 0))
    frame = n_chips * chip + shift + pulse + spare
    return FrameConfig(
        n_frames_per_symbol=n_frames, frame_duration=frame / sample_rate,
        chip_duration=chip / sample_rate, n_chips=n_chips,
        ppm_shift=shift / sample_rate, pulse_duration=pulse / sample_rate,
        th_code=[0] * n_frames,
        sample_rate=sample_rate)


@st.composite
def valid_plans(draw):
    """Valid plans, every config key drawn."""
    frame = draw(frame_configs())
    t_s = frame.symbol_duration
    n_s = frame.n_symbol_samples
    n_grid = draw(st.sampled_from([n for n in range(1, n_s + 1) if n_s % n == 0]))
    return ExperimentPlan(
        snr_grid_db=draw(st.lists(st.floats(-60.0, 60.0) | st.just(math.inf),
                                  min_size=1, max_size=5, unique=True)),
        m_grid=draw(st.lists(st.integers(1, 4096), min_size=1, max_size=4,
                             unique=True)),
        modes=draw(st.lists(st.sampled_from(["nda", "da"]), min_size=1, max_size=2,
                            unique=True)),
        trials_per_cell=draw(st.integers(1, 10**6)),
        base_seed=draw(st.integers(0, 2**64)),
        frame_cfg=frame,
        coarse_cfg=CoarseConfig(search_step=t_s / n_grid),
        fine_cfg=FineConfig(t_corr=draw(st.floats(0.0, t_s)),
                            fine_step=draw(st.floats(1.0, 1e4)) / frame.sample_rate,
                            n_symbols_avg=draw(st.integers(1, 64))),
        channel_model=draw(st.sampled_from(["cm1", "single_path"])),
        channel_max_delay=draw(st.floats(1e-12, 1e-6)),
    )


@st.composite
def small_plan_fields(draw):
    """Every config key drawn, valid or not, on small on-grid formats: M,
    the averaging depth and the scans are capped so a trial takes
    milliseconds."""
    frame = draw(frame_configs())
    fs = frame.sample_rate
    n_s = frame.n_symbol_samples
    # Mostly steps that divide the symbol, so that most plans load.
    divisors = [n for n in range(1, n_s + 1) if n_s % n == 0]
    snr = st.sampled_from([math.inf, 300.0, -300.0]) | st.floats(-60.0, 60.0)
    return dict(
        snr_grid_db=draw(st.lists(snr, min_size=1, max_size=2, unique=True)),
        m_grid=draw(st.lists(st.integers(1, 8), min_size=1, max_size=2, unique=True)),
        modes=draw(st.lists(st.sampled_from(["nda", "da"]), min_size=1, max_size=2,
                            unique=True)),
        base_seed=draw(st.integers(0, 2**64)),
        frame_cfg=frame,
        coarse_cfg=CoarseConfig(search_step=draw(
            st.sampled_from(divisors) | st.integers(1, n_s)) / fs),
        fine_cfg=FineConfig(t_corr=draw(st.floats(0.0, 2.5 * frame.symbol_duration)),
                            fine_step=draw(st.floats(0.5, 50.0)) / fs,
                            n_symbols_avg=draw(st.integers(1, 8))),
        channel_model=draw(st.sampled_from(["cm1", "single_path"])),
    )


@settings(max_examples=300, deadline=None)
@given(kwargs=small_plan_fields())
def test_every_plan_that_loads_also_runs(kwargs):
    # A plan is refused by a key's name, or trial 0 of each of its groups
    # runs and estimates within one symbol.
    try:
        plan = ExperimentPlan(trials_per_cell=1, **kwargs)
    except ConfigError as exc:
        assert exc.field in _KEY_OF_FIELD
        return
    t_s = plan.frame_cfg.symbol_duration
    for gi, (snr, m, mode) in enumerate(plan.groups()):
        res = harness.run_trial(plan, snr, m, mode, 0, gi)
        assert 0.0 <= res.tau_hat_coarse < t_s
        assert 0.0 <= res.tau_hat_fine < t_s


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=valid_plans(), env_seed=st.integers(0, 2**64))
def test_manifest_reloads_any_plan_exactly(plan, env_seed, tmp_path, monkeypatch):
    # The file is the whole run: a seed in the environment changes nothing.
    monkeypatch.setenv("UWB_SYNC_SEED", str(env_seed))
    path = tmp_path / "manifest.cfg"
    path.write_text(plan_to_config_text(plan))
    assert load_plan(path) == plan


def test_every_plan_field_is_a_config_key():
    # So the manifest holds the whole plan, and the round trip above
    # covers every field.  th_code is no key: a plan refuses a code of its
    # own, since every trial draws one.
    plan = ExperimentPlan()
    leaves = []
    for f in fields(plan):
        value = getattr(plan, f.name)
        if is_dataclass(value):
            leaves += [f"{f.name}.{g.name}" for g in fields(value)]
        else:
            leaves.append(f.name)
    leaves.remove("frame_cfg.th_code")
    assert sorted(leaves) == sorted(field for _, _, field, _ in _SCHEMA)


def test_no_module_reads_the_environment():
    # The config file is the whole run; the test above sets one variable,
    # this one checks that no module can read any.
    src = Path(__file__).resolve().parents[1] / "src" / "uwbsync"
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        for word in ("os.environ", "getenv", "putenv"):
            assert word not in text, f"{path.name} mentions {word}"


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(snr=st.floats(allow_nan=False, allow_infinity=False))
def test_any_finite_snr_runs_or_exits_2_naming_it(snr, tmp_path, capsys):
    path = tmp_path / "snr.cfg"
    path.write_text(ONE_CELL_CONFIG.format(model="single_path", snr=repr(snr), m=1,
                                           mode="nda", seed=0))
    out = tmp_path / "o"
    shutil.rmtree(out, ignore_errors=True)
    code = main(["sweep", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        assert "snr_grid_db" in err
        assert not out.exists()
    else:
        assert code == 0, err


class TestSweepCommand:
    def test_writes_expected_rows_and_is_deterministic(self, tmp_path, tiny_config):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["sweep", str(tiny_config), "--out", str(out1)]) == 0
        assert main(["sweep", str(tiny_config), "--threads", "2",
                     "--out", str(out2)]) == 0
        csv1 = (out1 / "results.csv").read_bytes()
        csv2 = (out2 / "results.csv").read_bytes()
        assert csv1 == csv2
        lines = csv1.decode().splitlines()
        assert len(lines) == 1 + 2 * 1 * 1 * 2  # header + snr*m*mode*floor
        plan = load_plan(tiny_config)
        assert load_plan(out1 / "manifest.cfg") == plan
        # The manifest says how the run went, and replays it byte for byte.
        manifest = configparser.ConfigParser()
        manifest.read(out2 / "manifest.cfg")
        run_info = manifest["run_info"]
        assert int(run_info["workers"]) == harness.sweep_workers(plan, 2)
        assert run_info["numpy_version"] == np.__version__
        assert run_info["numpy_simd"] == str(np.show_config(mode="dicts")["SIMD Extensions"])
        assert float(run_info["sweep_wall_s"]) > 0
        assert float(run_info["peak_rss_mb"]) > 0
        replay = tmp_path / "replay"
        assert main(["sweep", str(out2 / "manifest.cfg"), "--out", str(replay)]) == 0
        assert (replay / "results.csv").read_bytes() == csv2

    def test_simd_targets_are_unknown_on_a_numpy_without_dict_config(self,
                                                                    monkeypatch):
        # numpy 1.24's show_config takes no mode.
        monkeypatch.setattr(np, "show_config", lambda: None)
        assert _numpy_simd() == "unknown"

    @pytest.mark.parametrize("platform, maxrss", [("linux", 45 * 2**10),
                                                  ("darwin", 45 * 2**20)])
    def test_peak_rss_is_in_mb_on_linux_and_macos(self, monkeypatch, platform,
                                                 maxrss):
        # ru_maxrss counts KiB on Linux and bytes on macOS.
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(resource, "getrusage",
                            lambda who: SimpleNamespace(ru_maxrss=maxrss))
        monkeypatch.setattr(sys, "platform", platform)
        assert _peak_rss_mb() == "45.0"

    def test_peak_rss_is_unknown_without_resource(self, monkeypatch):
        # Windows has no resource module.
        monkeypatch.setitem(sys.modules, "resource", None)
        assert _peak_rss_mb() == "unknown"

    def test_reports_the_workers_it_uses(self, tmp_path, capsys):
        # One trial runs serially whatever --threads asks for, so this
        # starts no pool.
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

    def test_dump_objectives(self, tmp_path, tiny_config):
        out = tmp_path / "dump"
        assert main(["sweep", str(tiny_config), "--out", str(out),
                     "--dump-objectives"]) == 0
        dumps = list(out.glob("objective_coarse_*.txt"))
        assert len(dumps) == 2  # one per (snr, m, mode) group
        rows = [line.split() for line in dumps[0].read_text().splitlines()]
        assert all(len(row) == 2 for row in rows)
        assert [float(x) for x, _ in rows[:2]] == [0.0, 35.0]  # tau in ns
        assert all(math.isfinite(float(y)) for _, y in rows)

    def test_close_snrs_keep_distinct_labels(self, tmp_path):
        # Both values print as "10" at six significant digits.
        path = tmp_path / "close.cfg"
        path.write_text("[channel]\nmodel = single_path\n[sweep]\n"
                        "snr_grid_db = 10.0000001, 10.0000002\nm_grid = 4\n"
                        "modes = nda\ntrials_per_cell = 1\n")
        out = tmp_path / "o"
        assert main(["sweep", str(path), "--out", str(out), "--dump-objectives"]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [
            10.0000001, 10.0000001, 10.0000002, 10.0000002]
        assert sorted(f.name for f in out.glob("objective_fine_*.txt")) == [
            "objective_fine_snr10.0000001_m4_nda.txt",
            "objective_fine_snr10.0000002_m4_nda.txt"]


TRIAL_LINE = re.compile(
    r"^(\S+) trial 0: true offset (\S+) ns, coarse tau1 (\S+) ns \(error (\S+) ns\), "
    r"fine tau2 (\S+) ns \(error (\S+) ns\)$", re.MULTILINE)


def test_dump_objectives_reports_the_sweeps_own_trial_0(tmp_path, capsys, monkeypatch):
    path = tmp_path / "two_groups.cfg"
    path.write_text(ONE_CELL_CONFIG.format(model="single_path", snr="10", m=8,
                                           mode="nda, da", seed=3)
                    .replace("trials_per_cell = 1", "trials_per_cell = 3"))
    built = []
    build_trial_scene = harness.build_trial_scene

    def spy(*args, **kwargs):
        built.append(args[4:6])  # (trial, group)
        return build_trial_scene(*args, **kwargs)

    monkeypatch.setattr(harness, "build_trial_scene", spy)
    out = tmp_path / "o"
    assert main(["sweep", str(path), "--threads", "1", "--out", str(out),
                 "--dump-objectives"]) == 0
    assert built == [(t, g) for g in range(2) for t in range(3)]
    lines = TRIAL_LINE.findall(capsys.readouterr().out)
    plan = load_plan(path)
    trials = harness.run_trials(plan)
    assert [line[0] for line in lines] == ["snr10_m8_nda", "snr10_m8_da"]
    for gi, (tag, dtau, tau1, _, tau2, _) in enumerate(lines):
        trial = trials[gi * plan.trials_per_cell]
        assert (dtau, tau1, tau2) == tuple(
            f"{x * 1e9:.4f}" for x in (trial.delta_tau_true, trial.tau_hat_coarse,
                                       trial.tau_hat_fine))
        for floor, curve in zip(("coarse", "fine"), trial.objectives):
            rows = (out / f"objective_{floor}_{tag}.txt").read_text().splitlines()
            assert [float(row.split()[1]) for row in rows] == curve.tolist()


class TestCiPins:
    """Each output pinned in configs/ci/SHA256SUMS, made as CI makes it."""

    @staticmethod
    def sweep(config, out, *flags):
        assert main(["sweep", str(config), "--out", str(out), *flags]) == 0

    @staticmethod
    def assert_pinned(root, out_dir):
        lines = [line.split() for line in
                 (CI_CONFIGS / "SHA256SUMS").read_text().splitlines()]
        pins = [(digest, name) for digest, name in lines
                if name.startswith(out_dir + "/")]
        assert pins
        for digest, name in pins:
            assert hashlib.sha256((root / name).read_bytes()).hexdigest() == digest, name

    def test_one_group_on_1_and_2_workers_and_its_manifest(self, tmp_path,
                                                           monkeypatch):
        # One worker on two or more CPUs draws each record's noise on two
        # threads; two workers draw on one thread each below four CPUs.  The
        # dumped curves come back from a pool worker at two workers.
        self.sweep(CI_CONFIGS / "one_group.cfg", tmp_path / "out_t1", "--threads", "1",
                   "--dump-objectives")
        self.sweep(CI_CONFIGS / "one_group.cfg", tmp_path / "out_t2", "--threads", "2",
                   "--dump-objectives")
        # Nothing outside the file changes a run, a seed in the environment
        # included.
        monkeypatch.setenv("UWB_SYNC_SEED", "5")
        self.sweep(tmp_path / "out_t1" / "manifest.cfg", tmp_path / "out_manifest",
                   "--threads", "2")
        self.assert_pinned(tmp_path, "out_t1")
        csv = (tmp_path / "out_t1" / "results.csv").read_bytes()
        for other in ("out_t2", "out_manifest"):
            assert (tmp_path / other / "results.csv").read_bytes() == csv
        dumps = sorted(f.name for f in (tmp_path / "out_t1").glob("objective_*.txt"))
        assert dumps == ["objective_coarse_snr12_m8_nda.txt",
                         "objective_fine_snr12_m8_nda.txt"]
        for name in dumps:
            assert ((tmp_path / "out_t2" / name).read_bytes()
                    == (tmp_path / "out_t1" / name).read_bytes()), name

    def test_ties_on_1_and_2_workers(self, tmp_path):
        self.sweep(CI_CONFIGS / "ties.cfg", tmp_path / "out_ties_t1", "--threads", "1")
        self.sweep(CI_CONFIGS / "ties.cfg", tmp_path / "out_ties_t2", "--threads", "2")
        self.assert_pinned(tmp_path, "out_ties_t1")
        assert ((tmp_path / "out_ties_t2" / "results.csv").read_bytes()
                == (tmp_path / "out_ties_t1" / "results.csv").read_bytes())

    def test_one_cell_dump(self, tmp_path):
        self.sweep(CI_CONFIGS / "one_cell.cfg", tmp_path / "out_one_cell",
                   "--dump-objectives")
        self.assert_pinned(tmp_path, "out_one_cell")

    def test_one_cell_dump_on_every_numpy_dispatch_target(self, tmp_path):
        # numpy picks its loops for the CPU it runs on.  Switching its
        # targets above the baseline off, from the highest down, stands in
        # for older CPUs: AVX-512's exp loop once moved the pulse by an ulp.
        found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
        for i in range(1, len(found) + 1):
            root = tmp_path / f"off{i}"
            argv = ["sweep", str(CI_CONFIGS / "one_cell.cfg"), "--dump-objectives",
                    "--out", str(root / "out_one_cell")]
            run_python(f"from uwbsync.cli import main; assert main({argv!r}) == 0",
                       NPY_DISABLE_CPU_FEATURES=" ".join(found[-i:]))
            self.assert_pinned(root, "out_one_cell")


class TestDemoCommand:
    """A demo is the one-cell sweep of one trial, with --dump-objectives."""

    def run_one_cell(self, tmp_path, capsys, **cell):
        path = tmp_path / "cell.cfg"
        path.write_text(ONE_CELL_CONFIG.format(**cell))
        out = tmp_path / "cell"
        code = main(["sweep", str(path), "--out", str(out), "--dump-objectives"])
        return code, out, TRIAL_LINE.findall(capsys.readouterr().out)

    def test_noiseless_demo_reports_tiny_fine_error(self, tmp_path, capsys):
        # Noiseless oracle needs the identity channel; under multipath the
        # blind fine estimate carries the (unknowable) channel-energy bias.
        code, out, lines = self.run_one_cell(tmp_path, capsys, model="single_path",
                                             snr="inf", m=16, mode="da", seed=1)
        assert code == 0
        [(tag, _, _, _, _, fine_err)] = lines
        assert tag == "snrinf_m16_da"
        assert abs(float(fine_err)) <= 0.25
        assert (out / "objective_coarse_snrinf_m16_da.txt").exists()
        assert (out / "objective_fine_snrinf_m16_da.txt").exists()

    def test_degenerate_single_symbol_m(self, tmp_path, capsys):
        code, _, lines = self.run_one_cell(tmp_path, capsys, model="cm1",
                                           snr="10", m=1, mode="nda", seed=2)
        assert code == 0
        assert [line[0] for line in lines] == ["snr10_m1_nda"]

    def test_printed_coarse_estimate_is_the_dumped_argmax(self, tmp_path, capsys):
        code, out, lines = self.run_one_cell(tmp_path, capsys, model="cm1",
                                             snr="10", m=16, mode="da", seed=7)
        assert code == 0
        [(tag, _, tau1, _, _, _)] = lines
        rows = [line.split() for line in
                (out / f"objective_coarse_{tag}.txt").read_text().splitlines()]
        values = [float(y) for _, y in rows]
        assert f"{float(rows[values.index(max(values))][0]):.4f}" == tau1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def assert_invalid_choice(tmp_path, capsys, command):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(out)])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err
    assert not out.exists()


def test_channel_command_is_gone(tmp_path, capsys):
    assert_invalid_choice(tmp_path, capsys, "channel")


def test_demo_command_is_gone(tmp_path, capsys):
    assert_invalid_choice(tmp_path, capsys, "demo")


def test_cli_module_runs_without_warnings():
    # `python -m uwbsync.cli` imports the package first; if the package
    # imported uwbsync.cli itself, runpy would warn that the module is
    # already loaded, so uwbsync/__init__ must not import the CLI.
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "uwbsync.cli", "--version"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
