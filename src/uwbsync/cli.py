"""Command-line front end: config-driven sweeps, single-trial demos, fixtures.

The config format is flat key/value text with sections (INI).  Times are
given in nanoseconds, rates in GHz; everything else is dimensionless.
A sweep writes ``results.csv`` plus a fully resolved ``manifest.cfg`` that
can itself be loaded as a config, reproducing the run bit-exactly.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from dataclasses import replace
from decimal import Decimal
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__
from .waveform import ConfigError, FrameConfig
from .channel import (DEFAULT_MAX_DELAY, generate_cm1, rms_delay_spread,
                      taps_to_text, snr_ref_samples)
from .sync import CoarseConfig, FineConfig
from .harness import (ExperimentPlan, records_to_csv, run_sweep, sweep_workers,
                      sync_trial, wrapped_error)

ENV_SEED = "UWB_SYNC_SEED"

# The config schema, one row per key: (section, key, plan field, unit).
# The rows drive parsing, rendering and the unknown-key check.  A dotted
# field belongs to a nested config; a key a config leaves out takes that
# field's dataclass default.  A unit ending in " list" is comma-separated.
_SCHEMA = (
    ("frame", "n_frames_per_symbol", "frame_cfg.n_frames_per_symbol", "int"),
    ("frame", "frame_duration_ns", "frame_cfg.frame_duration", "ns"),
    ("frame", "chip_duration_ns", "frame_cfg.chip_duration", "ns"),
    ("frame", "n_chips", "frame_cfg.n_chips", "int"),
    ("frame", "ppm_shift_ns", "frame_cfg.ppm_shift", "ns"),
    ("frame", "pulse_duration_ns", "frame_cfg.pulse_duration", "ns"),
    ("frame", "pulse_energy", "frame_cfg.pulse_energy", "float"),
    ("frame", "sample_rate_ghz", "frame_cfg.sample_rate", "GHz"),
    ("channel", "model", "channel_model", "str"),
    ("channel", "max_delay_ns", "channel_max_delay", "ns"),
    ("coarse", "search_step_ns", "coarse_cfg.search_step", "ns"),
    ("coarse", "segment_origin_ns", "coarse_cfg.segment_origin", "ns"),
    ("fine", "t_corr_ns", "fine_cfg.t_corr", "ns"),
    ("fine", "fine_step_ns", "fine_cfg.fine_step", "ns"),
    ("fine", "n_symbols_avg", "fine_cfg.n_symbols_avg", "int"),
    ("sweep", "snr_grid_db", "snr_grid_db", "dB list"),
    ("sweep", "m_grid", "m_grid", "int list"),
    ("sweep", "modes", "modes", "str list"),
    ("sweep", "floors", "floors", "str list"),
    ("sweep", "trials_per_cell", "trials_per_cell", "int"),
    ("sweep", "base_seed", "base_seed", "int"),
)
_IGNORED_SECTION = "run_info"  # written to manifests; ignored on load
# Field names are unique across the plan and its nested configs, so the
# field a config dataclass rejects (ConfigError.field) finds its key.
_KEY_OF_FIELD = {field.rpartition(".")[2]: key for _, key, field, _ in _SCHEMA}


def _ns_to_s(token) -> float:
    """Parse a nanosecond token into seconds without a scaling round-off.

    "35.0" becomes float("35.0e-9"), which is bit-identical to the literal
    35e-9 the library defaults use; multiplying by 1e-9 is not.
    """
    tok = str(token).strip()
    if "e" in tok.lower():
        return float(tok) * 1e-9
    return float(tok + "e-9")


def _ghz_to_hz(token) -> float:
    tok = str(token).strip()
    if "e" in tok.lower():
        return float(tok) * 1e9
    return float(tok + "e9")


def _exact_token(value: float, unit_exp: int) -> str:
    """Plain decimal token t with float(f"{t}e{unit_exp}") == value.

    The shortest round-trip decimal of ``value``, shifted by the unit's
    power of ten, is the same number, so ``_ns_to_s`` (unit_exp -9) and
    ``_ghz_to_hz`` (unit_exp 9) parse it back to the same double.
    """
    return format(Decimal(repr(value)).scaleb(-unit_exp).normalize(), "f")


def _finite(conv):
    def parse(token):
        value = conv(token)
        if not math.isfinite(value):
            raise ValueError(f"{token!r} is not finite")
        return value
    return parse


_UNITS = {  # unit -> (parse a token, render a value as a token)
    "int": (int, str),
    "str": (str, str),
    "float": (_finite(float), repr),
    "dB": (float, repr),  # +inf is noiseless; ExperimentPlan rejects nan, -inf
    "ns": (_finite(_ns_to_s), lambda v: _exact_token(v, -9)),
    "GHz": (_finite(_ghz_to_hz), lambda v: _exact_token(v, 9)),
}


def _parse(key: str, unit: str, text: str):
    """Parse one value of ``unit``, naming ``key`` if it is invalid."""
    conv = _UNITS[unit.removesuffix(" list")][0]
    try:
        if unit.endswith(" list"):
            return tuple(conv(tok.strip()) for tok in text.split(",") if tok.strip())
        return conv(text.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _render(unit: str, value) -> str:
    render = _UNITS[unit.removesuffix(" list")][1]
    if unit.endswith(" list"):
        return ", ".join(render(v) for v in value)
    return render(value)


def _ns_arg(token: str) -> float:
    """argparse type for a duration flag: a finite number of ns, in seconds."""
    try:
        return _finite(_ns_to_s)(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of ns, got {token!r}") from None


def _whole_number_arg(minimum: int):
    """argparse type for a count or seed flag: a whole number >= ``minimum``."""
    def parse(token: str) -> int:
        if not token.isdecimal() or int(token) < minimum:
            raise argparse.ArgumentTypeError(
                f"expected a whole number >= {minimum}, got {token!r}")
        return int(token)
    return parse


def _env_seed(default):
    """The base seed in UWB_SYNC_SEED if it is set, else ``default``."""
    env = os.environ.get(ENV_SEED)
    return _parse(ENV_SEED, "int", env) if env else default


def load_plan(path) -> ExperimentPlan:
    """Parse and validate a config file into a fully resolved plan.

    Unknown sections or keys are configuration errors: a misspelled key
    should fail loudly, not silently fall back to a default.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigError(f"config file {path!r} not found or unreadable")
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    known = {(section, key) for section, key, _, _ in _SCHEMA}
    for section in parser.sections():
        if section == _IGNORED_SECTION:
            continue
        if section not in {s for s, _ in known}:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    values = {"": {}, "frame_cfg": {}, "coarse_cfg": {}, "fine_cfg": {}}
    for section, key, field, unit in _SCHEMA:
        if parser.has_option(section, key):
            owner, _, name = field.rpartition(".")
            values[owner][name] = _parse(key, unit, parser.get(section, key))
    top = values[""]
    top["base_seed"] = _env_seed(top.get("base_seed", ExperimentPlan.base_seed))
    try:
        return ExperimentPlan(
            frame_cfg=FrameConfig(**values["frame_cfg"]),
            coarse_cfg=CoarseConfig(**values["coarse_cfg"]),
            fine_cfg=FineConfig(**values["fine_cfg"]),
            **top,
        )
    except ConfigError as exc:
        key = _KEY_OF_FIELD.get(exc.field)
        if key is None:
            raise
        raise ConfigError(f"{key}: {exc}") from exc


def plan_to_config_text(plan: ExperimentPlan, run_info: dict | None = None) -> str:
    """Render a plan as a loadable config (used for the run manifest).

    Every float is written as a token that parses back to the same
    double, so loading the manifest reproduces the plan exactly.
    """
    blocks = []
    for section, rows in groupby(_SCHEMA, key=lambda row: row[0]):
        lines = [f"[{section}]"]
        for _, key, field, unit in rows:
            value = plan
            for name in field.split("."):
                value = getattr(value, name)
            lines.append(f"{key} = {_render(unit, value)}")
        blocks.append(lines)
    if run_info:
        blocks.append([f"[{_IGNORED_SECTION}]"]
                      + [f"{k} = {v}" for k, v in run_info.items()])
    return "\n\n".join("\n".join(lines) for lines in blocks) + "\n"


def _snr_definition_line(plan: ExperimentPlan) -> str:
    n_ref = snr_ref_samples(plan.frame_cfg)
    return (
        "SNR definition: received per-symbol template energy over the "
        f"expected noise energy within half a chip duration ({n_ref} samples)."
    )


def _write_objective(path: Path, xs, ys) -> None:
    with open(path, "w") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{x!r} {y!r}\n")


def cmd_sweep(args) -> int:
    try:
        plan = load_plan(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    print(_snr_definition_line(plan))
    n_groups = len(plan.groups())
    print(f"running {n_groups} trial groups x {plan.trials_per_cell} trials "
          f"({sweep_workers(plan, args.threads)} worker(s))...")
    records = run_sweep(plan, n_workers=args.threads)
    csv_text = records_to_csv(records)
    (out_dir / "results.csv").write_text(csv_text)
    manifest = plan_to_config_text(plan, run_info={
        "tool_version": __version__,
        "config_path": str(args.config),
        "started_utc": started,
        "results_csv": str(out_dir / "results.csv"),
    })
    (out_dir / "manifest.cfg").write_text(manifest)
    if args.dump_objectives:
        _dump_objectives(plan, out_dir)
    print(csv_text, end="")
    print(f"wrote {out_dir / 'results.csv'} and {out_dir / 'manifest.cfg'}")
    return 0


def _dump_objectives(plan: ExperimentPlan, out_dir: Path) -> None:
    """Objective curves of trial 0 of every cell, as two-column text."""
    for gi, (snr, m, mode) in enumerate(plan.groups()):
        _, est = sync_trial(plan, snr, m, mode, 0, gi)
        tag = f"snr{snr:g}_m{m}_{mode}".replace("-", "m")
        _write_objective(out_dir / f"objective_coarse_{tag}.txt",
                         est.coarse_taus * 1e9, est.coarse_objective)
        _write_objective(out_dir / f"objective_fine_{tag}.txt",
                         est.fine_offsets * plan.fine_cfg.fine_step * 1e9,
                         est.fine_objective)


def cmd_demo(args) -> int:
    try:
        plan = load_plan(args.config) if args.config else ExperimentPlan()
        seed = _env_seed(args.seed)  # env > --seed > config
        if seed is not None:
            plan = replace(plan, base_seed=seed)
        snr = _parse("snr", "dB", args.snr)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(_snr_definition_line(plan))

    # Single trial, reported in ns, with both objective curves written out.
    scene, est = sync_trial(plan, snr, args.m, args.mode, 0, 0)

    t_s = scene.cfg.symbol_duration
    dtau = scene.delta_tau
    e1 = wrapped_error(est.tau1, dtau, t_s)
    e2 = wrapped_error(est.tau2, dtau, t_s)
    print(f"true offset : {dtau * 1e9:12.4f} ns")
    print(f"coarse tau1 : {est.tau1 * 1e9:12.4f} ns   error {e1 * 1e9:+10.4f} ns")
    print(f"fine   tau2 : {est.tau2 * 1e9:12.4f} ns   error {e2 * 1e9:+10.4f} ns")
    _write_objective(out_dir / "demo_objective_coarse.txt",
                     est.coarse_taus * 1e9, est.coarse_objective)
    _write_objective(out_dir / "demo_objective_fine.txt",
                     est.fine_offsets * plan.fine_cfg.fine_step * 1e9,
                     est.fine_objective)
    print(f"objective curves written to {out_dir}/demo_objective_*.txt")
    return 0


def cmd_channel(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for i in range(args.count):
        ss = np.random.SeedSequence(entropy=args.seed, spawn_key=(i,))
        ch = generate_cm1(ss, args.max_delay_ns)
        path = out_dir / f"taps_{i:04d}.txt"
        path.write_text(taps_to_text(ch))
        summary.append((i, ch.n_taps, rms_delay_spread(ch) * 1e9))
    if summary:
        mean_spread = sum(s for _, _, s in summary) / len(summary)
        with open(out_dir / "summary.txt", "w") as fh:
            fh.write("# index n_taps rms_delay_spread_ns\n")
            for i, n, s in summary:
                fh.write(f"{i} {n} {s:.4f}\n")
            fh.write(f"# mean_rms_delay_spread_ns = {mean_spread:.4f}\n")
        print(f"wrote {len(summary)} tap files to {out_dir} "
              f"(mean RMS delay spread {mean_spread:.2f} ns)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbsync",
        description="UWB TH-PPM timing-synchronization simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep from a config file")
    p_sweep.add_argument("config", help="config file (key-value text)")
    p_sweep.add_argument("--out", default="out", help="output directory")
    p_sweep.add_argument("--threads", type=_whole_number_arg(1), default=1,
                         help="parallel trial-group workers")
    p_sweep.add_argument("--dump-objectives", action="store_true",
                         help="write objective curves for trial 0 of each cell")
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("demo", help="run and inspect a single trial")
    p_demo.add_argument("--snr", default="inf", help="SNR in dB, or 'inf'")
    p_demo.add_argument("--m", type=_whole_number_arg(1), default=16,
                        help="observation symbols M")
    p_demo.add_argument("--mode", choices=("nda", "da"), default="da")
    p_demo.add_argument("--seed", type=_whole_number_arg(0), default=None,
                        help="base seed (default: the config's)")
    p_demo.add_argument("--config", default=None, help="optional config file")
    p_demo.add_argument("--out", default="out", help="output directory")
    p_demo.set_defaults(func=cmd_demo)

    p_ch = sub.add_parser("channel", help="generate channel tap-list fixtures")
    p_ch.add_argument("--seed", type=_whole_number_arg(0), default=0)
    p_ch.add_argument("--count", type=_whole_number_arg(0), default=1)
    p_ch.add_argument("--max-delay-ns", type=_ns_arg, default=DEFAULT_MAX_DELAY)
    p_ch.add_argument("--out", default="out/channels", help="output directory")
    p_ch.set_defaults(func=cmd_channel)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
