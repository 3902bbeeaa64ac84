"""Command-line front end: config-driven sweeps, single-trial demos, fixtures.

The config format is flat key/value text with sections (INI).  Times are
given in nanoseconds, rates in GHz; everything else is dimensionless.
A sweep writes ``results.csv`` plus a fully resolved ``manifest.cfg`` that
can itself be loaded as a config, reproducing the run bit-exactly.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import __version__
from .waveform import ConfigError, FrameConfig, make_th_code
from .channel import generate_cm1, rms_delay_spread, taps_to_text, snr_ref_samples
from .sync import CoarseConfig, FineConfig
from .harness import ExperimentPlan, records_to_csv, run_sweep, run_trial, wrapped_error
from .defaults import DEFAULT_BASE_SEED, DEFAULT_TH_SEED

ENV_SEED = "UWB_SYNC_SEED"

_SECTIONS = {
    "frame": {
        "n_frames_per_symbol", "frame_duration_ns", "chip_duration_ns",
        "n_chips", "ppm_shift_ns", "pulse_duration_ns", "pulse_energy",
        "sample_rate_ghz", "th_code", "th_code_seed",
    },
    "channel": {"model", "max_delay_ns"},
    "coarse": {"search_step_ns", "segment_origin_ns"},
    "fine": {"t_corr_ns", "fine_step_ns", "n_symbols_avg"},
    "sweep": {
        "snr_grid_db", "m_grid", "modes", "floors", "trials_per_cell",
        "base_seed",
    },
    "run_info": None,  # written to manifests; ignored on load
}


def _list_of(conv):
    """Converter for a comma-separated list of ``conv`` values."""
    return lambda text: tuple(conv(tok.strip()) for tok in text.split(",")
                              if tok.strip())


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


def _ns(value_s: float) -> str:
    return _exact_token(value_s, -9)


def _get(section, key, conv, default):
    if key not in section:
        return default
    try:
        return conv(section[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def load_plan(path) -> ExperimentPlan:
    """Parse and validate a config file into a fully resolved plan.

    Unknown sections or keys are configuration errors: a misspelled key
    should fail loudly, not silently fall back to a default.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        if allowed is None:
            continue
        for key in parser[section]:
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    fr = parser["frame"] if parser.has_section("frame") else {}
    sample_rate = _get(fr, "sample_rate_ghz", _ghz_to_hz, 50e9)
    base = FrameConfig(
        n_frames_per_symbol=_get(fr, "n_frames_per_symbol", int, 32),
        frame_duration=_get(fr, "frame_duration_ns", _ns_to_s, 35e-9),
        chip_duration=_get(fr, "chip_duration_ns", _ns_to_s, 1e-9),
        n_chips=_get(fr, "n_chips", int, 35),
        ppm_shift=_get(fr, "ppm_shift_ns", _ns_to_s, 1e-9),
        pulse_duration=_get(fr, "pulse_duration_ns", _ns_to_s, 0.8e-9),
        pulse_energy=_get(fr, "pulse_energy", float, 1.0),
        th_code=tuple([0] * _get(fr, "n_frames_per_symbol", int, 32)),
        sample_rate=sample_rate,
    )
    code = _get(fr, "th_code", _list_of(int), None)
    if code is None:
        code = make_th_code(_get(fr, "th_code_seed", int, DEFAULT_TH_SEED), base)
    frame_cfg = base.with_th_code(code)

    chn = parser["channel"] if parser.has_section("channel") else {}
    model = _get(chn, "model", str, "cm1")
    max_delay = _get(chn, "max_delay_ns", _ns_to_s, 25e-9)

    co = parser["coarse"] if parser.has_section("coarse") else {}
    coarse_cfg = CoarseConfig(
        search_step=_get(co, "search_step_ns", _ns_to_s, 35e-9),
        segment_origin=(_ns_to_s(co["segment_origin_ns"])
                        if "segment_origin_ns" in co
                        else frame_cfg.symbol_duration),
    )
    coarse_cfg.grid_size(frame_cfg)

    fi = parser["fine"] if parser.has_section("fine") else {}
    fine_cfg = FineConfig(
        t_corr=_get(fi, "t_corr_ns", _ns_to_s, 560e-9),
        fine_step=_get(fi, "fine_step_ns", _ns_to_s, 0.25e-9),
        n_symbols_avg=_get(fi, "n_symbols_avg", int, 8),
    )

    sw = parser["sweep"] if parser.has_section("sweep") else {}
    base_seed = _get(sw, "base_seed", int, DEFAULT_BASE_SEED)
    if os.environ.get(ENV_SEED):
        base_seed = int(os.environ[ENV_SEED])
    return ExperimentPlan(
        snr_grid_db=_get(sw, "snr_grid_db", _list_of(float), (0.0, 8.0, 16.0)),
        m_grid=_get(sw, "m_grid", _list_of(int), (8, 32)),
        modes=_get(sw, "modes", _list_of(str), ("nda", "da")),
        floors=_get(sw, "floors", _list_of(str), ("coarse_only", "coarse_plus_fine")),
        trials_per_cell=_get(sw, "trials_per_cell", int, 200),
        base_seed=base_seed,
        frame_cfg=frame_cfg,
        coarse_cfg=coarse_cfg,
        fine_cfg=fine_cfg,
        channel_model=model,
        channel_max_delay=max_delay,
    )


def plan_to_config_text(plan: ExperimentPlan, run_info: dict | None = None) -> str:
    """Render a plan as a loadable config (used for the run manifest).

    Every float is written as a token that parses back to the same
    double, so loading the manifest reproduces the plan exactly.
    """
    cfg = plan.frame_cfg
    lines = [
        "[frame]",
        f"n_frames_per_symbol = {cfg.n_frames_per_symbol}",
        f"frame_duration_ns = {_ns(cfg.frame_duration)}",
        f"chip_duration_ns = {_ns(cfg.chip_duration)}",
        f"n_chips = {cfg.n_chips}",
        f"ppm_shift_ns = {_ns(cfg.ppm_shift)}",
        f"pulse_duration_ns = {_ns(cfg.pulse_duration)}",
        f"pulse_energy = {cfg.pulse_energy!r}",
        f"sample_rate_ghz = {_exact_token(cfg.sample_rate, 9)}",
        f"th_code = {', '.join(str(c) for c in cfg.th_code)}",
        "",
        "[channel]",
        f"model = {plan.channel_model}",
        f"max_delay_ns = {_ns(plan.channel_max_delay)}",
        "",
        "[coarse]",
        f"search_step_ns = {_ns(plan.coarse_cfg.search_step)}",
        f"segment_origin_ns = {_ns(plan.coarse_cfg.origin(cfg))}",
        "",
        "[fine]",
        f"t_corr_ns = {_ns(plan.fine_cfg.t_corr)}",
        f"fine_step_ns = {_ns(plan.fine_cfg.fine_step)}",
        f"n_symbols_avg = {plan.fine_cfg.n_symbols_avg}",
        "",
        "[sweep]",
        f"snr_grid_db = {', '.join(repr(s) for s in plan.snr_grid_db)}",
        f"m_grid = {', '.join(str(m) for m in plan.m_grid)}",
        f"modes = {', '.join(plan.modes)}",
        f"floors = {', '.join(plan.floors)}",
        f"trials_per_cell = {plan.trials_per_cell}",
        f"base_seed = {plan.base_seed}",
    ]
    if run_info:
        lines += ["", "[run_info]"]
        lines += [f"{k} = {v}" for k, v in run_info.items()]
    return "\n".join(lines) + "\n"


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
          f"({args.threads} worker(s))...")
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
    from .harness import build_trial_scene
    from .sync import two_floor_sync

    for gi, (snr, m, mode) in enumerate(plan.groups()):
        scene = build_trial_scene(plan, snr, m, mode, 0, gi)
        cc = replace(plan.coarse_cfg, n_symbols=m, mode=mode)
        est = two_floor_sync(scene.received, scene.cfg, cc, plan.fine_cfg)
        tag = f"snr{snr:g}_m{m}_{mode}".replace("-", "m")
        _write_objective(out_dir / f"objective_coarse_{tag}.txt",
                         est.coarse_taus * 1e9, est.coarse_objective)
        _write_objective(out_dir / f"objective_fine_{tag}.txt",
                         est.fine_offsets * plan.fine_cfg.fine_step * 1e9,
                         est.fine_objective)


def cmd_demo(args) -> int:
    try:
        if args.config:
            plan = load_plan(args.config)
        else:
            from .defaults import default_plan
            plan = default_plan()
        plan = replace(plan, base_seed=int(os.environ.get(ENV_SEED, args.seed)))
        if args.mode not in ("nda", "da"):
            raise ConfigError(f"mode must be nda or da, got {args.mode!r}")
        if args.m < 1:
            raise ConfigError("m must be >= 1")
        snr = _get(vars(args), "snr", float, None)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(_snr_definition_line(plan))

    # Single trial, reported in ns, with both objective curves written out.
    from .harness import build_trial_scene
    from .sync import two_floor_sync

    scene = build_trial_scene(plan, snr, args.m, args.mode, 0, 0)
    cc = replace(plan.coarse_cfg, n_symbols=args.m, mode=args.mode)
    est = two_floor_sync(scene.received, scene.cfg, cc, plan.fine_cfg)

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
    if args.count < 0:
        print("config error: count must be >= 0", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    max_delay = args.max_delay_ns * 1e-9
    summary = []
    for i in range(args.count):
        ss = np.random.SeedSequence(entropy=int(args.seed), spawn_key=(i,))
        ch = generate_cm1(ss, max_delay)
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
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="parallel trial-group workers")
    p_sweep.add_argument("--dump-objectives", action="store_true",
                         help="write objective curves for trial 0 of each cell")
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("demo", help="run and inspect a single trial")
    p_demo.add_argument("--snr", default="inf", help="SNR in dB, or 'inf'")
    p_demo.add_argument("--m", type=int, default=16, help="observation symbols M")
    p_demo.add_argument("--mode", default="da", help="nda or da")
    p_demo.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED)
    p_demo.add_argument("--config", default=None, help="optional config file")
    p_demo.add_argument("--out", default="out", help="output directory")
    p_demo.set_defaults(func=cmd_demo)

    p_ch = sub.add_parser("channel", help="generate channel tap-list fixtures")
    p_ch.add_argument("--seed", type=int, default=0)
    p_ch.add_argument("--count", type=int, default=1)
    p_ch.add_argument("--max-delay-ns", type=float, default=25.0)
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
