"""Command-line front end: config-driven sweeps and their objective dumps.

The config format is flat key/value text with sections (INI).  Times are
given in nanoseconds, rates in GHz; everything else is dimensionless.
A sweep writes ``results.csv`` plus a fully resolved ``manifest.cfg`` that
can itself be loaded as a config, reproducing the run bit-exactly.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
from decimal import Decimal
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__
from .waveform import ConfigError, FrameConfig
from .channel import snr_ref_samples
from .sync import CoarseConfig, FineConfig
from .harness import (ExperimentPlan, mse_records, records_to_csv, run_trials,
                      snr_label, sweep_workers, wrapped_error)

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
    ("frame", "sample_rate_ghz", "frame_cfg.sample_rate", "GHz"),
    ("channel", "model", "channel_model", "str"),
    ("channel", "max_delay_ns", "channel_max_delay", "ns"),
    ("coarse", "search_step_ns", "coarse_cfg.search_step", "ns"),
    ("fine", "t_corr_ns", "fine_cfg.t_corr", "ns"),
    ("fine", "fine_step_ns", "fine_cfg.fine_step", "ns"),
    ("fine", "n_symbols_avg", "fine_cfg.n_symbols_avg", "int"),
    ("sweep", "snr_grid_db", "snr_grid_db", "dB list"),
    ("sweep", "m_grid", "m_grid", "int list"),
    ("sweep", "modes", "modes", "str list"),
    ("sweep", "trials_per_cell", "trials_per_cell", "int"),
    ("sweep", "base_seed", "base_seed", "int"),
)
_IGNORED_SECTION = "run_info"  # written to manifests; ignored on load
# Field names are unique across the plan and its nested configs, so the
# field a config dataclass rejects (ConfigError.field) finds its key.
_KEY_OF_FIELD = {field.rpartition(".")[2]: key for _, key, field, _ in _SCHEMA}


def _finite(conv):
    def parse(token):
        value = conv(token)
        if not math.isfinite(value):
            raise ValueError(f"{token!r} is not finite")
        return value
    return parse


def _decimal_unit(unit_exp: int):
    """(parse, render) for a unit of 10**unit_exp SI units (ns: -9, GHz: 9).

    A token parses with no scaling round-off: the unit's power of ten is
    added to its exponent, so "35.0" ns becomes float("35.0e-9") and
    "3.5e1" ns float("3.5e-8"), both bit-identical to the literal 35e-9
    the library defaults use; multiplying by 1e-9 is not.  Rendering
    writes the shortest round-trip decimal of the value shifted by the
    unit's power of ten, a plain token that parses back to the same double.
    """
    def parse(token) -> float:
        tok = str(token).strip()
        _finite(float)(tok)  # junk, nan and inf fail as the user wrote them
        mantissa, _, exp = tok.lower().partition("e")
        return float(f"{mantissa}e{int(exp or 0) + unit_exp}")

    def render(value: float) -> str:
        return format(Decimal(repr(value)).scaleb(-unit_exp).normalize(), "f")
    return _finite(parse), render


def _db(token) -> float:
    """A finite number of dB, or +inf (noiseless) where the token spells it:
    an overflowing token such as 1e400 fails, as it does for ``ns``."""
    if str(token).strip().lower().removeprefix("+") in ("inf", "infinity"):
        return math.inf
    return _finite(float)(token)


_UNITS = {  # unit -> (parse a token, render a value as a token)
    "int": (int, str),
    "str": (str, str),
    "dB": (_db, repr),
    "ns": _decimal_unit(-9),
    "GHz": _decimal_unit(9),
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


def _count_arg(token: str) -> int:
    """argparse type for a count flag: a whole number >= 1."""
    if not token.isdecimal() or int(token) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {token!r}")
    return int(token)


def load_plan(path) -> ExperimentPlan:
    """Parse and validate a config file into a plan.

    Unknown sections or keys are configuration errors: a misspelled key
    should fail loudly, not silently fall back to a default.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        found = parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8 text: "
                          f"byte {exc.start} is 0x{exc.object[exc.start]:02x}") from exc
    except configparser.Error as exc:  # repeated key or section, malformed line
        where = getattr(exc, "option", None) or getattr(exc, "section", None)
        text = " ".join(str(exc).split())
        raise ConfigError(f"{where}: {text}" if where else text) from exc
    if not found:
        raise ConfigError(f"config file {str(path)!r} not found or unreadable")
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
    try:
        return ExperimentPlan(
            frame_cfg=FrameConfig(**values["frame_cfg"]),
            coarse_cfg=CoarseConfig(**values["coarse_cfg"]),
            fine_cfg=FineConfig(**values["fine_cfg"]),
            **values[""],
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


def _numpy_simd():
    """numpy's SIMD targets, its baseline and those found on this CPU,
    which choose the loops a run uses; "unknown" on a numpy whose
    ``show_config`` has no dict mode, such as 1.24."""
    try:
        return np.show_config(mode="dicts")["SIMD Extensions"]
    except TypeError:
        return "unknown"


def _peak_rss_mb():
    """This process's peak resident set so far, in MB of 2**20 bytes
    (``ru_maxrss`` counts KiB on Linux and bytes on macOS); "unknown"
    where Python has no ``resource`` module, as on Windows."""
    try:
        import resource
    except ImportError:
        return "unknown"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return f"{peak / (2**20 if sys.platform == 'darwin' else 2**10):.1f}"


def cmd_sweep(args) -> int:
    plan = load_plan(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    print(_snr_definition_line(plan))
    n_groups = len(plan.groups())
    workers = sweep_workers(plan, args.threads)
    print(f"running {n_groups} trial groups x {plan.trials_per_cell} trials "
          f"({workers} worker(s))...")
    t0 = time.perf_counter()
    trials = run_trials(plan, n_workers=workers)
    sweep_wall_s = time.perf_counter() - t0
    csv_text = records_to_csv(mse_records(plan, trials))
    (out_dir / "results.csv").write_text(csv_text)
    manifest = plan_to_config_text(plan, run_info={
        "tool_version": __version__,
        "config_path": str(args.config),
        "started_utc": started,
        "results_csv": str(out_dir / "results.csv"),
        "workers": workers,
        "numpy_version": np.__version__,
        "numpy_simd": _numpy_simd(),
        "sweep_wall_s": f"{sweep_wall_s:.3f}",
        "peak_rss_mb": _peak_rss_mb(),
    })
    (out_dir / "manifest.cfg").write_text(manifest)
    if args.dump_objectives:
        _dump_objectives(plan, trials, out_dir)
    print(csv_text, end="")
    print(f"wrote {out_dir / 'results.csv'} and {out_dir / 'manifest.cfg'}")
    return 0


def _dump_objectives(plan: ExperimentPlan, trials, out_dir: Path) -> None:
    """Objective curves of the sweep's trial 0 of every cell, as
    (time_ns, value) text, and one stdout line of that trial's offset,
    estimates and errors in ns."""
    render_ns = _UNITS["ns"][1]
    n_cand = plan.fine_cfg.n_steps
    times = {
        "coarse": (np.arange(plan.coarse_cfg.grid_size(plan.frame_cfg))
                   * plan.coarse_cfg.search_step),
        "fine": np.arange(-n_cand + 1, n_cand) * plan.fine_cfg.fine_step,
    }
    t_s = plan.frame_cfg.symbol_duration
    for gi, (snr, m, mode) in enumerate(plan.groups()):
        trial = trials[gi * plan.trials_per_cell]
        tag = f"snr{snr_label(snr)}_m{m}_{mode}".replace("-", "m")
        for floor, ys in zip(("coarse", "fine"), trial.objectives):
            with open(out_dir / f"objective_{floor}_{tag}.txt", "w") as fh:
                for t, y in zip(times[floor], ys):
                    fh.write(f"{render_ns(float(t))} {float(y)!r}\n")
        tau1, tau2, dtau = trial.tau_hat_coarse, trial.tau_hat_fine, trial.delta_tau_true
        e1 = wrapped_error(tau1, dtau, t_s)
        e2 = wrapped_error(tau2, dtau, t_s)
        print(f"{tag} trial 0: true offset {dtau * 1e9:.4f} ns, "
              f"coarse tau1 {tau1 * 1e9:.4f} ns (error {e1 * 1e9:+.4f} ns), "
              f"fine tau2 {tau2 * 1e9:.4f} ns (error {e2 * 1e9:+.4f} ns)")


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
    p_sweep.add_argument("--threads", type=_count_arg, default=1,
                         help="parallel trial workers")
    p_sweep.add_argument("--dump-objectives", action="store_true",
                         help="per cell, write trial 0's objective curves and "
                              "print its estimates")
    p_sweep.set_defaults(func=cmd_sweep)
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
