#!/usr/bin/env python3
"""uwbsync benchmark: sweep throughput, set-up time and memory per workload.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload sweep_cm1 --seed 1 --seconds 25 --trace 0

The workload's plan is generated from ``configs/default.cfg`` and the
seed.  Each repeat runs it in a fresh interpreter (sweep_child.py) through
the public API (``load_plan``, ``run_sweep``, ``records_to_csv``); repeats
continue for about ``--seconds``, at least three without tracing.  Every
``results.csv`` is checked: header, one row per expected cell, trial
counts, MSE range, and byte-identity across repeats, worker counts and
tracing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (expected cells checked, and cells
failing a check) and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, medians over repeats with tracing off; with ``--trace 1``
they are the per-layer ones, from a traced one-worker sweep (spans.py)
plus untraced sweeps for comparison.  The line before it is a report with
the environment, CSV hashes, accuracy and per-M stage timings; reports,
generated plans, CSVs and spans are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_CFG = ROOT / "configs" / "default.cfg"
OUT = ROOT / ".perfbench_out"

CSV_HEADER = "snr_db,m,mode,floor,normalized_mse,std_error,n_trials"
# The wrapped timing error is at most T_s/2, so normalized MSE <= 1/4.
MSE_MAX = 0.25
CHILD = Path(__file__).resolve().parent / "sweep_child.py"
CHILD_TIMEOUT_S = 150

# Workloads: config overrides applied to configs/default.cfg, trials per
# cell of one sweep, and sweep workers.
#  - sweep_cm1: the default grid on CM1; channel synthesis (FFT
#    overlap-add, AWGN, aggregate_template) is the largest stage.
#  - acquire_noiseless: single path, SNR = inf, M = 16; the channel is a
#    one-tap shifted sum with no noise, so the sync floors dominate.
#  - sweep_cm1_pool: the sweep_cm1 plan on 2 workers, the only workload
#    that runs run_sweep's process pool.
WORKLOADS = {
    "sweep_cm1": {"overrides": {}, "trials_per_cell": 2, "workers": 1},
    "acquire_noiseless": {
        "overrides": {"channel": {"model": "single_path"},
                      "sweep": {"snr_grid_db": "inf", "m_grid": "16"}},
        "trials_per_cell": 50,
        "workers": 1,
    },
    "sweep_cm1_pool": {"overrides": {}, "trials_per_cell": 2, "workers": 2},
}


def write_plan(workload: str, seed: int) -> Path:
    """The workload's config: default.cfg with its overrides and the seed."""
    spec = WORKLOADS[workload]
    parser = configparser.ConfigParser()
    parser.read(DEFAULT_CFG)
    sections = {**spec["overrides"]}
    sections["sweep"] = {**sections.get("sweep", {}),
                         "trials_per_cell": str(spec["trials_per_cell"]),
                         "base_seed": str(seed)}
    for section, values in sections.items():
        for key, value in values.items():
            parser[section][key] = value
    path = OUT / "plans" / f"{workload}-seed{seed}.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def expected_cells(plan):
    return [(snr, m, mode, floor) for snr, m, mode in plan.groups()
            for floor in plan.floors]


def check_csv(text: str, plan) -> int:
    """Number of expected cells that are missing or fail a check.

    Rows outside the expected grid count as failures too (capped at the
    number of expected cells).
    """
    expected = expected_cells(plan)
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return len(expected)
    ok = {}
    extra = 0
    for line in lines[1:]:
        parts = line.split(",")
        try:
            key = (float(parts[0]), int(parts[1]), parts[2], parts[3])
            mse, n = float(parts[4]), int(parts[6])
        except (ValueError, IndexError):
            extra += 1
            continue
        if key in ok or key not in expected:
            extra += 1
            continue
        ok[key] = (len(parts) == 7 and math.isfinite(mse)
                   and 0.0 <= mse <= MSE_MAX and n == plan.trials_per_cell)
    bad = sum(not ok.get(key, False) for key in expected)
    return min(len(expected), bad + extra)


def differing_cells(a: str, b: str) -> int:
    return sum(x != y for x, y in
               zip_longest(a.splitlines()[1:], b.splitlines()[1:]))


class Checks:
    """Tally of expected cells checked and cells failed."""

    def __init__(self, plan):
        self.plan = plan
        self.n_cells = len(expected_cells(plan))
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def csv(self, text: str):
        self.attempted += self.n_cells
        self.failed += check_csv(text, self.plan)

    def identical(self, text: str, reference: str, what: str):
        self.attempted += self.n_cells
        bad = min(self.n_cells, differing_cells(text, reference))
        self.failed += bad
        self.notes.append(f"{what}: {'identical' if not bad else f'{bad} cells differ'}")

    def sweep_failed(self, reason: str):
        self.attempted += self.n_cells
        self.failed += self.n_cells
        self.notes.append(f"sweep failed: {reason}")


def sweep_pass(plan_path: Path, plan, workers: int, seconds: float,
               checks: Checks, min_reps: int = 1, spans: Path | None = None):
    """Run one sweep per fresh interpreter until ``seconds`` have passed.

    Each repeat is a sweep_child.py process, so every repeat pays the same
    import and set-up and its peak RSS is its own.  Returns the children's
    results; each CSV is checked, and every repeat must reproduce the
    first byte for byte.  A child that fails fails all its cells.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, str(CHILD), str(plan_path), str(workers),
           str(spans) if spans else "-"]
    reps = []
    t_end = perf_counter() + seconds
    while len(reps) < min_reps or perf_counter() < t_end:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            checks.sweep_failed(f"no result within {CHILD_TIMEOUT_S} s")
            break
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            checks.sweep_failed(f"exit {proc.returncode}: {last[0]}")
            break
        rep = json.loads(proc.stdout.splitlines()[-1])
        checks.csv(rep["csv"])
        if reps:
            checks.identical(rep["csv"], reps[0]["csv"],
                             f"{workers}-worker repeat {len(reps)} vs first")
        reps.append(rep)
    return reps


def trials_per_s(plan, reps) -> float:
    n = len(plan.groups()) * plan.trials_per_cell
    return statistics.median(n / r["sweep_s"] for r in reps) if reps else 0.0


def median_of(reps, fn) -> float:
    return statistics.median(fn(r) for r in reps) if reps else 0.0


def accuracy(reps) -> dict:
    """Normalized MSE of each floor, averaged over the cells of the first CSV."""
    rows = [line.split(",") for line in
            (reps[0]["csv"].splitlines()[1:] if reps else [])]
    out = {}
    for name, floor in (("mse_coarse", "coarse_only"),
                        ("mse_fine", "coarse_plus_fine")):
        values = [float(row[4]) for row in rows if row[3] == floor]
        out[name] = sum(values) / len(values) if values else 0.0
    return out


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "seed": seed}


def compare_worker_counts(csv_text, plan_path, seed, workers, checks):
    """Save this run's CSV; require byte-identity with any saved run of the
    same plan and seed at another worker count.

    CSVs are keyed by the plan text, so workloads that share a plan
    (sweep_cm1, sweep_cm1_pool) are compared when run with the same seed.
    """
    key = hashlib.sha256(plan_path.read_bytes()).hexdigest()[:16]
    store = OUT / "csv"
    store.mkdir(parents=True, exist_ok=True)
    mine = store / f"{key}-seed{seed}-w{workers}.csv"
    mine.write_text(csv_text)
    for other in sorted(store.glob(f"{key}-seed{seed}-w*.csv")):
        if other != mine:
            checks.identical(csv_text, other.read_text(),
                             f"{workers} worker(s) vs {other.stem.rsplit('-w', 1)[1]}")


def run(workload: str, seed: int, seconds: float, trace: bool):
    from uwbsync.cli import load_plan
    from spans import layer_metrics

    # Metric names and units come from the benchmark's own definition.
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workers = WORKLOADS[workload]["workers"]
    plan_path = write_plan(workload, seed)
    plan = load_plan(plan_path)
    checks = Checks(plan)
    report = {"workload": workload, "environment": environment(seed),
              "plan": str(plan_path.relative_to(ROOT)), "workers": workers,
              "seconds": seconds, "trace": int(trace),
              "note": "the benchmark sets no CPU pinning, frequency or "
                      "cache setting"}

    if not trace:
        reps = sweep_pass(plan_path, plan, workers, seconds, checks, min_reps=3)
        everything = reps
        values = {
            "trials_per_s": trials_per_s(plan, reps),
            "peak_rss_mb": median_of(
                reps, lambda r: (r["rss_self_kb"] + r["rss_child_kb"]) / 1024.0),
            "setup_s": median_of(reps, lambda r: r["import_s"] + r["load_plan_s"]),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in contract["end_to_end"]}
    else:
        # Untraced at the workload's worker count, untraced on one worker
        # (for the pool's scaling), then one traced one-worker sweep.
        n_passes = 3 if workers > 1 else 2
        reps = sweep_pass(plan_path, plan, workers, seconds / n_passes, checks)
        single = []
        if workers > 1:
            single = sweep_pass(plan_path, plan, 1, seconds / n_passes, checks)
            if reps and single:
                checks.identical(reps[0]["csv"], single[0]["csv"],
                                 f"{workers} workers vs 1")
        OUT.mkdir(parents=True, exist_ok=True)
        traced = sweep_pass(plan_path, plan, 1, 0, checks,
                            spans=OUT / f"spans-{workload}-seed{seed}.jsonl")
        if traced and reps:
            checks.identical(traced[0]["csv"], reps[0]["csv"], "traced vs untraced")
        everything = reps + single + traced
        layers, detail = ((traced[0]["layers"], traced[0]["detail"]) if traced
                          else layer_metrics([], plan))
        rate, rate_single = trials_per_s(plan, reps), trials_per_s(plan, single or reps)
        layers.update(accuracy(reps))
        layers.update({
            "harness.scaling_eff": (rate / (workers * rate_single)
                                    if rate_single else 0.0),
            "cli.import_s": median_of(everything, lambda r: r["import_s"]),
            "cli.load_plan_ms": median_of(everything, lambda r: r["load_plan_s"] * 1e3),
            "trace.rate_ratio": (trials_per_s(plan, traced) / rate_single
                                 if rate_single else 0.0),
        })
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in contract["per_layer"]}
        report.update(detail)
        report["trials_per_s"] = {"untraced": rate, "untraced_1_worker": rate_single,
                                  "traced_1_worker": trials_per_s(plan, traced)}

    if reps:
        compare_worker_counts(reps[0]["csv"], plan_path, seed, workers, checks)
    report.update(accuracy(reps))
    report.update({
        "sweep_s": [r["sweep_s"] for r in everything],
        "import_s": [r["import_s"] for r in everything],
        "peak_rss_mb": [(r["rss_self_kb"] + r["rss_child_kb"]) / 1024.0
                        for r in everything],
        "csv_sha256": sorted({hashlib.sha256(r["csv"].encode()).hexdigest()
                              for r in everything}),
        "failed_frac": checks.failed / checks.attempted if checks.attempted else 1.0,
        "checks": checks.notes,
    })
    return checks, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uwbsync" / "__init__.py").is_file() or not DEFAULT_CFG.is_file():
        print(f"error: {ROOT} is not a uwbsync checkout "
              "(src/uwbsync and configs/default.cfg are required)", file=sys.stderr)
        return 2
    os.environ.pop("UWB_SYNC_SEED", None)  # would override the plan's seed
    sys.path.insert(0, str(SRC))

    checks, metrics, report = run(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": checks.failed == 0 and checks.attempted > 0,
                      "attempted": max(1, checks.attempted),
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
