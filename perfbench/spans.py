"""In-memory spans around uwbsync's stage functions, recorded from outside.

The tracer replaces each stage function on the module whose globals its
callers read (``harness.propagate`` is what ``build_trial_scene`` calls,
``sync.fine_sync`` is what ``two_floor_sync`` calls), so the library runs
unmodified.  Spans stay in memory as (name, start, end, parent, trial,
attrs) and are written out once the run ends.  Only the calling process is
traced: a traced sweep must run with one worker.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  The module is the one whose globals the
# caller resolves the name through.
STAGES = (
    ("uwbsync.harness", "run_trial", "harness.run_trial"),
    ("uwbsync.harness", "build_trial_scene", "harness.build_trial_scene"),
    ("uwbsync.harness", "generate_cm1", "channel.generate_cm1"),
    ("uwbsync.harness", "generate_tx", "waveform.generate_tx"),
    ("uwbsync.harness", "propagate", "channel.propagate"),
    ("uwbsync.channel", "aggregate_template", "channel.aggregate_template"),
    ("uwbsync.sync", "coarse_sync", "sync.coarse_sync"),
    ("uwbsync.sync", "fine_sync", "sync.fine_sync"),
)

# Stages whose summed time is reported as a share of the summed trial time.
SHARE_STAGES = ("waveform.generate_tx", "channel.generate_cm1",
                "channel.propagate", "sync.coarse_sync", "sync.fine_sync")

# The current CM1 path switches from exact shifted sums to FFT
# overlap-add above this many taps.
FFT_TAP_THRESHOLD = 16


def _run_trial_attrs(bound, result):
    a = bound.arguments
    return {"group": a["group_index"], "trial": a["trial_index"], "m": a["m"],
            "tau1": result.tau_hat_coarse, "tau2": result.tau_hat_fine,
            "dtau": result.delta_tau_true}


def _scene_attrs(bound, scene):
    return {"taps": scene.channel.n_taps,
            "record_bytes": scene.received.samples.nbytes}


def _fine_attrs(bound, result):
    a = bound.arguments
    candidates = len(result[2])
    # The current fine floor gathers through an int64 index cube of shape
    # (candidates, n_symbols_avg, frames per symbol); its size is computed
    # from those shapes, not measured.
    index_bytes = (candidates * a["fc"].n_symbols_avg
                   * a["cfg"].n_frames_per_symbol * 8)
    return {"candidates": candidates, "index_bytes": index_bytes}


ATTRS = {
    "harness.run_trial": _run_trial_attrs,
    "harness.build_trial_scene": _scene_attrs,
    "sync.fine_sync": _fine_attrs,
}


class Tracer:
    """Collects spans while installed; restores the library on exit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, trial, attrs]
        self._stack = []
        self._trial = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), None, parent, self._trial, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around code in the benchmark itself (e.g. one sweep)."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name):
        sig = inspect.signature(fn)
        attrs_of = ATTRS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if attrs_of else None
            if name == "harness.run_trial":
                tracer._trial = (bound.arguments["group_index"],
                                 bound.arguments["trial_index"])
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs_of:
                span[5] = attrs_of(bound, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name in STAGES:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, trial, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial,
                                     "attrs": attrs}) + "\n")


def percentile(values, p):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]


def _wrapped(e, period):
    return (e + period / 2.0) % period - period / 2.0


def layer_metrics(spans, plan):
    """Per-layer numbers from one traced run's spans.

    Returns (flat, detail): the metrics named in BENCHMARK.json's
    per_layer list (except those run.py adds), and the stage shares,
    stage timings split by observation length M, and coarse-miss repairs.
    """
    dur = defaultdict(list)
    dur_m = defaultdict(list)
    child_ms = defaultdict(float)
    trial_m = {}
    for name, start, end, parent, trial, attrs in spans:
        if name == "harness.run_trial":
            trial_m[trial] = attrs["m"]
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    for i, (name, start, end, parent, trial, attrs) in enumerate(spans):
        ms = (end - start) * 1e3
        dur[name].append(ms)
        if name == "harness.build_trial_scene":
            dur["harness.build_trial_scene.self"].append(ms - child_ms[i])
        if trial in trial_m:
            dur_m[(name, trial_m[trial])].append(ms)

    trials = [s for s in spans if s[0] == "harness.run_trial"]
    scenes = [s[5] for s in spans if s[0] == "harness.build_trial_scene"]
    fines = [s[5] for s in spans if s[0] == "sync.fine_sync"]
    n_trials = len(trials)
    trial_total = sum(dur["harness.run_trial"])

    # Group wall time: first trial start to last trial end of one
    # (sweep, group) pair.
    groups = defaultdict(list)
    for name, start, end, parent, trial, attrs in trials:
        groups[(parent, attrs["group"])].append((start, end))
    group_ms = [(max(e for _, e in g) - min(s for s, _ in g)) * 1e3
                for g in groups.values()]

    cfg = plan.frame_cfg
    t_s = cfg.symbol_duration
    coarse_hit = fine_hit = repaired = miss_fixed = 0
    for *_, attrs in trials:
        e1 = abs(_wrapped(attrs["tau1"] - attrs["dtau"], t_s))
        e2 = abs(_wrapped(attrs["tau2"] - attrs["dtau"], t_s))
        moved = abs(_wrapped(attrs["tau2"] - attrs["tau1"], t_s))
        coarse_hit += e1 <= plan.coarse_cfg.search_step / 2.0
        fine_hit += e2 <= plan.fine_cfg.fine_step
        repaired += (moved >= cfg.frame_duration - plan.fine_cfg.fine_step / 2.0
                     and e2 <= plan.fine_cfg.fine_step)
        miss_fixed += (e1 > plan.coarse_cfg.search_step / 2.0
                       and e2 <= plan.fine_cfg.fine_step)

    def frac(count):
        return count / n_trials if n_trials else 0.0

    def share(name):
        return sum(dur[name]) / trial_total if trial_total else 0.0

    flat = {
        "waveform.generate_tx.ms_p50": percentile(dur["waveform.generate_tx"], 50),
        "waveform.generate_tx.ms_p90": percentile(dur["waveform.generate_tx"], 90),
        "channel.generate_cm1.ms_p50": percentile(dur["channel.generate_cm1"], 50),
        "channel.taps_mean": (sum(s["taps"] for s in scenes) / len(scenes)
                              if scenes else 0.0),
        "channel.fft_path_frac": (sum(s["taps"] > FFT_TAP_THRESHOLD for s in scenes)
                                  / len(scenes) if scenes else 0.0),
        "channel.propagate.ms_p50": percentile(dur["channel.propagate"], 50),
        "channel.propagate.ms_p90": percentile(dur["channel.propagate"], 90),
        "channel.propagate.share": share("channel.propagate"),
        "channel.aggregate_template.calls_per_trial": frac(len(dur["channel.aggregate_template"])),
        "channel.aggregate_template.ms_p50": percentile(dur["channel.aggregate_template"], 50),
        "sync.coarse_sync.ms_p50": percentile(dur["sync.coarse_sync"], 50),
        "sync.coarse_sync.ms_p90": percentile(dur["sync.coarse_sync"], 90),
        "sync.coarse_sync.share": share("sync.coarse_sync"),
        "sync.fine_sync.ms_p50": percentile(dur["sync.fine_sync"], 50),
        "sync.fine_sync.ms_p90": percentile(dur["sync.fine_sync"], 90),
        "sync.fine_sync.share": share("sync.fine_sync"),
        "sync.fine_sync.candidates": max((f["candidates"] for f in fines), default=0),
        "sync.fine_sync.index_bytes": max((f["index_bytes"] for f in fines), default=0),
        "sync.record_bytes": max((s["record_bytes"] for s in scenes), default=0),
        "sync.coarse_hit_frac": frac(coarse_hit),
        "sync.fine_hit_frac": frac(fine_hit),
        "sync.fine_repair_frac": frac(repaired),
        "harness.build_trial_scene.self_ms_p50":
            percentile(dur["harness.build_trial_scene.self"], 50),
        "harness.run_trial.ms_p50": percentile(dur["harness.run_trial"], 50),
        "harness.run_trial.ms_p90": percentile(dur["harness.run_trial"], 90),
        "harness.group_ms_p50": percentile(group_ms, 50),
        "harness.group_ms_max": max(group_ms, default=0.0),
    }
    shares = {name: share(name) for name in SHARE_STAGES}
    by_m = {}
    for (name, m), values in sorted(dur_m.items()):
        if name in SHARE_STAGES or name == "harness.run_trial":
            by_m[f"{name}.ms_p50.m{m}"] = percentile(values, 50)
            by_m[f"{name}.ms_p90.m{m}"] = percentile(values, 90)
    misses = n_trials - coarse_hit
    detail = {"shares": shares, "by_m": by_m, "trials": n_trials,
              "coarse_misses": misses,
              "coarse_misses_fine_hit_frac": miss_fixed / misses if misses else 0.0}
    return flat, detail
