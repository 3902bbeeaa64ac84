"""One measured sweep in a fresh interpreter; run.py starts one per repeat.

    python3 perfbench/sweep_child.py PLAN_CFG WORKERS SPANS_PATH|-

Prints one JSON object: the time to import uwbsync and to load the plan,
the wall time of ``run_sweep`` (after one untimed warm-up trial), the
``results.csv`` text, the peak RSS of this process and of its largest
child (a pool worker), and, when a spans path is given, the per-layer
metrics of a traced one-worker sweep.
"""

import json
import resource
import sys
import time


def main(plan_cfg: str, workers: int, spans_path: str | None) -> dict:
    t0 = time.perf_counter()
    import uwbsync  # noqa: F401  (timed: part of set-up)
    t1 = time.perf_counter()
    from uwbsync.cli import load_plan
    from uwbsync.harness import records_to_csv, run_sweep, run_trial

    plan = load_plan(plan_cfg)
    t2 = time.perf_counter()

    # Let lazy set-up (pulse cache, first-touch allocations) finish first.
    snr, m, mode = plan.groups()[0]
    run_trial(plan, snr, m, mode, 0, 0)

    out = {"import_s": t1 - t0, "load_plan_s": t2 - t1}
    if spans_path is None:
        t3 = time.perf_counter()
        records = run_sweep(plan, n_workers=workers)
        out["sweep_s"] = time.perf_counter() - t3
    else:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed(), tracer.span("harness.run_sweep"):
            t3 = time.perf_counter()
            records = run_sweep(plan, n_workers=1)
            out["sweep_s"] = time.perf_counter() - t3
        tracer.write(spans_path)
        out["layers"], out["detail"] = layer_metrics(tracer.spans, plan)
    out["csv"] = records_to_csv(records)
    out["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["rss_child_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return out


if __name__ == "__main__":
    spans_arg = None if sys.argv[3] == "-" else sys.argv[3]
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), spans_arg)))
