"""One repetition of a workload in a fresh interpreter.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  Prints one JSON
object on stdout: the monotonic clock at the first timed item (run.py
subtracts its own clock at spawn to get set-up time), the wall time from
first input to last checked output, peak resident memory, item counts, a
digest of every output, and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time

import matroidkl
from matroidkl import kl

import spans
import workloads


def _kl_stats():
    context = getattr(kl, "_default_context", None)
    stats = getattr(context, "stats", None)
    return dict(stats) if isinstance(stats, dict) else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--order", type=int, default=0, help="which of the seed's item orders to run")
    ap.add_argument("--size", default="full", choices=("full", "small"))
    ap.add_argument("--trace", help="write spans to this file and report per-layer metrics")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install("matroidkl")
    stats_before = _kl_stats()
    items = workloads.make_items(args.workload, args.size, args.seed, args.order)

    first = time.monotonic()
    start = time.perf_counter()
    outputs = []
    failures = []
    for item in items:
        name = workloads.label(item)
        try:
            if tracer is None:
                ok, detail, output = workloads.run_item(item)
            else:
                with tracer.span("item:" + name):
                    ok, detail, output = workloads.run_item(item)
        except Exception as exc:  # a crash is a failed item, not an aborted run
            ok, detail, output = False, f"exception: {exc!r}", None
        outputs.append(f"{name}={output!r}")
        if not ok:
            failures.append(f"{name}: {detail}")
    wall = time.perf_counter() - start

    out = {
        "t_first": first,
        "wall_s": wall,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": hashlib.sha256("\n".join(sorted(outputs)).encode()).hexdigest(),
        "library": matroidkl.__file__,
    }
    if tracer is not None:
        stats_after = _kl_stats()
        kl_stats = None
        if stats_before is not None and stats_after is not None:
            kl_stats = {k: stats_after[k] - stats_before.get(k, 0) for k in stats_after}
        metrics, absent = spans.layer_metrics(tracer, kl_stats)
        out["layers"] = metrics
        out["absent"] = absent
        out["spans"] = len(tracer.spans)
        tracer.write(args.trace, {"workload": args.workload, "seed": args.seed, "order": args.order,
                                  "size": args.size, "wall_s": wall, "absent": absent})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
