"""Benchmark entry point.

    python3 perfbench/run.py --workload brute --seed 1 --seconds 32 --trace 0

Run from a checkout's root (any directory works; paths are found from this
file).  Each repetition of the workload is a fresh single-threaded
interpreter (perfbench/child.py) with the checkout's ``src`` on PYTHONPATH
and a fixed PYTHONHASHSEED, because the KL memo, the recurrence cache and the
per-matroid flat and lattice caches are process-global and every CLI process
pays to fill them.  Repetitions run one at a time until ``--seconds`` is
used up, and medians are reported.  An untraced run cycles through the
seed's ORDERS item orders and counts complete cycles only, so its median
covers the same orders however many cycles fit.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates traced
and untraced repetitions and reports the per-layer metrics plus the tracing
overhead.  Human-readable lines come first; the last line of stdout is one
JSON object.  The exit code is 1 when any item failed or a count did not
repeat, and 2 when the checkout has no library source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("brute", "certify", "expand")
ORDERS = 3  # item orders per seed; an untraced run repeats whole cycles of them
MIN_TRACED = 2  # traced repetitions per traced run, so counts can be compared
RUN_LIMIT_S = 150  # no repetition starts that could end a run after this
KILL_AFTER_S = 165  # a repetition still running this long into the run is killed
HASH_SEED = "0"

# per-layer metrics that count work; they must repeat exactly for a given
# seed and source tree
COUNT_UNITS = ("count", "bits", "ratio")


class ChildError(Exception):
    pass


def _spawn(workload, seed, size, extra, started):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, *extra]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
    spawned = time.monotonic()
    timeout = max(5.0, KILL_AFTER_S - (spawned - started))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"repetition exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildError(f"repetition exited {proc.returncode}: {' | '.join(tail)}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep["t_first"] - spawned
    rep["took_s"] = time.monotonic() - spawned
    if "library" in rep and not Path(rep["library"]).resolve().is_relative_to(SRC.resolve()):
        raise ChildError(f"measured {rep['library']}, not the checkout's source")
    return rep


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "PYTHONHASHSEED": HASH_SEED,
        "processes": "one repetition at a time, no pool",
    }


def _should_stop(started, seconds, durations, have_enough):
    elapsed = time.monotonic() - started
    longest = max(durations)
    if elapsed + 1.5 * longest > RUN_LIMIT_S:
        return True
    return have_enough and elapsed + statistics.median(durations) / 2 > seconds


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _check_counts(workload, seed, size, counts, problems):
    """Counts must repeat across runs of the same source and seed."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{workload}-{size}-{seed}.json"
    source = _source_digest()
    if path.is_file():
        saved = json.loads(path.read_text())
        if saved.get("source_sha256") == source and saved["counts"] != counts:
            diff = sorted(k for k in counts if saved["counts"].get(k) != counts[k])
            problems.append(f"counts differ from an earlier run of this source and seed: {diff}")
            return
    path.write_text(json.dumps({"source_sha256": source, "counts": counts}, indent=1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "small"),
                    help="small is the self-test size")
    args = ap.parse_args(argv)

    if not (SRC / "matroidkl" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'matroidkl'}; run from a checkout",
              file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.seed)))
    started = time.monotonic()
    attempted = failed = 0
    problems = []
    untraced, traced, durations = [], [], []

    def repetition(traced_rep, order):
        nonlocal attempted, failed
        extra = ["--order", str(order)]
        if traced_rep:
            OUT.mkdir(exist_ok=True)
            extra += ["--trace", str(OUT / f"spans-{args.workload}-{args.seed}-{len(traced)}.jsonl")]
        try:
            rep = _spawn(args.workload, args.seed, args.size, extra, started)
        except (ChildError, ValueError) as exc:
            attempted += 1
            failed += 1
            problems.append(str(exc))
            return
        attempted += rep["attempted"]
        failed += rep["failed"]
        problems.extend(rep["failures"])
        durations.append(rep["took_s"])
        (traced if traced_rep else untraced).append(rep)

    if args.trace:
        # Traced and untraced repetitions alternate so that both see the same
        # machine load, and all use the seed's first item order so that counts
        # can be compared and the overhead compares like with like.
        while True:
            repetition(len(traced) <= len(untraced), 0)
            enough = len(traced) >= MIN_TRACED and len(untraced) >= 1
            if failed or _should_stop(started, args.seconds, durations, enough):
                break
    else:
        # Item order changes how much work brute's items share, so each cycle
        # runs every one of the seed's orders once and is timed as a whole.
        cycles = []
        while True:
            for order in range(ORDERS):
                repetition(False, order)
                if failed:
                    break
            if failed:
                break
            cycles.append(sum(durations[-ORDERS:]))
            if _should_stop(started, args.seconds, cycles, True):
                break

    if len({r["digest"] for r in untraced + traced}) > 1:
        problems.append("outputs differ between repetitions")

    metrics = {}
    if not args.trace and untraced and not failed:
        # wall_s of a cycle is the mean over its orders
        walls = [statistics.fmean(r["wall_s"] for r in untraced[i:i + ORDERS])
                 for i in range(0, len(untraced), ORDERS)]
        setups = [r["setup_s"] for r in untraced]
        rss = [r["rss_kb"] / 1024 for r in untraced]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
        lo, hi = _quartiles(walls)
        print(f"reps {len(untraced)} untraced in {len(walls)} cycles of {ORDERS} orders; "
              f"wall_s quartiles over cycles {lo:.4f}..{hi:.4f}")
    elif args.trace and traced and untraced:
        first = traced[0]["layers"]
        counts = {k: v["value"] for k, v in first.items() if v["unit"] in COUNT_UNITS}
        for rep in traced[1:]:
            again = {k: rep["layers"][k]["value"] for k in counts}
            if again != counts:
                diff = sorted(k for k in counts if again[k] != counts[k])
                problems.append(f"counts differ between traced repetitions: {diff}")
        if not problems:
            _check_counts(args.workload, args.seed, args.size, counts, problems)
        for name, v in first.items():
            if name in counts:
                metrics[name] = dict(v)
            else:
                values = [r["layers"][name]["value"] for r in traced]
                metrics[name] = {"value": statistics.median(values), "unit": v["unit"]}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in untraced) - 1)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        print(f"reps {len(traced)} traced, {len(untraced)} untraced; "
              f"spans per traced rep {traced[0]['spans']}")
        print("absent " + json.dumps(traced[0]["absent"]))

    for name, v in metrics.items():
        print(f"{name} {v['value']} {v['unit']}")
    print(f"failed_frac {failed / max(attempted, 1)} frac ({failed} of {attempted} items)")
    for p in problems[:10]:
        print("problem " + p)
    correct = not problems and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
