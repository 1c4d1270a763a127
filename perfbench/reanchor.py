"""Re-measure the figures ROADMAP.md quotes from its re-anchor.

    python3 perfbench/reanchor.py

Each figure runs in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH and PYTHONHASHSEED=0, timed after import: the oracle, roots and
identities suites of ``matroidkl verify``, brute KL plus Z of the fan on 8
path vertices from a cold process, and the Sturm chains and root isolations
behind the roots suite (counted by the benchmark's tracer).  Prints a
Markdown table of medians with their range.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REPEAT = 3  # fresh processes per figure

FIGURES = {
    "verify --suite oracle": "oracle",
    "verify --suite roots": "roots",
    "verify --suite identities": "identities",
    "fan 8 brute KL+Z, cold": "fan8",
    "roots suite: Sturm chains / isolations": "chains",
}


def measure(figure):
    from matroidkl import cli, kl

    if figure == "fan8":
        start = time.perf_counter()
        kl.kl_poly(kl.family_matroid("fan", 8))
        kl.z_poly(kl.family_matroid("fan", 8))
        return {"seconds": time.perf_counter() - start}
    suite = "roots" if figure == "chains" else figure
    tracer = None
    if figure == "chains":
        import spans

        tracer = spans.Tracer()
        tracer.install("matroidkl")
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--suite", suite, "--jobs", "1"])
    out = {"seconds": time.perf_counter() - start, "exit": code}
    if tracer is not None:
        out["chains"] = tracer.totals["realroot.sturm"][0]
        out["isolations"] = tracer.totals["realroot.isolate"][0]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--one", choices=sorted(FIGURES.values()), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(measure(args.one)))
        return 0

    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    print("| figure | median | range | runs |")
    print("| --- | --- | --- | --- |")
    for title, figure in FIGURES.items():
        runs = []
        for _ in range(REPEAT):
            proc = subprocess.run([sys.executable, __file__, "--one", figure], env=env,
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if any(r.get("exit", 0) != 0 for r in runs):
            print(f"| {title} | suite failed | | {len(runs)} |")
            continue
        secs = [r["seconds"] for r in runs]
        cell = f"{statistics.median(secs):.2f} s"
        if figure == "chains":
            cell = f"{runs[0]['chains']} chains / {runs[0]['isolations']} isolations ({cell})"
        print(f"| {title} | {cell} | {min(secs):.2f}-{max(secs):.2f} s | {len(runs)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
