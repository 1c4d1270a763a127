"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

Runs every workload at the "small" size, untraced and traced, and checks
that each passes with failed_frac 0 and prints every metric BENCHMARK.json
names.  Then checks that the negative controls catch a certifier that always
answers yes, and that run.py exits nonzero without a result in a directory
that holds only the benchmark.  Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workloads(report):
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--size", "small")
            name = f"{workload} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                report(name, False, f"no result (exit {proc.returncode}): {proc.stderr[-300:]}")
                continue
            absent = []
            for line in proc.stdout.splitlines():
                if line.startswith("absent "):
                    absent = json.loads(line[len("absent "):])
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (proc.returncode == 0 and result["correct"] and result["failed"] == 0
                  and got == want and "failed_frac 0.0 frac" in proc.stdout)
            detail = (f"exit {proc.returncode}, failed {result['failed']}, "
                      f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            if absent:
                detail += f", absent {absent}"
            report(name, ok, detail)


def check_controls(report):
    """A certifier that always says yes must fail every control that wants no."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from matroidkl import realroot

    yes = {
        "is_real_rooted": lambda p: True,
        "all_zeros_negative": lambda p: (True, []),
        "interleaves": lambda g, f: True,
        "n_sequence_check": lambda gamma, n: True,
    }
    saved = {name: getattr(realroot, name) for name in yes}
    try:
        for name, fake in yes.items():
            setattr(realroot, name, fake)
        caught = sum(not workloads.run_item(("control", c))[0] for c in workloads.CONTROLS)
    finally:
        for name, func in saved.items():
            setattr(realroot, name, func)
    want = sum(not want for _, _, want in workloads.CONTROLS.values())
    report("controls reject an always-yes certifier", caught == want, f"{caught} of {want} caught")
    honest = [c for c in workloads.CONTROLS if not workloads.run_item(("control", c))[0]]
    report("controls pass with the real certifier", not honest, f"failing: {honest}")


def check_bare_directory(report):
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = _run(bare, "--workload", "brute", "--seed", "1", "--seconds", "1", "--trace", "0")
        printed = '"correct"' in proc.stdout
        report("refuses a directory without the library", proc.returncode != 0 and not printed,
               f"exit {proc.returncode}, printed a result: {printed}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    failures = []

    def report(name, ok, detail):
        print(f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"), flush=True)
        if not ok:
            failures.append(name)

    check_workloads(report)
    check_controls(report)
    check_bare_directory(report)
    print(f"{'all checks passed' if not failures else f'{len(failures)} checks failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
