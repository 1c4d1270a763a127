"""Command-line front end: compute tables, run verification suites, export
machine-readable results.

Coefficients are always emitted as ascending-degree decimal strings, since
the larger polynomials overflow 64-bit JSON number consumers.  Exit codes:
0 all pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from . import graphs, kl, matroids, realroot, series
from .poly import Poly

JOBS_ENV_VAR = "MATROIDKL_JOBS"

BRUTE_MAX = {"fan": 8, "square": 8, "wheel": 7, "whirl": 7}
FAMILY_MIN = {
    ("kl", "brute"): {"fan": 1, "square": 1, "wheel": 3, "whirl": 3},
    ("kl", "closed"): {"fan": 1, "square": 1, "wheel": 2, "whirl": 3},
    ("kl", "recurrence"): {"fan": 1, "wheel": 2, "whirl": 1},
    ("z", "brute"): {"fan": 1, "square": 1, "wheel": 3, "whirl": 3},
    ("z", "closed"): {"fan": 1, "square": 1, "wheel": 2, "whirl": 1},
    ("chromatic", "brute"): {"fan": 1, "square": 1, "wheel": 3},
    ("chromatic", "closed"): {"fan": 1, "wheel": 3},
    ("characteristic", "brute"): {"fan": 1, "square": 1, "wheel": 3, "whirl": 3},
    ("characteristic", "closed"): {"fan": 1, "square": 1, "wheel": 3, "whirl": 3},
}
GRAPH_BRUTE_MAX = 10
# largest n any command accepts, so that no request runs for minutes: the
# Sturm chain behind every record's root flags grows in length and in
# coefficient size with n
N_MAX = 64


def supported_matrix():
    lines = ["supported (family, kind, method) combinations:"]
    for (kind, method), fams in sorted(FAMILY_MIN.items()):
        for fam, lo in sorted(fams.items()):
            if method == "brute" and kind in ("kl", "z", "characteristic"):
                hi = str(BRUTE_MAX[fam])
            elif method == "brute":
                hi = str(GRAPH_BRUTE_MAX)
            else:
                hi = str(N_MAX)
            lines.append(f"  --family {fam} --kind {kind} --method {method}: n = {lo}..{hi}")
    return "\n".join(lines)


@dataclass
class OutputRecord:
    family: str
    n: int
    kind: str
    method: str
    coeffs: list
    flags: dict

    def to_json(self):
        return json.dumps(
            {
                "family": self.family,
                "n": self.n,
                "kind": self.kind,
                "method": self.method,
                "coeffs": self.coeffs,
                "flags": self.flags,
            }
        )

    @classmethod
    def from_json(cls, line):
        d = json.loads(line)
        return cls(d["family"], d["n"], d["kind"], d["method"], d["coeffs"], d["flags"])


def _poly_record(family, n, kind, method, poly):
    real_rooted = realroot.is_real_rooted(poly)
    all_negative = real_rooted and realroot.all_zeros_negative(poly)
    degree = len(poly.coeffs) - 1 if poly.coeffs else 0
    return OutputRecord(
        family=family,
        n=n,
        kind=kind,
        method=method,
        coeffs=[str(c) for c in poly.coeffs],
        flags={
            "real_rooted": real_rooted,
            "all_negative": all_negative,
            "degree": degree,
            "rank": n,
        },
    )


class UsageError(Exception):
    pass


def _check_max_n(n):
    if n is not None and n > N_MAX:
        raise UsageError(f"n is limited to n <= {N_MAX}, got {n}")


def _check_combo(family, n, kind, method):
    fams = FAMILY_MIN.get((kind, method))
    if fams is None or family not in fams:
        raise UsageError(f"unsupported combination family={family} kind={kind} method={method}")
    lo = fams[family]
    if n < lo:
        raise UsageError(f"{family} {kind} ({method}) needs n >= {lo}")
    _check_max_n(n)
    if method == "brute":
        hi = BRUTE_MAX[family] if kind in ("kl", "z", "characteristic") else GRAPH_BRUTE_MAX
        if n > hi:
            raise UsageError(f"brute-force {kind} for {family} is limited to n <= {hi}")


def compute_record(family, n, kind, method):
    _check_combo(family, n, kind, method)
    if kind == "kl":
        poly = kl.compute_kl(family, n, method)
    elif kind == "z":
        poly = kl.compute_z(family, n, method)
    elif kind == "chromatic":
        if method == "closed":
            poly = kl.chromatic_closed(family, n)
        else:
            poly = graphs.chromatic_polynomial(kl.family_graph(family, n))
    else:  # characteristic
        if method == "closed":
            poly = kl.characteristic_closed(family, n)
        else:
            poly = matroids.characteristic_polynomial(kl.family_matroid(family, n))
    return _poly_record(family, n, kind, method, poly)


def _emit_records(records, fmt, out):
    if fmt == "json":
        for rec in records:
            out.write(rec.to_json() + "\n")
        return
    max_deg = max((len(rec.coeffs) - 1 for rec in records), default=0)
    coeff_cols = [f"c{k}" for k in range(max_deg + 1)]
    out.write(",".join(["family", "n", "kind", "method", "degree", "rank",
                        "real_rooted", "all_negative", *coeff_cols]) + "\n")
    for rec in records:
        cells = [rec.family, str(rec.n), rec.kind, rec.method,
                 str(rec.flags["degree"]), str(rec.flags["rank"]),
                 str(rec.flags["real_rooted"]).lower(),
                 str(rec.flags["all_negative"]).lower()]
        cells += [rec.coeffs[k] if k < len(rec.coeffs) else "" for k in range(max_deg + 1)]
        out.write(",".join(cells) + "\n")


def cmd_compute(args, out=None):
    out = out if out is not None else sys.stdout
    rec = compute_record(args.family, args.n, args.kind, args.method)
    _emit_records([rec], args.format, out)
    return 0


def cmd_table(args, out=None):
    out = out if out is not None else sys.stdout
    kind, family = args.kind, args.family
    method = "closed"
    fams = FAMILY_MIN.get((kind, method), {})
    if family not in fams:
        raise UsageError(f"no closed form to tabulate for family={family} kind={kind}")
    _check_max_n(args.max_n)
    start = fams[family]
    records = []
    for n in range(start, args.max_n + 1):
        records.append(compute_record(family, n, kind, method))
    if args.format == "json":
        _emit_records(records, "json", out)
        return 0
    max_deg = max((len(r.coeffs) - 1 for r in records), default=0)
    cols = ["n", "degree"] + [f"c{k}" for k in range(max_deg + 1)] + ["real_rooted"]
    out.write(",".join(cols) + "\n")
    for r in records:
        cells = [str(r.n), str(r.flags["degree"])]
        cells += [r.coeffs[k] if k < len(r.coeffs) else "" for k in range(max_deg + 1)]
        cells.append(str(r.flags["real_rooted"]).lower())
        out.write(",".join(cells) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verification suites: each check is a picklable (name, payload) pair handled
# by _execute_check, so a process pool can run them when --jobs > 1


def _execute_check(check):
    kind = check[0]
    if kind == "oracle_kl":
        _, family, n = check
        got = kl.kl_poly(kl.family_matroid(family, n))
        want = kl.kl_closed(family, n)
        return got == want, f"{got!r} vs {want!r}"
    if kind == "oracle_z":
        _, family, n = check
        got = kl.z_poly(kl.family_matroid(family, n))
        want = kl.z_closed(family, n)
        return got == want, f"{got!r} vs {want!r}"
    if kind == "square_equals_fan":
        _, n = check
        got = kl.kl_poly(kl.family_matroid("square", n))
        want = kl.kl_poly(kl.family_matroid("fan", n))
        return got == want, f"{got!r} vs {want!r}"
    if kind == "whirl_flats":
        _, n = check
        return _whirl_flat_partition(n), "flat classification mismatch"
    if kind == "gf":
        _, which, order = check
        return _gf_matches(which, order)
    if kind == "recurrence":
        _, family, max_n = check
        lo = {"fan": 1, "wheel": 2, "whirl": 3}[family]
        for n in range(lo, max_n + 1):
            if kl.kl_recurrence(family, n) != kl.kl_closed(family, n):
                return False, f"mismatch at n={n}"
        return True, ""
    if kind == "kl_negative":
        _, family, n = check
        return realroot.all_zeros_negative(kl.kl_closed(family, n)), f"n={n}"
    if kind == "z_negative":
        _, family, n = check
        return realroot.all_zeros_negative(kl.z_closed(family, n)), f"n={n}"
    if kind == "z_real":
        _, family, n = check
        return realroot.is_real_rooted(kl.z_closed(family, n)), f"n={n}"
    if kind == "interlacing":
        _, lo, hi = check
        for n in range(lo, hi + 1):
            if not realroot.interleaves(kl.kl_closed("fan", n), kl.kl_closed("fan", n + 1)):
                return False, f"chain breaks at n={n}"
        return True, ""
    if kind == "narayana":
        _, max_n = check
        return all(realroot.verify_narayana_identity(n) for n in range(1, max_n + 1)), ""
    if kind == "hadamard":
        _, max_n = check
        for n in range(3, max_n + 1):
            p = kl.kl_closed("wheel", n)
            for k in range((n - 1) // 2 + 1):
                a, b, c = kl.hadamard_wheel_coeff(n, k)
                if a * b * c != p.coeff(k):
                    return False, f"n={n} k={k}"
        return True, ""
    if kind == "wheel_z_quadratic":
        _, max_n = check
        return all(realroot.verify_wheel_z_quadratic(n) for n in range(3, max_n + 1)), ""
    if kind == "lucas_fibonacci":
        _, max_n = check
        return all(realroot.verify_lucas_fibonacci(n) for n in range(3, max_n + 1)), ""
    if kind == "n_sequence":
        _, lo, hi = check
        for n in range(lo, hi + 1):
            m = (n - 1) // 2
            gamma = [
                (k + 1) * n**2 - (2 * k**2 + 4 * k) * n + k**3 + 3 * k**2 - k - 1
                for k in range(m + 1)
            ]
            if not realroot.n_sequence_check(gamma, m):
                return False, f"n={n}"
        return True, ""
    if kind == "spot_values":
        return _spot_values()
    raise ValueError(f"unknown check {kind}")


def _whirl_flat_partition(n):
    whirl = matroids.whirl_matroid(n)
    wheel = matroids.graphic_matroid(graphs.make_family("wheel", n))
    outer = matroids.outer_cycle_mask(n)
    l1 = {outer & ~(1 << e) for e in range(whirl.m) if outer >> e & 1}
    full = (1 << whirl.m) - 1
    l2 = {full} | {
        f.elements for f in wheel.flats() if f.elements & outer != outer
    }
    got = {f.elements for f in whirl.flats()}
    return l1.isdisjoint(l2) and got == l1 | l2


def _gf_matches(which, order):
    s = series.gf_expand(which, order)
    kind, family = which.split("_")
    start = {"kl_fan": 0, "kl_wheel": 2, "kl_whirl": 1, "z_fan": 0, "z_wheel": 2, "z_whirl": 1}[which]
    for n in range(start):
        if not s.coefficient(n).is_zero():
            return False, f"u^{n} should vanish"
    for n in range(start, order + 1):
        if kind == "kl":
            if family == "fan":
                want = Poly([1]) if n == 0 else kl.kl_closed("fan", n)
            elif family == "wheel":
                want = Poly([1]) if n == 2 else kl.kl_closed("wheel", n)
            else:
                want = Poly([1]) if n in (1, 2) else kl.kl_closed("whirl", n)
        else:
            if family == "fan":
                want = Poly([1]) if n == 0 else kl.z_closed("fan", n)
            else:
                want = kl.z_closed(family, n)
        if s.coefficient(n) != want:
            return False, f"u^{n}: {s.coefficient(n)!r} vs {want!r}"
    return True, ""


def _spot_values():
    checks = [
        (kl.kl_closed("wheel", 3), Poly([1, 1])),
        (kl.kl_closed("wheel", 4), Poly([1, 5])),
        (kl.kl_closed("whirl", 3), Poly([1, 3])),
    ]
    for got, want in checks:
        if got != want:
            return False, f"{got!r} vs {want!r}"
    motzkin = [1, 1]
    while len(motzkin) < 16:
        k = len(motzkin) - 1
        motzkin.append(motzkin[k] + sum(motzkin[i] * motzkin[k - 1 - i] for i in range(k)))
    for n in range(1, 16):
        if kl.kl_closed("fan", n)(1) != motzkin[n - 1]:
            return False, f"fan({n})(1) != Motzkin({n - 1})"
    return True, ""


def build_suite(suite, max_n=None, order=None):
    _check_max_n(max_n)
    checks = []
    if suite in ("oracle", "all"):
        hi_fan = min(max_n or 8, 8)
        hi_wheel = min(max_n or 7, 7)
        for fam, hi in (("fan", hi_fan), ("square", hi_fan)):
            for n in range(1, hi + 1):
                checks.append((f"oracle/kl/{fam}/{n}", ("oracle_kl", fam, n)))
        for fam in ("wheel", "whirl"):
            for n in range(3, hi_wheel + 1):
                checks.append((f"oracle/kl/{fam}/{n}", ("oracle_kl", fam, n)))
        for n in range(1, hi_fan + 1):
            checks.append((f"oracle/z/fan/{n}", ("oracle_z", "fan", n)))
        for fam in ("wheel", "whirl"):
            for n in range(3, hi_wheel + 1):
                checks.append((f"oracle/z/{fam}/{n}", ("oracle_z", fam, n)))
        for n in range(1, hi_fan + 1):
            checks.append((f"oracle/square-equals-fan/{n}", ("square_equals_fan", n)))
        for n in range(3, min(hi_wheel, 6) + 1):
            checks.append((f"oracle/whirl-flats/{n}", ("whirl_flats", n)))
    if suite in ("gf", "all"):
        o = order or 12
        for which in series.GF_NAMES:
            use = min(o, 10) if which == "kl_wheel" else o
            checks.append((f"gf/{which}/order-{use}", ("gf", which, use)))
    if suite in ("recurrence", "all"):
        hi = max_n or 40
        for fam in ("fan", "wheel", "whirl"):
            checks.append((f"recurrence/{fam}/n-{hi}", ("recurrence", fam, hi)))
    if suite in ("roots", "all"):
        hi = max_n or 30
        for fam in ("fan", "square", "wheel", "whirl"):
            lo = 1 if fam in ("fan", "square") else 3
            for n in range(lo, hi + 1):
                checks.append((f"roots/kl-negative/{fam}/{n}", ("kl_negative", fam, n)))
        for n in range(1, hi + 1):
            checks.append((f"roots/z-negative/fan/{n}", ("z_negative", "fan", n)))
        for n in range(3, hi + 1):
            checks.append((f"roots/z-negative/whirl/{n}", ("z_negative", "whirl", n)))
            checks.append((f"roots/z-real/wheel/{n}", ("z_real", "wheel", n)))
        hi_int = min(max_n or 25, 25)
        checks.append((f"roots/fan-interlacing/3-{hi_int}", ("interlacing", 3, hi_int)))
    if suite in ("identities", "all"):
        checks.append(("identities/narayana/n-20", ("narayana", min(max_n or 20, 20))))
        checks.append(("identities/hadamard/n-30", ("hadamard", min(max_n or 30, 30))))
        checks.append(
            ("identities/wheel-z-quadratic/n-30", ("wheel_z_quadratic", min(max_n or 30, 30)))
        )
        checks.append(
            ("identities/lucas-fibonacci/n-40", ("lucas_fibonacci", min(max_n or 40, 40)))
        )
        checks.append(("identities/n-sequence/7-30", ("n_sequence", 7, min(max_n or 30, 30))))
        checks.append(("identities/spot-values", ("spot_values",)))
    if not checks:
        raise UsageError(f"unknown suite {suite!r}")
    return checks


def _run_check_timed(item):
    name, check = item
    start = time.perf_counter()
    try:
        ok, detail = _execute_check(check)
    except Exception as exc:  # a crash is a failure, not an abort
        ok, detail = False, f"exception: {exc!r}"
    return name, ok, detail, time.perf_counter() - start


def cmd_verify(args, out=None):
    out = out if out is not None else sys.stdout
    checks = build_suite(args.suite, args.max_n, args.order)
    jobs = args.jobs
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_check_timed, checks))
    else:
        results = [_run_check_timed(item) for item in checks]
    failures = 0
    for name, ok, detail, seconds in results:
        if ok:
            out.write(f"PASS {name} ({seconds:.2f}s)\n")
        else:
            failures += 1
            out.write(f"FAIL {name} ({seconds:.2f}s): {detail}\n")
    out.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def _load_config(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    allowed = {"jobs", "max_n", "order"}
    unknown = set(cfg) - allowed
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _default_jobs(cfg):
    env = os.environ.get(JOBS_ENV_VAR)
    if env is not None:
        return int(env)
    return int(cfg.get("jobs", 1))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matroidkl",
        description="Exact KL/Z polynomials of fan, square-of-path, wheel and whirl matroids",
    )
    parser.add_argument("--config", help="optional JSON config: jobs / max_n / order defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="one polynomial as a JSON line or CSV row")
    pc.add_argument("--family", required=True, choices=["fan", "square", "wheel", "whirl"])
    pc.add_argument("--n", required=True, type=int)
    pc.add_argument("--kind", required=True, choices=["kl", "z", "chromatic", "characteristic"])
    pc.add_argument("--method", default="closed", choices=["brute", "closed", "recurrence"])
    pc.add_argument("--format", default="json", choices=["json", "csv"])

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument(
        "--suite",
        required=True,
        choices=["oracle", "gf", "recurrence", "roots", "identities", "all"],
    )
    pv.add_argument("--max-n", dest="max_n", type=int, default=None)
    pv.add_argument("--order", type=int, default=None)
    pv.add_argument("--jobs", type=int, default=None)

    pt = sub.add_parser("table", help="closed-form table over a range of n")
    pt.add_argument("--family", required=True, choices=["fan", "square", "wheel", "whirl"])
    pt.add_argument("--kind", required=True, choices=["kl", "z", "chromatic", "characteristic"])
    pt.add_argument("--max-n", dest="max_n", type=int, required=True)
    pt.add_argument("--format", default="csv", choices=["json", "csv"])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "verify":
            if args.max_n is None:
                args.max_n = cfg.get("max_n")
            if args.order is None:
                args.order = cfg.get("order")
            if args.jobs is None:
                args.jobs = _default_jobs(cfg)
            return cmd_verify(args)
        if args.command == "compute":
            return cmd_compute(args)
        return cmd_table(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(supported_matrix(), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
