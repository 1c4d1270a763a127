"""Command-line front end: compute tables, run the verification suites of
matroidkl.checks, export machine-readable results.

Coefficients are always emitted as ascending-degree decimal strings, since
the larger polynomials overflow 64-bit JSON number consumers.  Exit codes:
0 all pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import partial

from . import graphs, kl, matroids, realroot


# Every route looks its library function up on the module when it runs, so
# that rebinding that function reaches every route.


def _lattice_brute(name, family, n):
    return getattr(kl, name)(kl.family_matroid(family, n))


def _chromatic_brute(family, n):
    return graphs.chromatic_polynomial(kl.family_graph(family, n))


def _characteristic_brute(family, n):
    return matroids.characteristic_polynomial(kl.family_matroid(family, n))


def _kl_function(name, family, n):
    return getattr(kl, name)(family, n)


def _kl_route(name):
    """The route of kl's closed form or recurrence `name`: from its first n in
    kl.FIRST_N, but at least 1, up to kl.N_MAX, the largest n any command
    accepts."""
    return (partial(_kl_function, name),
            {fam: (max(lo, 1), kl.N_MAX) for fam, lo in kl.FIRST_N[name].items()})


# ROUTES[(kind, method)] = (fn(family, n), {family: (lo, hi)}): the supported
# matrix.  The lattice routes stop at the rank table's bound of
# matroids.MAX_GROUND = 16 elements (fan and square 8 have 15, wheel and whirl
# 8 have 16), the chromatic route at n = 10, whose 11 vertices stay inside the
# independent-partition sweep's bound of graphs.MAX_VERTICES = 13.
_BRUTE = {"fan": (1, 8), "square": (1, 8), "wheel": (3, 8), "whirl": (3, 8)}
ROUTES = {
    ("kl", "brute"): (partial(_lattice_brute, "kl_poly"), _BRUTE),
    ("kl", "closed"): _kl_route("kl_closed"),
    ("kl", "recurrence"): _kl_route("kl_recurrence"),
    ("z", "brute"): (partial(_lattice_brute, "z_poly"), _BRUTE),
    ("z", "closed"): _kl_route("z_closed"),
    ("chromatic", "brute"): (_chromatic_brute, {"fan": (1, 10), "square": (1, 10),
                                                "wheel": (3, 10)}),
    ("chromatic", "closed"): _kl_route("chromatic_closed"),
    ("characteristic", "brute"): (_characteristic_brute, _BRUTE),
    ("characteristic", "closed"): _kl_route("characteristic_closed"),
}
KINDS = tuple(dict.fromkeys(kind for kind, _ in ROUTES))
METHODS = tuple(dict.fromkeys(method for _, method in ROUTES))


def supported_matrix():
    lines = ["supported (family, kind, method) combinations:"]
    for kind, method in sorted(ROUTES):
        for fam, (lo, hi) in sorted(ROUTES[kind, method][1].items()):
            lines.append(f"  --family {fam} --kind {kind} --method {method}: n = {lo}..{hi}")
    return "\n".join(lines)


class OutputRecord(namedtuple("OutputRecord", "family n kind method coeffs flags")):
    __slots__ = ()

    def to_json(self):
        return json.dumps(self._asdict())


def _poly_record(family, n, kind, method, poly):
    real_rooted, all_negative = realroot._root_flags(poly)
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


def _check_combo(family, n, kind, method):
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {type(n).__name__}")
    fams = ROUTES.get((kind, method), (None, {}))[1]
    if family not in fams:
        raise UsageError(f"unsupported combination family={family} kind={kind} method={method}")
    lo, hi = fams[family]
    if n < lo:
        raise UsageError(f"{family} {kind} ({method}) needs n >= {lo}, got {n}")
    if n > hi:
        raise UsageError(f"{family} {kind} ({method}) is limited to n <= {hi}, got {n}")


def _check_invariants(kind, n, poly):
    """Theorem-level invariants of every KL and Z record, whatever its route:
    P has constant term 1, nonnegative coefficients and degree < n/2; Z is
    palindromic of degree n."""
    c = poly.coeffs
    if kind == "kl" and not (c[:1] == (1,) and min(c) >= 0 and 2 * poly.degree < n):
        raise ArithmeticError(f"KL polynomial {poly} of rank {n} needs constant term 1, "
                              f"nonnegative coefficients and degree < {n}/2")
    if kind == "z" and not (poly.degree == n and c == c[::-1]):
        raise ArithmeticError(f"Z-polynomial {poly} of rank {n} must be palindromic of "
                              f"degree {n}")


def compute_record(family, n, kind, method):
    _check_combo(family, n, kind, method)
    poly = ROUTES[kind, method][0](family, n)
    _check_invariants(kind, n, poly)
    return _poly_record(family, n, kind, method, poly)


def _csv(records, before, after):
    """One CSV row per record: the columns named in before, c0..cK padded to
    the largest degree, then the columns named in after."""
    max_deg = max((len(rec.coeffs) - 1 for rec in records), default=0)
    rows = [",".join([*before, *(f"c{k}" for k in range(max_deg + 1)), *after])]
    for rec in records:
        fields = {**rec._asdict(), **rec.flags}
        cell = {name: str(v).lower() if isinstance(v, bool) else str(v)
                for name, v in fields.items() if name in before or name in after}
        cells = [cell[name] for name in before]
        cells += [rec.coeffs[k] if k < len(rec.coeffs) else "" for k in range(max_deg + 1)]
        cells += [cell[name] for name in after]
        rows.append(",".join(cells))
    return "".join(row + "\n" for row in rows)


def _records_text(records, fmt):
    if fmt == "json":
        return "".join(rec.to_json() + "\n" for rec in records)
    return _csv(records, ["family", "n", "kind", "method", "degree", "rank",
                          "real_rooted", "all_negative"], [])


# each command returns its exit code and its output; main writes the output


def cmd_compute(args):
    rec = compute_record(args.family, args.n, args.kind, args.method)
    return 0, _records_text([rec], args.format)


def cmd_table(args):
    kind, family = args.kind, args.family
    _check_combo(family, args.max_n, kind, "closed")
    start = ROUTES[kind, "closed"][1][family][0]
    records = [compute_record(family, n, kind, "closed") for n in range(start, args.max_n + 1)]
    if args.format == "json":
        return 0, _records_text(records, "json")
    return 0, _csv(records, ["n", "degree"], ["real_rooted"])


def cmd_verify(args):
    # imported here, so that a compute or table process never compiles the checks
    from .checks import _run_check_timed, build_suite

    checks = build_suite(args.suite, args.max_n)
    results = [_run_check_timed(item) for item in checks]
    lines = [f"PASS {name} ({seconds:.2f}s)\n" if ok else
             f"FAIL {name} ({seconds:.2f}s): {detail}\n"
             for name, ok, detail, seconds in results]
    failures = sum(not ok for _, ok, _, _ in results)
    lines.append(f"{len(results) - failures}/{len(results)} checks passed\n")
    return (1 if failures else 0), "".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matroidkl",
        description="Exact KL/Z polynomials of fan, square-of-path, wheel and whirl matroids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="one polynomial as a JSON line or CSV row")
    pc.add_argument("--family", required=True, choices=kl.FAMILIES)
    pc.add_argument("--n", required=True, type=int)
    pc.add_argument("--kind", required=True, choices=KINDS)
    pc.add_argument("--method", default="closed", choices=METHODS)
    pc.add_argument("--format", default="json", choices=["json", "csv"])

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument(
        "--suite",
        required=True,
        choices=["oracle", "gf", "recurrence", "roots", "identities", "all"],
    )
    pv.add_argument("--max-n", dest="max_n", type=int, default=None)

    pt = sub.add_parser("table", help="closed-form table over a range of n")
    pt.add_argument("--family", required=True, choices=kl.FAMILIES)
    pt.add_argument("--kind", required=True, choices=KINDS)
    pt.add_argument("--max-n", dest="max_n", type=int, required=True)
    pt.add_argument("--format", default="csv", choices=["json", "csv"])
    return parser


def _write(stream, text):
    try:
        stream.write(text)
        stream.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`), which leaves the
        # outcome and the exit code as they were; what is still buffered goes
        # to the null device, so that the interpreter's last flush at exit
        # raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {"compute": cmd_compute, "table": cmd_table, "verify": cmd_verify}
    try:
        code, text = command[args.command](args)
    except (UsageError, ValueError) as exc:
        matrix = isinstance(exc, UsageError) and args.command in ("compute", "table")
        _write(sys.stderr, f"error: {exc}\n" + (supported_matrix() + "\n" if matrix else ""))
        return 2
    _write(sys.stdout, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
