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
from collections import namedtuple
from functools import partial
from math import comb

from . import graphs, kl, matroids, realroot, series
from .poly import Poly

# largest n any command accepts, so that no request runs for minutes: the
# Sturm chain behind every record's root flags grows in length and in
# coefficient size with n.  For the wheel KL polynomial (Python 3.11, 2-vCPU
# Xeon, three runs) it takes 0.015-0.016 s at n = 64, 0.15-0.18 s at n = 96
# and 0.79-0.85 s at n = 128, about half of it in pseudo-division, which stays
# in the integers, and half in content stripping
N_MAX = 64


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
    kl.FIRST_N, but at least 1, up to N_MAX."""
    return (partial(_kl_function, name),
            {fam: (max(lo, 1), N_MAX) for fam, lo in kl.FIRST_N[name].items()})


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
        raise UsageError(f"{family} {kind} ({method}) needs n >= {lo}")
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
    fams = ROUTES.get((kind, "closed"), (None, {}))[1]
    if family not in fams:
        raise UsageError(f"no closed form to tabulate for family={family} kind={kind}")
    start = fams[family][0]
    if not start <= args.max_n <= N_MAX:
        raise UsageError(f"--max-n needs {start} <= max-n <= {N_MAX} for a {family} {kind} "
                         f"table, got {args.max_n}")
    records = [compute_record(family, n, kind, "closed") for n in range(start, args.max_n + 1)]
    if args.format == "json":
        return 0, _records_text(records, "json")
    return 0, _csv(records, ["n", "degree"], ["real_rooted"])


# ---------------------------------------------------------------------------
# verification suites: each check is a (name, partial of a module-level
# function) pair that returns (ok, detail).  All but the gf checks and
# identities/spot-values check one claim at one n, take that n as their last
# argument and are named <suite>/<claim>/<n>, so every failing n fails its own
# check


def _compare(got, want, n):
    """(ok, detail) for got == want; the detail names n and the first
    coefficient where the two polynomials differ."""
    for k in range(max(len(got.coeffs), len(want.coeffs))):
        if got.coeff(k) != want.coeff(k):
            return False, f"n={n}: t^{k}: got {got.coeff(k)}, want {want.coeff(k)}"
    return True, ""


def _oracle(family, n):
    """P, Z and chi from one brute build over the flat lattice against their
    closed forms, and that chi against Whitney's sweep over the same
    matroid's rank table; the square's closed forms are the fan's."""
    m = kl.family_matroid(family, n)
    brute = kl.kl_z_chi(m)
    for kind, got in zip(("kl", "z", "characteristic"), brute):
        ok, detail = _compare(got, ROUTES[kind, "closed"][0](family, n), n)
        if not ok:
            return False, f"{kind} {detail}"
    ok, detail = _compare(brute[2], matroids.characteristic_polynomial(m), n)
    if not ok:
        return False, f"characteristic against Whitney's sweep: {detail}"
    return True, ""


def _closed_all_negative(kind, family, n):
    """compute's closed record of (family, n), invariants checked, has all
    zeros negative; every KL and Z polynomial has positive coefficients, so
    this is its real-rootedness."""
    return compute_record(family, n, kind, "closed").flags["all_negative"], f"n={n}"


def _agrees(got_fn, want_fn, n):
    """got_fn(n) == want_fn(n); a failure names the first coefficient that differs."""
    return _compare(got_fn(n), want_fn(n), n)


def _holds(test, n):
    """test(n); a failure names n."""
    return test(n), f"n={n}"


def _fan_interlaces(n):
    return realroot.interleaves(kl.kl_closed("fan", n), kl.kl_closed("fan", n + 1))


def _hadamard_product(n):
    """The wheel KL polynomial rebuilt from its three-sequence factorization."""
    factors = (kl.hadamard_wheel_coeff(n, k) for k in range((n - 1) // 2 + 1))
    return Poly([a * b * c for a, b, c in factors])


def _n_sequence_holds(n):
    m = (n - 1) // 2
    gamma = [kl.hadamard_wheel_coeff(n, k)[0] for k in range(m + 1)]
    return realroot.n_sequence_check(gamma, m)


def _cycle_kl(m):
    """P of the m-cycle, the uniform matroid U_{m-1,m} (Elias-Proudfoot-Wakefield):
    the sum over i of C(d-i-1, i) C(d+1, i) / (i+1) t^i, where d = m - 1."""
    d = m - 1
    return Poly([kl._exact(comb(d - i - 1, i) * comb(d + 1, i), i + 1)
                 for i in range((d + 1) // 2)])


def _relaxation(kind, n):
    """Relaxing the rim of the rank-n wheel, a circuit-hyperplane, gives the
    whirl and adds P(C_{n+1}) - P(C_n) to P and Z_fan(n) - (1+t) Z_fan(n-1)
    to Z, where C_m is the m-cycle (Ferroni-Vecchi: the change depends on n
    alone)."""
    closed = ROUTES[kind, "closed"][0]
    if kind == "kl":
        want = _cycle_kl(n + 1) - _cycle_kl(n)
    else:
        want = closed("fan", n) - Poly([1, 1]) * closed("fan", n - 1)
    return _compare(closed("whirl", n) - closed("wheel", n), want, n)


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
    """The u^n coefficient of the series is 0 below the series' start, 1 from
    there up to the closed route's lo, and the closed form from lo on."""
    s = series.gf_expand(which, order)
    kind, family = which.split("_")
    start = series.GF_START[which]
    closed, fams = ROUTES[kind, "closed"]
    lo = fams[family][0]
    for n in range(order + 1):
        want = Poly() if n < start else Poly([1]) if n < lo else closed(family, n)
        ok, detail = _compare(s.coefficient(n), want, n)
        if not ok:
            return False, detail
    return True, ""


def _spot_values():
    # the whirl's recurrence also below its closed form's first n: a rank of
    # at most 2 forces deg P < 1, and P has constant term 1
    for name, family, n, want in (("kl_closed", "wheel", 3, [1, 1]),
                                  ("kl_closed", "wheel", 4, [1, 5]),
                                  ("kl_closed", "whirl", 3, [1, 3]),
                                  ("kl_recurrence", "whirl", 1, [1]),
                                  ("kl_recurrence", "whirl", 2, [1])):
        ok, detail = _compare(getattr(kl, name)(family, n), Poly(want), n)
        if not ok:
            return False, f"{family} {name} {detail}"
    motzkin = [1, 1]
    while len(motzkin) < 16:
        k = len(motzkin) - 1
        motzkin.append(motzkin[k] + sum(motzkin[i] * motzkin[k - 1 - i] for i in range(k)))
    for n in range(1, 16):
        if kl.kl_closed("fan", n)(1) != motzkin[n - 1]:
            return False, f"n={n}: fan({n})(1) != Motzkin({n - 1})"
    return True, ""


def build_suite(suite, max_n=None, order=None):
    """The (name, check) pairs of a suite."""
    for flag, value, top in (("--max-n", max_n, N_MAX), ("--order", order, series.MAX_ORDER)):
        if value is not None and type(value) is not int:
            raise TypeError(f"{flag} must be an int, got {type(value).__name__}")
        if value is not None and not 1 <= value <= top:
            raise UsageError(f"{flag} needs 1 <= {flag[2:]} <= {top}, got {value}")
    checks = []

    def add(name, fn, *args):
        checks.append((name, partial(fn, *args)))

    def ns(lo, top):
        """lo up to top, or up to --max-n if that is lower."""
        return range(lo, min(top, max_n or top) + 1)

    if suite in ("oracle", "all"):
        brute = ROUTES["kl", "brute"][1]
        for fam, (lo, hi) in brute.items():
            for n in ns(lo, hi):
                add(f"oracle/{fam}/{n}", _oracle, fam, n)
        for n in ns(*brute["whirl"]):
            add(f"oracle/whirl-flats/{n}", _holds, _whirl_flat_partition, n)
        # the square's chromatic closed form is the fan's: t times the
        # characteristic polynomial of its cycle matroid, which is the fan's
        chromatic, fams = ROUTES["chromatic", "brute"]
        closed = ROUTES["chromatic", "closed"][0]
        for fam, (lo, hi) in fams.items():
            want = partial(closed, {"square": "fan"}.get(fam, fam))
            for n in ns(lo, hi):
                add(f"oracle/chromatic/{fam}/{n}", _agrees, partial(chromatic, fam), want, n)
    if suite in ("gf", "all"):
        o = 12 if order is None else order
        for which in series.GF_NAMES:
            add(f"gf/{which}/order-{o}", _gf_matches, which, o)
    if suite in ("recurrence", "all"):
        # from where both the recurrence and the closed form hold
        closed_ranges = ROUTES["kl", "closed"][1]
        for fam, (lo, hi) in ROUTES["kl", "recurrence"][1].items():
            for n in ns(max(lo, closed_ranges[fam][0]), hi):
                add(f"recurrence/{fam}/{n}", _agrees, partial(kl.kl_recurrence, fam),
                    partial(kl.kl_closed, fam), n)
    if suite in ("roots", "all"):
        # one check per record that compute and table print, over each
        # closed route's range
        for kind in ("kl", "z"):
            for fam, (lo, hi) in ROUTES[kind, "closed"][1].items():
                for n in ns(lo, hi):
                    add(f"roots/{kind}-negative/{fam}/{n}", _closed_all_negative, kind, fam, n)
        for n in ns(3, 25):
            add(f"roots/fan-interlacing/{n}", _holds, _fan_interlaces, n)
    if suite in ("identities", "all"):
        for claim, lo, top, *check in (
                ("narayana", 1, 20, _holds, realroot.verify_narayana_identity),
                ("hadamard", 3, 30, _agrees, _hadamard_product, partial(kl.kl_closed, "wheel")),
                ("wheel-z-quadratic", 3, 30, _holds, realroot.verify_wheel_z_quadratic),
                ("lucas-fibonacci", 3, 40, _holds, realroot.verify_lucas_fibonacci),
                ("n-sequence", 7, 30, _holds, _n_sequence_holds),
                ("relaxation-kl", 3, 30, _relaxation, "kl"),
                ("relaxation-z", 3, 30, _relaxation, "z")):
            for n in ns(lo, top):
                add(f"identities/{claim}/{n}", *check, n)
        add("identities/spot-values", _spot_values)
    if not checks:
        raise UsageError(f"unknown suite {suite!r}")
    return checks


def _run_check_timed(item):
    name, check = item
    start = time.perf_counter()
    try:
        ok, detail = check()
    except Exception as exc:  # a crash is a failure, not an abort
        ok, detail = False, f"exception: {exc!r}"
    return name, ok, detail, time.perf_counter() - start


def cmd_verify(args):
    checks = build_suite(args.suite, args.max_n, args.order)
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
    pv.add_argument("--order", type=int, default=None)

    pt = sub.add_parser("table", help="closed-form table over a range of n")
    pt.add_argument("--family", required=True, choices=kl.FAMILIES)
    pt.add_argument("--kind", required=True, choices=KINDS)
    pt.add_argument("--max-n", dest="max_n", type=int, required=True)
    pt.add_argument("--format", default="csv", choices=["json", "csv"])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {"compute": cmd_compute, "table": cmd_table, "verify": cmd_verify}
    try:
        code, text = command[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.command in ("compute", "table"):
            print(supported_matrix(), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`), which leaves the
        # outcome as it was; what is still buffered goes to the null device,
        # so that the interpreter's last flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
