"""The verification suites of `matroidkl verify`: each check is a (name,
partial of a module-level function) pair that returns (ok, detail).  All but
the gf checks and identities/spot-values check one claim at one n, take that n
as their last argument and are named <suite>/<claim>/<n>, so every failing n
fails its own check.  cli imports this module only when verify runs.
"""

from __future__ import annotations

import time
from functools import partial
from math import comb

from . import graphs, kl, matroids, realroot, series
from .cli import N_MAX, ROUTES, UsageError, compute_record
from .poly import Poly


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
    this is its real-rootedness; a failure names both root flags."""
    flags = compute_record(family, n, kind, "closed").flags
    return flags["all_negative"], (f"n={n}: real_rooted={flags['real_rooted']}, "
                                   f"all_negative={flags['all_negative']}")


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


def build_suite(suite, max_n=None):
    """The (name, check) pairs of a suite."""
    if max_n is not None and type(max_n) is not int:
        raise TypeError(f"--max-n must be an int, got {type(max_n).__name__}")
    if max_n is not None and not 1 <= max_n <= N_MAX:
        raise UsageError(f"--max-n needs 1 <= max-n <= {N_MAX}, got {max_n}")
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
        # to the top of the closed Z route, so that every Z value it serves
        # is compared with a second route, or to --max-n if that is lower
        o = ns(1, max(hi for _, hi in ROUTES["z", "closed"][1].values()))[-1]
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
