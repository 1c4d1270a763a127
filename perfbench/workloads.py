"""The three benchmark workloads.

Each workload turns a seed into a list of items and checks every item's
output against a second, independent route.  Items call only public entry
points of matroidkl and never pass a KL context, so they share the
process-global caches the way one CLI process does.

An item is a tuple whose first entry names its check; ``run_item`` returns
``(ok, detail, output)`` where ``output`` is digested to prove that repeated
runs computed the same values.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from matroidkl import cli, graphs, kl, matroids, realroot, series
from matroidkl.poly import Poly

WORKLOADS = ("brute", "certify", "expand")

# Largest sizes per workload.  "full" is what the benchmark measures; "small"
# is the self-test size, where every item still runs at least once.
SIZES = {
    "brute": {
        "full": {"fan": 7, "square": 7, "wheel": 7, "whirl": 7},
        "small": {"fan": 4, "square": 4, "wheel": 4, "whirl": 4},
    },
    "certify": {
        "full": {"kl": 24, "z": 14, "interlacing": 16, "identities": 20},
        "small": {"kl": 5, "z": 5, "interlacing": 5, "identities": 7},
    },
    "expand": {
        "full": {"order": 48, "recurrence": 200},
        "small": {"order": 6, "recurrence": 12},
    },
}

T = Poly([0, 1])

# Smallest n of each family, fixed here rather than read from the CLI so that
# a change to the CLI's ranges cannot shrink the workload.
FAMILY_MIN = {"fan": 1, "square": 1, "wheel": 3, "whirl": 3}
RECURRENCE_MIN = {"fan": 1, "wheel": 3, "whirl": 3}
GF_START = {"kl_fan": 0, "kl_wheel": 2, "kl_whirl": 1, "z_fan": 0, "z_wheel": 2, "z_whirl": 1}
# series coefficients that lie below a closed form's range and equal 1
GF_ONE = {("kl_fan", 0), ("kl_wheel", 2), ("kl_whirl", 1), ("kl_whirl", 2), ("z_fan", 0)}


def _product(*factors):
    out = Poly([1])
    for f in factors:
        out = out * Poly(f)
    return out


# Inputs whose certificates must say no (False), plus two that must say yes:
# a double negative root and an interlacing pair.  A certifier that always
# answers True fails the first group; one that always answers False, or
# miscounts a repeated root, fails the second.
CONTROLS = {
    "no-real-roots/1+t+t^2": ("is_real_rooted", (_product((1, 1, 1)),), False),
    "no-negative/1+t+t^2": ("all_zeros_negative", (_product((1, 1, 1)),), False),
    "positive-root/(t-1)(t+2)(t+3)": ("all_zeros_negative", (_product((-1, 1), (2, 1), (3, 1)),), False),
    "double-positive-root/(t-2)^2(t+1)": ("all_zeros_negative", (_product((-2, 1), (-2, 1), (1, 1)),), False),
    "double-root-complex-pair/(t+1)^2(t^2+t+1)": ("is_real_rooted", (_product((1, 1), (1, 1), (1, 1, 1)),), False),
    "double-negative-root/(t+1)^2(t+3)": ("all_zeros_negative", (_product((1, 1), (1, 1), (3, 1)),), True),
    "non-interlacing/(t+5)(t+6)|(t+1)(t+2)(t+3)": (
        "interleaves",
        (_product((5, 1), (6, 1)), _product((1, 1), (2, 1), (3, 1))),
        False,
    ),
    "interlacing/(t+2)|(t+1)(t+3)": ("interleaves", (_product((2, 1)), _product((1, 1), (3, 1))), True),
    "n-sequence/1+t^2": ("n_sequence_check", ([1, 0, 1], 2), False),
}


def make_items(workload, size, seed, order=0):
    """The workload's items for this size, in the seed's order number
    ``order``."""
    limits = SIZES[workload][size]
    items = {"brute": _brute_items, "certify": _certify_items, "expand": _expand_items}[workload](limits)
    random.Random(f"{seed}:{order}").shuffle(items)
    return items


def _brute_items(hi):
    items = []
    for fam, top in hi.items():
        for n in range(FAMILY_MIN[fam], top + 1):
            items.append(("kl_brute", fam, n))
            if fam != "square":  # the square's Z equals the fan's; verify's oracle suite skips it too
                items.append(("z_brute", fam, n))
            items.append(("characteristic_brute", fam, n))
            if fam != "whirl":
                items.append(("chromatic_brute", fam, n))
    return items


def _certify_items(lim):
    items = []
    for kind in ("kl", "z"):
        for fam, lo in FAMILY_MIN.items():
            for n in range(lo, lim[kind] + 1):
                items.append(("record", fam, n, kind))
    items += [("interlacing", n) for n in range(1, lim["interlacing"])]
    items += [("n_sequence", n) for n in range(7, lim["identities"] + 1)]
    items += [("lucas_fibonacci", n) for n in range(3, lim["identities"] + 1)]
    items += [("control", name) for name in CONTROLS]
    return items


def _expand_items(lim):
    items = [("gf", which, lim["order"]) for which in series.GF_NAMES]
    items += [("recurrence", fam, lim["recurrence"]) for fam in RECURRENCE_MIN]
    return items


def label(item):
    return "/".join(str(x) for x in item)


def run_item(item):
    return _CHECKS[item[0]](*item[1:])


def _compare(got, want):
    if got == want:
        return True, "", got
    return False, _first_difference(got, want), got


def _first_difference(got, want):
    for k in range(max(len(got.coeffs), len(want.coeffs))):
        if got.coeff(k) != want.coeff(k):
            return f"t^{k}: got {got.coeff(k)}, want {want.coeff(k)}"
    return "unequal"


# -- brute: the lattice route against the closed forms -----------------------


def _kl_brute(fam, n):
    return _compare(kl.kl_poly(kl.family_matroid(fam, n)), kl.kl_closed(fam, n))


def _z_brute(fam, n):
    return _compare(kl.z_poly(kl.family_matroid(fam, n)), kl.z_closed(fam, n))


def _characteristic_brute(fam, n):
    got = matroids.characteristic_polynomial(kl.family_matroid(fam, n))
    return _compare(got, kl.characteristic_closed(fam, n))


def _chromatic_brute(fam, n):
    # a connected graph's chromatic polynomial is t times its matroid's
    # characteristic polynomial
    got = graphs.chromatic_polynomial(kl.family_graph(fam, n))
    return _compare(got, T * kl.characteristic_closed(fam, n))


# -- certify: Sturm certificates against the families' known verdicts --------


def _record(fam, n, kind):
    rec = cli.compute_record(fam, n, kind, "closed")
    got = Poly([int(c) for c in rec.coeffs])
    # every KL and Z polynomial of these families is real-rooted with only
    # negative zeros (constant term 1, positive coefficients)
    if not (rec.flags["real_rooted"] and rec.flags["all_negative"]):
        return False, f"certificate said no: {rec.flags}", got
    if kind == "kl":
        want = kl.kl_recurrence("fan" if fam == "square" else fam, n)
        return _compare(got, want)
    if got.degree != n or list(got.coeffs) != list(reversed(got.coeffs)):
        return False, "Z is not palindromic of degree n", got
    if fam in ("fan", "square"):
        return _compare(got, realroot.narayana_polynomial(n + 1))
    if fam == "whirl":
        return _compare(got, Poly([comb(n, k) ** 2 for k in range(n + 1)]))
    if not realroot.verify_wheel_z_quadratic(n):
        return False, "gamma route disagrees with the closed form", got
    return _compare(got, Poly([
        comb(n, k) ** 2 - Fraction(2 * comb(n, k + 1) * (comb(n, k - 1) if k else 0), n)
        for k in range(n + 1)
    ]))


def _interlacing(n):
    ok = realroot.interleaves(kl.kl_closed("fan", n), kl.kl_closed("fan", n + 1))
    return ok, "fan chain breaks", ok


def _n_sequence(n):
    m = (n - 1) // 2
    gamma = [
        (k + 1) * n**2 - (2 * k**2 + 4 * k) * n + k**3 + 3 * k**2 - k - 1
        for k in range(m + 1)
    ]
    ok = realroot.n_sequence_check(gamma, m)
    return ok, "wheel gamma rejected", ok


def _lucas_fibonacci(n):
    ok = realroot.verify_lucas_fibonacci(n)
    return ok, "identity rejected", ok


def _control(name):
    func, args, want = CONTROLS[name]
    verdict = getattr(realroot, func)(*args)
    if isinstance(verdict, tuple):  # all_zeros_negative returns (verdict, certificate)
        verdict = verdict[0]
    return verdict is want, f"{func} said {verdict}, want {want}", verdict


# -- expand: series and recurrences against the closed forms -----------------


def _gf(which, order):
    s = series.gf_expand(which, order)
    kind, fam = which.split("_")
    start = GF_START[which]
    for n in range(order + 1):
        got = s.coefficient(n)
        if n < start:
            want = Poly()
        elif (which, n) in GF_ONE:
            want = Poly([1])
        else:
            want = (kl.kl_closed if kind == "kl" else kl.z_closed)(fam, n)
        if got != want:
            return False, f"u^{n}: {_first_difference(got, want)}", s
    return True, "", s


def _recurrence(fam, hi):
    last = None
    for n in range(RECURRENCE_MIN[fam], hi + 1):
        ok, detail, last = _compare(kl.kl_recurrence(fam, n), kl.kl_closed(fam, n))
        if not ok:
            return False, f"n={n}: {detail}", last
    return True, "", last


_CHECKS = {
    "kl_brute": _kl_brute,
    "z_brute": _z_brute,
    "characteristic_brute": _characteristic_brute,
    "chromatic_brute": _chromatic_brute,
    "record": _record,
    "interlacing": _interlacing,
    "n_sequence": _n_sequence,
    "lucas_fibonacci": _lucas_fibonacci,
    "control": _control,
    "gf": _gf,
    "recurrence": _recurrence,
}
