"""Acceptance suite: one test per criterion, exact equality throughout, one
printed pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

from matroidkl import kl, matroids, realroot, series
from matroidkl.graphs import make_family
from matroidkl.poly import Poly

FAN_RANGE = range(1, 9)
WHEEL_RANGE = range(3, 8)


def _report(name, ok, t0):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name} ({time.time() - t0:.1f}s)")
    assert ok, name


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    ok = True
    for n in FAN_RANGE:
        fan = kl.kl_poly(kl.family_matroid("fan", n))
        square = kl.kl_poly(kl.family_matroid("square", n))
        closed = kl.kl_closed("fan", n)
        ok &= fan == closed and square == closed
    for n in WHEEL_RANGE:
        ok &= kl.kl_poly(kl.family_matroid("wheel", n)) == kl.kl_closed("wheel", n)
        ok &= kl.kl_poly(kl.family_matroid("whirl", n)) == kl.kl_closed("whirl", n)
    _report("criterion-1 oracle equivalence (fan/square 1-8, wheel/whirl 3-7)", ok, t0)


def test_criterion_2_z_oracle_equivalence():
    t0 = time.time()
    ok = True
    for n in FAN_RANGE:
        ok &= kl.z_poly(kl.family_matroid("fan", n)) == kl.z_closed("fan", n)
    for n in WHEEL_RANGE:
        ok &= kl.z_poly(kl.family_matroid("wheel", n)) == kl.z_closed("wheel", n)
        ok &= kl.z_poly(kl.family_matroid("whirl", n)) == kl.z_closed("whirl", n)
    _report("criterion-2 Z-oracle equivalence (fan 1-8, wheel/whirl 3-7)", ok, t0)


def test_criterion_3_recurrence_fidelity():
    t0 = time.time()
    ok = kl.kl_recurrence("fan", 0) == Poly([1]) and kl.kl_recurrence("fan", 1) == Poly([1])
    ok &= kl.kl_recurrence("wheel", 2) == Poly([1])
    ok &= kl.kl_recurrence("wheel", 3) == Poly([1, 1])
    ok &= kl.kl_recurrence("wheel", 4) == Poly([1, 5])
    ok &= kl.kl_recurrence("whirl", 1) == Poly([1])
    ok &= kl.kl_recurrence("whirl", 2) == Poly([1])
    ok &= kl.kl_recurrence("whirl", 3) == Poly([1, 3])
    for n in range(1, 41):
        ok &= kl.kl_recurrence("fan", n) == kl.kl_closed("fan", n)
    for n in range(2, 41):
        ok &= kl.kl_recurrence("wheel", n) == kl.kl_closed("wheel", n)
    for n in range(3, 41):
        ok &= kl.kl_recurrence("whirl", n) == kl.kl_closed("whirl", n)
    elapsed = time.time() - t0
    _report("criterion-3 recurrence fidelity to n=40", ok and elapsed < 10, t0)


def test_criterion_4_generating_functions():
    t0 = time.time()
    ok = True
    s = series.gf_expand("kl_fan", 12)
    ok &= s.coefficient(0) == Poly([1])
    for n in range(1, 13):
        ok &= s.coefficient(n) == kl.kl_closed("fan", n)
    s = series.gf_expand("kl_wheel", 10)
    ok &= s.coefficient(0).is_zero() and s.coefficient(1).is_zero()
    ok &= s.coefficient(2) == Poly([1])
    for n in range(3, 11):
        ok &= s.coefficient(n) == kl.kl_closed("wheel", n)
    s = series.gf_expand("kl_whirl", 12)
    ok &= s.coefficient(0).is_zero()
    ok &= s.coefficient(1) == Poly([1]) and s.coefficient(2) == Poly([1])
    for n in range(3, 13):
        ok &= s.coefficient(n) == kl.kl_closed("whirl", n)
    s = series.gf_expand("z_fan", 12)
    ok &= s.coefficient(0) == Poly([1])
    for n in range(1, 13):
        ok &= s.coefficient(n) == kl.z_closed("fan", n)
    s = series.gf_expand("z_wheel", 12)
    ok &= s.coefficient(0).is_zero() and s.coefficient(1).is_zero()
    for n in range(2, 13):
        ok &= s.coefficient(n) == kl.z_closed("wheel", n)
    s = series.gf_expand("z_whirl", 12)
    ok &= s.coefficient(0).is_zero()
    for n in range(1, 13):
        ok &= s.coefficient(n) == kl.z_closed("whirl", n)
    elapsed = time.time() - t0
    _report("criterion-4 generating functions (order 12, wheel KL 10)", ok and elapsed < 30, t0)


def test_criterion_5_real_rootedness():
    t0 = time.time()
    ok = True
    for n in range(1, 31):
        ok &= realroot.all_zeros_negative(kl.kl_closed("fan", n))[0]
        ok &= realroot.all_zeros_negative(kl.kl_closed("square", n))[0]
        ok &= realroot.all_zeros_negative(kl.z_closed("fan", n))[0]
    for n in range(3, 31):
        ok &= realroot.all_zeros_negative(kl.kl_closed("wheel", n))[0]
        ok &= realroot.all_zeros_negative(kl.kl_closed("whirl", n))[0]
        ok &= realroot.all_zeros_negative(kl.z_closed("whirl", n))[0]
        ok &= realroot.is_real_rooted(kl.z_closed("wheel", n))
    elapsed = time.time() - t0
    _report("criterion-5 Sturm certificates (P and Z, n<=30)", ok and elapsed < 60, t0)


def test_criterion_6_fan_interlacing():
    t0 = time.time()
    ok = all(
        realroot.interleaves(kl.kl_closed("fan", n), kl.kl_closed("fan", n + 1))
        for n in range(3, 26)
    )
    elapsed = time.time() - t0
    _report("criterion-6 fan interlacing chain n=3..25", ok and elapsed < 60, t0)


def test_criterion_7_identity_suite():
    t0 = time.time()
    ok = all(realroot.verify_narayana_identity(n) for n in range(1, 21))
    for n in range(3, 31):
        p = kl.kl_closed("wheel", n)
        for k in range((n - 1) // 2 + 1):
            a, b, c = kl.hadamard_wheel_coeff(n, k)
            ok &= a * b * c == p.coeff(k)
    ok &= all(realroot.verify_wheel_z_quadratic(n) for n in range(3, 31))
    ok &= all(realroot.verify_lucas_fibonacci(n) for n in range(3, 41))
    for n in range(7, 31):
        m = (n - 1) // 2
        gamma = [
            (k + 1) * n**2 - (2 * k**2 + 4 * k) * n + k**3 + 3 * k**2 - k - 1
            for k in range(m + 1)
        ]
        ok &= realroot.n_sequence_check(gamma, m)
    elapsed = time.time() - t0
    _report("criterion-7 identity suite (Narayana/Hadamard/quadratic/Lucas-Fibonacci/n-sequence)",
            ok and elapsed < 60, t0)


def test_criterion_8_spot_values():
    t0 = time.time()
    ok = kl.kl_closed("wheel", 3) == Poly([1, 1])
    ok &= kl.kl_closed("wheel", 4) == Poly([1, 5])
    ok &= kl.kl_closed("whirl", 3) == Poly([1, 3])
    ok &= kl.kl_poly(kl.family_matroid("wheel", 3)) == Poly([1, 1])
    ok &= kl.kl_poly(kl.family_matroid("wheel", 4)) == Poly([1, 5])
    ok &= kl.kl_poly(kl.family_matroid("whirl", 3)) == Poly([1, 3])
    motzkin = [1, 1]
    while len(motzkin) < 16:
        k = len(motzkin) - 1
        motzkin.append(motzkin[k] + sum(motzkin[i] * motzkin[k - 1 - i] for i in range(k)))
    for n in range(1, 16):
        ok &= kl.kl_closed("fan", n)(1) == motzkin[n - 1]
    _report("criterion-8 pinned spot values and Motzkin evaluations", ok, t0)


def test_criterion_9_whirl_flat_structure():
    t0 = time.time()
    ok = True
    for n in range(3, 7):
        whirl = matroids.whirl_matroid(n)
        wheel = matroids.graphic_matroid(make_family("wheel", n))
        outer = matroids.outer_cycle_mask(n)
        l1 = {outer & ~(1 << e) for e in range(whirl.m) if outer >> e & 1}
        full = (1 << whirl.m) - 1
        l2 = {full} | {f.elements for f in wheel.flats() if f.elements & outer != outer}
        got = {f.elements for f in whirl.flats()}
        ok &= l1.isdisjoint(l2) and got == l1 | l2
        ok &= len(l1) == n
    elapsed = time.time() - t0
    _report("criterion-9 whirl flat classification n=3..6", ok and elapsed < 30, t0)
