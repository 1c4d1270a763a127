"""Acceptance suite: each criterion runs the checks of `matroidkl verify --suite
all` whose names it owns and prints one line, which names its first failing
check and that check's detail.  Criterion 1's oracle checks compare P, Z and
chi from one lattice; criterion 2 compares the Z routes on their own, brute
against closed.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time

from matroidkl.checks import _compare, _run_check_timed, build_suite
from matroidkl.cli import ROUTES
from matroidkl.kl import FAMILIES

SUITE = build_suite("all")
IDENTITIES = ("narayana", "hadamard", "wheel-z-quadratic", "lucas-fibonacci", "n-sequence",
              "relaxation-kl", "relaxation-z")

# criterion -> (the check-name prefixes it owns, its time gate in seconds)
CRITERIA = {
    "criterion-1 oracle P, Z, chi": (tuple(f"oracle/{f}/" for f in FAMILIES), None),
    "criterion-3 recurrence fidelity": (("recurrence/",), 10),
    "criterion-4 generating functions": (("gf/",), 30),
    "criterion-5 Sturm certificates": (("roots/kl-negative/", "roots/z-negative/"), 60),
    "criterion-6 fan interlacing": (("roots/fan-interlacing/",), 60),
    "criterion-7 identity suite": (tuple(f"identities/{c}/" for c in IDENTITIES), 60),
    "criterion-8 spot values": (("identities/spot-values",), None),
    "criterion-9 whirl flats": (("oracle/whirl-flats/",), 30),
    "criterion-10 chromatic polynomials": (("oracle/chromatic/",), 30),
}


def _criterion(title):
    prefixes, gate = CRITERIA[title]
    t0 = time.perf_counter()
    results = [_run_check_timed(item) for item in SUITE if item[0].startswith(prefixes)]
    _report(title, [(name, ok, detail) for name, ok, detail, _ in results], t0, gate)


def _report(title, results, t0, gate=None):
    elapsed = time.perf_counter() - t0
    failed = [f"{name}: {detail}" for name, ok, detail in results if not ok]
    if gate is not None and elapsed >= gate:
        failed.append(f"took {elapsed:.1f}s, over its {gate}s gate")
    line = f"{title} ({len(results)} checks, {elapsed:.1f}s)"
    print(f"FAIL {line}: {failed[0]}" if failed else f"PASS {line}")
    assert results, title
    assert not failed, failed[0]


def test_criteria_split_the_suite():
    owners = {name: [title for title, (prefixes, _) in CRITERIA.items()
                     if name.startswith(prefixes)] for name, _ in SUITE}
    assert len(owners) == len(SUITE) == 983
    assert {name: titles for name, titles in owners.items() if len(titles) != 1} == {}


def test_criterion_1_oracle_equivalence():
    _criterion("criterion-1 oracle P, Z, chi")


def test_criterion_2_z_oracle_equivalence():
    t0 = time.perf_counter()
    brute, ranges = ROUTES["z", "brute"]
    closed = ROUTES["z", "closed"][0]
    results = [(f"z/{fam}/{n}", *_compare(brute(fam, n), closed(fam, n), n))
               for fam, (lo, hi) in ranges.items() for n in range(lo, hi + 1)]
    _report("criterion-2 Z brute against Z closed", results, t0)


def test_criterion_3_recurrence_fidelity():
    _criterion("criterion-3 recurrence fidelity")


def test_criterion_4_generating_functions():
    _criterion("criterion-4 generating functions")


def test_criterion_5_real_rootedness():
    _criterion("criterion-5 Sturm certificates")


def test_criterion_6_fan_interlacing():
    _criterion("criterion-6 fan interlacing")


def test_criterion_7_identity_suite():
    _criterion("criterion-7 identity suite")


def test_criterion_8_spot_values():
    _criterion("criterion-8 spot values")


def test_criterion_9_whirl_flat_structure():
    _criterion("criterion-9 whirl flats")


def test_criterion_10_chromatic_polynomials():
    _criterion("criterion-10 chromatic polynomials")
