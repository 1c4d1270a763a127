import copy
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import (
    RANDOM_GRAPHS,
    PairLattice,
    below_lists,
    characteristic_by_masks,
    check_bottom_by_pairs,
    contraction,
    factor_product,
    flat_pass_by_pairs,
    flat_pass_per_flat,
    graphs_up_to_16_edges,
    kl_closed_over_q,
    lattice_by_pairs,
    lattice_isomorphic,
    localization,
    multiplicative_kl,
    rec_sequence_by_poly,
    reverse_scaled,
    z_closed_over_q,
)
from matroidkl import cli, graphs, kl, matroids, realroot, series
from matroidkl.graphs import SimpleGraph, make_family
from matroidkl.matroids import (
    MAX_FLATS, MAX_GROUND, RankOracleMatroid, graphic_matroid, whirl_matroid,
)
from matroidkl.poly import T, Poly
from matroidkl.series import GF_NAMES, MAX_ORDER, gf_expand


def recurrence_terms(family, length):
    """a[0..length-1] of a recurrence sequence, each read through kl_recurrence."""
    first = kl.FIRST_N["kl_recurrence"][family]
    return [kl.kl_recurrence(family, n) for n in range(first, first + length)]


def fam_matroid(family, n):
    return kl.family_matroid(family, n)


def test_rank_zero_and_forests():
    empty = RankOracleMatroid(0, bytearray(1))
    assert kl.kl_poly(empty) == Poly([1])
    assert kl.z_poly(empty) == Poly([1])
    for g in (make_family("path", 4), SimpleGraph(5, [(0, 1), (2, 3)])):
        assert kl.kl_poly(graphic_matroid(g)) == Poly([1])


def test_brute_spot_values():
    assert kl.kl_poly(fam_matroid("wheel", 3)) == Poly([1, 1])
    assert kl.z_poly(fam_matroid("fan", 1)) == Poly([1, 1])
    assert kl.z_poly(whirl_matroid(3)) == Poly([1, 9, 9, 1])
    # the 3-cycle stands in for the degenerate wheel on two rim vertices
    tri = graphic_matroid(make_family("cycle", 3))
    assert kl.kl_poly(tri) == Poly([1])
    assert kl.z_poly(tri) == Poly([1, 3, 1])


def test_closed_spot_values():
    assert kl.kl_closed("fan", 5) == Poly([1, 6, 2])
    assert kl.kl_closed("wheel", 4) == Poly([1, 5])
    assert kl.kl_closed("wheel", 3) == Poly([1, 1])
    assert kl.kl_closed("whirl", 3) == Poly([1, 3])
    assert kl.kl_closed("wheel", 2) == Poly([1])  # informational extension
    assert kl.z_closed("fan", 2) == Poly([1, 3, 1])
    assert kl.z_closed("whirl", 3) == Poly([1, 9, 9, 1])
    assert kl.z_closed("wheel", 3) == Poly([1, 7, 7, 1])
    with pytest.raises(ValueError):
        kl.kl_closed("whirl", 2)
    with pytest.raises(ValueError):
        kl.kl_closed("fan", 0)


def test_degree_bound_and_constant_term():
    for family, lo in (("fan", 1), ("square", 1), ("wheel", 3), ("whirl", 3)):
        for n in range(lo, 6):
            p = kl.kl_poly(fam_matroid(family, n))
            assert p.coeff(0) == 1
            assert p.is_zero() or p.degree < n / 2
            z = kl.z_poly(fam_matroid(family, n))
            assert z.degree == n


def solved_by_index(lat):
    """P and Z of every flat from the pass, indexed like the flats."""
    solved = list(kl._flat_pass(lat))[::-1]
    return [p for p, _ in solved], [z for _, z in solved]


def test_every_flat_against_naive():
    # the pass solves every upper interval [F, top]: each is the lattice of
    # the contraction at F, which the naive route rebuilds from rank oracles
    for family, n in (("fan", 4), ("wheel", 4), ("whirl", 4)):
        m = fam_matroid(family, n)
        lat = kl.lattice_of(m)
        ps, zs = solved_by_index(lat)
        assert len(ps) == len(zs) == len(m.flats())
        for a, (f, p, z) in enumerate(zip(m.flats(), ps, zs)):
            contr = contraction(m, f.elements)
            assert Poly(p) == naive_kl(contr)
            # Z of [F, top] by its definition, from the P of the flats that
            # contain F in the bitset order
            containing = lat.containing(a)
            z_f = sum((T ** (g.rank - f.rank) * Poly(ps[i])
                       for i, g in enumerate(m.flats()) if containing >> i & 1), Poly())
            assert Poly(z) == z_f == naive_z(contr)


def _rederive_below(lat, ps, i):
    """Recompute P at every flat strictly below flat i from the values above
    it by palindromicity of Z, the way the pass carries a fault at i down."""
    for a in sorted(below_lists(lat)[i], key=lambda a: -lat.ranks[a]):
        r = lat.top_rank - lat.ranks[a]
        rest = Poly()
        for f in lat.above[a]:
            rest = rest + T ** (lat.ranks[f] - lat.ranks[a]) * ps[f]
        ps[a] = Poly([rest.coeff(r - k) - rest.coeff(k) for k in range((r + 1) // 2)])


def _top_down(lat, ps):
    """(P, Z) of every flat from the top down, as the pass yields them, with
    Z of [F, top] from P by its definition."""
    solved = []
    for a in reversed(range(lat.n)):
        z = sum((T ** (lat.ranks[f] - lat.ranks[a]) * ps[f] for f in lat.above[a]), ps[a])
        solved.append((ps[a].coeffs, z.coeffs))
    return solved


def test_bottom_certificate_catches_interior_fault():
    # a fault in P at an interior flat, carried down by palindromicity as
    # the pass would carry it, breaks sum over G of mu(bottom, G) * Z_G
    faults = 0
    for family, n in (("fan", 4), ("wheel", 4), ("whirl", 4)):
        m = fam_matroid(family, n)
        lat, pairs = kl.lattice_of(m), lattice_by_pairs(m)
        clean, _ = flat_pass_by_pairs(pairs)
        assert kl._check_bottom(lat, _top_down(pairs, clean)) == kl.kl_z_chi(m)
        for i in range(pairs.n):
            r = pairs.top_rank - pairs.ranks[i]
            if pairs.ranks[i] == 0 or r == 0:
                continue
            for k in range((r + 1) // 2):
                ps = list(clean)
                ps[i] = ps[i] + T ** k
                _rederive_below(pairs, ps, i)
                with pytest.raises(ArithmeticError):
                    kl._check_bottom(lat, _top_down(pairs, ps))
                faults += 1
    assert faults == 140


def matches_pair_route(m):
    """The popcount pass and certificate against the pairwise oracle: P of
    every flat, Z, chi, and mu(bottom, F) of every flat, the constant term
    of chi of [bottom, F]."""
    lat, pairs = kl.lattice_of(m), lattice_by_pairs(m)
    want_ps, want_z = flat_pass_by_pairs(pairs)
    want_chi = check_bottom_by_pairs(pairs, want_ps)
    return ([Poly(p) for p in solved_by_index(lat)[0]] == want_ps
            and kl.kl_z_chi(m) == (want_ps[0], want_z, want_chi)
            and lat.mobius() == [chi.coeff(0) for chi in pairs.chi_from_bottom()])


def test_popcount_route_matches_pair_oracle():
    for family, (lo, _) in cli.ROUTES["kl", "brute"][1].items():
        for n in range(lo, 7):
            assert matches_pair_route(fam_matroid(family, n)), (family, n)


@RANDOM_GRAPHS
@given(graphs_up_to_16_edges())
def test_popcount_route_matches_pair_oracle_on_random_graphs(g):
    assert matches_pair_route(graphic_matroid(g))


def test_pass_matches_per_flat_oracle():
    # one solve per distinct count vector yields what solving every flat on
    # its own yields, flat for flat and in the same order
    for family, (lo, hi) in cli.ROUTES["kl", "brute"][1].items():
        for n in range(lo, hi + 1):
            lat = kl.lattice_of(fam_matroid(family, n))
            assert list(kl._flat_pass(lat)) == list(flat_pass_per_flat(lat)), (family, n)


@RANDOM_GRAPHS
@given(graphs_up_to_16_edges())
def test_pass_matches_per_flat_oracle_on_random_graphs(g):
    lat = kl.lattice_of(graphic_matroid(g))
    assert list(kl._flat_pass(lat)) == list(flat_pass_per_flat(lat))


def test_pass_shares_one_pair_per_count_vector():
    # wheel 7 has 836 flats but 20 distinct (rank, Z): the flats that share
    # a Z share one list, so the sharing is live, and no consumer changes a
    # shared pair while the pass still hands it out
    lat = kl.lattice_of(fam_matroid("wheel", 7))
    solved = list(kl._flat_pass(lat))
    ranks = [f.rank for f in reversed(lat.flats)]
    assert len(solved) == len(ranks) == 836
    assert len({id(z) for _, z in solved}) == 20
    assert len({(rank, tuple(z)) for rank, (_, z) in zip(ranks, solved)}) == 20
    seen = []

    def copied(pairs):
        for pair in pairs:
            seen.append((pair, copy.deepcopy(pair)))
            yield pair

    assert kl._check_bottom(lat, copied(kl._flat_pass(lat))) == kl.kl_z_chi(fam_matroid("wheel", 7))
    assert len(seen) == 836
    assert all(pair == before for pair, before in seen)


def test_kl_z_chi_at_the_flat_bound():
    # the 14-edge path: a boolean lattice of MAX_FLATS flats, the largest
    # that lattice_of builds; its P is 1, so Z counts the flats by rank
    m = graphic_matroid(make_family("path", 15))
    assert len(m.flats()) == MAX_FLATS
    p, z, chi = kl.kl_z_chi(m)
    assert (p, z, chi) == (Poly([1]), Poly([1, 1]) ** 14, Poly([-1, 1]) ** 14)


def test_recurrence_seeds():
    assert kl.kl_recurrence("fan", 0) == Poly([1])
    assert kl.kl_recurrence("fan", 1) == Poly([1])
    assert kl.kl_recurrence("wheel", 2) == Poly([1])
    assert kl.kl_recurrence("wheel", 3) == Poly([1, 1])
    assert kl.kl_recurrence("wheel", 4) == Poly([1, 5])
    assert kl.kl_recurrence("whirl", 1) == Poly([1])
    assert kl.kl_recurrence("whirl", 2) == Poly([1])
    assert kl.kl_recurrence("whirl", 3) == Poly([1, 3])


def test_every_route_rejects_an_n_that_is_not_an_int():
    # a bool or float n would pass the range checks: kl_closed("fan", True)
    # would return 1, and compute_record would print "n: true"
    for bad in (True, 2.0, 4.0):
        for name, entry in kl.FIRST_N.items():
            for family in entry:
                with pytest.raises(TypeError, match="must be an int, got"):
                    getattr(kl, name)(family, bad)
        for kind, method in cli.ROUTES:
            for family in cli.ROUTES[kind, method][1]:
                with pytest.raises(TypeError, match="int"):
                    cli.compute_record(family, bad, kind, method)


# (call, lo, hi): each entry point that takes an int argument, with that
# argument's range, hi None where it has no upper bound
INT_ARGUMENTS = {
    "narayana": (realroot.narayana_polynomial, 1, None),
    "lucas": (realroot.lucas_polynomial, 0, None),
    "fibonacci": (realroot.fibonacci_polynomial, 1, None),
    "verify_narayana": (realroot.verify_narayana_identity, 1, None),
    "verify_lucas_fibonacci": (realroot.verify_lucas_fibonacci, 3, None),
    "verify_wheel_z_quadratic": (realroot.verify_wheel_z_quadratic, 3, None),
    "n_sequence_check": (lambda n: realroot.n_sequence_check([1, 1], n), 0, None),
    "whirl_matroid": (whirl_matroid, 3, MAX_GROUND // 2),
    "hadamard_n": (lambda n: kl.hadamard_wheel_coeff(n, 0), 3, None),
    "hadamard_k": (lambda n: kl.hadamard_wheel_coeff(5, n), 0, 2),
    **{f"make_family_{family}": (lambda n, family=family: make_family(family, n), first, None)
       for family, first in graphs.FIRST_N.items()},
    "graph_vertex_count": (SimpleGraph, 0, None),
    "graph_edge_endpoint": (lambda v: SimpleGraph(3, [(0, v)]), 0, 2),
    "rank_oracle_ground_set": (lambda m: RankOracleMatroid(m, b"\x00\x01"), 0, MAX_GROUND),
    "gf_expand": (lambda n: gf_expand("kl_fan", n), 1, MAX_ORDER),
    "truncation_order": (series.TruncSeries, 0, None),
    "coefficient_index": (lambda n: series.TruncSeries(2).coefficient(n), 0, 2),
    "power": (lambda n: Poly([1, 1]) ** n, 0, None),
}


@pytest.mark.parametrize("call, lo, hi", list(INT_ARGUMENTS.values()), ids=list(INT_ARGUMENTS))
def test_every_identity_helper_rejects_an_n_that_is_not_an_int(call, lo, hi):
    # the type is checked before the range: True would pass for 1, and a
    # float would fail in range() with no name for the argument; every
    # entry point checks both through poly._int_in, so each says "must be"
    for bad in (True, False, 1.0, 4.0):
        with pytest.raises(TypeError, match="must be an int, got"):
            call(bad)
    for bad in (lo - 1,) if hi is None else (lo - 1, hi + 1):
        with pytest.raises(ValueError, match="must be"):
            call(bad)


def closed_range(kind, family, hi):
    return range(kl.FIRST_N[f"{kind}_closed"][family], hi + 1)


@pytest.mark.parametrize("name", sorted(kl.FIRST_N))
def test_first_n_is_each_functions_domain(name):
    fn, entry = getattr(kl, name), kl.FIRST_N[name]
    for family, first in entry.items():
        assert isinstance(fn(family, first), Poly)
        with pytest.raises(ValueError):
            fn(family, first - 1)
    for family in [f for f in kl.FAMILIES if f not in entry] + ["cycle"]:
        with pytest.raises(ValueError):
            fn(family, 10)


@pytest.mark.parametrize("family", ["fan", "wheel", "whirl"])
def test_recurrence_matches_fraction_closed_oracle(family):
    for n in closed_range("kl", family, 200):
        assert kl.kl_recurrence(family, n) == kl_closed_over_q(family, n), n


@pytest.mark.parametrize("family", kl.FAMILIES)
def test_closed_forms_match_fraction_oracle(family):
    for n in closed_range("kl", family, 200):
        assert kl.kl_closed(family, n) == kl_closed_over_q(family, n), n
    for n in closed_range("z", family, 200):
        assert kl.z_closed(family, n) == z_closed_over_q(family, n), n


def test_expand_route_builds_no_fraction(monkeypatch, no_fraction_coeffs):
    # every polynomial the series, the recurrences and the closed forms
    # build, the recurrence cache included, has int coefficients only; on the
    # gf route so has every coefficient list the series kernels return
    monkeypatch.setattr(kl, "_rec_cache", {"fan": [], "wheel": [], "whirl": []})
    ran = set()

    def ints_only(kernel):
        def checked(*args):
            out = kernel(*args)
            bad = [c for row in out for c in row if type(c) is not int]
            assert not bad, f"{kernel.__name__} built {bad[0]!r} on an integer route"
            ran.add(kernel.__name__)
            return out
        return checked

    kernels = ("_add", "_mul", "_div", "_sqrt")
    for name in kernels:
        monkeypatch.setattr(series, name, ints_only(getattr(series, name)))
    for name in GF_NAMES:
        gf_expand(name, MAX_ORDER)
    assert ran == set(kernels)
    for family in ("fan", "wheel", "whirl"):
        kl.kl_recurrence(family, 60)
    for family in kl.FAMILIES:
        for n in closed_range("kl", family, 30):
            kl.kl_closed(family, n)
        for n in closed_range("z", family, 30):
            kl.z_closed(family, n)
    with pytest.raises(AssertionError):  # the guard itself is live
        Poly([Fraction(1, 2)])
    with pytest.raises(AssertionError):  # and so is the kernels'
        series._div([[1]], [[2]])


def test_closed_form_exact_division_signal(monkeypatch):
    assert kl._exact(12, -4) == -3
    with pytest.raises(ArithmeticError):
        kl._exact(7, 2)
    # the closed forms check each divmod inline: with every numerator one
    # too large, the first division by more than 1 leaves a remainder; the
    # whirl's Z, a sum of squared binomials, divides nothing
    whirl_z = kl.z_closed("whirl", 10)
    monkeypatch.setattr(kl, "divmod", lambda a, b: divmod(a + 1, b), raising=False)
    for family in kl.FAMILIES:
        for name in ("kl_closed", "z_closed")[:1 if family == "whirl" else 2]:
            with pytest.raises(ArithmeticError, match="inexact division"):
                getattr(kl, name)(family, 10)
    assert kl.z_closed("whirl", 10) == whirl_z


def test_recurrence_transcription_digests():
    frozen = {
        "fan": "a631359b35b91ec5a1ab7ef29d7b7dc6fe3ca5da6eb60d42e4a480dde10141bd",
        "wheel": "ad49d98780b5df87a56ecf5df529ee9f99786360a9fa92829b008412b456bf42",
        "whirl": "030212bfafcb447dc5d411a06084c41dde50beec833f3d094d87b79cdfa78c6b",
    }
    for name, data in kl._RECURRENCES.items():
        digest = hashlib.sha256(repr(sorted(data.items())).encode()).hexdigest()
        assert digest == frozen[name], f"{name} recurrence table was edited"


def test_recurrence_values_digests(monkeypatch):
    # a[0..200] of each sequence, as the family-specific steppers that the
    # one table replaced computed them; tier-1 compares only up to n = 40
    frozen = {
        "fan": "4717738936cb9a46f8b66b6507a9036f1cd71989898aac3e9aa3b2e00ed8d23d",
        "wheel": "0feb92341019e58a056f219a03b61eead16a4e4cfa8b882f8be8e4cb54e83422",
        "whirl": "00bc4a1fdadae77ff9cb4e82dd69d2d9c739efa220c2e7a3a4db8c89663f0d4a",
    }
    monkeypatch.setattr(kl, "_rec_cache", {family: [] for family in kl._RECURRENCES})
    for name, want in frozen.items():
        values = repr([p.coeffs for p in recurrence_terms(name, 201)])
        assert hashlib.sha256(values.encode()).hexdigest() == want, name


def test_hadamard_examples():
    a, b, c = kl.hadamard_wheel_coeff(3, 0)
    assert a * b * c == 1
    a, b, c = kl.hadamard_wheel_coeff(4, 1)
    assert a * b * c == 5
    a, b, c = kl.hadamard_wheel_coeff(3, 1)
    assert a * b * c == 1
    with pytest.raises(ValueError):
        kl.hadamard_wheel_coeff(3, 2)


def test_hadamard_sweep():
    for n in range(3, 13):
        p = kl.kl_closed("wheel", n)
        for k in range((n - 1) // 2 + 1):
            a, b, c = kl.hadamard_wheel_coeff(n, k)
            assert a * b * c == p.coeff(k)
            assert isinstance(a, int)
            assert isinstance(b, Fraction) and type(c) is int


def test_whirl_closed_rewrite():
    # binomial-times-Fibonacci-coefficient form of the whirl polynomial
    from math import comb

    for n in range(3, 20):
        rewritten = Poly(
            [comb(n, k) * comb(n - k - 1, k) for k in range((n - 1) // 2 + 1)]
        )
        assert rewritten == kl.kl_closed("whirl", n)


def test_multiplicative_examples():
    assert multiplicative_kl(make_family("path", 6)) == Poly([1])
    bowtie = SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert multiplicative_kl(bowtie) == Poly([1])
    f3 = make_family("fan", 3)
    two_fans = SimpleGraph(8, list(f3.edges) + [(u + 4, v + 4) for u, v in f3.edges])
    assert multiplicative_kl(two_fans) == Poly([1, 1]) * Poly([1, 1])


def test_multiplicative_equals_brute():
    rng = random.Random(13)
    from conftest import random_simple_graph

    for _ in range(15):
        g = random_simple_graph(rng, max_n=6)
        if len(g.edges) > 12:
            continue
        assert multiplicative_kl(g) == kl.kl_poly(graphic_matroid(g))


def test_motzkin_catalan_evaluations():
    from conftest import catalan_numbers, motzkin_numbers

    motzkin = motzkin_numbers(16)
    catalan = catalan_numbers(18)
    for n in range(1, 16):
        assert kl.kl_closed("fan", n)(1) == motzkin[n - 1]
        assert kl.z_closed("fan", n)(1) == catalan[n + 1]


def test_compute_wrappers():
    assert cli.compute_record("fan", 5, "kl", "closed").coeffs == ["1", "6", "2"]
    assert cli.compute_record("whirl", 3, "z", "closed").coeffs == ["1", "9", "9", "1"]
    with pytest.raises(cli.UsageError):
        cli.compute_record("square", 4, "kl", "recurrence")
    with pytest.raises(cli.UsageError):
        cli.compute_record("fan", 4, "z", "recurrence")


def naive_kl(m):
    """Slow independent route: build localization/contraction oracles per
    flat and read P off the low-degree equations of the defining identity
    (the engine uses the mirrored high-degree ones).  chi comes from the
    mask-based Moebius oracle, not the lattice the engine's certificate uses."""
    r = m.full_rank
    if r == 0:
        return Poly([1])
    s = Poly()
    for f in m.flats():
        if f.elements == 0:
            continue
        chi = characteristic_by_masks(localization(m, f))
        s = s + chi * naive_kl(contraction(m, f))
    # t^r P(1/t) - P = S gives p_d = -s_d for every d below r/2
    p = Poly([-s.coeff(d) for d in range((r - 1) // 2 + 1)])
    assert reverse_scaled(p, r) == p + s
    return p


def naive_z(m):
    total = Poly()
    for f in m.flats():
        total = total + T ** f.rank * naive_kl(contraction(m, f))
    return total


def test_engine_against_naive_recursion():
    cases = [fam_matroid("fan", n) for n in range(1, 6)]
    cases += [fam_matroid("square", n) for n in range(1, 5)]
    cases += [fam_matroid("wheel", n) for n in (3, 4)]
    cases += [fam_matroid("whirl", n) for n in (3, 4)]
    for m in cases:
        assert kl.kl_poly(m) == naive_kl(m)
        assert kl.z_poly(m) == naive_z(m)


def test_engine_against_naive_on_random_graphs():
    rng = random.Random(4242)
    from conftest import random_simple_graph

    done = 0
    while done < 10:
        g = random_simple_graph(rng, max_n=6)
        if len(g.edges) > 9:
            continue
        m = graphic_matroid(g)
        assert kl.kl_poly(m) == naive_kl(m)
        assert kl.z_poly(m) == naive_z(m)
        done += 1


def test_ground_set_size_guard(monkeypatch):
    # both constructors refuse an oversized ground set before they tabulate
    def refuse(*args):
        raise AssertionError("rank table built for an oversized ground set")

    monkeypatch.setattr(matroids, "_graphic_rank_table", refuse)
    with pytest.raises(ValueError):
        graphic_matroid(make_family("fan", 9))  # 17 edges exceeds the table bound
    with pytest.raises(ValueError):
        whirl_matroid(MAX_GROUND // 2 + 1)  # the wheel's 2n edges exceed it


def test_lattice_isomorphism_checker():
    a = lattice_by_pairs(graphic_matroid(make_family("fan", 4)))
    b = lattice_by_pairs(graphic_matroid(make_family("square_of_path", 4)))
    c = lattice_by_pairs(graphic_matroid(make_family("wheel", 4)))
    assert lattice_isomorphic(a, b) is True
    assert lattice_isomorphic(a, c) is False


def _bipartite_rank3_lattice(coatom_atoms):
    """Rank-3 graded order: bottom, 4 atoms, 4 coatoms (with the given atom
    sets below them), top."""
    ranks = [0] + [1] * 4 + [2] * 4 + [3]
    above = [range(1, 10)]  # bottom
    for a in range(4):
        above.append([5 + c for c, atoms in enumerate(coatom_atoms) if a in atoms] + [9])
    for _ in coatom_atoms:
        above.append([9])
    above.append([])  # top
    return PairLattice(ranks, above)


def _cheap_invariants(lat):
    """Level sizes, comparable pairs between adjacent levels and the sorted
    (rank, atoms below) profile."""
    levels = [sum(1 for r in lat.ranks if r == k) for k in range(lat.top_rank + 1)]
    below = below_lists(lat)
    adjacent = [
        sum(1 for j in range(lat.n) for i in below[j]
            if lat.ranks[j] == k + 1 and lat.ranks[i] == k)
        for k in range(lat.top_rank)
    ]
    atoms = {i for i in range(lat.n) if lat.ranks[i] == 1}
    profile = sorted(
        (lat.ranks[i], len(atoms & {i, *below[i]})) for i in range(lat.n)
    )
    return levels, adjacent, profile


def test_iso_checker_rejects_fingerprint_collision():
    # identical level sizes, adjacent zeta counts and atom profiles, but the
    # atom/coatom incidence is an 8-cycle in one and two 4-cycles in the
    # other, so only an exact search can tell them apart
    eight_cycle = _bipartite_rank3_lattice([(0, 1), (1, 2), (2, 3), (3, 0)])
    two_squares = _bipartite_rank3_lattice([(0, 1), (0, 1), (2, 3), (2, 3)])
    assert _cheap_invariants(eight_cycle) == _cheap_invariants(two_squares)
    assert lattice_isomorphic(eight_cycle, two_squares) is False
    relabeled = _bipartite_rank3_lattice([(1, 2), (2, 3), (3, 0), (0, 1)])
    assert lattice_isomorphic(eight_cycle, relabeled) is True


def test_recurrence_inexact_division_signal(monkeypatch):
    broken = dict(kl._RECURRENCES["fan"])
    broken["lead"] = (((5, 1),),)  # wrong integer leading factor
    monkeypatch.setitem(kl._RECURRENCES, "fan", broken)
    monkeypatch.setitem(kl._ROWS, "fan", kl._step_rows(broken))
    monkeypatch.setattr(kl, "_rec_cache", {"fan": [], "wheel": [], "whirl": []})
    with pytest.raises(ArithmeticError):
        kl.kl_recurrence("fan", 6)


def test_recurrence_remainder_below_lead_degree_signal(monkeypatch):
    # the wheel's lead times t: each quotient coefficient is a coefficient of
    # the true a[3] and divides exactly, but a[3]'s constant term times the
    # true lead is left below the lead's degree
    broken = dict(kl._RECURRENCES["wheel"])
    broken["lead"] += (((0,), (1,)),)
    monkeypatch.setitem(kl._RECURRENCES, "wheel", broken)
    monkeypatch.setitem(kl._ROWS, "wheel", kl._step_rows(broken))
    monkeypatch.setattr(kl, "_rec_cache", {"fan": [], "wheel": [], "whirl": []})
    with pytest.raises(ArithmeticError, match=r"^wheel recurrence step 3: inexact division"):
        kl.kl_recurrence("wheel", 5)


def test_import_time_rows_match_the_factor_products():
    # each entry's lead and terms, expanded once at import, evaluate to the
    # products of the printed factors at every n up to 200
    for family, rec in kl._RECURRENCES.items():
        lead, terms = kl._ROWS[family]
        assert len(terms) == len(rec["terms"])
        for n in range(201):
            assert Poly(kl._at(lead, n)) == factor_product(rec["lead"], n), (family, n)
            for rows, factors in zip(terms, rec["terms"]):
                assert Poly(kl._at(rows, n)) == factor_product(factors, n), (family, n)


def test_int_list_step_matches_poly_stepper(monkeypatch):
    monkeypatch.setattr(kl, "_rec_cache", {family: [] for family in kl._RECURRENCES})
    for family in ("fan", "wheel", "whirl"):
        assert recurrence_terms(family, 201) == rec_sequence_by_poly(family, 201), family


def counted_steps(monkeypatch):
    """A list that gets one entry per call of kl._at, 1 + k of them per step."""
    calls = []
    at = kl._at
    monkeypatch.setattr(kl, "_at", lambda rows, n: calls.append(n) or at(rows, n))
    return calls


def test_recurrence_cache_serves_any_order(monkeypatch):
    # from an empty cache: a top term, a dropped one, two kept ones and the
    # next one, each equal to the Poly stepper's; a kept term takes no step
    # and a dropped one steps again from a[N_MAX], never from the seeds
    monkeypatch.setattr(kl, "_rec_cache", {family: [] for family in kl._RECURRENCES})
    calls = counted_steps(monkeypatch)
    for family, first in kl.FIRST_N["kl_recurrence"].items():
        want = rec_sequence_by_poly(family, 202 - first)
        calls_per_step = 1 + len(kl._RECURRENCES[family]["terms"])
        for n, most in ((200, 200), (150, 150 - kl.N_MAX), (kl.N_MAX, 0), (first, 0),
                        (201, 201 - kl.N_MAX)):
            calls.clear()
            assert kl.kl_recurrence(family, n) == want[n - first], (family, n)
            assert len(calls) <= most * calls_per_step, (family, n, len(calls))


def test_recurrence_cache_walks_again_in_linear_steps(monkeypatch):
    # after a walk to n = 200, a second ascending walk over n = N_MAX + 1..200
    # steps each term once more, not once per request from a[N_MAX]
    monkeypatch.setattr(kl, "_rec_cache", {family: [] for family in kl._RECURRENCES})
    calls = counted_steps(monkeypatch)
    for family, first in kl.FIRST_N["kl_recurrence"].items():
        want = rec_sequence_by_poly(family, 201 - first)
        kl.kl_recurrence(family, 200)
        calls.clear()
        for n in range(kl.N_MAX + 1, 201):
            assert kl.kl_recurrence(family, n) == want[n - first], (family, n)
        calls_per_step = 1 + len(kl._RECURRENCES[family]["terms"])
        assert len(calls) <= (200 - kl.N_MAX) * calls_per_step, (family, len(calls))


def test_recurrence_cache_holds_only_k_terms_above_n_max(monkeypatch):
    # stepped to n = 200, the cache keeps a[0..N_MAX] and the k latest terms,
    # 0.20 MB; a cache that kept every term would hold 1.69 MB
    import gc
    import tracemalloc

    monkeypatch.setattr(kl, "_rec_cache", {family: [] for family in kl._RECURRENCES})
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for family in kl._RECURRENCES:
            kl.kl_recurrence(family, 200)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 300_000, held
    for family, cache in kl._rec_cache.items():
        k = len(kl._RECURRENCES[family]["terms"])
        live = sum(term is not None for term in cache)
        assert live <= kl.N_MAX + 1 + k, (family, live)
