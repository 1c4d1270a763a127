import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    NEG_INF,
    POS_INF,
    RootInterval,
    _variations_at,
    content,
    count_real_roots,
    interleaves_by_isolation,
    interleaves_by_squarefree_chain,
    isolate_real_roots,
    lucas_sequence_by_poly,
    refine,
    remainder_sequence_by_poly,
    root_flags_by_full_chain,
    root_verdicts_by_isolation,
    root_verdicts_by_squarefree_chain,
    squarefree_decomposition,
)
from matroidkl import cli, kl, poly, realroot
from matroidkl.poly import Poly
from matroidkl.realroot import (
    all_zeros_negative,
    fibonacci_polynomial,
    interleaves,
    is_real_rooted,
    lucas_polynomial,
    n_sequence_check,
    narayana_polynomial,
    sturm_chain,
    verify_lucas_fibonacci,
    verify_narayana_identity,
    verify_wheel_z_quadratic,
)


def poly_from_roots(roots, lead=1):
    p = Poly([lead])
    for r in roots:
        p = p * Poly([-Fraction(r), 1])
    return p


def test_count_examples():
    assert count_real_roots(Poly([1, 0, 1])) == 0
    assert count_real_roots(Poly([2, 3, 1])) == 2
    assert count_real_roots(Poly([1, 6, 2]), None, 0) == 2
    assert count_real_roots(Poly([5])) == 0


def test_count_with_endpoint_roots():
    p = poly_from_roots([-2, -1, 3])
    assert count_real_roots(p, -2, 3) == 2  # half-open: -2 out, 3 in
    assert count_real_roots(p, None, -2) == 1
    assert count_real_roots(p, -1, None) == 1
    assert count_real_roots(p, Fraction(-3, 2), Fraction(7, 2)) == 2


def test_count_refuses_reversed_interval():
    p = Poly([-1, 0, 1])
    with pytest.raises(ValueError):
        count_real_roots(p, 2, -2)
    with pytest.raises(ValueError):
        count_real_roots(p, Fraction(1, 2), Fraction(1, 3))
    assert count_real_roots(p, 1, 1) == 0  # an empty half-open interval
    assert count_real_roots(p, -2, 2) == 2


def test_count_additivity_property():
    rng = random.Random(31)
    for _ in range(40):
        roots = sorted(rng.randint(-8, 8) + Fraction(rng.randint(0, 3), 4) for _ in range(rng.randint(1, 5)))
        p = poly_from_roots(roots)
        a, b, c = sorted(Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(3))
        assert count_real_roots(p, a, b) + count_real_roots(p, b, c) == count_real_roots(p, a, c)


def test_squarefree_decomposition():
    p = Poly([1, 1]) ** 3 * Poly([-2, 1]) * Poly([5, 1]) ** 2
    decomp = squarefree_decomposition(p)
    by_mult = {m: f for f, m in decomp}
    assert by_mult[3] == Poly([1, 1])
    assert by_mult[1] == Poly([-2, 1])
    assert by_mult[2] == Poly([5, 1])


def test_isolation_invariants():
    rng = random.Random(17)
    for _ in range(30):
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        mults = [rng.randint(1, 3) for _ in roots]
        p = Poly([1])
        for r, m in zip(roots, mults):
            p = p * Poly([-r, 1]) ** m
        isolation = isolate_real_roots(p)
        assert len(isolation) == len(set(roots))
        assert sum(iv.multiplicity for iv in isolation) == p.degree
        # intervals disjoint and sorted
        for a, b in zip(isolation, isolation[1:]):
            assert a.hi <= b.lo or (a.hi <= b.lo + 0)
        # each distinct root in exactly one interval
        for r in set(roots):
            hits = [
                iv
                for iv in isolation
                if (iv.is_exact() and iv.lo == r) or (not iv.is_exact() and iv.lo < r <= iv.hi)
            ]
            assert len(hits) == 1


def test_all_zeros_negative():
    assert all_zeros_negative(Poly([1, 0, 1])) is False
    p = poly_from_roots([-1, -1, -3])
    assert all_zeros_negative(p) is True
    # the interval certificate behind the verdict, built on request
    cert = [refine(p, iv, lambda r: r.hi < 0) for iv in isolate_real_roots(p)]
    assert sum(iv.multiplicity for iv in cert) == 3
    assert all(iv.hi < 0 or (iv.is_exact() and iv.lo < 0) for iv in cert)
    assert all_zeros_negative(Poly([0, 1, 1])) is False  # zero root
    assert all_zeros_negative(Poly([-1, 0, 1])) is False  # root at +1
    assert all_zeros_negative(Poly([7])) is True  # constant: vacuous
    with pytest.raises(ValueError):
        all_zeros_negative(Poly())


def test_log_concavity_consequence():
    # certified all-negative polynomials must be log-concave, internal-zero free
    for fam in ("fan", "wheel", "whirl"):
        for n in range(3, 14):
            p = kl.kl_closed(fam, n)
            assert all_zeros_negative(p)
            cs = p.coeffs
            assert all(c > 0 for c in cs)
            for i in range(1, len(cs) - 1):
                assert cs[i] ** 2 >= cs[i - 1] * cs[i + 1], (fam, n, i)


def test_interleaves_examples():
    assert interleaves(Poly([1, 1]), Poly([1, 3])) is True
    assert interleaves(Poly([3, 1]), Poly([2, 3, 1])) is False
    # shared roots are allowed: (t+1) vs (t+1)(t+2), and any p against itself
    assert interleaves(Poly([1, 1]), Poly([2, 3, 1])) is True
    p = poly_from_roots([-1, -3])
    assert interleaves(p, p) is True
    assert interleaves(poly_from_roots([-2, -4]), p) is True
    assert interleaves(poly_from_roots([-1, -2]), p) is False


def test_interleaves_rejects_bad_inputs():
    with pytest.raises(ValueError):
        interleaves(Poly([1, 1]), Poly([1, 0, 0, 1]))  # complex roots
    with pytest.raises(ValueError):
        interleaves(Poly([1, 1]), poly_from_roots([-1, -2, -3]))  # degree gap 2
    with pytest.raises(ValueError):
        interleaves(Poly([-1, -1]), Poly([1, 1]))  # negative leading coefficient


def test_interleaves_classical_cases():
    p = poly_from_roots([-1, -3, -5])
    q = poly_from_roots([-2, -4])
    assert interleaves(q, p) is True
    assert interleaves(poly_from_roots([-2, -6]), p) is False
    r = poly_from_roots([-2, -4, -6])
    assert interleaves(r, p) is True  # r's roots sit weakly below p's
    assert interleaves(p, r) is False


def interleaves_by_definition(f_roots, g_roots):
    """The interlacing chain u1 >= v1 >= u2 >= ... read off the root lists."""
    u_desc = sorted(f_roots, reverse=True)
    v_desc = sorted(g_roots, reverse=True)
    seq = []
    for i, a in enumerate(u_desc):
        seq.append(a)
        if i < len(v_desc):
            seq.append(v_desc[i])
    return all(x >= y for x, y in zip(seq, seq[1:]))


def known_root_pairs():
    """Root lists of f and g with deg f - deg g in {0, 1}, drawn from a small
    pool so that shared roots are frequent."""
    pool = [Fraction(x, 2) for x in range(-10, 7)]
    rng = random.Random(1009)
    for _ in range(250):
        dg = rng.randint(0, 3)
        df = dg + rng.choice([0, 1])
        if df == 0:
            continue
        yield [rng.choice(pool) for _ in range(df)], [rng.choice(pool) for _ in range(dg)]


def test_interleaves_differential_with_known_roots():
    # compare against the chain definition evaluated on the known root lists
    agree = {True: 0, False: 0}
    for f_roots, g_roots in known_root_pairs():
        want = interleaves_by_definition(f_roots, g_roots)
        assert interleaves(poly_from_roots(g_roots), poly_from_roots(f_roots)) is want, (
            f_roots,
            g_roots,
        )
        agree[want] += 1
    assert agree[True] > 10 and agree[False] > 10  # both outcomes exercised


def _n_sequence_of(p):
    """gamma with sum(gamma_k * C(d,k) * t^k) == p, d = deg p."""
    d = p.degree
    return [Fraction(p.coeff(k)) / comb(d, k) for k in range(d + 1)], d


def _verdicts(p):
    gamma, d = _n_sequence_of(p)
    return is_real_rooted(p), all_zeros_negative(p), n_sequence_check(gamma, d)


def test_verdicts_match_isolation_oracle():
    # sign-count verdicts against verdicts that locate every root, and against
    # verdicts read off the chain of the squarefree part
    fan_chain = [(kl.kl_closed("fan", n), kl.kl_closed("fan", n + 1)) for n in range(3, 26)]
    assert all(interleaves(g, f) for g, f in fan_chain)
    known = [(poly_from_roots(g), poly_from_roots(f)) for f, g in known_root_pairs()]
    for g, f in fan_chain + known:
        got = interleaves(g, f)
        assert got is interleaves_by_isolation(g, f), (g, f)
        assert got is interleaves_by_squarefree_chain(g, f), (g, f)
    for p in {p for pair in fan_chain + known for p in pair}:
        got = _verdicts(p)
        assert got == root_verdicts_by_isolation(p), p
        assert got == root_verdicts_by_squarefree_chain(p), p
    for kind, closed in (("kl", kl.kl_closed), ("z", kl.z_closed)):
        for fam in ("fan", "wheel", "whirl"):
            for n in range(cli.ROUTES[kind, "closed"][1][fam][0], 31):
                p = closed(fam, n)
                assert _verdicts(p) == root_verdicts_by_squarefree_chain(p), (kind, fam, n)


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name, rebound wherever poly or realroot hold it."""
    calls = []
    func = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return func(*args)

    for holder in (poly, realroot):
        if getattr(holder, name, None) is func:
            monkeypatch.setattr(holder, name, counted)
    return calls


def test_verdicts_take_no_gcd_and_no_exact_division(monkeypatch):
    # the library has no gcd routine: a gcd would take a remainder sequence of
    # its own, which the sequence counts below rule out
    divisions = _count_calls(monkeypatch, poly, "_divexact")
    chains = _count_calls(monkeypatch, realroot, "sturm_chain")
    sequences = _count_calls(monkeypatch, poly, "remainder_sequence")
    z = kl.z_closed("wheel", 20)
    gamma, d = _n_sequence_of(z)
    g, f = kl.kl_closed("fan", 10), kl.kl_closed("fan", 11)
    # (verdict, its arguments, chains built, remainder sequences built): one
    # sequence per verdict, plus one chain per input check of interleaves
    for verdict, args, n_chains, n_sequences in (
        (is_real_rooted, (z,), 1, 1),
        (all_zeros_negative, (z,), 1, 1),
        (n_sequence_check, (gamma, d), 1, 1),
        (interleaves, (g, f), 2, 3),
    ):
        chains.clear()
        sequences.clear()
        assert verdict(*args) is True, verdict.__name__
        assert (len(chains), len(sequences)) == (n_chains, n_sequences), verdict.__name__
    assert divisions == []


def test_certificate_path_builds_no_fraction(no_fraction_coeffs):
    # on int input every remainder sequence step pseudo-divides in ints, and
    # the identity checks build their integer terms without a Fraction; the
    # Z records reduce to half degree, at odd n after a division by 1+t
    odd_z = [kl.z_closed(fam, 31) for fam in ("wheel", "whirl")]
    assert all(p.degree == 31 and p.coeffs == p.coeffs[::-1] for p in odd_z)
    wheel_z = kl.z_closed("wheel", 30)
    squares = Poly([1, 1]) ** 3 * Poly([-2, 1]) ** 2 * Poly([0, 0, -3])
    for p in (wheel_z, *odd_z, kl.kl_closed("whirl", 30), squares):
        sturm_chain(p)
        is_real_rooted(p)
        all_zeros_negative(p)
    assert interleaves(kl.kl_closed("fan", 20), kl.kl_closed("fan", 21))
    assert interleaves(Poly([1, 1]) * Poly([2, 1]), Poly([1, 1]) ** 2 * Poly([3, 1]))
    gamma = [(k + 1) * 15**2 - (2 * k**2 + 4 * k) * 15 + k**3 + 3 * k**2 - k - 1
             for k in range(8)]
    assert n_sequence_check(gamma, 7)
    assert narayana_polynomial(20)(1) == 6564120420  # the Catalan number C_20
    assert verify_wheel_z_quadratic(20)
    assert verify_lucas_fibonacci(20)
    assert verify_narayana_identity(20)
    with pytest.raises(AssertionError):  # the guard itself is live
        Poly([Fraction(1, 2)])


def test_sturm_chain_terms_are_primitive():
    # every term is content-stripped, so coefficients stay integers of content 1
    for p in (kl.z_closed("wheel", 40), kl.kl_closed("whirl", 40)):
        chain = sturm_chain(p)
        assert len(chain.polys) > 2
        with pytest.raises(AttributeError):  # chains are immutable
            chain.polys = ()
        for term in chain.polys:
            assert all(type(c) is int for c in term.coeffs), term
            assert content(term) == 1, term


# known rational roots from a small pool (ties, multiplicities and the root 0
# all occur) times an optional irreducible quadratic t^2 + a*t + b, a^2 < 4b
ROOT_POOL = [Fraction(x, 2) for x in range(-8, 5)]
ROOT_LISTS = st.lists(st.sampled_from(ROOT_POOL), max_size=6)
IRREDUCIBLE_QUADRATICS = st.tuples(st.integers(-3, 3), st.integers(1, 5)).filter(
    lambda ab: ab[0] ** 2 < 4 * ab[1]
)
QUADRATICS = st.none() | IRREDUCIBLE_QUADRATICS
VERDICT_SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def _with_quadratic(p, quad):
    return p if quad is None else p * Poly([quad[1], quad[0], 1])


@VERDICT_SETTINGS
@given(ROOT_LISTS, QUADRATICS, st.integers(1, 4))
def test_certifiers_match_root_list_definitions(roots, quad, lead):
    p = _with_quadratic(poly_from_roots(roots, lead), quad)
    assert is_real_rooted(p) is (quad is None)
    assert all_zeros_negative(p) is (quad is None and all(r < 0 for r in roots))
    assert _verdicts(p) == root_verdicts_by_squarefree_chain(p)
    # the signs at 0 read off the constant coefficients are those of the values
    chain = sturm_chain(p).polys
    assert realroot._sign_variations(chain, 0) == tuple(
        _variations_at(chain, x) for x in (NEG_INF, 0, POS_INF))


@VERDICT_SETTINGS
@given(ROOT_LISTS, st.integers(0, 1), st.data())
def test_interleaves_matches_root_list_definition(f_roots, gap, data):
    # g's roots are drawn partly from f's, so that shared roots are frequent
    dg = max(len(f_roots) - gap, 0)
    g_roots = data.draw(
        st.lists(st.sampled_from(f_roots + ROOT_POOL), min_size=dg, max_size=dg)
    )
    f, g = poly_from_roots(f_roots), poly_from_roots(g_roots)
    assert interleaves(g, f) is interleaves_by_definition(f_roots, g_roots)
    assert interleaves(g, f) is interleaves_by_squarefree_chain(g, f)
    # a shared complex pair leaves the domain, whatever the real roots do
    quad = data.draw(IRREDUCIBLE_QUADRATICS)
    with pytest.raises(ValueError):
        interleaves(_with_quadratic(g, quad), _with_quadratic(f, quad))


def test_int_list_chains_and_reduced_verdicts_match_the_poly_chain():
    # every closed record that compute and table serve: the int-list sequence
    # is the Poly oracle's term for term, and the verdicts, off the half-degree
    # chain for exactly the palindromic Z records, are the full chain's
    for (kind, method), (route, ranges) in cli.ROUTES.items():
        if method != "closed":
            continue
        for fam, (lo, hi) in ranges.items():
            for n in range(lo, hi + 1):
                p, where = route(fam, n), (kind, fam, n)
                seq = remainder_sequence_by_poly(p, p.derivative())
                assert poly.remainder_sequence(p, p.derivative()) == seq, where
                assert realroot._root_flags(p) == root_flags_by_full_chain(p, seq), where
                palindromic = p.degree >= 2 and p.coeffs == p.coeffs[::-1]
                assert palindromic is (kind == "z" and n >= 2), where


def _product(factors):
    p = Poly([1])
    for f in factors:
        p = p * Poly(f)
    return p


@pytest.mark.parametrize("factors, real_rooted, all_negative", [
    ([(1, 1)] * 2, True, True),  # s = -2: a double root at t = -1
    ([(1, 1)] * 3, True, True),  # odd degree: 1+t divides, then s = -2
    ([(1, 1), (1, 1), (1, 3, 1)], True, True),  # s = -2 and s = -3
    ([(1, -1)] * 2, True, False),  # s = 2: a double root at t = 1
    ([(1, 1), (1, 1), (1, -1), (1, -1)], True, False),  # s = -2 and s = 2
    ([(1, 0, 1)], False, False),  # 1+t^2: s = 0
    ([(1, 0, 0, 0, 1)], False, False),  # 1+t^4: s^2 = 2
    ([(-2, 1), (-1, 2)], True, False),  # (t-2)(2t-1): s = 5/2
    ([(1, 3, 1), (1, 1, 1)], False, False),  # s = -3 and s = -1
    ([(1, 5, 1), (1, 1), (1, -1, 1)], False, False),  # s = -5, t = -1 and s = 1
    ([(1, 3, 1), (1, 4, 1), (1, 1)], True, True),  # s = -3, -4 and t = -1
])
def test_palindromic_reduction_edge_cases(monkeypatch, factors, real_rooted, all_negative):
    p = _product(factors)
    assert p.degree >= 2 and p.coeffs == p.coeffs[::-1]
    want = (real_rooted, all_negative)
    assert root_verdicts_by_squarefree_chain(p)[:2] == want
    assert root_flags_by_full_chain(p) == want
    chains = _count_calls(monkeypatch, realroot, "sturm_chain")
    assert (is_real_rooted(p), all_zeros_negative(p)) == want
    # one chain per verdict, of at most half p's degree
    assert len(chains) == 2 and max(q.degree for q, in chains) <= p.degree // 2


@VERDICT_SETTINGS
@given(st.integers(0, 3), st.lists(st.integers(-4, 6), max_size=4))
def test_palindromic_products_match_their_roots(ones, quads):
    # (1+t)^ones times t^2 + a*t + 1 per a: the quadratic's roots are real iff
    # |a| >= 2 and negative iff a >= 2
    p = _product([(1, 1)] * ones + [(1, a, 1) for a in quads])
    want = (all(abs(a) >= 2 for a in quads), all(a >= 2 for a in quads))
    assert (is_real_rooted(p), all_zeros_negative(p)) == want
    assert root_verdicts_by_squarefree_chain(p)[:2] == want


def test_derivative_interlaces():
    rng = random.Random(71)
    for _ in range(20):
        roots = sorted(rng.randint(-9, -1) for _ in range(rng.randint(2, 5)))
        p = poly_from_roots(roots)
        assert interleaves(p.derivative(), p)


def test_n_sequence_examples():
    assert n_sequence_check([1] * 8, 7) is True
    assert n_sequence_check([1, -1, 1], 2) is True  # (1-t)^2: same-sign roots
    assert n_sequence_check([1, 0, 1], 2) is False  # 1 + t^2
    def seq_a(n, k):
        return (k + 1) * n**2 - (2 * k**2 + 4 * k) * n + k**3 + 3 * k**2 - k - 1

    for n in range(7, 20):
        m = (n - 1) // 2
        assert n_sequence_check([seq_a(n, k) for k in range(m + 1)], m), n
    with pytest.raises(ValueError):
        n_sequence_check([1, 2], 2)


def test_n_sequence_refuses_the_zero_polynomial():
    # like every other verdict, through sturm_chain, not a vacuous yes
    for gamma, n in (([0, 0, 0], 2), ([0], 0)):
        with pytest.raises(ValueError, match="zero polynomial"):
            n_sequence_check(gamma, n)


def test_wheel_sequence_transform_values():
    # the binomial transform of the wheel coefficient sequence at small n
    def seq_a(n, k):
        return (k + 1) * n**2 - (2 * k**2 + 4 * k) * n + k**3 + 3 * k**2 - k - 1

    def transform(n):
        m = (n - 1) // 2
        from math import comb

        return Poly([seq_a(n, k) * comb(m, k) for k in range(m + 1)])

    assert transform(3) == 2 * Poly([4, 1])
    assert transform(4) == 5 * Poly([3, 2])
    assert transform(5) == 4 * Poly([3, 1]) * Poly([2, 3])
    assert transform(6) == Poly([35, 76, 29])


def test_narayana():
    assert narayana_polynomial(1) == Poly([1])
    assert narayana_polynomial(3) == Poly([1, 3, 1])


def test_lucas_fibonacci():
    assert lucas_polynomial(0) == Poly([2])
    assert lucas_polynomial(1) == Poly([0, 1])
    assert lucas_polynomial(2) == Poly([2, 0, 1])
    assert fibonacci_polynomial(1) == Poly([1])
    assert fibonacci_polynomial(2) == Poly([0, 1])
    assert fibonacci_polynomial(3) == Poly([1, 0, 1])
    with pytest.raises(ValueError):
        lucas_polynomial(-1)
    with pytest.raises(ValueError):
        fibonacci_polynomial(0)
    # smallest whirl image: 1 + t from the binomial sum at n=3
    assert Poly([1, 1]) == Poly(
        [fibonacci_polynomial(3).coeff(2), fibonacci_polynomial(3).coeff(0)]
    )


def test_lucas_fibonacci_match_the_poly_stepper():
    # the int-list recurrence against the Poly one it replaced, over every n
    # that the identities suite reaches (n <= 40)
    for n in range(41):
        assert lucas_polynomial(n) == lucas_sequence_by_poly(Poly([2]), Poly([0, 1]), n), n
        if n:
            assert fibonacci_polynomial(n) == lucas_sequence_by_poly(Poly(), Poly([1]), n), n


def test_wheel_z_quadratic():
    # discriminant at the smallest case: 2 * 1 * 18 = 36
    n = 3
    assert (n**2 - n + 4) ** 2 - 4 * (n + 1) ** 2 == 36


def test_wheel_z_discriminant_factors_for_every_n():
    # both sides are polynomials of degree 4 in n, so agreeing at five values
    # of n makes them one polynomial: the discriminant of the wheel Z core's
    # quadratic factors for every n, and is positive from n = 3 on since
    # n^2 + n + 6 > 0; verify_wheel_z_quadratic still checks each n it runs
    for n in range(5):
        assert (n**2 - n + 4) ** 2 - 4 * (n + 1) ** 2 == (n - 1) * (n - 2) * (n**2 + n + 6)


def test_root_interval_api():
    iv = RootInterval(Fraction(-2), Fraction(-2), 3)
    assert iv.is_exact() and iv.multiplicity == 3
