import random
import time

import pytest

from conftest import (
    are_isomorphic,
    biconnected_components,
    compositions,
    contract,
    count_proper_colorings,
    induced_union,
    is_composition,
    rank,
)
from matroidkl import kl, matroids
from matroidkl.graphs import (
    MAX_VERTICES,
    SimpleGraph,
    chromatic_polynomial,
    make_family,
)
from matroidkl.poly import Poly

T = Poly([0, 1])
T1 = Poly([-1, 1])  # t - 1
T2 = Poly([-2, 1])  # t - 2


# the 12-vertex example graph and its 5-block composition (0-indexed)
EXAMPLE12_EDGES = [
    (10, 7), (8, 7), (10, 9), (10, 2), (7, 0), (3, 4), (1, 3), (7, 1), (6, 7),
    (0, 2), (3, 2), (0, 3), (5, 9), (5, 6), (9, 6), (10, 11), (11, 8), (4, 1),
]
EXAMPLE12_BLOCKS = [{0, 2, 3}, {1, 4}, {5, 6, 9}, {7}, {8, 10, 11}]
EXAMPLE12_KEPT = {
    (0, 2), (2, 3), (0, 3), (1, 4), (5, 9), (5, 6), (6, 9), (10, 11), (8, 11),
}


def test_constructors():
    f1 = make_family("fan", 1)
    assert f1.n == 2 and len(f1.edges) == 1
    w3 = make_family("wheel", 3)
    assert w3.n == 4 and len(w3.edges) == 6  # complete graph on 4 vertices
    s4 = make_family("square_of_path", 4)
    assert are_isomorphic(s4, make_family("fan", 4))
    p3 = make_family("path", 3)
    assert p3.edges == ((0, 1), (1, 2))
    c4 = make_family("cycle", 4)
    assert len(c4.edges) == 4


def test_constructor_bounds():
    for family, bad_n in [("wheel", 2), ("cycle", 2), ("fan", 0), ("path", 0), ("square_of_path", 0)]:
        with pytest.raises(ValueError):
            make_family(family, bad_n)
    with pytest.raises(ValueError):
        make_family("torus", 3)
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 0)])


def test_constructors_refuse_non_int_sizes():
    # refused at construction, not later inside adjacency() or a rank table;
    # a bool is refused like any other non-int, as poly refuses it for orders
    for n, edges in ((3, [(0, 1.5)]), (3, [(False, 1)]), (3.0, [(0, 1)]), (True, [])):
        with pytest.raises(TypeError):
            SimpleGraph(n, edges)
    for family in ("path", "cycle", "fan", "wheel", "square_of_path"):
        for n in (True, 4.0):
            with pytest.raises(TypeError):
                make_family(family, n)


def test_rank():
    for n in range(1, 9):
        assert rank(make_family("fan", n)) == n
    assert rank(SimpleGraph(5)) == 0
    for n in range(3, 9):
        assert rank(make_family("wheel", n)) == n
    assert rank(SimpleGraph(4, [(0, 1), (2, 3)])) == 2


def test_compositions_path3():
    g = make_family("path", 3)
    got = {tuple(sorted(tuple(sorted(b)) for b in c)) for c in compositions(g)}
    assert got == {
        ((0,), (1,), (2,)),
        ((0, 1), (2,)),
        ((0,), (1, 2)),
        ((0, 1, 2),),
    }


def test_compositions_single_vertex():
    assert list(compositions(SimpleGraph(1))) == [(frozenset({0}),)]


def test_compositions_fan3_brute_force():
    from conftest import brute_force_compositions

    g = make_family("fan", 3)
    oracle = brute_force_compositions(g)
    got = {frozenset(c) for c in compositions(g)}
    assert got == oracle
    # Bell(4) = 15 partitions in all; only the two containing the
    # disconnected block {1,3} drop out
    assert len(got) == 13


def test_compositions_match_brute_force_random():
    from conftest import brute_force_compositions

    rng = random.Random(23)
    from conftest import random_simple_graph

    for _ in range(25):
        g = random_simple_graph(rng, max_n=6)
        assert {frozenset(c) for c in compositions(g)} == brute_force_compositions(g)


def test_composition_flat_count_cross_module():
    for family, lo, hi in (("fan", 1, 6), ("wheel", 3, 6)):
        for n in range(lo, hi + 1):
            g = make_family(family, n)
            m = matroids.graphic_matroid(g)
            assert sum(1 for _ in compositions(g)) == len(m.flats())


def test_induced_union():
    g = make_family("fan", 3)
    singletons = [{v} for v in range(g.n)]
    assert induced_union(g, singletons).edges == ()
    assert induced_union(g, [set(range(g.n))]) == g
    with pytest.raises(ValueError):
        induced_union(g, [{1, 3}, {0, 2}])  # {1,3} is disconnected


def test_example12_figure_fixture():
    g = SimpleGraph(12, EXAMPLE12_EDGES)
    kept = induced_union(g, EXAMPLE12_BLOCKS)
    assert set(kept.edges) == EXAMPLE12_KEPT
    q = contract(g, EXAMPLE12_BLOCKS)
    assert q == SimpleGraph(
        5, [(0, 1), (0, 3), (0, 4), (1, 3), (2, 3), (2, 4), (3, 4)]
    )


def test_contract_basics():
    g = make_family("fan", 4)
    singles = [{v} for v in range(g.n)]
    assert contract(g, singles) == g
    assert contract(g, [set(range(g.n))]) == SimpleGraph(1)
    with pytest.raises(ValueError):
        contract(g, [{1, 3}, {0, 2, 4}])


def test_contract_fan12_figure_fixture():
    g = make_family("fan", 12)
    blocks = [{0, 1, 2, 7, 9, 10}, {3, 4}, {5}, {6}, {8}, {11}, {12}]
    assert is_composition(g, blocks)
    got = contract(g, blocks)
    want = SimpleGraph(
        7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (2, 3), (5, 6)]
    )
    assert got == want


def test_rank_additivity_over_compositions():
    for family, lo, hi in (("fan", 1, 6), ("wheel", 3, 6)):
        for n in range(lo, hi + 1):
            g = make_family(family, n)
            for c in compositions(g):
                assert rank(g) == rank(induced_union(g, c)) + rank(contract(g, c))


def test_chromatic_closed_forms():
    for b in range(1, 8):
        assert chromatic_polynomial(make_family("path", b)) == T * T1 ** (b - 1)
    for n in range(1, 8):
        assert chromatic_polynomial(make_family("fan", n)) == T * T1 * T2 ** (n - 1)
        assert kl.chromatic_closed("fan", n) == T * T1 * T2 ** (n - 1)
    for n in range(3, 8):
        want = T * (T2**n - (-1) ** (n - 1) * T2)
        assert chromatic_polynomial(make_family("wheel", n)) == want
        assert kl.chromatic_closed("wheel", n) == want


def test_chromatic_counts_colorings():
    rng = random.Random(5)
    from conftest import random_simple_graph

    for _ in range(20):
        g = random_simple_graph(rng, max_n=7)
        chi = chromatic_polynomial(g)
        for q in range(5):
            assert chi(q) == count_proper_colorings(g, q)


def test_chromatic_multiplicativity_over_blocks():
    # chi_G = t^(k-m) * prod over blocks, cross-multiplied to stay polynomial
    rng = random.Random(41)
    from conftest import components, random_simple_graph

    for _ in range(25):
        g = random_simple_graph(rng, max_n=7)
        blocks = biconnected_components(g)
        m = len(blocks)
        k = len(components(g))
        prod = Poly([1])
        for b in blocks:
            prod = prod * chromatic_polynomial(b)
        assert chromatic_polynomial(g) * T**m == prod * T**k


def test_chromatic_sweep_matches_deletion_contraction():
    from conftest import chromatic_by_deletion_contraction, random_simple_graph

    graphs = [make_family(family, n) for family in ("fan", "square_of_path")
              for n in range(1, 11)]
    graphs += [make_family("wheel", n) for n in range(3, 11)]
    graphs += [make_family("path", n) for n in range(1, MAX_VERTICES + 1)]
    graphs += [make_family("cycle", n) for n in range(3, MAX_VERTICES + 1)]
    graphs += [SimpleGraph(n) for n in (0, 1, 5, MAX_VERTICES)]
    rng = random.Random(2024)
    graphs += [random_simple_graph(rng, max_n=9) for _ in range(50)]
    for g in graphs:
        assert chromatic_polynomial(g) == chromatic_by_deletion_contraction(g), g


def test_chromatic_refuses_graphs_above_max_vertices():
    assert MAX_VERTICES == 13
    start = time.perf_counter()
    with pytest.raises(ValueError, match="13 vertices"):
        chromatic_polynomial(SimpleGraph(MAX_VERTICES + 1))
    # refused before the sweep starts: on the edgeless graph it would take seconds
    assert time.perf_counter() - start < 0.5


def test_biconnected_components():
    tree = make_family("path", 5)
    blocks = biconnected_components(tree)
    assert len(blocks) == 4 and all(b.n == 2 for b in blocks)
    cyc = make_family("cycle", 5)
    assert len(biconnected_components(cyc)) == 1
    bowtie = SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    blocks = biconnected_components(bowtie)
    assert len(blocks) == 2 and all(b.n == 3 and len(b.edges) == 3 for b in blocks)


def test_biconnected_against_cycle_oracle():
    # two edges share a block iff they lie on a common simple cycle; bridges
    # are singleton blocks.  Enumerate all cycles outright and compare.
    def cycle_edge_classes(g):
        edges = list(g.edges)
        idx = {e: i for i, e in enumerate(edges)}
        parent = list(range(len(edges)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        adj = [[] for _ in range(g.n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)

        def walk(path):
            tail = path[-1]
            for w in adj[tail]:
                if w == path[0] and len(path) >= 3:
                    cyc = [
                        idx[(min(a, b), max(a, b))]
                        for a, b in zip(path, path[1:] + [path[0]])
                    ]
                    for e in cyc[1:]:
                        parent[find(e)] = find(cyc[0])
                elif w > path[0] and w not in path:
                    walk(path + [w])

        for s in range(g.n):
            walk([s])
        classes = {}
        for i, e in enumerate(edges):
            classes.setdefault(find(i), set()).add(e)
        return {frozenset(c) for c in classes.values()}

    rng = random.Random(97)
    from conftest import random_simple_graph

    for _ in range(20):
        g = random_simple_graph(rng, max_n=6)
        blocks = list(biconnected_components(g))
        oracle = cycle_edge_classes(g)
        assert len(blocks) == len(oracle)
        for cls in oracle:
            verts = sorted({x for e in cls for x in e})
            relab = {v: i for i, v in enumerate(verts)}
            want = SimpleGraph(len(verts), [(relab[u], relab[v]) for u, v in cls])
            for i, b in enumerate(blocks):
                if b.n == want.n and len(b.edges) == len(want.edges) and are_isomorphic(b, want):
                    blocks.pop(i)
                    break
            else:
                raise AssertionError(f"no block matches {sorted(cls)} in {g!r}")
        assert not blocks


def test_canonical_iso():
    g1 = make_family("cycle", 5)
    g2 = SimpleGraph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    assert are_isomorphic(g1, g2)
    assert not are_isomorphic(g1, make_family("path", 5))
