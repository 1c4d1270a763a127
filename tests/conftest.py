"""Shared independent oracles, which deliberately avoid the library's own
algorithms so they can serve as cross-checks, and the helpers that only the
tests call (graph isomorphism, colorings, matroid minors, root isolation)."""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import settings, strategies as st

from matroidkl.graphs import SimpleGraph
from matroidkl.kl import _RECURRENCES, kl_poly
from matroidkl.matroids import MAX_GROUND, Flat, RankOracleMatroid, graphic_matroid
from matroidkl.poly import ONE, ZERO, Poly, remainder_sequence
from matroidkl.series import GF_NAMES, MAX_ORDER, TruncSeries
from matroidkl.realroot import _variations, sturm_chain


def all_set_partitions(items):
    """Every partition of items, by direct recursion."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1 :]
        yield [{first}] + part


def block_is_connected(g, block):
    """BFS connectivity of an induced block, independent of graphs internals."""
    block = set(block)
    if not block:
        return False
    nbrs = {v: set() for v in block}
    for u, v in g.edges:
        if u in block and v in block:
            nbrs[u].add(v)
            nbrs[v].add(u)
    seen = set()
    todo = [next(iter(block))]
    while todo:
        v = todo.pop()
        if v in seen:
            continue
        seen.add(v)
        todo.extend(nbrs[v] - seen)
    return seen == block


def brute_force_compositions(g):
    """All connected-block partitions of V(g) by filtering set partitions."""
    out = []
    for part in all_set_partitions(range(g.n)):
        if all(block_is_connected(g, b) for b in part):
            out.append(frozenset(frozenset(b) for b in part))
    return set(out)


def motzkin_numbers(count):
    """M_0, M_1, ... via the convolution recurrence."""
    m = [1]
    while len(m) < count:
        k = len(m) - 1
        nxt = m[k] + sum(m[i] * m[k - 1 - i] for i in range(k))
        m.append(nxt)
    return m


def catalan_numbers(count):
    """C_0, C_1, ... via the convolution recurrence."""
    c = [1]
    while len(c) < count:
        c.append(sum(c[i] * c[-1 - i] for i in range(len(c))))
    return c


def random_simple_graph(rng, max_n=7):
    n = rng.randint(1, max_n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                edges.append((u, v))
    return SimpleGraph(n, edges)


@st.composite
def graphs_up_to_16_edges(draw):
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    size = draw(st.integers(0, min(len(pairs), MAX_GROUND)))
    return SimpleGraph(n, draw(st.permutations(pairs))[:size])


RANDOM_GRAPHS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@pytest.fixture
def frac():
    return Fraction


@pytest.fixture
def no_fraction_coeffs(monkeypatch):
    """Make every Poly built during the test fail on a Fraction coefficient."""
    from matroidkl import poly

    norm = poly._norm_coeff

    def no_fraction(c):
        if isinstance(c, Fraction):
            raise AssertionError(f"Fraction coefficient {c} on an integer route")
        return norm(c)

    monkeypatch.setattr(poly, "_norm_coeff", no_fraction)


# ---------------------------------------------------------------------------
# graph helpers that only the tests use: components and rank, compositions
# enumerated, checked, kept as induced subgraphs and contracted, proper
# colorings counted one by one, biconnected blocks and the KL polynomial as a
# product over them, and an exhaustive isomorphism test


def _components(n, adj, within=None):
    """Connected components (as bitmasks) of the subgraph induced on `within`."""
    if within is None:
        within = (1 << n) - 1
    comps = []
    todo = within
    while todo:
        start = todo & -todo
        comp = start
        frontier = start
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grow = adj[v] & within & ~comp
            comp |= grow
            frontier |= grow
        comps.append(comp)
        todo &= ~comp
    return comps


def components(g):
    return _components(g.n, g.adjacency())


def rank(g):
    """|V| minus the number of connected components."""
    return g.n - len(components(g)) if g.n else 0


def is_composition(g, blocks):
    """True when blocks partition V(g) and every block induces a connected subgraph."""
    try:
        masks = _blocks_to_masks(g, blocks)
        _check_connected_blocks(g, masks)
    except ValueError:
        return False
    return True


def induced_union(g, blocks):
    """G[C]: same vertex set, only edges inside a common block kept."""
    masks = _blocks_to_masks(g, blocks)
    _check_connected_blocks(g, masks)
    keep = []
    for u, v in g.edges:
        bu = 1 << u
        bv = 1 << v
        if any((m & bu) and (m & bv) for m in masks):
            keep.append((u, v))
    return SimpleGraph(g.n, keep)


def _blocks_to_masks(g, blocks):
    masks = []
    covered = 0
    for block in blocks:
        m = 0
        for v in block:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex {v} out of range")
            m |= 1 << v
        if m == 0:
            raise ValueError("empty block in partition")
        if m & covered:
            raise ValueError("blocks overlap")
        covered |= m
        masks.append(m)
    if covered != (1 << g.n) - 1:
        raise ValueError("blocks do not cover the vertex set")
    return masks


def _check_connected_blocks(g, masks):
    adj = g.adjacency()
    for m in masks:
        if len(_components(g.n, adj, m)) != 1:
            raise ValueError("partition block induces a disconnected subgraph")


def contract(g, blocks):
    """G/C: one vertex per block (ordered by smallest member), simplified."""
    masks = _blocks_to_masks(g, blocks)
    _check_connected_blocks(g, masks)
    order = sorted(range(len(masks)), key=lambda i: (masks[i] & -masks[i]).bit_length())
    vmap = {}
    for new, i in enumerate(order):
        m = masks[i]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            vmap[v] = new
    edges = set()
    for u, v in g.edges:
        a, b = vmap[u], vmap[v]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return SimpleGraph(len(masks), sorted(edges))


def compositions(g):
    """Yield every partition of V(g) into connected blocks exactly once.

    Blocks grow from their smallest vertex (the anchor), so disconnected
    partitions are never generated and no duplicates appear.
    """
    if g.n == 0:
        yield ()
        return
    adj = g.adjacency()
    full = (1 << g.n) - 1

    def connected_supersets(seed, allowed):
        # all connected S with seed <= S <= allowed, each exactly once
        out = []

        def grow(s, neighbors, banned):
            out.append(s)
            ext = neighbors & allowed & ~s & ~banned
            local_ban = banned
            while ext:
                bit = ext & -ext
                ext &= ext - 1
                v = bit.bit_length() - 1
                grow(s | bit, neighbors | adj[v], local_ban)
                local_ban |= bit

        nbrs = 0
        m = seed
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nbrs |= adj[v]
        grow(seed, nbrs, 0)
        return out

    def rec(remaining, acc):
        if not remaining:
            yield tuple(acc)
            return
        anchor = remaining & -remaining
        for block in connected_supersets(anchor, remaining):
            acc.append(block)
            yield from rec(remaining & ~block, acc)
            acc.pop()

    for masks in rec(full, []):
        yield tuple(
            frozenset(i for i in range(g.n) if m >> i & 1) for m in masks
        )


def count_proper_colorings(g, q):
    """Brute-force count of proper q-colorings (independent oracle, small graphs)."""
    if g.n > 8:
        raise ValueError("brute-force coloring limited to 8 vertices")
    count = 0
    colors = [0] * g.n
    edges = g.edges

    def rec(i):
        nonlocal count
        if i == g.n:
            count += 1
            return
        for c in range(q):
            colors[i] = c
            if all(colors[u] != colors[v] for u, v in edges if u < i and v == i or v < i and u == i):
                rec(i + 1)

    rec(0)
    return count


def biconnected_components(g):
    """Maximal biconnected subgraphs (blocks); a bridge is a 2-vertex block."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    visited = [False] * g.n
    depth = [0] * g.n
    low = [0] * g.n
    stack = []
    blocks = []

    def emit(edge_list):
        verts = sorted({x for e in edge_list for x in e})
        relabel = {v: i for i, v in enumerate(verts)}
        blocks.append(
            SimpleGraph(len(verts), [(relabel[u], relabel[v]) for u, v in edge_list])
        )

    def dfs(root):
        # iterative DFS with an explicit edge stack
        visited[root] = True
        depth[root] = low[root] = 0
        work = [(root, -1, iter(adj[root]))]
        while work:
            v, parent, it = work[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if not visited[w]:
                    stack.append((v, w))
                    visited[w] = True
                    depth[w] = low[w] = depth[v] + 1
                    work.append((w, v, iter(adj[w])))
                    advanced = True
                    break
                if depth[w] < depth[v]:
                    stack.append((v, w))
                    low[v] = min(low[v], depth[w])
            if advanced:
                continue
            work.pop()
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= depth[p]:
                    comp = []
                    while stack and stack[-1] != (p, v):
                        comp.append(stack.pop())
                    if stack:
                        comp.append(stack.pop())
                    if comp:
                        emit(comp)

    for s in range(g.n):
        if not visited[s] and adj[s]:
            dfs(s)
    return blocks


def multiplicative_kl(g):
    """KL polynomial of a graph as the product over its biconnected blocks."""
    result = ONE
    for block in biconnected_components(g):
        result = result * kl_poly(graphic_matroid(block))
    return result


# ---------------------------------------------------------------------------
# the chromatic polynomial by memoized deletion-contraction, split over
# components, with tree and cycle shortcuts: the library sums Birkhoff's
# expansion over partitions into independent sets instead

_chromatic_memo = {}


def _chromatic_connected(n, edges):
    """Chromatic polynomial of a connected simple graph by deletion-contraction."""
    m = len(edges)
    if m == n - 1:  # tree
        return Poly([0, 1]) * Poly([-1, 1]) ** (n - 1)
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    if m == n and all(d == 2 for d in degs):  # cycle
        return Poly([-1, 1]) ** n + (-1) ** n * Poly([-1, 1])
    key = (n, edges)
    hit = _chromatic_memo.get(key)
    if hit is not None:
        return hit
    # deletion-contraction on an edge at a maximum-degree vertex
    u, v = max(edges, key=lambda e: degs[e[0]] + degs[e[1]])
    deleted = SimpleGraph(n, [e for e in edges if e != (u, v)])
    # G/uv: v merges into u (u < v), the vertices above v shift down by one,
    # and the edge uv is dropped
    image = [w if w < v else u if w == v else w - 1 for w in range(n)]
    merged = SimpleGraph(n - 1, [(image[a], image[b]) for a, b in edges if (a, b) != (u, v)])
    result = chromatic_by_deletion_contraction(deleted) - chromatic_by_deletion_contraction(merged)
    _chromatic_memo[key] = result
    return result


def chromatic_by_deletion_contraction(g):
    """Exact chromatic polynomial of g, the product over its components."""
    result = Poly([1])
    for comp in components(g):
        verts = [v for v in range(g.n) if comp >> v & 1]
        relabel = {v: i for i, v in enumerate(verts)}
        sub = tuple(
            sorted((relabel[u], relabel[v]) for u, v in g.edges if comp >> u & 1 and comp >> v & 1)
        )
        result = result * _chromatic_connected(len(verts), sub)
    return result


def canonical_form(g):
    """Lexicographically minimal adjacency bitmatrix over all vertex orderings.

    Exhaustive, so guarded to 8 vertices; enough for the isomorphism
    assertions of the tests.
    """
    if g.n > 8:
        raise ValueError("canonical_form limited to 8 vertices")
    adjset = set(g.edges)
    best = None
    verts = range(g.n)
    for perm in permutations(verts):
        bits = 0
        pos = 0
        for i in range(g.n):
            for j in range(i + 1, g.n):
                u, v = perm[i], perm[j]
                if ((u, v) if u < v else (v, u)) in adjset:
                    bits |= 1 << pos
                pos += 1
        if best is None or bits < best:
            best = bits
    return (g.n, best)


def are_isomorphic(g1, g2):
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    return canonical_form(g1) == canonical_form(g2)


# ---------------------------------------------------------------------------
# the graphic rank table and the flats subset by subset: the library sweeps
# all 2^m subsets at once as the byte lanes of one int


def rank_table_by_recursion(n_vertices, edge_list):
    """One include/exclude recursion over the edges, reaching each subset
    once, from its highest edge, with the component label of every vertex
    under the current subset: an edge inside a component keeps the rank, an
    edge between two components relabels one of them and adds 1."""
    m = len(edge_list)
    table = bytearray(1 << m)

    def extend(first, x, labels, r):
        for e in range(first, m):
            a, b = edge_list[e]
            la, lb = labels[a], labels[b]
            y = x | 1 << e
            if la == lb:
                table[y] = r
                extend(e + 1, y, labels, r)
            else:
                table[y] = r + 1
                extend(e + 1, y, [la if c == lb else c for c in labels], r + 1)

    extend(0, 0, list(range(n_vertices)), 0)
    return table


def is_flat(m, x):
    """No element outside the subset x keeps its rank."""
    t = m.table
    rest = ((1 << m.m) - 1) & ~x
    while rest:
        bit = rest & -rest
        rest &= rest - 1
        if t[x | bit] == t[x]:
            return False
    return True


def flats_by_scan(m):
    """is_flat on each of the 2^m subsets, sorted by (rank, bitmask)."""
    found = [Flat(x, m.table[x]) for x in range(1 << m.m) if is_flat(m, x)]
    found.sort(key=lambda f: (f.rank, f.elements))
    return tuple(found)


def rank_table_by_union_find(n_vertices, edge_list):
    """Each subset from a fresh union-find with path halving."""
    m = len(edge_list)
    table = bytearray(1 << m)
    parent = list(range(n_vertices))
    for x in range(1, 1 << m):
        for i in range(n_vertices):
            parent[i] = i
        r = 0
        bits = x
        while bits:
            e = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            a, b = edge_list[e]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[a] = b
                r += 1
        table[x] = r
    return table


# ---------------------------------------------------------------------------
# minors of a rank-oracle matroid, rebuilt as rank tables: the naive KL route
# works on these, where the library's pass reads upper intervals of one lattice


def flat_members(flat):
    """The ground-set indices of a flat, ascending."""
    m, out = flat.elements, []
    while m:
        out.append((m & -m).bit_length() - 1)
        m &= m - 1
    return tuple(out)


def _flat_mask(m, flat, operation):
    fmask = flat.elements if isinstance(flat, Flat) else flat
    if not is_flat(m, fmask):
        raise ValueError(f"{operation} requires a flat")
    return fmask


def _minor(m, base, elems):
    """The matroid on elems with rank(X) = rank(base | X) - rank(base)."""
    embedded = [base]  # embedded[sub] = base | the elems picked by the bits of sub
    for e in elems:
        bit = 1 << e
        embedded += [x | bit for x in embedded]
    rb = m.table[base]
    table = bytearray(m.table[x] - rb for x in embedded)
    return RankOracleMatroid(len(elems), table)


def localization(m, flat):
    """Restriction M_F to the elements of the flat F."""
    fmask = _flat_mask(m, flat, "localization")
    return _minor(m, 0, [e for e in range(m.m) if fmask >> e & 1])


def contraction(m, flat):
    """Contraction M^F, simplified: parallel classes collapse to their
    smallest-index element (flats guarantee looplessness)."""
    fmask = _flat_mask(m, flat, "contraction")
    rf = m.table[fmask]
    # parallel classes: e ~ f iff rank(F+e+f) - rank(F) == 1
    reps = []
    for e in range(m.m):
        if fmask >> e & 1:
            continue
        for r in reps:
            if m.table[fmask | (1 << e) | (1 << r)] - rf == 1:
                break
        else:
            reps.append(e)
    return _minor(m, fmask, reps)


def simplification(m):
    """Simple matroid with the same lattice of flats."""
    return contraction(m, 0)


class PairLattice:
    """A graded lattice given by its ranks and its strict order as index lists,
    every comparable pair listed: the oracle for the library's bitset order.

    Index 0 is the bottom (rank 0), the last index the unique top, and indices
    are sorted by rank, so j below i implies j < i.  above[j] lists,
    ascending, the i strictly above j.
    """

    __slots__ = ("ranks", "above", "n", "top_rank")

    def __init__(self, ranks, above):
        self.ranks = tuple(ranks)
        self.above = tuple(above)
        self.n = len(self.ranks)
        self.top_rank = self.ranks[-1] if self.ranks else 0

    def chi_from_bottom(self):
        """Characteristic polynomial of every lower interval [bottom, F], one
        at a time in the order of the flats: sum over flats G <= F of
        mu(bottom, G) * t^(rk F - rk G).

        One walk up the order: by the time flat j is reached, every flat G
        below it has pushed mu(bottom, G) into coefficient rk j - rk G of
        chi_j, so chi_j is complete and mu(bottom, j) is minus its sum."""
        ranks = self.ranks
        coeffs = [[0] * (r + 1) for r in ranks]
        for j, ups in enumerate(self.above):
            chi_j, coeffs[j] = coeffs[j], None
            chi_j[0] = -sum(chi_j) if j else 1
            for i in ups:
                coeffs[i][ranks[i] - ranks[j]] += chi_j[0]
            yield Poly(chi_j)


def lattice_by_pairs(matroid):
    """The lattice of flats with its order from one subset test per pair of
    flats, flat j below flat i iff mask j is a subset of mask i; the library
    looks up subset tables instead."""
    flats = matroid.flats()
    masks = [f.elements for f in flats]
    above = [tuple(i for i in range(j + 1, len(masks)) if mj & masks[i] == mj)
             for j, mj in enumerate(masks)]
    return PairLattice([f.rank for f in flats], above)


def flat_pass_by_pairs(lat):
    """P of every upper interval [F, top] and Z of the whole lattice, one
    comparable pair at a time, where the library counts the flats above by
    (rank, P) class.  R_A = sum over F > A of t^(rk F - rk A) * P_F, and
    p_k = [t^(r-k)]R_A - [t^k]R_A for k < r/2."""
    ranks = lat.ranks
    ps = [None] * lat.n
    for a in reversed(range(lat.n)):
        r = lat.top_rank - ranks[a]
        z = [0] * (r + 1)
        for f in lat.above[a]:
            for k, c in enumerate(ps[f].coeffs, ranks[f] - ranks[a]):
                z[k] += c
        p = [z[r - k] - z[k] for k in range((r + 1) // 2)] if r else [1]
        for k, c in enumerate(p):
            z[k] += c
        ps[a] = Poly(p)
    return ps, Poly(z)


def reverse_scaled(p, r):
    """t^r * p(1/t), for r >= deg(p)."""
    return Poly([p.coeff(r - k) for k in range(r + 1)])


def check_bottom_by_pairs(lat, ps):
    """The defining recursion at the bottom flat, one lower interval at a
    time, where the library sums mu(bottom, G) * Z_G:
    sum over flats F of chi_{[bottom, F]}(t) * P_F(t) == t^r * P_M(1/t).
    Returns chi_{[bottom, top]}."""
    total = Poly()
    for chi, p in zip(lat.chi_from_bottom(), ps):
        total = total + chi * p
    if total != reverse_scaled(ps[0], lat.top_rank):
        raise ArithmeticError("defining recursion fails at the bottom flat")
    return chi


def characteristic_by_masks(m):
    """Characteristic polynomial from a Moebius function computed on the flat
    bitmasks themselves (flat j <= flat i iff mask j is a subset of mask i),
    independent of the library's lattice of flats."""
    flats = m.flats()
    masks = [f.elements for f in flats]
    mu = [0] * len(flats)
    mu[0] = 1
    for i in range(1, len(flats)):
        mu[i] = -sum(mu[j] for j in range(i) if masks[j] & masks[i] == masks[j])
    r = m.full_rank
    coeffs = [0] * (r + 1)
    for f, mu_f in zip(flats, mu):
        coeffs[r - f.rank] += mu_f
    return Poly(coeffs)


class HoldingLattice(namedtuple("HoldingLattice", "flats holding")):
    """The lattice of flats with its order as one bitset per element,
    holding[e] the flats that contain element e, each order query a loop
    over elements: the oracle for the library's subset tables, which answer
    one chunk of elements per lookup."""

    __slots__ = ()

    def containing(self, j):
        """The AND of holding[e] over the elements e of flat j."""
        bits, x = (1 << len(self.flats)) - 1, self.flats[j].elements
        while x:
            low = x & -x
            bits &= self.holding[low.bit_length() - 1]
            x ^= low
        return bits

    def below(self, j):
        """The flats that hold none of the elements flat j lacks."""
        union, x = 0, self.flats[j].elements ^ ((1 << len(self.holding)) - 1)
        while x:
            low = x & -x
            union |= self.holding[low.bit_length() - 1]
            x ^= low
        return ((1 << len(self.flats)) - 1) ^ union

    def mobius(self):
        """mu(bottom, F) from the bottom up, with every value of mu found so
        far, of every rank, read at each flat; the library reads the values
        of the lower ranks only."""
        mus, with_mu = [], {}
        for j in range(len(self.flats)):
            below = self.below(j)
            mu = -sum(v * (below & bits).bit_count() for v, bits in with_mu.items()) if j else 1
            mus.append(mu)
            with_mu[mu] = with_mu.get(mu, 0) | 1 << j
        return mus


def lattice_by_elements(matroid):
    """HoldingLattice of a matroid, one flat's elements at a time, where the
    library transposes the flat masks as byte lanes."""
    flats = matroid.flats()
    holding = [0] * matroid.m
    for i, f in enumerate(flats):
        x = f.elements
        while x:
            low = x & -x
            holding[low.bit_length() - 1] |= 1 << i
            x ^= low
    return HoldingLattice(flats, holding)


def characteristic_by_subsets(m):
    """Whitney's expansion, one subset at a time: the sum over subsets S of
    (-1)^|S| * t^(rk M - rk S); the library counts bytes of a key string."""
    r = m.full_rank
    coeffs = [0] * (r + 1)
    for s, rank in enumerate(m.table):
        coeffs[r - rank] += -1 if s.bit_count() & 1 else 1
    return Poly(coeffs)


def hasse_covers(lat):
    """covers[i] lists the j of rank one more than i with i below j."""
    return [[j for j in lat.above[i] if lat.ranks[j] == lat.ranks[i] + 1]
            for i in range(lat.n)]


def below_lists(lat):
    """below[i] lists, ascending, the j strictly below i: the transpose of
    lat.above."""
    below = [[] for _ in range(lat.n)]
    for j, ups in enumerate(lat.above):
        for i in ups:
            below[i].append(j)
    return below


def lattice_isomorphic(a, b, budget=2_000_000):
    """Exact isomorphism test between two PairLattices.

    Returns True/False, or None when the backtracking budget is exhausted.
    """
    if a.n != b.n or a.ranks != b.ranks:
        return False
    n = a.n
    sides = []
    for lat in (a, b):
        covers = hasse_covers(lat)
        cocovers = [[] for _ in range(n)]
        for i, cs in enumerate(covers):
            for j in cs:
                cocovers[j].append(i)
        sides.append((lat, covers, cocovers))

    # iterated refinement of vertex colors over the Hasse diagram
    colors = [
        [(lat.ranks[i], len(cov[i]), len(coc[i])) for i in range(n)]
        for (lat, cov, coc) in sides
    ]
    for _ in range(8):
        canon = {}
        new_colors = []
        for (lat, cov, coc), col in zip(sides, colors):
            nc = []
            for i in range(n):
                sig = (
                    col[i],
                    tuple(sorted(col[j] for j in cov[i])),
                    tuple(sorted(col[j] for j in coc[i])),
                )
                nc.append(canon.setdefault(sig, len(canon)))
            new_colors.append(nc)
        if sorted(new_colors[0]) != sorted(new_colors[1]):
            return False
        stable = new_colors == colors
        colors = new_colors
        if stable:
            break
    ca, cb = colors

    candidates = {}
    for j in range(n):
        candidates.setdefault(cb[j], []).append(j)
    order = sorted(range(n), key=lambda i: (len(candidates.get(ca[i], ())), ca[i], i))
    below_a = [set(js) for js in below_lists(a)]
    below_b = [set(js) for js in below_lists(b)]
    assigned = []
    used = [False] * n
    steps = 0

    def consistent(i, j):
        for i2, j2 in assigned:
            if (i2 in below_a[i]) != (j2 in below_b[j]):
                return False
            if (i in below_a[i2]) != (j in below_b[j2]):
                return False
        return True

    # iterative backtracking: frame k holds the candidate iterator for order[k]
    iters = [None] * n
    k = 0
    while True:
        if k == n:
            return True
        if iters[k] is None:
            iters[k] = iter(candidates.get(ca[order[k]], ()))
        i = order[k]
        advanced = False
        for j in iters[k]:
            if used[j]:
                continue
            steps += 1
            if steps > budget:
                return None
            if consistent(i, j):
                used[j] = True
                assigned.append((i, j))
                k += 1
                advanced = True
                break
        if advanced:
            continue
        iters[k] = None
        if k == 0:
            return False
        k -= 1
        _, j_prev = assigned.pop()
        used[j_prev] = False


# ---------------------------------------------------------------------------
# root counting, isolation and refinement: the library reads sign counts at
# -inf, 0 and +inf only; these count the sign changes at any rational point on
# the chain of the squarefree part and locate every distinct root in a
# rational interval, with its multiplicity from Yun's squarefree decomposition


# polynomial division, which the library left when its series kernels began
# to divide coefficient lists; the oracles below divide with it


def _quotient(a, b):
    """a / b, exact: an int when both are ints and b divides a, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, rem = divmod(a, b)
        if not rem:
            return q
    return Fraction(a, b)


def poly_divmod(a, b):
    """Exact rational polynomial division: a = q*b + r with deg r < deg b.
    A quotient coefficient stays an int when b's leading coefficient divides
    it, so an exact division of int polynomials never leaves the integers."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    bc = b.coeffs
    qlen = len(r) - len(bc) + 1
    if qlen <= 0:
        return ZERO, a
    q = [0] * qlen
    bl = bc[-1]
    for i in range(qlen - 1, -1, -1):
        c = q[i] = _quotient(r[i + len(bc) - 1], bl)
        if c:
            for j, bj in enumerate(bc):
                r[i + j] -= c * bj
    return Poly(q), Poly(r)


def divexact(a, b):
    """Exact division a / b; raises ArithmeticError when b does not divide a."""
    q, r = poly_divmod(a, b)
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q


def primitive_part(p):
    """p over its content: primitive integer coefficients, sign kept."""
    return p / content(p) if p else p


def remainder_sequence_by_poly(a, b):
    """The library's remainder sequence as it was before it moved to int
    lists: each step builds Poly terms and pseudo-divides the whole dividend,
    scaled by |lc(b)|^(deg a - deg b + 1), with poly_divmod."""
    seq = [primitive_part(a)]
    while b:
        a, b = seq[-1], primitive_part(b)
        seq.append(b)
        scale = abs(b.leading) ** max(a.degree - b.degree + 1, 0)
        b = -poly_divmod(a * scale, b)[1]
    return seq


def root_flags_by_full_chain(p, seq=None):
    """(real-rooted, all zeros negative) read at -inf, 0 and +inf off the
    full-degree chain seq = remainder_sequence_by_poly(p, p'), palindromic p
    or not."""
    seq = seq or remainder_sequence_by_poly(p, p.derivative())
    distinct = p.degree - seq[-1].degree
    v_neg, v_zero, v_pos = (_variations_at(seq, x) for x in (NEG_INF, 0, POS_INF))
    real = v_neg - v_pos == distinct
    return real, real and p(0) != 0 and v_neg - v_zero == distinct


def poly_gcd(a, b):
    """Primitive gcd with positive leading coefficient; zero iff a = b = 0."""
    g = remainder_sequence(a, b)[-1]
    return -g if g and g.leading < 0 else g


def squarefree_part(p):
    if p.is_zero():
        raise ValueError("zero polynomial")
    return primitive_part(divexact(p, poly_gcd(p, p.derivative())))


NEG_INF = object()
POS_INF = object()


def _variations_at(polys, x):
    if x is NEG_INF:
        return _variations([c.leading * (-1) ** c.degree for c in polys])
    if x is POS_INF:
        return _variations([c.leading for c in polys])
    return _variations([c(x) for c in polys])


def _roots_le(chain, x):
    """Distinct real roots in (-inf, x]; x must not be a root of the chain's
    last term."""
    return _variations_at(chain.polys, NEG_INF) - _variations_at(chain.polys, x)


def count_real_roots(p, lo=None, hi=None):
    """Distinct real roots of p in the half-open interval (lo, hi]; None
    endpoints mean -inf / +inf; lo > hi is refused."""
    lo, hi = (None if x is None else Fraction(x) for x in (lo, hi))
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"count_real_roots needs lo <= hi, got lo={lo}, hi={hi}")
    chain = sturm_chain(squarefree_part(p))
    upper = _roots_le(chain, POS_INF if hi is None else hi)
    lower = 0 if lo is None else _roots_le(chain, lo)
    return upper - lower


def content(p):
    """Positive rational c with p/c primitive integer (zero poly -> 1)."""
    if p.is_zero():
        return Fraction(1)
    den = 1
    for c in p.coeffs:
        if isinstance(c, Fraction):
            den = lcm(den, c.denominator)
    num = 0
    for c in p.coeffs:
        num = gcd(num, int(c * den))
    return Fraction(num, den)


@dataclass(frozen=True)
class RootInterval:
    """One distinct real root: in (lo, hi] when lo < hi, exactly at lo when
    lo == hi."""

    lo: Fraction
    hi: Fraction
    multiplicity: int = 1

    def is_exact(self):
        return self.lo == self.hi


def squarefree_decomposition(p):
    """Yun's algorithm: [(factor, multiplicity)] with p = lead * prod f_i^i."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree <= 0:
        return []
    out = []
    g = poly_gcd(p, p.derivative())
    w = divexact(p, g)
    y = divexact(p.derivative(), g)
    z = y - w.derivative()
    i = 1
    while w.degree >= 1:
        a = poly_gcd(w, z)
        if a.degree >= 1:
            out.append((a, i))
        w = divexact(w, a)
        y = divexact(z, a)
        z = y - w.derivative()
        i += 1
    return out


def _root_bound(q):
    lead = abs(Fraction(q.leading))
    m = max((abs(Fraction(c)) for c in q.coeffs[:-1]), default=Fraction(0))
    b = 1 + m / lead
    return Fraction(b.numerator // b.denominator + 1)


def _isolate_squarefree(chain):
    """Disjoint (lo, hi] pieces, one distinct root each; exact roots become
    points.  A root sitting exactly at a bisection midpoint stays the hi
    endpoint of its piece until that piece reaches count one."""
    q = chain.polys[0]
    if q.degree <= 0:
        return []
    b = _root_bound(q)
    total = _roots_le(chain, POS_INF)
    found = []
    stack = [(-b, b, total)]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            if q(hi) == 0:
                found.append((hi, hi))
            else:
                found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        left = _roots_le(chain, mid) - _roots_le(chain, lo)
        stack.append((lo, mid, left))
        stack.append((mid, hi, k - left))
    found.sort()
    return found


def isolate_real_roots(p):
    """Disjoint rational intervals, one per distinct real root, with
    multiplicities; sorted ascending."""
    raw = _isolate_squarefree(sturm_chain(squarefree_part(p)))
    factor_chains = [(sturm_chain(f), m) for f, m in squarefree_decomposition(p)]
    out = []
    for lo, hi in raw:
        mult = 0
        for fchain, fm in factor_chains:
            if lo == hi:
                if fchain.polys[0](lo) == 0:
                    mult = fm
                    break
            elif _roots_le(fchain, hi) - _roots_le(fchain, lo) == 1:
                mult = fm
                break
        if mult == 0:
            raise ArithmeticError("isolated root not matched to a squarefree factor")
        out.append(RootInterval(lo, hi, mult))
    return out


def refine(p, iv, predicate):
    """Bisect a root interval until predicate(iv) holds or the root is exact."""
    chain = sturm_chain(squarefree_part(p))
    while not predicate(iv) and not iv.is_exact():
        mid = (iv.lo + iv.hi) / 2
        if chain.polys[0](mid) == 0:
            iv = RootInterval(mid, mid, iv.multiplicity)
        elif _roots_le(chain, mid) - _roots_le(chain, iv.lo) == 1:
            iv = RootInterval(iv.lo, mid, iv.multiplicity)
        else:
            iv = RootInterval(mid, iv.hi, iv.multiplicity)
    return iv


# ---------------------------------------------------------------------------
# isolation-based root verdicts: the library reads its verdicts off sign
# counts at -inf, 0 and +inf; these locate every root instead


def root_verdicts_by_isolation(p):
    """(all zeros real, all zeros negative, all zeros real and of one sign),
    read off an isolation of every root of p, refined until it excludes 0."""
    roots = isolate_real_roots(p)
    if sum(iv.multiplicity for iv in roots) != p.degree:
        return False, False, False
    if p.degree <= 0:
        return True, True, True
    if p(0) == 0:
        return True, False, False
    signs = {refine(p, iv, lambda r: r.hi < 0 or r.lo >= 0).hi < 0 for iv in roots}
    return True, signs == {True}, len(signs) == 1


def interleaves_by_isolation(g, f):
    """Interlacing by isolating the union of both root sets and placing each
    root of f and of g, with multiplicity, in that one descending order."""
    for p in (f, g):
        if p.is_zero() or p.leading <= 0:
            raise ValueError("positive leading coefficient required")
        if sum(iv.multiplicity for iv in isolate_real_roots(p)) != p.degree:
            raise ValueError("real-rooted polynomials required")
    gap = f.degree - g.degree
    if gap not in (0, 1):
        raise ValueError("degree gap must be 0 or 1")

    fs = squarefree_part(f)
    gs = squarefree_part(g)
    union = primitive_part(divexact(fs * gs, poly_gcd(fs, gs)))
    # descending global order of all distinct roots of f and g together
    global_order = sorted(_isolate_squarefree(sturm_chain(union)), reverse=True)

    def side_positions(p):
        sf = squarefree_part(p)
        sf_chain = sturm_chain(sf)
        out = []
        for iv in isolate_real_roots(p):
            placed = None
            for pos, (lo, hi) in enumerate(global_order):
                if lo == hi:
                    if iv.is_exact():
                        ok = iv.lo == lo
                    else:
                        ok = iv.lo < lo <= iv.hi and sf(lo) == 0
                elif iv.is_exact():
                    ok = lo < iv.lo <= hi
                else:
                    a, b = max(lo, iv.lo), min(hi, iv.hi)
                    ok = a < b and _roots_le(sf_chain, b) - _roots_le(sf_chain, a) == 1
                if ok:
                    placed = pos
                    break
            if placed is None:
                raise ArithmeticError("root not aligned with the union isolation")
            out.extend([placed] * iv.multiplicity)
        out.sort()
        return out  # ascending positions = roots in descending order

    u = side_positions(f)
    v = side_positions(g)
    n = len(u)
    seq = []
    if gap == 0:
        for i in range(n):
            seq.append(u[i])
            seq.append(v[i])
    else:
        for i in range(n - 1):
            seq.append(u[i])
            seq.append(v[i])
        if n:
            seq.append(u[n - 1])
    return all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))


# ---------------------------------------------------------------------------
# squarefree-chain verdicts: the library reads its verdicts off one
# content-stripped remainder sequence of (p, p') or (f, g); these first divide
# out the gcd, found by Euclid over Q with no content stripping


def euclid_over_q(a, b):
    """Signed remainder sequence a, b, -rem(a, b), ... over Q, no content
    stripped, down to the last nonzero term; a zero b ends it at a."""
    seq = [a]
    while b:
        seq.append(b)
        b = -poly_divmod_over_q(seq[-2], seq[-1])[1]
    return seq


def gcd_over_q(a, b):
    """Primitive gcd with positive leading coefficient, by Euclid over Q."""
    g = euclid_over_q(a, b)[-1]
    if not g:
        return Poly()
    g = primitive_part(g)
    return -g if g.leading < 0 else g


def root_verdicts_by_squarefree_chain(p):
    """(all zeros real, all zeros negative, all zeros real and of one sign),
    read off the Sturm chain of the squarefree part q = p / gcd(p, p')."""
    q = divexact(p, gcd_over_q(p, p.derivative()))
    chain = euclid_over_q(q, q.derivative())

    def roots_le(x):
        return _variations_at(chain, NEG_INF) - _variations_at(chain, x)

    real = roots_le(POS_INF)
    if real != q.degree:
        return False, False, False
    if p(0) == 0:
        return True, False, False
    nonpos = roots_le(0)
    return True, nonpos == real, nonpos in (0, real)


def interleaves_by_squarefree_chain(g, f):
    """Interlacing for valid inputs (real-rooted, positive leading
    coefficients, deg f - deg g in {0, 1}): divide both by h = gcd(f, g), then
    compare Sylvester's index of g1/f1 with deg f1."""
    h = gcd_over_q(f, g)
    f1 = divexact(f, h)
    if f1.degree <= 0:
        return True
    seq = euclid_over_q(f1, divexact(g, h))
    return _variations_at(seq, NEG_INF) - _variations_at(seq, POS_INF) == f1.degree


# ---------------------------------------------------------------------------
# exact arithmetic over Q and by convolution: the library keeps its expand
# route in the integers (the radical by its differential equation, quotients
# through their conjugates, closed forms by exact integer division); these
# compute the same values the long way, over Fraction where it is needed


def poly_divmod_over_q(a, b):
    """a = q*b + r with deg r < deg b, dividing every step by b's leading
    coefficient as a Fraction: each quotient coefficient is a Fraction until
    Poly turns the integral ones back into ints."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    qlen = len(r) - len(b.coeffs) + 1
    if qlen <= 0:
        return ZERO, Poly(r)
    q = [Fraction(0)] * qlen
    bl = Fraction(b.leading)
    bc = b.coeffs
    for i in range(qlen - 1, -1, -1):
        c = r[i + len(bc) - 1] / bl
        q[i] = c
        if c:
            for j, bj in enumerate(bc):
                r[i + j] -= c * bj
    return Poly(q), Poly(r)


def _multinomial(n, *parts):
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def kl_closed_over_q(family, n):
    """The closed-form KL polynomials with Fraction weights, as printed."""
    terms = []
    for k in range((n - 1) // 2 + 1):
        if family in ("fan", "square"):
            terms.append(Fraction(1, k + 1) * _multinomial(n - 1, k, k, n - 2 * k - 1))
        elif family == "wheel":
            w = Fraction(k + 1, n - k) + Fraction(k, n - k + 1) - Fraction(k, n - k - 1)
            terms.append(w * _multinomial(n, k, k + 1, n - 2 * k - 1))
        else:  # whirl
            terms.append(Fraction(n, n - k) * _multinomial(n - 1, k, k, n - 2 * k - 1))
    return Poly(terms).integerized()


def factor_product(factors, n):
    """Product of a recurrence row's factors at index n, as a Poly; a factor
    free of t only scales."""
    out = ONE
    for rows in factors:
        f = [sum(c * n**j for j, c in enumerate(row)) for row in rows]
        out = out * (f[0] if len(f) == 1 else Poly(f))
    return out


def rec_sequence_by_poly(family, length):
    """a[0..length-1] of kl._RECURRENCES[family] by Poly arithmetic: each step
    sums factor_product(terms[j-1]) * a[m-j] and divides it exactly by
    factor_product(lead), the stepper that the int-list step replaced."""
    rec = _RECURRENCES[family]
    seq = [Poly(s) for s in rec["seeds"]]
    while len(seq) < length:
        m = len(seq)
        n = m - len(rec["terms"])
        num = sum((factor_product(factors, n) * seq[m - j]
                   for j, factors in enumerate(rec["terms"], 1)), Poly())
        seq.append(divexact(num, factor_product(rec["lead"], n)).integerized())
    return seq[:length]


def z_closed_over_q(family, n):
    """The closed-form Z-polynomials with Fraction terms, as printed."""
    def c(a, b):
        return comb(a, b) if 0 <= b <= a else 0

    terms = []
    for k in range(n + 1):
        if family in ("fan", "square"):
            terms.append(Fraction(comb(n + 1, k + 1) * comb(n + 1, k), n + 1))
        elif family == "wheel":
            terms.append(comb(n, k) ** 2 - Fraction(2 * c(n, k + 1) * c(n, k - 1), n))
        else:  # whirl
            terms.append(comb(n, k) ** 2)
    return Poly(terms).integerized()


def convolution_inverse(s):
    """The inverse of a series whose constant coefficient is a nonzero
    rational, one convolution per coefficient: O(order^2) products."""
    assert s.coeffs[0].degree == 0
    c = s.coeffs[0].coeff(0)
    inv0 = c if c in (1, -1) else Fraction(1) / c
    out = [Poly([inv0])]
    for k in range(1, s.order + 1):
        acc = ZERO
        for i in range(1, k + 1):
            a = s.coeffs[i]
            if not a.is_zero():
                acc = acc + a * out[k - i]
        out.append(acc * -inv0)
    return TruncSeries(s.order, out)


def convolution_sqrt(s):
    """The principal square root of a series with constant coefficient 1,
    from r_k = (s_k − Σ_{0<i<k} r_i r_{k−i}) / 2: O(order^2) products."""
    assert s.coeffs[0] == ONE
    out = [ONE]
    for k in range(1, s.order + 1):
        acc = s.coeffs[k]
        for i in range(1, k):
            acc = acc - out[i] * out[k - i]
        out.append(acc / 2)
    return TruncSeries(s.order, out)


def gf_expand_over_q(which, order):
    """The six generating functions expanded in u itself, as printed, by
    convolution: every radical by convolution_sqrt and every quotient as a
    product with a convolution_inverse, which takes a Fraction inverse of
    each constant term 2."""
    assert which in GF_NAMES and 1 <= order <= MAX_ORDER
    n = order
    t = Poly([0, 1])

    def ser(*coeffs):
        return TruncSeries(n, coeffs[:n + 1])

    one, u = ser(1), ser(0, 1)
    if which.startswith("kl"):
        rad = convolution_sqrt(ser(1, -2, Poly([1, -4])))
        if which == "kl_fan":
            result = one + ser(0, 2) * convolution_inverse(one - u + rad)
        elif which == "kl_wheel":
            u_plus_1 = ser(1, 1)
            term1 = ser(-2, 2) * convolution_inverse(rad - u + one)
            term2 = ser(-2, 2, 2) * convolution_inverse(u_plus_1 * (rad + u + one))
            term3 = ser(0, 2) * convolution_inverse(u_plus_1 * rad)
            result = term1 - term2 + term3
        else:  # kl_whirl
            tu_plus_1 = ser(1, t)
            result = ser(1, 1) * convolution_inverse(ser(2) * tu_plus_1 * rad) - convolution_inverse(
                ser(2) * tu_plus_1)
    else:
        rad = convolution_sqrt(ser(1, Poly([-2, -2]), Poly([1, -2, 1])))
        if which == "z_fan":
            result = ser(2) * convolution_inverse(rad - ser(0, Poly([1, 1])) + one)
        elif which == "z_wheel":
            numer = ser(0, 2) * ser(1, Poly([-1, -1])) * ser(Poly([1, 1]), t)
            denom = ser(1, Poly([-1, -1]), Poly([0, -2])) + rad
            result = convolution_inverse(rad) - one - numer * convolution_inverse(denom)
        else:  # z_whirl
            result = convolution_inverse(rad) - one
    return result.integerized()


# ---------------------------------------------------------------------------
# Poly-level steppers: the library runs series arithmetic, recurrence rows and
# the Lucas recurrence on int lists and builds one Poly per result; these are
# the Poly-object versions they replaced, kept as differential oracles


def _nonzero_coeffs(s):
    return [(i, c) for i, c in enumerate(s.coeffs) if c]


def series_mul_by_poly(s, other):
    """s * other with one Poly product per pair of nonzero coefficients, the
    sparser factor outside; other a series or a scalar int, Fraction or Poly."""
    if isinstance(other, (int, Fraction, Poly)):
        p = other if isinstance(other, Poly) else Poly([other])
        return TruncSeries(s.order, [c * p for c in s.coeffs])
    assert s.order == other.order
    n = s.order
    a, b = _nonzero_coeffs(s), _nonzero_coeffs(other)
    if len(a) > len(b):
        a, b = b, a
    out = [ZERO] * (n + 1)
    for i, x in a:
        for j, y in b:
            if i + j > n:
                break
            out[i + j] = out[i + j] + x * y
    return TruncSeries(n, out)


def series_div_by_poly(s, d):
    """s / d for a scalar d, or for a series d whose constant coefficient d0
    divides each step: q_k = divexact(s_k − Σ_{i≥1} d_i q_{k−i}, d0)."""
    if not isinstance(d, TruncSeries):
        return TruncSeries(s.order, [c / d for c in s.coeffs])
    assert s.order == d.order
    d0 = d.coeffs[0]
    if not d0:
        raise ValueError("series division needs a nonzero constant coefficient")
    tail = _nonzero_coeffs(d)[1:]
    out = []
    for k, acc in enumerate(s.coeffs):
        for i, c in tail:
            if i > k:
                break
            acc = acc - c * out[k - i]
        out.append(divexact(acc, d0))
    return TruncSeries(s.order, out)


def series_sqrt_by_poly(s):
    """√s for a constant coefficient 1, by 2·s·r′ = s′·r:
    r_k = Σ_{i≥1} (3i − 2k)·s_i·r_{k−i} / (2k)."""
    if s.coeffs[0] != ONE:
        raise ValueError("series sqrt needs constant coefficient 1")
    tail = _nonzero_coeffs(s)[1:]
    out = [ONE]
    for k in range(1, s.order + 1):
        acc = ZERO
        for i, p in tail:
            if i > k:
                break
            acc = acc + p * (3 * i - 2 * k) * out[k - i]
        out.append(acc / (2 * k))
    return TruncSeries(s.order, out)


def lucas_sequence_by_poly(x0, x1, k):
    """x_k of x_{j+1} = t·x_j + x_{j−1} for Poly seeds x_0 and x_1."""
    for _ in range(k):
        x0, x1 = x1, Poly([0, 1]) * x1 + x0
    return x0
