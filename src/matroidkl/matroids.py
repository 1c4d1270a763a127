"""Matroids as exact rank oracles over bitset subsets, and their lattices of flats.

A matroid is stored as a full rank table over the 2^m subsets of its ground
set (guarded to m <= 16), which makes flats cheap exact lookups.  Graphic
matroids and whirls are the two constructors.  lattice_of orders the flats
by intersecting per-element bitsets of flat indices, and one walk up that
order gives the Moebius function and the characteristic polynomial of every
lower interval.  The characteristic polynomial of the whole matroid needs no
lattice: Whitney's expansion reads it off one sweep over the rank table.
"""

from __future__ import annotations

from array import array
from collections import namedtuple

from .poly import Poly
from . import graphs as _graphs

MAX_GROUND = 16


# a closed set, as a bitmask over ground-set indices, with its rank
Flat = namedtuple("Flat", "elements rank")


class RankOracleMatroid:
    """Ground set 0..m-1 plus an exact rank function tabulated over subsets."""

    __slots__ = ("m", "table", "full_rank")

    def __init__(self, m, table):
        if m > MAX_GROUND:
            raise ValueError(f"ground sets above {MAX_GROUND} elements unsupported")
        if len(table) != 1 << m:
            raise ValueError("rank table size mismatch")
        self.m = m
        self.table = table
        self.full_rank = table[(1 << m) - 1]
        self._check_empty_set_and_loops()

    def _check_empty_set_and_loops(self):
        """The O(m) checks: the empty set has rank 0 and no element is a
        loop.  The tests check the rank axioms exactly on every table the
        constructors build for the brute routes, and on random graphs."""
        t = self.table
        if t[0] != 0:
            raise ValueError("rank of empty set must be 0")
        for e in range(self.m):
            if t[1 << e] != 1:
                raise ValueError(f"element {e} is a loop; loopless matroids only")

    def is_flat(self, subset):
        t = self.table
        r = t[subset]
        rest = ((1 << self.m) - 1) & ~subset
        while rest:
            bit = rest & -rest
            rest &= rest - 1
            if t[subset | bit] == r:
                return False
        return True

    def flats(self):
        """Every closed set exactly once, sorted by (rank, bitmask)."""
        t = self.table
        found = [Flat(x, t[x]) for x in range(1 << self.m) if self.is_flat(x)]
        found.sort(key=lambda f: (f.rank, f.elements))
        return tuple(found)

    def __repr__(self):
        return f"RankOracleMatroid(m={self.m}, rank={self.full_rank})"


def _graphic_rank_table(n_vertices, edge_list):
    """Rank of every edge subset by one include/exclude recursion over the
    edges, reaching each subset once, from its highest edge.  The recursion
    carries the component label of every vertex under the current subset:
    an edge inside a component keeps the rank, an edge between two
    components relabels one of them and adds 1."""
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


def graphic_matroid(g):
    """Cycle matroid of a simple graph: elements are edges, rank counts a
    spanning forest."""
    edge_list = list(g.edges)
    if len(edge_list) > MAX_GROUND:
        raise ValueError(f"graphs above {MAX_GROUND} edges unsupported")
    table = _graphic_rank_table(g.n, edge_list)
    return RankOracleMatroid(len(edge_list), table)


def outer_cycle_mask(n):
    """Bitmask of the rim edges of the wheel on hub 0 and rim 1..n, under the
    edge ordering of graphic_matroid(wheel)."""
    g = _graphs.make_family("wheel", n)
    mask = 0
    for i, (u, v) in enumerate(g.edges):
        if u != 0:
            mask |= 1 << i
    return mask


def whirl_matroid(n):
    """Relaxation of the wheel's cycle matroid: the outer cycle is declared
    independent, every other rank value is untouched."""
    if not 3 <= n <= MAX_GROUND // 2:  # the wheel has 2n edges
        raise ValueError(f"whirl needs 3 <= n <= {MAX_GROUND // 2}")
    g = _graphs.make_family("wheel", n)
    edge_list = list(g.edges)
    table = bytearray(_graphic_rank_table(g.n, edge_list))
    table[outer_cycle_mask(n)] = n
    return RankOracleMatroid(len(edge_list), table)


# ---------------------------------------------------------------------------
# the lattice of flats


class FlatLattice:
    """A graded lattice given by its ranks and its strict order as index arrays.

    Index 0 is the bottom (rank 0), the last index the unique top, and indices
    are sorted by rank, so flat j < flat i implies j < i.  above[j] lists,
    ascending, the i with flat j < flat i (strict: never j itself).
    lattice_of stores each above[j] as an array('H'), which holds every index
    since a matroid on at most MAX_GROUND = 16 elements has at most 2^16 flats.
    """

    __slots__ = ("ranks", "above", "n", "top_rank")

    def __init__(self, ranks, above):
        self.ranks = tuple(ranks)
        self.above = tuple(above)
        self.n = len(self.ranks)
        self.top_rank = self.ranks[-1] if self.ranks else 0

    def chi_from_bottom(self):
        """Characteristic polynomial of every lower interval [bottom, F]:
        sum over flats G <= F of mu(bottom, G) * t^(rk F - rk G).

        One walk up the order: by the time flat j is reached, every flat G
        below it has pushed mu(bottom, G) into coefficient rk j - rk G of
        chi_j, so mu(bottom, j) is minus the sum of what chi_j holds."""
        ranks = self.ranks
        coeffs = [[0] * (r + 1) for r in ranks]
        for j, ups in enumerate(self.above):
            chi_j = coeffs[j]
            mu_j = chi_j[0] = -sum(chi_j) if j else 1
            for i in ups:
                coeffs[i][ranks[i] - ranks[j]] += mu_j
        return [Poly(c) for c in coeffs]


def lattice_of(matroid):
    """The lattice of flats of a rank-oracle matroid.

    holding[e] is the bitset of the indices of the flats that contain element
    e, so the AND of holding[e] over the elements e of flat j is the bitset
    of the flats containing flat j: flat j itself and, since a flat strictly
    containing another has higher rank, only indices above j.  above[j] is
    read off that bitset one comparable pair per step, from the top bit down
    so that each step works on a shorter int.
    """
    flats = matroid.flats()
    ground = range(matroid.m)
    holding = [0] * matroid.m
    for i, f in enumerate(flats):
        for e in ground:
            if f.elements >> e & 1:
                holding[e] |= 1 << i
    everything = (1 << len(flats)) - 1
    above = []
    for j, f in enumerate(flats):
        containing = everything
        for e in ground:
            if f.elements >> e & 1:
                containing &= holding[e]
        containing ^= 1 << j
        ups = []
        while containing:
            i = containing.bit_length() - 1
            ups.append(i)
            containing ^= 1 << i
        ups.reverse()
        above.append(array("H", ups))
    return FlatLattice([f.rank for f in flats], above)


def characteristic_polynomial(m):
    """Whitney's expansion chi_M(t) = sum over subsets S of the ground set of
    (-1)^|S| * t^(rk M - rk S), in one sweep over the rank table."""
    r = m.full_rank
    coeffs = [0] * (r + 1)
    for s, rank in enumerate(m.table):
        coeffs[r - rank] += -1 if s.bit_count() & 1 else 1
    return Poly(coeffs)
