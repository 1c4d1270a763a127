"""Matroids as exact rank oracles over bitset subsets, and their lattices of flats.

A matroid is stored as a full rank table over the 2^m subsets of its ground
set (guarded to m <= 16), which is built and scanned for flats by sweeps over
one int whose byte lane X stands for subset X.  Graphic matroids and whirls
are the two constructors.  lattice_of orders the flats by intersecting
per-element bitsets of flat indices, and one walk up that order gives the
Moebius function and the characteristic polynomial of every lower interval.
The characteristic polynomial of the whole matroid needs no lattice:
Whitney's expansion reads it off one sweep over the rank table.
"""

from __future__ import annotations

from array import array
from collections import namedtuple

from .poly import Poly
from . import graphs as _graphs

MAX_GROUND = 16
# lattice_of refuses more flats than this: a forest's lattice is boolean, and
# building its order grows about 2.5x per edge; the brute route's families
# stay below it (whirl 10 has 15 126 flats)
MAX_FLATS = 1 << 14


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
        # O(m) checks; the tests check every rank axiom on the brute routes'
        # tables and random graphs, and flats() that each step is 0 or 1
        if table[0] != 0:
            raise ValueError("rank of empty set must be 0")
        for e in range(m):
            if table[1 << e] != 1:
                raise ValueError(f"element {e} is a loop; loopless matroids only")

    def flats(self):
        """Every closed set exactly once, sorted by (rank, bitmask).

        Over the lanes X that lack element e, lane X of d is t(X+e) - t(X):
        0 or 1 in a matroid, so no borrow crosses a lane.  Any other step but
        -255 leaves a bit of 0xfe in the lowest lane it reaches, since & reads
        a negative d in two's complement.  X is closed when d is 1 in lane X
        for every element e that X lacks."""
        size = 1 << self.m
        t = int.from_bytes(self.table, "little")
        closed = int.from_bytes(b"\x01" * size, "little")
        not_low = closed * 0xFE
        for e in range(self.m):
            keep = int.from_bytes((b"\xff" * (1 << e) + bytes(1 << e)) * (size >> e + 1), "little")
            d = ((t >> (8 << e)) & keep) - (t & keep)
            if d & not_low:
                raise ValueError(f"adding element {e} changes a rank by other than 0 or 1")
            closed &= d | ~keep
        lanes, found = closed.to_bytes(size, "little"), []
        x = lanes.find(1)
        while x >= 0:
            found.append(Flat(x, self.table[x]))
            x = lanes.find(1, x + 1)
        found.sort(key=lambda f: f.rank)  # stable, so masks stay ascending
        return tuple(found)

    def __repr__(self):
        return f"RankOracleMatroid(m={self.m}, rank={self.full_rank})"


def _graphic_rank_table(edge_list):
    """Rank of every edge subset: lane X of the int rank holds rk X, and the
    lanes double at each edge.  Lane X of conn[u, v] is 1 when X joins u and
    v; it is kept while u and v both have an edge still to come.  Edge
    k = (a, b) adds the sets X+k: rk X + 1 where X does not join a and b,
    and X+k joins u and v where X joins them, or joins u to one end of k and
    v to the other."""
    last = {v: k for k, edge in enumerate(edge_list) for v in edge}  # each vertex's last edge
    rank, ones, width = 0, 1, 8  # width: bits of the lanes filled so far
    conn = {(v, v): 1 for v in last}
    for k, (a, b) in enumerate(edge_list):
        get, conn = conn.get, {}
        rank |= (rank + (ones ^ get((a, b), 0))) << width
        ones |= ones << width
        live = [v for v in last if last[v] > k]
        for i, u in enumerate(live):
            ua, ub = get((u, a), 0), get((u, b), 0)
            conn[u, u] = ones
            for v in live[i + 1:]:
                c = get((u, v), 0)
                conn[u, v] = conn[v, u] = c | (c | ua & get((b, v), 0)
                                               | ub & get((a, v), 0)) << width
        width <<= 1
    return rank.to_bytes(width >> 3, "little")


def graphic_matroid(g):
    """Cycle matroid of a simple graph: elements are edges, rank counts a
    spanning forest."""
    if len(g.edges) > MAX_GROUND:
        raise ValueError(f"graphs above {MAX_GROUND} edges unsupported")
    return RankOracleMatroid(len(g.edges), _graphic_rank_table(g.edges))


def outer_cycle_mask(n):
    """Bitmask of the rim edges of the wheel on hub 0 and rim 1..n, under the
    edge ordering of graphic_matroid(wheel)."""
    edges = _graphs.make_family("wheel", n).edges
    return sum(1 << i for i, (u, _) in enumerate(edges) if u != 0)


def whirl_matroid(n):
    """Relaxation of the wheel's cycle matroid: the outer cycle is declared
    independent, every other rank value is untouched."""
    if not 3 <= n <= MAX_GROUND // 2:  # the wheel has 2n edges
        raise ValueError(f"whirl needs 3 <= n <= {MAX_GROUND // 2}")
    g = _graphs.make_family("wheel", n)
    table = bytearray(_graphic_rank_table(g.edges))
    table[outer_cycle_mask(n)] = n
    return RankOracleMatroid(len(g.edges), table)


# ---------------------------------------------------------------------------
# the lattice of flats


class FlatLattice:
    """A graded lattice given by its ranks and its strict order as index arrays.

    Index 0 is the bottom (rank 0), the last index the unique top, and indices
    are sorted by rank, so flat j < flat i implies j < i.  above[j] lists,
    ascending, the i with flat j < flat i (strict: never j itself).
    lattice_of stores each above[j] as an array('H'), which holds every index
    since lattice_of refuses more than MAX_FLATS = 2^14 flats.
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
            mu_j = chi_j[0] = -sum(chi_j) if j else 1
            for i in ups:
                coeffs[i][ranks[i] - ranks[j]] += mu_j
            yield Poly(chi_j)


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
    if len(flats) > MAX_FLATS:
        raise ValueError(f"{len(flats)} flats; lattice_of builds at most {MAX_FLATS}")
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
