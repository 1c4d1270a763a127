"""Matroids as exact rank oracles over bitset subsets, and their lattices of flats.

A matroid is stored as a full rank table over the 2^m subsets of its ground
set (guarded to m <= 16), which is built and scanned for flats by sweeps over
one int whose byte lane X stands for subset X.  Graphic matroids and whirls
are the two constructors.  lattice_of keeps the order of the flats as
subset tables: for each chunk of up to five elements, the bitset of flat
indices that hold all, and that hold any, of each subset of the chunk.  The
flats containing a flat, and the flats it contains, take one lookup per
chunk, built when asked for, so no comparable pair is ever listed.  One walk
up the flats gives the Moebius function from one popcount per flat and value
of mu in the ranks below.  The characteristic polynomial of the whole matroid
needs no lattice: Whitney's expansion is read off byte counts of one string
over the rank table.
"""

from __future__ import annotations

from collections import namedtuple

from .poly import Poly
from . import graphs as _graphs

MAX_GROUND = 16
# lattice_of refuses more flats than this.  The KL/Z pass and the Moebius walk
# take, for each flat, one popcount over a bitset of all the flats per class,
# so their time grows about 3x when the flats double; a forest's lattice is
# boolean, and the 14-edge path, with 2^14 flats, takes 0.3-0.5 s.  The
# brute route's families stay below it (whirl 10 has 15 126 flats)
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
        # a private copy, every value in 0..m: one C-level delete of the
        # allowed bytes; flats() checks that each step is 0 or 1
        try:
            table = bytes(table)
            bad = table.translate(None, bytes(range(m + 1)))
        except ValueError:  # a value outside 0..255
            bad = True
        if bad:
            x = next(x for x, v in enumerate(table) if not 0 <= v <= m)
            raise ValueError(f"subset {x:#b} has rank {table[x]}, outside 0..{m}")
        if table[0] != 0:
            raise ValueError("rank of empty set must be 0")
        for e in range(m):
            if table[1 << e] != 1:
                raise ValueError(f"element {e} is a loop; loopless matroids only")
        self.m = m
        self.table = table
        self.full_rank = table[-1]

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


# elements per chunk of the subset tables: a chunk of k elements has 2^k
# entries per table, and containing and below take one lookup per chunk,
# the chunk's subset picked by x & 31
CHUNK = 5


class FlatLattice(namedtuple("FlatLattice", "flats all_of any_of")):
    """The lattice of flats, its order given by subset tables.

    flats is the matroid's flats(): index 0 is the bottom, the last index
    the top, and indices are sorted by rank.  The elements are cut into
    chunks of CHUNK, from element 0 up, and all_of[c][s] (any_of[c][s]) is
    the bitset of the indices of the flats that contain every (any) element
    of the subset s of chunk c, s read as a bitmask from the chunk's first
    element.  No comparable pair is stored: containing and below build the
    flats above and below a flat from one entry per chunk when asked for.
    """

    __slots__ = ()

    def containing(self, j):
        """Bitset of the flats that contain flat j, j included: the flats
        that hold every element of flat j."""
        x, bits = self.flats[j].elements, -1
        for table in self.all_of:
            bits &= table[x & 31]
            x >>= CHUNK
        return bits

    def below(self, j):
        """Bitset of the flats that flat j contains, j included: the flats
        that hold none of the elements flat j lacks (the top holds all)."""
        x, union = self.flats[-1].elements ^ self.flats[j].elements, 0
        for table in self.any_of:
            union |= table[x & 31]
            x >>= CHUNK
        return self.all_of[0][0] ^ union

    def mobius(self):
        """mu(bottom, F) of every flat F, from the bottom up: minus the sum of
        mu(bottom, G) over the flats G below F.  The flats done so far are
        kept in one bitset per value of mu, so that sum takes one popcount
        per value; flats of one rank are incomparable, so each rank reads
        the values of the ranks below it, all complete."""
        mus, with_mu, rank, lower = [1], {1: 1}, 0, ()
        for j in range(1, len(self.flats)):
            if self.flats[j].rank != rank:
                rank, lower = self.flats[j].rank, list(with_mu.items())
            below = self.below(j)
            mu = -sum([v * (below & bits).bit_count() for v, bits in lower])
            mus.append(mu)
            with_mu[mu] = with_mu.get(mu, 0) | 1 << j
        return mus


# byte 0 or 1 to the digit that int(..., 2) reads
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def lattice_of(matroid):
    """The lattice of flats of a rank-oracle matroid, refused above
    MAX_FLATS flats before any bitset is built.

    The bitset of the flats that hold element e comes from one transpose:
    flat i's mask is 4-byte lane i of one int, bit e of each lane is moved
    to the lane's lowest bit, and the lanes' lowest bytes, read from the
    last flat down, are the binary digits of the bitset.  Each chunk's
    tables double once per element, from the empty subset."""
    flats = matroid.flats()
    n = len(flats)
    if n > MAX_FLATS:
        raise ValueError(f"{n} flats; lattice_of builds at most {MAX_FLATS}")
    lanes = int.from_bytes(b"".join([f.elements.to_bytes(4, "little") for f in flats]), "little")
    ones = int.from_bytes(b"\x01\x00\x00\x00" * n, "little")
    everything, all_of, any_of = (1 << n) - 1, [], []
    for lo in range(0, matroid.m or 1, CHUNK):
        every, some = [everything], [0]
        for e in range(lo, min(lo + CHUNK, matroid.m)):
            digits = ((lanes >> e) & ones).to_bytes(4 * n, "big")[3::4].translate(_DIGITS)
            holding = int(digits, 2)
            every += [bits & holding for bits in every]
            some += [bits | holding for bits in some]
        all_of.append(every)
        any_of.append(some)
    return FlatLattice(flats, all_of, any_of)


# swaps the bytes 0 and 1: one Thue-Morse doubling step
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def characteristic_polynomial(m):
    """Whitney's expansion chi_M(t) = sum over subsets S of the ground set of
    (-1)^|S| * t^(rk M - rk S).  Byte S of one key string is
    2 rk S + (|S| mod 2), so the coefficient at rank k is the count of the
    byte 2k less the count of 2k + 1.  The parities are the Thue-Morse
    string, doubled once per element."""
    parity = b"\x00"
    for _ in range(m.m):
        parity += parity.translate(_FLIP)
    key = int.from_bytes(m.table, "little") << 1 | int.from_bytes(parity, "little")
    key = key.to_bytes(len(parity), "little")
    r = m.full_rank
    return Poly([key.count(2 * k) - key.count(2 * k + 1) for k in range(r, -1, -1)])
