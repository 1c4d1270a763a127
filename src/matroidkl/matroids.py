"""Matroids as exact rank oracles over bitset subsets.

A matroid is stored as a full rank table over the 2^m subsets of its ground
set (guarded to m <= 16), which makes flats, localizations and contractions
cheap exact lookups.  Graphic matroids and whirls are the two
primitive constructors; localization and contraction derive new oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .poly import Poly
from . import graphs as _graphs

MAX_GROUND = 16


@dataclass(frozen=True)
class Flat:
    """A closed set, as a bitmask over ground-set indices, with its rank."""

    elements: int
    rank: int

    def members(self):
        m, out = self.elements, []
        while m:
            out.append((m & -m).bit_length() - 1)
            m &= m - 1
        return tuple(out)


class RankOracleMatroid:
    """Ground set 0..m-1 plus an exact rank function tabulated over subsets."""

    __slots__ = ("m", "labels", "table", "full_rank", "_flats", "_kl_lattice")

    def __init__(self, m, table, labels=None, check=True):
        if m > MAX_GROUND:
            raise ValueError(f"ground sets above {MAX_GROUND} elements unsupported")
        if len(table) != 1 << m:
            raise ValueError("rank table size mismatch")
        self.m = m
        self.table = table
        self.labels = tuple(labels) if labels is not None else tuple(range(m))
        self.full_rank = table[(1 << m) - 1]
        self._flats = None
        self._kl_lattice = None  # cache used by the kl engine
        if check:
            self._spot_check_axioms()

    def _spot_check_axioms(self):
        t = self.table
        if t[0] != 0:
            raise ValueError("rank of empty set must be 0")
        if self.m == 0:
            return
        for e in range(self.m):
            if t[1 << e] != 1:
                raise ValueError(f"element {e} is a loop; loopless matroids only")
        rng = random.Random(0xA5A5 + self.m)
        full = (1 << self.m) - 1
        for _ in range(40):
            x = rng.randint(0, full)
            e = rng.randrange(self.m) if self.m else 0
            xe = x | (1 << e)
            if not t[x] <= t[xe] <= t[x] + 1:
                raise ValueError("rank unit-increment axiom violated")
            f = rng.randrange(self.m)
            xf = x | (1 << f)
            if t[xe] + t[xf] < t[xe | xf] + t[x]:
                raise ValueError("rank submodularity violated")

    def rank(self, subset):
        return self.table[subset]

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
        if self._flats is None:
            t = self.table
            found = []
            for x in range(1 << self.m):
                r = t[x]
                rest = ((1 << self.m) - 1) & ~x
                closed = True
                while rest:
                    bit = rest & -rest
                    rest &= rest - 1
                    if t[x | bit] == r:
                        closed = False
                        break
                if closed:
                    found.append(Flat(x, r))
            found.sort(key=lambda f: (f.rank, f.elements))
            self._flats = tuple(found)
        return self._flats

    def __repr__(self):
        return f"RankOracleMatroid(m={self.m}, rank={self.full_rank})"


def _graphic_rank_table(n_vertices, edge_list):
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


def graphic_matroid(g):
    """Cycle matroid of a simple graph: elements are edges, rank counts a
    spanning forest."""
    edge_list = list(g.edges)
    if len(edge_list) > MAX_GROUND:
        raise ValueError(f"graphs above {MAX_GROUND} edges unsupported")
    table = _graphic_rank_table(g.n, edge_list)
    return RankOracleMatroid(len(edge_list), table, labels=edge_list)


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
    if n < 3:
        raise ValueError("whirl needs n >= 3")
    g = _graphs.make_family("wheel", n)
    edge_list = list(g.edges)
    table = bytearray(_graphic_rank_table(g.n, edge_list))
    table[outer_cycle_mask(n)] = n
    return RankOracleMatroid(len(edge_list), table, labels=edge_list)


def localization(m, flat):
    """Restriction M_F to the elements of the flat F."""
    fmask = flat.elements if isinstance(flat, Flat) else flat
    if not m.is_flat(fmask):
        raise ValueError("localization requires a flat")
    elems = []
    x = fmask
    while x:
        elems.append((x & -x).bit_length() - 1)
        x &= x - 1
    k = len(elems)
    table = bytearray(1 << k)
    for sub in range(1 << k):
        embedded = 0
        s = sub
        while s:
            i = (s & -s).bit_length() - 1
            s &= s - 1
            embedded |= 1 << elems[i]
        table[sub] = m.table[embedded]
    return RankOracleMatroid(k, table, labels=[m.labels[e] for e in elems])


def contraction(m, flat):
    """Contraction M^F, simplified: parallel classes collapse to their
    smallest-index element (flats guarantee looplessness)."""
    fmask = flat.elements if isinstance(flat, Flat) else flat
    if not m.is_flat(fmask):
        raise ValueError("contraction requires a flat")
    rf = m.table[fmask]
    rest = []
    x = ((1 << m.m) - 1) & ~fmask
    while x:
        rest.append((x & -x).bit_length() - 1)
        x &= x - 1
    # parallel classes: e ~ f iff rank(F+e+f) - rank(F) == 1
    reps = []
    for e in rest:
        for r in reps:
            if m.table[fmask | (1 << e) | (1 << r)] - rf == 1:
                break
        else:
            reps.append(e)
    k = len(reps)
    table = bytearray(1 << k)
    for sub in range(1 << k):
        embedded = fmask
        s = sub
        while s:
            i = (s & -s).bit_length() - 1
            s &= s - 1
            embedded |= 1 << reps[i]
        table[sub] = m.table[embedded] - rf
    return RankOracleMatroid(k, table, labels=[m.labels[e] for e in reps])


def simplification(m):
    """Simple matroid with the same lattice of flats."""
    return contraction(m, 0)


def characteristic_polynomial(m):
    """Moebius-weighted rank generating polynomial over the lattice of flats."""
    flats = m.flats()
    n = len(flats)
    masks = [f.elements for f in flats]
    mu = [0] * n
    mu[0] = 1
    for i in range(1, n):
        mi = masks[i]
        acc = 0
        for j in range(i):
            if masks[j] & mi == masks[j]:
                acc += mu[j]
        mu[i] = -acc
    r = m.full_rank
    coeffs = [0] * (r + 1)
    for i, f in enumerate(flats):
        coeffs[r - f.rank] += mu[i]
    return Poly(coeffs)
