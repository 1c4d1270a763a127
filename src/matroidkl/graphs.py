"""Simple labeled graphs: the family constructors and the chromatic
polynomial.

Vertices are 0..n-1.  Graphs are immutable.  Vertex sets are handled as
bitmasks internally.
"""

from __future__ import annotations

from .poly import ONE, Poly, _nonnegative_int

FAMILIES = ("path", "cycle", "fan", "wheel", "square_of_path")

# largest graph chromatic_polynomial accepts: on the edgeless graph, its worst
# case, the sweep takes 0.6-0.75 s at 13 vertices and 2.4 s at 14 (Python
# 3.11, 2-vCPU Xeon)
MAX_VERTICES = 13


class SimpleGraph:
    """Undirected simple graph: no loops, no parallel edges."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges=()):
        _nonnegative_int(n, "vertex count")
        seen = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"edge ({u!r},{v!r}) needs int endpoints")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            seen.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(seen))

    def adjacency(self):
        """Neighbor bitmask per vertex."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={list(self.edges)})"


def make_family(family, n):
    """Build a named family member: path/cycle on n vertices, fan/wheel with
    hub 0 and rim 1..n, or the square of the (n+1)-vertex path."""
    if type(n) is not int:
        raise TypeError(f"{family} needs an int n, got {type(n).__name__}")
    if family == "path":
        if n < 1:
            raise ValueError("path needs n >= 1")
        return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "fan":
        if n < 1:
            raise ValueError("fan needs n >= 1")
        edges = [(0, i) for i in range(1, n + 1)]
        edges += [(i, i + 1) for i in range(1, n)]
        return SimpleGraph(n + 1, edges)
    if family == "wheel":
        if n < 3:
            raise ValueError("wheel needs n >= 3")
        edges = [(0, i) for i in range(1, n + 1)]
        edges += [(i, i % n + 1) for i in range(1, n + 1)]
        return SimpleGraph(n + 1, edges)
    if family == "square_of_path":
        if n < 1:
            raise ValueError("square_of_path needs n >= 1")
        edges = [(i, i + 1) for i in range(n)]
        edges += [(i, i + 2) for i in range(n - 1)]
        return SimpleGraph(n + 1, edges)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def chromatic_polynomial(g):
    """Exact chromatic polynomial of g by Birkhoff's expansion: the sum over k
    of a_k t(t-1)...(t-k+1), where a_k counts the partitions of V(g) into k
    independent sets, the color classes of the colorings that use exactly k
    colors.

    One sweep over the vertex subsets S, in increasing order, fills
    parts[S][k], the number of partitions of S into k independent sets: the
    block that holds the lowest vertex v of S is v plus an independent subset
    of the other vertices of S that avoids v's neighbours.  The sweep takes
    O(3^n) steps and 2^n lists, so graphs above MAX_VERTICES vertices are
    refused before anything is allocated.
    """
    n = g.n
    if n > MAX_VERTICES:
        raise ValueError(f"chromatic polynomial limited to {MAX_VERTICES} vertices, got {n}")
    adj = g.adjacency()
    size = 1 << n
    independent = bytearray(size)
    independent[0] = 1
    parts = [[1]] * size
    for s in range(1, size):
        low = s & -s
        others = s ^ low
        v = low.bit_length() - 1
        independent[s] = independent[others] and not adj[v] & others
        counts = [0] * (s.bit_count() + 1)
        avail = others & ~adj[v]
        b = avail
        while True:
            if independent[b]:
                for k, c in enumerate(parts[others ^ b], 1):
                    counts[k] += c
            if not b:
                break
            b = (b - 1) & avail
        parts[s] = counts
    result = Poly()
    falling = ONE
    for k, a in enumerate(parts[size - 1]):
        result = result + falling * a
        falling = falling * Poly([-k, 1])
    return result
