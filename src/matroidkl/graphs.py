"""Simple labeled graphs: the family constructors, compositions (partitions of
the vertices into connected blocks), the chromatic polynomial and biconnected
blocks.

Vertices are 0..n-1.  Graphs are immutable.  Vertex sets are handled as
bitmasks internally.
"""

from __future__ import annotations

from .poly import ONE, Poly

FAMILIES = ("path", "cycle", "fan", "wheel", "square_of_path")

# largest graph chromatic_polynomial accepts: on the edgeless graph, its worst
# case, the sweep takes 0.6-0.75 s at 13 vertices and 2.4 s at 14 (Python
# 3.11, 2-vCPU Xeon)
MAX_VERTICES = 13


class SimpleGraph:
    """Undirected simple graph: no loops, no parallel edges."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for u, v in edges:
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
