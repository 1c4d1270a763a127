"""Simple labeled graphs: the family constructors, compositions (partitions of
the vertices into connected blocks), the chromatic polynomial and biconnected
blocks.

Vertices are 0..n-1.  Graphs are immutable.  Vertex sets are handled as
bitmasks internally.
"""

from __future__ import annotations

from .poly import ONE, Poly

FAMILIES = ("path", "cycle", "fan", "wheel", "square_of_path")


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
    result = chromatic_polynomial(deleted) - chromatic_polynomial(merged)
    _chromatic_memo[key] = result
    return result


def chromatic_polynomial(g):
    """Exact chromatic polynomial of g."""
    if g.n == 0:
        return ONE
    result = ONE
    adj = g.adjacency()
    for comp in _components(g.n, adj):
        verts = [v for v in range(g.n) if comp >> v & 1]
        relabel = {v: i for i, v in enumerate(verts)}
        sub = tuple(
            sorted((relabel[u], relabel[v]) for u, v in g.edges if comp >> u & 1 and comp >> v & 1)
        )
        result = result * _chromatic_connected(len(verts), sub)
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
