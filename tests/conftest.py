"""Shared independent oracles: these deliberately avoid the library's own
algorithms so they can serve as cross-checks."""

from fractions import Fraction

import pytest

from matroidkl.graphs import SimpleGraph


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


@pytest.fixture
def frac():
    return Fraction


def hasse_covers(lat):
    """covers[i] lists the j of rank one more than i with i below j."""
    out = [[] for _ in range(lat.n)]
    for j in range(lat.n):
        for i in range(lat.n):
            if i != j and lat.below[j] >> i & 1 and lat.ranks[i] == lat.ranks[j] - 1:
                out[i].append(j)
    return out


def lattice_isomorphic(a, b, budget=2_000_000):
    """Exact isomorphism test between two graded lattices with ranks and
    below-relation bitsets.

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
    below_a, below_b = a.below, b.below
    assigned = []
    used = [False] * n
    steps = 0

    def consistent(i, j):
        for i2, j2 in assigned:
            if (below_a[i] >> i2 & 1) != (below_b[j] >> j2 & 1):
                return False
            if (below_a[i2] >> i & 1) != (below_b[j2] >> j & 1):
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
