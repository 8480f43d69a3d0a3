"""Canonical forms for small graphs.

Iterated degree refinement (each round recolors a vertex by its current color
plus the multiset of neighbor colors) narrows the vertex partition; when cells
remain, one vertex of the first non-singleton cell is individualized and the
refinement repeats, branching over every choice. The canonical key is the
minimum upper-triangle adjacency code over all refinement-discrete orderings,
which is a complete isomorphism invariant. Each form lists every vertex's
neighbors once and every refinement round reads those lists. Intended for
the sizes this package enumerates (up to a dozen or so vertices), not for
large graphs; the n <= 7 atlas ships as data, so enumerating it computes no
form.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import Graph, _bits


def _refine(nbrs, colors):
    """Refine the coloring until stable; nbrs[v] lists v's neighbors. Colors
    are small ints; the new color of v is the rank of (colors[v], sorted
    neighbor colors), so the refined partition is always a sub-partition of
    the old one."""
    n = len(nbrs)
    ncolors = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[u] for u in nbrs[v]])))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        nnew = len(rank)
        if nnew == ncolors:
            return new
        colors, ncolors = new, nnew


def _code(rows, order):
    """Upper-triangle adjacency bits of the graph relabeled by order, packed
    into one int, row by row."""
    n = len(order)
    code = 0
    for i in range(n):
        ri = rows[order[i]]
        for j in range(i + 1, n):
            code = code << 1 | (ri >> order[j] & 1)
    return code


def _interchangeable(rows, cell):
    """True when every pair in the cell is swapped by a transposition
    automorphism: all members are mutual twins of the same kind (identical
    open neighborhoods, or identical closed neighborhoods). Individualizing
    any member then leads to the same canonical code, so one branch covers
    the whole cell. This keeps cliques, independent sets, and join factors
    from costing a factorial number of branches."""
    a = cell[0]
    ra = rows[a]
    kind = None
    for v in cell[1:]:
        adj = bool(ra >> v & 1)
        if kind is None:
            kind = adj
        elif adj is not kind:
            return False
        if rows[v] & ~(1 << a) != ra & ~(1 << v):
            return False
    return True


def _least_code(rows, nbrs, colors):
    n = len(rows)
    colors = _refine(nbrs, colors)
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    target = None
    for c in sorted(cells):
        if len(cells[c]) > 1:
            target = cells[c]
            break
    if target is None:
        order = sorted(range(n), key=lambda v: colors[v])
        return _code(rows, order)
    branch = target[:1] if _interchangeable(rows, target) else target
    best = None
    for v in branch:
        branched = [2 * c + 1 for c in colors]
        branched[v] -= 1
        sub = _least_code(rows, nbrs, branched)
        if best is None or sub < best:
            best = sub
    return best


def _key(rows) -> tuple[int, int]:
    """canonical_key of the graph with these adjacency rows."""
    n = len(rows)
    if n == 0:
        return (0, 0)
    return (n, _least_code(rows, [tuple(_bits(r)) for r in rows], [0] * n))


@lru_cache(maxsize=1 << 16)
def canonical_key(g: Graph) -> tuple[int, int]:
    """A value equal for two graphs iff they are isomorphic."""
    return _key(g.rows)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_key(g1) == canonical_key(g2)
