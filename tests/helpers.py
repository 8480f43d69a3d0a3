"""Shared test utilities: the generator of the packaged n <= 7 atlas and
the automorphism lister it prunes with, two minor oracles independent of the
backtracker (brute force over set partitions, and a minor-closure table over
the atlas, built with the edge deletion and contraction moves below), the
backtracker's candidate generator in its recursive form, a girth
computation, a per-edge reference for Graph.relabel, a whole-bit reference
for the edge arrays the spectral solve reads, random-graph builders,
the proof steps of the extremal arguments that the package itself never
calls (Rayleigh-quotient edge perturbations, clique completion, the mu join
and K_{m,m} facts, the star-free edge bound, the apex-clique split), and the
two edge-count inequality probes that `sml report-problems` is checked
against."""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, permutations

import numpy as np

from spectralminors import (
    FamilySpec,
    Graph,
    MuClass,
    canonical_key,
    classify_mu,
    complete_bipartite,
    delete_vertex,
    enumerate_graphs,
    family_filter,
    has_minor,
    is_bipartite,
    is_linkless,
)
from spectralminors.canon import _key, _refine
from spectralminors.cdv import mu_at_most
from spectralminors.graph import _bits, _packed, _unpack


def automorphisms(rows) -> list[tuple[int, ...]]:
    """Every automorphism of the graph with these adjacency rows, as tuples p
    with p[v] the image of v, the identity first. Refinement from the uniform
    coloring commutes with relabeling, so every automorphism maps each
    refined cell onto itself. Vertex v may only go to a vertex of its refined
    cell that no earlier vertex took and whose adjacency to the earlier
    images matches v's to the earlier vertices."""
    n = len(rows)
    colors = _refine([tuple(_bits(r)) for r in rows], [0] * n)
    cell = [sum(1 << u for u in range(n) if colors[u] == c) for c in colors]
    image = [0] * n
    found = []

    def extend(v, used):
        if v == n:
            found.append(tuple(image))
            return
        want = 0
        for w in _bits(rows[v] & ((1 << v) - 1)):
            want |= 1 << image[w]
        for u in _bits(cell[v] & ~used):
            if rows[u] & used == want:
                image[v] = u
                extend(v + 1, used | 1 << u)

    extend(0, 0)
    return found


@cache
def reference_atlas(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class on exactly n vertices, built
    by adding a vertex with every possible neighborhood mask to every class
    on n - 1 vertices; the first child found in a class represents it. This
    generated the packaged atlas.g6 (n <= 7, one graph6 line per graph, by
    order).

    A mask that an automorphism of the parent maps to a smaller mask is
    skipped: its child is isomorphic to an earlier child of the same parent
    (the pruning half of McKay's isomorph-free generation, J. Algorithms
    1998). Following such maps down from any mask ends at a mask no listed
    automorphism lowers, so the pruning stays exact with any subset of
    Aut(parent), and the full group prunes the most. The first child of each
    class is never skipped, so the representatives and their order are those
    of the unpruned build."""
    if n == 0:
        return (Graph.empty(0),)
    reps: dict[tuple[int, int], Graph] = {}
    top = 1 << (n - 1)
    for g in reference_atlas(n - 1):
        auts = automorphisms(g.rows)[1:]
        base = list(g.rows) + [0]
        for mask in range(top):
            if any(sum(1 << p[v] for v in _bits(mask)) < mask for p in auts):
                continue
            rows = list(base)
            rows[n - 1] = mask
            for v in _bits(mask):
                rows[v] |= top
            key = _key(rows)
            if key not in reps:
                reps[key] = Graph(n, tuple(rows))
    return tuple(reps.values())


def set_partitions_exact(items: list, k: int):
    """All partitions of items into exactly k nonempty blocks."""
    n = len(items)
    if k < 1 or k > n:
        return

    def rec(i, blocks):
        if i == n:
            if len(blocks) == k:
                yield [list(b) for b in blocks]
            return
        # not enough items left to open the missing blocks
        if len(blocks) + (n - i) < k:
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([x])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def _connected_subset(g: Graph, block) -> bool:
    block = set(block)
    seen = {next(iter(block))}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u in block and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == block


def _blocks_adjacent(g: Graph, b1, b2) -> bool:
    return any(g.has_edge(u, v) for u in b1 for v in b2)


def oracle_has_minor(h: Graph, g: Graph) -> bool:
    """Brute force: try every subset of V(G), every partition of it into
    n(H) blocks, every assignment of blocks to H-vertices. Only sensible for
    n(H) <= 4, n(G) <= 6."""
    k = h.n
    if k == 0:
        return True
    if k > g.n:
        return False
    hedges = list(h.edges())
    for size in range(k, g.n + 1):
        for subset in combinations(range(g.n), size):
            for part in set_partitions_exact(list(subset), k):
                if not all(_connected_subset(g, b) for b in part):
                    continue
                for perm in permutations(range(k)):
                    if all(_blocks_adjacent(g, part[perm[a]], part[perm[b]])
                           for a, b in hedges):
                        return True
    return False


def reference_candidates(g_rows, free: int, cap: int, reqs):
    """The recursive form of minors._candidates, the reference for its
    order: connected subsets of free with at most cap vertices meeting every
    mask in reqs, each subset generated exactly once (by least vertex, with
    in-branch exclusion)."""
    def grow(s, ext, banned):
        if all(s & r for r in reqs):
            yield s
        if s.bit_count() >= cap:
            return
        potential = s | (free & ~banned)
        for r in reqs:
            if not r & potential:
                return
        while ext:
            vb = ext & -ext
            ext ^= vb
            ns = s | vb
            yield from grow(
                ns,
                (ext | (g_rows[vb.bit_length() - 1] & free)) & ~ns & ~banned,
                banned,
            )
            banned |= vb

    banned = 0
    for rt in _bits(free):
        rb = 1 << rt
        yield from grow(rb, g_rows[rt] & free & ~banned & ~rb, banned)
        banned |= rb


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def contract_edge(g: Graph, u: int, v: int) -> Graph:
    """Contract edge uv: the merged vertex keeps label min(u, v), parallel
    edges collapse, the loop is dropped, labels above max(u, v) shift down."""
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    lo, hi = min(u, v), max(u, v)
    merged = (g.rows[lo] | g.rows[hi]) & ~(1 << lo) & ~(1 << hi)
    rows = []
    for w in range(g.n):
        if w == lo:
            rows.append(merged)
        elif w == hi:
            rows.append(0)
        else:
            r = g.rows[w] & ~(1 << hi)
            if merged >> w & 1:
                r |= 1 << lo
            rows.append(r)
    return delete_vertex(Graph(g.n, tuple(rows)), hi)


# The minor-closure table covers the atlas up to this order.
TABLE_ORDER = 7


@cache
def _minor_closure() -> dict:
    """canonical_key -> (class index, bitset over the class indices of its
    minors) for every atlas class up to TABLE_ORDER vertices. The minors of G are G itself plus the
    minors of every G - v, G - e and G / e, each of smaller (order, size), so
    classes processed in that order find their one-step minors done."""
    classes = sorted((g for n in range(TABLE_ORDER + 1) for g in enumerate_graphs(n)),
                     key=lambda g: (g.n, g.edge_count))
    table = {}
    for i, g in enumerate(classes):
        minors = 1 << i
        steps = [delete_vertex(g, v) for v in range(g.n)]
        for u, v in g.edges():
            steps += [delete_edge(g, u, v), contract_edge(g, u, v)]
        for m in steps:
            minors |= table[canonical_key(m)][1]
        table[canonical_key(g)] = (i, minors)
    return table


def table_has_minor(h: Graph, g: Graph) -> bool:
    """Whether H is a minor of G (at most TABLE_ORDER vertices), read from
    the minor-closure table. An H on more vertices is never one."""
    if h.n > TABLE_ORDER:
        return False
    table = _minor_closure()
    return bool(table[canonical_key(g)][1] >> table[canonical_key(h)][0] & 1)


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, None for forests. BFS from every vertex;
    a cross or back edge at depths d1, d2 closes a cycle of length
    d1 + d2 + 1."""
    best = None
    for root in range(g.n):
        depth = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for u in g.neighbors(v):
                    if u not in depth:
                        depth[u] = depth[v] + 1
                        parent[u] = v
                        nxt.append(u)
                    elif u != parent[v]:
                        # closed walk through the root; never shorter than
                        # the girth, and tight from a root on a shortest cycle
                        cyc = depth[u] + depth[v] + 1
                        if best is None or cyc < best:
                            best = cyc
            frontier = nxt
    return best


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_max_degree_graph(rng: random.Random, n: int, dmax: int) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if deg[u] < dmax and deg[v] < dmax and rng.random() < 0.7:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


def random_sparse_graph(rng: random.Random, n: int, m: int) -> Graph:
    """About m random edges on n vertices, drawn pair by pair, so that large
    orders cost O(m) rather than O(n^2)."""
    edges = (rng.sample(range(n), 2) for _ in range(m)) if n >= 2 else ()
    return Graph.from_edges(n, edges)


def relabel_by_edges(g: Graph, perm) -> Graph:
    """Reference for Graph.relabel: the image of each edge, one at a time."""
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


def reference_edge_arrays(rows, n: int):
    """Reference for graph._edge_arrays: every row unpacked to all n of its
    bits, and the set ones read off row-major as (src, dst) index arrays."""
    return np.divmod(np.flatnonzero(_unpack(_packed(rows, n), n)), n)


def relabeled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


# ---------------------------------------------------------------------------
# Proof steps of the extremal arguments, checked by the tests only


def rayleigh_delta(g: Graph, x, edges_removed, edges_added) -> float:
    """Change of the Rayleigh quotient x'Ax / x'x when the listed edges are
    removed and added, the vector x held fixed."""
    x = [float(v) for v in x]
    if len(x) != g.n:
        raise ValueError(f"vector length {len(x)} does not match n={g.n}")
    norm = sum(v * v for v in x)
    if norm == 0.0:
        raise ValueError("vector must be nonzero")
    removed = {frozenset(e) for e in edges_removed}
    added = {frozenset(e) for e in edges_added}
    delta = 0.0
    for e in removed:
        if len(e) != 2:
            raise ValueError(f"loop or malformed edge {set(e)}")
        u, v = sorted(e)
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of g")
        delta -= 2.0 * x[u] * x[v]
    for e in added:
        if len(e) != 2:
            raise ValueError(f"loop or malformed edge {set(e)}")
        u, v = sorted(e)
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError(f"({u}, {v}) out of range")
        if g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is already an edge of g")
        delta += 2.0 * x[u] * x[v]
    return delta / norm


class HypothesisViolation(ValueError):
    """A verified precondition of a completion check failed. Distinct from the
    check returning False, which means the hypotheses held but the completed
    graph left the family."""


def clique_completion_safe(g: Graph, K, family: FamilySpec) -> bool:
    """Complete the vertex set K to a clique and report whether the result
    still belongs to the family.

    Verified hypotheses (HypothesisViolation when broken): g is a family
    member; |K| matches the family's apex size (r-2, s-1, or m-1); the common
    neighborhood T of K outside K is large enough, max(r+1, C(r-2,2)+3) for
    the K_r family and C(|K|,2)+1 for the others.
    """
    ks = sorted(set(K))
    for v in ks:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    if not family_filter(family, g):
        raise HypothesisViolation("graph is not a member of the family")
    kind = family.kind
    if kind == "kr":
        want, a = family.r - 2, family.r - 2
        need_t = max(family.r + 1, a * (a - 1) // 2 + 3)
    elif kind == "kst":
        want = family.s - 1
        need_t = want * (want - 1) // 2 + 1
    else:
        want = family.m - 1
        need_t = want * (want - 1) // 2 + 1
    if len(ks) != want:
        raise HypothesisViolation(
            f"|K|={len(ks)} does not match the family apex size {want}")
    common = (1 << g.n) - 1
    for v in ks:
        common &= g.rows[v]
    for v in ks:
        common &= ~(1 << v)
    if common.bit_count() < need_t:
        raise HypothesisViolation(
            f"common neighborhood has {common.bit_count()} vertices, need {need_t}")
    g2 = g
    for i, u in enumerate(ks):
        for v in ks[i + 1:]:
            g2 = g2.with_edge(u, v)
    return family_filter(family, g2)


def mu_join_bound(g: Graph, v: int, mu_without: int | MuClass) -> tuple[int, bool]:
    """Upper bound mu(g) <= mu(g - v) + 1 given a value (or class) for
    g - v. The second component reports whether the bound is known to be
    exact: v adjacent to every other vertex and g containing an edge."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    base = mu_without.value if isinstance(mu_without, MuClass) else int(mu_without)
    exact = g.degree(v) == g.n - 1 and g.edge_count >= 1
    return base + 1, exact


def mu_kmm_check(m: int) -> bool:
    """Confirm classify_mu(K_{m,m}) reports exactly m + 1, for m in {3, 4}
    (the sizes where the answer lands inside the decidable range)."""
    if not 3 <= m <= 4:
        raise ValueError("m must be 3 or 4")
    return classify_mu(complete_bipartite(m, m)).value == m + 1


def check_problem1(g: Graph, m: int) -> bool:
    """Report whether e(g) <= m*n - m(m+1)/2 for a graph verified to have
    mu <= m. Decidable only for m <= 4."""
    if not mu_at_most(g, m):
        raise ValueError(f"graph is not verified to have mu <= {m}")
    return g.edge_count <= m * g.n - m * (m + 1) // 2


def check_problem2(g: Graph) -> bool:
    """Report whether e(g) <= 3n - 9 for a graph verified bipartite and
    linklessly embeddable."""
    if not is_bipartite(g):
        raise ValueError("graph is not bipartite")
    if not is_linkless(g):
        raise ValueError("graph is not linklessly embeddable")
    return g.edge_count <= 3 * g.n - 9


def max_degree_residual_bound(h: Graph, t: int) -> bool:
    """For connected h with no K_{1,t} minor, check e(h) <= n(h) + t(t-3)/2."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if not h.is_connected():
        raise ValueError("h must be connected")
    if has_minor(complete_bipartite(1, t), h) is not None:
        raise ValueError(f"h has a K_(1,{t}) minor")
    return h.edge_count <= h.n + t * (t - 3) // 2


def decompose_apex_clique(g: Graph) -> tuple[tuple[int, ...], Graph]:
    """Split g into (K, H): K is the set of universal vertices (necessarily a
    clique) and H the subgraph induced on the rest. For a complete graph K is
    everything and H is empty."""
    univ = tuple(v for v in range(g.n) if g.degree(v) == g.n - 1)
    rest = [v for v in range(g.n) if g.degree(v) < g.n - 1]
    return univ, g.induced_subgraph(rest)
