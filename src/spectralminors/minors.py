"""Exact minor testing with explicit branch-set witnesses, the forbidden-minor
families for outerplanar, planar, and linkless graphs, and the delta-wye
closure that generates the linkless obstruction set from K_6 (the set itself
ships as graph6 constants equal to that closure).

has_minor decides whether H is a minor of G by building branch sets, one per
H-vertex in decreasing-degree order. Each branch set is a connected subset of
the unused G-vertices chosen to touch the neighborhood of every previously
placed set it must be adjacent to. First, a host with fewer edges than H is
refused before anything else is done to it: a minor of G has at most e(G)
edges. Exactness-preserving reductions run next and make sparse and
join-heavy instances tractable. With d the minimum degree of H:

  * degree reductions, repeated until none applies: if d >= 1, delete an
    isolated vertex; if d >= 2, delete a vertex of degree 1; if d >= 3,
    contract a vertex v of degree 2 into a neighbor a. A vertex of degree
    below d is never a branch set by itself; a leaf inside a larger branch
    set adds nothing to it; and if v lies in a branch set B, either a is in
    B too and the merged vertex takes v's place, or v is a leaf of G[B]
    whose only outside edge goes to a, an adjacency the merged vertex keeps
    from a's side;
  * twin capping: a class of mutually interchangeable vertices (identical open
    or closed neighborhoods) larger than n(H) can lose its excess members, as
    any branch set using two twins can drop one of them;
  * universal peeling: if u is adjacent to every other vertex of G, then H is
    a minor of G iff H-v is a minor of G-u for some H-vertex v: add {u} as
    v's branch set; conversely, drop from a model of H in G the branch set
    holding u, or any one if u is unused. So H in G-u needs no search of its
    own. One v per isomorphism class of H-v is tried.

After the degree reductions, and before twin capping and the search, four
certificates can answer "no" at once. Each applies to the reduced G, which is
a minor of G, so each is exact:

  * edge budget (d >= 2): every host vertex now has degree >= 2, so a model
    of H needs e(G) >= e(H) + n(G) - n(H) (argument at the test);
  * elimination width: a minimum-degree elimination ordering of G narrower
    than H's minimum degree d shows tw(G) < d <= tw(H), and treewidth is
    minor-monotone;
  * planarity: if H is nonplanar and G has a planar embedding, H is not a
    minor of G, as minors of planar graphs are planar;
  * outerplanarity: if H is not outerplanar and G plus one vertex joined to
    all of G has a planar embedding, G is outerplanar and so is every minor.

The last three run only when the reduced G differs from H in order or size.
Past the edge budget H is no larger than G in either, so a G of H's order and
size has H as a minor iff G is isomorphic to H, which the search decides with
single-vertex branch sets. A certificate only ever answers "no", so skipping
one hands the query to the search with the same answer and the same witness.

Whatever depends on H alone is computed once per (H, active set) and
cached. _pattern holds H's order, minimum degree and edge count and the
search's vertex order and counting-rule tables, all read off H's rows.
_peel_vertices holds the vertices universal peeling tries, and _profile H's
planarity class (nonplanar, not outerplanar). The profile comes from
has_minor on K5, K3,3, K4 and K2,3, not from the embedding code, and is
asked for only under the rule above. Profiling a pattern P therefore
searches hosts that are minors of P, and by that rule every pattern profiled
inside those searches is smaller than its host in order or size and larger
in neither, so strictly smaller than P in order plus size: the recursion
ends.

An embedding counts only after planarity._is_plane_rotation accepts it on
that call, so a nonplanar verdict or a rejected embedding decides nothing and
the search runs as before: a fault there can cost time but not change an
answer. "Yes" answers and their witnesses always come from the search.

The search tries the candidates for a branch set in one fixed order: least
root vertex first; from a set, depth first, each extension by the lowest
vertex of its frontier; and once every set through an extension vertex has
been tried, that vertex is excluded for the rest of the branch, so each
connected set comes up once. The witness is the first model met in this
order, and the pinned witness digests of the tests depend on it: changing
the order changes witnesses, never answers.

Before a branch set is chosen, a counting rule cuts the branch: if a placed
set B_j still owes k adjacencies to H-vertices not yet placed, and fewer
than k free vertices neighbour B_j, no model extends the placement, since
those k later sets are disjoint subsets of the free vertices and each needs
its own neighbour of B_j. The rule removes only subtrees without a model, so
the order of the models met, and every witness, stay the same.

Everything here works on bitmask vertex sets over the original labels. A
contracted vertex keeps the mask of the original vertices merged into it, so
witnesses are lifted back to G's labeling by a union of those masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import index

from .canon import canonical_key
from .graph import (Graph, _bits, _components, _mask_edges, _nbhd, complete,
                    complete_bipartite, delete_vertex, parse_graph6)
from .planarity import _is_plane_rotation, _lr_rotation


@dataclass(frozen=True)
class MinorWitness:
    """Branch sets indexed by H-vertex: branch_sets[v] is the set of
    G-vertices contracted to form v."""

    branch_sets: tuple[frozenset[int], ...]


def verify_witness(h: Graph, g: Graph, w: MinorWitness) -> bool:
    """Check a witness from scratch: one nonempty branch set per H-vertex,
    pairwise disjoint, each inducing a connected subgraph of G, and a G-edge
    between the sets of every pair of H-adjacent vertices."""
    if len(w.branch_sets) != h.n:
        return False
    used = 0
    masks = []
    for bs in w.branch_sets:
        if not bs:
            return False
        m = 0
        for v in map(index, bs):
            if not 0 <= v < g.n:
                return False
            m |= 1 << v
        if m & used:
            return False
        used |= m
        masks.append(m)
    for m in masks:
        if len(_components(g.rows, m)) != 1:
            return False
    nbhd = [_nbhd(g.rows, m) for m in masks]
    return all(nbhd[a] & masks[b] for a, b in h.edges())


# ---------------------------------------------------------------------------
# The search


def _twin_cap(g_rows, g_act: int, cap: int) -> int:
    """Drop vertices of any twin class beyond cap members, repeating until
    stable (deletions can create new twins)."""
    changed = True
    while changed:
        changed = False
        groups: dict[tuple[int, int], list[int]] = {}
        for v in _bits(g_act):
            nb = g_rows[v] & g_act
            groups.setdefault((0, nb), []).append(v)
            groups.setdefault((1, nb | (1 << v)), []).append(v)
        for vs in groups.values():
            if len(vs) > cap:
                for v in vs[cap:]:
                    g_act &= ~(1 << v)
                changed = True
                break
    return g_act


def _reduce(g_rows, g_act: int, limit: int):
    """Apply the degree reductions of the module docstring until none applies:
    a host vertex of degree k is reduced when k < limit = min(3, d). Returns
    None if none applied, else (rows, act, merged): the reduced graph on act,
    and for each vertex a that absorbed contractions the mask of the original
    vertices merged into it, a excluded. Only vertices whose degree changed
    are looked at again."""
    if limit == 0:
        return None
    act = g_act
    rows = g_rows
    merged: dict[int, int] = {}
    work = list(_bits(g_act))
    while work:
        v = work.pop()
        nb = rows[v] & act
        k = nb.bit_count()
        if not act >> v & 1 or k >= limit:
            continue
        act ^= 1 << v
        if k == 2:
            # stale bits of inactive vertices stay in rows: every reader
            # masks rows with its active set
            if rows is g_rows:
                rows = list(g_rows)
            a = (nb & -nb).bit_length() - 1
            b = (nb ^ (1 << a)).bit_length() - 1
            rows[a] = (rows[a] | rows[v]) & ~(1 << a)
            rows[b] |= 1 << a
            merged[a] = merged.get(a, 0) | (1 << v) | merged.pop(v, 0)
        work.extend(_bits(nb))
    if act == g_act:
        return None
    return rows, act, merged


def _candidates(g_rows, free: int, cap: int, reqs):
    """Connected subsets of free with at most cap vertices meeting every mask
    in reqs, each generated exactly once, in the order of the module
    docstring. A depth-first walk over an explicit stack of [subset,
    extension, banned] frames: a subset is extended by the lowest bit of its
    extension, which is then banned in the subset's later extensions."""
    stack = []
    roots, root_banned = free, 0
    while roots:
        rb = roots & -roots
        roots ^= rb
        s, banned = rb, root_banned
        ext = g_rows[rb.bit_length() - 1] & free & ~banned & ~rb
        root_banned |= rb
        while True:
            for r in reqs:
                if not s & r:
                    break
            else:
                yield s
            # extend s only while it is under cap and every req stays in reach
            if ext and s.bit_count() < cap:
                potential = s | (free & ~banned)
                for r in reqs:
                    if not r & potential:
                        break
                else:
                    stack.append([s, ext, banned])
            if not stack:
                break
            top = stack[-1]
            ps, pext, banned = top
            vb = pext & -pext
            pext ^= vb
            if pext:
                top[1] = pext
                top[2] = banned | vb
            else:
                stack.pop()
            s = ps | vb
            ext = (pext | (g_rows[vb.bit_length() - 1] & free)) & ~s & ~banned


def _backtrack(hvs, earlier, owed, g_rows, g_act: int):
    """Branch sets for H's vertices in the order hvs, with earlier and owed
    the tables of _pattern, as a dict from H-vertex to G-mask, or None."""
    hn = len(hvs)
    blocks = [0] * hn
    nbhd = [0] * hn

    def place(i: int, free: int) -> bool:
        if i == hn:
            return True
        for j, k in owed[i]:
            if (nbhd[j] & free).bit_count() < k:
                return False
        reqs = [nbhd[j] & free for j in earlier[i]]
        # at least 1: _search calls this with n(H) <= n(G), and every block
        # placed left room for the rest
        cap = free.bit_count() - (hn - i - 1)
        for b in _candidates(g_rows, free, cap, reqs):
            blocks[i] = b
            nbhd[i] = _nbhd(g_rows, b) & ~b
            if place(i + 1, free & ~b):
                return True
        return False

    if place(0, g_act):
        return dict(zip(hvs, blocks))
    return None


# ---------------------------------------------------------------------------
# Certificates that H is not a minor


def _elimination_width_below(rows, act: int, k: int) -> bool:
    """True if a minimum-degree elimination ordering of the graph on act has
    width below k. Eliminating v joins its remaining neighbours into a
    clique; the largest neighbourhood met bounds the treewidth from above."""
    rows = list(rows)
    heap = [((rows[v] & act).bit_count(), v) for v in _bits(act)]
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        nb = rows[v] & act
        # entries whose vertex is gone or whose degree changed are stale
        if act >> v & 1 and nb.bit_count() == d:
            if d >= k:
                return False
            act ^= 1 << v
            for u in _bits(nb):
                rows[u] |= nb ^ (1 << u)
                heappush(heap, ((rows[u] & act).bit_count(), u))
    return True


def _embeds(rows, act: int) -> bool:
    """True only with a rotation system of the graph on act that passed the
    face-tracing check on this call; a nonplanar verdict or a rejected
    rotation both give False."""
    rot = _lr_rotation(rows, act)
    return rot is not None and _is_plane_rotation(rows, act, rot)


@lru_cache(maxsize=1024)
def _pattern(h: Graph, h_act: int):
    """(n, d, e, hvs, earlier, owed) of H on a nonempty h_act: its order,
    minimum degree and edge count, and the backtracker's tables. hvs lists
    the H-vertices in placement order, by decreasing degree and then label;
    earlier[i] holds the positions before i adjacent to position i; owed[i]
    holds (j, k) for each position j < i with k >= 1 H-neighbours at
    positions i or later (the counting rule of the module docstring)."""
    hvs = sorted(_bits(h_act), key=lambda v: (-(h.rows[v] & h_act).bit_count(), v))
    hn = len(hvs)
    hpos = {v: i for i, v in enumerate(hvs)}
    adj = [sorted(hpos[u] for u in _bits(h.rows[v] & h_act)) for v in hvs]
    earlier = tuple(tuple(j for j in adj[i] if j < i) for i in range(hn))
    owed = tuple(tuple((j, k) for j in range(i) if (k := sum(p >= i for p in adj[j])))
                 for i in range(hn))
    # hvs ends on a vertex of minimum degree
    return hn, len(adj[-1]), _mask_edges(h.rows, h_act), tuple(hvs), earlier, owed


@lru_cache(maxsize=1024)
def _profile(h: Graph, h_act: int) -> tuple[bool, bool]:
    """(nonplanar, not outerplanar) of H on h_act, decided by has_minor on
    the K5, K3,3, K4 and K2,3 obstructions."""
    hs = h.induced_subgraph(_bits(h_act))
    nonplanar = not is_planar(hs)
    return nonplanar, nonplanar or not is_outerplanar(hs)


@lru_cache(maxsize=1024)
def _peel_vertices(h: Graph, h_act: int) -> tuple[int, ...]:
    """The first vertex v, in label order, of each isomorphism class of H - v
    on h_act: the vertices universal peeling tries."""
    seen = {}
    for v in _bits(h_act):
        seen.setdefault(canonical_key(h.induced_subgraph(_bits(h_act ^ (1 << v)))), v)
    return tuple(seen.values())


def _excluded(h: Graph, h_act: int, d: int, g_rows, g_act: int) -> bool:
    """True if a certificate of the module docstring shows that H on h_act,
    of minimum degree d, is not a minor of G on g_act."""
    # With d <= 3 the width test cannot fire: _reduce left every vertex of
    # the nonempty G with degree >= d, so the first elimination meets d.
    if d > 3 and _elimination_width_below(g_rows, g_act, d):
        return True
    nonplanar, nonouterplanar = _profile(h, h_act)
    if nonplanar:
        return _embeds(g_rows, g_act)
    if nonouterplanar:
        apex = len(g_rows)
        return _embeds([r | 1 << apex for r in g_rows] + [g_act], g_act | 1 << apex)
    return False


def _search(h: Graph, h_act: int, g_rows, g_act: int):
    if not h_act:
        return {}
    hn, d, he, hvs, earlier, owed = _pattern(h, h_act)
    gn = g_act.bit_count()
    if hn > gn:
        return None
    # a minor of G has at most e(G) edges
    ge = _mask_edges(g_rows, g_act)
    if he > ge:
        return None
    reduced = _reduce(g_rows, g_act, min(3, d))
    if reduced is not None:
        rows, act, merged = reduced
        sol = _search(h, h_act, rows, act)
        if sol is not None:
            for v, b in sol.items():
                for a in _bits(b):
                    sol[v] |= merged.get(a, 0)
        return sol
    # Edge budget. With d >= 2 the reductions left every host vertex with
    # degree >= 2. A model of H uses |B| - 1 edges inside each branch set B
    # and e(H) between them, and the set U of unused vertices has 2|U| edge
    # ends on at least |U| further edges: e(G) >= e(H) + n(G) - n(H).
    if d >= 2 and he + gn - hn > ge:
        return None
    # a G of H's order and size contains H iff it is H (module docstring)
    if (gn, ge) != (hn, he) and _excluded(h, h_act, d, g_rows, g_act):
        return None
    g_act = _twin_cap(g_rows, g_act, hn)
    for u in _bits(g_act):
        if g_rows[u] & g_act == g_act ^ (1 << u):
            gm = g_act ^ (1 << u)
            for v in _peel_vertices(h, h_act):
                sub = _search(h, h_act ^ (1 << v), g_rows, gm)
                if sub is not None:
                    sub[v] = 1 << u
                    return sub
            return None
    return _backtrack(hvs, earlier, owed, g_rows, g_act)


def has_minor(h: Graph, g: Graph) -> MinorWitness | None:
    """Witness that h is a minor of g, or None. The witness maps every
    h-vertex to its branch set in g's labeling and always passes
    verify_witness."""
    sol = _search(h, (1 << h.n) - 1, g.rows, (1 << g.n) - 1)
    if sol is None:
        return None
    w = MinorWitness(tuple(frozenset(_bits(sol[v])) for v in range(h.n)))
    if not verify_witness(h, g, w):
        raise RuntimeError("internal: search produced an invalid witness")
    return w


# ---------------------------------------------------------------------------
# Delta-wye closure and the obstruction families


def triangles(g: Graph):
    """All triangles of g as ordered triples u < v < w."""
    for u in range(g.n):
        above_u = g.rows[u] >> (u + 1) << (u + 1)
        for v in _bits(above_u):
            common = g.rows[u] & g.rows[v] >> (v + 1) << (v + 1)
            for w in _bits(common):
                yield (u, v, w)


def delta_to_y(g: Graph, tri) -> Graph:
    """Replace triangle tri by a new degree-3 vertex adjacent to its corners.
    The new vertex gets label n; edge count is preserved."""
    u, v, w = map(index, tri)
    if not (g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)):
        raise ValueError(f"{tri} is not a triangle")
    rows = list(g.rows) + [0]
    star = (1 << u) | (1 << v) | (1 << w)
    rows[u] &= ~((1 << v) | (1 << w))
    rows[v] &= ~((1 << u) | (1 << w))
    rows[w] &= ~((1 << u) | (1 << v))
    for x in (u, v, w):
        rows[x] |= 1 << g.n
    rows[g.n] = star
    return Graph(g.n + 1, tuple(rows))


def _is_y_vertex(g: Graph, v: int) -> bool:
    """Whether v has degree 3 and pairwise non-adjacent neighbors."""
    nbrs = g.rows[v]
    return nbrs.bit_count() == 3 and not _nbhd(g.rows, nbrs) & nbrs


def y_to_delta(g: Graph, v: int) -> Graph:
    """Inverse move: v must have degree 3 with pairwise non-adjacent
    neighbors; delete v and join its neighbors into a triangle. Defined only
    in the edge-preserving case, the exact inverse of delta_to_y."""
    g._check_vertices(v)
    if not _is_y_vertex(g, v):
        raise ValueError(f"vertex {v} does not have degree 3 with pairwise "
                         "non-adjacent neighbors")
    a, b, c = g.neighbors(v)
    rows = list(g.rows)
    rows[a] |= (1 << b) | (1 << c)
    rows[b] |= (1 << a) | (1 << c)
    rows[c] |= (1 << a) | (1 << b)
    return delete_vertex(Graph(g.n, tuple(rows)), v)


def delta_y_closure(seed: Graph) -> tuple[Graph, ...]:
    """Closure of seed under both moves, one representative per isomorphism
    class, sorted by (vertex count, edge count, canonical key). Both moves
    preserve the edge count, so the closure is finite."""
    seen = {canonical_key(seed): seed}
    queue = [seed]
    while queue:
        g = queue.pop()
        results = [delta_to_y(g, tri) for tri in triangles(g)]
        results += [y_to_delta(g, v) for v in range(g.n) if _is_y_vertex(g, v)]
        for h in results:
            k = canonical_key(h)
            if k not in seen:
                seen[k] = h
                queue.append(h)
    return tuple(sorted(seen.values(), key=lambda x: (x.n, x.edge_count, canonical_key(x))))


@lru_cache(maxsize=1)
def outerplanar_obstructions() -> tuple[Graph, ...]:
    return complete(4), complete_bipartite(2, 3)


@lru_cache(maxsize=1)
def planar_obstructions() -> tuple[Graph, ...]:
    return complete(5), complete_bipartite(3, 3)


@lru_cache(maxsize=1)
def linkless_obstructions() -> tuple[Graph, ...]:
    """The Petersen family, the forbidden minors of linklessly embeddable
    graphs (Robertson, Seymour and Thomas 1995): the delta-wye closure of
    K_6, seven graphs with 15 edges each. They ship as graph6 constants,
    parsed on first use, which are exactly delta_y_closure(complete(6)):
    the same labels in the same order, which the witnesses depend on and a
    test checks. Loading them computes no canonical form."""
    return tuple(parse_graph6(t) for t in
                 "E~~w FF~~? F]~Hw GFzf?w GBZ~Co H@YnCpS I@QFCpSJ?".split())


def _excludes(obstructions: tuple[Graph, ...], g: Graph) -> bool:
    """True iff no obstruction is a minor of g. One with more edges than g
    is skipped, as has_minor would refuse g for it: the seven Petersen-family
    graphs have 15 edges each."""
    e = g.edge_count
    return all(h.edge_count > e or has_minor(h, g) is None for h in obstructions)


def is_outerplanar(g: Graph) -> bool:
    return _excludes(outerplanar_obstructions(), g)


def is_planar(g: Graph) -> bool:
    return _excludes(planar_obstructions(), g)


def is_linkless(g: Graph) -> bool:
    return _excludes(linkless_obstructions(), g)
