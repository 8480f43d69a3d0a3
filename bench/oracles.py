"""Independent checks for the benchmark's outputs.

Nothing here calls into `spectralminors.minors` or reuses the package's
algorithms: membership comes from networkx planarity and block structure,
small minor questions from an exhaustive deletion/contraction search on plain
bit rows, eigenvalues from `numpy.linalg.eigvalsh` or closed forms, graph6
encoding from numpy bit packing and decoding from networkx. The package is only read through `Graph.n` and
`Graph.rows`.
"""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np
from networkx.algorithms import isomorphism

# Known counts of graphs and of planar graphs on n vertices, up to
# isomorphism (OEIS A000088 and A005470).
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
PLANAR_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 33, 6: 142, 7: 822}
# Partition numbers: disjoint unions of paths on n vertices, i.e. mu <= 1.
PARTITIONS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}

REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Conversions


def edges_of(g) -> list[tuple[int, int]]:
    """Edge list of a package Graph, read from its bit rows."""
    out = []
    for u, row in enumerate(g.rows):
        r = row >> (u + 1)
        while r:
            low = r & -r
            out.append((u, u + low.bit_length()))
            r ^= low
    return out


def nx_graph(n: int, edges) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return G


def to_nx(g) -> nx.Graph:
    return nx_graph(g.n, edges_of(g))


def g6_of(G: nx.Graph) -> str:
    """graph6 of G (nodes 0..n-1), packed with numpy: the upper triangle in
    column-major order, six bits per character, offset by 63."""
    n = G.number_of_nodes()
    A = np.zeros((n, n), dtype=np.uint8)
    for u, v in G.edges():
        A[u, v] = A[v, u] = 1
    bits = A.T[np.tril_indices(n, -1)]
    bits = np.concatenate([bits, np.zeros(-len(bits) % 6, dtype=np.uint8)]).reshape(-1, 6)
    body = bits @ (1 << np.arange(5, -1, -1)) + 63
    head = [n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    return bytes(head + body.astype(np.uint8).tolist()).decode("ascii")


def from_g6(text: str) -> nx.Graph:
    return nx.from_graph6_bytes(text.strip().encode("ascii"))


def same_edges(G: nx.Graph, H: nx.Graph) -> bool:
    """Equal as labelled graphs."""
    return (G.number_of_nodes() == H.number_of_nodes()
            and {frozenset(e) for e in G.edges()} == {frozenset(e) for e in H.edges()})


# ---------------------------------------------------------------------------
# Membership


def is_planar(G: nx.Graph) -> bool:
    return nx.check_planarity(G)[0]


def is_outerplanar(G: nx.Graph) -> bool:
    """G is outerplanar iff G plus a vertex adjacent to all of G is planar."""
    H = nx.Graph(G)
    apex = ("apex",)
    H.add_edges_from((apex, v) for v in G.nodes())
    return is_planar(H)


def is_k23_minor_free(G: nx.Graph) -> bool:
    """A graph has no K_{2,3} minor iff every block is outerplanar or K4."""
    for block in nx.biconnected_components(G):
        B = G.subgraph(block)
        if len(block) == 4 and B.number_of_edges() == 6:
            continue
        if not is_outerplanar(B):
            return False
    return True


def is_path_forest(G: nx.Graph) -> bool:
    """mu <= 1: every component is a path."""
    return max((d for _, d in G.degree()), default=0) <= 2 and nx.is_forest(G)


def lam(G: nx.Graph) -> float:
    """Largest adjacency eigenvalue."""
    n = G.number_of_nodes()
    if n == 0:
        return 0.0
    index = {v: i for i, v in enumerate(G.nodes())}
    A = np.zeros((n, n))
    for u, v in G.edges():
        A[index[u], index[v]] = A[index[v], index[u]] = 1.0
    return float(np.linalg.eigvalsh(A)[-1])


# ---------------------------------------------------------------------------
# Closed forms and classical edge bounds


def path_lambda(n: int) -> float:
    return 2.0 * math.cos(math.pi / (n + 1))


def clique_join_independent_lambda(a: int, b: int) -> float:
    """K_a joined with an independent set of b vertices."""
    return ((a - 1) + math.sqrt((a - 1) ** 2 + 4 * a * b)) / 2.0


def kr_edge_bound(n: int, r: int) -> int:
    return (r - 2) * (n - r + 2) + (r - 2) * (r - 3) // 2


def k2t_edge_bound(n: int, t: int) -> float:
    return (t + 1) * (n - 1) / 2


def planar_edge_bound(n: int) -> int:
    return 3 * n - 6


def linkless_edge_bound(n: int) -> int:
    return 4 * n - 10


# ---------------------------------------------------------------------------
# Minors by exhaustive deletion and contraction


def _drop(rows: tuple[int, ...], v: int) -> tuple[int, ...]:
    low = (1 << v) - 1
    return tuple((r & low) | (r >> (v + 1) << v) for i, r in enumerate(rows) if i != v)


def _contract(rows: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """Merge v into u (adjacent), then drop v."""
    rows = list(rows)
    merged = (rows[u] | rows[v]) & ~(1 << u) & ~(1 << v)
    rows[u] = merged
    m = merged
    while m:
        low = m & -m
        rows[low.bit_length() - 1] |= 1 << u
        m ^= low
    return _drop(tuple(rows), v)


def _suppress(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Delete vertices of degree <= 1 and contract an edge at each vertex of
    degree 2. Both keep every minor of minimum degree >= 3."""
    while True:
        for v, r in enumerate(rows):
            d = r.bit_count()
            if d <= 1:
                rows = _drop(rows, v)
                break
            if d == 2:
                a = (r & -r).bit_length() - 1
                rows = _contract(rows, min(a, v), max(a, v))
                break
        else:
            return rows


def has_minor(H: nx.Graph, G: nx.Graph) -> bool:
    """Whether H is a minor of G, by searching every sequence of vertex
    deletions and edge contractions down to |V(H)| vertices and testing for H
    as a subgraph there. Meant for hosts of at most ten or so vertices."""
    hn, he = H.number_of_nodes(), H.number_of_edges()
    complete = he == hn * (hn - 1) // 2
    suppress = min((d for _, d in H.degree()), default=0) >= 3
    index = {v: i for i, v in enumerate(G.nodes())}
    rows = [0] * G.number_of_nodes()
    for a, b in G.edges():
        rows[index[a]] |= 1 << index[b]
        rows[index[b]] |= 1 << index[a]
    seen = set()

    def leaf(rows) -> bool:
        if complete:
            return all(r.bit_count() == hn - 1 for r in rows)
        L = nx_graph(len(rows), [(u, v) for u, r in enumerate(rows)
                                 for v in range(u + 1, len(rows)) if r >> v & 1])
        return isomorphism.GraphMatcher(L, H).subgraph_is_monomorphic()

    def search(rows) -> bool:
        if suppress:
            rows = _suppress(rows)
        k = len(rows)
        if k < hn or sum(r.bit_count() for r in rows) // 2 < he or rows in seen:
            return False
        seen.add(rows)
        if k == hn:
            return leaf(rows)
        for v in range(k):
            if search(_drop(rows, v)):
                return True
        for u in range(k):
            r = rows[u] >> (u + 1)
            while r:
                low = r & -r
                if search(_contract(rows, u, u + low.bit_length())):
                    return True
                r ^= low
        return False

    return search(tuple(rows))


def witness_ok(H: nx.Graph, G: nx.Graph, branch_sets) -> bool:
    """Contract each branch set of G with networkx and check that H's edges
    survive: nonempty disjoint connected sets, one per H-vertex."""
    sets = [frozenset(b) for b in branch_sets]
    if len(sets) != H.number_of_nodes() or any(not b for b in sets):
        return False
    used = set()
    for b in sets:
        if used & b or not b <= set(G.nodes()) or not nx.is_connected(G.subgraph(b)):
            return False
        used |= b
    Q = nx.quotient_graph(G.subgraph(used), sets)
    return all(Q.has_edge(sets[a], sets[b]) for a, b in H.edges())


# ---------------------------------------------------------------------------
# The delta-wye family of K6, computed independently


def _delta_to_y(G: nx.Graph, tri) -> nx.Graph:
    H = nx.Graph(G)
    H.remove_edges_from(itertools.combinations(tri, 2))
    y = max(H.nodes()) + 1
    H.add_edges_from((y, v) for v in tri)
    return nx.convert_node_labels_to_integers(H)


def _y_to_delta(G: nx.Graph, v) -> nx.Graph:
    H = nx.Graph(G)
    nbrs = list(H.neighbors(v))
    H.remove_node(v)
    H.add_edges_from(itertools.combinations(nbrs, 2))
    return nx.convert_node_labels_to_integers(H)


def petersen_family() -> list[nx.Graph]:
    """Closure of K6 under delta-wye and wye-delta moves, one graph per
    isomorphism class."""
    family = [nx.complete_graph(6)]
    queue = list(family)
    while queue:
        G = queue.pop()
        moves = [_delta_to_y(G, tri) for tri in
                 (c for c in nx.enumerate_all_cliques(G) if len(c) == 3)]
        for v in list(G.nodes()):
            nbrs = list(G.neighbors(v))
            if len(nbrs) == 3 and not any(G.has_edge(a, b)
                                          for a, b in itertools.combinations(nbrs, 2)):
                moves.append(_y_to_delta(G, v))
        for H in moves:
            if not any(nx.is_isomorphic(H, F) for F in family):
                family.append(H)
                queue.append(H)
    return family


def is_linkless_small(G: nx.Graph, family: list[nx.Graph]) -> bool:
    """No member of the Petersen family as a minor (members larger than G
    cannot be minors and are skipped)."""
    n = G.number_of_nodes()
    return not any(has_minor(F, G) for F in family if F.number_of_nodes() <= n)


def pairwise_non_isomorphic(graphs: list[nx.Graph]) -> bool:
    buckets: dict[tuple, list[nx.Graph]] = {}
    for G in graphs:
        key = (tuple(sorted(d for _, d in G.degree())),
               tuple(sorted(nx.triangles(G).values())))
        for F in buckets.setdefault(key, []):
            if nx.is_isomorphic(F, G):
                return False
        buckets[key].append(G)
    return True


# ---------------------------------------------------------------------------
# Scan reports


def expected_scan(graphs: list[nx.Graph], member) -> dict:
    """Recompute a family scan from the graph list and a membership test:
    members, max lambda, every graph6 within REL_TOL of it, max edges and the
    lexicographically least edge maximizer."""
    members = [G for G in graphs if member(G)]
    if not members:
        return {"members": 0}
    lams = [lam(G) for G in members]
    g6s = [g6_of(G) for G in members]
    top = max(lams)
    max_e = max(G.number_of_edges() for G in members)
    return {
        "members": len(members),
        "max_lambda": top,
        "lambda_argmax": {s for s, x in zip(g6s, lams) if close(x, top)},
        "max_edges": max_e,
        "edge_argmax": min(s for s, G in zip(g6s, members) if G.number_of_edges() == max_e),
        "lams": lams,
    }


def compare_scan(label: str, report, exp: dict, n_graphs: int) -> list[str]:
    """Problems found comparing a SearchReport with expected_scan output."""
    bad = []
    if report.graphs_scanned != n_graphs:
        bad.append(f"{label}: graphs_scanned {report.graphs_scanned} != {n_graphs}")
    if not close(report.max_lambda, exp["max_lambda"]):
        bad.append(f"{label}: max_lambda {report.max_lambda!r} != eigvalsh {exp['max_lambda']!r}")
    if report.argmax_g6 not in exp["lambda_argmax"]:
        bad.append(f"{label}: argmax {report.argmax_g6} not among {sorted(exp['lambda_argmax'])}")
    if report.max_edges != exp["max_edges"]:
        bad.append(f"{label}: max_edges {report.max_edges} != {exp['max_edges']}")
    if report.edge_argmax_g6 != exp["edge_argmax"]:
        bad.append(f"{label}: edge argmax {report.edge_argmax_g6} != {exp['edge_argmax']}")
    return bad


def construction(kind: str, n: int, a: int, t: int | None = None) -> nx.Graph:
    """The reference construction on n vertices, built with networkx: K_a
    (vertices 0..a-1) joined with an independent set (kind 'kr'), with
    disjoint copies of K_t plus one smaller clique (kind 'kst'), or with a
    path (kind 'cdv')."""
    rest = n - a
    if kind == "kr":
        R = nx.empty_graph(rest)
    elif kind == "kst":
        k, p = divmod(rest, t)
        R = nx.disjoint_union_all([nx.complete_graph(t)] * k + ([nx.complete_graph(p)] if p else []))
    else:
        R = nx.path_graph(rest)
    G = nx_graph(n, itertools.combinations(range(a), 2))
    G.add_edges_from((u, a + v) for u in range(a) for v in range(rest))
    G.add_edges_from((a + u, a + v) for u, v in R.edges())
    return G


def kst_ceiling(n: int, s: int, t: int) -> float:
    """The K_{s,t}-minor-free spectral ceiling,
    (s+t-3 + sqrt((s+t-3)^2 + 4((s-1)(n-s+1) - (s-2)(t-1)))) / 2."""
    a = s + t - 3
    return (a + math.sqrt(a * a + 4 * ((s - 1) * (n - s + 1) - (s - 2) * (t - 1)))) / 2.0
