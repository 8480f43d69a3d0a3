"""Minor containment, witnesses, forbidden families, delta-wye closures."""

import hashlib
import random
import time

import pytest

from spectralminors import (
    FamilySpec,
    Graph,
    MinorWitness,
    are_isomorphic,
    canonical_key,
    complete,
    complete_bipartite,
    construct_kst_extremal,
    cycle,
    delete_vertex,
    delta_to_y,
    delta_y_closure,
    disjoint_union,
    encode_graph6,
    enumerate_graphs,
    has_minor,
    independent,
    is_linkless,
    is_outerplanar,
    is_planar,
    join,
    linkless_obstructions,
    outerplanar_obstructions,
    parse_graph6,
    path,
    petersen,
    planar_obstructions,
    scan_family,
    verify_witness,
    y_to_delta,
)
from spectralminors import canon, minors
from spectralminors.graph import _bits
from spectralminors.minors import triangles
from spectralminors.planarity import _is_plane_rotation, _lr_rotation

from helpers import (HypothesisViolation, clique_completion_safe, contract_edge, delete_edge,
                     girth, max_degree_residual_bound, oracle_has_minor, random_graph,
                     reference_candidates, relabeled, table_has_minor)


# ---------------------------------------------------------------------------
# has_minor on known pairs


def test_minor_known_positive():
    assert has_minor(complete(3), cycle(5)) is not None
    assert has_minor(path(4), cycle(4)) is not None
    assert has_minor(cycle(4), complete(4)) is not None
    assert has_minor(complete(5), petersen()) is not None
    assert has_minor(complete_bipartite(3, 3), petersen()) is not None
    assert has_minor(complete(4), complete_bipartite(3, 3)) is not None
    assert has_minor(Graph.empty(0), cycle(4)) is not None
    assert has_minor(independent(3), path(3)) is not None
    # a graph is always a minor of itself
    rng = random.Random(11)
    for trial in range(30):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        assert has_minor(g, g) is not None


def test_minor_known_negative():
    assert has_minor(complete(4), cycle(5)) is None
    assert has_minor(cycle(5), cycle(4)) is None
    assert has_minor(complete(6), petersen()) is None
    assert has_minor(complete(4), path(10)) is None
    assert has_minor(complete_bipartite(3, 3), complete_bipartite(2, 10)) is None
    assert has_minor(complete(1), Graph.empty(0)) is None
    # more edges than the host can supply
    assert has_minor(complete(4), path(4)) is None


def test_witness_realizes_minor():
    w = has_minor(complete(3), cycle(5))
    assert w is not None
    assert verify_witness(complete(3), cycle(5), w)
    assert len(w.branch_sets) == 3


def test_invalid_witness_raises(monkeypatch):
    # all three H-vertices mapped to G-vertex 0: overlapping branch sets
    monkeypatch.setattr(minors, "_search", lambda *args: {0: 1, 1: 1, 2: 1})
    with pytest.raises(RuntimeError, match="invalid witness"):
        has_minor(complete(3), cycle(5))


def test_verify_witness_rejects_tampering():
    g = cycle(5)
    h = complete(3)
    good = MinorWitness((frozenset({0}), frozenset({1}), frozenset({2, 3, 4})))
    assert verify_witness(h, g, good)
    # wrong count
    assert not verify_witness(h, g, MinorWitness(good.branch_sets[:2]))
    # empty branch set
    assert not verify_witness(h, g, MinorWitness((frozenset(), frozenset({1}), frozenset({2, 3, 4}))))
    # overlap
    assert not verify_witness(h, g, MinorWitness((frozenset({0, 1}), frozenset({1}), frozenset({2, 3, 4}))))
    # out of range
    assert not verify_witness(h, g, MinorWitness((frozenset({0}), frozenset({9}), frozenset({2, 3, 4}))))
    # disconnected branch set: 2 and 4 are not adjacent in C5
    assert not verify_witness(h, g, MinorWitness((frozenset({0}), frozenset({1}), frozenset({2, 4}))))
    # edge of h not realized: branch sets pairwise adjacent except (0, {3})
    assert not verify_witness(h, g, MinorWitness((frozenset({0}), frozenset({1}), frozenset({3}))))


def test_oracle_agreement_spot():
    rng = random.Random(606)
    for trial in range(250):
        h = random_graph(rng, rng.randint(1, 4), rng.random())
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        found = has_minor(h, g) is not None
        assert found == oracle_has_minor(h, g), (h.rows, g.rows)


def test_minor_relation_is_closed_under_host_growth():
    # if h <= g then h survives adding edges to g, relabeling g, and deleting
    # edges or an endpoint-free vertex of h
    rng = random.Random(8181)
    hits = 0
    trials = 0
    while hits < 120 and trials < 3000:
        trials += 1
        h = random_graph(rng, rng.randint(1, 5), rng.random())
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        w = has_minor(h, g)
        if w is None:
            continue
        hits += 1
        assert verify_witness(h, g, w)
        non_edges = [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
        ]
        if non_edges:
            u, v = rng.choice(non_edges)
            assert has_minor(h, g.with_edge(u, v)) is not None
        assert has_minor(h, relabeled(rng, g)) is not None
        if h.edge_count:
            e = rng.choice(list(h.edges()))
            assert has_minor(delete_edge(h, *e), g) is not None
    assert hits == 120


def test_minors_of_reduced_hosts_lift():
    # anything found in g after deletion or contraction must already be in g
    rng = random.Random(9292)
    for trial in range(150):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        h = random_graph(rng, rng.randint(1, 4), rng.random())
        v = rng.randrange(g.n)
        if has_minor(h, delete_vertex(g, v)) is not None:
            assert has_minor(h, g) is not None
        if g.edge_count:
            u, w = rng.choice(list(g.edges()))
            if has_minor(h, contract_edge(g, u, w)) is not None:
                assert has_minor(h, g) is not None


def test_witnesses_are_pinned():
    # every branch set the search returns for the planarity, outerplanarity
    # and linklessness obstructions over the n <= 7 atlas, hosts in atlas
    # order and patterns inner; every answer agrees with the minor-closure
    # table
    hs = [complete(4), complete_bipartite(2, 3), complete(5), complete_bipartite(3, 3)]
    hs += linkless_obstructions()
    digest = hashlib.sha256()
    pairs = yes = 0
    for n in range(8):
        for g in enumerate_graphs(n):
            for h in hs:
                w = has_minor(h, g)
                assert (w is not None) == table_has_minor(h, g), (encode_graph6(h), encode_graph6(g))
                digest.update(repr(None if w is None else [sorted(b) for b in w.branch_sets]).encode())
                pairs += 1
                yes += w is not None
    assert (pairs, yes) == (13783, 2000)
    assert digest.hexdigest() == (
        "981851852b18d822cb08b259a4302d2f25ffdc1a3cca3579fdefb335e14fdcf4")


def test_small_patterns_agree_with_the_minor_closure_table():
    # patterns outside the obstruction sets, against every n <= 7 atlas host
    hs = [complete(3), path(3), cycle(4), cycle(5), complete_bipartite(1, 3),
          complete_bipartite(3, 4)]
    pairs = yes = 0
    for n in range(8):
        for g in enumerate_graphs(n):
            for h in hs:
                found = has_minor(h, g) is not None
                assert found == table_has_minor(h, g), (encode_graph6(h), encode_graph6(g))
                pairs += 1
                yes += found
    assert (pairs, yes) == (7518, 5607)


def test_apex_join_witnesses_are_pinned():
    # every host has a universal vertex, so each query goes through
    # universal peeling: K1 and K2 joined with every n <= 6 atlas graph,
    # hosts in atlas order with K1 first, patterns as above and inner
    hs = [complete(4), complete_bipartite(2, 3), complete(5), complete_bipartite(3, 3)]
    hs += linkless_obstructions()
    digest = hashlib.sha256()
    pairs = yes = 0
    for n in range(7):
        for g in enumerate_graphs(n):
            for k in (1, 2):
                host = join(complete(k), g)
                for h in hs:
                    w = has_minor(h, host)
                    digest.update(repr(None if w is None else [sorted(b) for b in w.branch_sets]).encode())
                    pairs += 1
                    yes += w is not None
    assert (pairs, yes) == (4598, 1594)
    assert digest.hexdigest() == (
        "15216f0c4a58b6d004748e79a3be18fdfa9d66abef22aefd0c11024072383ad7")


def test_random_host_witnesses_are_pinned():
    # branch sets past the atlas: the planarity and outerplanarity
    # obstructions in 40 seeded G(n, p) hosts on 8 and 9 vertices, patterns
    # inner, with yes and no answers for each pattern
    hs = [complete(4), complete_bipartite(2, 3), complete(5), complete_bipartite(3, 3)]
    rng = random.Random(17)
    digest = hashlib.sha256()
    yes = [0] * len(hs)
    for i in range(40):
        g = random_graph(rng, 8 + i % 2, rng.choice((0.3, 0.45, 0.6)))
        for j, h in enumerate(hs):
            w = has_minor(h, g)
            digest.update(repr(None if w is None else [sorted(b) for b in w.branch_sets]).encode())
            yes[j] += w is not None
    assert yes == [26, 31, 14, 17]
    assert digest.hexdigest() == (
        "b4a488922a2613241c2b70aa528ca6c3f67d47383a300b3c3747ece09133baff")


def test_bipartite_witnesses_in_larger_random_hosts_are_pinned():
    # K2,4 and K3,4 in 24 seeded G(n, p) hosts on 9 to 11 vertices, patterns
    # inner, with yes and no answers for each pattern
    hs = [complete_bipartite(2, 4), complete_bipartite(3, 4)]
    rng = random.Random(23)
    digest = hashlib.sha256()
    yes = [0] * len(hs)
    for i in range(24):
        g = random_graph(rng, 9 + i % 3, rng.choice((0.3, 0.45, 0.6)))
        for j, h in enumerate(hs):
            w = has_minor(h, g)
            assert w is None or verify_witness(h, g, w)
            digest.update(repr(None if w is None else [sorted(b) for b in w.branch_sets]).encode())
            yes[j] += w is not None
    assert yes == [15, 8]
    assert digest.hexdigest() == (
        "6c037228f24b766cd33ab23d61ad3114e396d896bd9e4c04faf848628c328d2e")


def test_candidates_follow_the_recursive_order():
    # the flat generator against its recursive reference, in order and with
    # multiplicity, on every n <= 6 atlas host; on n <= 5 also against brute
    # force over the subsets of free
    rng = random.Random(3)
    runs = nonempty = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for _ in range(6):
                free = rng.getrandbits(n) or 1 << rng.randrange(n)
                cap = rng.randint(1, free.bit_count())
                reqs = [rng.getrandbits(n) & free for _ in range(rng.randint(0, 3))]
                got = list(minors._candidates(g.rows, free, cap, reqs))
                assert got == list(reference_candidates(g.rows, free, cap, reqs))
                if n <= 5:
                    want = sorted(
                        s for s in range(1, 1 << n)
                        if not s & ~free and s.bit_count() <= cap and all(s & r for r in reqs)
                        and len(g.induced_subgraph(_bits(s)).component_masks()) == 1)
                    assert sorted(got) == want
                runs += 1
                nonempty += bool(got)
    assert runs == 6 * 208 and 0 < nonempty < runs


def test_universal_peeling_stops_after_its_h_minus_v_searches(monkeypatch):
    # K3,4 in K2 joined with five K4: peeling an apex vertex searches the
    # rest for K2,4 and for K3,3 (each peeling the other apex in turn) and
    # stops when both fail, with no search for K3,4 itself in the rest
    h, g = complete_bipartite(3, 4), construct_kst_extremal(22, 3, 4)
    assert has_minor(h, g) is None  # fills H's profile cache
    search = minors._search
    calls = []

    def counting(*args):
        calls.append(args[1])
        return search(*args)

    monkeypatch.setattr(minors, "_search", counting)
    assert has_minor(h, g) is None
    assert len(calls) == 6


def test_peeled_classes_are_computed_once(monkeypatch):
    # the classes of H - v depend on H and its active set only, so a second
    # identical query builds no canonical key
    h, g = complete_bipartite(3, 4), construct_kst_extremal(22, 3, 4)
    keys = []

    def counting(x):
        keys.append(x)
        return canonical_key(x)

    monkeypatch.setattr(minors, "canonical_key", counting)
    minors._peel_vertices.cache_clear()
    assert has_minor(h, g) is None
    assert keys
    keys.clear()
    assert has_minor(h, g) is None
    assert keys == []


def test_pattern_record_is_built_once():
    # order, minimum degree, edge count and backtracker tables depend on H
    # and its active set only, so a second identical scan builds no record
    spec = FamilySpec.kst_minor_free(2, 3)
    minors._pattern.cache_clear()
    first = scan_family(spec, 7, jobs=1)
    misses = minors._pattern.cache_info().misses
    assert misses
    assert scan_family(spec, 7, jobs=1) == first
    assert minors._pattern.cache_info().misses == misses


def test_edge_count_rejects_before_any_reduction(monkeypatch):
    # a minor of G has at most e(G) edges: the Petersen family graphs on at
    # most 7 vertices (K6 and two on 7, 15 edges each) are refused by K6
    # minus an edge (14) before the host is reduced, certified or searched
    def unreachable(*args):
        raise AssertionError("reached past the edge-count rejection")

    for name in ("_reduce", "_excluded", "_backtrack"):
        monkeypatch.setattr(minors, name, unreachable)
    k6e = delete_edge(complete(6), 0, 1)
    assert has_minor(complete(6), k6e) is None
    host = disjoint_union(k6e, complete(1))
    small = [h for h in linkless_obstructions() if h.n <= 7]
    assert len(small) == 3
    for h in small:
        assert has_minor(h, host) is None


# ---------------------------------------------------------------------------
# Degree reductions: low-degree host vertices deleted, degree-2 ones contracted


def subdivided(g: Graph, k: int) -> Graph:
    """g with every edge replaced by a path through k new vertices."""
    edges = []
    n = g.n
    for u, v in g.edges():
        chain = [u, *range(n, n + k), v]
        n += k
        edges += zip(chain, chain[1:])
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("h, n", [(complete(5), 35), (complete_bipartite(3, 3), 33)],
                         ids=["K5", "K3,3"])
def test_subdivided_host_contracts_back(h, n):
    g = subdivided(h, 3)
    assert g.n == n
    start = time.perf_counter()
    w = has_minor(h, g)
    assert time.perf_counter() - start < 2.0
    assert w is not None and verify_witness(h, g, w)
    # deleting one chain vertex leaves a subdivision of H - e with two
    # pendant paths, which is planar
    cut = delete_vertex(g, h.n)
    for obstruction in planar_obstructions():
        start = time.perf_counter()
        assert has_minor(obstruction, cut) is None
        assert time.perf_counter() - start < 2.0


def test_pendant_tree_and_isolated_vertices_are_dropped():
    k5 = complete(5)
    tree = [(0, 5), (5, 6), (5, 7), (7, 8), (2, 9)]
    g = Graph.from_edges(12, [*k5.edges(), *tree])  # 10 and 11 isolated
    w = has_minor(k5, g)
    assert w is not None and verify_witness(k5, g, w)
    assert has_minor(k5, delete_edge(g, 0, 1)) is None


def test_long_chains_collapse_before_backtracking():
    assert has_minor(complete(4), cycle(2000)) is None
    assert has_minor(complete(3), path(2000)) is None
    g = subdivided(complete(4), 300)
    w = has_minor(complete(4), g)
    assert w is not None and verify_witness(complete(4), g, w)


def test_answers_invariant_under_relabeling_on_gnp_hosts():
    hs = [complete(5), complete_bipartite(3, 3), complete_bipartite(2, 3)]
    # hosts from a fixed pool as in the stream-hosts bench, labels from a
    # second seed
    pool, rng = random.Random(17030), random.Random(17031)
    seen = set()
    for i in range(12):
        g = random_graph(pool, 9, 0.2 + 0.5 * i / 11)
        answers = [has_minor(h, g) is not None for h in hs]
        seen.update(enumerate(answers))
        for _ in range(2):
            r = relabeled(rng, g)
            for h, expected in zip(hs, answers):
                w = has_minor(h, r)
                assert (w is not None) == expected
                assert w is None or verify_witness(h, r, w)
    assert seen == {(j, a) for j in range(len(hs)) for a in (False, True)}


# ---------------------------------------------------------------------------
# Certificates: verified planar embeddings, the edge budget, elimination width


def _nx_planar(nx, g: Graph) -> bool:
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return nx.check_planarity(ng)[0]


def _embeds(g: Graph) -> bool:
    act = (1 << g.n) - 1
    rot = _lr_rotation(g.rows, act)
    return rot is not None and _is_plane_rotation(g.rows, act, rot)


def test_wagner_planarity_oracle_on_atlas():
    # Wagner: a graph is planar iff it has neither a K5 nor a K3,3 minor; the
    # left-right test finds a verified embedding exactly for those graphs
    nx = pytest.importorskip("networkx")
    k5, k33 = complete(5), complete_bipartite(3, 3)
    for n in range(8):
        for g in enumerate_graphs(n):
            planar = _nx_planar(nx, g)
            neither = has_minor(k5, g) is None and has_minor(k33, g) is None
            assert neither == planar
            assert _embeds(g) == planar, encode_graph6(g)


def stacked_triangulation(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Edges of a maximal planar graph grown by putting each new vertex in a
    random triangular face."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return edges


def test_lr_embedding_matches_networkx_on_large_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(6060)
    seen = set()
    for n in (10, 30, 100, 300):
        for _ in range(6):
            # G(n, p) around the planarity threshold
            gnp = random_graph(rng, n, rng.uniform(0.5, 2.5) / n)
            # a planar graph plus one random edge
            edges = [e for e in stacked_triangulation(rng, n) if rng.random() < 0.7]
            plus = Graph.from_edges(n, edges).with_edge(*rng.sample(range(n), 2))
            for kind, g in (("gnp", gnp), ("plus-edge", plus)):
                planar = _embeds(g)
                assert planar == _nx_planar(nx, g), (kind, encode_graph6(g))
                seen.add((kind, planar))
    assert seen == {(k, p) for k in ("gnp", "plus-edge") for p in (False, True)}


def test_face_check_rejects_tampered_rotations():
    octahedron = join(independent(2), join(independent(2), independent(2)))
    act = (1 << octahedron.n) - 1
    rot = _lr_rotation(octahedron.rows, act)
    assert _is_plane_rotation(octahedron.rows, act, rot)
    # swapping two neighbours at one vertex changes its cyclic order
    swapped = dict(rot)
    swapped[0] = [rot[0][1], rot[0][0], *rot[0][2:]]
    assert not _is_plane_rotation(octahedron.rows, act, swapped)
    omitted = dict(rot)
    omitted[0] = rot[0][1:]
    assert not _is_plane_rotation(octahedron.rows, act, omitted)
    # the same cyclic order from another starting point is the same rotation
    rotated = dict(rot)
    rotated[0] = [*rot[0][1:], rot[0][0]]
    assert _is_plane_rotation(octahedron.rows, act, rotated)


def test_rejected_embedding_decides_nothing(monkeypatch):
    # an embedder that calls every graph planar, with neighbours in label
    # order, can only cost time: the face check rejects its rotations of
    # nonplanar hosts and the search decides
    rng = random.Random(4242)
    hosts = [random_graph(rng, 8, 0.2 + 0.05 * i) for i in range(10)]
    hs = [complete(5), complete_bipartite(3, 3), complete(4), complete_bipartite(2, 3)]
    expected = [[has_minor(h, g) is not None for h in hs] for g in hosts]
    verdicts = []

    def label_order(rows, act):
        return {v: list(_bits(rows[v] & act)) for v in _bits(act)}

    def recorded(rows, act, rot):
        verdicts.append(_is_plane_rotation(rows, act, rot))
        return verdicts[-1]

    monkeypatch.setattr(minors, "_lr_rotation", label_order)
    monkeypatch.setattr(minors, "_is_plane_rotation", recorded)
    assert [[has_minor(h, g) is not None for h in hs] for g in hosts] == expected
    assert False in verdicts


def test_planar_host_k33_answer_is_fast():
    # planar, 9 vertices, 18 edges, minimum degree 3: no reduction applies,
    # and the backtracker alone took over a second per call
    g = parse_graph6("HzPIgMx")
    rng = random.Random(9090)
    for _ in range(6):
        r = relabeled(rng, g)
        start = time.perf_counter()
        assert has_minor(complete_bipartite(3, 3), r) is None
        assert time.perf_counter() - start < 0.5


def test_elimination_width_cannot_fire_below_degree_four():
    # a nonempty host that _reduce leaves unchanged has minimum degree >= d
    # for d <= 3, so its elimination width is never below d and _excluded
    # skips the test
    unchanged = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            act = (1 << n) - 1
            for d in (1, 2, 3):
                if minors._reduce(g.rows, act, d) is None:
                    assert not minors._elimination_width_below(g.rows, act, d)
                    unchanged += 1
    assert unchanged > 1000


def test_elimination_width_settles_k6_in_k4_12():
    # tw(K4,12) = 4 < 5 = minimum degree of K6; the backtracker took 12 s
    start = time.perf_counter()
    assert has_minor(complete(6), complete_bipartite(4, 12)) is None
    assert time.perf_counter() - start < 3.0


def test_edge_budget_separates_the_petersen_family():
    # the members share 15 edges, so in the 10-vertex Petersen graph each
    # smaller member would need 15 + 10 - n(H) > 15 edges
    pet = petersen()
    start = time.perf_counter()
    for h in linkless_obstructions():
        assert (has_minor(h, pet) is not None) == are_isomorphic(h, pet)
    assert time.perf_counter() - start < 1.0


def test_hosts_of_equal_order_and_size_contain_only_themselves():
    # the certificates skip a host of H's order and size, so the search alone
    # decides these pairs; over the n <= 6 atlas it must find H only in H
    by_size: dict[tuple[int, int], list[Graph]] = {}
    for n in range(7):
        for g in enumerate_graphs(n):
            by_size.setdefault((g.n, g.edge_count), []).append(g)
    pairs = yes = 0
    for same in by_size.values():
        for h in same:
            for g in same:
                w = has_minor(h, g)
                assert (w is not None) == (g == h), (encode_graph6(h), encode_graph6(g))
                pairs += 1
                yes += w is not None
    assert (pairs, yes) == (2889, 209)


def test_pattern_profile_matches_networkx():
    # nonplanar and not outerplanar, computed from scratch by minor tests
    # that reach _profile again on smaller patterns only
    nx = pytest.importorskip("networkx")
    patterns = [g for n in range(7) for g in enumerate_graphs(n)]
    patterns += [complete(6), complete_bipartite(3, 4), petersen(), *linkless_obstructions()]
    assert len(patterns) == 219
    minors._profile.cache_clear()
    for h in patterns:
        expected = (not _nx_planar(nx, h), not _nx_planar(nx, join(h, complete(1))))
        assert minors._profile(h, (1 << h.n) - 1) == expected, encode_graph6(h)
    # the elimination-width certificate is bounded by the minimum degree
    # rather than the degeneracy; on the patterns the scans test for they
    # are equal, so the certificate is as strong as the degeneracy's there
    scanned = [complete(r) for r in range(3, 7)]
    scanned += [complete_bipartite(s, t) for s, t in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))]
    scanned += linkless_obstructions()
    for h in scanned:
        ng = nx.Graph(list(h.edges()))
        assert min(h.degrees()) == max(nx.core_number(ng).values()), encode_graph6(h)


# ---------------------------------------------------------------------------
# Forbidden families


def test_outerplanar():
    assert is_outerplanar(cycle(5))
    assert is_outerplanar(path(6))
    assert not is_outerplanar(complete(4))
    assert not is_outerplanar(complete_bipartite(2, 3))
    assert outerplanar_obstructions() == (complete(4), complete_bipartite(2, 3))


def test_planar():
    assert is_planar(complete(4))
    assert is_planar(cycle(8))
    assert not is_planar(complete(5))
    assert not is_planar(complete_bipartite(3, 3))
    assert not is_planar(petersen())
    assert planar_obstructions() == (complete(5), complete_bipartite(3, 3))


def test_linkless():
    assert is_linkless(complete(5))
    assert is_linkless(complete_bipartite(3, 3))
    assert not is_linkless(complete(6))
    assert not is_linkless(petersen())
    assert not is_linkless(complete_bipartite(4, 4))
    assert not is_linkless(join(complete(1), complete_bipartite(3, 3)))  # K_{3,3,1}
    assert len(linkless_obstructions()) == 7


def test_class_hierarchy_exhaustive():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if is_outerplanar(g):
                assert is_planar(g)
            if is_planar(g):
                assert is_linkless(g)


# ---------------------------------------------------------------------------
# Delta-wye


def test_triangles():
    assert len(list(triangles(complete(4)))) == 4
    assert list(triangles(cycle(4))) == []
    assert len(list(triangles(complete(5)))) == 10


def test_delta_to_y():
    star = delta_to_y(complete(3), (0, 1, 2))
    assert are_isomorphic(star, complete_bipartite(1, 3))
    assert star.edge_count == 3
    with pytest.raises(ValueError):
        delta_to_y(cycle(4), (0, 1, 2))


def test_y_to_delta():
    star = complete_bipartite(1, 3)
    assert are_isomorphic(y_to_delta(star, 0), complete(3))
    with pytest.raises(ValueError):
        y_to_delta(path(3), 1)  # degree 2
    with pytest.raises(ValueError):
        y_to_delta(complete(4), 0)  # neighbors pairwise adjacent


def test_closure_small_seeds():
    c3 = delta_y_closure(complete(3))
    assert len(c3) == 2
    assert any(are_isomorphic(g, complete_bipartite(1, 3)) for g in c3)
    c4 = delta_y_closure(complete(4))
    assert len(c4) == 2
    assert any(are_isomorphic(g, complete_bipartite(2, 3)) for g in c4)


def test_petersen_family():
    fam = linkless_obstructions()
    assert len(fam) == 7
    assert all(g.edge_count == 15 for g in fam)
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            assert not are_isomorphic(fam[i], fam[j])
    assert any(are_isomorphic(g, complete(6)) for g in fam)
    assert any(are_isomorphic(g, petersen()) for g in fam)
    # the complete tripartite K_{3,3,1} and K_{4,4} less one edge are members
    k331 = join(complete(1), complete_bipartite(3, 3))
    assert any(are_isomorphic(g, k331) for g in fam)
    k44e = delete_edge(complete_bipartite(4, 4), 0, 4)
    assert any(are_isomorphic(g, k44e) for g in fam)
    pet = [g for g in fam if g.n == 10]
    assert len(pet) == 1 and girth(pet[0]) == 5


def test_shipped_petersen_family_is_the_closure_of_k6():
    # the graph6 constants must be the closure itself, labels and order
    # included: the pinned witness digests depend on both
    assert linkless_obstructions() == delta_y_closure(complete(6))


def test_petersen_family_load_computes_no_form(monkeypatch):
    def no_form(*args):
        raise AssertionError("canonical form computed")

    monkeypatch.setattr(canon, "_key", no_form)
    monkeypatch.setattr(canon, "canonical_key", no_form)
    monkeypatch.setattr(minors, "canonical_key", no_form)  # the name minors calls
    linkless_obstructions.cache_clear()
    try:
        assert len(linkless_obstructions()) == 7
    finally:
        linkless_obstructions.cache_clear()


# ---------------------------------------------------------------------------
# Clique completion and the star-free edge bound


def test_clique_completion_kr_safe():
    family = FamilySpec.kr_minor_free(5)
    g = complete_bipartite(3, 9)
    assert clique_completion_safe(g, (0, 1, 2), family)
    # already complete apex: a no-op
    g2 = join(complete(3), independent(9))
    assert clique_completion_safe(g2, (0, 1, 2), family)


def test_clique_completion_cdv_unsafe():
    # K5 less an edge is planar; completing the missing pair gives K5
    family = FamilySpec.cdv_at_most(3)
    g = delete_edge(complete(5), 0, 1)
    assert clique_completion_safe(g, (0, 1), family) is False


def test_clique_completion_kst():
    family = FamilySpec.kst_minor_free(3, 3)
    g = complete_bipartite(2, 4)
    assert clique_completion_safe(g, (0, 1), family)


def test_clique_completion_hypothesis_errors():
    family = FamilySpec.kr_minor_free(5)
    with pytest.raises(HypothesisViolation):
        clique_completion_safe(complete(5), (0, 1, 2), family)  # not a member
    with pytest.raises(HypothesisViolation):
        clique_completion_safe(complete_bipartite(3, 9), (0, 1), family)  # wrong |K|
    with pytest.raises(HypothesisViolation):
        clique_completion_safe(complete_bipartite(3, 4), (0, 1, 2), family)  # small T
    with pytest.raises(ValueError):
        clique_completion_safe(complete_bipartite(3, 9), (0, 1, 99), family)


def test_max_degree_residual_bound():
    assert max_degree_residual_bound(path(5), 3)
    assert max_degree_residual_bound(cycle(6), 3)
    # octahedron: K_{1,5}-minor-free at order 6 yet above the t=5 line, so the
    # checker reports rather than asserts
    octa = join(independent(2), join(independent(2), independent(2)))
    assert octa.edge_count == 12
    assert max_degree_residual_bound(octa, 5) is False
    with pytest.raises(ValueError):
        max_degree_residual_bound(disjoint_union(path(2), path(2)), 3)
    with pytest.raises(ValueError):
        max_degree_residual_bound(complete_bipartite(1, 3), 3)  # has the minor
    with pytest.raises(ValueError):
        max_degree_residual_bound(path(3), 0)


def test_max_degree_residual_exhaustive_t4():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            if not g.is_connected() or has_minor(complete_bipartite(1, 4), g) is not None:
                continue
            assert max_degree_residual_bound(g, 4)
