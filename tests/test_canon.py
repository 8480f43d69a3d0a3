"""Canonical forms: relabeling invariance and non-isomorphic separation."""

import random
import time

from spectralminors import (
    Graph,
    are_isomorphic,
    canonical_key,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
    petersen,
)

from helpers import random_graph, relabeled


def test_key_is_relabeling_invariant():
    rng = random.Random(999)
    for trial in range(300):
        n = rng.randint(0, 10)
        g = random_graph(rng, n, rng.random())
        h = relabeled(rng, g)
        assert canonical_key(g) == canonical_key(h)
        assert are_isomorphic(g, h)


def test_separates_cospectral_mates():
    # same degree sequence, same order and size, different graphs
    assert not are_isomorphic(cycle(6), disjoint_union(cycle(3), cycle(3)))
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    assert not are_isomorphic(complete_bipartite(3, 3), prism)
    assert not are_isomorphic(path(4), disjoint_union(path(3), path(1)))
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not are_isomorphic(path(4), star)


def test_degree_prefilter_and_order():
    assert not are_isomorphic(complete(3), complete(4))
    assert not are_isomorphic(cycle(4), path(4))
    assert are_isomorphic(Graph.empty(0), Graph.empty(0))


def test_vertex_transitive_examples():
    p = petersen()
    rot = p.relabel([(i + 1) % 5 for i in range(5)] + [5 + (i + 1) % 5 for i in range(5)])
    assert canonical_key(p) == canonical_key(rot)
    assert are_isomorphic(cycle(7), cycle(7).relabel([3, 0, 5, 1, 6, 2, 4]))


def test_large_clique_fast():
    # cells of mutually interchangeable vertices must not trigger a factorial
    # branch walk; a complete graph is the worst case
    t0 = time.time()
    k = canonical_key(complete(40))
    assert k[0] == 40
    assert time.time() - t0 < 1.0
    t0 = time.time()
    assert canonical_key(complete_bipartite(20, 20))[0] == 40
    assert time.time() - t0 < 1.0
