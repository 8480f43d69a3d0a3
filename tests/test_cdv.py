"""Colin de Verdiere classification ladder and the reported inequalities."""

import random

import pytest

from spectralminors import (
    FamilySpec,
    MuClass,
    classify_mu,
    complete,
    complete_bipartite,
    construct_cdv_extremal,
    cycle,
    delete_vertex,
    enumerate_graphs,
    family_filter,
    has_minor,
    independent,
    is_path_union,
    join,
    path,
    petersen,
)
from spectralminors.cdv import mu_at_most
from spectralminors.graph import Graph

from helpers import (
    check_problem1,
    check_problem2,
    contract_edge,
    delete_edge,
    mu_join_bound,
    mu_kmm_check,
    random_graph,
)


def test_classification_ladder():
    assert classify_mu(path(5)).value == 1
    assert classify_mu(independent(3)).value == 1
    assert classify_mu(complete(1)).value == 1
    assert classify_mu(cycle(5)).value == 2
    assert classify_mu(complete_bipartite(1, 3)).value == 2
    assert classify_mu(complete(4)).value == 3
    assert classify_mu(complete_bipartite(2, 3)).value == 3
    assert classify_mu(complete(5)).value == 4
    assert classify_mu(complete_bipartite(3, 3)).value == 4
    assert classify_mu(complete(6)).value == 5
    assert classify_mu(petersen()).value == 5
    assert classify_mu(complete_bipartite(4, 4)).value == 5


def test_labels_and_witnesses():
    assert classify_mu(path(5)).label == "<=1"
    assert classify_mu(path(5)).witness == "disjoint-paths"
    assert classify_mu(cycle(5)).label == "=2"
    assert classify_mu(cycle(5)).witness == "outerplanar"
    assert classify_mu(complete(4)).witness == "planar"
    assert classify_mu(complete(5)).witness == "linkless"
    assert classify_mu(complete(6)).label == ">=5"
    assert classify_mu(complete(6)).witness == "none"


def test_at_most():
    c = classify_mu(complete(4))
    assert c.at_most(3) and c.at_most(4)
    assert not c.at_most(2)
    # mu(K9) = 8, so the ">=5" class answers no m >= 5, nor any m below 1
    c = classify_mu(complete(9))
    assert c.value == 5 and not c.at_most(4)
    for m in (0, 5, 8):
        with pytest.raises(ValueError, match="1..4"):
            c.at_most(m)


def test_mu_at_most_matches_ladder():
    for n in range(7):
        for g in enumerate_graphs(n):
            value = classify_mu(g).value
            for m in range(1, 5):
                want = value <= m
                assert mu_at_most(g, m) == want, (g, m)
                assert family_filter(FamilySpec.cdv_at_most(m), g) == want, (g, m)
    for m in (0, 5):
        with pytest.raises(ValueError):
            mu_at_most(complete(3), m)


def test_path_union_is_the_k3_and_k13_minor_free_class():
    # level 1 reads degrees and edge counts; this is the minor
    # characterization it stands for
    k3, k13 = complete(3), complete_bipartite(1, 3)
    graphs = unions = 0
    for n in range(8):
        for g in enumerate_graphs(n):
            minor_free = has_minor(k3, g) is None and has_minor(k13, g) is None
            assert is_path_union(g) == minor_free, g
            graphs += 1
            unions += minor_free
    assert (graphs, unions) == (1253, 45)


def test_construction_classes():
    for m in (2, 3, 4):
        for n in range(m + 1, 11):
            assert classify_mu(construct_cdv_extremal(n, m)).value == m, (n, m)
        # at n = m the path degenerates to one vertex and the join is K_m
        assert classify_mu(construct_cdv_extremal(m, m)).value == m - 1


def test_class_minor_monotone():
    rng = random.Random(515151)
    for trial in range(250):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        h = g
        for _ in range(rng.randint(1, 3)):
            ops = []
            if h.n > 1:
                ops.append("dv")
            if h.edge_count:
                ops.extend(["de", "ce"])
            if not ops:
                break
            op = rng.choice(ops)
            if op == "dv":
                h = delete_vertex(h, rng.randrange(h.n))
            elif op == "de":
                h = delete_edge(h, *rng.choice(list(h.edges())))
            else:
                h = contract_edge(h, *rng.choice(list(h.edges())))
        if h.n == 0:
            continue
        assert classify_mu(h).value <= classify_mu(g).value


def test_mu_join_bound():
    bound, exact = mu_join_bound(complete(5), 4, classify_mu(complete(4)))
    assert bound == 4 and exact
    assert classify_mu(complete(5)).value == 4
    wheel = join(complete(1), cycle(4))
    bound, exact = mu_join_bound(wheel, 0, classify_mu(cycle(4)))
    assert bound == 3 and exact
    assert classify_mu(wheel).value == 3
    # non-universal vertex: the bound holds but is not certified exact
    bound, exact = mu_join_bound(cycle(5), 0, classify_mu(path(4)))
    assert bound == 2 and not exact
    assert classify_mu(cycle(5)).value == 2
    # an edgeless graph never certifies equality
    bound, exact = mu_join_bound(independent(3), 0, 1)
    assert not exact
    with pytest.raises(ValueError):
        mu_join_bound(cycle(4), 7, 2)
    # accepts a plain integer for the reduced graph's value
    assert mu_join_bound(complete(3), 0, 1) == (2, True)


def test_join_bound_holds_for_classes():
    rng = random.Random(626262)
    for trial in range(120):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        v = rng.randrange(g.n)
        bound, _ = mu_join_bound(g, v, classify_mu(delete_vertex(g, v)))
        assert classify_mu(g).value <= bound


def test_problem1():
    assert check_problem1(path(5), 1)  # 4 <= 4, tight
    assert check_problem1(cycle(4), 2)  # 4 <= 5
    assert check_problem1(complete(4), 3)  # 6 <= 6, tight
    assert check_problem1(complete(5), 4)  # 10 <= 10, tight
    # small orders fall below the line: the checker reports, it does not assert
    assert check_problem1(complete(1), 4) is False
    assert check_problem1(complete(3), 4) is False
    with pytest.raises(ValueError):
        check_problem1(cycle(4), 1)  # class 2 graph is not verified mu <= 1
    with pytest.raises(ValueError):
        check_problem1(complete(6), 4)  # class >= 5
    with pytest.raises(ValueError):
        check_problem1(path(3), 0)
    with pytest.raises(ValueError):
        check_problem1(path(3), 5)


def test_problem2():
    assert check_problem2(complete_bipartite(3, 3))  # 9 <= 9, tight
    cube = Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
            (0, 4), (1, 5), (2, 6), (3, 7)]
    )
    assert check_problem2(cube)  # 12 <= 15
    assert check_problem2(cycle(4)) is False  # 4 > 3
    with pytest.raises(ValueError):
        check_problem2(complete(3))  # not bipartite
    with pytest.raises(ValueError):
        check_problem2(complete_bipartite(4, 4))  # not linkless
    with pytest.raises(ValueError):
        check_problem2(petersen())  # not bipartite


def test_mu_kmm():
    assert mu_kmm_check(3)
    assert mu_kmm_check(4)
    with pytest.raises(ValueError):
        mu_kmm_check(2)
    with pytest.raises(ValueError):
        mu_kmm_check(5)


def test_star_join_raises_class():
    # K_{1,3} sits in class 2; joining m-1 universal vertices lands m+1,
    # matching the class of the construction's forbidden pattern
    base = complete_bipartite(1, 3)
    assert classify_mu(base).value == 2
    for m in (2, 3):
        g = join(complete(m - 1), base)
        assert classify_mu(g).value == m + 1


def test_muclass_is_value_object():
    a = MuClass(3, "=3", "planar")
    b = classify_mu(complete(4))
    assert a == b
