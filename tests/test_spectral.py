"""Power iteration and Lanczos solves, Rayleigh quotient deltas, and the
closed-form bounds."""

import hashlib
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from spectralminors import (
    ConvergenceError,
    QuotientMatrix,
    complete,
    complete_bipartite,
    construct_cdv_extremal,
    construct_kr_extremal,
    construct_kst_extremal,
    cycle,
    disjoint_union,
    encode_graph6,
    enumerate_graphs,
    independent,
    join,
    kst_lambda_bound,
    path,
    petersen,
    quotient_bound,
    spectral_radius,
    two_walk_bound,
)
from spectralminors import graph, spectral
from spectralminors.graph import Graph

from helpers import (check_interlacing_bound, delete_edge, random_graph, rayleigh_delta,
                     sturm_above)


# ---------------------------------------------------------------------------
# spectral_radius on graphs with known spectra


def test_known_values():
    assert abs(spectral_radius(complete(4)).lam - 3.0) < 1e-10
    assert abs(spectral_radius(cycle(6)).lam - 2.0) < 1e-10
    assert abs(spectral_radius(complete_bipartite(2, 3)).lam - math.sqrt(6)) < 1e-10
    assert abs(spectral_radius(path(4)).lam - (1 + math.sqrt(5)) / 2) < 1e-10
    assert abs(spectral_radius(petersen()).lam - 3.0) < 1e-10
    assert spectral_radius(complete(1)).lam == 0.0
    assert abs(spectral_radius(independent(5)).lam) < 1e-12


def test_join_clique_independent():
    # K2 join E3 has quotient [[1, 3], [2, 0]]: lambda = (1 + sqrt(1 + 24)) / 2 = 3
    g = construct_kr_extremal(5, 4)
    assert abs(spectral_radius(g).lam - 3.0) < 1e-10


def test_result_invariants():
    rng = random.Random(52)
    for trial in range(60):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        res = spectral_radius(g)
        assert res.lam >= -1e-12
        assert max(res.vector) == 1.0
        assert res.vector[res.max_vertex] == 1.0
        assert all(v >= 0.0 for v in res.vector)
        assert res.residual <= 1e-12
        assert res.iterations >= 0
        # classical sandwich: average degree and sqrt(max degree) below,
        # max degree above
        if n >= 1:
            assert res.lam >= 2.0 * g.edge_count / n - 1e-9
            assert res.lam <= g.max_degree() + 1e-9
            if g.edge_count:
                assert res.lam >= math.sqrt(g.max_degree()) - 1e-9


def test_disconnected_support():
    # the reported pair comes from the component with the largest radius
    g = disjoint_union(path(2), complete(3))
    res = spectral_radius(g)
    assert abs(res.lam - 2.0) < 1e-10
    assert res.vector[0] == 0.0 and res.vector[1] == 0.0
    assert res.max_vertex >= 2
    # exact tie between components resolves to the lowest-indexed one
    g = disjoint_union(complete(3), cycle(4))
    res = spectral_radius(g)
    assert abs(res.lam - 2.0) < 1e-10
    assert res.max_vertex < 3
    assert all(v == 0.0 for v in res.vector[3:])


def test_lone_vertices_are_never_solved(monkeypatch):
    # the search starts from vertex 0's answer, which only a component with
    # an edge beats, so no isolated vertex builds edge arrays
    calls = []
    real = spectral._edge_arrays

    def counting(rows, n):
        calls.append(len(rows))
        return real(rows, n)

    monkeypatch.setattr(spectral, "_edge_arrays", counting)
    res = spectral_radius(Graph.empty(300))
    assert calls == []
    assert (res.lam, res.residual, res.iterations, res.max_vertex) == (0.0, 0.0, 0, 0)
    assert res.vector == (1.0,) + (0.0,) * 299
    res = spectral_radius(disjoint_union(Graph.empty(3), complete(2), Graph.empty(2)))
    assert calls == [2]
    assert res.lam == 1.0 and res.max_vertex == 3


def test_edge_monotonicity_connected():
    rng = random.Random(4242)
    trials = 0
    while trials < 200:
        n = rng.randint(2, 10)
        g = random_graph(rng, n, 0.3 + rng.random() * 0.5)
        if not g.is_connected():
            continue
        non_edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        lam0 = spectral_radius(g).lam
        lam1 = spectral_radius(g.with_edge(u, v)).lam
        assert lam1 - lam0 > 1e-9
        trials += 1


def test_induced_subgraph_bound():
    rng = random.Random(63)
    for trial in range(80):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.random())
        keep = [v for v in range(n) if rng.random() < 0.7]
        if not keep:
            continue
        sub = g.induced_subgraph(keep)
        assert spectral_radius(sub).lam <= spectral_radius(g).lam + 1e-9


def test_errors():
    with pytest.raises(ValueError):
        spectral_radius(Graph.empty(0))


def test_small_components_keep_their_bits():
    # SHA-256 over repr(lam) and the vector of every atlas graph with
    # 1 <= n <= 7 and of seeded random graphs on 8 to 64 vertices, taken while
    # every component was solved by the power iteration and its dense seed:
    # components of at most DENSE_SEED_MAX vertices still solve bit for bit
    # that way
    digest = hashlib.sha256()
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    rng = random.Random(64)
    graphs += [random_graph(rng, rng.randint(8, 64), rng.random()) for _ in range(200)]
    for g in graphs:
        res = spectral_radius(g)
        digest.update(repr((res.lam, res.vector)).encode())
    assert digest.hexdigest() == (
        "cad98593f7cea72ec46aff2dfd831a1f85653d7398dd635866b2dfcbe15389a8")


def test_unreachable_tolerance_stagnates_fast(monkeypatch):
    # 1e-16 * lambda ~ 4.5e-15 is below what rounding allows at lambda ~ 44.6:
    # the least residual, 7.1e-15, is reached at the first Lanczos
    # certificate, product 5, and the solve gives up STAGNATION_WINDOW
    # products later, long before ITERATION_CAP
    monkeypatch.setattr(spectral, "TOL", 1e-16)
    with pytest.raises(ConvergenceError, match=r"300-vertex component stagnated: "
                       r"no residual below the least, \S+ at iteration \d+, in the 1000") as exc:
        spectral_radius(construct_kr_extremal(300, 8))
    least_it = int(re.search(r"at iteration (\d+)", str(exc.value))[1])
    assert least_it + spectral.STAGNATION_WINDOW == 5 + 1000 < spectral.ITERATION_CAP


def assert_relative_residual(res):
    assert res.residual <= 1e-12 * max(1.0, res.lam)


def test_long_path_closed_form():
    # P1000 has spectral gap ~1e-5: the Lanczos steps exhaust its 500
    # mirror-symmetric dimensions
    res = spectral_radius(path(1000))
    assert res.lam == pytest.approx(2.0 * math.cos(math.pi / 1001), rel=1e-12, abs=0.0)
    assert_relative_residual(res)


def test_large_join_closed_form():
    # lambda ~ 292: an absolute 1e-12 residual is below the rounding error of
    # the product, the relative rule stops in a few products
    res = spectral_radius(construct_kr_extremal(2000, 40))
    expected = quotient_bound(QuotientMatrix(37, 0, 38, 1962))
    assert res.lam == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert_relative_residual(res)
    assert res.iterations <= 10


def test_long_path_past_2048_vertices():
    # from the all-ones vector the Krylov space of P2100 is its 1050
    # mirror-symmetric dimensions, which the Lanczos steps exhaust
    res = spectral_radius(path(2100))
    assert res.lam == pytest.approx(2.0 * math.cos(math.pi / 2101), rel=1e-12, abs=0.0)
    assert_relative_residual(res)
    assert res.iterations <= 2100 // 2 + 2


@pytest.mark.parametrize("leaves", [5000, 20000])
def test_star_solves_in_a_few_products(leaves):
    # lambda = sqrt(leaves) sits far below max degree + 1, the shift a power
    # iteration would need; from the all-ones vector the Krylov space of a
    # star has two dimensions
    res = spectral_radius(complete_bipartite(1, leaves))
    assert res.lam == pytest.approx(math.sqrt(leaves), rel=1e-12, abs=0.0)
    assert_relative_residual(res)
    assert res.iterations <= 10


def test_lanczos_components_match_eigvalsh():
    rng = random.Random(65)
    for trial in range(24):
        k = rng.randint(spectral.DENSE_SEED_MAX + 1, 400)
        kind = trial % 4
        if kind == 0:
            g = random_graph(rng, k, rng.uniform(0.02, 0.3))
        elif kind == 1:
            g = Graph.from_edges(k, [(v, rng.randrange(v)) for v in range(1, k)])
        elif kind == 2:
            c = rng.randint(1, 6)
            g = join(complete(c), random_graph(rng, k - c, 2.0 / k))
        else:
            # two cliques bridged by a long path: a small spectral gap
            a = rng.randint(3, 20)
            g = disjoint_union(complete(a), path(k - 2 * a), complete(a))
            g = g.with_edge(a - 1, a).with_edge(k - a - 1, k - a)
        if not g.is_connected():
            continue
        res = spectral_radius(g)
        adj = np.zeros((k, k))
        for u, v in g.edges():
            adj[u, v] = adj[v, u] = 1.0
        top = float(np.linalg.eigvalsh(adj)[-1])
        assert res.lam == pytest.approx(top, rel=1e-12, abs=0.0)
        assert_relative_residual(res)
        assert min(res.vector) >= 0.0 and res.vector[res.max_vertex] == 1.0


def test_top_eigenpair_of_a_tridiagonal():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 10, 80):
        for scale in (1e-3, 1.0, 300.0):
            alpha = scale * rng.normal(size=m)
            beta = scale * rng.uniform(1e-6, 1.0, size=m - 1)
            t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, s = spectral._top_eigenpair(alpha, beta)
            bound = 1e-13 * np.abs(t).sum(axis=1).max()
            assert abs(theta - np.linalg.eigvalsh(t)[-1]) <= bound
            assert s.min() > 0.0 and abs(s @ s - 1.0) < 1e-14
            assert np.abs(t @ s - theta * s).max() <= bound


def _seeded_tridiagonal(rng, trial):
    """A symmetric tridiagonal of order 1 to 200 with positive off-diagonal,
    its diagonal by trial mod 4: normal, clustered within 1e-12, three
    values, or zero with unit off-diagonal (a path's), at a random scale."""
    m = int(rng.integers(1, 201))
    scale = 10.0 ** rng.uniform(-3, 3)
    kind = trial % 4
    if kind == 0:
        alpha = rng.normal(size=m)
    elif kind == 1:
        alpha = rng.normal() + 1e-12 * rng.normal(size=m)
    elif kind == 2:
        alpha = rng.choice([0.0, 1.0, 2.0], size=m)
    else:
        alpha = np.zeros(m)
    beta = np.ones(m - 1) if kind == 3 else rng.uniform(1e-8, 1.0, size=m - 1)
    return scale * alpha, scale * beta


def test_sturm_test_is_monotone():
    # _top_eigenpair's bisection ends on the least passing float because the
    # floating-point Sturm test is monotone in x (Demmel, Dhillon and Ren
    # 1995): it fails at every float below that one and passes at every float
    # above
    rng = np.random.default_rng(1995)
    for trial in range(200):
        alpha, beta = _seeded_tridiagonal(rng, trial)
        a, b2 = alpha.tolist(), (beta * beta).tolist()
        top = spectral._top_eigenpair(alpha, beta)[0]
        xs = [top]
        below = above = top
        for _ in range(40):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            xs += [below, above]
        spread = max(a) - min(a) + 2.0 * max(beta.tolist(), default=1.0)
        xs += rng.uniform(min(a) - spread, top + spread, size=60).tolist()
        xs.sort()
        passes = [sturm_above(a, b2, x) for x in xs]
        assert passes == sorted(passes), trial
        assert sturm_above(a, b2, top) and not sturm_above(a, b2, math.nextafter(top, -math.inf))


def assert_least_float_above(alpha, beta, got):
    # the value is the least float that passes the Sturm test, and the
    # vector is positive with unit norm
    lam, s = got
    a, b2 = alpha.tolist(), (beta * beta).tolist()
    assert sturm_above(a, b2, lam) and not sturm_above(a, b2, math.nextafter(lam, -math.inf))
    assert s.min() > 0.0 and abs(math.fsum(s * s) - 1.0) < 1e-14


def test_top_eigenpair_matches_plain_bisection():
    rng = np.random.default_rng(30)
    for trial in range(400):
        alpha, beta = _seeded_tridiagonal(rng, trial)
        assert_least_float_above(alpha, beta, spectral._top_eigenpair(alpha, beta))


def _benchmark_solves():
    """The graphs of the large-spectral benchmark, relabelled as its seed 1
    relabels them, and P2100."""
    graphs = [construct_kr_extremal(1800, 32), construct_kr_extremal(900, 20),
              construct_kr_extremal(300, 8), construct_kst_extremal(2005, 6, 10),
              construct_kst_extremal(1010, 11, 20), construct_kst_extremal(500, 3, 7),
              construct_cdv_extremal(1200, 4), construct_cdv_extremal(400, 3),
              path(100), path(200), path(300)]
    rng = random.Random(1)
    return [g.relabel(rng.sample(range(g.n), g.n)) for g in graphs] + [path(2100)]


def test_top_eigenpair_matches_plain_bisection_on_benchmark_solves(monkeypatch):
    # every call made while solving the benchmark graphs
    calls = []
    real = spectral._top_eigenpair

    def recording(alpha, beta):
        got = real(alpha, beta)
        calls.append((alpha.copy(), beta.copy(), got))
        return got

    monkeypatch.setattr(spectral, "_top_eigenpair", recording)
    for g in _benchmark_solves():
        spectral_radius(g)
    assert len(calls) >= 50
    for alpha, beta, got in calls:
        assert_least_float_above(alpha, beta, got)


def test_lanczos_solves_keep_their_bits():
    # SHA-256 over every field of the EigenResults of the benchmark graphs,
    # taken while _top_eigenpair bracketed by safeguarded Newton steps: plain
    # bisection ends on the same floats
    digest = hashlib.sha256()
    for g in _benchmark_solves():
        res = spectral_radius(g)
        digest.update(repr((res.lam, res.vector, res.residual, res.iterations,
                            res.max_vertex)).encode())
    assert digest.hexdigest() == (
        "ba0c1d21a125caee80e9cc4f396c2fb58541d7b4bc96156febb00bbf0383bffe")


def test_lanczos_basis_stays_under_its_cap(monkeypatch):
    # P20000 fits 209 basis rows in BASIS_BYTES; with a cap of 300 products
    # an uncapped basis would take 299 rows, about 46 MiB
    g = path(20000)
    monkeypatch.setattr(spectral, "ITERATION_CAP", 300)
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="did not converge in 300 iterations"):
            spectral_radius(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectral.BASIS_BYTES == 32 << 20
    assert peak < spectral.BASIS_BYTES + (8 << 20)


def test_matches_eigvalsh_on_unions():
    rng = random.Random(1729)
    slow = [path(rng.randint(50, 400)) for _ in range(3)]
    slow += [cycle(rng.randint(50, 400)), complete_bipartite(3, 40)]
    for trial in range(24):
        parts = [random_graph(rng, rng.randint(1, 9), rng.random())
                 for _ in range(rng.randint(1, 4))]
        parts += [independent(rng.randint(0, 3)), rng.choice(slow)]
        if trial % 3 == 0:
            parts.append(join(complete(rng.randint(1, 4)), path(rng.randint(2, 60))))
        g = disjoint_union(*parts)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = g.relabel(perm)
        res = spectral_radius(g)
        adj = np.zeros((g.n, g.n))
        for u, v in g.edges():
            adj[u, v] = adj[v, u] = 1.0
        comp_lams = [float(np.linalg.eigvalsh(adj[np.ix_(c, c)])[-1]) for c in g.components()]
        top = max(comp_lams)
        assert res.lam == pytest.approx(top, rel=1e-12, abs=1e-12)
        assert_relative_residual(res)
        # the lowest-indexed component attaining the maximum carries the vector
        winner = next(c for c, lam in zip(g.components(), comp_lams)
                      if lam >= top - 1e-9)
        support = [v for v in range(g.n) if res.vector[v] != 0.0]
        assert support == list(winner)
        assert all(x >= 0.0 for x in res.vector)
        assert max(res.vector) == 1.0 and res.vector[res.max_vertex] == 1.0
        if len(winner) > 1:
            assert res.iterations >= 1


def test_dense_seed_switch_and_ties(monkeypatch):
    # a slow component of at most DENSE_SEED_MAX vertices takes the eigh seed
    # after k products; a longer path takes Lanczos steps, which end within
    # the k / 2 dimensions of its mirror-symmetric vectors, plus the all-ones
    # product and the certificate
    seeds = []
    real = spectral._dense_seed
    monkeypatch.setattr(spectral, "_dense_seed",
                        lambda src, dst, k: seeds.append(k) or real(src, dst, k))
    res = spectral_radius(path(40))
    assert seeds == [40] and res.iterations == 40 + 2  # k products, seed, certificate
    assert_relative_residual(res)
    res = spectral_radius(path(200))
    assert seeds == [40] and res.iterations <= 200 // 2 + 2
    assert_relative_residual(res)
    # equal components: the first copy wins, bit for bit the same solve
    for part in (path(120), complete_bipartite(2, 7), cycle(9)):
        g = disjoint_union(part, independent(2), part)
        res = spectral_radius(g)
        alone = spectral_radius(part)
        assert res.lam == alone.lam and res.iterations == alone.iterations
        assert res.vector[:part.n] == alone.vector
        assert not any(res.vector[part.n:])


def test_edge_arrays_pack_at_most_a_block_of_rows(monkeypatch):
    # a component's rows are packed _BLOCK at a time into the same row-major
    # edge arrays as one whole pack, so the solve is bit for bit the same
    seen = []
    real = graph._packed

    def recording(rows, n):
        seen.append(len(rows))
        return real(rows, n)

    monkeypatch.setattr(graph, "_packed", recording)
    for g in (path(300), construct_kst_extremal(601, 3, 4)):
        assert g.is_connected() and g.n > graph._BLOCK
        seen.clear()
        blocked = spectral_radius(g)
        assert max(seen) <= graph._BLOCK and sum(seen) == g.n
        with monkeypatch.context() as m:
            m.setattr(graph, "_BLOCK", g.n)
            seen.clear()
            whole = spectral_radius(g)
        assert seen == [g.n]
        assert (blocked.lam, blocked.iterations) == (whole.lam, whole.iterations)
        assert blocked.vector == whole.vector


def test_convergence_error_names_the_component(monkeypatch):
    monkeypatch.setattr(spectral, "ITERATION_CAP", 5)
    # a power-iterated and a Lanczos-solved component hit the cap alike
    for k in (50, 100):
        with pytest.raises(ConvergenceError, match=rf"the solve of a {k}-vertex component.*"
                           r"last lambda .*"
                           r"residual .* > tol\*max\(1, lambda\)"):
            spectral_radius(disjoint_union(complete(3), path(k)))


# ---------------------------------------------------------------------------
# two_walk_bound


def per_edge_two_walks(g):
    """Reference for two_walk_bound: each row of A^2 summed edge by edge."""
    degs = g.degrees()
    return max((sum(degs[u] for u in g.neighbors(v)) for v in range(g.n)), default=0)


def test_two_walk_bound_on_the_atlas():
    # lambda^2 <= w on every graph with n <= 7, against eigvalsh, with
    # equality on the regular graphs
    for n in range(8):
        for g in enumerate_graphs(n):
            w = two_walk_bound(g)
            assert w == per_edge_two_walks(g), encode_graph6(g)
            adj = np.zeros((g.n, g.n))
            for u, v in g.edges():
                adj[u, v] = adj[v, u] = 1.0
            top = float(np.linalg.eigvalsh(adj)[-1]) if g.n else 0.0
            assert top * top <= w + 1e-9, encode_graph6(g)
            if len(set(g.degrees())) == 1:
                assert top * top == pytest.approx(w, abs=1e-9)


def test_two_walk_bound_unions_and_isolated_vertices():
    assert two_walk_bound(independent(0)) == 0
    assert two_walk_bound(independent(5)) == 0
    assert two_walk_bound(complete(1)) == 0
    # a union takes the largest of its parts; isolated vertices add nothing
    rng = random.Random(31)
    for _ in range(30):
        parts = [random_graph(rng, rng.randint(1, 12), rng.random())
                 for _ in range(rng.randint(1, 4))]
        g = disjoint_union(*parts, independent(rng.randint(0, 3)))
        w = two_walk_bound(g)
        assert w == per_edge_two_walks(g) == max(map(two_walk_bound, parts))
        assert spectral_radius(g).lam ** 2 <= w + 1e-9
    # a star: the centre's 2-walks return through each leaf, a leaf's go out
    # along the centre's k edges
    assert two_walk_bound(join(complete(1), independent(9))) == 9


@pytest.mark.parametrize("build, args", [
    (construct_kr_extremal, (1800, 32)),
    (construct_kst_extremal, (2005, 6, 10)),
    (construct_kst_extremal, (500, 3, 7)),
    (construct_cdv_extremal, (1200, 4)),
    (construct_cdv_extremal, (400, 3)),
])
def test_two_walk_bound_on_large_joins(build, args):
    g = build(*args)
    w = two_walk_bound(g)
    assert w == per_edge_two_walks(g)
    assert spectral_radius(g).lam ** 2 <= w


# ---------------------------------------------------------------------------
# rayleigh_delta


def test_rayleigh_delta_exact():
    g = cycle(4)
    ones = [1.0] * 4
    assert rayleigh_delta(g, ones, [(0, 1)], []) == pytest.approx(-0.5)
    assert rayleigh_delta(g, ones, [], [(0, 2)]) == pytest.approx(0.5)
    assert rayleigh_delta(g, ones, [(0, 1)], [(0, 2)]) == pytest.approx(0.0)
    # weighted vector
    h = Graph.from_edges(3, [(0, 1), (0, 2)])
    assert rayleigh_delta(h, [2.0, 1.0, 1.0], [], [(1, 2)]) == pytest.approx(2.0 / 6.0)
    assert rayleigh_delta(h, [2.0, 1.0, 1.0], [(0, 1)], []) == pytest.approx(-4.0 / 6.0)


def test_rayleigh_delta_lower_bounds_new_radius():
    # removing edge (u, v) moves the quotient by exactly -2 x_u x_v / |x|^2
    # at the old Perron vector, which stays a valid Rayleigh quotient of the
    # new graph, hence a lower bound on its spectral radius
    rng = random.Random(321)
    for trial in range(40):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, 0.6)
        if not g.is_connected() or g.edge_count < 2:
            continue
        res = spectral_radius(g)
        e = next(iter(g.edges()))
        delta = rayleigh_delta(g, res.vector, [e], [])
        lam_after = spectral_radius(delete_edge(g, *e)).lam
        assert lam_after >= res.lam + delta - 1e-9


def test_rayleigh_delta_errors():
    g = cycle(4)
    with pytest.raises(ValueError):
        rayleigh_delta(g, [1.0] * 3, [], [])
    with pytest.raises(ValueError):
        rayleigh_delta(g, [0.0] * 4, [], [])
    with pytest.raises(ValueError):
        rayleigh_delta(g, [1.0] * 4, [(0, 2)], [])  # not an edge
    with pytest.raises(ValueError):
        rayleigh_delta(g, [1.0] * 4, [], [(0, 1)])  # already an edge
    with pytest.raises(ValueError):
        rayleigh_delta(g, [1.0] * 4, [], [(2, 2)])  # loop
    with pytest.raises(ValueError):
        rayleigh_delta(g, [1.0] * 4, [], [(0, 9)])  # out of range
    with pytest.raises(ValueError, match="loop or malformed edge"):
        rayleigh_delta(path(3), [1, 1, 1], [(1, 1)], [])  # removed loop


# ---------------------------------------------------------------------------
# Closed-form bounds


def test_quotient_bound_values():
    assert quotient_bound(QuotientMatrix(1, 0, 2, 3)) == pytest.approx(3.0)
    assert quotient_bound(QuotientMatrix(0, 0, 1, 1)) == pytest.approx(1.0)
    # d-regular join with itself: [[d, n], [n, d]] has top eigenvalue d + n
    assert quotient_bound(QuotientMatrix(2, 2, 5, 5)) == pytest.approx(7.0)


def test_quotient_matrix_validation():
    with pytest.raises(ValueError):
        QuotientMatrix(0, 0, 0, 1)
    with pytest.raises(ValueError):
        QuotientMatrix(-1, 0, 2, 2)
    with pytest.raises(ValueError):
        QuotientMatrix(0, -2, 2, 2)
    # formal quotients with degree exceeding the side order are allowed
    assert quotient_bound(QuotientMatrix(0, 5, 1, 1)) > 0.0


def test_kst_bound_values():
    assert kst_lambda_bound(5, 2, 2) == pytest.approx((1 + math.sqrt(17)) / 2)
    # s = t = 2: (1 + sqrt(4n - 3)) / 2
    for n in range(2, 40):
        assert kst_lambda_bound(n, 2, 2) == pytest.approx((1 + math.sqrt(4 * n - 3)) / 2)
    with pytest.raises(ValueError):
        kst_lambda_bound(10, 3, 2)
    with pytest.raises(ValueError):
        kst_lambda_bound(1, 2, 2)


def test_kst_bound_equals_quotient_form():
    for s in range(2, 7):
        for t in range(s, 7):
            for n in range(s, 60):
                q = QuotientMatrix(s - 2, t - 1, s - 1, n - s + 1)
                assert abs(quotient_bound(q) - kst_lambda_bound(n, s, t)) < 1e-12


def test_kst_bound_solves_its_quadratic():
    # the larger root of x^2 - (s+t-3) x - ((s-1)(n-s+1) - (s-2)(t-1)),
    # checked without quotient_bound, which kst_lambda_bound calls
    for s in range(2, 7):
        for t in range(s, 7):
            for n in range(s, 60):
                a = s + t - 3
                c = (s - 1) * (n - s + 1) - (s - 2) * (t - 1)
                lam = kst_lambda_bound(n, s, t)
                assert abs(lam * lam - a * lam - c) <= 1e-12 * lam * lam, (n, s, t)
                assert lam > a / 2, (n, s, t)


def test_interlacing_tight_for_regular_second_factor():
    # K2 join 2K2: all factors regular, the quotient eigenvalue is attained
    h1 = complete(2)
    h2 = disjoint_union(complete(2), complete(2))
    chk = check_interlacing_bound(h1, h2)
    assert chk.tight
    assert chk.lam == pytest.approx(chk.bound, abs=1e-9)
    assert chk.bound == pytest.approx(1 + 2 * math.sqrt(2))


def test_interlacing_strict_for_irregular_second_factor():
    chk = check_interlacing_bound(complete(2), path(3))
    assert not chk.tight
    assert chk.lam < chk.bound - 1e-6
    assert chk.bound == pytest.approx(4.0)


def test_interlacing_errors():
    with pytest.raises(ValueError):
        check_interlacing_bound(path(3), complete(2))  # first factor not regular
    # QuotientMatrix owns the emptiness check and runs it before any solve
    for h1, h2 in ((complete(2), Graph.empty(0)), (Graph.empty(0), complete(2))):
        with pytest.raises(ValueError, match="both sides of a join must be nonempty"):
            check_interlacing_bound(h1, h2)
