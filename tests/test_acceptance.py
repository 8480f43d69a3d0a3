"""Acceptance gate: eleven numbered criteria, each printing one PASS/FAIL
line with its measured margin and elapsed time, then asserting. Tolerances
are pinned in each test body; changing them is an interface change."""

import random
import time

from spectralminors.canon import canonical_key
from spectralminors.cdv import classify_mu
from spectralminors.families import FamilySpec
from spectralminors.graph import (
    Graph,
    complete,
    complete_bipartite,
    construct_cdv_extremal,
    construct_kst_extremal,
    cycle,
    disjoint_union,
    encode_graph6,
    independent,
    parse_graph6,
    petersen,
    path,
)
from spectralminors.minors import delta_y_closure, has_minor
from spectralminors.search import (
    enumerate_graphs,
    reports_to_csv,
    scan_family,
    verify_membership,
)
from spectralminors.spectral import (
    QuotientMatrix,
    kst_lambda_bound,
    quotient_bound,
    spectral_radius,
)

from helpers import check_interlacing_bound, girth, oracle_has_minor

_SCAN_CACHE = {}


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _spectral_scan_reports(jobs):
    if jobs not in _SCAN_CACHE:
        reports = []
        for s, t in ((2, 2), (2, 3)):
            for n in (5, 6, 7):
                reports.append(
                    (s, t, scan_family(FamilySpec.kst_minor_free(s, t), n, jobs=jobs))
                )
        _SCAN_CACHE[jobs] = reports
    return _SCAN_CACHE[jobs]


def test_criterion_01_bound_formula_identity():
    start = time.time()
    dev = 0.0
    triples = 0
    for s in range(2, 7):
        for t in range(s, 7):
            for n in range(s, 201):
                a = quotient_bound(QuotientMatrix(s - 2, t - 1, s - 1, n - s + 1))
                b = kst_lambda_bound(n, s, t)
                dev = max(dev, abs(a - b))
                triples += 1
    elapsed = time.time() - start
    ok = dev <= 1e-12 and elapsed < 1.0
    assert _report(
        1, ok, f"max |quotient - closed form| {dev:.2e} over {triples} triples, {elapsed:.2f}s"
    )


def test_criterion_02_equality_case_joins():
    start = time.time()
    worst = 0.0
    cases = 0
    for s in (2, 3):
        for t in (2, 3, 4):
            if s > t:
                continue
            for k in range(1, 6):
                n = (s - 1) + k * t
                g = construct_kst_extremal(n, s, t)
                lam = spectral_radius(g).lam
                bound = kst_lambda_bound(n, s, t)
                worst = max(worst, abs(lam - bound))
                rep = verify_membership(g, FamilySpec.kst_minor_free(s, t))
                assert rep.member and rep.equality_structure and rep.congruent, (s, t, k)
                cases += 1
    elapsed = time.time() - start
    ok = worst <= 1e-9 and cases == 25 and elapsed < 5.0
    assert _report(
        2, ok, f"{cases} joins K_(s-1) v kK_t, max |lambda - bound| {worst:.2e}, {elapsed:.2f}s"
    )


def _circulant_two(n):
    return Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])


def _random_bounded_degree(rng, n, cap):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if deg[u] < cap and deg[v] < cap and rng.random() < 0.7:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


def _interlacing_case(rng):
    kind = rng.randrange(3)
    if kind == 0:
        h1 = cycle(rng.randint(3, 12))
    elif kind == 1:
        h1 = complete(rng.randint(1, 8))
    else:
        h1 = _circulant_two(rng.randint(5, 12))
    n2 = rng.randint(1, max(1, 20 - h1.n))
    if rng.random() < 0.35:
        style = rng.randrange(4)
        if style == 0:
            h2 = independent(n2)
        elif style == 1 and n2 % 2 == 0:
            h2 = Graph.from_edges(n2, [(2 * i, 2 * i + 1) for i in range(n2 // 2)])
        elif style == 2 and n2 >= 3:
            h2 = cycle(n2)
        else:
            divisors = [d for d in range(1, n2 + 1) if n2 % d == 0]
            t = rng.choice(divisors)
            h2 = disjoint_union(*[complete(t) for _ in range(n2 // t)])
    else:
        h2 = _random_bounded_degree(rng, n2, 4)
    return h1, h2


def test_criterion_03_interlacing_joins():
    start = time.time()
    rng = random.Random(20260815)
    tight_count = 0
    tight_dev = 0.0
    slack_min = float("inf")
    for _ in range(1000):
        h1, h2 = _interlacing_case(rng)
        chk = check_interlacing_bound(h1, h2)
        assert chk.lam <= chk.bound + 1e-9
        equal = abs(chk.bound - chk.lam) <= 1e-9
        assert equal == chk.tight
        if chk.tight:
            tight_count += 1
            tight_dev = max(tight_dev, abs(chk.bound - chk.lam))
        else:
            slack_min = min(slack_min, chk.bound - chk.lam)
    elapsed = time.time() - start
    ok = elapsed < 30.0
    assert _report(
        3,
        ok,
        f"1000 joins, {tight_count} tight (dev {tight_dev:.1e}), "
        f"min slack {slack_min:.3f} otherwise, {elapsed:.2f}s",
    )


def test_criterion_04_edge_extremal_scan():
    start = time.time()
    scans = 0
    for r in (3, 4, 5):
        for n in range(r, 8):
            rep = scan_family(FamilySpec.kr_minor_free(r), n, jobs=1)
            want = (r - 2) * (n - r + 2) + (r - 2) * (r - 3) // 2
            assert rep.max_edges == want, (r, n, rep.max_edges, want)
            scans += 1
    elapsed = time.time() - start
    ok = scans == 12 and elapsed < 120.0
    assert _report(
        4, ok, f"{scans} scans hit (r-2)(n-r+2)+(r-2)(r-3)/2 exactly, {elapsed:.2f}s"
    )


def test_criterion_05_spectral_scan_bounds():
    start = time.time()
    reports = _spectral_scan_reports(jobs=1)
    violations = sum(r.bound_violations for _, _, r in reports)
    mismatches = [
        f"n={r.n} construction {encode_graph6(construct_kst_extremal(r.n, s, t))} "
        f"({r.construction_lambda:.9f}) vs argmax {r.argmax_g6} ({r.max_lambda:.9f})"
        for s, t, r in reports
        if abs(r.construction_lambda - r.max_lambda) > 1e-9
    ]
    elapsed = time.time() - start
    detail = f"6 scans, {violations} bound violations, "
    detail += "construction matches scan max" if not mismatches else "; ".join(mismatches)
    ok = violations == 0 and elapsed < 300.0
    assert _report(5, ok, detail + f", {elapsed:.2f}s")


def test_criterion_06_minor_oracle_equivalence():
    start = time.time()
    hs = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    gs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    pairs = 0
    for h in hs:
        for g in gs:
            assert (has_minor(h, g) is not None) == oracle_has_minor(h, g)
            pairs += 1
    elapsed = time.time() - start
    ok = pairs == 3744 and elapsed < 600.0
    assert _report(6, ok, f"{pairs} (H, G) pairs agree with partition oracle, {elapsed:.2f}s")


def test_criterion_07_mu_classification_suite():
    start = time.time()
    ladder = [
        (path(5), 1),
        (cycle(5), 2),
        (complete(4), 3),
        (complete(5), 4),
        (complete(6), 5),
        (petersen(), 5),
    ]
    for g, want in ladder:
        assert classify_mu(g).value == want, (g, want)
    constructions = 0
    for m in (2, 3, 4):
        for n in range(m + 1, 13):
            assert classify_mu(construct_cdv_extremal(n, m)).value == m, (m, n)
            constructions += 1
    assert classify_mu(complete_bipartite(3, 3)).value == 4
    assert classify_mu(complete_bipartite(4, 4)).value == 5
    elapsed = time.time() - start
    ok = elapsed < 60.0
    assert _report(
        7,
        ok,
        f"ladder of 6 named graphs, {constructions} constructions, "
        f"K3,3 in class 4, K4,4 not linkless, {elapsed:.2f}s",
    )


def test_criterion_08_delta_y_closure():
    start = time.time()
    members = delta_y_closure(complete(6))
    keys = {canonical_key(g) for g in members}
    ten = [g for g in members if g.n == 10]
    ok = (
        len(members) == 7
        and len(keys) == 7
        and len(ten) == 1
        and ten[0].edge_count == 15
        and girth(ten[0]) == 5
    )
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    assert _report(
        8, ok, f"7 pairwise non-isomorphic members, 10-vertex member has "
        f"15 edges and girth 5, {elapsed:.2f}s"
    )


def test_criterion_09_edge_count_inequality():
    start = time.time()
    checked = 0
    violations = 0
    for n in range(1, 8):
        classified = [(classify_mu(g).value, g.edge_count) for g in enumerate_graphs(n)]
        for m in range(1, 5):
            if n < m:
                continue
            for value, e in classified:
                if value <= m:
                    checked += 1
                    if e > m * n - m * (m + 1) // 2:
                        violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 600.0
    assert _report(
        9,
        ok,
        f"{checked} members with class <= m (n >= m) satisfy "
        f"e <= mn - m(m+1)/2, {violations} violations, {elapsed:.2f}s",
    )


def test_criterion_10_graph6_round_trip():
    start = time.time()
    count = 0
    for g in enumerate_graphs(7):
        text = encode_graph6(g)
        back = parse_graph6(text)
        assert back == g
        assert encode_graph6(back) == text
        count += 1
    elapsed = time.time() - start
    ok = count == 1044 and elapsed < 5.0
    assert _report(
        10, ok, f"{count} graphs at n=7 round-trip exactly; "
        f"no n=8 stream provided, {elapsed:.2f}s"
    )


def test_criterion_11_deterministic_csv():
    serial = reports_to_csv([r for _, _, r in _spectral_scan_reports(jobs=1)])
    parallel = reports_to_csv([r for _, _, r in _spectral_scan_reports(jobs=2)])
    ok = serial.encode("ascii") == parallel.encode("ascii")
    assert _report(
        11, ok, f"jobs=1 and jobs=2 CSV byte-identical ({len(serial)} bytes)"
    )
