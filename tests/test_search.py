"""Enumeration (the packaged atlas against its reference generator),
family scans, membership reports, and serialization."""

import csv
import dataclasses
import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from spectralminors import (
    FamilySpec,
    are_isomorphic,
    canonical_key,
    complete,
    complete_bipartite,
    construct_kst_extremal,
    cycle,
    encode_graph6,
    enumerate_graphs,
    family_filter,
    has_minor,
    independent,
    ingest_graph6_stream,
    join,
    kst_lambda_bound,
    parse_graph6,
    path,
    petersen,
    report_to_json,
    reports_to_csv,
    scan_family,
    verify_membership,
)
from spectralminors import canon, families, search
from spectralminors.search import MATCH_TOL, _pool_size

import helpers
from helpers import automorphisms, reference_atlas, relabeled


# ---------------------------------------------------------------------------
# Enumeration


def test_enumeration_counts():
    expected = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        assert sum(1 for _ in enumerate_graphs(n)) == count


def test_enumeration_connected_counts():
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
    for n, count in expected.items():
        assert sum(g.is_connected() for g in enumerate_graphs(n)) == count


def test_enumeration_no_duplicates():
    seen = set()
    for g in enumerate_graphs(7):
        key = canonical_key(g)
        assert key not in seen
        seen.add(key)


def test_enumeration_representatives_are_pinned():
    # the scans' argmax_g6 tie-breaks depend on which labelled graph stands
    # for each class, so the atlas must keep the same graphs in the same order
    atlas = "\n".join(encode_graph6(g) for n in range(8) for g in enumerate_graphs(n)) + "\n"
    assert atlas.count("\n") == 1253
    assert hashlib.sha256(atlas.encode()).hexdigest() == (
        "434bc757ac10473178bb7ca3f96f58aac2d25897662c3b47ad070505a6808c87")


def test_atlas_file_matches_reference():
    # atlas.g6 is the reference generator's n <= 7 output, one line per graph
    text = "".join(encode_graph6(g) + "\n" for n in range(8) for g in reference_atlas(n))
    assert search._ATLAS_FILE.read_bytes() == text.encode("ascii")


def test_atlas_file_ships_with_the_package():
    assert search._ATLAS_FILE == Path(search.__file__).with_name("atlas.g6")
    assert search._ATLAS_FILE.is_file()
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "atlas.g6" in pyproject["tool"]["setuptools"]["package-data"]["spectralminors"]


def test_atlas_load_is_lazy_and_computes_no_form(monkeypatch):
    # importing parses neither the atlas nor the Petersen family (some
    # callers use neither), and loading the atlas only parses the file
    probe = ("import sys, spectralminors\n"
             "sys.exit(spectralminors.search._atlas.cache_info().currsize\n"
             "         + spectralminors.minors.linkless_obstructions.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0

    def no_form(*args):
        raise AssertionError("canonical form computed")

    monkeypatch.setattr(canon, "_key", no_form)
    monkeypatch.setattr(canon, "canonical_key", no_form)
    search._atlas.cache_clear()
    try:
        assert sum(1 for _ in enumerate_graphs(7)) == 1044
    finally:
        search._atlas.cache_clear()


def test_atlas_orbit_pruning(monkeypatch):
    # a cold n <= 7 build computes 5,759 canonical forms, 11,291 without the
    # pruning; for n <= 6, 663 and 1,307. With only part of each parent's
    # group it prunes less and still builds the same atlas
    full = [reference_atlas(n) for n in range(8)]
    key, auts = helpers._key, helpers.automorphisms
    forms = []

    def counted_key(rows):
        forms.append(rows)
        return key(rows)

    monkeypatch.setattr(helpers, "_key", counted_key)
    try:
        reference_atlas.cache_clear()
        assert [reference_atlas(n) for n in range(8)] == full
        assert len(forms) == 5759
        monkeypatch.setattr(helpers, "automorphisms", lambda rows: auts(rows)[::2])
        reference_atlas.cache_clear()
        forms.clear()
        assert [reference_atlas(n) for n in range(7)] == full[:7]
        assert 663 < len(forms) < 1307
    finally:
        reference_atlas.cache_clear()


def test_automorphisms_match_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(7):
        for g in enumerate_graphs(n):
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(g.edges())
            expected = {tuple(m[v] for v in range(n))
                        for m in nx.isomorphism.GraphMatcher(G, G).isomorphisms_iter()}
            found = automorphisms(g.rows)
            assert found[0] == tuple(range(n))
            assert len(found) == len(set(found))
            assert set(found) == expected
    assert len(automorphisms(petersen().rows)) == 120


def test_canonical_keys_are_pinned():
    # delta_y_closure sorts by canonical_key, so its values must not move
    keys = repr([canonical_key(g) for n in range(8) for g in enumerate_graphs(n)])
    assert hashlib.sha256(keys.encode()).hexdigest() == (
        "8404112d8f07f577b6a39e51f6827b71e1e577a128cab613e8e074b3db1cf791")


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        list(enumerate_graphs(8))
    with pytest.raises(ValueError):
        list(enumerate_graphs(-1))


def test_ingest_stream(tmp_path):
    graphs = [complete(3), cycle(5), path(2)]
    src = tmp_path / "graphs.g6"
    src.write_text("\n".join(encode_graph6(g) for g in graphs) + "\n\n")
    assert list(ingest_graph6_stream(src)) == graphs


def test_ingest_stream_error_names_line(tmp_path):
    src = tmp_path / "bad.g6"
    src.write_text("A_\n\nD\n")
    with pytest.raises(ValueError, match="line 3"):
        list(ingest_graph6_stream(src))
    # a non-ASCII byte is a malformed line like any other
    src.write_bytes(b"A_\nB\xc3\xa9\n")
    with pytest.raises(ValueError, match="line 2: graph6 input is not ASCII"):
        list(ingest_graph6_stream(src))


# ---------------------------------------------------------------------------
# Membership


def test_family_filter():
    kr3 = FamilySpec.kr_minor_free(3)
    assert family_filter(kr3, path(5))
    assert not family_filter(kr3, cycle(3))
    kst = FamilySpec.kst_minor_free(2, 2)
    assert family_filter(kst, complete_bipartite(1, 5))
    assert not family_filter(kst, cycle(4))
    cdv = FamilySpec.cdv_at_most(2)
    assert family_filter(cdv, cycle(6))
    assert not family_filter(cdv, complete(4))


def test_verify_membership_kst_equality_structure():
    family = FamilySpec.kst_minor_free(2, 3)
    g = construct_kst_extremal(10, 2, 3)
    rep = verify_membership(g, family)
    assert rep.member
    assert rep.bound == pytest.approx(kst_lambda_bound(10, 2, 3))
    assert rep.equality_structure
    assert rep.apex_size == 1
    assert rep.residual == "disjoint_cliques"
    assert rep.congruent
    # remainder breaks the congruence and with it the equality structure
    g = construct_kst_extremal(11, 2, 3)
    rep = verify_membership(g, family)
    assert rep.member and not rep.equality_structure and not rep.congruent


def test_verify_membership_kst_negative():
    family = FamilySpec.kst_minor_free(2, 2)
    rep = verify_membership(cycle(4), family)
    assert not rep.member
    # C4 is vertex-transitive with no universal vertex
    assert rep.apex_size == 0
    assert not rep.equality_structure


def test_verify_membership_non_kst():
    rep = verify_membership(path(4), FamilySpec.kr_minor_free(3))
    assert rep.member
    assert rep.bound is None and rep.equality_structure is None
    rep = verify_membership(complete(6), FamilySpec.cdv_at_most(4))
    assert not rep.member
    assert rep.lam == pytest.approx(5.0)


def test_verify_membership_independent_residual():
    # an edgeless residual under t >= 2 reports its shape but never counts
    # as the equality structure (that needs disjoint K_t blocks)
    family = FamilySpec.kst_minor_free(2, 3)
    rep = verify_membership(join(complete(1), independent(4)), family)
    assert rep.member
    assert rep.residual == "independent"
    assert not rep.equality_structure
    # every vertex in the apex clique: the residual is empty, and the
    # structure holds iff n is congruent; n < s leaves no bound
    rep = verify_membership(complete(2), FamilySpec.kst_minor_free(3, 4))
    assert rep.equality_structure is True
    assert rep.residual == "independent"
    assert rep.bound is None


def test_verify_membership_reports_are_pinned():
    # kst reports over the n <= 5 atlas, K1 and K2 joined with each of its
    # graphs (many universal vertices beyond the s - 1 apex), and the
    # extremal constructions; lambda is dropped because its last bits
    # depend on the BLAS build
    params = ((2, 2), (2, 3), (3, 4))
    atlas = [g for n in range(6) for g in enumerate_graphs(n)]
    graphs = atlas + [join(complete(k), g) for k in (1, 2) for g in atlas]
    graphs += [construct_kst_extremal(n, s, t) for s, t in params for n in range(s, 15)]
    digest = hashlib.sha256()
    count = 0
    for s, t in params:
        for g in graphs:
            rep = verify_membership(g, FamilySpec.kst_minor_free(s, t))
            digest.update(repr(dataclasses.astuple(dataclasses.replace(rep, lam=None))).encode()
                          + b"\n")
            count += 1
    assert count == 591
    assert digest.hexdigest() == (
        "9b0d11483717473159a20b045cadfaf0e520cb33532e310860e92965fe44da86")


# ---------------------------------------------------------------------------
# Scans


def test_scan_kr3_n5():
    # K_3-minor-free means forest; among 5-vertex forests the star K_{1,4}
    # carries the largest radius (2) and every tree ties the edge count
    report = scan_family(FamilySpec.kr_minor_free(3), 5)
    assert report.max_lambda == pytest.approx(2.0, abs=1e-9)
    star = join(complete(1), independent(4))
    assert are_isomorphic(parse_graph6(report.argmax_g6), star)
    assert report.lambda_match
    assert report.graphs_scanned == 34
    assert report.construction_edges == 4
    assert report.max_edges == 4
    winner = parse_graph6(report.edge_argmax_g6)
    assert winner.edge_count == 4 and winner.is_connected()


def test_scan_kst_bound_holds():
    family = FamilySpec.kst_minor_free(2, 2)
    report = scan_family(family, 6)
    assert report.bound_violations == 0
    assert report.max_lambda <= kst_lambda_bound(6, 2, 2) + 1e-9
    assert report.lambda_match


def test_scan_explicit_source_and_determinism(tmp_path):
    family = FamilySpec.kst_minor_free(2, 3)
    serial = scan_family(family, 6, jobs=1)
    parallel = scan_family(family, 6, jobs=2)
    assert serial == parallel
    assert reports_to_csv([serial]) == reports_to_csv([parallel])
    # the same scan through a graph6 file
    src = tmp_path / "n6.g6"
    src.write_text("".join(encode_graph6(g) + "\n" for g in enumerate_graphs(6)))
    from_file = scan_family(family, 6, source=str(src))
    assert from_file == serial


def test_scan_source_validation(tmp_path):
    src = tmp_path / "mixed.g6"
    src.write_text("A_\nDhc\n")
    with pytest.raises(ValueError, match="vertices"):
        scan_family(FamilySpec.kr_minor_free(3), 5, source=str(src))


def test_pool_size_is_capped():
    # a pure computation: no worker process starts here
    cpus = os.cpu_count() or 1
    assert _pool_size(10**9, 10**9) == cpus
    assert _pool_size(10**9, 3) == min(cpus, 3)
    assert _pool_size(1, 100) == 1
    assert _pool_size(4, 1) == 1
    assert _pool_size(0, 5) == 1


def test_scan_maps_membership_on_the_pool_in_64_graph_chunks(monkeypatch):
    # the 1,044 graphs at n = 7 make 17 tasks of 64; the report is the
    # serial one whatever the pool does
    calls = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records the worker count and
        the map chunk size, and maps serially in this process."""

        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            calls.append((self.processes, chunksize))
            return list(map(fn, items))

    family = FamilySpec.kr_minor_free(5)
    serial = reports_to_csv([scan_family(family, 7, jobs=1)])
    monkeypatch.setattr(search.multiprocessing, "Pool", RecordingPool)
    assert reports_to_csv([scan_family(family, 7, jobs=2)]) == serial
    workers = _pool_size(2, 17)
    if workers == 1:
        assert calls == []
        pytest.skip("one CPU: the scan runs serially")
    assert calls == [(workers, 64)]


def test_scan_builds_the_forbidden_minor_once(monkeypatch):
    built = []
    real = families.complete

    def counted(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(families, "complete", counted)
    FamilySpec.forbidden_minor.cache_clear()
    scan_family(FamilySpec.kr_minor_free(5), 7, jobs=1)
    assert built == [5]


def test_scan_rejects_empty_family():
    with pytest.raises(ValueError, match="no member"):
        scan_family(FamilySpec.kr_minor_free(3), 3, source=[complete(3)])


def test_scan_without_construction_fails_before_scanning(monkeypatch):
    monkeypatch.setattr(search, "family_filter", lambda *args: pytest.fail("scanned"))
    with pytest.raises(ValueError, match="need n >= r-1"):
        scan_family(FamilySpec.kr_minor_free(5), 3)
    with pytest.raises(ValueError, match="need n >= s"):
        scan_family(FamilySpec.kst_minor_free(3, 4), 2, jobs=2)


def test_scan_rejects_jobs_below_one(monkeypatch):
    # a count below 1 names no worker count, so it fails before any graph is
    # read rather than running serially
    monkeypatch.setattr(search, "family_filter", lambda *args: pytest.fail("scanned"))
    for jobs in (0, -4):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            scan_family(FamilySpec.kr_minor_free(5), 5, jobs=jobs)


def test_search_max_edges_mader_spot():
    # K_4-minor-free at n=6: 2(n-2) + 1 edges? no: (r-2)(n-r+2) + C(r-2, 2)
    report = scan_family(FamilySpec.kr_minor_free(4), 6)
    assert report.max_edges == 2 * 4 + 1
    assert report.construction_edges == report.max_edges


# ---------------------------------------------------------------------------
# Pruned scans: spectral_radius only where it can matter

TWELVE_FAMILIES = ([FamilySpec.kr_minor_free(r) for r in range(3, 7)]
                   + [FamilySpec.kst_minor_free(s, t) for s, t in ((2, 2), (2, 3), (2, 4), (3, 3))]
                   + [FamilySpec.cdv_at_most(m) for m in range(1, 5)])


def solve_every_member(family, n, bound):
    """Reference scan: every member of the n-vertex atlas solved and encoded.
    Returns (max lambda, its least graph6, max edges, its least graph6,
    members whose lambda exceeds bound + MATCH_TOL)."""
    members = [g for g in enumerate_graphs(n) if search.family_filter(family, g)]
    lams = [search.spectral_radius(g).lam for g in members]
    top_lam, top_e = max(lams), max(g.edge_count for g in members)
    return (top_lam, min(encode_graph6(g) for g, lam in zip(members, lams) if lam == top_lam),
            top_e, min(encode_graph6(g) for g in members if g.edge_count == top_e),
            sum(bound is not None and lam > bound + MATCH_TOL for lam in lams))


def test_scan_matches_solving_every_member(monkeypatch):
    # the n = 6 and 7 scans of the twelve families, each with its own bound,
    # and the kst scans also with hand-set ones: 2.0 is lambda of K_{1,4}
    # and of every cycle, and 2.5 and 3.0 give positive violation counts,
    # which no kst scan over the atlas has. Memberships and solves are
    # remembered per graph, so each is computed once.
    real_filter, real_solve = search.family_filter, search.spectral_radius
    members, solved = {}, {}

    def remembered_filter(family, g):
        if (family, g) not in members:
            members[family, g] = real_filter(family, g)
        return members[family, g]

    def remembered_solve(g):
        if g not in solved:
            solved[g] = real_solve(g)
        return solved[g]

    monkeypatch.setattr(search, "family_filter", remembered_filter)
    monkeypatch.setattr(search, "spectral_radius", remembered_solve)
    violations = dict.fromkeys(("own", 2.0, 2.5, 3.0), 0)
    for family in TWELVE_FAMILIES:
        for n in (6, 7):
            own = kst_lambda_bound(n, family.s, family.t) if family.kind == "kst" else None
            hand_set = (2.0, 2.5, 3.0) if family.kind == "kst" else ()
            for key, bound in (("own", own), *zip(hand_set, hand_set)):
                monkeypatch.setattr(search, "kst_lambda_bound", lambda n, s, t: bound)
                r = scan_family(family, n)
                got = (r.max_lambda, r.argmax_g6, r.max_edges, r.edge_argmax_g6,
                       r.bound_violations)
                assert got == solve_every_member(family, n, bound), (family, n, bound)
                violations[key] += r.bound_violations
    assert violations["own"] == 0
    assert violations[2.0] > violations[2.5] > violations[3.0] > 0


def test_scan_ties_go_to_the_least_graph6_under_pruning(tmp_path):
    # On 7 vertices with no degree above 2, lambda is exactly 2.0 when a
    # cycle is present (a 2-regular component stops at iteration 1 from the
    # all-ones vector) and below 2 otherwise. The source repeats each cycle
    # class under relabellings across three chunks, next to forests that
    # the 2-walk bound prunes and to non-members with lambda above 2.
    def tied(g):
        return g.max_degree() <= 2 and g.edge_count > g.n - len(g.components())

    rng = random.Random(2024)
    low = [g for g in enumerate_graphs(7) if g.max_degree() <= 2]
    assert sum(map(tied, low)) >= 5
    outside = [g for g in enumerate_graphs(7)
               if has_minor(complete(4), g) is not None][:12]
    graphs = low + outside + [relabeled(rng, g) for g in low if tied(g) for _ in range(8)]
    rng.shuffle(graphs)
    tied_at = [i for i, g in enumerate(graphs) if tied(g)]
    least = min(encode_graph6(graphs[i]) for i in tied_at)
    first_least = next(i for i in tied_at if encode_graph6(graphs[i]) == least)
    assert len({i // 64 for i in tied_at}) == 3 and first_least >= 64
    assert sum(encode_graph6(graphs[i]) != least for i in tied_at) > 10
    src = tmp_path / "ties.g6"
    src.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    for jobs in (1, 2):
        report = scan_family(FamilySpec.kr_minor_free(4), 7, source=str(src), jobs=jobs)
        assert report.max_lambda == 2.0
        assert report.argmax_g6 == least
        assert report.graphs_scanned == len(graphs)


def test_scan_solves_a_fraction_of_the_members(monkeypatch):
    # the K5-minor-free scan at n = 7 has 869 members; the 2-walk bound
    # against the best lambda of the whole scan leaves 18 to solve (the
    # construction adds one call)
    calls = []
    real = search.spectral_radius

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(search, "spectral_radius", counted)
    scan_family(FamilySpec.kr_minor_free(5), 7)
    assert len(calls) < 869 / 20


# ---------------------------------------------------------------------------
# Serialization


def test_csv_round_structure():
    family = FamilySpec.kst_minor_free(2, 2)
    r5 = scan_family(family, 5)
    r6 = scan_family(family, 6)
    text = reports_to_csv([r5, r6])
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 3
    assert rows[0][0] == "n" and "max_lambda" in rows[0]
    assert rows[1][0] == "5" and rows[1][1] == "kst"
    assert rows[1][2] == "s=2,t=2"
    # repr floats survive a parse round trip exactly
    assert float(rows[1][3]) == r5.max_lambda


def test_small_scan_reports_are_pinned():
    # the kr, kst and cdv scans at n = 5 and 6, n outer; the two lambda
    # columns are dropped because their last bits depend on the BLAS build
    families = [FamilySpec.kr_minor_free(r) for r in range(3, 7)]
    families += [FamilySpec.kst_minor_free(s, t) for s, t in ((2, 2), (2, 3), (2, 4), (3, 3))]
    families += [FamilySpec.cdv_at_most(m) for m in range(1, 5)]
    reports = [scan_family(f, n, jobs=1) for n in (5, 6) for f in families]
    rows = list(csv.reader(io.StringIO(reports_to_csv(reports))))
    keep = [i for i, c in enumerate(rows[0]) if c not in ("max_lambda", "construction_lambda")]
    text = "".join(",".join(row[i] for i in keep) + "\n" for row in rows)
    assert len(rows) == 25
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f9b5ff94c8c7d88a1947dffd7f904e1e8efc24d8dd76170a8746d6f8d2b7bab0")


def test_json_report():
    import json

    family = FamilySpec.kr_minor_free(3)
    report = scan_family(family, 4)
    payload = json.loads(report_to_json(report))
    assert payload["n"] == 4
    assert payload["family"] == "kr"
    assert payload["params"] == "r=3"
    assert isinstance(payload["max_lambda"], float)
    assert payload["max_lambda"] == report.max_lambda
    assert isinstance(payload["bound_violations"], int)
    assert payload["graphs_scanned"] == 11


# ---------------------------------------------------------------------------
# FamilySpec validation


def test_family_spec():
    assert FamilySpec.kr_minor_free(4).label() == "K4-minor-free"
    assert FamilySpec.kst_minor_free(2, 3).label() == "K2,3-minor-free"
    assert FamilySpec.cdv_at_most(3).label() == "mu<=3"
    assert FamilySpec.kst_minor_free(2, 3).params_label() == "s=2,t=3"
    assert FamilySpec.cdv_at_most(3).params_label() == "m=3"
    with pytest.raises(ValueError):
        FamilySpec.kr_minor_free(2)
    with pytest.raises(ValueError):
        FamilySpec.kst_minor_free(3, 2)
    with pytest.raises(ValueError):
        FamilySpec.cdv_at_most(5)
    with pytest.raises(ValueError):
        FamilySpec.cdv_at_most(0)
    for kind, params in (("kr", {"r": 4, "m": 2}), ("kst", {"s": 2, "t": 3, "r": 4}),
                         ("cdv", {"m": 2, "t": 3})):
        with pytest.raises(ValueError, match="takes only"):
            FamilySpec(kind, **params)
    with pytest.raises(ValueError, match="unknown family kind 'kt'"):
        FamilySpec("kt", s=2, t=3)


def test_family_constructions():
    assert FamilySpec.kr_minor_free(5).construction(10).edge_count == 24
    assert FamilySpec.kst_minor_free(2, 3).construction(10).edge_count == 18
    assert FamilySpec.cdv_at_most(3).construction(6).edge_count == 12
    # the m=1 family peaks at a path
    assert FamilySpec.cdv_at_most(1).construction(5) == path(5)
    with pytest.raises(ValueError, match="need n >= m"):
        FamilySpec.cdv_at_most(1).construction(0)


def test_family_forbidden_minor():
    assert FamilySpec.kr_minor_free(4).forbidden_minor() == complete(4)
    assert FamilySpec.kst_minor_free(2, 3).forbidden_minor() == complete_bipartite(2, 3)
    assert FamilySpec.cdv_at_most(2).forbidden_minor() is None
    # built once per family: equal specs share the graph
    assert FamilySpec.kr_minor_free(5).forbidden_minor() is FamilySpec("kr", r=5).forbidden_minor()
    assert (FamilySpec.kst_minor_free(2, 3).forbidden_minor()
            is FamilySpec("kst", s=2, t=3).forbidden_minor())
