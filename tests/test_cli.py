"""End-to-end checks of the command line interface via main(argv)."""

import hashlib
import io
import json
import re
import time

import pytest

from spectralminors.cli import build_parser, main, resolve_graph
from spectralminors.graph import (
    MAX_VERTICES,
    complete,
    complete_bipartite,
    construct_kst_extremal,
    cycle,
    encode_graph6,
    parse_graph6,
    path,
    petersen,
)
from spectralminors.minors import MinorWitness, verify_witness
from spectralminors.search import enumerate_graphs

from helpers import check_problem1, check_problem2

X_LINE = re.compile(r"^X(\d+): (\d+(?: \d+)*)$")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_matches_library_constructions(capsys):
    code, out, err = run_cli(["construct", "--family", "kr", "--r", "4", "--n", "6"], capsys)
    assert code == 0 and err == ""
    assert out == "E}r?\n"
    g = parse_graph6(out.strip())
    assert g.n == 6 and g.edge_count == 2 * 4 + 1

    code, out, _ = run_cli(["construct", "--family", "cdv", "--m", "1", "--n", "5"], capsys)
    assert code == 0
    assert out.strip() == encode_graph6(path(5))

    code, out, _ = run_cli(
        ["construct", "--family", "kst", "--s", "2", "--t", "3", "--n", "10"], capsys
    )
    assert code == 0
    assert out.strip() == encode_graph6(construct_kst_extremal(10, 2, 3))


def test_lambda_named_graphs_regular_values_exact(capsys):
    for name in ("K4", "K3,3"):
        code, out, err = run_cli(["lambda", name], capsys)
        assert code == 0 and err == ""
        assert out == "3.000000000000\n"
    code, out, _ = run_cli(["lambda", "C7"], capsys)
    assert code == 0 and out == "2.000000000000\n"
    code, out, _ = run_cli(["lambda", "Petersen"], capsys)
    assert code == 0 and out == "3.000000000000\n"


def test_lambda_path_value(capsys):
    code, out, _ = run_cli(["lambda", "P4"], capsys)
    assert code == 0
    assert abs(float(out.strip()) - (1 + 5 ** 0.5) / 2) < 1e-9


def test_lambda_full_output(capsys):
    code, out, _ = run_cli(["lambda", "K4", "--full"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3.000000000000"
    assert lines[1] == "residual: 0.0"
    assert lines[2] == "iterations: 1"
    assert lines[3] == "max_vertex: 0"
    assert lines[4] == "lambda/sqrt(n): 1.500000000000"
    assert lines[5] == "vector: " + " ".join(["1.000000000000"] * 4)


def test_lambda_reads_graph6_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\n"))
    code, out, _ = run_cli(["lambda", "-"], capsys)
    assert code == 0 and out == "2.000000000000\n"

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run_cli(["lambda", "-"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "stdin" in err


def test_minor_yes_prints_verifiable_branch_sets(capsys):
    for h, g, argv in [
        (complete(4), complete(5), ["minor", "--h", "K4", "K5"]),
        (complete(5), petersen(), ["minor", "--h", "K5", "Petersen"]),
    ]:
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "yes"
        assert len(lines) == 1 + h.n
        sets = []
        for i, line in enumerate(lines[1:]):
            m = X_LINE.match(line)
            assert m and int(m.group(1)) == i
            sets.append(frozenset(int(v) for v in m.group(2).split()))
        assert verify_witness(h, g, MinorWitness(tuple(sets)))


def test_minor_no_answer_is_success(capsys):
    code, out, err = run_cli(["minor", "--h", "K4", "C5"], capsys)
    assert code == 0 and err == ""
    assert out == "no\n"


def test_mu_labels_cover_every_class(capsys):
    expected = {
        "P4": "<=1 (disjoint union of paths)",
        "C5": "=2 (outerplanar, not a disjoint union of paths)",
        "K4": "=3 (planar, not outerplanar)",
        "K5": "=4 (linklessly embeddable, not planar)",
        "petersen": ">=5 (not linklessly embeddable)",
    }
    for name, text in expected.items():
        code, out, _ = run_cli(["mu", name], capsys)
        assert code == 0
        assert out == text + "\n"


def test_bound_kst_and_quotient_agree(capsys):
    code, out, _ = run_cli(["bound", "--family", "kst", "--n", "5", "--s", "2", "--t", "2"], capsys)
    assert code == 0 and out == "2.561552812809\n"
    code, out, _ = run_cli(
        ["bound", "--family", "quotient", "--d", "0", "--k", "1", "--n1", "1", "--n2", "4"], capsys
    )
    assert code == 0 and out == "2.561552812809\n"


def test_bound_missing_parameters_is_domain_error(capsys):
    code, out, err = run_cli(["bound", "--family", "kst", "--n", "5"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:")
    code, _, err = run_cli(["bound", "--family", "quotient", "--d", "0"], capsys)
    assert code == 1 and err.startswith("error:")


def test_search_text_report(capsys):
    code, out, err = run_cli(
        ["search", "--family", "kr", "--r", "3", "--n", "5", "--jobs", "1"], capsys
    )
    assert code == 0 and err == ""
    assert out == (
        "family: K3-minor-free  n=5\n"
        "graphs scanned: 34\n"
        "max lambda: 2.000000000000  at D?{\n"
        "max edges: 4  at D?{\n"
        "construction: lambda 2.000000000000, 4 edges\n"
        "lambda match: True\n"
        "bound violations: 0\n"
    )


def test_search_json_fields(capsys):
    code, out, _ = run_cli(
        ["search", "--family", "kst", "--s", "2", "--t", "2", "--n", "5",
         "--jobs", "1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "kst"
    assert payload["params"] == "s=2,t=2"
    assert payload["n"] == 5
    assert payload["graphs_scanned"] == 34
    assert payload["lambda_match"] is True
    assert payload["bound_violations"] == 0
    assert abs(payload["max_lambda"] - (1 + 17 ** 0.5) / 2) < 1e-9
    assert parse_graph6(payload["argmax_g6"]).n == 5


def test_search_csv_output_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, err = run_cli(
        ["search", "--family", "kr", "--r", "3", "--n", "5", "--jobs", "1",
         "--format", "csv", "--output", str(target)], capsys
    )
    assert code == 0 and out == "" and err == ""
    text = target.read_text(encoding="ascii")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == (
        "n,family,params,max_lambda,argmax_g6,max_edges,edge_argmax_g6,"
        "construction_lambda,lambda_match,bound_violations,graphs_scanned"
    )
    assert lines[1].startswith("5,kr,r=3,")


def test_search_jobs_alone_set_the_workers(capsys, monkeypatch):
    # the environment holds no override: --jobs decides, and the report
    # is the same at any worker count (156 graphs make three chunks)
    monkeypatch.setenv("SML_THREADS", "abc")
    argv = ["search", "--family", "kr", "--r", "4", "--n", "6", "--jobs"]
    code, serial, err = run_cli(argv + ["1"], capsys)
    assert code == 0 and err == ""
    code, parallel, err = run_cli(argv + ["2"], capsys)
    assert code == 0 and err == ""
    assert parallel == serial


def test_search_rejects_jobs_below_one(capsys):
    argv = ["search", "--family", "kr", "--r", "5", "--n", "5", "--jobs", "-4"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", "error: jobs must be at least 1, got -4\n")


def test_verify_text_equality_structure(capsys):
    g6 = encode_graph6(construct_kst_extremal(10, 2, 3))
    code, out, err = run_cli(["verify", "--family", "kst", "--s", "2", "--t", "3", g6], capsys)
    assert code == 0 and err == ""
    assert out == (
        "member: yes\n"
        "lambda: 4.162277660168\n"
        "bound: 4.162277660168\n"
        "equality structure: yes\n"
        "universal vertices: 1\n"
        "residual: disjoint_cliques\n"
        "n congruent to s-1 mod t: yes\n"
    )


def test_verify_text_non_member_short_form(capsys):
    code, out, _ = run_cli(["verify", "--family", "kr", "--r", "4", "K5"], capsys)
    assert code == 0
    assert out == "member: no\nlambda: 4.000000000000\n"


def test_verify_json(capsys):
    g6 = encode_graph6(construct_kst_extremal(10, 2, 3))
    code, out, _ = run_cli(
        ["verify", "--family", "kst", "--s", "2", "--t", "3", g6, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["equality_structure"] is True
    assert payload["apex_size"] == 1
    assert payload["residual"] == "disjoint_cliques"
    assert payload["congruent"] is True
    assert abs(payload["lambda"] - payload["bound"]) < 1e-9
    assert abs(payload["bound"] - (1 + 10 ** 0.5)) < 1e-12


def test_dy_closure_of_k4(capsys):
    code, out, err = run_cli(["dy", "K4"], capsys)
    assert code == 0
    assert err == "count: 2\n"
    members = [parse_graph6(line) for line in out.splitlines()]
    assert len(members) == 2
    assert {g.edge_count for g in members} == {6}
    assert sorted(g.n for g in members) == [4, 5]


def test_dy_default_seed_builds_seven_obstructions(capsys):
    code, out, err = run_cli(["dy"], capsys)
    assert code == 0
    assert err == "count: 7\n"
    assert out == "E~~w\nFF~~?\nF]~Hw\nGFzf?w\nGBZ~Co\nH@YnCpS\nI@QFCpSJ?\n"
    members = [parse_graph6(line) for line in out.splitlines()]
    assert len(members) == 7
    assert all(g.edge_count == 15 for g in members)
    assert sorted(g.n for g in members) == [6, 7, 7, 8, 8, 9, 10]


def test_report_problems_tables(capsys):
    code, out, err = run_cli(["report-problems", "--max-n", "4"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "problem 1: e <= m*n - m(m+1)/2 over graphs with mu <= m"
    assert lines[1] == "m  n  members  violations"
    rows1 = [line.split() for line in lines[2:18]]
    assert rows1 == [r.split() for r in (
        "1 1 1 0", "1 2 2 0", "1 3 3 0", "1 4 5 0",
        "2 1 1 1", "2 2 2 0", "2 3 4 0", "2 4 10 0",
        "3 1 1 1", "3 2 2 1", "3 3 4 0", "3 4 11 0",
        "4 1 1 1", "4 2 2 2", "4 3 4 1", "4 4 11 0",
    )]
    assert lines[18] == ""
    assert lines[19] == "problem 2: e <= 3n - 9 over bipartite linkless graphs"
    assert lines[20] == "n  members  violations"
    rows2 = [line.split() for line in lines[21:]]
    assert rows2 == [r.split() for r in ("1 1 1", "2 2 2", "3 3 2", "4 7 1")]

    code, _, err = run_cli(["report-problems", "--max-n", "9"], capsys)
    assert code == 1 and err.startswith("error:")


def _probe_tally(n, check):
    """Members and violations at order n, a graph counted as a member unless
    its probe raises ValueError."""
    members = violations = 0
    for g in enumerate_graphs(n):
        try:
            ok = check(g)
        except ValueError:
            continue
        members += 1
        violations += not ok
    return members, violations


def test_report_problems_matches_the_probes(capsys):
    # SHA-256 of the --max-n 7 tables taken while each row was tallied from
    # the probes; every row is checked against such a tally again here
    code, out, err = run_cli(["report-problems", "--max-n", "7"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4dd59ad685d45608922d6ab6e52fd997c69174e8578883f2d5035608d1199d8d")
    lines = out.splitlines()
    rows1 = [tuple(map(int, line.split())) for line in lines[2:30]]
    assert rows1 == [(m, n, *_probe_tally(n, lambda g: check_problem1(g, m)))
                     for m in range(1, 5) for n in range(1, 8)]
    rows2 = [tuple(map(int, line.split())) for line in lines[33:]]
    assert rows2 == [(n, *_probe_tally(n, check_problem2)) for n in range(1, 8)]


def test_usage_errors_exit_two(capsys):
    for argv in (
        [],
        ["construct", "--family", "kr", "--n", "5"],
        ["construct", "--family", "kr", "--r", "2", "--n", "5"],
        ["search", "--family", "kst", "--s", "3", "--t", "2", "--n", "5"],
        ["search", "--family", "kst", "--s", "2", "--n", "5"],
        ["verify", "--family", "cdv", "K4"],
        ["verify", "--family", "cdv", "--m", "5", "K4"],
        # a flag the chosen family does not take
        ["construct", "--family", "kr", "--r", "5", "--m", "3", "--n", "6"],
        ["construct", "--family", "cdv", "--m", "3", "--s", "2", "--t", "9", "--n", "6"],
        ["verify", "--family", "kst", "--s", "2", "--t", "3", "--r", "9", "K4"],
        ["search", "--family", "cdv", "--m", "3", "--s", "2", "--n", "5"],
        # every solve runs at spectral.TOL, and the text report has one line order
        ["search", "--family", "kr", "--r", "3", "--n", "5", "--tol", "1e-6"],
        ["lambda", "K4", "--tol", "0"],
        ["search", "--family", "kr", "--r", "3", "--n", "5", "--objective", "edges"],
        ["lambda"],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
    # the family's own message names what it takes
    with pytest.raises(SystemExit):
        main(["construct", "--family", "kr", "--r", "5", "--m", "3", "--n", "6"])
    assert "kr family takes only r" in capsys.readouterr().err
    # a family error prints the subcommand's own usage line
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "kr", "--n", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sml construct ") and "--family" in err


def test_domain_errors_exit_one(capsys):
    for argv in (
        ["lambda", "D"],
        ["lambda", "C3,3"],
        ["minor", "--h", "K4", "A_?"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:")
    # names past the vertex limit fail before any row is built
    for name, n in (("K300000", 300000), ("K3,258045", 258048),
                    ("C300000", 300000), ("P300000", 300000)):
        start = time.perf_counter()
        code, out, err = run_cli(["lambda", name], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: vertex count {n} outside [0, {MAX_VERTICES}]\n"


def test_resolve_graph_names():
    assert resolve_graph("K5").edge_count == complete(5).edge_count
    assert resolve_graph("K3,4").edge_count == complete_bipartite(3, 4).edge_count
    assert resolve_graph("C6").edge_count == cycle(6).edge_count
    assert resolve_graph("P7").edge_count == 6
    assert resolve_graph("PETERSEN").n == 10
    g = resolve_graph(encode_graph6(petersen()))
    assert g.n == 10 and g.edge_count == 15


def test_parser_help_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("construct", "lambda", "minor", "mu", "bound",
                 "search", "verify", "dy", "report-problems"):
        assert name in text
