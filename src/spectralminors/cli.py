"""Command line interface. One subcommand per operation family:

  construct        print the extremal construction as graph6
  lambda           spectral radius of a graph, solved to spectral.TOL
  minor            minor test with branch-set witness
  mu               Colin de Verdiere classification
  bound            closed-form eigenvalue ceilings (kst and quotient forms)
  search           exhaustive scan of a family at fixed order
  verify           membership and equality-structure report for one graph
  dy               delta-wye closure of a seed graph
  report-problems  edge-count inequality sweeps (reported, never asserted)

Graphs are given as graph6 strings, as names (K5, K3,3, C7, P4, Petersen),
or as '-' to read one graph6 line from stdin. Exit code 0 on success (a 'no'
answer is a success), 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

from .cdv import classify_mu
from .families import FamilySpec
from .graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    encode_graph6,
    is_bipartite,
    parse_graph6,
    path,
    petersen,
)
from .minors import delta_y_closure, has_minor
from .search import (
    ENUMERATION_LIMIT,
    enumerate_graphs,
    report_to_json,
    reports_to_csv,
    scan_family,
    verify_membership,
)
from .spectral import (
    ConvergenceError,
    QuotientMatrix,
    kst_lambda_bound,
    quotient_bound,
    spectral_radius,
)

_MU_TEXT = {
    1: "<=1 (disjoint union of paths)",
    2: "=2 (outerplanar, not a disjoint union of paths)",
    3: "=3 (planar, not outerplanar)",
    4: "=4 (linklessly embeddable, not planar)",
    5: ">=5 (not linklessly embeddable)",
}

_NAMED = re.compile(r"^(K|C|P)(\d+)(?:,(\d+))?$")


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def resolve_graph(text: str) -> Graph:
    """Named graph, graph6 string, or '-' for one line of stdin."""
    if text == "-":
        text = sys.stdin.readline().strip()
        if not text:
            raise ValueError("no graph6 line on stdin")
    if text.lower() == "petersen":
        return petersen()
    m = _NAMED.match(text)
    if m:
        kind, a, b = m.group(1), int(m.group(2)), m.group(3)
        if b is not None and kind != "K":
            raise ValueError(f"two-part sizes only make sense for K: {text!r}")
        if b is not None:
            return complete_bipartite(a, int(b))
        if kind == "K":
            return complete(a)
        if kind == "C":
            return cycle(a)
        return path(a)
    return parse_graph6(text)


def _add_family_flags(p: argparse.ArgumentParser):
    p.set_defaults(family_parser=p)
    p.add_argument("--family", required=True, choices=("kr", "kst", "cdv"))
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--m", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sml",
        description="Spectral extremal graph theory over minor-closed families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="extremal construction as graph6")
    _add_family_flags(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lambda", help="spectral radius")
    p.add_argument("graph", help="graph6, name, or - for stdin")
    p.add_argument("--full", action="store_true",
                   help="also print vector, residual, iterations, lambda/sqrt(n)")

    p = sub.add_parser("minor", help="minor test with witness")
    p.add_argument("--h", required=True, dest="h", help="the candidate minor")
    p.add_argument("graph", help="the host graph")

    p = sub.add_parser("mu", help="Colin de Verdiere classification")
    p.add_argument("graph")

    p = sub.add_parser("bound", help="closed-form spectral ceilings")
    p.add_argument("--family", required=True, choices=("kst", "quotient"))
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)

    p = sub.add_parser("search", help="exhaustive family scan at fixed order")
    _add_family_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--source",
                   help=f"graph6 file (default: internal enumeration, n <= {ENUMERATION_LIMIT})")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: cpu count)")

    p = sub.add_parser("verify", help="membership report for one graph")
    _add_family_flags(p)
    p.add_argument("graph")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("dy", help="delta-wye closure of a seed (default K6)")
    p.add_argument("seed", nargs="?", default="K6")

    p = sub.add_parser("report-problems", help="edge-count inequality sweeps")
    p.add_argument("--max-n", type=int, default=7)

    return parser


def _cmd_construct(args) -> int:
    family = args._family
    print(encode_graph6(family.construction(args.n)))
    return 0


def _cmd_lambda(args) -> int:
    g = resolve_graph(args.graph)
    res = spectral_radius(g)
    print(_fmt(res.lam))
    if args.full:
        print("residual:", repr(res.residual))
        print("iterations:", res.iterations)
        print("max_vertex:", res.max_vertex)
        print("lambda/sqrt(n):", _fmt(res.lam / math.sqrt(g.n)))
        print("vector:", " ".join(_fmt(v) for v in res.vector))
    return 0


def _cmd_minor(args) -> int:
    h = resolve_graph(args.h)
    g = resolve_graph(args.graph)
    w = has_minor(h, g)
    if w is None:
        print("no")
    else:
        print("yes")
        for i, bs in enumerate(w.branch_sets):
            print(f"X{i}: {' '.join(str(v) for v in sorted(bs))}")
    return 0


def _cmd_mu(args) -> int:
    g = resolve_graph(args.graph)
    print(_MU_TEXT[classify_mu(g).value])
    return 0


def _cmd_bound(args) -> int:
    if args.family == "kst":
        if args.n is None or args.s is None or args.t is None:
            raise ValueError("bound --family kst requires --n, --s, --t")
        print(_fmt(kst_lambda_bound(args.n, args.s, args.t)))
    else:
        if None in (args.d, args.k, args.n1, args.n2):
            raise ValueError("bound --family quotient requires --d, --k, --n1, --n2")
        print(_fmt(quotient_bound(QuotientMatrix(args.d, args.k, args.n1, args.n2))))
    return 0


def _cmd_search(args) -> int:
    family = args._family
    report = scan_family(family, args.n, source=args.source, jobs=args.jobs)
    if args.format == "csv":
        out = reports_to_csv([report])
    elif args.format == "json":
        out = report_to_json(report) + "\n"
    else:
        lines = [
            f"family: {family.label()}  n={report.n}",
            f"graphs scanned: {report.graphs_scanned}",
            f"max lambda: {_fmt(report.max_lambda)}  at {report.argmax_g6}",
            f"max edges: {report.max_edges}  at {report.edge_argmax_g6}",
            f"construction: lambda {_fmt(report.construction_lambda)}, "
            f"{report.construction_edges} edges",
            f"lambda match: {report.lambda_match}",
            f"bound violations: {report.bound_violations}",
        ]
        out = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_verify(args) -> int:
    g = resolve_graph(args.graph)
    family = args._family
    rep = verify_membership(g, family)
    if args.format == "json":
        payload = dataclasses.asdict(rep)
        payload["lambda"] = payload.pop("lam")
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"member: {'yes' if rep.member else 'no'}")
    print(f"lambda: {_fmt(rep.lam)}")
    if rep.bound is not None:
        print(f"bound: {_fmt(rep.bound)}")
    if rep.equality_structure is not None:
        print(f"equality structure: {'yes' if rep.equality_structure else 'no'}")
        print(f"universal vertices: {rep.apex_size}")
        print(f"residual: {rep.residual}")
        print(f"n congruent to s-1 mod t: {'yes' if rep.congruent else 'no'}")
    return 0


def _cmd_dy(args) -> int:
    seed = resolve_graph(args.seed)
    members = delta_y_closure(seed)
    for g in members:
        print(encode_graph6(g))
    print(f"count: {len(members)}", file=sys.stderr)
    return 0


def _cmd_report_problems(args) -> int:
    if not 1 <= args.max_n <= ENUMERATION_LIMIT:
        raise ValueError(
            f"--max-n must be within the internal enumeration range 1..{ENUMERATION_LIMIT}")
    # The mu classes are nested, so one classification answers mu <= m for every m.
    orders = range(1, args.max_n + 1)
    classes = {n: [(classify_mu(g), g) for g in enumerate_graphs(n)] for n in orders}
    print("problem 1: e <= m*n - m(m+1)/2 over graphs with mu <= m")
    print("m  n  members  violations")
    for m in range(1, 5):
        for n in orders:
            edges = [g.edge_count for c, g in classes[n] if c.at_most(m)]
            violations = sum(e > m * n - m * (m + 1) // 2 for e in edges)
            print(f"{m}  {n}  {len(edges):7d}  {violations:10d}")
    print()
    print("problem 2: e <= 3n - 9 over bipartite linkless graphs")
    print("n  members  violations")
    for n in orders:
        edges = [g.edge_count for c, g in classes[n] if c.at_most(4) and is_bipartite(g)]
        violations = sum(e > 3 * n - 9 for e in edges)
        print(f"{n}  {len(edges):7d}  {violations:10d}")
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "lambda": _cmd_lambda,
    "minor": _cmd_minor,
    "mu": _cmd_mu,
    "bound": _cmd_bound,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "dy": _cmd_dy,
    "report-problems": _cmd_report_problems,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "family_parser" in args:
        try:
            args._family = FamilySpec(args.family, r=args.r, s=args.s, t=args.t, m=args.m)
        except ValueError as exc:
            args.family_parser.error(str(exc))
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
