"""Exhaustive extremal search over minor-closed families: enumerate or ingest
graphs of a fixed order, keep the family members, track the spectral-radius
and edge-count maximizers, and compare them against the reference
construction.

Enumeration is exact up to 7 vertices: one representative per isomorphism
class, read on first use from the packaged atlas.g6 (1,253 graph6 lines,
grouped by order) through the same parser as any graph6 stream, so no
canonical form is computed at run time. The file was generated once by
orbit-pruned vertex augmentation; the tests keep that generator and check
the file against it. Larger orders come in as graph6 streams.

A scan runs in one pass. Membership, the costly part, is mapped over the
graphs, serially or on a process pool of at most min(jobs, CPU count,
ceil(graphs / 64)) workers taking 64 graphs per task; the workers return
membership flags only. The rest runs in the calling process over all
members at once. The edge maximum needs no solve. For the spectral maximum
the members are visited once, in descending order of the integer 2-walk
bound w (spectral.two_walk_bound, lambda^2 <= w), and spectral_radius runs
on a member only while sqrt(w) * (1 + 1e-9) is at least the best lambda
computed so far, or (kst) exceeds bound + MATCH_TOL; the visit stops at the
first member that meets neither, since no later one has a larger w. This is
exact: a computed lambda is the Rayleigh quotient of a nonnegative float
vector and exceeds the true radius by a relative 2e-10 at most, so a
skipped member's computed lambda lies strictly below the best (it could
neither win nor tie) and no more than bound + MATCH_TOL (no violation). The
report is thus the one solving every member would give, to the last bit, at
any number of jobs: the maximizer's lambda comes from the same
spectral_radius call, and ties go to the lexicographically least graph6
string (_least_graph6).

family_filter is the membership predicate (for mu <= m, level m's test only).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from functools import cache, partial
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator

from .cdv import mu_at_most
from .families import FamilySpec
from .graph import (Graph, ResidualShape, _lazy_import, encode_graph6, parse_graph6,
                    recognize_residual)
from .minors import has_minor
from .spectral import kst_lambda_bound, spectral_radius, two_walk_bound

# loaded by the first scan that starts a pool: a serial scan never imports it
multiprocessing = _lazy_import("multiprocessing")

ENUMERATION_LIMIT = 7
MATCH_TOL = 1e-9
_CHUNK = 64
# Relative margin on sqrt(w) before a member is skipped: well above the 2e-10
# by which rounding can lift a computed spectral radius over the true one.
_ROUNDING_SLACK = 1e-9
# One graph6 line per class on 0..ENUMERATION_LIMIT vertices, by order.
_ATLAS_FILE = Path(__file__).with_name("atlas.g6")


# ---------------------------------------------------------------------------
# Graph sources


@cache
def _atlas() -> tuple[tuple[Graph, ...], ...]:
    """The isomorphism classes on 0..ENUMERATION_LIMIT vertices, read once
    from the packaged atlas.g6 and grouped by order: entry n lists the
    representatives on n vertices in file order."""
    levels = [[] for _ in range(ENUMERATION_LIMIT + 1)]
    for g in ingest_graph6_stream(_ATLAS_FILE):
        levels[g.n].append(g)
    return tuple(map(tuple, levels))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All graphs on n vertices up to isomorphism, n <= 7."""
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"internal enumeration covers 0 <= n <= {ENUMERATION_LIMIT}")
    yield from _atlas()[n]


def ingest_graph6_stream(path) -> Iterator[Graph]:
    """Lazily parse one graph per line from a graph6 file. Blank lines are
    skipped; a malformed line, non-ASCII bytes included, raises ValueError
    naming the line number."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield parse_graph6(line)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None


# ---------------------------------------------------------------------------
# Membership


def family_filter(family: FamilySpec, g: Graph) -> bool:
    """True iff g belongs to the family, by exact minor tests."""
    if family.kind == "cdv":
        return mu_at_most(g, family.m)
    return has_minor(family.forbidden_minor(), g) is None


@dataclass(frozen=True)
class MembershipReport:
    """verify_membership output: membership, spectral radius, the applicable
    closed-form bound (kst only), and for kst the equality-structure check
    (apex clique of s-1 universal vertices over disjoint K_t's with
    n = s-1 mod t)."""

    member: bool
    lam: float
    bound: float | None
    equality_structure: bool | None
    apex_size: int | None = None
    residual: str | None = None
    congruent: bool | None = None


def verify_membership(g: Graph, family: FamilySpec) -> MembershipReport:
    member = family_filter(family, g)
    lam = spectral_radius(g).lam if g.n >= 1 else 0.0
    if family.kind != "kst":
        return MembershipReport(member, lam, None, None)
    s, t = family.s, family.t
    bound = kst_lambda_bound(g.n, s, t) if g.n >= s else None
    univ = [v for v, d in enumerate(g.degrees()) if d == g.n - 1]
    apex = len(univ)
    congruent = g.n % t == (s - 1) % t
    structure = False
    residual_kind = None
    if apex >= s - 1:
        residual = g.induced_subgraph(set(range(g.n)).difference(univ[:s - 1]))
        shape = recognize_residual(residual)
        residual_kind = shape.kind
        structure = congruent and (
            residual.n == 0 or shape == ResidualShape("disjoint_cliques", t))
    return MembershipReport(member, lam, bound, structure, apex, residual_kind, congruent)


# ---------------------------------------------------------------------------
# The scan


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive scan: maximizers over the family members on
    n vertices, the reference construction's values, whether they agree to
    within 1e-9, and the count of members whose spectral radius exceeds the
    kst closed-form bound (always 0 for the other families)."""

    n: int
    family: str
    params: str
    max_lambda: float
    argmax_g6: str
    max_edges: int
    edge_argmax_g6: str
    construction_lambda: float
    construction_edges: int
    lambda_match: bool
    bound_violations: int
    graphs_scanned: int


def _least_graph6(graphs: Iterable[Graph]) -> str:
    """The tie-break between maximizers: the lexicographically least graph6."""
    return min(map(encode_graph6, graphs))


def _pool_size(jobs: int, chunks: int) -> int:
    """Worker processes for a scan: no more than the jobs asked for, the CPUs
    present, or the chunks to share out; 1 means run serially."""
    return max(1, min(jobs, os.cpu_count() or 1, chunks))


def _resolve_source(n: int, source) -> list[Graph]:
    if source is None:
        graphs = list(enumerate_graphs(n))
    elif isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        graphs = list(ingest_graph6_stream(source))
    else:
        graphs = list(source)
    for i, g in enumerate(graphs):
        if g.n != n:
            raise ValueError(f"source graph {i} has {g.n} vertices, expected {n}")
    return graphs


def scan_family(
    family: FamilySpec,
    n: int,
    source=None,
    jobs: int = 1,
) -> SearchReport:
    """Scan every graph from the source (internal enumeration when None),
    keep the family members, and report both maximizers against the
    construction. jobs < 1 raises ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    graphs = _resolve_source(n, source)
    # an order with no construction (every one needs n >= 1) fails here,
    # before any graph is scanned
    cons = family.construction(n)
    member = partial(family_filter, family)
    workers = _pool_size(jobs, math.ceil(len(graphs) / _CHUNK))
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            flags = pool.map(member, graphs, chunksize=_CHUNK)
    else:
        flags = map(member, graphs)
    members = list(compress(graphs, flags))
    if not members:
        raise ValueError(f"no member of {family.label()} among the {len(graphs)} graphs scanned")
    best_e = max(g.edge_count for g in members)
    ceiling = (kst_lambda_bound(n, family.s, family.t) + MATCH_TOL
               if family.kind == "kst" else math.inf)
    best_lam, tied, violations = -math.inf, [], 0
    for g in sorted(members, key=two_walk_bound, reverse=True):
        reach = math.sqrt(two_walk_bound(g)) * (1 + _ROUNDING_SLACK)
        if reach < best_lam and reach <= ceiling:
            break
        lam = spectral_radius(g).lam
        violations += lam > ceiling
        if lam > best_lam:
            best_lam, tied = lam, []
        if lam == best_lam:
            tied.append(g)
    cons_lam = spectral_radius(cons).lam
    return SearchReport(
        n=n,
        family=family.kind,
        params=family.params_label(),
        max_lambda=best_lam,
        argmax_g6=_least_graph6(tied),
        max_edges=best_e,
        edge_argmax_g6=_least_graph6(g for g in members if g.edge_count == best_e),
        construction_lambda=cons_lam,
        construction_edges=cons.edge_count,
        lambda_match=abs(best_lam - cons_lam) <= MATCH_TOL,
        bound_violations=violations,
        graphs_scanned=len(graphs),
    )


# ---------------------------------------------------------------------------
# Serialization

CSV_COLUMNS = (
    "n",
    "family",
    "params",
    "max_lambda",
    "argmax_g6",
    "max_edges",
    "edge_argmax_g6",
    "construction_lambda",
    "lambda_match",
    "bound_violations",
    "graphs_scanned",
)


def _row(report: SearchReport) -> list[str]:
    return [repr(v) if isinstance(v, float) else str(v)
            for v in (getattr(report, c) for c in CSV_COLUMNS)]


def reports_to_csv(reports: Iterable[SearchReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow(_row(r))
    return buf.getvalue()


def report_to_json(report: SearchReport) -> str:
    return json.dumps({c: getattr(report, c) for c in CSV_COLUMNS}, indent=2, sort_keys=True)
