"""The benchmark's four workloads.

Each workload makes its inputs from the seed, fills the caches its timed part
uses (`setup`, which the set-up probe also runs in a fresh process), runs
whole rounds of operations (`round`), and checks the outputs of a round
against the independent oracles in `oracles.py` (`check`). Only the standard
library is imported at module level, so importing this module costs the
set-up probe nothing and networkx never inflates the measured memory.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import spans

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
CHILD_TIMEOUT_S = 150


FAILED = object()


class Ops:
    """Counts operations. One that raises is counted as failed and the round
    goes on; its output is FAILED."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is data, not a crash
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return FAILED

    def fail(self, what: str):
        self.failed += 1
        self.errors.append(what)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SML_THREADS", None)  # would override --jobs
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


def run_child(argv, root: Path, workdir: Path, timeout: float = CHILD_TIMEOUT_S):
    """Run a command to completion in its own process group. Returns (exit
    code, stdout, stderr, peak RSS in MB of the child and the descendants it
    waited for). On timeout the whole group is killed and the exit code is
    None."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        code = None if timed_out.is_set() else proc.returncode
        return (code, out.read().decode("ascii", "replace"), err.read().decode("ascii", "replace"),
                usage.ru_maxrss / 1024.0)


def g6_encode(n: int, edges) -> str:
    """graph6 of a graph on at most 62 vertices (the inputs written here)."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in adj for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    out = [n + 63]
    for k in range(0, len(bits), 6):
        out.append(63 + sum(b << (5 - i) for i, b in enumerate(bits[k:k + 6])))
    return "".join(map(chr, out))


class Workload:
    name = ""
    why = ""

    def __init__(self, sm, seed: int, smoke: bool, root: Path, workdir: Path):
        self.sm = sm
        self.seed = seed
        self.smoke = smoke
        self.root = root
        self.workdir = workdir

    @staticmethod
    def setup(sm, smoke: bool):
        """Fill the package caches the timed part uses."""

    def round(self, ops: Ops, tracer=None):
        raise NotImplementedError

    def summary(self, out):
        """What must repeat exactly from round to round."""
        return out

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Shared oracle helpers


def _oracle_family_members():
    """Membership test per family label, for the families scanned."""
    import networkx as nx

    import oracles as o

    k5 = nx.complete_graph(5)
    family = o.petersen_family()
    return {
        "K5-minor-free": lambda G: o.is_planar(G) or not o.has_minor(k5, G),
        "K2,3-minor-free": o.is_k23_minor_free,
        "mu<=3": o.is_planar,
        "mu<=4": lambda G: o.is_linkless_small(G, family),
    }


def _atlas_graphs(sm, n: int, bad: list[str]):
    """The package's enumeration at n as networkx graphs, checked against the
    known count and for pairwise non-isomorphism (so it is exactly one graph
    per class)."""
    import oracles as o

    graphs = [o.to_nx(g) for g in sm.enumerate_graphs(n)]
    if len(graphs) != o.GRAPH_COUNTS[n]:
        bad.append(f"enumeration at n={n}: {len(graphs)} graphs, expected {o.GRAPH_COUNTS[n]}")
    if not o.pairwise_non_isomorphic(graphs):
        bad.append(f"enumeration at n={n} repeats an isomorphism class")
    planar = sum(o.is_planar(G) for G in graphs)
    if planar != o.PLANAR_COUNTS[n]:
        bad.append(f"planar graphs at n={n}: {planar}, expected {o.PLANAR_COUNTS[n]}")
    return graphs


def _check_report(label: str, family, n: int, report, graphs, member,
                  exhaustive: bool = True) -> list[str]:
    """A SearchReport (or a parsed CSV row with the same fields) against the
    recomputed scan, the construction built with networkx, and the classical
    edge bounds. When the graphs are every graph on n vertices, the
    construction is among them, so the maxima must reach it, and for K_r the
    edge maximum is the extremal number."""
    import oracles as o

    exp = o.expected_scan(graphs, member)
    if not exp["members"]:
        return [f"{label}: the oracle finds no member, the inputs are unusable"]
    bad = o.compare_scan(label, report, exp, len(graphs))
    if family.kind == "kr":
        a, t, kind = family.r - 2, None, "kr"
        edge_bound = o.kr_edge_bound(n, family.r)
    elif family.kind == "kst":
        a, t, kind = family.s - 1, family.t, "kst"
        edge_bound = o.k2t_edge_bound(n, family.t) if family.s == 2 else None
    else:
        a, t, kind = family.m - 1, None, "cdv"
        edge_bound = {3: o.planar_edge_bound(n), 4: o.linkless_edge_bound(n)}.get(family.m)
    cons = o.construction(kind, n, a, t)
    cons_lam = o.lam(cons)
    if not o.close(report.construction_lambda, cons_lam):
        bad.append(f"{label}: construction lambda {report.construction_lambda!r} != {cons_lam!r}")
    if getattr(report, "construction_edges", cons.number_of_edges()) != cons.number_of_edges():
        bad.append(f"{label}: construction edges {report.construction_edges} != {cons.number_of_edges()}")
    if exhaustive and exp["max_lambda"] < cons_lam - 1e-9:
        bad.append(f"{label}: max lambda {exp['max_lambda']} below the construction's {cons_lam}")
    if report.lambda_match != (abs(exp["max_lambda"] - cons_lam) <= 1e-9):
        bad.append(f"{label}: lambda_match {report.lambda_match} disagrees with the recomputation")
    if edge_bound is not None and report.max_edges > edge_bound:
        bad.append(f"{label}: {report.max_edges} edges exceed the classical bound {edge_bound}")
    if exhaustive and family.kind == "kr" and report.max_edges != edge_bound:
        bad.append(f"{label}: max edges {report.max_edges} != extremal number {edge_bound}")
    violations = 0
    if family.kind == "kst":
        ceiling = o.kst_ceiling(n, family.s, family.t)
        violations = sum(x > ceiling + 1e-9 for x in exp["lams"])
    if report.bound_violations != violations:
        bad.append(f"{label}: bound_violations {report.bound_violations} != {violations}")
    return bad


# ---------------------------------------------------------------------------
# atlas-scan


class AtlasScan(Workload):
    name = "atlas-scan"
    why = ("n=7 scans over all 1044 graphs (K5-free, K2,3-free, mu<=4): minor testing over "
           "the whole atlas, what a minor-closure table or a faster backtracker would replace")

    def __init__(self, *args):
        super().__init__(*args)
        sm = self.sm
        self.n = 6 if self.smoke else 7
        self.families = [sm.FamilySpec.kr_minor_free(5), sm.FamilySpec.kst_minor_free(2, 3),
                         sm.FamilySpec.cdv_at_most(4)]

    @staticmethod
    def setup(sm, smoke):
        list(sm.enumerate_graphs(6 if smoke else 7))
        sm.linkless_obstructions()
        sm.planar_obstructions()
        sm.outerplanar_obstructions()

    def round(self, ops, tracer=None):
        return [ops.call(self.sm.scan_family, fam, self.n, jobs=1) for fam in self.families]

    def check(self, out):
        bad: list[str] = []
        graphs = _atlas_graphs(self.sm, self.n, bad)
        members = _oracle_family_members()
        for fam, report in zip(self.families, out):
            if report is not FAILED:
                bad += _check_report(fam.label(), fam, self.n, report, graphs,
                                     members[fam.label()])
        return bad


# ---------------------------------------------------------------------------
# stream-hosts

# The host structures are fixed; the run seed only orders them. The minor
# tester's cost on one n=9 graph changes several-fold under relabelling, so
# seed-drawn hosts would make the round time depend on the seed far more than
# on the code.
POOL_SEED = 1703_09732
STREAM_P = (0.2, 0.7)


class StreamHosts(Workload):
    name = "stream-hosts"
    why = ("G(9,p) hosts through a graph6 file: scans and K5/K3,3 tests past any atlas-sized "
           "table, yes and no answers mixed; moves with the backtracker, not with a closure table")

    def __init__(self, *args):
        super().__init__(*args)
        sm = self.sm
        self.n = 8 if self.smoke else 9
        count = 6 if self.smoke else 18
        pool = random.Random(POOL_SEED)
        pairs = list(itertools.combinations(range(self.n), 2))
        lo, hi = STREAM_P
        hosts = []
        for i in range(count):
            p = lo + (hi - lo) * i / (count - 1)
            hosts.append([e for e in pairs if pool.random() < p])
        rng = random.Random(self.seed)
        rng.shuffle(hosts)
        self.hosts = hosts
        self.path = self.workdir / f"hosts-{self.seed}.g6"
        self.path.write_text("".join(g6_encode(self.n, e) + "\n" for e in hosts), encoding="ascii")
        self.graphs = [sm.Graph.from_edges(self.n, e) for e in hosts]
        self.minors = {"K5": sm.complete(5), "K3,3": sm.complete_bipartite(3, 3)}
        self.tests = [(h, i) for h in self.minors for i in range(count)]
        rng.shuffle(self.tests)
        self.families = [sm.FamilySpec.kr_minor_free(5), sm.FamilySpec.kst_minor_free(2, 3),
                         sm.FamilySpec.cdv_at_most(3)]

    @staticmethod
    def setup(sm, smoke):
        sm.linkless_obstructions()
        sm.planar_obstructions()
        sm.outerplanar_obstructions()

    def round(self, ops, tracer=None):
        sm = self.sm
        scans = [ops.call(sm.scan_family, fam, self.n, source=str(self.path))
                 for fam in self.families]
        tests = [ops.call(sm.has_minor, self.minors[h], self.graphs[i]) for h, i in self.tests]
        return scans, tests

    def summary(self, out):
        scans, tests = out
        return scans, [getattr(w, "branch_sets", w) for w in tests]

    def check(self, out):
        import networkx as nx

        import oracles as o

        scans, tests = out
        bad: list[str] = []
        graphs = [o.nx_graph(self.n, e) for e in self.hosts]
        members = _oracle_family_members()
        for fam, report in zip(self.families, scans):
            if report is not FAILED:
                bad += _check_report(fam.label(), fam, self.n, report, graphs,
                                     members[fam.label()], exhaustive=False)
        H = {"K5": nx.complete_graph(5), "K3,3": nx.complete_bipartite_graph(3, 3)}
        answers = {}
        for (h, i), w in zip(self.tests, tests):
            if w is FAILED:
                continue
            answers[h, i] = w is not None
            if answers[h, i] != o.has_minor(H[h], graphs[i]):
                bad.append(f"has_minor({h}, host {i}): {answers[h, i]}, the oracle disagrees")
            elif w is not None and not o.witness_ok(H[h], graphs[i], w.branch_sets):
                bad.append(f"has_minor({h}, host {i}): witness fails the contraction check")
        for i, G in enumerate(graphs):
            if ("K5", i) in answers and ("K3,3", i) in answers:
                # Wagner: planar iff neither K5 nor K3,3 is a minor.
                if o.is_planar(G) == (answers["K5", i] or answers["K3,3", i]):
                    bad.append(f"host {i}: the K5 and K3,3 answers contradict planarity")
        return bad


# ---------------------------------------------------------------------------
# large-spectral

# (kind, n, parameters); the kst entries with n - s + 1 divisible by t are the
# equality case of the K_{s,t} ceiling.
SPECTRAL_SET = [
    ("kr", 1800, 32), ("kr", 900, 20), ("kr", 300, 8),
    ("kst", 2005, 6, 10), ("kst", 1010, 11, 20), ("kst", 500, 3, 7),
    ("cdv", 1200, 4), ("cdv", 400, 3),
    ("path", 100), ("path", 200), ("path", 300),
]
SPECTRAL_SMOKE = [("kr", 200, 8), ("kst", 65, 3, 7), ("cdv", 100, 4), ("path", 40)]


class LargeSpectral(Workload):
    name = "large-spectral"
    why = ("joins on 300-2005 vertices (lambda up to 245) and paths P100-P300: construct, "
           "spectral_radius, graph6 round trip; only graph and spectral work, minors idle")
    def __init__(self, *args):
        super().__init__(*args)
        rng = random.Random(self.seed)
        # A seeded vertex relabelling per graph: the program sees other labels
        # for every seed, at the same cost. The order stays fixed, since it
        # decides which outputs are alive at the largest solve, and so the
        # peak memory.
        self.items = [(item, rng.sample(range(item[1]), item[1]))
                      for item in (SPECTRAL_SMOKE if self.smoke else SPECTRAL_SET)]

    def _construct(self, item):
        sm = self.sm
        kind, n, *p = item
        if kind == "kr":
            return sm.construct_kr_extremal(n, p[0])
        if kind == "kst":
            return sm.construct_kst_extremal(n, p[0], p[1])
        if kind == "cdv":
            return sm.construct_cdv_extremal(n, p[0])
        return sm.path(n)

    def _solve(self, item, perm):
        sm = self.sm
        g = self._construct(item).relabel(perm)
        res = sm.spectral_radius(g)
        text = sm.encode_graph6(g)
        return {"g": g, "lam": res.lam, "iterations": res.iterations,
                "g6": text, "round_trip": sm.parse_graph6(text) == g}

    def round(self, ops, tracer=None):
        return [ops.call(self._solve, item, perm) for item, perm in self.items]

    def summary(self, out):
        return [r if r is FAILED else (r["lam"], r["iterations"], r["g6"], r["round_trip"])
                for r in out]

    def check(self, out):
        import networkx as nx

        import oracles as o

        bad: list[str] = []
        for (item, perm), r in zip(self.items, out):
            if r is FAILED:
                continue
            kind, n, *p = item
            label = f"{kind}{tuple([n] + p)}"
            closed = None
            if kind == "path":
                R = nx.path_graph(n)
                closed = o.path_lambda(n)
            else:
                a = p[0] - 2 if kind == "kr" else p[0] - 1
                R = o.construction(kind, n, a, p[1] if kind == "kst" else None)
                if kind == "kr":
                    closed = o.clique_join_independent_lambda(a, n - a)
                elif kind == "kst":
                    ceiling = o.kst_ceiling(n, p[0], p[1])
                    if not o.close(self.sm.kst_lambda_bound(n, p[0], p[1]), ceiling):
                        bad.append(f"{label}: kst_lambda_bound differs from the closed form")
                    if (n - a) % p[1] == 0:
                        closed = ceiling
                    elif r["lam"] > ceiling + 1e-9:
                        bad.append(f"{label}: lambda {r['lam']!r} above the K_s,t ceiling {ceiling!r}")
            expected = o.nx_graph(n, [(perm[u], perm[v]) for u, v in R.edges()])
            G = o.to_nx(r["g"])
            if not o.same_edges(G, expected):
                bad.append(f"{label}: constructed graph differs from the networkx construction")
            eig = o.lam(G)
            if not o.close(r["lam"], eig):
                bad.append(f"{label}: lambda {r['lam']!r} != eigvalsh {eig!r}")
            if closed is not None and not o.close(r["lam"], closed):
                bad.append(f"{label}: lambda {r['lam']!r} != closed form {closed!r}")
            if not r["round_trip"]:
                bad.append(f"{label}: parse_graph6(encode_graph6(g)) != g")
            if r["g6"] != o.g6_of(expected):
                bad.append(f"{label}: graph6 differs from networkx's encoding")
            if not o.same_edges(o.from_g6(r["g6"]), expected):
                bad.append(f"{label}: networkx decodes the graph6 to another graph")
            if r["iterations"] < 1:
                bad.append(f"{label}: {r['iterations']} power iterations reported")
        return bad


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    name = "cli"
    why = ("fresh sml processes (search --jobs 2, mu, minor, dy, report-problems): the only "
           "workload paying set-up per command and using the process pool and the cli layer")

    def __init__(self, *args):
        super().__init__(*args)
        n = "6" if self.smoke else "7"
        self.n = int(n)
        self.max_n = 4 if self.smoke else 6
        self.commands = [
            ["search", "--family", "kr", "--r", "5", "--n", n, "--jobs", "2", "--format", "csv"],
            ["search", "--family", "cdv", "--m", "3", "--n", n, "--jobs", "2", "--format", "csv"],
            ["mu", "Petersen"],
            ["minor", "--h", "K5", "Petersen"],
            ["dy"],
            ["report-problems", "--max-n", str(self.max_n)],
        ]
        self.peak_mb = 0.0

    @staticmethod
    def setup(sm, smoke):
        import spectralminors.cli  # noqa: F401  (the entry point's own imports)

        AtlasScan.setup(sm, smoke)

    def round(self, ops, tracer=None):
        out = []
        for k, args in enumerate(self.commands):
            dump = self.workdir / f"spans-{k}.json"
            if tracer is None:
                argv = [sys.executable, "-m", "spectralminors.cli", *args]
            else:
                argv = [sys.executable, str(CHILD), "cli", str(dump), *args]
            ops.attempted += 1
            t0 = perf_counter()
            code, stdout, stderr, rss = run_child(argv, self.root, self.workdir)
            t1 = perf_counter()
            self.peak_mb = max(self.peak_mb, rss)
            if code != 0:
                ops.fail(f"sml {' '.join(args)}: exit {code}: {stderr.strip()[-300:]}")
            if tracer is not None:
                parent = tracer.add(spans.COMMAND_SPAN + args[0], t0, t1)
                if dump.exists():
                    data = json.loads(dump.read_text(encoding="ascii"))
                    dump.unlink()
                    tracer.merge(data["trace"], parent)
                    tracer.cache_hits += data["cache"][0]
                    tracer.cache_misses += data["cache"][1]
            out.append((code, stdout, stderr))
        return out

    def peak_rss_mb(self):
        return self.peak_mb

    def check(self, out):
        import networkx as nx

        import oracles as o

        sm = self.sm
        bad: list[str] = []
        results = dict(zip((" ".join(c) for c in self.commands), out))
        graphs = {m: _atlas_graphs(sm, m, bad) for m in range(1, self.n + 1)}
        members = _oracle_family_members()

        for args, fam, key in (
                (self.commands[0], sm.FamilySpec.kr_minor_free(5), "K5-minor-free"),
                (self.commands[1], sm.FamilySpec.cdv_at_most(3), "mu<=3")):
            code, stdout, _ = results[" ".join(args)]
            if code != 0:
                continue
            rows = list(csv.DictReader(io.StringIO(stdout)))
            if len(rows) != 1:
                bad.append(f"search {key}: {len(rows)} CSV rows")
                continue
            bad += _check_report(f"sml search {key}", fam, self.n, _CsvReport(rows[0]),
                                 graphs[self.n], members[key])

        # networkx labels the Petersen graph as sml does: outer 5-cycle 0-4,
        # spokes (i, i+5), inner pentagram.
        petersen = nx.petersen_graph()
        family = o.petersen_family()
        code, stdout, _ = results["mu Petersen"]
        if not any(nx.is_isomorphic(F, petersen) for F in family):
            bad.append("oracle: the Petersen graph is not in the delta-wye family of K6")
        elif code == 0 and stdout.strip() != ">=5 (not linklessly embeddable)":
            bad.append(f"mu Petersen: {stdout.strip()!r}, expected mu >= 5")

        code, stdout, _ = results["minor --h K5 Petersen"]
        if code == 0:
            lines = stdout.split("\n")
            K5 = nx.complete_graph(5)
            if not o.has_minor(K5, petersen):
                bad.append("oracle: K5 is not a minor of the Petersen graph")
            if lines[0] != "yes":
                bad.append(f"minor --h K5 Petersen: {lines[0]!r}")
            else:
                sets = [[int(v) for v in line.split(":")[1].split()] for line in lines[1:] if line]
                if not o.witness_ok(K5, petersen, sets):
                    bad.append("minor --h K5 Petersen: witness fails the contraction check")

        code, stdout, stderr = results["dy"]
        if code == 0:
            closure = [o.from_g6(s) for s in stdout.split()]
            if stderr.strip() != f"count: {len(family)}" or len(closure) != len(family):
                bad.append(f"dy: {len(closure)} graphs ({stderr.strip()!r}), expected {len(family)}")
            elif not all(sum(nx.is_isomorphic(G, F) for F in family) == 1 for G in closure) \
                    or not o.pairwise_non_isomorphic(closure):
                bad.append("dy: output is not the delta-wye family of K6")

        code, stdout, _ = results[f"report-problems --max-n {self.max_n}"]
        if code == 0:
            bad += self._check_problems(stdout, graphs, family)
        return bad

    def _check_problems(self, stdout, graphs, family):
        import networkx as nx

        import oracles as o

        bad = []
        tables, table = [], None
        for line in stdout.splitlines():
            parts = line.split()
            if parts and all(p.isdigit() for p in parts):
                table.append(tuple(map(int, parts)))
            elif line.startswith(("m  n", "n  members")):
                table = []
                tables.append(table)
        if len(tables) != 2:
            return [f"report-problems: {len(tables)} tables, expected 2"]
        mu_tests = {1: o.is_path_forest, 2: o.is_outerplanar, 3: o.is_planar,
                    4: lambda G: o.is_linkless_small(G, family)}
        want1 = []
        for m in range(1, 5):
            for n in range(1, self.max_n + 1):
                mem = [G for G in graphs[n] if mu_tests[m](G)]
                bound = m * n - m * (m + 1) // 2
                want1.append((m, n, len(mem), sum(G.number_of_edges() > bound for G in mem)))
        if tables[0] != want1:
            bad.append(f"report-problems: problem 1 table {tables[0]} != {want1}")
        for m, n, count, violations in tables[0]:
            if m == 1 and count != o.PARTITIONS[n]:
                bad.append(f"report-problems: mu<=1 count {count} at n={n} != p({n})")
            if n >= m and violations:
                bad.append(f"report-problems: problem 1 violated at m={m}, n={n}")
        want2 = []
        for n in range(1, self.max_n + 1):
            mem = [G for G in graphs[n] if nx.is_bipartite(G) and mu_tests[4](G)]
            want2.append((n, len(mem), sum(G.number_of_edges() > 3 * n - 9 for G in mem)))
        if tables[1] != want2:
            bad.append(f"report-problems: problem 2 table {tables[1]} != {want2}")
        return bad


class _CsvReport:
    """A criterion-11 CSV row read back into SearchReport's field names."""

    def __init__(self, row: dict):
        self.n = int(row["n"])
        self.max_lambda = float(row["max_lambda"])
        self.argmax_g6 = row["argmax_g6"]
        self.max_edges = int(row["max_edges"])
        self.edge_argmax_g6 = row["edge_argmax_g6"]
        self.construction_lambda = float(row["construction_lambda"])
        self.lambda_match = row["lambda_match"] == "True"
        self.bound_violations = int(row["bound_violations"])
        self.graphs_scanned = int(row["graphs_scanned"])


WORKLOADS = {w.name: w for w in (AtlasScan, StreamHosts, LargeSpectral, Cli)}
