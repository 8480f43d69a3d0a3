"""Spectral radius and Perron vector by shifted power iteration, plus the
closed-form eigenvalue bounds used to compare against extremal constructions
and an integer 2-walk bound that lets scans skip solves.

Each connected component is solved on its own. Its adjacency is built once
from the bit rows as sparse index arrays (neighbour lists in row order), and
the product A x is one gather and one segmented sum, so an iteration costs
O(edges). The iteration runs on A + (max degree + 1) I so the dominant
eigenvalue is simple and positive even on bipartite components, starts from
the all-ones vector (a regular component stops at iteration 1 with residual
0.0), and stops when the infinity-norm eigen-residual |A x - lam x| is at
most TOL * max(1, lam), lam being the Rayleigh quotient of x. Once
STAGNATION_WINDOW iterations in a row set no new least residual, the
iteration raises ConvergenceError naming the least residual reached.

Components with a small spectral gap, such as long paths, need Theta(k^2)
iterations. A k-vertex component that has not stopped after k iterations,
with k <= DENSE_SEED_MAX, takes one dense eigh of its adjacency (counted as
one iteration); the absolute value of the top eigenvector, scaled to maximum
1, seeds the iteration, which then stops through the same residual check.
Longer slow components, paths on more than DENSE_SEED_MAX vertices among
them, keep the Theta(k^2) iteration count and can reach ITERATION_CAP.

On a disconnected graph the component of largest spectral radius wins (ties
to the lowest-indexed component); the returned vector is zero off the
winning component and has maximum entry 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Graph, _bits, _edge_arrays, join

ITERATION_CAP = 10 ** 6
TOL = 1e-12
# Largest component given the dense eigh seed: its k x k float64 matrix takes
# 32 MiB at k = 2048, and k sparse products cost about one eigh.
DENSE_SEED_MAX = 2048
# Iterations without a new least residual after which the iteration gives up.
# Converging runs set a new least residual every iteration or two, long paths
# included; a run stuck at the rounding floor sets none.
STAGNATION_WINDOW = 1000


class ConvergenceError(RuntimeError):
    """Raised when the power iteration fails to reach tolerance in time."""


@dataclass(frozen=True)
class EigenResult:
    """Spectral radius lam, Perron vector (max entry 1, zero off the winning
    component), final infinity-norm residual, iteration count, and the index
    of a vertex whose entry equals 1."""

    lam: float
    vector: tuple[float, ...]
    residual: float
    iterations: int
    max_vertex: int


def _dense_seed(src: np.ndarray, dst: np.ndarray, k: int) -> np.ndarray:
    adj = np.zeros((k, k))
    adj[src, dst] = 1.0
    # eigh fixes no sign; the Perron vector of a connected component has one
    top = np.abs(np.linalg.eigh(adj)[1][:, -1])
    return top / top.max()


def _component_power(src: np.ndarray, dst: np.ndarray,
                     k: int) -> tuple[float, np.ndarray, float, int]:
    """Power iteration on one connected k-vertex component whose directed
    edge list (src ascending, every vertex a source when k > 1) is src -> dst."""
    if k == 1:
        return 0.0, np.ones(1), 0.0, 0
    tol = TOL
    starts = np.flatnonzero(np.diff(src, prepend=-1))
    shift = float(np.diff(starts, append=len(src)).max()) + 1.0
    x = np.ones(k)
    least, least_it = math.inf, 0
    for it in range(1, ITERATION_CAP + 1):
        if it == k + 1 and k <= DENSE_SEED_MAX:
            x = _dense_seed(src, dst, k)
            continue
        ax = np.add.reduceat(x[dst], starts)
        lam = float(x @ ax) / float(x @ x)
        resid = float(np.abs(ax - lam * x).max())
        if resid <= tol * max(1.0, lam):
            return lam, x, resid, it
        if resid < least:
            least, least_it = resid, it
        elif it - least_it >= STAGNATION_WINDOW:
            raise ConvergenceError(
                f"power iteration on a {k}-vertex component stagnated: no residual "
                f"below the least, {least!r} at iteration {least_it}, in the "
                f"{STAGNATION_WINDOW} iterations since; last lambda {lam!r}, "
                f"tol*max(1, lambda) = {tol * max(1.0, lam)!r}")
        y = ax + shift * x
        x = y / y.max()
    raise ConvergenceError(
        f"power iteration on a {k}-vertex component did not converge in "
        f"{ITERATION_CAP} iterations: last lambda {lam!r}, residual {resid!r} "
        f"> tol*max(1, lambda) = {tol * max(1.0, lam)!r}")


def spectral_radius(g: Graph) -> EigenResult:
    """Largest adjacency eigenvalue of g with its nonnegative eigenvector.

    lam is the Rayleigh quotient of a nonnegative float vector, every sum in
    it a sum of nonnegative terms, so rounding can raise it above the true
    radius by a relative 3 n eps at most (under 2e-10 for n <= MAX_VERTICES)."""
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    best = None
    best_vs = None
    pos = np.empty(g.n, np.intp)
    for mask in g.component_masks():
        vs = list(_bits(mask))
        pos[vs] = np.arange(len(vs))
        src, dst = _edge_arrays([g.rows[v] for v in vs], g.n)
        lam, x, resid, it = _component_power(src, pos[dst], len(vs))
        if best is None or lam > best[0]:
            best = (lam, x, resid, it)
            best_vs = vs
    lam, x, resid, it = best
    vector = [0.0] * g.n
    for v, val in zip(best_vs, x):
        vector[v] = float(val)
    max_vertex = vector.index(1.0)
    return EigenResult(lam, tuple(vector), resid, it, max_vertex)


def two_walk_bound(g: Graph) -> int:
    """w(g) = max_v sum_{u ~ v} d(u), the largest number of 2-walks from one
    vertex and the largest row sum of A^2; 0 when g has no edge. The largest
    row sum of a nonnegative matrix bounds its spectral radius, so
    lambda(g)^2 = lambda(A^2) <= w(g).

    Computed from degree bit-planes: P_j holds the vertices whose degree has
    bit j set, and the row sum at v is sum_j |rows[v] & P_j| << j, so no step
    walks the edges one by one."""
    degs = g.degrees()
    planes = [sum(1 << v for v, d in enumerate(degs) if d >> j & 1)
              for j in range(max(degs, default=0).bit_length())]
    return max((sum((row & p).bit_count() << j for j, p in enumerate(planes))
                for row in g.rows), default=0)


@dataclass(frozen=True)
class QuotientMatrix:
    """2x2 quotient [[d, n2], [n1, k]] of a join: d is the internal degree on
    the first side (regular of degree d, n1 vertices), k the internal degree
    on the second side (n2 vertices). Degrees exceeding a side's order are
    allowed so the matrix can be used as a formal bound; when built from an
    actual join both inequalities hold automatically."""

    d: int
    k: int
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("both sides of a join must be nonempty")
        if self.d < 0 or self.k < 0:
            raise ValueError("internal degrees must be nonnegative")


def quotient_bound(q: QuotientMatrix) -> float:
    """Largest eigenvalue of [[d, n2], [n1, k]]."""
    return ((q.d + q.k) + math.sqrt((q.d - q.k) ** 2 + 4 * q.n1 * q.n2)) / 2.0


def kst_lambda_bound(n: int, s: int, t: int) -> float:
    """Spectral ceiling for graphs on n vertices with no K_{s,t} minor,
    2 <= s <= t: (s+t-3 + sqrt((s+t-3)^2 + 4((s-1)(n-s+1) - (s-2)(t-1)))) / 2."""
    if not 2 <= s <= t:
        raise ValueError(f"need 2 <= s <= t, got s={s}, t={t}")
    if n < s:
        raise ValueError(f"need n >= s, got n={n}")
    a = s + t - 3
    disc = a * a + 4 * ((s - 1) * (n - s + 1) - (s - 2) * (t - 1))
    return (a + math.sqrt(disc)) / 2.0


class InterlacingCheck(NamedTuple):
    bound: float
    lam: float
    tight: bool


def check_interlacing_bound(h1: Graph, h2: Graph) -> InterlacingCheck:
    """For a join of a d-regular h1 with h2 of max degree k, compare the
    spectral radius of the join against the quotient eigenvalue of
    [[d, n2], [n1, k]]. tight reports whether h2 is k-regular, the structural
    condition for equality."""
    degs1 = set(h1.degrees())
    if len(degs1) > 1:
        raise ValueError("first factor must be regular")
    d = degs1.pop() if degs1 else 0
    k = h2.max_degree()
    bound = quotient_bound(QuotientMatrix(d, k, h1.n, h2.n))
    lam = spectral_radius(join(h1, h2)).lam
    tight = len(set(h2.degrees())) == 1
    return InterlacingCheck(bound, lam, tight)
