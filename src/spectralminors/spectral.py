"""Spectral radius and Perron vector by power iteration on small components
and Lanczos steps on large ones, plus the closed-form eigenvalue bounds used
to compare against extremal constructions and an integer 2-walk bound that
lets scans skip solves.

Each connected component is solved on its own. Its adjacency is built once
from the bit rows as sparse index arrays (neighbour lists in row order), read
off the nonzero bytes of its rows packed over all n columns: k rows cost
k n / 8 bytes and their edges, not k n unpacked bits. The product A x is one
gather and one segmented sum, so it costs O(edges).
Every solve starts from the all-ones vector (a regular component stops at
the first product with residual 0.0) and stops when the infinity-norm
eigen-residual |A x - lam x| of a nonnegative x is at most
TOL * max(1, lam), lam being the Rayleigh quotient of x. Once
STAGNATION_WINDOW products in a row set no new least residual, the solve
raises ConvergenceError naming the least residual reached.

A component of k <= DENSE_SEED_MAX vertices runs the power iteration on
A + (max degree + 1) I, whose dominant eigenvalue is simple and positive even
on bipartite components. If it has not stopped after k products, one dense
eigh of its adjacency (counted as one iteration) gives the top eigenvector,
whose absolute value, scaled to maximum 1, seeds the iteration; that solve
then stops through the same residual check.

A larger component takes Lanczos steps on the sparse product from the
current vector, with full reorthogonalisation, and a basis of at most
BASIS_BYTES. The absolute value of the top Ritz vector, scaled to maximum 1,
passes through the residual check; if it fails, the Lanczos steps restart
from it. The paper's extremal joins stop within ten products, and a k-vertex
path within k / 2 + 2 while k / 2 basis rows fit in BASIS_BYTES.

On a disconnected graph the component of largest spectral radius wins (ties
to the lowest-indexed component); the returned vector is zero off the
winning component and has maximum entry 1. A lone vertex is never solved:
the search starts from vertex 0's answer (lambda 0, vector e_0, no product),
which every component with an edge beats, so an edgeless graph returns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Graph, _bits, _edge_arrays, join

ITERATION_CAP = 10 ** 6
TOL = 1e-12
# Largest component solved by the power iteration with its dense eigh seed;
# larger components take Lanczos steps.
DENSE_SEED_MAX = 64
# Most bytes the Lanczos basis holds: 32 MiB, a 2048 x 2048 float64 matrix.
BASIS_BYTES = 32 << 20
# Products without a new least residual after which the solve gives up.
# Converging runs set a new least residual at every certificate; a run stuck
# at the rounding floor sets none.
STAGNATION_WINDOW = 1000


class ConvergenceError(RuntimeError):
    """Raised when a solve fails to reach tolerance in time."""


@dataclass(frozen=True)
class EigenResult:
    """Spectral radius lam, Perron vector (max entry 1, zero off the winning
    component), final infinity-norm residual, the number of sparse products
    (plus one per dense seed) taken on the winning component, and the index
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


def _top_eigenpair(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric tridiagonal matrix T with diagonal
    alpha and positive off-diagonal beta, as the least float found above
    every eigenvalue, and its unit eigenvector.

    Bisection on Sturm counts finds the eigenvalue: x lies above every
    eigenvalue when every pivot of the LDL^T factors of T - x I is negative.
    Two steps of inverse iteration with the positive definite hi I - T, hi
    the eigenvalue found, from the all-ones vector give the eigenvector,
    which is positive. Both are O(m) loops over Python floats: LAPACK's eigh
    takes O(m^3) time and O(m^2) memory, and on a shared 2-core machine its
    OpenBLAS threads stalled a 128 x 128 solve for 0.2 s."""
    a = alpha.tolist()
    b = beta.tolist()
    b2 = [v * v for v in b]

    def pivots(x: float) -> list[float]:
        # the pivots of T - x I = L D L^T, up to the first nonnegative one
        d = [a[0] - x]
        for ai, bb in zip(a[1:], b2):
            if d[-1] >= 0.0:
                break
            d.append(ai - x - bb / d[-1])
        return d

    # the largest diagonal entry is a Rayleigh quotient of T; Gershgorin's
    # bound, plus 1, lies strictly above every eigenvalue
    lo = max(a)
    hi = max(ai + bl + br for ai, bl, br in zip(a, [0.0] + b, b + [0.0])) + 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if pivots(mid)[-1] < 0.0:
            hi = mid
        else:
            lo = mid
    e = [-d for d in pivots(hi)]  # the pivots of hi I - T, all positive
    z = [1.0] * len(a)
    for _ in range(2):
        for i in range(1, len(z)):
            z[i] += b[i - 1] / e[i - 1] * z[i - 1]
        z[-1] /= e[-1]
        for i in range(len(z) - 2, -1, -1):
            z[i] = (z[i] + b[i] * z[i + 1]) / e[i]
        norm = math.sqrt(math.fsum(v * v for v in z))
        z = [v / norm for v in z]
    return hi, np.array(z)


def _lanczos(product, x: np.ndarray, ax: np.ndarray,
             steps: int) -> tuple[np.ndarray, int]:
    """Lanczos steps from x, whose product ax is known, with full
    reorthogonalisation, at most `steps` of them and at most BASIS_BYTES of
    basis. Returns the absolute value of the top Ritz vector scaled to maximum
    1, and the number of products taken.

    The unit Ritz vector y of the top Ritz value theta has residual
    |A y - theta y| = beta_j |s_j|. It is read at steps 1, 2, 4, 8, ...; the
    run stops once it is at most TOL * max(1, theta) * max|y|, which bounds
    the infinity-norm residual of y / max|y|, or once the basis is full or
    spans an invariant subspace."""
    k = len(x)
    steps = min(steps, k, BASIS_BYTES // (8 * k))
    basis = np.empty((steps, k))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    # the sums go through einsum, not BLAS: on a shared 2-core machine a
    # threaded 500 x 1000 matrix-vector product took 8 ms, einsum 0.4 ms
    norm = math.sqrt(np.einsum("i,i", x, x))
    q, w = x / norm, ax / norm
    for j in range(steps):
        if j:
            w = product(q)
        basis[j] = q
        done = basis[:j + 1]
        scale = math.sqrt(np.einsum("i,i", w, w))
        alpha[j] = np.einsum("i,i", q, w)
        w -= alpha[j] * q
        if j:
            w -= beta[j - 1] * basis[j - 1]
        # the three-term recurrence, then one pass against the whole basis
        w -= np.einsum("i,ij", np.einsum("ij,j", done, w), done)
        beta[j] = math.sqrt(np.einsum("i,i", w, w))
        # below TOL * |A q| the Krylov space is invariant and w is rounding noise
        final = j + 1 == steps or beta[j] <= TOL * scale
        if final or not j & (j + 1):
            theta, s = _top_eigenpair(alpha[:j + 1], beta[:j])
            y = np.abs(np.einsum("i,ij", s, done))
            if final or beta[j] * s[-1] <= TOL * max(1.0, theta) * y.max():
                break
        q = w / beta[j]
    return y / y.max(), j


def _component_power(src: np.ndarray, dst: np.ndarray,
                     k: int) -> tuple[float, np.ndarray, float, int]:
    """Solve one connected component of k >= 2 vertices whose directed edge
    list (src ascending, every vertex a source) is src -> dst: shifted power
    iteration with a dense seed up to DENSE_SEED_MAX vertices, Lanczos steps
    above. Returns lambda, the vector, its residual and the iterations."""
    tol = TOL
    starts = np.flatnonzero(np.diff(src, prepend=-1))
    shift = float(np.diff(starts, append=len(src)).max()) + 1.0

    def product(v: np.ndarray) -> np.ndarray:
        return np.add.reduceat(v[dst], starts)

    x = np.ones(k)
    ax = product(x)
    it = 1
    least, least_it = math.inf, 0
    while True:
        lam = float(x @ ax) / float(x @ x)
        resid = float(np.abs(ax - lam * x).max())
        if resid <= tol * max(1.0, lam):
            return lam, x, resid, it
        if resid < least:
            least, least_it = resid, it
        elif it - least_it >= STAGNATION_WINDOW:
            raise ConvergenceError(
                f"the solve of a {k}-vertex component stagnated: no residual "
                f"below the least, {least!r} at iteration {least_it}, in the "
                f"{STAGNATION_WINDOW} iterations since; last lambda {lam!r}, "
                f"tol*max(1, lambda) = {tol * max(1.0, lam)!r}")
        if it >= ITERATION_CAP:
            raise ConvergenceError(
                f"the solve of a {k}-vertex component did not converge in "
                f"{ITERATION_CAP} iterations: last lambda {lam!r}, residual {resid!r} "
                f"> tol*max(1, lambda) = {tol * max(1.0, lam)!r}")
        if k > DENSE_SEED_MAX:
            x, used = _lanczos(product, x, ax, ITERATION_CAP - it)
            it += used
        elif it == k:
            x = _dense_seed(src, dst, k)
            it += 1
        else:
            y = ax + shift * x
            x = y / y.max()
        ax = product(x)
        it += 1


def spectral_radius(g: Graph) -> EigenResult:
    """Largest adjacency eigenvalue of g with its nonnegative eigenvector.

    lam is the Rayleigh quotient of a nonnegative float vector, every sum in
    it a sum of nonnegative terms, so rounding can raise it above the true
    radius by a relative 3 n eps at most (under 2e-10 for n <= MAX_VERTICES)."""
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    best = (0.0, np.ones(1), 0.0, 0)
    best_vs = [0]
    pos = np.empty(g.n, np.intp)
    for mask in g.component_masks():
        if not mask & (mask - 1):
            continue  # a lone vertex: lambda 0, never above best
        vs = list(_bits(mask))
        pos[vs] = np.arange(len(vs))
        src, dst = _edge_arrays([g.rows[v] for v in vs], g.n)
        lam, x, resid, it = _component_power(src, pos[dst], len(vs))
        if lam > best[0]:
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
