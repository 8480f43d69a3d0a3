"""Colin de Verdiere parameter classification through the minor-closed
characterizations decidable by finite obstruction sets: mu <= 1 iff a disjoint
union of paths, mu <= 2 iff outerplanar, mu <= 3 iff planar, mu <= 4 iff
linklessly embeddable. Values 5 and above are reported as a single class.
The classes are nested, so mu_at_most decides mu <= m by level m's test alone.

Also carries the two reported (not asserted) edge-count inequalities for
mu-bounded and bipartite linkless graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, is_bipartite, is_path_union
from .minors import is_linkless, is_outerplanar, is_planar

# Levels 1..4 as (label, witness, test). Path unions are outerplanar, outerplanar
# graphs planar, planar graphs linkless: classify_mu stops by level m iff test m holds.
_LEVELS = (("<=1", "disjoint-paths", is_path_union),
           ("=2", "outerplanar", is_outerplanar),
           ("=3", "planar", is_planar),
           ("=4", "linkless", is_linkless))


@dataclass(frozen=True)
class MuClass:
    """Classification value in 1..5 (5 standing for 'at least 5'), its label,
    and the name of the characterization that witnessed it."""

    value: int
    label: str
    witness: str

    def at_most(self, m: int) -> bool:
        """Whether the class certifies mu <= m (only meaningful for m <= 4)."""
        return self.value <= m


def classify_mu(g: Graph) -> MuClass:
    """Smallest characterization level containing g, evaluated bottom up:
    level 1 reads degrees and edge counts (a path union, the same as having
    no K3 or K1,3 minor), levels 2-4 run minor tests on obstruction sets."""
    for value, (label, witness, test) in enumerate(_LEVELS, start=1):
        if test(g):
            return MuClass(value, label, witness)
    return MuClass(5, ">=5", "none")


def mu_at_most(g: Graph, m: int) -> bool:
    """Whether mu(g) <= m, by level m's test alone. Decidable only for m <= 4."""
    if not 1 <= m <= 4:
        raise ValueError("m must be in 1..4 (higher classes are not decidable here)")
    return _LEVELS[m - 1][2](g)


def check_problem1(g: Graph, m: int) -> bool:
    """Report whether e(g) <= m*n - m(m+1)/2 for a graph verified to have
    mu <= m. Decidable only for m <= 4."""
    if not mu_at_most(g, m):
        raise ValueError(f"graph is not verified to have mu <= {m}")
    return g.edge_count <= m * g.n - m * (m + 1) // 2


def check_problem2(g: Graph) -> bool:
    """Report whether e(g) <= 3n - 9 for a graph verified bipartite and
    linklessly embeddable."""
    if not is_bipartite(g):
        raise ValueError("graph is not bipartite")
    if not is_linkless(g):
        raise ValueError("graph is not linklessly embeddable")
    return g.edge_count <= 3 * g.n - 9
