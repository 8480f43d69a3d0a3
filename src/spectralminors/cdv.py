"""Colin de Verdiere parameter classification through the minor-closed
characterizations decidable by finite obstruction sets: mu <= 1 iff a disjoint
union of paths, mu <= 2 iff outerplanar, mu <= 3 iff planar, mu <= 4 iff
linklessly embeddable. Values 5 and above are reported as a single class.
The classes are nested, so mu_at_most decides mu <= m by level m's test alone,
and one classify_mu answers mu <= m for every m through MuClass.at_most.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, is_path_union
from .minors import is_linkless, is_outerplanar, is_planar

# Levels 1..4 as (label, witness, test). Path unions are outerplanar, outerplanar
# graphs planar, planar graphs linkless: classify_mu stops by level m iff test m holds.
_LEVELS = (("<=1", "disjoint-paths", is_path_union),
           ("=2", "outerplanar", is_outerplanar),
           ("=3", "planar", is_planar),
           ("=4", "linkless", is_linkless))


def _check_level(m: int) -> None:
    if not 1 <= m <= 4:
        raise ValueError("m must be in 1..4 (higher classes are not decidable here)")


@dataclass(frozen=True)
class MuClass:
    """Classification value in 1..5 (5 standing for 'at least 5'), its label,
    and the name of the characterization that witnessed it."""

    value: int
    label: str
    witness: str

    def at_most(self, m: int) -> bool:
        """Whether the class certifies mu <= m, for m in 1..4: the class
        ">=5" cannot answer for m >= 5."""
        _check_level(m)
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
    _check_level(m)
    return _LEVELS[m - 1][2](g)
