"""Minor-closed family selectors: graphs with no K_r minor, no K_{s,t} minor,
or Colin de Verdiere parameter at most m. Pure parameter holders with
validation and labels; the membership tests live in search.family_filter."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .graph import (
    Graph,
    complete,
    complete_bipartite,
    construct_cdv_extremal,
    construct_kr_extremal,
    construct_kst_extremal,
)


@dataclass(frozen=True)
class FamilySpec:
    """One of three families: kind 'kr' with r >= 3, kind 'kst' with
    2 <= s <= t, kind 'cdv' with 1 <= m <= 4 (the decidable range)."""

    kind: str
    r: int | None = None
    s: int | None = None
    t: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.kind == "kr":
            if self.r is None or self.r < 3:
                raise ValueError("kr family needs r >= 3")
            if self.s is not None or self.t is not None or self.m is not None:
                raise ValueError("kr family takes only r")
        elif self.kind == "kst":
            if self.s is None or self.t is None or not 2 <= self.s <= self.t:
                raise ValueError("kst family needs 2 <= s <= t")
            if self.r is not None or self.m is not None:
                raise ValueError("kst family takes only s and t")
        elif self.kind == "cdv":
            if self.m is None or not 1 <= self.m <= 4:
                raise ValueError("cdv family needs 1 <= m <= 4")
            if self.r is not None or self.s is not None or self.t is not None:
                raise ValueError("cdv family takes only m")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @staticmethod
    def kr_minor_free(r: int) -> "FamilySpec":
        return FamilySpec("kr", r=r)

    @staticmethod
    def kst_minor_free(s: int, t: int) -> "FamilySpec":
        return FamilySpec("kst", s=s, t=t)

    @staticmethod
    def cdv_at_most(m: int) -> "FamilySpec":
        return FamilySpec("cdv", m=m)

    def params_label(self) -> str:
        if self.kind == "kr":
            return f"r={self.r}"
        if self.kind == "kst":
            return f"s={self.s},t={self.t}"
        return f"m={self.m}"

    def label(self) -> str:
        if self.kind == "kr":
            return f"K{self.r}-minor-free"
        if self.kind == "kst":
            return f"K{self.s},{self.t}-minor-free"
        return f"mu<={self.m}"

    @cache
    def forbidden_minor(self) -> Graph | None:
        """The single forbidden graph for kr and kst, built once per family;
        None for cdv, whose obstruction sets live with the classification."""
        if self.kind == "kr":
            return complete(self.r)
        if self.kind == "kst":
            return complete_bipartite(self.s, self.t)
        return None

    def construction(self, n: int) -> Graph:
        """The reference extremal member on n vertices."""
        if self.kind == "kr":
            return construct_kr_extremal(n, self.r)
        if self.kind == "kst":
            return construct_kst_extremal(n, self.s, self.t)
        return construct_cdv_extremal(n, self.m)
