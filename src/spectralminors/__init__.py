"""Spectral extremal graph theory over minor-closed families.

Exact tooling for the interplay between the spectral radius of a graph and
its forbidden minors: extremal constructions (a clique joined with an
independent set, with disjoint cliques, or with a path), eigenvalue ceilings,
branch-set minor testing, Colin de Verdiere classification through the
obstruction-set characterizations, and exhaustive searches over all graphs of
a fixed small order.
"""

from .canon import are_isomorphic, canonical_key
from .cdv import MuClass, classify_mu
from .families import FamilySpec
from .graph import (
    MAX_VERTICES,
    Graph,
    ResidualShape,
    complete,
    complete_bipartite,
    construct_cdv_extremal,
    construct_kr_extremal,
    construct_kst_extremal,
    cycle,
    delete_vertex,
    disjoint_union,
    encode_graph6,
    independent,
    is_bipartite,
    is_path_union,
    join,
    kst_parts,
    parse_graph6,
    path,
    petersen,
    recognize_residual,
)
from .minors import (
    MinorWitness,
    delta_to_y,
    delta_y_closure,
    has_minor,
    is_linkless,
    is_outerplanar,
    is_planar,
    linkless_obstructions,
    outerplanar_obstructions,
    planar_obstructions,
    verify_witness,
    y_to_delta,
)
from .search import (
    MembershipReport,
    SearchReport,
    enumerate_graphs,
    family_filter,
    ingest_graph6_stream,
    report_to_json,
    reports_to_csv,
    scan_family,
    verify_membership,
)
from .spectral import (
    ConvergenceError,
    EigenResult,
    QuotientMatrix,
    kst_lambda_bound,
    quotient_bound,
    spectral_radius,
    two_walk_bound,
)

__version__ = "0.1.0"
