"""Semitotal domination solvers, contraction blockers, hardness
constructions, and the forbidden-pattern dichotomy."""

from .errors import (
    FloorError,
    GenerationFailed,
    Infeasible,
    InvalidEdge,
    InvalidInstance,
    InvalidSetting,
    NotInSet,
    ParseError,
    PatternTooLarge,
    PreconditionViolated,
    ScaleLimit,
    SemitotalError,
)
from .graphs import (
    Graph,
    complete_graph,
    components,
    contains_induced,
    contains_subgraph,
    contract_edges,
    cycle_graph,
    disjoint_union,
    from_graph6,
    induced_subgraph,
    is_chordal,
    is_connected,
    parse_edge_list,
    path_graph,
    random_connected,
    star_graph,
    to_graph6,
)
from .patterns import parse_pattern
from .smallgraphs import connected_graphs, iter_connected_graphs
from .domination import (
    DominationKind,
    SolveResult,
    enumerate_min_sets,
    exists_within,
    feasible_sets,
    is_feasible,
    solve,
    solve_by_enumeration,
)
from .blocker import (
    ConfigMatch,
    ContractionCertificate,
    CtMechanism,
    CtVerdict,
    STConfigId,
    characterize_ct,
    classify_ct_domination,
    classify_ct_total,
    ct_exact,
    ct_is_one,
    exists_plus1_sds_with_config,
    min_set_spans_edge,
    path_contraction_certificate,
    replay_contraction,
    validate_ct_verdict,
)
from .reductions import (
    CheckResult,
    ReductionOutput,
    SatInstance,
    brute_1in3,
    identity_check,
    parse_sat,
    reduce_2p3free,
    reduce_chordal,
    reduce_clawfree,
    reduce_tree,
    satisfying_sds,
    structure_checks,
    validate_reduction,
)
from .hclasses import (
    HClassification,
    HVerdict,
    classify_h,
    ec1_gt2_p3kp2free,
    ec1_gt2_p5free,
    is_h_free,
    poly_dispatch,
    sds_size_threshold,
)
from .verify import SUITES, run_suite

__version__ = "0.1.0"
