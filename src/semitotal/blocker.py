"""Contraction blockers for semitotal domination.

ct(g) is the least number of edge contractions that strictly lowers the
parameter.  For semitotal domination with value at least 3 it is always at
most 3; the value is pinned down by two structures found inside small
dominating sets: friendly triples (ct = 1) and the seven two-contraction
configurations O1..O7 (ct = 2), with a shortest-path contraction covering
the remainder (ct = 3).  Plain and total domination classifiers for the
same question are included for cross-checking.  Every value comes from
`domination.solve`; the searches, the sweeps and the contraction scan all
stop at SEMITOTAL_BUDGET.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .errors import FloorError, Infeasible, ScaleLimit
from .graphs import (
    Graph,
    _bfs_dist,
    _bits,
    contains_subgraph,
    contract_edges,
    embed,
    inner_degrees,
    is_connected,
    normalize_edge,
    path_graph,
    star_graph,
    vertex_mask,
)
from .patterns import parse_pattern
from .domination import (
    DominationKind,
    _near,
    exists_within,
    feasible_sets,
    is_feasible,
    search_budget,
    solve,
)

_FLOOR = {
    DominationKind.DOMINATION: 1,
    DominationKind.TOTAL: 2,
    DominationKind.SEMITOTAL: 2,
}


@dataclass(frozen=True)
class ContractionCertificate:
    edges: tuple[tuple[int, int], ...]
    value_before: int
    value_after: int
    vertex_map: dict[int, int]


def ct_exact(
    g: Graph,
    kind: DominationKind,
    kmax: int = 3,
) -> tuple[int, ContractionCertificate] | None:
    """Smallest k <= kmax whose k edge contractions lower the parameter.

    Scans edge subsets by size then lexicographic order, so the returned
    certificate is reproducible.  None when no k <= kmax works; ScaleLimit
    after search_budget() contractions.
    """
    if not is_connected(g):
        raise Infeasible("ct_exact requires a connected graph")
    base = solve(g, kind).value
    if base <= _FLOOR[kind]:
        return None
    cap = search_budget()
    edges = sorted(g.edges())
    visited = 0
    for k in range(1, kmax + 1):
        for combo in combinations(edges, k):
            visited += 1
            if visited > cap:
                raise ScaleLimit(f"ct_exact exceeded {cap} contractions")
            contracted, vmap = contract_edges(g, combo)
            if contracted.n < 2 and kind is not DominationKind.DOMINATION:
                continue
            if exists_within(contracted, kind, base - 1):
                after = solve(contracted, kind).value
                return k, ContractionCertificate(combo, base, after, vmap)
    return None


# -- friendly triples ----------------------------------------------------


# The rows the plans of this module check against, measured in the whole
# graph: adjacency, distance exactly two, and distance one or two.  A plan is
# the (checks, reuse) pair that graphs.embed takes, in role order.
_ADJ, _DIST2, _NEAR = range(3)


def _tables(g: Graph) -> tuple[tuple[int, ...], ...]:
    near = tuple(_near(g.rows, v) for v in range(g.n))
    return g.rows, tuple(b & ~r for b, r in zip(near, g.rows)), near


def _realised(tables, plan, hosts, s) -> bool:
    """Whether the hosts, all members of s, pass the plan's checks."""
    members = set(s)
    return embed(tables, *plan, tuple(1 << v if v in members else 0 for v in hosts)) is not None


# roles x, y, z: xy an edge, z within distance two of y
_TRIPLE = ((), ((0, _ADJ, True),), ((1, _NEAR, True),)), ((), (), ())
# roles u, v: v within distance two of u
_PAIR = ((), ((0, _NEAR, True),)), ((), ())


def has_friendly_triple(g: Graph, d) -> tuple[int, int, int] | None:
    """First (x, y, z) in d with xy an edge and d(y, z) <= 2, in lex order.

    The middle role is asymmetric, so both orientations of each edge are
    tried.  Contracting xy inside a minimum semitotal dominating set d
    lowers the parameter.
    """
    return _triple_in(_tables(g), vertex_mask(g, d))


def _triple_in(tables, dmask: int) -> tuple[int, int, int] | None:
    return embed(tables, *_TRIPLE, (dmask,) * 3)


def _first_carrying(g: Graph, tables, k: int, find):
    """First semitotal dominating set of size k, with its hit, on which
    find(tables, mask of the set) hits; None if there is none."""
    for d in feasible_sets(g, DominationKind.SEMITOTAL, k):
        hit = find(tables, vertex_mask(g, d))
        if hit is not None:
            return frozenset(d), hit
    return None


def min_sds_has_friendly_triple(g: Graph) -> tuple[frozenset[int], tuple[int, int, int]] | None:
    """First minimum semitotal dominating set carrying a friendly triple."""
    value = solve(g, DominationKind.SEMITOTAL).value
    return _first_carrying(g, _tables(g), value, _triple_in)


# -- the seven two-contraction configurations ----------------------------


class STConfigId(Enum):
    O1 = "O1"
    O2 = "O2"
    O3 = "O3"
    O4 = "O4"
    O5 = "O5"
    O6 = "O6"
    O7 = "O7"


@dataclass(frozen=True)
class _ConfigSpec:
    roles: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]       # required edges, earlier role first
    dist2: tuple[tuple[int, int], ...]       # required distance exactly 2
    thick: tuple[tuple[int, int], tuple[int, int]]
    allow_equal: tuple[tuple[int, int], ...] = ()


# Solid lines are edges, dashed lines distance exactly two (in the whole
# graph), absent lines are unconstrained.  Thick pairs are the two edges
# whose contraction lowers the parameter.
CONFIG_SPECS: dict[STConfigId, _ConfigSpec] = {
    STConfigId.O1: _ConfigSpec(
        roles=("a", "b", "c", "d", "e", "f"),
        edges=((0, 1), (1, 2), (3, 4), (4, 5)),
        dist2=(),
        thick=((0, 1), (3, 4)),
    ),
    STConfigId.O2: _ConfigSpec(
        roles=("a", "b", "c", "d", "e", "f"),
        edges=((0, 1), (3, 4), (4, 5)),
        dist2=((1, 2),),
        thick=((0, 1), (3, 4)),
    ),
    STConfigId.O3: _ConfigSpec(
        roles=("a", "b", "c", "d", "e", "f"),
        edges=((0, 1), (3, 4)),
        dist2=((1, 2), (4, 5)),
        thick=((0, 1), (3, 4)),
        allow_equal=((2, 5),),
    ),
    STConfigId.O4: _ConfigSpec(
        roles=("x", "p", "q", "r"),
        edges=((0, 1), (0, 2), (0, 3)),
        dist2=(),
        thick=((0, 1), (0, 2)),
    ),
    STConfigId.O5: _ConfigSpec(
        roles=("a", "b", "c", "d"),
        edges=((0, 1), (1, 2)),
        dist2=((2, 3),),
        thick=((0, 1), (1, 2)),
    ),
    STConfigId.O6: _ConfigSpec(
        roles=("a", "b", "c", "d"),
        edges=((0, 1), (1, 3)),
        dist2=((1, 2),),
        thick=((0, 1), (1, 3)),
    ),
    STConfigId.O7: _ConfigSpec(
        roles=("a", "b", "c", "d"),
        edges=((0, 1), (2, 3)),
        dist2=((1, 2),),
        thick=((0, 1), (2, 3)),
    ),
}


@dataclass(frozen=True)
class ConfigMatch:
    config: STConfigId
    assignment: dict[str, int]
    thick_edges: tuple[tuple[int, int], tuple[int, int]]


def _config_plan(spec: _ConfigSpec):
    """Solid lines check adjacency and dashed lines distance exactly two, at
    the later role of each pair; allow_equal lets a role repeat the earlier."""
    lines = [(i, j, _ADJ) for i, j in spec.edges] + [(i, j, _DIST2) for i, j in spec.dist2]
    roles = range(len(spec.roles))
    return (
        tuple(tuple((i, t, True) for i, j, t in lines if j == r) for r in roles),
        tuple(tuple(i for i, j in spec.allow_equal if j == r) for r in roles),
    )


_CONFIG_PLANS = {cid: _config_plan(spec) for cid, spec in CONFIG_SPECS.items()}


def _thick_edges(spec: _ConfigSpec, hit) -> tuple[tuple[int, int], tuple[int, int]]:
    (a, b), (c, d) = spec.thick
    return normalize_edge(hit[a], hit[b]), normalize_edge(hit[c], hit[d])


def match_st_configuration(g: Graph, s) -> ConfigMatch | None:
    """First configuration O1..O7 realised inside s, scanning ids in order.

    Role tuples are tried in lexicographic order over the sorted members of
    s; distances are measured in the whole graph, not in the subgraph
    induced by s.
    """
    return _config_in(_tables(g), vertex_mask(g, s))


def _config_in(tables, smask: int, cids=tuple(STConfigId)) -> ConfigMatch | None:
    for cid in cids:
        spec = CONFIG_SPECS[cid]
        if len(spec.roles) - len(spec.allow_equal) > smask.bit_count():
            continue  # too few members for the distinct roles
        hit = embed(tables, *_CONFIG_PLANS[cid], (smask,) * len(spec.roles))
        if hit is not None:
            return ConfigMatch(cid, dict(zip(spec.roles, hit)), _thick_edges(spec, hit))
    return None


def exists_plus1_sds_with_config(g: Graph) -> tuple[frozenset[int], ConfigMatch] | None:
    """Search all semitotal dominating sets of size value+1 for a config."""
    value = solve(g, DominationKind.SEMITOTAL).value
    return _first_carrying(g, _tables(g), value + 1, _config_in)


# -- shortest-path fallback certificate ----------------------------------


def _shortest_path(g: Graph, src: int, dst: int) -> list[int]:
    """One shortest src-dst path, smallest-id tie-breaks."""
    dist = _bfs_dist(g.rows, g.n, dst)
    path = [src]
    cur = src
    while cur != dst:
        cur = min(w for w in _bits(g.rows[cur]) if dist[w] == dist[cur] - 1)
        path.append(cur)
    return path


def path_contraction_certificate(g: Graph) -> ContractionCertificate:
    """Contract a shortest path between members of a minimum semitotal
    dominating set; at most three contractions always suffice.

    Recipe: take the lex-first minimum set d, the lex-first pair u < v in d
    at distance <= 2, then the member w closest to {u, v} (ties: smallest
    id) and contract a shortest path from w to the closer of u, v.
    """
    value = solve(g, DominationKind.SEMITOTAL).value
    return _path_certificate(g, _tables(g), value)


def _path_certificate(g: Graph, tables, value: int) -> ContractionCertificate:
    if value < 3:
        raise FloorError(f"needs value >= 3, got {value}")
    d = next(feasible_sets(g, DominationKind.SEMITOTAL, value))
    # the first pair in lex order is also the first with u < v
    pair = u, v = embed(tables, *_PAIR, (vertex_mask(g, d),) * 2)
    du = _bfs_dist(g.rows, g.n, u)
    dv = _bfs_dist(g.rows, g.n, v)
    w = min((x for x in d if x not in pair), key=lambda x: (min(du[x], dv[x]), x))
    target = u if du[w] <= dv[w] else v
    path = _shortest_path(g, w, target)
    edges = tuple(normalize_edge(a, b) for a, b in zip(path, path[1:]))
    contracted, vmap = contract_edges(g, edges)
    after = solve(contracted, DominationKind.SEMITOTAL).value
    return ContractionCertificate(edges, value, after, vmap)


# -- full characterisation ----------------------------------------------


class CtMechanism(Enum):
    FLOOR = "floor"
    FRIENDLY_TRIPLE = "friendly-triple"
    ST_CONFIGURATION = "st-configuration"
    PATH_CONTRACTION = "path-contraction"


@dataclass(frozen=True)
class CtVerdict:
    value: int
    k: int | None
    mechanism: CtMechanism
    sds: frozenset[int] | None = None
    triple: tuple[int, int, int] | None = None
    match: ConfigMatch | None = None
    certificate: ContractionCertificate | None = None


def characterize_ct(g: Graph) -> CtVerdict:
    """Determine ct for semitotal domination together with its witness."""
    if not is_connected(g):
        raise Infeasible("characterize_ct requires a connected graph")
    value = solve(g, DominationKind.SEMITOTAL).value
    if value == 2:
        return CtVerdict(value, None, CtMechanism.FLOOR)
    tables = _tables(g)
    hit1 = _first_carrying(g, tables, value, _triple_in)
    if hit1 is not None:
        d, triple = hit1
        return CtVerdict(value, 1, CtMechanism.FRIENDLY_TRIPLE, sds=d, triple=triple)
    hit2 = _first_carrying(g, tables, value + 1, _config_in)
    if hit2 is not None:
        s, match = hit2
        return CtVerdict(value, 2, CtMechanism.ST_CONFIGURATION, sds=s, match=match)
    cert = _path_certificate(g, tables, value)
    return CtVerdict(value, 3, CtMechanism.PATH_CONTRACTION, certificate=cert)


def validate_ct_verdict(g: Graph, verdict: CtVerdict) -> bool:
    """Re-check a verdict's evidence directly against the graph."""
    value = solve(g, DominationKind.SEMITOTAL).value
    if verdict.value != value:
        return False
    if verdict.mechanism is CtMechanism.FLOOR:
        return value == 2 and verdict.k is None
    if verdict.mechanism is CtMechanism.FRIENDLY_TRIPLE:
        if verdict.k != 1 or verdict.sds is None or verdict.triple is None:
            return False
        if not (
            len(verdict.sds) == value
            and is_feasible(g, DominationKind.SEMITOTAL, verdict.sds)
            and _realised(_tables(g), _TRIPLE, verdict.triple, verdict.sds)
        ):
            return False
        contracted, _ = contract_edges(g, [verdict.triple[:2]])
        return solve(contracted, DominationKind.SEMITOTAL).value < value
    if verdict.mechanism is CtMechanism.ST_CONFIGURATION:
        if verdict.k != 2 or verdict.sds is None or verdict.match is None:
            return False
        if len(verdict.sds) != value + 1:
            return False
        if not is_feasible(g, DominationKind.SEMITOTAL, verdict.sds):
            return False
        spec = CONFIG_SPECS[verdict.match.config]
        hit = tuple(verdict.match.assignment.get(r) for r in spec.roles)
        if not (
            _realised(_tables(g), _CONFIG_PLANS[verdict.match.config], hit, verdict.sds)
            and _thick_edges(spec, hit) == tuple(verdict.match.thick_edges)
        ):
            return False
        contracted, _ = contract_edges(g, verdict.match.thick_edges)
        return solve(contracted, DominationKind.SEMITOTAL).value < value
    if verdict.mechanism is CtMechanism.PATH_CONTRACTION:
        cert = verdict.certificate
        if verdict.k != 3 or cert is None:
            return False
        if not 1 <= len(cert.edges) <= 3 or cert.value_before != value:
            return False
        contracted, _ = contract_edges(g, cert.edges)
        after = solve(contracted, DominationKind.SEMITOTAL).value
        return after == cert.value_after and after < value
    return False


# -- prior classifications for plain and total domination ---------------


def classify_ct_domination(g: Graph) -> int:
    """1, 2 or 3 contractions needed to lower plain domination."""
    value = solve(g, DominationKind.DOMINATION).value
    if value < 2:
        raise FloorError("plain domination at its floor cannot decrease")
    for d in feasible_sets(g, DominationKind.DOMINATION, value):
        if any(inner_degrees(g, d)):
            return 1
    for s in feasible_sets(g, DominationKind.DOMINATION, value + 1):
        if sum(inner_degrees(g, s)) >= 4:  # two edges inside the set
            return 2
    return 3


_P4 = path_graph(4)
_CLAW = star_graph(4)
_2P3 = parse_pattern("2P3")


def classify_ct_total(g: Graph) -> int:
    """1, 2 or 3 contractions needed to lower total domination."""
    value = solve(g, DominationKind.TOTAL).value
    if value < 3:
        raise FloorError("total domination below 3 cannot decrease")
    for d in feasible_sets(g, DominationKind.TOTAL, value):
        if max(inner_degrees(g, d)) >= 2:
            return 1  # a path on 3 vertices inside the set
    for s in feasible_sets(g, DominationKind.TOTAL, value + 1):
        if any(
            contains_subgraph(g, pat, within=s) is not None
            for pat in (_P4, _CLAW, _2P3)
        ):
            return 2
    return 3


def p4_forces_config(g: Graph, d) -> bool:
    """Any semitotal dominating set with a P4 subgraph carries O4 or O6.

    Vacuously true when d has no P4; otherwise checks the matcher finds one
    of the two hub configurations inside d.
    """
    if contains_subgraph(g, _P4, within=d) is None:
        return True
    return _config_in(_tables(g), vertex_mask(g, d), (STConfigId.O4, STConfigId.O6)) is not None
