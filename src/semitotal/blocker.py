"""Contraction blockers for semitotal domination.

ct(g) is the least number of edge contractions that strictly lowers the
parameter.  For semitotal domination with value at least 3 it is always at
most 3; the value is pinned down by two structures found inside small
dominating sets: friendly triples (ct = 1) and the seven two-contraction
configurations O1..O7 (ct = 2), with a shortest-path contraction covering
the remainder (ct = 3).  Huang and Xu's classifications for plain and total
domination have the same shape, so one table, `_MECHANISMS`, lists each
kind's ct = 1 structures (sought on sets of size value) and ct = 2
structures (on sets of size value + 1), and one scan, `_first_carrying`,
serves `characterize_ct`, both classifiers, `min_set_spans_edge` and
`ct_is_one`, which answers "does one contraction lower the value?" for the
deciders of `hclasses` once their shortcuts are spent.  Every
contraction claim is re-checked by one replay, `replay_contraction`.  Every
value comes from `domination.solve`, except the value after a contraction
that `ct_exact` finds: one contraction lowers the value by at most one, so
it is the decided bound, base - 1.  The searches, the sweeps and the
contraction scan all stop at SEMITOTAL_BUDGET.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .errors import FloorError, ScaleLimit
from .graphs import (
    Graph,
    _bfs_dist,
    _bits,
    _fold,
    _pattern_plan,
    contract_edges,
    embed,
    normalize_edge,
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

_SDS = DominationKind.SEMITOTAL
_FLOOR = {
    DominationKind.DOMINATION: 1,
    DominationKind.TOTAL: 2,
    _SDS: 2,
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
    certificate is reproducible.  Each subset is contracted on the rows
    alone, by the fold `contract_edges` runs, and only the winning subset
    is contracted again for its vertex map.  A contracted graph already
    decided in this scan, down to its labels, is not decided again.  None
    when no k <= kmax works; ScaleLimit after search_budget() contractions,
    and each decision is capped at the same budget.

    The graph is solved once; each contraction is only decided, at
    base - 1, and the certificate's value_after is base - 1 without a
    second solve.  That is exact.  One edge contraction lowers the value
    of any of the three kinds by at most one: let D' be feasible in H/e,
    with e = uv merged into w.  If w is in D', then D' - w + {u, v} is
    feasible in H.  If not, some x in D' dominates w and is adjacent to u,
    say; then D' + u is feasible in H, since u covers v, x covers u, and
    every member whose distance-2 witness path ran through w is within two
    of u.  And when the scan reaches size k, every (k-1)-subset has failed:
    a repeat is a graph already decided, a contraction down to one vertex
    stays one vertex, and each k-subset's contraction is one more edge
    contraction of a (k-1)-subset's graph, or that graph itself when the
    edge closes a cycle.  So its value is at least base - 1.
    `replay_contraction` re-solves the claim independently.

    No total or semitotal scan reaches a one-vertex graph, which `solve`'s
    gate would refuse.  A value above the floor of 2 needs n >= 5
    (γt2 <= γt <= 2n/3 on a connected graph of order n >= 3), so one
    vertex takes k >= 4 contractions, and since ct <= 3 for both kinds
    (the paper for semitotal, Huang and Xu for total) the scan has
    returned by then.

    The input goes through `solve`'s gate, the first call: Infeasible for a
    disconnected graph, or for total or semitotal domination on fewer than
    two vertices.
    """
    base = solve(g, kind).value
    if base <= _FLOOR[kind]:
        return None
    cap = search_budget()
    edges = sorted(g.edges())
    visited = 0
    decided = set()  # the rows of every contracted graph decided so far
    for k in range(1, kmax + 1):
        for combo in combinations(edges, k):
            visited += 1
            if visited > cap:
                raise ScaleLimit(f"ct_exact exceeded {cap} contractions")
            rows = _fold(g.rows, combo)[0]
            if rows in decided:
                continue
            decided.add(rows)
            if exists_within(Graph(len(rows), rows), kind, base - 1, budget=cap):
                vmap = contract_edges(g, combo)[1]
                return k, ContractionCertificate(combo, base, base - 1, vmap)
    return None


def replay_contraction(g: Graph, kind: DominationKind, edges, before: int) -> int | None:
    """The value after contracting the edges in g, re-solved, if it is below
    before; None otherwise.  Every contraction claim is re-checked here.
    Inside a `solved_once` block the solve may be a stored result: the same
    deterministic search on the same rows, so the check is unchanged."""
    contracted, _ = contract_edges(g, edges)
    after = solve(contracted, kind).value
    return after if after < before else None


# -- mechanism structures ------------------------------------------------


# The rows the plans of this module check against, measured in the whole
# graph: adjacency, distance exactly two, and distance one or two.  A plan is
# the (checks, reuse, above) triple that graphs.embed takes, in role order.
_ADJ, _DIST2, _NEAR = range(3)


def _tables(g: Graph) -> tuple[tuple[int, ...], ...]:
    near = tuple(_near(g.rows, v) for v in range(g.n))
    return g.rows, tuple(b & ~r for b, r in zip(near, g.rows)), near


def _realised(tables, plan, hosts, s) -> bool:
    """Whether the hosts, all members of s, pass the plan's checks.  The
    plan's `above` constraints are dropped: the tuple is given, not sought."""
    members = set(s)
    checks, reuse, _ = plan
    pins = tuple(1 << v if v in members else 0 for v in hosts)
    return embed(tables, checks, reuse, ((),) * len(checks), pins) is not None


# roles x, y, z: xy an edge, z within distance two of y.  The middle role is
# asymmetric, so both orientations of each edge are tried.  Contracting xy
# inside a minimum semitotal dominating set lowers the parameter.
_TRIPLE = ((), ((0, _ADJ, True),), ((1, _NEAR, True),)), ((), (), ()), ((), (), ())
# roles u, v: v within distance two of u
_PAIR = ((), ((0, _NEAR, True),)), ((), ()), ((), ())


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
    thick: tuple[tuple[int, int], tuple[int, int]]
    dist2: tuple[tuple[int, int], ...] = ()  # required distance exactly 2
    allow_equal: tuple[tuple[int, int], ...] = ()


# Solid lines are edges, dashed lines distance exactly two (in the whole
# graph), absent lines are unconstrained.  Thick pairs are the two edges
# whose contraction lowers the parameter.
CONFIG_SPECS: dict[STConfigId, _ConfigSpec] = {
    STConfigId.O1: _ConfigSpec(
        roles=("a", "b", "c", "d", "e", "f"),
        edges=((0, 1), (1, 2), (3, 4), (4, 5)),
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
    the later role of each pair; allow_equal lets a role repeat the earlier.
    Roles are not interchangeable, so no symmetry is broken."""
    lines = [(i, j, _ADJ) for i, j in spec.edges] + [(i, j, _DIST2) for i, j in spec.dist2]
    roles = range(len(spec.roles))
    return (
        tuple(tuple((i, t, True) for i, j, t in lines if j == r) for r in roles),
        tuple(tuple(i for i, j in spec.allow_equal if j == r) for r in roles),
        ((),) * len(spec.roles),
    )


def _thick_edges(spec: _ConfigSpec, hit) -> tuple[tuple[int, int], tuple[int, int]]:
    (a, b), (c, d) = spec.thick
    return normalize_edge(hit[a], hit[b]), normalize_edge(hit[c], hit[d])


def _config_match(cid: STConfigId, hit) -> ConfigMatch:
    spec = CONFIG_SPECS[cid]
    return ConfigMatch(cid, dict(zip(spec.roles, hit)), _thick_edges(spec, hit))


# -- the mechanism table and its scan ------------------------------------


# Every structure a scan looks for, by name: the friendly triple, the
# configurations O1..O7, and the patterns sought as subgraphs, whose plans
# try each copy once.
_SUBGRAPHS = ("P2", "P3", "2P2", "P4", "claw", "2P3")
_PLANS = {
    "friendly-triple": _TRIPLE,
    **{cid: _config_plan(spec) for cid, spec in CONFIG_SPECS.items()},
    **{p: _pattern_plan(parse_pattern(p), False)[1:4] for p in _SUBGRAPHS},
}
# distinct hosts a plan needs: one per role, less the roles that may repeat
_NEEDS = {key: len(checks) - sum(map(bool, reuse)) for key, (checks, reuse, _) in _PLANS.items()}

# For each kind, the structures for ct = 1, sought in minimum sets, and for
# ct = 2, sought in sets one vertex larger, each in the order they are
# tried; ct = 3 when neither occurs.  Plain domination's {P3, 2P2} is "two
# edges inside the set".
_MECHANISMS = {
    _SDS: (("friendly-triple",), tuple(STConfigId)),
    DominationKind.DOMINATION: (("P2",), ("P3", "2P2")),
    DominationKind.TOTAL: (("P3",), ("P4", "claw", "2P3")),
}


def _first_embedding(tables, structures, mask: int):
    """(structure, hosts) for the first of the structures that embeds with
    every host in mask, hosts in lex order; None if none does."""
    for key in structures:
        if _NEEDS[key] <= mask.bit_count():
            plan = _PLANS[key]
            hit = embed(tables, *plan, (mask,) * len(plan[0]))
            if hit is not None:
                return key, hit
    return None


def _first_carrying(g: Graph, kind: DominationKind, size: int, structures):
    """(set, structure, hosts) for the first feasible set of the given size,
    in `combinations` order, that carries one of the structures, and the
    first of them it carries; None if there is none.  Subgraph plans read
    adjacency only, so they get no distance tables."""
    tables = (g.rows,) if set(structures) <= set(_SUBGRAPHS) else _tables(g)
    for d in feasible_sets(g, kind, size):
        found = _first_embedding(tables, structures, vertex_mask(g, d))
        if found is not None:
            return frozenset(d), *found
    return None


def _read_ct(g: Graph, kind: DominationKind):
    """(value, k, carrying): ct read off the mechanism table, with the
    scan's find for k = 1 or 2; k is None at the floor."""
    value = solve(g, kind).value
    if value <= _FLOOR[kind]:
        return value, None, None
    for k, structures in enumerate(_MECHANISMS[kind], 1):
        found = _first_carrying(g, kind, value + k - 1, structures)
        if found is not None:
            return value, k, found
    return value, 3, None


def ct_is_one(g: Graph, kind: DominationKind) -> bool:
    """Whether one contraction lowers the parameter: the value is off the
    floor and some minimum set carries the kind's ct = 1 structure, a
    friendly triple, an edge (plain) or a P3 (total)."""
    value = solve(g, kind).value
    return value > _FLOOR[kind] and _first_carrying(
        g, kind, value, _MECHANISMS[kind][0]) is not None


def exists_plus1_sds_with_config(g: Graph) -> tuple[frozenset[int], ConfigMatch] | None:
    """Search all semitotal dominating sets of size value+1 for a config."""
    found = _first_carrying(g, _SDS, solve(g, _SDS).value + 1, _MECHANISMS[_SDS][1])
    return None if found is None else (found[0], _config_match(*found[1:]))


def min_set_spans_edge(g: Graph, kind: DominationKind) -> bool:
    """Whether some minimum set of the kind has two adjacent members.  For
    plain domination this is ct = 1; for semitotal domination on 2P3-free
    graphs off the floor, too (App. B)."""
    return _first_carrying(g, kind, solve(g, kind).value, ("P2",)) is not None


# -- shortest-path fallback certificate ----------------------------------


def _shortest_path(g: Graph, src: int, dist: list[float]) -> list[int]:
    """One shortest path from src to the source of the BFS distances dist,
    smallest-id tie-breaks."""
    path = [src]
    cur = src
    while dist[cur]:
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
    value = solve(g, _SDS).value
    if value < 3:
        raise FloorError(f"needs value >= 3, got {value}")
    d = next(feasible_sets(g, _SDS, value))
    # the first pair in lex order is also the first with u < v
    pair = u, v = embed(_tables(g), *_PAIR, (vertex_mask(g, d),) * 2)
    du = _bfs_dist(g.rows, g.n, 1 << u)
    dv = _bfs_dist(g.rows, g.n, 1 << v)
    w = min((x for x in d if x not in pair), key=lambda x: (min(du[x], dv[x]), x))
    path = _shortest_path(g, w, du if du[w] <= dv[w] else dv)
    edges = tuple(normalize_edge(a, b) for a, b in zip(path, path[1:]))
    contracted, vmap = contract_edges(g, edges)
    after = solve(contracted, _SDS).value
    return ContractionCertificate(edges, value, after, vmap)


# -- full characterisation ----------------------------------------------


class CtMechanism(Enum):
    FLOOR = "floor"
    FRIENDLY_TRIPLE = "friendly-triple"
    ST_CONFIGURATION = "st-configuration"
    PATH_CONTRACTION = "path-contraction"


# ct as each mechanism gives it, in member order; None at the floor
_CT = dict(zip(CtMechanism, (None, 1, 2, 3)))


@dataclass(frozen=True)
class CtVerdict:
    value: int
    mechanism: CtMechanism
    sds: frozenset[int] | None = None
    triple: tuple[int, int, int] | None = None
    match: ConfigMatch | None = None
    certificate: ContractionCertificate | None = None

    @property
    def k(self) -> int | None:
        return _CT[self.mechanism]


def characterize_ct(g: Graph) -> CtVerdict:
    """Determine ct for semitotal domination together with its witness.
    The input goes through `solve`'s gate, the first call: Infeasible for a
    disconnected graph or one on fewer than two vertices.  At ct = 3 the
    certificate comes from `path_contraction_certificate`, whose solve of g
    is the stored one inside a `solved_once` block."""
    value, k, found = _read_ct(g, _SDS)
    if k is None:
        return CtVerdict(value, CtMechanism.FLOOR)
    if k == 3:
        cert = path_contraction_certificate(g)
        return CtVerdict(value, CtMechanism.PATH_CONTRACTION, certificate=cert)
    s, key, hit = found
    if k == 1:
        return CtVerdict(value, CtMechanism.FRIENDLY_TRIPLE, sds=s, triple=hit)
    return CtVerdict(value, CtMechanism.ST_CONFIGURATION, sds=s, match=_config_match(key, hit))


def validate_ct_verdict(g: Graph, verdict: CtVerdict) -> bool:
    """Re-check a verdict's evidence directly against the graph: the set, its
    structure and the thick edges it names, then its contraction claim by
    `replay_contraction`.  Its solves, like the replay's, may be results
    stored by an open `solved_once` block: the same deterministic search on
    the same rows, so it checks what a fresh solve would."""
    value = solve(g, _SDS).value
    mechanism, cert, m = verdict.mechanism, verdict.certificate, verdict.match
    if verdict.value != value:
        return False
    if mechanism is CtMechanism.FLOOR:
        return value <= _FLOOR[_SDS]
    if mechanism is CtMechanism.PATH_CONTRACTION:
        return (
            cert is not None
            and 1 <= len(cert.edges) <= 3
            and cert.value_before == value
            and replay_contraction(g, _SDS, cert.edges, value) == cert.value_after
        )
    if mechanism is CtMechanism.FRIENDLY_TRIPLE and verdict.triple is not None:
        plan, hosts, edges = _TRIPLE, verdict.triple, (verdict.triple[:2],)
    elif mechanism is CtMechanism.ST_CONFIGURATION and m is not None:
        spec = CONFIG_SPECS[m.config]
        hosts = tuple(map(m.assignment.get, spec.roles))
        plan, edges = _PLANS[m.config], m.thick_edges
    else:
        return False
    s = verdict.sds
    return (
        s is not None
        and len(s) == value + verdict.k - 1
        and is_feasible(g, _SDS, s)
        and _realised(_tables(g), plan, hosts, s)
        and (mechanism is CtMechanism.FRIENDLY_TRIPLE or _thick_edges(spec, hosts) == tuple(edges))
        and replay_contraction(g, _SDS, edges, value) is not None
    )


# -- prior classifications for plain and total domination ---------------


def _classify(g: Graph, kind: DominationKind) -> int:
    value, k, _ = _read_ct(g, kind)
    if k is None:
        raise FloorError(f"{kind.value} value {value} is at its floor and cannot decrease")
    return k


def classify_ct_domination(g: Graph) -> int:
    """1, 2 or 3 contractions needed to lower plain domination."""
    return _classify(g, DominationKind.DOMINATION)


def classify_ct_total(g: Graph) -> int:
    """1, 2 or 3 contractions needed to lower total domination."""
    return _classify(g, DominationKind.TOTAL)
