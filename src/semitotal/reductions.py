"""Hardness constructions mapping graphs or 1-in-3 SAT to semitotal inputs.

Four generators are provided: a tree expansion tying the parameter to plain
domination, a chordal layering tying it to a domination threshold, and two
SAT encodings (claw-free and 2P3-free hosts).  A host's layout is its
builder's creation order: every vertex gets its id, and its role label,
from `_Builder.vertex`, and the constructions keep those ids in lists and
dicts, never computing one from an offset, so gadget blocks appear in
source order and ids are reproducible.  `structure_checks` re-checks
labels, order and host class; `identity_check` is the single home of the
paper's parameter identities, and `validate_reduction` runs both.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations

from .errors import Infeasible, InvalidInstance, ParseError, ScaleLimit
from .graphs import (
    Graph,
    _at_most,
    contains_induced,
    is_chordal,
    is_connected,
    path_graph,
    star_graph,
)
from .domination import DominationKind, solve
from .patterns import parse_pattern


# -- 1-in-3 SAT instances ------------------------------------------------


@dataclass(frozen=True)
class SatInstance:
    """Positive 1-in-3 SAT: clauses are 3 distinct variable indexes."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise InvalidInstance("need at least one variable")
        normalised = []
        for cl in self.clauses:
            if len(cl) != 3 or len(set(cl)) != 3:
                raise InvalidInstance(f"clause {cl} must have 3 distinct variables")
            if any(not 0 <= v < self.num_vars for v in cl):
                raise InvalidInstance(f"clause {cl} out of range")
            normalised.append(tuple(sorted(cl)))
        object.__setattr__(self, "clauses", tuple(normalised))

    def occurrence_slots(self) -> list[list[int]]:
        """For each variable, the sorted clause indexes containing it."""
        slots: list[list[int]] = [[] for _ in range(self.num_vars)]
        for j, cl in enumerate(self.clauses):
            for v in cl:
                slots[v].append(j)
        return slots

    @property
    def exactly_3_bounded(self) -> bool:
        # 3|X| occurrences fill |C| clauses of three: a cheap test first,
        # since the slots hold one list per variable
        return self.num_vars == len(self.clauses) and all(len(s) == 3 for s in self.occurrence_slots())

    @property
    def all_vars_used(self) -> bool:
        return all(self.occurrence_slots())


def parse_sat(text: str) -> SatInstance:
    """Read "p 1in3 <vars> <clauses> [b3]" plus 1-based clause lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty SAT input", offset=0)
    head = lines[0].split()
    if len(head) not in (4, 5) or head[0] != "p" or head[1] != "1in3":
        raise ParseError(f"bad SAT header {lines[0]!r}", offset=0)
    if len(head) == 5 and head[4] != "b3":
        raise ParseError(f"unknown header flag {head[4]!r}", offset=0)
    if not all(t.isascii() and t.isdigit() for t in head[2:4]):
        raise ParseError(f"bad counts in header {lines[0]!r}", offset=0)
    nv, nc = _at_most(head[2], sys.maxsize), _at_most(head[3], len(lines) - 1)
    if nv > sys.maxsize:  # more variables than a list can hold
        raise ParseError(f"variable count {head[2]} exceeds {sys.maxsize}", offset=0)
    if len(lines) - 1 != nc:
        raise ParseError(f"expected {head[3]} clause lines, got {len(lines) - 1}")
    clauses = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ParseError(f"bad clause line {ln!r}")
        vals = [_at_most(p, nv) for p in parts]
        if any(not 1 <= v <= nv for v in vals):
            raise ParseError(f"clause {ln!r} out of 1..{nv}")
        if len(set(vals)) != 3:
            raise ParseError(f"clause {ln!r} repeats a variable")
        clauses.append(tuple(v - 1 for v in vals))
    try:
        inst = SatInstance(nv, tuple(clauses))
    except InvalidInstance as exc:
        raise ParseError(str(exc)) from exc
    if len(head) == 5 and not inst.exactly_3_bounded:
        raise ParseError("header declares b3 but occurrences are not all 3")
    return inst


# brute_1in3 tries up to 2^n assignments; past this it raises ScaleLimit.
BRUTE_MAX_VARS = 25


def brute_1in3(inst: SatInstance) -> tuple[bool, ...] | None:
    """First satisfying assignment (False tried before True), else None."""
    if inst.num_vars > BRUTE_MAX_VARS:
        raise ScaleLimit(f"brute_1in3 limited to {BRUTE_MAX_VARS} variables")
    nv = inst.num_vars
    true_cnt = [0] * len(inst.clauses)
    undecided = [3] * len(inst.clauses)
    by_var = inst.occurrence_slots()
    value = [False] * nv

    def rec(i: int):
        if i == nv:
            return all(t == 1 for t in true_cnt)
        for choice in (False, True):
            value[i] = choice
            ok = True
            for j in by_var[i]:
                undecided[j] -= 1
                if choice:
                    true_cnt[j] += 1
                if true_cnt[j] > 1 or (true_cnt[j] == 0 and undecided[j] == 0):
                    ok = False
            if ok and rec(i + 1):
                return True
            for j in by_var[i]:
                undecided[j] += 1
                if choice:
                    true_cnt[j] -= 1
        return False

    return tuple(value) if rec(0) else None


# -- reduction outputs ---------------------------------------------------


@dataclass(frozen=True)
class ReductionOutput:
    kind: str
    graph: Graph
    labels: dict[str, int]        # role label -> vertex id, total and injective
    meta: dict
    source_graph: Graph | None = None
    source_sat: SatInstance | None = None


class _Builder:
    def __init__(self):
        self.labels: dict[str, int] = {}
        self.edges: list[tuple[int, int]] = []
        self.count = 0

    def vertex(self, label: str) -> int:
        if label in self.labels:
            raise InvalidInstance(f"duplicate label {label}")
        self.labels[label] = self.count
        self.count += 1
        return self.labels[label]

    def edge(self, u: int, v: int):
        self.edges.append((u, v))

    def clique(self, vs):
        for u, v in combinations(vs, 2):
            self.edge(u, v)

    def path(self, vs):
        for u, v in zip(vs, vs[1:]):
            self.edge(u, v)

    def output(self, kind: str, meta: dict, **source) -> ReductionOutput:
        graph = Graph.from_edges(self.count, self.edges)
        return ReductionOutput(kind, graph, self.labels, meta, **source)


# Every host is checked against this order before any of it is built.  A
# host prints as about n^2 / 12 graph6 characters: on a 2-core x86 VM the CLI
# took 1.2 s and 63 MB for a chordal host of order 3005, 12 s and 400 MB for
# one of order 9005.
MAX_HOST_ORDER = 4096


def _host_order(kind: str, source, ell: int = 0) -> int:
    """Vertices of the kind's host on its source: a graph for tree and
    chordal (with ell layers), a SAT instance for clawfree and 2p3free."""
    if kind == "tree":
        return 11 * source.n
    if kind == "chordal":
        return source.n * (ell + 1) + ell + 2
    per_var, per_clause = {"clawfree": (41, 10), "2p3free": (3, 5)}[kind]
    return per_var * source.num_vars + per_clause * len(source.clauses)


def _check_host_order(order: int):
    if order > MAX_HOST_ORDER:
        raise InvalidInstance(f"the host would have {order} vertices, more than {MAX_HOST_ORDER}")


# -- tree expansion ------------------------------------------------------


def reduce_tree(g: Graph) -> ReductionOutput:
    """Attach a fixed 10-vertex tree to every vertex of g.

    Each tree is a path a-b-c-d with three leaves on b and three on d; the
    attachment edge is v-a.  The output has 11|V(g)| vertices.
    """
    _check_host_order(_host_order("tree", g))
    if not is_connected(g):
        raise Infeasible("reduce_tree requires a connected source graph")
    b = _Builder()
    vs = [b.vertex(f"v_{v}") for v in range(g.n)]
    for u, v in g.edges():
        b.edge(vs[u], vs[v])
    for v in range(g.n):
        a, bb, c, d = (b.vertex(f"{r}_{v}") for r in "abcd")
        b.path((vs[v], a, bb, c, d))
        for hub, leaf in ((bb, "y"), (d, "x")):
            for i in (1, 2, 3):
                b.edge(hub, b.vertex(f"{leaf}_{v}^{i}"))
    return b.output("tree", {"source_order": g.n, "gamma_t2_offset": 2 * g.n}, source_graph=g)


# -- chordal layering ----------------------------------------------------


def reduce_chordal(g: Graph, ell: int) -> ReductionOutput:
    """Layered chordal host on copies V_0..V_ell of V(g).

    Hubs x_0..x_ell and a pendant y on x_0 complete it.  V_0 is a clique,
    each x_i sees all of V_0 and V_i, and each copy of v in V_i (i >= 1)
    sees the V_0 copies of the closed neighbourhood of v.
    """
    if not is_connected(g):
        raise Infeasible("reduce_chordal requires a connected source graph")
    if ell < 1:
        raise InvalidInstance(f"layer count must be >= 1, got {ell}")
    _check_host_order(_host_order("chordal", g, ell))
    b = _Builder()
    base, *layers = [[b.vertex(f"v_{j}^{i}") for j in range(g.n)] for i in range(ell + 1)]
    x0, *hubs = [b.vertex(f"x_{i}") for i in range(ell + 1)]
    b.edge(b.vertex("y"), x0)
    b.clique(base)
    for x in (x0, *hubs):
        for v in base:
            b.edge(x, v)
    for x, layer in zip(hubs, layers):
        for j, v in enumerate(layer):
            b.edge(x, v)
            for u in (j, *g.neighbors(j)):
                b.edge(v, base[u])
    return b.output("chordal", {"source_order": g.n, "ell": ell}, source_graph=g)


# -- claw-free SAT encoding ----------------------------------------------


def _variable_block(b: _Builder, x: int, clauses) -> dict:
    """The 41-vertex gadget of variable x occurring in the given clauses.

    A triangle T, F, u with the path u-v-w, cliques a^q (on F) and b^q (on
    T), and per clause q two paws P_{x,1}^q and P_{x,2}^q (a triangle
    (1)(2)(3) with the path (3)-(4)-(5)), hung from a^q at (1) and from b^q
    at (2).  Returns {q: (paw 1, paw 2)}, each paw its five ids.
    """
    t, f, u, v, w = (b.vertex(f"{r}_x{x}") for r in "TFuvw")
    a = [b.vertex(f"a_x{x}^c{q}") for q in clauses]
    bs = [b.vertex(f"b_x{x}^c{q}") for q in clauses]
    paws = {
        q: tuple(
            [b.vertex(f"P_x{x},{half}^c{q}({i})") for i in range(1, 6)] for half in (1, 2))
        for q in clauses
    }
    for clique in ((t, f, u), a, bs):
        b.clique(clique)
    b.path((u, v, w))
    for ai, bi, (paw1, paw2) in zip(a, bs, paws.values()):
        b.edge(f, ai)
        b.edge(t, bi)
        for paw in (paw1, paw2):
            b.clique(paw[:3])
            b.path(paw[2:])
        b.edge(ai, paw1[0])
        b.edge(bi, paw2[1])
    return paws


def reduce_clawfree(sat: SatInstance) -> ReductionOutput:
    """Claw-free host on 41|X| + 10|C| vertices for exactly-3-bounded input.

    Each variable gets a `_variable_block`, each clause a triangle of w
    vertices (one per pair of its variables) subdivided by a triangle of t
    vertices with hub u_c, and a triangle of f vertices.  For each variable
    x of clause c, the f vertices on x see P_{x,1}^c(2), and the w vertices
    on x and t_c^x see P_{x,2}^c(1).
    """
    nv, nc = sat.num_vars, len(sat.clauses)
    _check_host_order(_host_order("clawfree", sat))
    if not sat.exactly_3_bounded:
        raise InvalidInstance("construction needs every variable in exactly 3 clauses")
    b = _Builder()
    paws = [_variable_block(b, x, clauses) for x, clauses in enumerate(sat.occurrence_slots())]
    for j, cl in enumerate(sat.clauses):
        pairs = list(combinations(cl, 2))
        w = {pr: b.vertex(f"w_c{j}^{{x{pr[0]},x{pr[1]}}}") for pr in pairs}
        t = {p: b.vertex(f"t_c{j}^x{p}") for p in cl}
        u_c = b.vertex(f"u_c{j}")
        f = {pr: b.vertex(f"f_c{j}^{{x{pr[0]},x{pr[1]}}}") for pr in pairs}
        for side in (w, t, f):
            b.clique(side.values())
        for pr in pairs:
            for p in pr:
                paw1, paw2 = paws[p][j]
                b.edge(t[p], w[pr])          # t_p subdivides the sides containing p
                b.edge(f[pr], paw1[1])
                b.edge(w[pr], paw2[0])
        for p in cl:
            b.edge(u_c, t[p])
            b.edge(t[p], paws[p][j][1][0])
    meta = {"num_vars": nv, "num_clauses": nc, "gamma_t2_target": 14 * nv + nc}
    return b.output("clawfree", meta, source_sat=sat)


def satisfying_sds(out: ReductionOutput, assignment) -> frozenset[int]:
    """The semitotal dominating set of size 14|X| + |C| read off a 1-in-3
    satisfying assignment for a claw-free reduction output.

    True variables keep their T vertex, v, and paw slots (1) and (4); false
    variables keep F, v, and slots (2) and (4).  Each clause contributes the
    t vertex of its first false variable, the one that covers the w pair
    missing the true variable.
    """
    if out.kind != "clawfree" or out.source_sat is None:
        raise InvalidInstance("expects a claw-free reduction output")
    sat = out.source_sat
    values = tuple(bool(x) for x in assignment)
    if len(values) != sat.num_vars:
        raise InvalidInstance("assignment length does not match the variable count")
    if any(sum(values[p] for p in cl) != 1 for cl in sat.clauses):
        raise InvalidInstance("assignment is not 1-in-3 satisfying")
    slots = sat.occurrence_slots()
    chosen: list[str] = []
    for x, val in enumerate(values):
        head = 1 if val else 2
        chosen.append(f"T_x{x}" if val else f"F_x{x}")
        chosen.append(f"v_x{x}")
        for q in slots[x]:
            for half in (1, 2):
                chosen.append(f"P_x{x},{half}^c{q}({head})")
                chosen.append(f"P_x{x},{half}^c{q}(4)")
    for j, cl in enumerate(sat.clauses):
        false_var = next(p for p in cl if not values[p])
        chosen.append(f"t_c{j}^x{false_var}")
    return frozenset(out.labels[name] for name in chosen)


# -- 2P3-free SAT encoding ----------------------------------------------


def reduce_2p3free(sat: SatInstance) -> ReductionOutput:
    """2P3-free host on 3|X| + 5|C| vertices.

    Variable triangles T_x, F_x, u_x; per clause a 5-clique v_c^x, v_c^y,
    v_c^z, u_c^T, u_c^F with all clause vertices of all clauses forming one
    clique.  u_c^T sees the T and u_c^F the F vertices of the clause's
    variables; v_c^x sees T_x and the F vertices of the other two.
    """
    nv, nc = sat.num_vars, len(sat.clauses)
    _check_host_order(_host_order("2p3free", sat))
    if not sat.all_vars_used:
        raise InvalidInstance("every variable must occur in some clause")
    b = _Builder()
    trues, falses = [], []
    for x in range(nv):
        t, f, u = (b.vertex(f"{r}_x{x}") for r in "TFu")
        b.clique((t, f, u))
        trues.append(t)
        falses.append(f)
    clause_vertices: list[int] = []
    for j, cl in enumerate(sat.clauses):
        vs = {s: b.vertex(f"v_c{j}^x{s}") for s in cl}
        ut = b.vertex(f"u_c{j}^T")
        uf = b.vertex(f"u_c{j}^F")
        clause_vertices += [*vs.values(), ut, uf]
        for s in cl:
            b.edge(ut, trues[s])
            b.edge(uf, falses[s])
            b.edge(vs[s], trues[s])
            for r in cl:
                if r != s:
                    b.edge(vs[s], falses[r])
    b.clique(clause_vertices)
    meta = {"num_vars": nv, "num_clauses": nc, "gamma_t2_target": nv}
    return b.output("2p3free", meta, source_sat=sat)


# -- validation ----------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    status: str          # pass / fail / skipped
    detail: str = ""


def _check(name, cond, detail="") -> CheckResult:
    return CheckResult(name, "pass" if cond else "fail", detail)


# the induced patterns each kind's host avoids; every kind has an identity
_HOST_FREE = {
    "tree": {},
    "chordal": {"p6-free": path_graph(6), "p4p2-free": parse_pattern("P4+P2")},
    "clawfree": {"claw-free": star_graph(4)},
    "2p3free": {"2p3-free": parse_pattern("2P3")},
}


def structure_checks(out: ReductionOutput) -> list[CheckResult]:
    """Labels, host order and host class; an unknown kind fails "kind"."""
    g = out.graph
    checks = [_check("labels-total-injective",
                     len(out.labels) == g.n and len(set(out.labels.values())) == g.n)]
    if out.kind not in _HOST_FREE:
        return checks + [CheckResult("kind", "fail", f"unknown kind {out.kind}")]
    order = _host_order(out.kind, out.source_graph or out.source_sat, out.meta.get("ell", 0))
    checks.append(_check("order", g.n == order, f"order {g.n}"))
    if out.kind == "chordal":
        checks.append(_check("chordal", is_chordal(g)))
    free = _HOST_FREE[out.kind]
    return checks + [_check(name, contains_induced(g, h) is None) for name, h in free.items()]


def identity_check(out: ReductionOutput) -> CheckResult:
    """The host's semitotal value against what the paper's identity predicts.

    - tree expansion (Lemma 4.3): gamma(G) + 2|V(G)|, the offset in meta;
    - chordal layering (App. C): min(gamma(G) + 1, ell + 1);
    - the claw-free and 2P3-free SAT encodings (App. B): the value is never
      below meta["gamma_t2_target"], and equals it exactly when the
      instance is 1-in-3 satisfiable.

    ScaleLimit from the solves or from brute_1in3 propagates; a kind with
    no identity raises InvalidInstance.
    """
    if out.kind not in _HOST_FREE:
        raise InvalidInstance(f"no identity for kind {out.kind}")
    value = solve(out.graph, DominationKind.SEMITOTAL).value
    if out.kind in ("tree", "chordal"):
        dom = solve(out.source_graph, DominationKind.DOMINATION).value
        if out.kind == "tree":
            right = dom + out.meta["gamma_t2_offset"]
        else:
            right = min(dom + 1, out.meta["ell"] + 1)
        return _check("identity", value == right, f"{value} vs {right}")
    target = out.meta["gamma_t2_target"]
    sat_ok = brute_1in3(out.source_sat) is not None
    return _check(
        "identity",
        value >= target and (value == target) == sat_ok,
        f"value {value}, target {target}, satisfiable {sat_ok}",
    )


def validate_reduction(out: ReductionOutput) -> list[CheckResult]:
    """Structure checks, then the identity, reported "skipped" past scale."""
    checks = structure_checks(out)
    if out.kind not in _HOST_FREE:
        return checks
    try:
        checks.append(identity_check(out))
    except ScaleLimit as exc:
        checks.append(CheckResult("identity", "skipped", str(exc)))
    return checks
