"""Hardness constructions mapping graphs or 1-in-3 SAT to semitotal inputs.

Four generators are provided: a tree expansion tying the parameter to plain
domination, a chordal layering tying it to a domination threshold, and two
SAT encodings (claw-free and 2P3-free hosts).  Layouts are deterministic:
gadget blocks are laid out in source order, so vertex ids are reproducible
and every vertex carries a role label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Infeasible, InvalidInstance, ParseError, ScaleLimit
from .graphs import (
    Graph,
    contains_induced,
    induced_subgraph,
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
        return all(len(s) == 3 for s in self.occurrence_slots())

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
    nv, nc = int(head[2]), int(head[3])
    if len(lines) - 1 != nc:
        raise ParseError(f"expected {nc} clause lines, got {len(lines) - 1}")
    clauses = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ParseError(f"bad clause line {ln!r}")
        vals = [int(p) for p in parts]
        if any(not 1 <= v <= nv for v in vals):
            raise ParseError(f"clause {ln!r} out of 1..{nv}")
        clauses.append(tuple(v - 1 for v in vals))
    try:
        inst = SatInstance(nv, tuple(clauses))
    except InvalidInstance as exc:
        raise ParseError(str(exc)) from exc
    if len(head) == 5 and not inst.exactly_3_bounded:
        raise ParseError("header declares b3 but occurrences are not all 3")
    return inst


def format_sat(inst: SatInstance) -> str:
    flag = " b3" if inst.exactly_3_bounded else ""
    lines = [f"p 1in3 {inst.num_vars} {len(inst.clauses)}{flag}"]
    lines.extend(" ".join(str(v + 1) for v in cl) for cl in inst.clauses)
    return "\n".join(lines) + "\n"


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
    ell: int | None = None

    def label_of(self) -> dict[int, str]:
        return {v: k for k, v in self.labels.items()}


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

    def graph(self) -> Graph:
        return Graph.from_edges(self.count, self.edges)


# Every host is checked against this order before any of it is built.  A
# host prints as about n^2 / 12 graph6 characters: on a 2-core x86 VM the CLI
# took 1.2 s and 63 MB for a chordal host of order 3005, 12 s and 400 MB for
# one of order 9005.
MAX_HOST_ORDER = 4096


def _check_host_order(order: int):
    if order > MAX_HOST_ORDER:
        raise InvalidInstance(f"the host would have {order} vertices, more than {MAX_HOST_ORDER}")


# -- tree expansion ------------------------------------------------------


def reduce_tree(g: Graph) -> ReductionOutput:
    """Attach a fixed 10-vertex tree to every vertex of g.

    Each tree is a path a-b-c-d with three leaves on b and three on d; the
    attachment edge is v-a.  The output has 11|V(g)| vertices and its
    semitotal domination number is gamma(g) + 2|V(g)|.
    """
    _check_host_order(11 * g.n)
    if not is_connected(g):
        raise Infeasible("reduce_tree requires a connected source graph")
    b = _Builder()
    for v in range(g.n):
        b.vertex(f"v_{v}")
    for u, v in g.edges():
        b.edge(u, v)
    for v in range(g.n):
        a = b.vertex(f"a_{v}")
        bb = b.vertex(f"b_{v}")
        c = b.vertex(f"c_{v}")
        d = b.vertex(f"d_{v}")
        b.edge(v, a)
        b.edge(a, bb)
        b.edge(bb, c)
        b.edge(c, d)
        for i in (1, 2, 3):
            b.edge(bb, b.vertex(f"y_{v}^{i}"))
        for i in (1, 2, 3):
            b.edge(d, b.vertex(f"x_{v}^{i}"))
    return ReductionOutput(
        kind="tree",
        graph=b.graph(),
        labels=b.labels,
        meta={"source_order": g.n, "gamma_t2_offset": 2 * g.n},
        source_graph=g,
    )


# -- chordal layering ----------------------------------------------------


def reduce_chordal(g: Graph, ell: int) -> ReductionOutput:
    """Layered chordal host whose parameter is min(gamma(g)+1, ell+1).

    Copies V_0..V_ell of V(g) plus hubs x_0..x_ell and a pendant y.  V_0
    with x_0 is a clique, each x_i sees all of V_0 and V_i, and each copy
    vertex in V_i (i >= 1) sees the V_0 copies of its closed neighbourhood.
    """
    if not is_connected(g):
        raise Infeasible("reduce_chordal requires a connected source graph")
    if ell < 1:
        raise InvalidInstance(f"layer count must be >= 1, got {ell}")
    n = g.n
    _check_host_order(n * (ell + 1) + ell + 2)
    b = _Builder()
    for i in range(ell + 1):
        for j in range(n):
            b.vertex(f"v_{j}^{i}")
    xs = [b.vertex(f"x_{i}") for i in range(ell + 1)]
    y = b.vertex("y")

    def copy(i: int, j: int) -> int:
        return i * n + j

    for j in range(n):
        for k in range(j + 1, n):
            b.edge(copy(0, j), copy(0, k))
    b.edge(y, xs[0])
    for i in range(ell + 1):
        for j in range(n):
            b.edge(xs[i], copy(0, j))
            if i >= 1:
                b.edge(xs[i], copy(i, j))
    closed = [set(g.neighbors(j)) | {j} for j in range(n)]
    for i in range(1, ell + 1):
        for j in range(n):
            for u in sorted(closed[j]):
                b.edge(copy(i, j), copy(0, u))
    return ReductionOutput(
        kind="chordal",
        graph=b.graph(),
        labels=b.labels,
        meta={"source_order": n, "ell": ell},
        source_graph=g,
        ell=ell,
    )


# -- claw-free SAT encoding ----------------------------------------------

# offsets inside one 41-vertex variable block
_VT, _VF, _VU, _VV, _VW = 0, 1, 2, 3, 4
_VA = 5   # a^{q0}, a^{q1}, a^{q2}
_VB = 8   # b^{q0}, b^{q1}, b^{q2}


def _paw1_base(slot: int) -> int:
    return 11 + 10 * slot


def _paw2_base(slot: int) -> int:
    return 16 + 10 * slot


def _require_b3(sat: SatInstance):
    if not sat.exactly_3_bounded:
        raise InvalidInstance("construction needs every variable in exactly 3 clauses")


def reduce_clawfree(sat: SatInstance) -> ReductionOutput:
    """Claw-free host on 41|X| + 10|C| vertices for exactly-3-bounded input.

    Its semitotal domination number equals 14|X| + |C| exactly when the
    instance is 1-in-3 satisfiable.  Variable gadgets carry six pendant
    triangle-paws wired into the clause gadgets; the true side of a clause
    is a subdivided triangle with hub u_c, the false side a triangle.
    """
    nv, nc = sat.num_vars, len(sat.clauses)
    _check_host_order(41 * nv + 10 * nc)
    _require_b3(sat)
    slots = sat.occurrence_slots()
    b = _Builder()

    def vbase(x: int) -> int:
        return 41 * x

    def cbase(j: int) -> int:
        return 41 * nv + 10 * j

    for x in range(nv):
        qs = slots[x]
        b.vertex(f"T_x{x}")
        b.vertex(f"F_x{x}")
        b.vertex(f"u_x{x}")
        b.vertex(f"v_x{x}")
        b.vertex(f"w_x{x}")
        for q in qs:
            b.vertex(f"a_x{x}^c{q}")
        for q in qs:
            b.vertex(f"b_x{x}^c{q}")
        for q in qs:
            for t in range(1, 6):
                b.vertex(f"P_x{x},1^c{q}({t})")
            for t in range(1, 6):
                b.vertex(f"P_x{x},2^c{q}({t})")
        o = vbase(x)
        b.edge(o + _VT, o + _VF)
        b.edge(o + _VT, o + _VU)
        b.edge(o + _VF, o + _VU)
        b.edge(o + _VU, o + _VV)
        b.edge(o + _VV, o + _VW)
        for i in range(3):
            for j in range(i + 1, 3):
                b.edge(o + _VA + i, o + _VA + j)
                b.edge(o + _VB + i, o + _VB + j)
        for i in range(3):
            b.edge(o + _VF, o + _VA + i)
            b.edge(o + _VT, o + _VB + i)
        for s in range(3):
            p1 = o + _paw1_base(s)
            p2 = o + _paw2_base(s)
            for base in (p1, p2):
                b.edge(base, base + 1)
                b.edge(base, base + 2)
                b.edge(base + 1, base + 2)
                b.edge(base + 2, base + 3)
                b.edge(base + 3, base + 4)
            b.edge(o + _VA + s, p1)        # a^q to P_{x,1}(1)
            b.edge(o + _VB + s, p2 + 1)    # b^q to P_{x,2}(2)

    def paw_vertex(x: int, half: int, j: int, t: int) -> int:
        slot = slots[x].index(j)
        base = _paw1_base(slot) if half == 1 else _paw2_base(slot)
        return vbase(x) + base + (t - 1)

    for j, cl in enumerate(sat.clauses):
        p0, p1, p2 = cl
        pairs = [(p0, p1), (p0, p2), (p1, p2)]
        for a, bb in pairs:
            b.vertex(f"w_c{j}^{{x{a},x{bb}}}")
        for p in cl:
            b.vertex(f"t_c{j}^x{p}")
        b.vertex(f"u_c{j}")
        for a, bb in pairs:
            b.vertex(f"f_c{j}^{{x{a},x{bb}}}")
        o = cbase(j)
        w = {pair: o + i for i, pair in enumerate(pairs)}
        t = {p: o + 3 + i for i, p in enumerate(cl)}
        u_c = o + 6
        f = {pair: o + 7 + i for i, pair in enumerate(pairs)}
        for i in range(3):
            for k in range(i + 1, 3):
                b.edge(o + i, o + k)          # w triangle
                b.edge(o + 3 + i, o + 3 + k)  # t triangle
                b.edge(o + 7 + i, o + 7 + k)  # f triangle
        for pair in pairs:
            for p in pair:
                b.edge(t[p], w[pair])         # t_p subdivides the sides containing p
        for p in cl:
            b.edge(u_c, t[p])
        for pair in pairs:
            for p in pair:
                b.edge(f[pair], paw_vertex(p, 1, j, 2))
                b.edge(w[pair], paw_vertex(p, 2, j, 1))
        for p in cl:
            b.edge(t[p], paw_vertex(p, 2, j, 1))

    return ReductionOutput(
        kind="clawfree",
        graph=b.graph(),
        labels=b.labels,
        meta={
            "num_vars": nv,
            "num_clauses": nc,
            "gamma_t2_target": 14 * nv + nc,
        },
        source_sat=sat,
    )


def build_variable_gadget() -> ReductionOutput:
    """One isolated variable gadget (41 vertices) with generic slot names."""
    sat = SatInstance(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
    full = reduce_clawfree(sat)
    # variable-block labels carry the variable token right after the role
    # prefix ("T_x0", "a_x0^c1", "P_x0,1^c2(4)"); clause blocks start "w_c" etc.
    keep = [
        v
        for label, v in full.labels.items()
        if label.split("_", 1)[1].startswith(("x0^", "x0,", "x0(")) or label.split("_", 1)[1] == "x0"
    ]
    sub, remap = induced_subgraph(full.graph, keep)
    labels = {
        label: remap[v]
        for label, v in full.labels.items()
        if v in remap
    }
    return ReductionOutput(
        kind="variable-gadget",
        graph=sub,
        labels=labels,
        meta={"per_gadget_lower_bound": 14},
    )


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
    clique.  The parameter equals |X| exactly when 1-in-3 satisfiable.
    """
    nv, nc = sat.num_vars, len(sat.clauses)
    _check_host_order(3 * nv + 5 * nc)
    if not sat.all_vars_used:
        raise InvalidInstance("every variable must occur in some clause")
    b = _Builder()
    for x in range(nv):
        t = b.vertex(f"T_x{x}")
        fv = b.vertex(f"F_x{x}")
        u = b.vertex(f"u_x{x}")
        b.edge(t, fv)
        b.edge(t, u)
        b.edge(fv, u)
    clause_vertices: list[int] = []
    for j, cl in enumerate(sat.clauses):
        vs = {s: b.vertex(f"v_c{j}^x{s}") for s in cl}
        ut = b.vertex(f"u_c{j}^T")
        uf = b.vertex(f"u_c{j}^F")
        clause_vertices.extend(list(vs.values()) + [ut, uf])
        for s in cl:
            b.edge(ut, 3 * s)          # T_s
            b.edge(uf, 3 * s + 1)      # F_s
            b.edge(vs[s], 3 * s)       # v_c^s sees its own T_s
            for r in cl:
                if r != s:
                    b.edge(vs[s], 3 * r + 1)  # and the other F_r
    for i, u in enumerate(clause_vertices):
        for v in clause_vertices[i + 1:]:
            b.edge(u, v)
    return ReductionOutput(
        kind="2p3free",
        graph=b.graph(),
        labels=b.labels,
        meta={"num_vars": nv, "num_clauses": nc, "gamma_t2_target": nv},
        source_sat=sat,
    )


# -- validation ----------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    status: str          # pass / fail / skipped
    detail: str = ""


def _check(name, cond, detail="") -> CheckResult:
    return CheckResult(name, "pass" if cond else "fail", detail)


def validate_reduction(out: ReductionOutput) -> list[CheckResult]:
    """Re-check structure and, at desk scale, the parameter identity."""
    g = out.graph
    checks = [_check("labels-total-injective",
                     len(out.labels) == g.n and len(set(out.labels.values())) == g.n)]
    if out.kind == "tree":
        checks.append(_check("order", g.n == 11 * out.source_graph.n, f"order {g.n}"))
    elif out.kind == "chordal":
        order = out.source_graph.n * (out.ell + 1) + out.ell + 2
        checks += [
            _check("order", g.n == order, f"order {g.n}"),
            _check("chordal", is_chordal(g)),
            _check("p6-free", contains_induced(g, path_graph(6)) is None),
            _check("p4p2-free", contains_induced(g, parse_pattern("P4+P2")) is None),
        ]
    elif out.kind == "clawfree":
        nv, nc = out.source_sat.num_vars, len(out.source_sat.clauses)
        checks.append(_check("order", g.n == 41 * nv + 10 * nc, f"order {g.n}"))
        checks.append(_check("claw-free", contains_induced(g, star_graph(4)) is None))
    elif out.kind == "2p3free":
        nv, nc = out.source_sat.num_vars, len(out.source_sat.clauses)
        checks.append(_check("order", g.n == 3 * nv + 5 * nc, f"order {g.n}"))
        checks.append(_check("2p3-free", contains_induced(g, parse_pattern("2P3")) is None))
    else:
        checks.append(CheckResult("kind", "fail", f"unknown kind {out.kind}"))
        return checks
    try:
        checks.append(_identity(out, solve(g, DominationKind.SEMITOTAL).value))
    except ScaleLimit as exc:
        checks.append(CheckResult("identity", "skipped", str(exc)))
    return checks


def _identity(out: ReductionOutput, value: int) -> CheckResult:
    """The host's semitotal value against what the source predicts."""
    if out.kind in ("tree", "chordal"):
        dom = solve(out.source_graph, DominationKind.DOMINATION).value
        if out.kind == "tree":
            right = dom + out.meta["gamma_t2_offset"]
        else:
            right = min(dom + 1, out.ell + 1)
        return _check("identity", value == right, f"{value} vs {right}")
    # SAT hosts: the value meets the target iff the instance is satisfiable
    sat_ok = brute_1in3(out.source_sat) is not None
    if out.kind == "clawfree":
        target, detail = out.meta["gamma_t2_target"], "target"
    else:
        target, detail = out.source_sat.num_vars, "vars"
    return _check(
        "identity",
        (value == target) == sat_ok,
        f"value {value}, {detail} {target}, satisfiable {sat_ok}",
    )
