import hashlib
import json
from itertools import combinations, combinations_with_replacement, islice, product

import pytest

from semitotal import (
    DominationKind,
    SatInstance,
    SolveResult,
    brute_1in3,
    is_feasible,
    iter_connected_graphs,
    parse_pattern,
    parse_sat,
    path_graph,
    reduce_2p3free,
    reduce_chordal,
    reduce_clawfree,
    reduce_tree,
    satisfying_sds,
    solve,
    structure_checks,
    to_graph6,
    validate_reduction,
)
from semitotal.errors import Infeasible, InvalidInstance, ParseError, ScaleLimit
from semitotal.graphs import (
    _bfs_dist,
    contains_induced,
    disjoint_union,
    from_graph6,
    is_chordal,
    is_connected,
)
from semitotal import reductions
from semitotal.reductions import (
    BRUTE_MAX_VARS,
    ReductionOutput,
    _Builder,
    _variable_block,
    identity_check,
)

from oracles import is_tree

SDS = DominationKind.SEMITOTAL

MINIMAL_B3 = SatInstance(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))


def edge_labels(out):
    names = {v: label for label, v in out.labels.items()}
    return {frozenset((names[u], names[v])) for u, v in out.graph.edges()}


def pairs(*edges):
    return {frozenset(e) for e in edges}


def build_variable_gadget() -> ReductionOutput:
    """One isolated variable gadget (41 vertices) in clauses 0, 1 and 2."""
    b = _Builder()
    _variable_block(b, 0, (0, 1, 2))
    return b.output("variable-gadget", {"per_gadget_lower_bound": 14})


# -- SAT instances -------------------------------------------------------


def test_sat_instance_validation():
    inst = SatInstance(4, ((2, 0, 1), (1, 2, 3)))
    assert inst.clauses == ((0, 1, 2), (1, 2, 3))
    assert inst.occurrence_slots() == [[0], [0, 1], [0, 1], [1]]
    assert inst.all_vars_used and not inst.exactly_3_bounded
    assert MINIMAL_B3.exactly_3_bounded
    with pytest.raises(InvalidInstance):
        SatInstance(3, ((0, 1, 1),))
    with pytest.raises(InvalidInstance):
        SatInstance(2, ((0, 1, 2),))
    with pytest.raises(InvalidInstance):
        SatInstance(0, ())


def test_builder_refuses_a_duplicate_label():
    b = reductions._Builder()
    assert b.vertex("x") == 0
    with pytest.raises(InvalidInstance, match="duplicate label x"):
        b.vertex("x")


def test_tree_host_order_boundary(monkeypatch):
    # 11 * 372 = 4092 fits under MAX_HOST_ORDER = 4096; 11 * 373 = 4103 does not
    assert reductions.MAX_HOST_ORDER == 4096
    out = reduce_tree(path_graph(372))
    assert out.graph.n == 4092
    assert [c.status for c in structure_checks(out) if c.name == "order"] == ["pass"]

    def no_build(*_):
        raise AssertionError("a host was built")

    monkeypatch.setattr(reductions, "_Builder", no_build)
    with pytest.raises(InvalidInstance, match="4103 vertices"):
        reduce_tree(path_graph(373))


def test_parse_format_round_trip():
    inst = parse_sat("p 1in3 4 2\n1 2 3\n2 3 4\n")
    assert inst.num_vars == 4 and inst.clauses == ((0, 1, 2), (1, 2, 3))
    assert parse_sat("p 1in3 3 3 b3\n1 2 3\n3 1 2\n2 3 1\n") == MINIMAL_B3


def test_parse_sat_rejects():
    for bad in [
        "",
        "p 2in3 3 1\n1 2 3",
        "p 1in3 3 2\n1 2 3",
        "p 1in3 3 1\n1 2 4",
        "p 1in3 3 1\n1 2",
        "p 1in3 3 1 b3\n1 2 3",
        "p 1in3 x 1\n1 2 3",
        # digits int() reads or refuses that are not ASCII 0-9
        "p 1in3 3 1\n\u00b2 2 3",
        "p 1in3 3 1\n\u0661 2 3",
        "p 1in3 \u0663 1\n1 2 3",
        "p 1in3 +3 1\n1 2 3",
        "p 1in3 0 0",  # no variables: SatInstance's InvalidInstance, converted
        "p 1in3 3 1\n1 1 2",
        "p 1in3 3 1 b4\n1 2 3",
    ]:
        with pytest.raises(ParseError):
            parse_sat(bad)


def test_b3_header_checks_the_counts_before_the_slots(monkeypatch):
    # the slots hold one list per variable: a header of 10^8 variables and
    # no clause must not build them
    def no_slots(self):
        raise AssertionError("occurrence slots built")

    monkeypatch.setattr(SatInstance, "occurrence_slots", no_slots)
    with pytest.raises(ParseError, match="b3"):
        parse_sat("p 1in3 100000000 0 b3")


def test_parse_sat_names_a_repeated_variable_as_written():
    # the clause is named 1-based, as in the file, not as (0, 0, 1)
    with pytest.raises(ParseError, match="clause '1 1 2' repeats a variable"):
        parse_sat("p 1in3 3 1\n1 1 2")


def test_brute_1in3_matches_product_oracle():
    instances = [
        MINIMAL_B3,
        SatInstance(3, ((0, 1, 2),)),
        SatInstance(4, ((0, 1, 2), (1, 2, 3))),
        SatInstance(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
        SatInstance(5, ((0, 1, 2), (2, 3, 4), (0, 3, 4))),
    ]
    for inst in instances:
        want = next(
            (
                bits
                for bits in product((False, True), repeat=inst.num_vars)
                if all(sum(bits[v] for v in cl) == 1 for cl in inst.clauses)
            ),
            None,
        )
        assert brute_1in3(inst) == want


def test_brute_1in3_scale_guard():
    big = SatInstance(30, ((0, 1, 2),))
    with pytest.raises(ScaleLimit):
        brute_1in3(big)


# -- tree expansion ------------------------------------------------------


def test_tree_expansion_golden_p2():
    out = reduce_tree(path_graph(2))
    assert out.graph.n == 22 and is_tree(out.graph)
    assert out.meta == {"source_order": 2, "gamma_t2_offset": 4}
    golden = pairs(("v_0", "v_1"))
    for v in (0, 1):
        golden |= pairs(
            (f"v_{v}", f"a_{v}"),
            (f"a_{v}", f"b_{v}"),
            (f"b_{v}", f"c_{v}"),
            (f"c_{v}", f"d_{v}"),
            *((f"b_{v}", f"y_{v}^{i}") for i in (1, 2, 3)),
            *((f"d_{v}", f"x_{v}^{i}") for i in (1, 2, 3)),
        )
    assert edge_labels(out) == golden


def test_tree_expansion_identity_small():
    g = path_graph(3)
    out = reduce_tree(g)
    assert solve(out.graph, SDS).value == solve(g, DominationKind.DOMINATION).value + 6


def test_tree_expansion_rejects_disconnected():
    with pytest.raises(Infeasible):
        reduce_tree(disjoint_union([path_graph(2), path_graph(2)]))


# -- chordal layering ----------------------------------------------------


def test_chordal_golden_p2_one_layer():
    out = reduce_chordal(path_graph(2), 1)
    assert out.graph.n == 7
    golden = pairs(
        ("v_0^0", "v_1^0"),
        ("y", "x_0"),
        ("x_0", "v_0^0"),
        ("x_0", "v_1^0"),
        ("x_1", "v_0^0"),
        ("x_1", "v_1^0"),
        ("x_1", "v_0^1"),
        ("x_1", "v_1^1"),
        ("v_0^1", "v_0^0"),
        ("v_0^1", "v_1^0"),
        ("v_1^1", "v_0^0"),
        ("v_1^1", "v_1^0"),
    )
    assert edge_labels(out) == golden


def test_chordal_identity_and_class():
    for ell in (1, 2):
        g = path_graph(4)
        out = reduce_chordal(g, ell)
        host = out.graph
        assert host.n == 4 * (ell + 1) + ell + 2
        assert is_chordal(host) and is_connected(host)
        assert contains_induced(host, parse_pattern("P6")) is None
        assert contains_induced(host, parse_pattern("P4+P2")) is None
        want = min(solve(g, DominationKind.DOMINATION).value + 1, ell + 1)
        assert solve(host, SDS).value == want


def test_chordal_rejects_bad_input():
    with pytest.raises(InvalidInstance):
        reduce_chordal(path_graph(2), 0)
    with pytest.raises(Infeasible):
        reduce_chordal(disjoint_union([path_graph(2), path_graph(2)]), 2)


# -- claw-free encoding --------------------------------------------------


def _variable_block_golden(x, slots):
    tx, fx, ux, vx, wx = (f"{r}_x{x}" for r in "TFuvw")
    a = [f"a_x{x}^c{q}" for q in slots]
    b = [f"b_x{x}^c{q}" for q in slots]
    golden = pairs(
        (tx, fx), (tx, ux), (fx, ux), (ux, vx), (vx, wx),
        (a[0], a[1]), (a[0], a[2]), (a[1], a[2]),
        (b[0], b[1]), (b[0], b[2]), (b[1], b[2]),
        *((fx, ai) for ai in a),
        *((tx, bi) for bi in b),
    )
    for i, q in enumerate(slots):
        for half in (1, 2):
            p = [f"P_x{x},{half}^c{q}({t})" for t in range(1, 6)]
            golden |= pairs(
                (p[0], p[1]), (p[0], p[2]), (p[1], p[2]), (p[2], p[3]), (p[3], p[4])
            )
        golden |= pairs(
            (a[i], f"P_x{x},1^c{q}(1)"),
            (b[i], f"P_x{x},2^c{q}(2)"),
        )
    return golden


def _clause_block_golden(j, clause):
    p0, p1, p2 = clause
    prs = [(p0, p1), (p0, p2), (p1, p2)]
    w = {pr: f"w_c{j}^{{x{pr[0]},x{pr[1]}}}" for pr in prs}
    t = {p: f"t_c{j}^x{p}" for p in clause}
    f = {pr: f"f_c{j}^{{x{pr[0]},x{pr[1]}}}" for pr in prs}
    u = f"u_c{j}"
    inner = pairs(
        (w[prs[0]], w[prs[1]]), (w[prs[0]], w[prs[2]]), (w[prs[1]], w[prs[2]]),
        (t[p0], t[p1]), (t[p0], t[p2]), (t[p1], t[p2]),
        (f[prs[0]], f[prs[1]]), (f[prs[0]], f[prs[2]]), (f[prs[1]], f[prs[2]]),
        *((u, t[p]) for p in clause),
        *((t[p], w[pr]) for pr in prs for p in pr),
    )
    cross = pairs(
        *((f[pr], f"P_x{p},1^c{j}(2)") for pr in prs for p in pr),
        *((w[pr], f"P_x{p},2^c{j}(1)") for pr in prs for p in pr),
        *((t[p], f"P_x{p},2^c{j}(1)") for p in clause),
    )
    return inner, cross


def test_clawfree_golden_structure():
    out = reduce_clawfree(MINIMAL_B3)
    g = out.graph
    assert g.n == 41 * 3 + 10 * 3 == 153
    assert g.m == 258
    assert is_connected(g)
    assert out.meta["gamma_t2_target"] == 45
    got = edge_labels(out)
    golden = set()
    for x in range(3):
        golden |= _variable_block_golden(x, (0, 1, 2))
    for j in range(3):
        inner, cross = _clause_block_golden(j, (0, 1, 2))
        golden |= inner | cross
    assert got == golden


def test_clawfree_is_claw_free():
    out = reduce_clawfree(MINIMAL_B3)
    assert contains_induced(out.graph, parse_pattern("claw")) is None


def test_clawfree_rejects_unbounded_instances():
    with pytest.raises(InvalidInstance):
        reduce_clawfree(SatInstance(3, ((0, 1, 2),)))


def test_satisfying_assignment_reads_off_sds():
    out = reduce_clawfree(MINIMAL_B3)
    d = satisfying_sds(out, (True, False, False))
    assert len(d) == 45
    assert is_feasible(out.graph, SDS, d)
    with pytest.raises(InvalidInstance):
        satisfying_sds(out, (True, True, False))
    with pytest.raises(InvalidInstance):
        satisfying_sds(out, (True, False))
    with pytest.raises(InvalidInstance):
        satisfying_sds(reduce_2p3free(MINIMAL_B3), (True, False, False))


# -- isolated variable gadget --------------------------------------------


def _gadget_paws(out):
    labels = out.labels
    paws = [tuple(labels[f"{r}_x0"] for r in "TFuvw")]
    boundary = set()
    for q in range(3):
        for half in (1, 2):
            paws.append(
                tuple(labels[f"P_x0,{half}^c{q}({t})"] for t in range(1, 6))
            )
        boundary.add(labels[f"P_x0,1^c{q}(2)"])
        boundary.add(labels[f"P_x0,2^c{q}(1)"])
    return paws, boundary


def paw_lower_bound_holds(out):
    """Counting argument behind the per-gadget bound of fourteen.

    Boundary vertices may stay undominated, so the argument rests on two
    facts per long paw: some interior vertex is dominated only from inside
    the paw (forcing one member), and any single member that covers all
    such vertices has its whole distance-2 ball inside the paw (forcing a
    second member as its witness).
    """
    g = out.graph
    paws, boundary = _gadget_paws(out)
    for paw in paws:
        pset = set(paw)
        anchors = [
            v
            for v in paw
            if v not in boundary and {v, *g.neighbors(v)} <= pset
        ]
        if not anchors:
            return False
        for s in paw:
            covers_all = all(a == s or g.has_edge(a, s) for a in anchors)
            dist = _bfs_dist(g.rows, g.n, 1 << s)
            ball_inside = all(
                dist[u] > 2 for u in range(g.n) if u != s and u not in pset
            )
            if covers_all and not ball_inside:
                return False
    return True


def test_variable_gadget_shape_and_bound():
    out = build_variable_gadget()
    assert out.graph.n == 41
    assert len(out.labels) == 41
    assert is_connected(out.graph)
    assert contains_induced(out.graph, parse_pattern("claw")) is None
    assert out.meta["per_gadget_lower_bound"] == 14
    assert paw_lower_bound_holds(out)


# -- 2P3-free encoding ---------------------------------------------------


def test_2p3free_golden_single_clause():
    sat = SatInstance(3, ((0, 1, 2),))
    out = reduce_2p3free(sat)
    g = out.graph
    assert g.n == 3 * 3 + 5 and g.m == 34
    assert is_connected(g)
    golden = set()
    for x in range(3):
        golden |= pairs(
            (f"T_x{x}", f"F_x{x}"), (f"T_x{x}", f"u_x{x}"), (f"F_x{x}", f"u_x{x}")
        )
    clause = [f"v_c0^x{s}" for s in range(3)] + ["u_c0^T", "u_c0^F"]
    golden |= {
        frozenset((a, b)) for i, a in enumerate(clause) for b in clause[i + 1:]
    }
    for s in range(3):
        golden |= pairs(("u_c0^T", f"T_x{s}"), ("u_c0^F", f"F_x{s}"))
        golden |= pairs((f"v_c0^x{s}", f"T_x{s}"))
        golden |= pairs(
            *((f"v_c0^x{s}", f"F_x{r}") for r in range(3) if r != s)
        )
    assert edge_labels(out) == golden


def test_2p3free_class_and_identity():
    sat = SatInstance(3, ((0, 1, 2),))
    out = reduce_2p3free(sat)
    assert contains_induced(out.graph, parse_pattern("2P3")) is None
    # satisfiable: value hits the variable count
    assert solve(out.graph, SDS).value == 3
    unsat = SatInstance(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    assert brute_1in3(unsat) is None
    out = reduce_2p3free(unsat)
    assert solve(out.graph, SDS).value != 4


def test_2p3free_rejects_unused_variables():
    with pytest.raises(InvalidInstance):
        reduce_2p3free(SatInstance(4, ((0, 1, 2),)))


# -- validation bundles --------------------------------------------------


def test_validate_reduction_all_kinds():
    outs = [
        reduce_tree(path_graph(3)),
        reduce_chordal(path_graph(3), 2),
        reduce_2p3free(SatInstance(3, ((0, 1, 2),))),
    ]
    for out in outs:
        checks = validate_reduction(out)
        assert all(c.status == "pass" for c in checks), [
            (c.name, c.detail) for c in checks if c.status != "pass"
        ]


def test_validate_reduction_skips_identity_when_capped(monkeypatch):
    # the host of this order-7 source takes 31 search nodes, past the cap of
    # 10; a sharper bound can shorten that search, and then it must be re-picked
    out = reduce_tree(from_graph6("F@Um_"))
    monkeypatch.setenv("SEMITOTAL_BUDGET", "10")
    checks = validate_reduction(out)
    by_name = {c.name: c for c in checks}
    assert by_name["identity"].status == "skipped"
    assert by_name["order"].status == "pass"


def test_identity_fails_a_value_below_its_target(monkeypatch):
    # the SAT identities are two-sided: an unsatisfiable host must sit above
    # its target, not merely off it
    out = reduce_2p3free(SatInstance(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))))
    assert identity_check(out).status == "pass"
    target = out.meta["gamma_t2_target"]
    monkeypatch.setattr(reductions, "solve", lambda g, kind: SolveResult(kind, target - 1, frozenset()))
    assert identity_check(out).status == "fail"


def test_identity_past_brute_force_scale():
    # 26 variables in 10 clauses: a 128-vertex host the search solves at once
    clauses = tuple((v, v + 1, v + 2) for v in range(0, 24, 3)) + ((24, 25, 0), (1, 2, 3))
    out = reduce_2p3free(SatInstance(BRUTE_MAX_VARS + 1, clauses))
    assert out.graph.n == 128
    with pytest.raises(ScaleLimit):
        identity_check(out)
    checks = validate_reduction(out)
    assert [(c.name, c.status) for c in checks] == [
        ("labels-total-injective", "pass"), ("order", "pass"), ("2p3-free", "pass"),
        ("identity", "skipped"),
    ]
    assert str(BRUTE_MAX_VARS) in checks[-1].detail


def test_unknown_kind_has_no_identity():
    out = build_variable_gadget()
    checks = validate_reduction(out)
    assert [(c.name, c.status) for c in checks] == [
        ("labels-total-injective", "pass"), ("kind", "fail")]
    with pytest.raises(InvalidInstance):
        identity_check(out)


# -- frozen layouts ------------------------------------------------------


def _instances(num_vars, sizes, keep):
    """Clause multisets over sorted triples, in combinations order."""
    for nv in num_vars:
        pool = sorted(combinations(range(nv), 3))
        for size in sizes(nv):
            for clauses in combinations_with_replacement(pool, size):
                inst = SatInstance(nv, clauses)
                if keep(inst):
                    yield inst


def _constructions():
    sources = list(iter_connected_graphs(5))
    yield from (reduce_tree(g) for g in sources)
    yield from (reduce_chordal(g, ell) for ell in (1, 2, 3) for g in sources)
    # the covering census of the appB suite: 57 instances
    census = _instances((3, 4), lambda nv: range(1, 5), lambda i: i.all_vars_used)
    yield from (reduce_2p3free(inst) for inst in census)
    # all 24 exactly-3-bounded instances on 3..5 variables and 18 on six
    bounded = _instances(range(3, 7), lambda nv: (nv,), lambda i: i.exactly_3_bounded)
    yield from (reduce_clawfree(inst) for inst in islice(bounded, 42))
    yield build_variable_gadget()


# Frozen vertex layouts: kind, graph6, labels and meta of 224 constructions.
# The digest was computed by running this same loop on the builders that
# still laid out their blocks by id arithmetic.
CONSTRUCTION_DIGEST = "3146dfb043fa133a93dc37c0485741fbd00680e656f192ee08aa86043e6ed962"


def test_construction_layouts_frozen():
    digest = hashlib.sha256()
    count = 0
    for out in _constructions():
        count += 1
        digest.update(json.dumps([
            out.kind,
            to_graph6(out.graph),
            sorted(out.labels.items()),
            sorted(out.meta.items()),
        ]).encode())
    assert count == 224
    assert digest.hexdigest() == CONSTRUCTION_DIGEST
