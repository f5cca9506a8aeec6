import contextlib
import hashlib
import json
import math
import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings

from semitotal import blocker, domination
from semitotal import (
    CtMechanism,
    DominationKind,
    Graph,
    STConfigId,
    characterize_ct,
    classify_ct_domination,
    classify_ct_total,
    complete_graph,
    connected_graphs,
    contains_subgraph,
    contract_edges,
    ct_exact,
    ct_is_one,
    cycle_graph,
    disjoint_union,
    exists_plus1_sds_with_config,
    feasible_sets,
    from_graph6,
    is_feasible,
    iter_connected_graphs,
    parse_pattern,
    path_graph,
    path_contraction_certificate,
    random_connected,
    solve,
    star_graph,
    to_graph6,
    validate_ct_verdict,
)
from semitotal.errors import FloorError, Infeasible, ScaleLimit
from semitotal.graphs import vertex_mask

import oracles
from conftest import connected_graphs_st

DOM = DominationKind.DOMINATION
TOT = DominationKind.TOTAL
SDS = DominationKind.SEMITOTAL


def _carried(g, s, structures):
    """The first of the structures realised inside s, as the scan finds it."""
    return blocker._first_embedding(blocker._tables(g), structures, vertex_mask(g, s))


def p4_forces_config(g, d) -> bool:
    """Any semitotal dominating set with a P4 subgraph carries O4 or O6.

    Vacuously true when d has no P4; otherwise checks the matcher finds one
    of the two hub configurations inside d.
    """
    if _carried(g, d, ("P4",)) is None:
        return True
    return _carried(g, d, (STConfigId.O4, STConfigId.O6)) is not None


def _config_in(g, s):
    """The first configuration O1..O7 realised inside s, or None."""
    found = _carried(g, s, STConfigId)
    return None if found is None else blocker._config_match(*found)

# first enumeration-order graphs per contraction count, oracle-confirmed
FROZEN_CT = [
    ("CL", DOM, 1),
    ("DBg", DOM, 2),
    ("E@U_", DOM, 3),
    ("BW", DOM, None),
    ("F?CeW", SDS, 1),
    ("F?LS_", SDS, 2),
    ("F??Fw", SDS, None),
    ("F??^O", TOT, 1),
    ("F?LT?", TOT, 2),
    ("F??Fw", TOT, None),
]


def _certificate_is_sound(g, kind, k, cert):
    assert len(cert.edges) == k
    assert all(g.has_edge(u, v) for u, v in cert.edges)
    assert cert.value_before == solve(g, kind).value
    h, vmap = contract_edges(g, cert.edges)
    assert vmap == cert.vertex_map
    assert solve(h, kind).value == cert.value_after < cert.value_before


def test_frozen_ct_fixtures():
    for code, kind, want in FROZEN_CT:
        g = from_graph6(code)
        res = ct_exact(g, kind, 3)
        if want is None:
            assert res is None
        else:
            k, cert = res
            assert k == want
            _certificate_is_sound(g, kind, k, cert)


def test_ct_exact_matches_oracle_exhaustive():
    for g in iter_connected_graphs(5, min_n=3):
        n, edges = oracles.edge_data(g)
        for kind in (DOM, TOT, SDS):
            res = ct_exact(g, kind, 3)
            got = None if res is None else res[0]
            assert got == oracles.brute_ct(n, edges, kind.value, 3)


def test_ct_exact_gives_three_on_paths_and_cycles_of_five_parts():
    # with gamma_t2 = ceil(2n/5), k contractions turn P_n into P_{n-k} (C_n
    # into C_{n-k}), and only n = 5q, q >= 2, needs three to drop the value
    for n in range(6, 26):
        for g in (path_graph(n), cycle_graph(n)):
            k, _ = ct_exact(g, SDS, 3)
            assert (k == 3) == (n % 5 == 0 and n >= 10), (g.n, g.m, k)


def test_ct_exact_matches_oracle_order6_semitotal():
    for g in connected_graphs(6):
        res = ct_exact(g, SDS, 3)
        got = None if res is None else res[0]
        assert got == oracles.brute_ct(*oracles.edge_data(g), "semitotal", 3)


def _parent_ct(g, kind, kmax=3):
    """ct_exact's scan, edge subsets by size then lexicographic order, with
    each contraction decided by the parent search and valued by it."""
    base = oracles.parent_solve(g, kind)[0]
    if base <= (1 if kind is DOM else 2):
        return None
    n, edges = oracles.edge_data(g)
    for k in range(1, kmax + 1):
        for combo in combinations(sorted(edges), k):
            h = Graph.from_edges(*oracles.contract(n, edges, combo))
            if h.n < 2 and kind is not DOM:
                continue
            if oracles.parent_exists_within(h, kind, base - 1):
                return k, combo, oracles.parent_solve(h, kind)[0]
    return None


def _ct_sample():
    # the graphs of the request traffic, where the scan's refutations run
    # the search's bounds deep
    for i in range(24):
        n = 36 + i % 7
        yield random_connected(n, 1.5 * math.log(n) / n, 5000 + i)


def test_ct_exact_matches_the_parent_search_at_order_36_to_42():
    for g in _ct_sample():
        for kind in (DOM, TOT, SDS):
            res = ct_exact(g, kind)
            got = None if res is None else (res[0], res[1].edges, res[1].value_after)
            assert got == _parent_ct(g, kind), (to_graph6(g), kind)


def test_one_contraction_lowers_the_value_by_at_most_one():
    # the premise that lets ct_exact report base - 1 without solving again
    cases = 0
    for g in iter_connected_graphs(7, min_n=2):
        values = {kind: solve(g, kind).value for kind in (DOM, TOT, SDS)}
        for e in g.edges():
            h, _ = contract_edges(g, [e])
            for kind, before in values.items():
                if h.n < 2 and kind is not DOM:
                    continue
                assert solve(h, kind).value >= before - 1, (to_graph6(g), e, kind)
                cases += 1
    assert cases == 31990


def test_ct_exact_solves_once(monkeypatch):
    # the value after the contraction is the decided bound, not a second solve
    solved = []
    real_solve = blocker.solve

    def solve_spy(g, kind, **kw):
        solved.append(g.rows)
        return real_solve(g, kind, **kw)

    monkeypatch.setattr(blocker, "solve", solve_spy)
    found = 0
    for g in [cycle_graph(10), *_ct_sample()]:
        for kind in (DOM, TOT, SDS):
            solved.clear()
            res = ct_exact(g, kind)
            assert solved == [g.rows]
            found += res is not None
    assert found > 0


def test_ct_exact_decides_each_contracted_graph_once(monkeypatch):
    # every distinct contraction the scan reaches is decided, and once
    decided = []
    real_exists = blocker.exists_within

    def exists_spy(h, kind, k, **kw):
        decided.append(h.rows)
        return real_exists(h, kind, k, **kw)

    monkeypatch.setattr(blocker, "exists_within", exists_spy)
    repeats = 0
    for g in connected_graphs(6):
        for kind in (DOM, TOT, SDS):
            decided.clear()
            res = ct_exact(g, kind, 3)
            if solve(g, kind).value <= blocker._FLOOR[kind]:
                assert not decided
                continue
            # the combinations the scan reaches, in its order, up to its answer
            combos = [c for k in (1, 2, 3) for c in combinations(sorted(g.edges()), k)]
            if res is not None:
                combos = combos[: combos.index(res[1].edges) + 1]
            contracted = [contract_edges(g, c)[0] for c in combos]
            # a total or semitotal scan passes over contractions to one vertex
            rows = [h.rows for h in contracted if h.n >= 2 or kind is DOM]
            assert len(decided) == len(set(decided))
            assert set(decided) == set(rows)
            repeats += len(rows) - len(decided)
    assert repeats > 0


def test_ct_exact_kmax_zero():
    assert ct_exact(cycle_graph(6), SDS, 0) is None


def test_ct_exact_returns_before_a_contraction_reaches_one_vertex():
    # ct <= 3, so a scan allowed every contraction down to one vertex
    # stops where a scan capped at 3 does
    for g in (path_graph(10), cycle_graph(10)):
        for kind in DominationKind:
            assert ct_exact(g, kind, g.n - 1) == ct_exact(g, kind, 3)
        assert ct_exact(g, SDS, g.n - 1)[0] == 3


@pytest.mark.parametrize("scope", [domination.solved_once, contextlib.nullcontext])
def test_blocker_inputs_go_through_the_solve_gate(scope):
    # neither entry point checks its input itself: `solve`, its first call,
    # rejects it, and a solve that raised left nothing stored in the block
    two = disjoint_union([path_graph(2), path_graph(3)])
    one = Graph(1, (0,))
    with scope():
        for _ in range(2):
            for kind in (DOM, TOT, SDS):
                with pytest.raises(Infeasible):
                    ct_exact(two, kind, 3)
            for kind in (TOT, SDS):
                with pytest.raises(Infeasible):
                    ct_exact(one, kind, 3)
            with pytest.raises(Infeasible):
                characterize_ct(two)
            with pytest.raises(Infeasible):
                characterize_ct(one)


def test_ct_exact_caps_its_contractions(monkeypatch):
    # P10 solves in 17 nodes, value 4, and needs three contractions: its 9
    # single and 36 double contractions all fail, so the scan passes 30
    monkeypatch.setenv("SEMITOTAL_BUDGET", "30")
    with pytest.raises(ScaleLimit, match=r"^ct_exact exceeded 30 contractions$"):
        ct_exact(path_graph(10), SDS, 3)
    monkeypatch.setenv("SEMITOTAL_BUDGET", "60")
    k, cert = ct_exact(path_graph(10), SDS, 3)
    assert k == 3 and (cert.value_before, cert.value_after) == (4, 3)


def test_floor_graphs_are_irreducible():
    # value two cannot drop: a lone member has no partner within distance 2
    for g in (complete_graph(3), star_graph(5), path_graph(4)):
        assert solve(g, SDS).value == 2
        assert ct_exact(g, SDS, 3) is None


def test_friendly_triple_hand_cases():
    c6 = cycle_graph(6)
    assert _carried(c6, {0, 1, 3}, ("friendly-triple",)) == ("friendly-triple", (0, 1, 3))
    assert _carried(c6, {0, 2, 4}, ("friendly-triple",)) is None
    assert ct_is_one(c6, SDS)
    d, _, (x, y, z) = blocker._first_carrying(c6, SDS, 3, ("friendly-triple",))
    assert {x, y, z} <= set(d) and is_feasible(c6, SDS, d)
    assert c6.has_edge(x, y)


def test_friendly_triple_iff_one_contraction():
    # one mechanism route vs the contraction oracle, exhaustively
    for g in iter_connected_graphs(6, min_n=3):
        if solve(g, SDS).value < 3:
            continue
        want = oracles.brute_ct(*oracles.edge_data(g), "semitotal", 1) == 1
        assert ct_is_one(g, SDS) == want


def test_ct_is_one_matches_the_oracle_for_plain_and_total():
    # floors included: value 1 (plain) or 2 (total) answers False
    for g in iter_connected_graphs(6, min_n=2):
        n, edges = oracles.edge_data(g)
        for kind in (DOM, TOT):
            assert ct_is_one(g, kind) == (oracles.brute_ct(n, edges, kind.value, 1) == 1)


def test_match_st_configuration_hand_case():
    c6 = cycle_graph(6)
    m = _config_in(c6, {0, 1, 2, 3})
    assert m is not None and m.config is STConfigId.O6
    assert m.assignment == {"a": 0, "b": 1, "c": 3, "d": 2}
    assert m.thick_edges == ((0, 1), (1, 2))
    assert _config_in(c6, {0, 2, 4}) is None


def test_o3_roles_c_and_f_may_share_a_vertex():
    # edges 05 14 23 35 45: ab and de are the thick edges, and 0 is two steps
    # from both b = 4 and e = 3, so it fills roles c and f at once
    m = _config_in(from_graph6("E@QW"), {0, 1, 2, 3, 4})
    assert m is not None and m.config is STConfigId.O3
    assert m.assignment == {"a": 1, "b": 4, "c": 0, "d": 2, "e": 3, "f": 0}
    assert m.thick_edges == ((1, 4), (2, 3))


def test_blocker_plans_keep_the_parent_first_match(monkeypatch):
    # every plan of the mechanism table (O3 has a reuse step) over random
    # member masks, and verify mode on each find and on random tuples, run
    # again on the matcher before forward checking
    rng = random.Random(15)
    cases = []
    for seed in range(24):
        n = rng.randint(8, 20)
        g = random_connected(n, rng.choice([0.15, 0.3, 0.5]), seed)
        mask = sum(1 << v for v in rng.sample(range(n), rng.randint(3, n)))
        cases.append((blocker._tables(g), mask))

    def answers():
        pick = random.Random(16)
        per_plan, first = [], []
        for tables, mask in cases:
            members = [v for v in range(len(tables[0])) if mask >> v & 1]
            for key, plan in blocker._PLANS.items():
                found = blocker._first_embedding(tables, (key,), mask)
                tuples = [tuple(pick.choice(members) for _ in plan[0]) for _ in range(4)]
                if found is not None:
                    tuples.append(found[1])
                verdicts = [blocker._realised(tables, plan, t, members) for t in tuples]
                per_plan.append((found, verdicts))
            first.append(blocker._first_embedding(tables, tuple(blocker._PLANS), mask))
        return per_plan, first

    got = answers()
    monkeypatch.setattr(blocker, "embed", oracles.parent_embed)
    assert got == answers()
    per_plan, _ = got
    assert {found[0] for found, _ in per_plan if found is not None} == set(blocker._PLANS)
    verdicts = {v for _, vs in per_plan for v in vs}
    assert verdicts == {True, False}


def test_plus1_sds_configuration_exists_for_c6():
    assert exists_plus1_sds_with_config(cycle_graph(6)) is not None


def test_path_contraction_certificate_properties():
    for g in iter_connected_graphs(6, min_n=3):
        if solve(g, SDS).value < 3:
            continue
        cert = path_contraction_certificate(g)
        assert 1 <= len(cert.edges) <= 3
        h, _ = contract_edges(g, cert.edges)
        assert solve(h, SDS).value == cert.value_after < cert.value_before


def test_path_certificate_refuses_the_floor():
    assert solve(path_graph(4), SDS).value == 2
    with pytest.raises(FloorError):
        path_contraction_certificate(path_graph(4))


def test_a_verdict_without_its_evidence_fails_validation():
    for code, evidence in (("EhEG", "triple"), ("F?LS_", "match")):
        g = from_graph6(code)
        verdict = characterize_ct(g)
        assert validate_ct_verdict(g, verdict)
        assert not validate_ct_verdict(g, replace(verdict, **{evidence: None}))


def test_characterize_ct_frozen_mechanisms():
    assert characterize_ct(from_graph6("F??Fw")).mechanism is CtMechanism.FLOOR
    v = characterize_ct(cycle_graph(6))
    assert (v.value, v.k, v.mechanism) == (3, 1, CtMechanism.FRIENDLY_TRIPLE)
    assert v.triple is not None and v.sds is not None
    v = characterize_ct(from_graph6("F?LS_"))
    assert (v.k, v.mechanism) == (2, CtMechanism.ST_CONFIGURATION)
    assert v.match is not None


def test_characterize_ct_validates_everywhere():
    for g in iter_connected_graphs(6, min_n=2):
        verdict = characterize_ct(g)
        assert validate_ct_verdict(g, verdict)
        res = ct_exact(g, SDS, 3)
        assert verdict.k == (None if res is None else res[0])


def test_validate_ct_verdict_rejects_tampered_evidence():
    # one piece of evidence changed at a time, on one verdict per mechanism
    c6 = cycle_graph(6)
    v = characterize_ct(c6)
    assert (v.sds, v.triple) == (frozenset({0, 1, 3}), (0, 1, 3))
    config_graph = from_graph6("F?LS_")
    w = characterize_ct(config_graph)
    assert w.match.assignment == {"a": 4, "b": 3, "c": 0, "d": 5}
    moved = {**w.match.assignment, "c": 6}  # 6 is outside sds
    path = from_graph6("JCGSE__Q?G?")
    p = characterize_ct(path)
    assert (p.value, p.mechanism) == (4, CtMechanism.PATH_CONTRACTION)
    cert = p.certificate
    tampered = [
        (c6, replace(v, value=2)),
        (c6, replace(v, value=4)),
        (c6, replace(v, sds=frozenset({0, 1, 3, 4}))),  # feasible, one too many
        (c6, replace(v, sds=frozenset({0, 1, 2}), triple=(0, 1, 2))),  # misses 4
        (c6, replace(v, triple=(0, 1, 2))),  # 2 is outside sds
        (c6, replace(v, triple=(0, 3, 1))),  # 0 and 3 are not adjacent
        (c6, replace(v, mechanism=CtMechanism.FLOOR)),
        (path_graph(4), replace(characterize_ct(path_graph(4)), value=3)),
        (config_graph, replace(w, value=2)),
        (config_graph, replace(w, value=4)),
        (config_graph, replace(w, sds=w.sds | {6})),  # feasible, one too many
        (config_graph, replace(w, sds=frozenset({1, 3, 4, 5}))),  # misses 0
        (config_graph, replace(w, match=replace(w.match, assignment=moved))),
        (config_graph, replace(w, match=replace(w.match, thick_edges=w.match.thick_edges[::-1]))),
        (path, replace(p, value=3)),
        (path, replace(p, value=5)),
        (path, replace(p, certificate=replace(cert, value_after=cert.value_after - 1))),
        (path, replace(p, certificate=replace(cert, value_after=cert.value_after + 1))),
    ]
    for g, verdict in [(c6, v), (config_graph, w), (path, p)]:
        assert validate_ct_verdict(g, verdict)
    for g, verdict in tampered:
        assert not validate_ct_verdict(g, verdict), verdict


def test_variant_classifiers_frozen():
    assert classify_ct_domination(from_graph6("CL")) == 1
    assert classify_ct_domination(from_graph6("DBg")) == 2
    assert classify_ct_domination(from_graph6("E@U_")) == 3
    assert classify_ct_total(from_graph6("F??^O")) == 1
    assert classify_ct_total(from_graph6("F?LT?")) == 2


def test_variant_classifiers_match_oracle_small():
    for g in iter_connected_graphs(5, min_n=2):
        n, edges = oracles.edge_data(g)
        if solve(g, DOM).value >= 2:
            assert classify_ct_domination(g) == oracles.brute_ct(n, edges, "domination", 3)
        if solve(g, TOT).value >= 3:
            assert classify_ct_total(g) == oracles.brute_ct(n, edges, "total", 3)


def test_p4_forces_config_hand_cases():
    c6 = cycle_graph(6)
    assert p4_forces_config(c6, {0, 1, 2, 3})
    # no path on four vertices inside the set: vacuously fine
    assert p4_forces_config(c6, {0, 2, 4})


def test_p4_forces_config_seeded_pairs():
    p4 = parse_pattern("P4")
    rng = random.Random(77)
    done = 0
    while done < 60:
        g = random_connected(rng.randint(5, 9), rng.choice([0.3, 0.5, 0.7]), rng.randrange(2**31))
        hit = contains_subgraph(g, p4)
        if hit is None:
            continue
        d = set(hit.values()) | {v for v in range(g.n) if rng.random() < 0.5}
        if not is_feasible(g, SDS, d):
            d = set(range(g.n))
        assert contains_subgraph(g, p4, within=d) is not None
        assert p4_forces_config(g, d)
        done += 1


@settings(max_examples=40, deadline=None)
@given(connected_graphs_st(min_n=3, max_n=8))
def test_certificates_always_replay(g):
    res = ct_exact(g, SDS, 3)
    if res is None:
        assert solve(g, SDS).value == 2
    else:
        _certificate_is_sound(g, SDS, *res)


# Frozen configuration matches.  The digest was computed with the
# role-by-role configuration matcher that the plans on the bitset engine
# replaced, by running this same loop on that code; the loop covers 1941 sets.
CONFIG_DIGEST = "f294ab2fef08d357d609ab88189ab5bdd69a4f99de2554f63942d68f2189ecf6"


def test_configuration_matches_frozen():
    digest = hashlib.sha256()
    for g in iter_connected_graphs(6, min_n=2):
        for s in feasible_sets(g, SDS, solve(g, SDS).value + 1):
            m = _config_in(g, s)
            digest.update(json.dumps([
                to_graph6(g),
                list(s),
                None if m is None else [m.config.value, sorted(m.assignment.items()), m.thick_edges],
                p4_forces_config(g, s),
            ]).encode())
    assert digest.hexdigest() == CONFIG_DIGEST


# Frozen blocker answers over every connected graph on 2..7 vertices: the
# characterize_ct verdict, the ct_exact certificate for each kind and both
# variant classifiers.  The digest was computed by running this same loop on
# the code that still took n <= 12 values from the subset sweep.
BLOCKER_DIGEST = "3fa55f717bb24e047ed841c5b8396fc5f836ca03dbb3bc3bafc76e158fbc6959"


def _cert(c):
    if c is None:
        return None
    return [c.edges, c.value_before, c.value_after, sorted(c.vertex_map.items())]


def _classify(fn, g):
    try:
        return fn(g)
    except FloorError:
        return "floor"


def test_blocker_answers_frozen():
    digest = hashlib.sha256()
    for g in iter_connected_graphs(7, min_n=2):
        v = characterize_ct(g)
        m = v.match
        scans = [ct_exact(g, kind) for kind in (DOM, TOT, SDS)]
        digest.update(json.dumps([
            to_graph6(g),
            v.value,
            v.k,
            v.mechanism.value,
            None if v.sds is None else sorted(v.sds),
            v.triple,
            None if m is None else [m.config.value, sorted(m.assignment.items()), m.thick_edges],
            _cert(v.certificate),
            [None if r is None else [r[0], _cert(r[1])] for r in scans],
            _classify(classify_ct_domination, g),
            _classify(classify_ct_total, g),
        ]).encode())
    assert digest.hexdigest() == BLOCKER_DIGEST


def test_blocker_honours_the_search_budget(monkeypatch):
    # every value comes from the search, which stops at SEMITOTAL_BUDGET
    monkeypatch.setenv("SEMITOTAL_BUDGET", "1")
    with pytest.raises(ScaleLimit):
        characterize_ct(cycle_graph(9))
    with pytest.raises(ScaleLimit):
        ct_exact(cycle_graph(9), SDS)
