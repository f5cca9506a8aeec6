import contextlib
import hashlib
import inspect
import json
import math
import sys
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal import (
    DominationKind,
    SolveResult,
    complete_graph,
    connected_graphs,
    cycle_graph,
    disjoint_union,
    enumerate_min_sets,
    exists_within,
    feasible_sets,
    is_feasible,
    iter_connected_graphs,
    min_set_spans_edge,
    path_graph,
    solve,
    solve_by_enumeration,
    star_graph,
)
from semitotal import domination
from semitotal.domination import DEFAULT_BUDGET, search_budget
from semitotal.errors import Infeasible, InvalidSetting, NotInSet, ScaleLimit
from semitotal.graphs import Graph, _bits, random_connected, to_graph6

import oracles
from conftest import connected_graphs_st

DOM = DominationKind.DOMINATION
TOT = DominationKind.TOTAL
SDS = DominationKind.SEMITOTAL

KINDS = (DOM, TOT, SDS)


def test_hand_values():
    # single-vertex and adjacent-pair floors
    assert solve(path_graph(2), DOM).value == 1
    assert solve(path_graph(2), TOT).value == 2
    assert solve(path_graph(2), SDS).value == 2
    assert solve(star_graph(6), DOM).value == 1
    assert solve(star_graph(6), TOT).value == 2
    assert solve(star_graph(6), SDS).value == 2
    assert solve(cycle_graph(6), SDS).value == 3
    assert solve(cycle_graph(6), TOT).value == 4
    assert solve(cycle_graph(6), DOM).value == 2


def test_paths_and_cycles_meet_their_closed_forms():
    # gamma = ceil(n/3) and gamma_t2 = ceil(2n/5) on P_n and C_n: an oracle
    # past brute-force scale that does not rest on another search
    for n in range(3, 31):
        for g in (path_graph(n), cycle_graph(n)):
            assert solve(g, DOM).value == -(-n // 3), (g.n, g.m)
            assert solve(g, SDS).value == -(-2 * n // 5), (g.n, g.m)


def comb_graph(m):
    """P_m with a pendant leaf on each vertex: the spine is a minimum set of
    every kind, so a search chooses about m members on its way down."""
    return Graph.from_edges(2 * m, [(v, v + 1) for v in range(m - 1)] + [(v, m + v) for v in range(m)])


def test_walks_past_the_recursion_limit_answer():
    # the walk keeps its frames on a list, not the call stack, so a walk
    # hundreds of members deep runs under a recursion limit far below that
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        for kind in KINDS:
            assert exists_within(comb_graph(300), kind, 300), kind
    finally:
        sys.setrecursionlimit(limit)


def test_deep_walks_stop_at_the_node_budget():
    # the node budget is the search's one limit, however deep the walk
    with pytest.raises(ScaleLimit, match="exceeded 1000 nodes"):
        solve(path_graph(2000), SDS, budget=1000)
    with pytest.raises(ScaleLimit, match="exceeded 1000 nodes"):
        exists_within(path_graph(2000), SDS, 1500, budget=1000)


def test_witness_reachability_floor():
    # a semitotal member needs a partner within distance two, so one vertex
    # can never suffice even when it dominates everything
    for g in (star_graph(5), complete_graph(4)):
        assert solve(g, DOM).value == 1
        assert solve(g, SDS).value == 2


def test_solver_rejects_unusable_input():
    one = Graph(1, (0,))
    assert solve(one, DOM).value == 1
    with pytest.raises(Infeasible):
        solve(one, SDS)
    with pytest.raises(Infeasible):
        solve(one, TOT)
    with pytest.raises(Infeasible):
        solve(disjoint_union([path_graph(2), path_graph(2)]), SDS)


def test_solutions_are_feasible_and_match_oracle_small():
    for g in iter_connected_graphs(6):
        n, edges = oracles.edge_data(g)
        for kind in KINDS:
            if kind is not DOM and g.n < 2:
                continue
            res = solve(g, kind)
            assert is_feasible(g, kind, res.witness)
            assert res.value == len(res.witness)
            assert res.value == oracles.brute_value(n, edges, kind.value)


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=9))
def test_solver_matches_oracle_random(g):
    n, edges = oracles.edge_data(g)
    for kind in KINDS:
        assert solve(g, kind).value == oracles.brute_value(n, edges, kind.value)


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=8), st.data())
def test_is_feasible_matches_oracle(g, data):
    subset = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    n, edges = oracles.edge_data(g)
    adj = oracles.adjacency(n, edges)
    for kind in KINDS:
        assert is_feasible(g, kind, subset) == oracles.CHECKS[kind.value](adj, subset)


def test_value_chain_on_all_small_graphs():
    # gamma <= gamma_t2 <= gamma_t, and the semitotal floor of two
    for g in iter_connected_graphs(7, min_n=2):
        dom = solve(g, DOM).value
        sds = solve(g, SDS).value
        tot = solve(g, TOT).value
        assert dom <= sds <= tot
        assert sds >= 2


def test_domination_number_one_census():
    # gamma = 1 exactly when some vertex is universal; deleting it leaves any
    # graph on n - 1 vertices, so order n has A000088(n - 1) such graphs
    counts = [sum(solve(g, DOM).value == 1 for g in connected_graphs(n)) for n in range(2, 9)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044]


def test_exists_within_consistent_with_solve():
    for g in iter_connected_graphs(6, min_n=2):
        value = solve(g, SDS).value
        assert exists_within(g, SDS, value)
        assert not exists_within(g, SDS, value - 1)
        assert not exists_within(g, SDS, 0)


@pytest.mark.parametrize("n, seed, kind, greedy, value", [
    (13, 335, DOM, 5, 3),
    (14, 311, TOT, 6, 4),
])
def test_plain_and_total_record_a_full_cover(n, seed, kind, greedy, value):
    # a node whose cover is full reaches the plain/total record branch of
    # `_Search._visit` only two or more below the bound; one below, `_last`
    # records it.  So greedy must overshoot the optimum by two.
    g = random_connected(n, 0.2, seed)
    search = domination._Search(g, kind, search_budget(), None)
    search.greedy()
    assert search.best == greedy >= value + 2
    assert solve(g, kind).value == value == oracles.brute_value(*oracles.edge_data(g), kind.value)


def test_solve_by_enumeration_agrees():
    for g in iter_connected_graphs(5, min_n=2):
        for kind in KINDS:
            assert solve_by_enumeration(g, kind).value == solve(g, kind).value


def test_solve_by_enumeration_budget(monkeypatch):
    monkeypatch.setenv("SEMITOTAL_BUDGET", "5")
    with pytest.raises(ScaleLimit):
        solve_by_enumeration(cycle_graph(9), SDS)


def test_enumerate_min_sets_matches_oracle():
    for g in iter_connected_graphs(6, min_n=2):
        n, edges = oracles.edge_data(g)
        for kind in KINDS:
            got = enumerate_min_sets(g, kind)
            want = oracles.brute_min_sets(n, edges, kind.value)
            assert got == want


def test_feasible_sets_match_subset_sweep():
    # the same sets in the same combinations order, one size above the minimum too
    for g in iter_connected_graphs(6, min_n=2):
        n, edges = oracles.edge_data(g)
        adj = oracles.adjacency(n, edges)
        for kind in KINDS:
            value = solve(g, kind).value
            for k in (value - 1, value, value + 1):
                want = [c for c in combinations(range(n), k)
                        if oracles.CHECKS[kind.value](adj, set(c))]
                assert list(feasible_sets(g, kind, k)) == want


def test_feasible_sets_budget_counts_subsets(monkeypatch):
    c6 = cycle_graph(6)
    monkeypatch.setenv("SEMITOTAL_BUDGET", str(comb(6, 3)))
    assert len(list(feasible_sets(c6, SDS, 3))) > 0
    monkeypatch.setenv("SEMITOTAL_BUDGET", str(comb(6, 3) - 1))
    with pytest.raises(ScaleLimit):
        next(feasible_sets(c6, SDS, 3))


def test_exists_within_honours_budget_at_small_order():
    with pytest.raises(ScaleLimit):
        exists_within(cycle_graph(9), SDS, 3, budget=1)


def test_zero_budget_is_a_budget(monkeypatch):
    with pytest.raises(ScaleLimit):
        solve(cycle_graph(6), SDS, budget=0)
    # the setting must be positive, so its smallest budget is 1
    monkeypatch.setenv("SEMITOTAL_BUDGET", "1")
    with pytest.raises(ScaleLimit):
        enumerate_min_sets(cycle_graph(6), SDS)


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "", "1e6", "\u0661"])
def test_search_budget_rejects_invalid_settings(monkeypatch, raw):
    monkeypatch.setenv("SEMITOTAL_BUDGET", raw)
    with pytest.raises(InvalidSetting):
        search_budget()
    with pytest.raises(InvalidSetting):
        solve(cycle_graph(6), SDS)


def test_search_budget_reads_the_setting(monkeypatch):
    monkeypatch.delenv("SEMITOTAL_BUDGET", raising=False)
    assert search_budget() == DEFAULT_BUDGET
    monkeypatch.setenv("SEMITOTAL_BUDGET", "1")
    assert search_budget() == 1
    with pytest.raises(ScaleLimit):
        solve(cycle_graph(6), SDS)


def test_search_budget_past_the_int_digit_limit(monkeypatch):
    # int() refuses more than 4300 digits, so such a setting raised
    # ValueError; it is a budget no count reaches, and zeros stay invalid
    monkeypatch.setenv("SEMITOTAL_BUDGET", "1" * 5000)
    assert search_budget() == sys.maxsize + 1
    assert solve(cycle_graph(6), SDS).value == 3
    monkeypatch.setenv("SEMITOTAL_BUDGET", "0" * 5000)
    with pytest.raises(InvalidSetting):
        search_budget()


def test_search_budget_follows_a_changed_setting(monkeypatch):
    # the setting is read at every search
    monkeypatch.setenv("SEMITOTAL_BUDGET", "1000")
    assert solve(cycle_graph(6), SDS).value == 3
    monkeypatch.setenv("SEMITOTAL_BUDGET", "1")
    with pytest.raises(ScaleLimit):
        solve(cycle_graph(6), SDS)
    monkeypatch.setenv("SEMITOTAL_BUDGET", "1000")
    assert solve(cycle_graph(6), SDS).value == 3


def test_enumerate_min_sets_scale_guard(monkeypatch):
    monkeypatch.setenv("SEMITOTAL_BUDGET", "10")
    with pytest.raises(ScaleLimit):
        enumerate_min_sets(cycle_graph(12), SDS)


def test_is_feasible_guards():
    with pytest.raises(NotInSet):
        is_feasible(cycle_graph(6), SDS, {0, 6})
    with pytest.raises(NotInSet):
        is_feasible(cycle_graph(6), DOM, {-1})
    one = Graph(1, (0,))
    assert is_feasible(one, DOM, {0})
    for kind in (TOT, SDS):
        with pytest.raises(Infeasible):
            is_feasible(one, kind, {0})


def test_exists_within_zero_builds_no_search(monkeypatch):
    # k <= 0 is answered after the input gate and before any search set-up
    def no_search(*args, **kwargs):
        raise AssertionError("a search was built for k = 0")

    monkeypatch.setattr(domination, "_Search", no_search)
    for kind in KINDS:
        for g in (path_graph(2), cycle_graph(6)):
            assert exists_within(g, kind, 0) is False
            assert exists_within(g, kind, -1) is False
        with pytest.raises(Infeasible):
            exists_within(disjoint_union([path_graph(2), path_graph(2)]), kind, 0)


def test_order_zero_graph_has_one_answer_per_route():
    # the empty set dominates K0, so every route reports the value 0
    k0 = Graph(0, ())
    empty = SolveResult(DOM, 0, frozenset())
    assert solve(k0, DOM) == solve_by_enumeration(k0, DOM) == empty
    assert exists_within(k0, DOM, 0) is True
    assert exists_within(k0, DOM, -1) is False
    assert enumerate_min_sets(k0, DOM) == [frozenset()]
    for kind in (TOT, SDS):
        for route in (solve, solve_by_enumeration, enumerate_min_sets):
            with pytest.raises(Infeasible):
                route(k0, kind)
        with pytest.raises(Infeasible):
            exists_within(k0, kind, 0)


def test_min_sds_spans_edge():
    # K3's unique-size-2 solutions are adjacent pairs
    assert min_set_spans_edge(complete_graph(3), SDS)
    # C6 has the independent {0,2,4} but also sets with edges
    assert min_set_spans_edge(cycle_graph(6), SDS)
    # star: every minimum SDS is the centre plus one leaf, always adjacent
    assert min_set_spans_edge(star_graph(5), SDS)
    # C4: pairs at distance two work, oracle confirms an all-independent case
    c4 = cycle_graph(4)
    mins = oracles.brute_min_sets(*oracles.edge_data(c4), "semitotal")
    has_edge = {
        frozenset(d)
        for d in mins
        if any(c4.has_edge(u, v) for u in d for v in d if u < v)
    }
    assert min_set_spans_edge(c4, SDS) == bool(has_edge)


def _search_answers():
    """For every connected graph on 2..7 vertices and 40 seeded graphs of
    order 36..42, each kind: the value and sorted witness from `solve`, then
    the `exists_within` answers for j = 1..value."""
    graphs = list(iter_connected_graphs(7, min_n=2))
    for i in range(40):
        n = 36 + i % 7
        graphs.append(random_connected(n, 1.5 * math.log(n) / n, 1000 + i))
    for g in graphs:
        for kind in KINDS:
            res = solve(g, kind)
            yield [
                to_graph6(g),
                kind.value,
                res.value,
                sorted(res.witness),
                [exists_within(g, kind, j) for j in range(1, res.value + 1)],
            ]


# Computed by running this same loop on the search that walked every vertex
# in bound order for each packing bound, which the rank-space search replaced.
SEARCH_DIGEST = "ca1c7e4d06b8879c31186e07ce13cdc768d8a9eb4beee775c612803b173d3beb"


def test_search_answers_frozen():
    digest = hashlib.sha256()
    for answer in _search_answers():
        digest.update(json.dumps(answer).encode())
    assert digest.hexdigest() == SEARCH_DIGEST


@pytest.mark.parametrize("limits", [
    {"budget": math.inf}, {"budget": "1"}, {"budget": 1.0}, {"budget": -10**30},
    {"budget": math.nan}, {"budget": 2.5}, {"budget": -1}, {"budget": True},
])
def test_invalid_search_limits_are_rejected(limits):
    # unchecked, a NaN or infinite budget never fired and 2.5 passed as a
    # budget; only a non-negative int that is not a bool is a budget
    g = random_connected(40, 1.5 * math.log(40) / 40, 7)
    for kind in KINDS:
        with pytest.raises(InvalidSetting):
            solve(g, kind, **limits)
        for k in (0, 5):
            with pytest.raises(InvalidSetting):
                exists_within(g, kind, k, **limits)


# An order-60 graph on which every kind's `solve`, and its refutation of
# value - 1, count more than 256 nodes, so that a budget stops them deep in
# the walk, not at its root.
DEEP = random_connected(60, 0.1, 20)


def test_deep_searches_count_past_256():
    # the premise of the budget tests on DEEP: a sharper bound can shorten
    # these searches, and then DEEP must be re-picked
    for kind in KINDS:
        res = solve(DEEP, kind)
        assert res.nodes > 256, kind
        with pytest.raises(ScaleLimit):
            exists_within(DEEP, kind, res.value - 1, budget=256)


def test_solve_reports_its_node_count():
    for kind in KINDS:
        first, again = solve(DEEP, kind), solve(DEEP, kind)
        assert first.nodes == again.nodes > 256
        assert solve(DEEP, kind, budget=first.nodes) == first
        with pytest.raises(ScaleLimit):
            solve(DEEP, kind, budget=first.nodes - 1)
    assert solve_by_enumeration(cycle_graph(6), SDS).nodes is None
    assert solve_by_enumeration(cycle_graph(6), SDS) == solve(cycle_graph(6), SDS)


def test_every_budget_below_the_count_stops_the_search():
    # nodes are counted at one site, each call of `_visit`, children handed
    # to `_last` among them, and the budget is checked there, so each budget
    # below the count stops the search and the count itself does not.
    # Between them, these order-16 graphs hand children to `_last` in every
    # kind
    for seed in (10, 14, 19):
        g = random_connected(16, 0.2, seed)
        for kind in KINDS:
            res = solve(g, kind)
            assert solve(g, kind, budget=res.nodes) == res
            for budget in range(res.nodes):
                with pytest.raises(ScaleLimit):
                    solve(g, kind, budget=budget)


def test_refutation_stops_at_its_node_count():
    # `exists_within` reports no count, so its search is run to its end to
    # read one; value - 1 is refuted at that budget and not one below it
    for kind in KINDS:
        value = solve(DEEP, kind).value
        search = domination._Search(DEEP, kind, DEFAULT_BUDGET, value - 1)
        search.run()
        assert not exists_within(DEEP, kind, value - 1, budget=search.nodes)
        with pytest.raises(ScaleLimit):
            exists_within(DEEP, kind, value - 1, budget=search.nodes - 1)


def test_walk_matches_the_parent_search():
    # the last-member step and the skipped children record what the calls
    # they replace recorded, in the same order, so every answer and
    # witness is the full walk's
    for i in range(300):
        g = random_connected(8 + i % 23, (0.15, 0.3, 0.5)[i % 3], 3000 + i)
        for kind in KINDS:
            res = solve(g, kind)
            assert (res.value, res.witness) == oracles.parent_solve(g, kind), (to_graph6(g), kind)
            for j in range(res.value - 2, res.value + 1):
                assert exists_within(g, kind, j) == oracles.parent_exists_within(g, kind, j)


def test_one_short_filter_drops_only_what_cannot_record(monkeypatch):
    # a node one short records only by one member from each packed set, so
    # a candidate the filter drops, or a node it prunes, must have no such
    # choice covering the uncovered vertices; checked by trying them all.
    # Each packed set lies inside its head's ball, so every such choice
    # covers the heads, and covering the pending ranks is the whole test
    calls = []
    real = domination._Search._one_short

    def spy(self, packed, pending):
        before = list(packed)
        survives = real(self, packed, pending)
        calls.append((self.rank_bit, before, packed if survives else None, pending))
        return survives

    monkeypatch.setattr(domination._Search, "_one_short", spy)
    pruned = dropped = 0
    for i in range(300):
        g = random_connected(8 + i % 7, (0.15, 0.25, 0.4)[i % 3], 5000 + i)
        adj = oracles.adjacency(*oracles.edge_data(g))
        for kind in KINDS:
            ball = {v: adj[v] | ({v} if kind is not TOT else set()) for v in adj}
            calls.clear()
            exists_within(g, kind, solve(g, kind).value - 1)
            for rank_bit, before, after, pending in calls:
                left = {v for v in adj if rank_bit[v] & pending}
                covering = {
                    pick for pick in product(*(list(_bits(b)) for b in before))
                    if left <= set().union(*(ball[c] for c in pick))
                }
                if after is None:
                    pruned += 1
                    assert not covering, (to_graph6(g), kind)
                    continue
                for b, a in zip(before, after):
                    for c in _bits(b & ~a):
                        dropped += 1
                        assert not any(c in pick for pick in covering), (to_graph6(g), kind)
    assert pruned and dropped


# `solve(...).nodes` per kind (domination, total, semitotal) of the search
# before the one-short filter, on DEEP and on seven graphs of order 36..42
# at p = 1.5 ln n / n (None below), keyed by (order, p, seed)
PARENT_NODES = {
    (60, 0.1, 20): (7582, 3498, 7582),
    (36, None, 2000): (65, 36, 65),
    (37, None, 2001): (139, 106, 139),
    (38, None, 2002): (57, 21, 248),
    (39, None, 2003): (619, 172, 619),
    (40, None, 2004): (157, 24, 157),
    (41, None, 2005): (179, 336, 179),
    (42, None, 2006): (398, 235, 398),
}


def test_one_short_filter_visits_no_more_nodes():
    for (n, p, seed), parent in PARENT_NODES.items():
        g = random_connected(n, p or 1.5 * math.log(n) / n, seed)
        for kind, bound in zip(KINDS, parent):
            assert solve(g, kind).nodes <= bound, (n, seed, kind)


def _search_runs(monkeypatch) -> list:
    """Record every call of the search's `run`, one per search."""
    runs = []
    real_run = domination._Search.run

    def run_spy(self, *args):
        runs.append(args)
        return real_run(self, *args)

    monkeypatch.setattr(domination._Search, "run", run_spy)
    return runs


def test_solved_once_searches_each_graph_and_kind_once(monkeypatch):
    runs = _search_runs(monkeypatch)
    g = cycle_graph(9)
    with domination.solved_once():
        first = solve(g, SDS)
        searched = len(runs)
        assert searched > 0
        # equal rows hit, whatever the Graph object
        assert solve(Graph(g.n, g.rows), SDS) is first
        assert len(runs) == searched
        # each kind is stored on its own
        total = solve(g, TOT)
        assert len(runs) > searched
        assert total.kind is TOT and solve(g, TOT) is total
        assert solve(g, SDS) is first


def test_solved_once_leaves_limited_calls_alone(monkeypatch):
    runs = _search_runs(monkeypatch)
    g = random_connected(12, 0.3, 1)
    with domination.solved_once():
        stored = solve(g, SDS)
        with pytest.raises(ScaleLimit):
            solve(g, SDS, budget=0)
        assert solve(g, SDS) is stored
    with domination.solved_once():
        # a limited call neither reads nor writes the memo
        limited = solve(g, SDS, budget=DEFAULT_BUDGET)
        before = len(runs)
        assert solve(g, SDS) == limited
        assert len(runs) > before


def test_solved_once_stores_no_failure(monkeypatch):
    runs = _search_runs(monkeypatch)
    g = cycle_graph(9)  # its search visits 14 nodes
    with domination.solved_once():
        monkeypatch.setenv("SEMITOTAL_BUDGET", "1")
        with pytest.raises(ScaleLimit):
            solve(g, SDS)
        monkeypatch.delenv("SEMITOTAL_BUDGET")
        before = len(runs)
        assert solve(g, SDS).value == oracles.brute_value(g.n, g.edges(), SDS.value)
        assert len(runs) > before
        with pytest.raises(Infeasible):
            solve(disjoint_union([path_graph(2), path_graph(2)]), DOM)


def test_solved_once_keeps_nothing_past_its_block(monkeypatch):
    runs = _search_runs(monkeypatch)
    g = cycle_graph(9)
    with domination.solved_once():
        solve(g, SDS)
    for scope in (domination.solved_once, contextlib.nullcontext):
        before = len(runs)
        with scope():
            solve(g, SDS)
        assert len(runs) > before
    # a nested block starts empty, and the outer one is back after it
    with domination.solved_once():
        outer = solve(g, SDS)
        with domination.solved_once():
            assert solve(g, SDS) is not outer
        assert solve(g, SDS) is outer
