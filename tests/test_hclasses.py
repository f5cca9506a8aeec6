import contextlib
import math
import random
from itertools import combinations, combinations_with_replacement

import pytest

from semitotal import hclasses
from semitotal import (
    DominationKind,
    HVerdict,
    classify_h,
    complete_graph,
    connected_graphs,
    ct_exact,
    contains_induced,
    cycle_graph,
    disjoint_union,
    ec1_gt2_p3kp2free,
    ec1_gt2_p5free,
    is_h_free,
    iter_connected_graphs,
    min_set_spans_edge,
    parse_pattern,
    path_graph,
    poly_dispatch,
    random_connected,
    sds_size_threshold,
    solve,
    star_graph,
    to_graph6,
)
from semitotal.domination import solved_once
from semitotal.errors import Infeasible, InvalidEdge, PreconditionViolated, ScaleLimit
from semitotal.graphs import Graph
from semitotal.smallgraphs import canonical_form
from semitotal.hclasses import abc_partition, find_A, regular_vertices

import oracles

DOM = DominationKind.DOMINATION
SDS = DominationKind.SEMITOTAL

# pattern text -> (verdict value, reason tag, t, p)
CLASSIFY_FIXTURES = [
    ("claw", "coNP-hard", "Thm-claw", None, None),
    ("C3", "NP-hard", "Thm-girth", None, None),
    ("C4", "NP-hard", "Thm-girth", None, None),
    ("C7", "NP-hard", "Thm-girth", None, None),
    ("net", "NP-hard", "Thm-girth", None, None),
    ("P6", "NP-hard", "Thm-P6/P4+P2", None, None),
    ("2P3", "coNP-hard", "Thm-2P3", None, None),
    ("P4+P2", "NP-hard", "Thm-P6/P4+P2", None, None),
    ("P4+2P2", "NP-hard", "Thm-P6/P4+P2", None, None),
    ("P5", "polynomial-time", "Thm-P5+tK1", 0, None),
    ("P5+3K1", "polynomial-time", "Thm-P5+tK1", 3, None),
    ("P4", "polynomial-time", "Thm-P5+tK1", 0, None),
    ("P3+2P2+K1", "polynomial-time", "Thm-P3+pP2+tK1", 1, 2),
    ("P3", "polynomial-time", "Thm-P3+pP2+tK1", 0, 0),
    ("2P2", "polynomial-time", "Thm-P3+pP2+tK1", 0, 2),
    ("3K1", "polynomial-time", "Thm-P3+pP2+tK1", 3, 0),
]


@pytest.mark.parametrize("text,verdict,reason,t,p", CLASSIFY_FIXTURES)
def test_classify_h(text, verdict, reason, t, p):
    got = classify_h(parse_pattern(text))
    assert got.verdict.value == verdict
    assert got.reason == reason
    assert got.t == t
    assert got.p == p


def test_classify_h_verdict_enum():
    assert classify_h(parse_pattern("P5")).verdict is HVerdict.POLYNOMIAL
    assert classify_h(parse_pattern("claw")).verdict is HVerdict.CONP_HARD
    assert classify_h(parse_pattern("P6")).verdict is HVerdict.NP_HARD


def test_is_h_free():
    assert is_h_free(complete_graph(4), parse_pattern("claw"))
    assert not is_h_free(star_graph(4), parse_pattern("claw"))
    assert is_h_free(parse_pattern("net"), path_graph(5))
    assert not is_h_free(path_graph(6), path_graph(5))


def test_sds_size_threshold_values():
    assert sds_size_threshold(1, 3) == 26
    assert sds_size_threshold(2, 5) == 56
    assert sds_size_threshold(2, 1) == 24
    assert sds_size_threshold(1, 0) == 5


def test_find_A():
    p7 = path_graph(7)
    assert find_A(p7, 1) == frozenset({0, 1, 2})
    assert find_A(p7, 2) == frozenset({0, 1, 2, 4, 5})
    assert find_A(cycle_graph(6), 1) == frozenset({0, 1, 2})
    assert find_A(complete_graph(3), 1) is None
    assert find_A(path_graph(2), 1) is None
    with pytest.raises(PreconditionViolated):
        find_A(p7, 0)


def _find_A_by_matcher(g, k):
    pattern = disjoint_union([path_graph(3)] + [path_graph(2)] * (k - 1))
    for combo in combinations(range(g.n), pattern.n):
        if contains_induced(g, pattern, within=combo) is not None:
            return frozenset(combo)
    return None


def test_find_A_matches_the_matcher_scan():
    # the neighbour count inside each set against an induced-copy search
    # over the same sets in the same order
    rng = random.Random(14)
    graphs = list(iter_connected_graphs(7))
    for n in range(8, 14):
        for p in (0.15, 0.3, 0.45):
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            graphs.append(Graph.from_edges(n, edges))
    for g in graphs:
        for k in (1, 2, 3):
            assert find_A(g, k) == _find_A_by_matcher(g, k), (g.n, g.edges(), k)


def test_find_A_honours_the_budget(monkeypatch):
    # P3+2P2 has 7 vertices: C(12, 7) = 792 candidate sets against a budget
    # of 100, and K12 holds no induced P3, so every set would be tried
    monkeypatch.setenv("SEMITOTAL_BUDGET", "100")
    with pytest.raises(ScaleLimit):
        find_A(complete_graph(12), 3)
    assert find_A(path_graph(7), 1) == frozenset({0, 1, 2})  # C(7, 3) = 35


def test_abc_partition_layers():
    p7 = path_graph(7)
    part = abc_partition(p7, find_A(p7, 2), 2)
    assert part.A == frozenset({0, 1, 2, 4, 5})
    assert part.B == frozenset({3, 6})
    assert part.C == frozenset()
    assert part.R == frozenset()


def test_abc_partition_regular_far_layer():
    # P7 relabelled so the two leaves sit in the far layer, six apart
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 5), (4, 6)])
    part = abc_partition(g, frozenset({0, 1, 2}), 1)
    assert part.B == frozenset({3, 4})
    assert part.C == frozenset({5, 6})
    assert part.R == frozenset({5, 6})


def test_abc_partition_rejects_short_reach():
    p7 = path_graph(7)
    with pytest.raises(PreconditionViolated):
        abc_partition(p7, frozenset({0, 1, 2}), 1)


def test_abc_partition_rejects_far_layer_edge():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    with pytest.raises(PreconditionViolated):
        abc_partition(g, frozenset({0, 1, 2}), 1)


@pytest.mark.parametrize("anchor", [[-1], [7]])
def test_abc_partition_rejects_anchor_outside_graph(anchor):
    # a negative id once raised a bare ValueError from the shift, and an id
    # past the order an IndexError
    with pytest.raises(InvalidEdge):
        abc_partition(path_graph(5), anchor, 1)


def test_regular_vertices_needs_enough_candidates():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 5), (4, 6)])
    assert regular_vertices(g, frozenset({5, 6}), 1) == frozenset({5, 6})
    assert regular_vertices(g, frozenset({5, 6}), 2) == frozenset()


def _regular_reference(g, far, k):
    """regular_vertices from its definition: the far vertices whose
    neighbours are pairwise adjacent, in groups of k + 1 pairwise at
    distance at least 4."""
    adj = oracles.adjacency(*oracles.edge_data(g))
    eligible = [
        v for v in far if all(y in adj[x] for x, y in combinations(adj[v], 2))]
    dist = {v: oracles.bfs_distances(adj, v) for v in eligible}
    return frozenset(
        v
        for group in combinations(eligible, k + 1)
        if all(dist[x].get(y, math.inf) >= 4 for x, y in combinations(group, 2))
        for v in group
    )


def test_regular_vertices_match_their_definition():
    rng = random.Random(43)
    found = 0
    for _ in range(300):
        g = random_connected(rng.randint(4, 12), rng.choice([0.15, 0.3, 0.5]), rng.randrange(2**31))
        far = frozenset(v for v in range(g.n) if rng.random() < 0.6)
        for k in (1, 2):
            expected = _regular_reference(g, far, k)
            assert regular_vertices(g, far, k) == expected, (to_graph6(g), sorted(far), k)
            found += bool(expected)
    assert found > 50


def test_p5free_decider_fixtures():
    net = parse_pattern("net")
    assert ec1_gt2_p5free(net)
    n, edges = oracles.edge_data(net)
    assert oracles.brute_ct(n, edges, "semitotal") == 1
    assert not ec1_gt2_p5free(cycle_graph(4))


def test_p5free_decider_rejects():
    with pytest.raises(PreconditionViolated):
        ec1_gt2_p5free(cycle_graph(6))
    with pytest.raises(PreconditionViolated):
        ec1_gt2_p5free(disjoint_union([path_graph(2), path_graph(2)]))
    with pytest.raises(Infeasible):
        ec1_gt2_p5free(complete_graph(1))


def test_p5free_decider_matches_oracle():
    p5 = path_graph(5)
    for g in iter_connected_graphs(6, min_n=2):
        if not is_h_free(g, p5):
            continue
        n, edges = oracles.edge_data(g)
        assert ec1_gt2_p5free(g) == (oracles.brute_ct(n, edges, "semitotal") == 1)


def test_p3kp2_decider_fixtures():
    assert ec1_gt2_p3kp2free(cycle_graph(6), 1)
    # C6 carries no anchor for k=2, so the decider falls back to k=1
    assert ec1_gt2_p3kp2free(cycle_graph(6), 2)
    assert not ec1_gt2_p3kp2free(cycle_graph(5), 1)


def test_p3kp2_decider_rejects():
    with pytest.raises(PreconditionViolated):
        ec1_gt2_p3kp2free(cycle_graph(6), 0)
    with pytest.raises(PreconditionViolated):
        ec1_gt2_p3kp2free(path_graph(6), 1)
    with pytest.raises(PreconditionViolated):
        ec1_gt2_p3kp2free(disjoint_union([path_graph(2), path_graph(2)]), 1)
    with pytest.raises(Infeasible):
        ec1_gt2_p3kp2free(complete_graph(1), 1)


@pytest.mark.parametrize("scope", [solved_once, contextlib.nullcontext])
def test_deciders_leave_the_value_gate_to_the_search(scope):
    # a disconnected graph fails the deciders' own precondition; the
    # one-vertex graph passes it and `exists_within` rejects it
    two = disjoint_union([path_graph(2), path_graph(2)])
    one = complete_graph(1)
    with scope():
        for _ in range(2):
            with pytest.raises(PreconditionViolated):
                ec1_gt2_p5free(two)
            with pytest.raises(PreconditionViolated):
                ec1_gt2_p3kp2free(two, 1)
            with pytest.raises(Infeasible):
                ec1_gt2_p5free(one)
            with pytest.raises(Infeasible):
                ec1_gt2_p3kp2free(one, 1)


def _thin_spider(m):
    """K_m with one pendant on each clique vertex: a split graph, so
    P3+kP2-free for every k, of semitotal value m."""
    return Graph.from_edges(
        2 * m, [(i, j) for i, j in combinations(range(m), 2)] + [(i, m + i) for i in range(m)])


@pytest.mark.parametrize("m", [27, 30])
def test_p3kp2_decider_threshold_branch(monkeypatch, m):
    # no far-layer vertex is regular (pendants lie at distance 3), and the
    # value m is above sds_size_threshold(1, 3) = 26, so the decider answers
    # from the bound without scanning the minimum sets
    g = _thin_spider(m)
    assert is_h_free(g, parse_pattern("P3+P2")) and solve(g, SDS).value == m
    decisions = []
    real = hclasses.exists_within

    def spy(g, kind, k, **limits):
        decisions.append((k, real(g, kind, k, **limits)))
        return decisions[-1][1]

    def no_scan(g, kind):
        raise AssertionError("the decider scanned the minimum sets")

    monkeypatch.setattr(hclasses, "exists_within", spy)
    monkeypatch.setattr(hclasses, "ct_is_one", no_scan)
    assert ec1_gt2_p3kp2free(g, 1)
    assert decisions == [(2, False), (sds_size_threshold(1, 3), False)] == [(2, False), (26, False)]
    assert ct_exact(g, SDS, 1) is not None


def test_p3kp2_decider_matches_oracle():
    pattern = parse_pattern("P3+P2")
    seen = 0
    for g in iter_connected_graphs(6, min_n=2):
        if not is_h_free(g, pattern):
            continue
        seen += 1
        n, edges = oracles.edge_data(g)
        assert ec1_gt2_p3kp2free(g, 1) == (oracles.brute_ct(n, edges, "semitotal") == 1)
    assert seen == 132


def test_min_ds_edge_scan_fixtures():
    assert min_set_spans_edge(cycle_graph(4), DOM)
    assert min_set_spans_edge(path_graph(4), DOM)
    assert not min_set_spans_edge(cycle_graph(6), DOM)
    assert not min_set_spans_edge(star_graph(3), DOM)


def test_min_ds_edge_scan_matches_domination_oracle():
    # spanning an edge inside some minimum dominating set is exactly the
    # one-contraction condition for plain domination
    for g in iter_connected_graphs(6, min_n=2):
        n, edges = oracles.edge_data(g)
        assert min_set_spans_edge(g, DOM) == (oracles.brute_ct(n, edges, "domination") == 1)


def test_poly_dispatch_routes():
    assert poly_dispatch(cycle_graph(6), parse_pattern("P5+3K1"))
    assert not poly_dispatch(cycle_graph(4), parse_pattern("P5"))
    assert poly_dispatch(cycle_graph(6), parse_pattern("P3+P2"))
    assert not poly_dispatch(star_graph(3), parse_pattern("2P2"))
    # K3 holds an induced P2, which caps the value and forces the bounded route
    assert not poly_dispatch(complete_graph(3), parse_pattern("P2+K1"))


def _tractable_patterns(max_order):
    """Every graph on at most max_order vertices, as disjoint unions of
    connected graphs, and the tractable ones among them."""
    parts = [g for n in range(1, max_order + 1) for g in connected_graphs(n)]
    every = {
        canonical_form(disjoint_union(list(combo)))
        for size in range(1, max_order + 1)
        for combo in combinations_with_replacement(parts, size)
        if sum(g.n for g in combo) <= max_order
    }
    tractable = [h for h in every if classify_h(h).verdict is HVerdict.POLYNOMIAL]
    return every, sorted(tractable, key=to_graph6)


def test_poly_dispatch_matches_the_oracle_on_every_small_pattern():
    every, tractable = _tractable_patterns(5)
    assert (len(every), len(tractable)) == (52, 18)
    dispatches = 0
    for g in iter_connected_graphs(7, min_n=2):
        with solved_once():
            one = ct_exact(g, SDS, 1) is not None
            for h in tractable:
                if is_h_free(g, h):
                    assert poly_dispatch(g, h) == one, (to_graph6(g), to_graph6(h))
                    dispatches += 1
    assert dispatches == 7865


def test_poly_dispatch_runs_each_gate_once(monkeypatch):
    # one scan for the h-free gate and one per stripped isolated vertex; the
    # P5 decider's body runs without its own gate
    scans = []
    real = hclasses.contains_induced
    monkeypatch.setattr(
        hclasses, "contains_induced", lambda g, h: scans.append(h) or real(g, h))
    assert not poly_dispatch(cycle_graph(5), parse_pattern("P5+2K1"))
    assert len(scans) == 3


def test_poly_dispatch_rejects():
    with pytest.raises(PreconditionViolated):
        poly_dispatch(cycle_graph(6), parse_pattern("claw"))
    with pytest.raises(PreconditionViolated):
        poly_dispatch(path_graph(6), parse_pattern("P5"))
    with pytest.raises(PreconditionViolated):
        poly_dispatch(disjoint_union([path_graph(2), path_graph(2)]), parse_pattern("P5"))
