import hashlib
import json
import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal import (
    Graph,
    SatInstance,
    complete_graph,
    components,
    connected_graphs,
    contains_induced,
    contains_subgraph,
    contract_edges,
    cycle_graph,
    disjoint_union,
    from_graph6,
    induced_subgraph,
    is_chordal,
    is_connected,
    iter_connected_graphs,
    parse_edge_list,
    parse_pattern,
    path_graph,
    random_connected,
    reduce_2p3free,
    reduce_chordal,
    star_graph,
    to_graph6,
)
from semitotal import graphs
from semitotal.errors import GenerationFailed, InvalidEdge, ParseError, PatternTooLarge
from semitotal.graphs import (
    MAX_PATTERN_ORDER,
    _bfs_dist,
    _pattern_plan,
    contract_rows,
    embed,
    normalize_edge,
)

import oracles
from conftest import connected_graphs_st


def test_from_edges_and_queries():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(1) == 2 and g.neighbors(1) == (0, 2)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert not g.has_edge(0, 9)


def test_from_edges_rejects_bad_input():
    with pytest.raises(InvalidEdge):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(InvalidEdge):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidEdge):
        Graph.from_edges(-1, [])


def test_normalize_edge():
    assert normalize_edge(5, 2) == (2, 5)
    assert normalize_edge(2, 5) == (2, 5)


def test_distance_and_connectivity():
    p4 = path_graph(4)
    assert _bfs_dist(p4.rows, p4.n, 1 << 0)[3] == 3
    assert _bfs_dist(p4.rows, p4.n, 1 << 0 | 1 << 3) == [0, 1, 1, 0]
    assert is_connected(p4)
    two = disjoint_union([path_graph(2), path_graph(3)])
    assert not is_connected(two)
    assert _bfs_dist(two.rows, two.n, 1 << 0)[2] == math.inf
    assert components(two) == [frozenset({0, 1}), frozenset({2, 3, 4})]


def test_induced_subgraph():
    c5 = cycle_graph(5)
    sub, remap = induced_subgraph(c5, [3, 0, 1])
    assert remap == {0: 0, 1: 1, 3: 2}
    assert sub.edges() == [(0, 1)]
    with pytest.raises(InvalidEdge):
        induced_subgraph(c5, [0, 7])


def test_relabel_preserves_structure():
    g = path_graph(4)
    h = oracles.relabel(g, [3, 2, 1, 0])
    assert h.edges() == [(0, 1), (1, 2), (2, 3)]


def test_contract_single_edge():
    p4 = path_graph(4)
    h, vmap = contract_edges(p4, [(1, 2)])
    assert h.n == 3 and h.edges() == [(0, 1), (1, 2)]
    assert vmap == {0: 0, 1: 1, 2: 1, 3: 2}


def test_contract_triangle_collapses():
    k3 = complete_graph(3)
    h, vmap = contract_edges(k3, [(0, 1), (1, 2), (0, 2)])
    assert h.n == 1 and h.m == 0
    assert vmap == {0: 0, 1: 0, 2: 0}


def test_contract_rejects_non_edges():
    with pytest.raises(InvalidEdge):
        contract_edges(path_graph(4), [(0, 2)])
    with pytest.raises(InvalidEdge):
        contract_edges(path_graph(4), [])


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(min_n=3, max_n=8), st.data())
def test_contract_matches_oracle_quotient(g, data):
    # edges may repeat and come in either orientation
    edges = g.edges()
    either = st.sampled_from(edges).flatmap(lambda e: st.sampled_from((e, e[::-1])))
    chosen = data.draw(st.lists(either, min_size=1, max_size=4))
    h, vmap = contract_edges(g, chosen)
    qn, qe = oracles.contract(g.n, edges, chosen)
    assert h.n == qn and h.m == len(qe)
    # the returned map must reproduce the quotient's edge set exactly
    mapped = {
        normalize_edge(vmap[u], vmap[v]) for u, v in edges if vmap[u] != vmap[v]
    }
    assert mapped == set(h.edges())
    assert set(vmap.values()) == set(range(h.n))


def test_contract_rows_matches_oracle_for_one_edge():
    # a single step: y merges into x and the ids above y move down by one
    for g in iter_connected_graphs(6, min_n=2):
        edges = g.edges()
        for x, y in edges:
            rows = contract_rows(g.rows, x, y)
            assert (len(rows), Graph(len(rows), rows).edges()) == oracles.contract(
                g.n, edges, [(x, y)])


def test_contract_matches_oracle_exhaustively():
    # every connected graph on at most 6 vertices, every set of one or two edges
    for g in iter_connected_graphs(6, min_n=2):
        edges = g.edges()
        for k in (1, 2):
            for chosen in combinations(edges, k):
                h, vmap = contract_edges(g, chosen)
                assert (h.n, h.edges()) == oracles.contract(g.n, edges, chosen)
                assert vmap == oracles.contract_map(g.n, chosen)


def test_generators():
    assert path_graph(1).m == 0
    assert cycle_graph(5).m == 5
    assert complete_graph(4).m == 6
    star = star_graph(5)
    assert star.degree(0) == 4 and all(star.degree(v) == 1 for v in range(1, 5))
    with pytest.raises(InvalidEdge):
        cycle_graph(2)


def test_disjoint_union_offsets():
    g = disjoint_union([complete_graph(3), path_graph(2)])
    assert g.n == 5 and g.m == 4
    assert g.has_edge(3, 4) and not g.has_edge(2, 3)


def test_random_connected_deterministic():
    a = random_connected(8, 0.4, 123)
    b = random_connected(8, 0.4, 123)
    assert a == b and is_connected(a) and a.n == 8
    assert random_connected(8, 0.4, 124) != a
    with pytest.raises(GenerationFailed, match="edge probability"):
        random_connected(5, 0.0, 1)
    with pytest.raises(GenerationFailed, match="after 1000 tries"):
        random_connected(2, 1e-9, 1)


def test_graph6_known_codes():
    # hand-decodable short codes
    assert to_graph6(path_graph(2)) == "A_"
    assert to_graph6(complete_graph(4)) == "C~"
    assert from_graph6("A_") == path_graph(2)
    assert from_graph6("C~") == complete_graph(4)
    assert from_graph6("?").n == 0


def test_graph6_rejects_malformed():
    # each input with the offset its error names
    cases = {
        "": 0,
        "A": 1,  # body too short
        "C~~": 2,  # body too long
        "A!": 1,
        "B" + chr(20): 1,
        "~~??????": 0,  # order above 258047
        "~??": 3,  # truncated size block
        "A`": 1,  # the one edge bit, then a padding bit set
    }
    for bad, offset in cases.items():
        with pytest.raises(ParseError) as err:
            from_graph6(bad)
        assert err.value.offset == offset, bad
    with pytest.raises(ParseError) as err:
        to_graph6(Graph(258048, (0,) * 258048))
    assert err.value.offset is None


@settings(max_examples=120, deadline=None)
@given(connected_graphs_st(min_n=1, max_n=12))
def test_graph6_round_trip_and_oracle_decode(g):
    code = to_graph6(g)
    assert from_graph6(code) == g
    n, edges = oracles.g6_decode(code)
    assert n == g.n and sorted(edges) == g.edges()


def test_graph6_long_form():
    g = path_graph(100)
    code = to_graph6(g)
    assert code.startswith("~") and from_graph6(code) == g


def test_graph6_round_trip_every_order_to_70():
    # orders 0..62 take the one-byte header, 63 and up the "~" block; each
    # order gets an empty, a complete and a random graph of random density
    rng = random.Random(6)
    for n in range(71):
        pairs = list(combinations(range(n), 2))
        density = rng.random()
        for edges in ([], pairs, [e for e in pairs if rng.random() < density]):
            g = Graph.from_edges(n, edges)
            code = to_graph6(g)
            assert from_graph6(code) == g
            if n < 63:
                n_read, read = oracles.g6_decode(code)
                assert n_read == n and sorted(read) == edges
    for seed in range(60):
        n = rng.randrange(2, 71)
        g = random_connected(n, rng.uniform(2 / n, 1), seed)
        assert from_graph6(to_graph6(g)) == g


def test_edge_list_round_trip():
    g = cycle_graph(5)
    text = "\n".join([f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]) + "\n"
    assert parse_edge_list(text) == g


def test_edge_list_rejects_malformed():
    # each input with the offset its error names: only the header has one
    cases = {
        "": 0,
        "3": 0,
        "x y\n": 0,
        "3 1": None,
        "3 1\n0 0": None,
        "3 1\n0 5": None,
        "3 2\n0 1\n0 1": None,
        "3 1\n0 x": None,  # bad edge line
        "3 1\n0 1 2": None,
    }
    for bad, offset in cases.items():
        with pytest.raises(ParseError) as err:
            parse_edge_list(bad)
        assert err.value.offset == offset, bad


def test_patterns_above_the_order_limit_are_refused():
    g = path_graph(20)
    h = path_graph(MAX_PATTERN_ORDER + 1)
    for matcher in (contains_induced, contains_subgraph):
        with pytest.raises(PatternTooLarge):
            matcher(g, h)
    assert contains_induced(g, path_graph(MAX_PATTERN_ORDER)) is not None


def test_contains_induced_hand_cases():
    claw = parse_pattern("claw")
    assert contains_induced(star_graph(4), claw) is not None
    assert contains_induced(cycle_graph(6), claw) is None
    # C4 has P4 as subgraph but not induced
    assert contains_induced(cycle_graph(4), path_graph(4)) is None
    assert contains_subgraph(cycle_graph(4), path_graph(4)) is not None


def test_contains_induced_within_restricts():
    c6 = cycle_graph(6)
    p3 = path_graph(3)
    assert contains_induced(c6, p3, within=[0, 1, 2]) is not None
    assert contains_induced(c6, p3, within=[0, 2, 4]) is None


def test_contains_induced_returns_valid_embedding():
    g = random_connected(7, 0.5, 5)
    h = parse_pattern("P4")
    hit = contains_induced(g, h)
    if hit is not None:
        for a in range(h.n):
            for b in range(a + 1, h.n):
                assert g.has_edge(hit[a], hit[b]) == h.has_edge(a, b)


@settings(max_examples=80, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=7), st.sampled_from(
    ["P4", "claw", "C4", "K3", "2P3", "P5", "C5"]
))
def test_contains_induced_matches_oracle(g, pat):
    h = parse_pattern(pat)
    got = contains_induced(g, h) is not None
    want = oracles.brute_induced(g.n, g.edges(), h.n, h.edges())
    assert got == want


@settings(max_examples=80, deadline=None)
@given(
    connected_graphs_st(min_n=2, max_n=7),
    st.sampled_from(["P3", "P4", "claw", "C4", "K3", "2P3", "P5", "C5", "P3+P2"]),
    st.data(),
)
def test_matchers_within_match_oracle(g, pat, data):
    h = parse_pattern(pat)
    within = data.draw(st.one_of(st.none(), st.sets(st.integers(0, g.n - 1))))
    allowed = set(range(g.n)) if within is None else within
    for find, brute, induced in (
        (contains_induced, oracles.brute_induced, True),
        (contains_subgraph, oracles.brute_subgraph, False),
    ):
        hit = find(g, h, within=within)
        assert (hit is not None) == brute(g.n, g.edges(), h.n, h.edges(), within)
        if hit is not None:
            assert sorted(hit) == list(range(h.n))
            assert len(set(hit.values())) == h.n and set(hit.values()) <= allowed
            for a in range(h.n):
                for b in range(a + 1, h.n):
                    if h.has_edge(a, b) or induced:
                        assert g.has_edge(hit[a], hit[b]) == h.has_edge(a, b)


def test_within_outside_the_graph_is_invalid_edge():
    # unchecked, these returned {0: 5}, raised ValueError and raised IndexError
    for h, within in ((path_graph(1), [5]), (path_graph(1), [-1]), (path_graph(2), [2, 9])):
        for find in (contains_induced, contains_subgraph):
            with pytest.raises(InvalidEdge):
                find(path_graph(3), h, within=within)


# Frozen first matches.  The digest was computed with the backtracking
# matcher that checked the induced condition candidate by candidate, which
# the bitset engine replaced, by running this same loop on that code.
MATCHER_DIGEST = "826e755209b608e88384077898767d18e0605837c38cd8a9d48bbcec48d60501"


def test_first_matches_frozen():
    digest = hashlib.sha256()
    for n in range(1, 8):
        for g in connected_graphs(n):
            for p in ("P4", "claw", "C4", "K3", "2P3", "P5", "C5", "P3+P2", "P4+P2", "P6"):
                h = parse_pattern(p)
                digest.update(json.dumps([
                    to_graph6(g),
                    p,
                    sorted((contains_induced(g, h) or {}).items()),
                    sorted((contains_subgraph(g, h) or {}).items()),
                ]).encode())
    assert digest.hexdigest() == MATCHER_DIGEST


def _every_graph(max_n):
    # a graph or its complement is connected, so this is every graph
    for g in iter_connected_graphs(max_n):
        yield g
        yield oracles.complement(g)


def _unbroken_match(g, h, induced, within):
    """The plan's first match with its symmetry-breaking constraints left
    out: every ordered placement of h is tried."""
    order, checks, reuse = _pattern_plan(h, induced)[:3]
    mask = g.full_mask() if within is None else sum(1 << v for v in within)
    hosts = embed((g.rows,), checks, reuse, ((),) * h.n, (mask,) * h.n)
    return None if hosts is None else dict(sorted(zip(order, hosts)))


def test_broken_plans_find_the_unbroken_first_match():
    patterns = [*_every_graph(5), *map(parse_pattern, ("2P3", "P4+P2", "P6"))]
    rng = random.Random(11)
    for _ in range(48):
        n = rng.randint(6, 16)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        within = sorted(rng.sample(range(n), rng.randint(4, n)))
        for h in patterns:
            for find, induced in ((contains_induced, True), (contains_subgraph, False)):
                for w in (None, within):
                    assert find(g, h, within=w) == _unbroken_match(g, h, induced, w), (
                        to_graph6(g), to_graph6(h), induced, w)


def _plan_hosts(find, g, h, induced, mask):
    plan = _pattern_plan(h, induced)[1:4]
    return find((g.rows,), *plan, (mask,) * h.n)


def test_forward_checking_keeps_the_parent_first_match():
    # hosts above the frozen digest's order 7, where a forward check that
    # dropped a copy would show, held to the matcher before forward checking
    patterns = [parse_pattern(p) for p in (
        "P4", "claw", "C4", "K3", "2P3", "P5", "C5", "P3+P2", "P4+P2", "P6")]
    rng = random.Random(15)
    tried = found = 0
    for n in (8, 12, 16, 20, 28, 40):
        for p in (0.1, 0.25, 0.5, 0.8):
            g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            within = sum(1 << v for v in rng.sample(range(n), rng.randint(6, n)))
            for h in patterns:
                for induced in (True, False):
                    for mask in (g.full_mask(), within):
                        got = _plan_hosts(embed, g, h, induced, mask)
                        assert got == _plan_hosts(oracles.parent_embed, g, h, induced, mask), (
                            to_graph6(g), to_graph6(h), induced, mask)
                        tried += 1
                        found += got is not None
    assert 0 < found < tried  # some scans find a copy, some refute


def test_host_refutations_match_the_parent_matcher():
    # the hosts are free of their patterns by construction; after one added
    # edge, which often plants a copy, both matchers give the same answer
    rng = random.Random(15)
    cases = [
        (reduce_chordal(random_connected(n, 0.5, n), ell).graph, ("P6", "P4+P2"))
        for n, ell in ((5, 3), (6, 4), (8, 3))
    ] + [
        (reduce_2p3free(SatInstance(nv, clauses)).graph, ("2P3",))
        for nv, clauses in ((5, ((0, 1, 2), (2, 3, 4), (0, 3, 4))),
                            (6, ((0, 1, 2), (3, 4, 5), (1, 3, 5))))
    ]
    for g, names in cases:
        non_edges = [e for e in combinations(range(g.n), 2) if not g.has_edge(*e)]
        rng.shuffle(non_edges)
        for h in map(parse_pattern, names):
            assert _plan_hosts(embed, g, h, True, g.full_mask()) is None
            assert _plan_hosts(oracles.parent_embed, g, h, True, g.full_mask()) is None
            planted = 0
            for e in non_edges[:12]:
                g2 = Graph.from_edges(g.n, [*g.edges(), e])
                got = _plan_hosts(embed, g2, h, True, g.full_mask())
                assert got == _plan_hosts(oracles.parent_embed, g2, h, True, g.full_mask()), (
                    to_graph6(g2), to_graph6(h))
                planted += got is not None
            assert planted, (to_graph6(g), to_graph6(h))


def test_plan_orbits_are_the_automorphism_group():
    # orbit-stabiliser: |Aut(h)| is the product of the orbit sizes along the
    # placement order, and each orbit is one step plus the later steps it bounds
    for h in _every_graph(6):
        for induced in (True, False):
            above = _pattern_plan(h, induced)[3]
            product = math.prod(1 + sum(i in later for later in above) for i in range(h.n))
            assert product == oracles.brute_automorphism_count(h), (to_graph6(h), induced)


# Frozen plans, (order, checks, reuse, above) per (pattern, induced) pair.
# The digest was computed with the plan builder that confined its orbit
# search to colour-refinement classes, by running this same loop on that code.
PLAN_DIGEST = "b36069eba07eafcfc80548b5672d0bd1d310de331b7f24644c3c106ea52fe925"
PLAN_PATTERNS = (
    "P2", "P3", "2P2", "P4", "claw", "2P3", "P5", "P3+P2", "P4+P2", "P6",
    "net", "longpaw", "6P2", "4K3", "12K1", "K12", "P3+4P2",
)


def test_plans_frozen():
    digest = hashlib.sha256()
    for h in [*_every_graph(7), *map(parse_pattern, PLAN_PATTERNS)]:
        for induced in (True, False):
            digest.update(json.dumps([to_graph6(h), induced, *_pattern_plan(h, induced)[:4]]).encode())
    assert digest.hexdigest() == PLAN_DIGEST


def _twin_blow_up(rng):
    """A random graph on 2 to 7 vertices with each vertex blown up into a
    block of true or false twins, 12 vertices in all, relabelled at random."""
    k = rng.randint(2, 7)
    base = {e for e in combinations(range(k), 2) if rng.random() < 0.5}
    cuts = sorted(rng.sample(range(1, 12), k - 1))
    block = [b for b, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, 12])) for _ in range(lo, hi)]
    clique = [rng.random() < 0.5 for _ in range(k)]
    label = rng.sample(range(12), 12)
    return Graph.from_edges(12, [
        (label[x], label[y]) for x, y in combinations(range(12), 2)
        if (clique[block[x]] if block[x] == block[y] else (block[x], block[y]) in base)
    ])


def test_dense_pattern_plans_build_quickly():
    # each has blocks of twins.  Searched without the degree classes, the
    # first five, which place such a block first, took 3 s to 42 s apiece,
    # and the forty blow-ups 7.8 s together
    rng = random.Random(29)
    patterns = [random_connected(12, 0.1 + 0.003 * seed, seed) for seed in (253, 265, 270, 275, 277)]
    patterns += [_twin_blow_up(rng) for _ in range(40)]
    started = time.monotonic()
    for h in patterns:
        for induced in (True, False):
            _pattern_plan.__wrapped__(h, induced)
    assert time.monotonic() - started < 5


def _spy_embed(monkeypatch, patterns):
    """Count the matcher's calls of `embed`, with the plans of the given
    (pattern, induced) pairs built first, since building one calls it."""
    for h, induced in patterns:
        _pattern_plan(h, induced)
    calls = []
    monkeypatch.setattr(graphs, "embed", lambda *args: calls.append(args) or embed(*args))
    return calls


def test_degree_screen_refusals_match_the_oracle(monkeypatch):
    # dense hosts against sparse patterns and sparse hosts against dense
    # ones, where the degree or co-degree sequence test fires
    sparse = [parse_pattern(p) for p in ("P3", "P4", "P5", "claw", "2P2", "P3+P2", "3K1")]
    patterns = sparse + [oracles.complement(h) for h in sparse] + [complete_graph(4), cycle_graph(4)]
    rng = random.Random(7)
    hosts = []
    for n in range(4, 8):
        for p in (0.15, 0.3, 0.75, 0.9):
            hosts.append(Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    searched = _spy_embed(monkeypatch, [(h, induced) for h in patterns for induced in (True, False)])
    tried = refused = 0
    for g in hosts:
        within = sorted(rng.sample(range(g.n), rng.randint(3, g.n)))
        for h in patterns:
            for find, brute in ((contains_induced, oracles.brute_induced),
                                (contains_subgraph, oracles.brute_subgraph)):
                for w in (None, within):
                    before = len(searched)
                    hit = find(g, h, within=w)
                    assert (hit is not None) == brute(g.n, g.edges(), h.n, h.edges(), w), (
                        to_graph6(g), to_graph6(h), find.__name__, w)
                    tried += 1
                    # refused by the sequence test, not for want of hosts
                    refused += len(searched) == before and h.n <= len(w or range(g.n))
    assert tried // 4 < refused < tried


def test_degree_screen_refuses_without_searching(monkeypatch):
    cases = [
        (contains_induced, complete_graph(7), path_graph(5), True),  # co-degree
        (contains_subgraph, path_graph(6), star_graph(4), False),  # degree
    ]
    searched = _spy_embed(monkeypatch, [(h, induced) for _, _, h, induced in cases])
    for find, g, h, _ in cases:
        assert find(g, h) is None
    assert searched == []


def test_equal_degree_sequences_still_search(monkeypatch):
    p5, two_p3 = path_graph(5), parse_pattern("2P3")
    c5 = cycle_graph(5)
    wheel = Graph.from_edges(6, [*c5.edges(), *((v, 5) for v in range(5))])
    cases = [(p5, p5, None), (two_p3, two_p3, None), (wheel, c5, range(5))]
    searched = _spy_embed(monkeypatch, [(h, induced) for _, h, _ in cases for induced in (True, False)])
    for g, h, within in cases:
        for find in (contains_induced, contains_subgraph):
            before = len(searched)
            hit = find(g, h, within=within)
            assert len(searched) == before + 1, (to_graph6(g), find.__name__)
            assert hit is not None and sorted(hit.values()) == list(range(h.n))
            assert all(g.has_edge(hit[a], hit[b]) for a, b in h.edges())


def test_degree_screen_narrows_each_domain(monkeypatch):
    # the wheel's hub has co-degree 0, below every vertex of an induced C5,
    # and degree 5, which every vertex of a C5 subgraph may have
    c5 = cycle_graph(5)
    wheel = Graph.from_edges(6, [*c5.edges(), *((v, 5) for v in range(5))])
    searched = _spy_embed(monkeypatch, [(c5, True), (c5, False)])
    assert contains_induced(wheel, c5) == {v: v for v in range(5)}
    assert contains_subgraph(wheel, c5) is not None
    assert [list(args[-1]) for args in searched] == [[0b11111] * 5, [0b111111] * 5]


def test_chordal_hand_cases():
    assert not is_chordal(cycle_graph(4))
    assert is_chordal(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    assert is_chordal(path_graph(6))
    assert not is_chordal(cycle_graph(6))


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(min_n=3, max_n=7))
def test_chordal_matches_induced_cycle_scan(g):
    has_hole = any(
        oracles.brute_induced(g.n, g.edges(), k, cycle_graph(k).edges())
        for k in range(4, g.n + 1)
    )
    assert is_chordal(g) == (not has_hole)
