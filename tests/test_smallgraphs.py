import hashlib
import random
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal import Graph, connected_graphs, iter_connected_graphs, smallgraphs, to_graph6
from semitotal.graphs import complete_graph, cycle_graph, is_connected, path_graph, star_graph
from semitotal.smallgraphs import CONNECTED_COUNTS, _twins, canonical_form

from conftest import connected_graphs_st
from oracles import (
    brute_canonical, complement, parent_canonical_form, parent_connected_graphs, relabel,
)

# sha256 over the graph6 codes of connected_graphs(1..8) in order, each
# followed by a newline.  Computed with the enumeration that deduplicated
# candidates by pairwise isomorphism tests, which canonical deletion
# replaced, by running this same loop on that code.
ENUMERATION_DIGEST = "07bf84386ecbb9879bbbd860749b529665ccae29eed0c5a218b8ecff75e53183"


def test_connected_counts_match_reference():
    # OEIS A001349 (connected graphs up to isomorphism), offset 1
    for n, want in enumerate(CONNECTED_COUNTS, start=1):
        assert len(connected_graphs(n)) == want


def test_enumeration_frozen():
    digest = hashlib.sha256()
    for g in iter_connected_graphs(8):
        digest.update(to_graph6(g).encode() + b"\n")
    assert digest.hexdigest() == ENUMERATION_DIGEST


def test_enumeration_matches_the_parent_loop():
    # same representatives, same labels, same order as trying every mask
    for n in range(1, 8):
        assert connected_graphs(n) == parent_connected_graphs(n), n


def test_twin_orbits_cut_the_order_7_canonical_forms(monkeypatch):
    for n in range(1, 7):
        connected_graphs(n)
    calls = []
    real = smallgraphs.canonical_form
    monkeypatch.setattr(smallgraphs, "canonical_form", lambda g: calls.append(g) or real(g))
    got = connected_graphs.__wrapped__(7)  # leaves the cached orders alone
    assert len(calls) == 1177  # every mask of every parent: 1480
    assert got == connected_graphs(7)


def _classes(g):
    return sorted(set(_twins(g.rows)))


def test_twins_hand_cases():
    for n in range(1, 6):
        assert _twins(complete_graph(n).rows) == ((1 << n) - 1,) * n
    assert _classes(star_graph(5)) == [0b00001, 0b11110]
    k23 = Graph.from_edges(5, [(i, j) for i in range(2) for j in range(2, 5)])
    assert _classes(k23) == [0b00011, 0b11100]
    assert _classes(cycle_graph(4)) == [0b0101, 0b1010]
    assert _classes(path_graph(4)) == [0b0001, 0b0010, 0b0100, 0b1000]
    # 0, 1 true twins (adjacent, same closed neighbourhood), 3, 4 false
    # twins (non-adjacent, same open neighbourhood), 2 alone
    mixed = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4)])
    assert _twins(mixed.rows) == (0b00011, 0b00011, 0b00100, 0b11000, 0b11000)


def test_twins_match_the_definition_and_are_automorphisms():
    for g in iter_connected_graphs(6):
        for h in (g, complement(g)):
            rows = h.rows
            twins = _twins(rows)
            for v in range(h.n):
                want = sum(1 << u for u in range(h.n)
                           if rows[u] & ~(1 << v) == rows[v] & ~(1 << u))
                assert twins[v] == want
                for u in range(v):
                    if twins[v] >> u & 1:
                        perm = list(range(h.n))
                        perm[u], perm[v] = v, u
                        assert relabel(h, perm) == h


def test_all_listed_graphs_are_connected_and_canonical():
    for g in iter_connected_graphs(6):
        assert is_connected(g)
        assert canonical_form(g) == g


def test_enumeration_order_is_stable():
    codes = [to_graph6(g) for g in connected_graphs(5)]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


def test_pairwise_non_isomorphic_small():
    # canonical forms are unique representatives, so no two order-5 graphs
    # may share one even after relabelling
    seen = set()
    for g in connected_graphs(5):
        for perm in permutations(range(g.n)):
            relab = relabel(g, list(perm))
            assert canonical_form(relab) == g
        seen.add(to_graph6(g))
    assert len(seen) == CONNECTED_COUNTS[4]


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=7), st.data())
def test_canonical_form_is_relabelling_invariant(g, data):
    perm = data.draw(st.permutations(list(range(g.n))))
    assert canonical_form(relabel(g, list(perm))) == canonical_form(g)


def test_iter_range_bounds():
    got = list(iter_connected_graphs(4, min_n=3))
    assert len(got) == CONNECTED_COUNTS[2] + CONNECTED_COUNTS[3]
    assert all(3 <= g.n <= 4 for g in got)


def _shuffled(g, rng):
    return relabel(g, rng.sample(range(g.n), g.n))


def test_canonical_form_matches_brute_force_up_to_order_6():
    # a graph or its complement is connected, so this is every graph
    rng = random.Random(6)
    for g in iter_connected_graphs(6):
        for h in (g, complement(g)):
            h = _shuffled(h, rng)
            assert canonical_form(h) == brute_canonical(h)


def test_canonical_form_matches_brute_force_on_twins():
    # twins are the vertices the labeller skips, so these are its widest ties
    rng = random.Random(7)
    for n in range(1, 8):
        family = [
            complete_graph(n),
            Graph(n, (0,) * n),
            star_graph(n),
            complement(path_graph(n)),
            *(Graph.from_edges(n, [(i, j) for i in range(a) for j in range(a, n)])
              for a in range(1, n // 2 + 1)),
        ]
        for g in family:
            g = _shuffled(g, rng)
            assert canonical_form(g) == brute_canonical(g)


@st.composite
def _graphs_st(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=60, deadline=None)
@given(_graphs_st())
def test_canonical_form_matches_brute_force_on_random_graphs(g):
    assert canonical_form(g) == brute_canonical(g)


def test_labeller_matches_the_parent_labeller():
    # the cells change how the least codes are found, not the search tree,
    # so the labelling is the dict-based labeller's on every input; random
    # trees leave wide ties that the twin skip does not cut
    rng = random.Random(20)
    graphs = [_shuffled(g, rng) for g in iter_connected_graphs(7)]
    for _ in range(200):
        n = rng.randint(9, 12)
        tree = Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])
        graphs.append(_shuffled(tree, rng))
    for g in graphs:
        assert canonical_form(g) == parent_canonical_form(g), to_graph6(g)


@settings(max_examples=60, deadline=None)
@given(_graphs_st(max_n=10))
def test_labeller_matches_the_parent_labeller_on_drawn_graphs(g):
    assert canonical_form(g) == parent_canonical_form(g)
