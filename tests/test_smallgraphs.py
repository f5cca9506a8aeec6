import hashlib
import random
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal import Graph, connected_graphs, iter_connected_graphs, to_graph6
from semitotal.graphs import complete_graph, is_connected, path_graph, star_graph
from semitotal.smallgraphs import CONNECTED_COUNTS, canonical_form

from conftest import connected_graphs_st
from oracles import brute_canonical, complement, relabel

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
