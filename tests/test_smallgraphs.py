from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal import connected_graphs, iter_connected_graphs, to_graph6
from semitotal.graphs import is_connected
from semitotal.smallgraphs import CONNECTED_COUNTS, canonical_form

from conftest import connected_graphs_st
from oracles import relabel


def test_connected_counts_match_reference():
    # OEIS A001349 (connected graphs up to isomorphism), offset 1
    for n, want in enumerate(CONNECTED_COUNTS[:6], start=1):
        assert len(connected_graphs(n)) == want


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
