import os
import sys

from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from semitotal import random_connected


@st.composite
def connected_graphs_st(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from([0.2, 0.35, 0.5, 0.7]))
    seed = draw(st.integers(0, 2**20))
    return random_connected(n, p, seed)
