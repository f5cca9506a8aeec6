"""Forbidden-pattern dichotomy for the one-contraction question.

classify_h maps a forbidden pattern to the complexity of deciding whether a
single edge contraction lowers the semitotal domination number of graphs
avoiding it.  The two tractable families come with working deciders:
ec1_gt2_p5free for connected P5-free inputs, and ec1_gt2_p3kp2free for
connected P3+kP2-free inputs, the latter built on distance layers around an
induced P3+(k-1)P2 anchor.  poly_dispatch routes an (h-free graph, tractable
pattern) pair to the decider that applies after stripping isolated pattern
vertices.  Past their shortcuts, every route asks `blocker.ct_is_one`,
whether a minimum set carries the kind's ct = 1 structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .errors import PreconditionViolated
from .graphs import (
    Graph,
    _bfs_dist,
    _bits,
    components,
    contains_induced,
    disjoint_union,
    induced_subgraph,
    is_connected,
    path_graph,
    vertex_mask,
)
from .domination import DominationKind, check_subsets, exists_within
from .blocker import ct_is_one


class HVerdict(Enum):
    POLYNOMIAL = "polynomial-time"
    NP_HARD = "NP-hard"
    CONP_HARD = "coNP-hard"


@dataclass(frozen=True)
class HClassification:
    verdict: HVerdict
    reason: str
    t: int | None = None
    p: int | None = None


def is_h_free(g: Graph, h: Graph) -> bool:
    """True iff g holds no induced copy of h."""
    return contains_induced(g, h) is None


def classify_h(h: Graph) -> HClassification:
    """Complexity of the one-contraction question restricted to h-free graphs.

    The decision tree needs no input validation: a cycle or a degree-3
    vertex is detected before the linear-forest cases apply.  For the two
    tractable shapes the counts of single-vertex (t) and two-vertex (p)
    components are reported alongside the verdict.
    """
    comps = components(h)
    if h.m > h.n - len(comps):
        return HClassification(HVerdict.NP_HARD, "Thm-girth")
    if any(h.degree(v) >= 3 for v in range(h.n)):
        return HClassification(HVerdict.CONP_HARD, "Thm-claw")
    # past this point every component is a path
    sizes = sorted((len(c) for c in comps), reverse=True)
    longest = sizes[0] if sizes else 0
    if longest >= 6:
        return HClassification(HVerdict.NP_HARD, "Thm-P6/P4+P2")
    if longest in (4, 5):
        if len(sizes) > 1 and sizes[1] >= 2:
            return HClassification(HVerdict.NP_HARD, "Thm-P6/P4+P2")
        return HClassification(HVerdict.POLYNOMIAL, "Thm-P5+tK1", t=sizes.count(1))
    if longest == 3 and sizes.count(3) >= 2:
        return HClassification(HVerdict.CONP_HARD, "Thm-2P3")
    return HClassification(
        HVerdict.POLYNOMIAL, "Thm-P3+pP2+tK1", t=sizes.count(1), p=sizes.count(2)
    )


_P5 = path_graph(5)


def ec1_gt2_p5free(g: Graph) -> bool:
    """One contraction lowers the semitotal value of a connected P5-free graph.

    With the value at 2 nothing can decrease, and a value of at least 3 in
    this class always admits a lowering contraction, so asking for a set of
    at most two vertices settles the answer.  No single vertex is semitotal,
    and the bound stops the search at depth two: the test stays polynomial.
    `exists_within` raises Infeasible on fewer than two vertices.
    """
    if not is_connected(g) or not is_h_free(g, _P5):
        raise PreconditionViolated("expects a connected P5-free graph")
    return _ec1_gt2_p5free(g)


def _ec1_gt2_p5free(g: Graph) -> bool:
    """`ec1_gt2_p5free` past its gate."""
    return not exists_within(g, DominationKind.SEMITOTAL, 2)


def _p3_plus(p: int) -> Graph:
    return disjoint_union([path_graph(3)] + [path_graph(2)] * p)


def find_A(g: Graph, k: int) -> frozenset[int] | None:
    """Lexicographically first vertex set inducing a P3 plus k-1 disjoint
    edges.  ScaleLimit when C(n, 2k + 1) exceeds search_budget().

    A set of 2k + 1 vertices induces P3 + (k-1)P2 exactly when one member
    has two neighbours inside the set and every other member has one: the
    centre's two neighbours end there, and the rest pair off into edges.
    So each set is tested by counting, not by the matcher."""
    if k < 1:
        raise PreconditionViolated("k must be at least 1")
    size = 2 * k + 1
    if size > g.n:
        return None
    check_subsets(g.n, size)
    rows = g.rows
    for combo in combinations(range(g.n), size):
        inside = sum(1 << v for v in combo)
        degrees = sorted((rows[v] & inside).bit_count() for v in combo)
        if degrees[0] == 1 and degrees[-2] == 1 and degrees[-1] == 2:
            return frozenset(combo)
    return None


@dataclass(frozen=True)
class ABCPartition:
    """Distance layers around the anchor: adjacent (B), at two (C), regular (R)."""

    A: frozenset[int]
    B: frozenset[int]
    C: frozenset[int]
    R: frozenset[int]


def regular_vertices(g: Graph, far, k: int) -> frozenset[int]:
    """Far-layer vertices in a group of k+1, pairwise at distance >= 4, all
    of whose neighbourhoods are cliques."""
    rows = g.rows
    # N(v) is a clique when each neighbour x sees all of N(v) but itself
    eligible = [
        v for v in sorted(far) if all(rows[v] & ~rows[x] == 1 << x for x in _bits(rows[v]))
    ]
    if len(eligible) < k + 1:
        return frozenset()
    check_subsets(len(eligible), k + 1)
    dist = {v: _bfs_dist(rows, g.n, 1 << v) for v in eligible}
    regular: set[int] = set()
    for group in combinations(eligible, k + 1):
        if all(dist[x][y] >= 4 for x, y in combinations(group, 2)):
            regular.update(group)
    return frozenset(regular)


def abc_partition(g: Graph, anchor, k: int) -> ABCPartition:
    """Layer the graph around an induced P3+(k-1)P2 anchor set.

    In a connected P3+kP2-free graph every vertex sits within distance two
    of the anchor and the far layer is independent; both facts are enforced
    rather than assumed.
    """
    dist = _bfs_dist(g.rows, g.n, vertex_mask(g, anchor))
    if any(d > 2 for d in dist):
        raise PreconditionViolated("anchor does not reach every vertex in two steps")
    a, b, far = (frozenset(v for v in range(g.n) if dist[v] == d) for d in range(3))
    if any(dist[w] == 2 for v in far for w in _bits(g.rows[v])):
        raise PreconditionViolated("far layer is not independent")
    return ABCPartition(a, b, far, regular_vertices(g, far, k))


def sds_size_threshold(k: int, a: int) -> int:
    """Largest semitotal value compatible with a negative answer when no
    far-layer vertex is regular; a is the anchor size."""
    return (k + 1) * (a + 2) + k * (1 + 2 * (k + 1)) + 5 * a - 4


def ec1_gt2_p3kp2free(g: Graph, k: int) -> bool:
    """One contraction lowers the semitotal value of a connected P3+kP2-free
    graph.

    A regular far-layer vertex forces the semitotal and plain domination
    questions to coincide, and `ct_is_one` answers the plain one; otherwise
    a value above sds_size_threshold already guarantees a yes, and below it
    the minimum sets are few enough to scan directly for a friendly triple.
    """
    if k < 1:
        raise PreconditionViolated("k must be at least 1")
    if not is_connected(g) or not is_h_free(g, _p3_plus(k)):
        raise PreconditionViolated("expects a connected P3+kP2-free graph")
    return _ec1_gt2_p3kp2free(g, k)


def _ec1_gt2_p3kp2free(g: Graph, k: int) -> bool:
    """`ec1_gt2_p3kp2free` past its gate."""
    # value 2 is the floor; no contraction can help.  exists_within raises
    # Infeasible on fewer than two vertices.
    if exists_within(g, DominationKind.SEMITOTAL, 2):
        return False
    # some k >= 1 finds an anchor: a connected graph with no induced P3 is
    # complete, so its value is at most 2 and it has returned above
    anchor = find_A(g, k)
    while anchor is None:
        k -= 1
        anchor = find_A(g, k)
    if abc_partition(g, anchor, k).R:
        return ct_is_one(g, DominationKind.DOMINATION)
    bound = sds_size_threshold(k, len(anchor))
    if not exists_within(g, DominationKind.SEMITOTAL, bound):
        return True
    return ct_is_one(g, DominationKind.SEMITOTAL)


def poly_dispatch(g: Graph, h: Graph) -> bool:
    """Decide the one-contraction question for an h-free graph with h in a
    tractable family.

    The gates (a tractable h, an h-free g, a connected g) run once, on the
    pattern as given.  Then isolated pattern vertices are stripped one at a
    time: either g avoids the trimmed pattern too and stripping goes on, or
    g holds a copy whose vertex set must dominate g, capping the semitotal
    value at twice the copy's order, so the minimum sets `ct_is_one` scans
    stay small.  A pattern left with no isolated vertex is a bare path
    pattern, and goes to the matching decider's body: its gate would only
    repeat the connectivity test and a pattern scan that g passes.
    """
    if classify_h(h).verdict is not HVerdict.POLYNOMIAL:
        raise PreconditionViolated("pattern is outside the tractable families")
    if not is_h_free(g, h):
        raise PreconditionViolated("input graph is not h-free")
    if not is_connected(g):
        raise PreconditionViolated("expects a connected graph")
    while isolated := [v for v in range(h.n) if h.degree(v) == 0]:
        h, _ = induced_subgraph(h, [v for v in range(h.n) if v != isolated[-1]])
        if not is_h_free(g, h):
            # g holds an induced copy X of the trimmed pattern.  A vertex
            # outside N[X] would complete an induced copy of the pattern
            # before this strip, so X dominates g and the value is at most
            # 2|X|: the scan of the minimum sets stays bounded.
            return ct_is_one(g, DominationKind.SEMITOTAL)
    # g avoids h, and h is an induced subgraph of the decider's pattern, so
    # g avoids that too: P4-free implies P5-free, P3-free implies
    # P3+P2-free, and qP2-free implies P3+(q-1)P2-free (P3+P2-free for q = 1)
    sizes = sorted((len(c) for c in components(h)), reverse=True)
    if sizes[0] >= 4:
        return _ec1_gt2_p5free(g)
    if sizes[0] == 3:
        return _ec1_gt2_p3kp2free(g, max(sizes.count(2), 1))
    return _ec1_gt2_p3kp2free(g, max(len(sizes) - 1, 1))
