"""Exhaustive enumeration of small connected graphs up to isomorphism.

Graphs on n vertices are built by attaching a new vertex (every nonempty
neighbourhood) to each connected graph on n-1 vertices.  A candidate is
kept only if no old vertex v with C - v connected beats the new vertex on
f(v) = (degree, sum of the neighbours' degrees); the survivors are
canonically labelled and deduplicated.  Every class arises: it has a
non-cut vertex of maximal f, deleting it leaves a connected
representative, and one of that representative's masks puts the new
vertex in its place, a candidate the filter keeps (canonical deletion,
McKay 1998, with f as the vertex invariant).  The filter only rejects and
the canonical form is a complete invariant, so each class appears once.
The filter counts degrees once per candidate and sums neighbour degrees
only for the new vertex and for the old vertices that tie its degree.

The canonical form is the lex-min graph6 labelling, found by a
depth-first search that places one vertex per level.  Its unplaced
vertices are kept as cells of equal code sorted by code, an ordered
partition refined by each placed vertex (McKay and Piperno 2014), so the
least-coded vertices, the only ones a level branches on, are always the
first cell.

Masks that a twin swap of the parent maps onto each other give isomorphic
candidates, so each parent tries one mask per twin orbit: the one that
meets every twin class in its lowest vertices.  A skipped mask's candidate
is the kept one's image under a permutation of twin classes that fixes
the new vertex; the filter reads only degrees and connectivity, so it
keeps both or neither, and the set of representatives is unchanged.
Representatives are sorted by graph6 so enumeration order is reproducible.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _bits, _reach, to_graph6

# connected graphs up to isomorphism on 1..8 vertices
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


def _twins(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Per vertex, the mask of its twin class, itself included.

    u and v are twins when N(u) - v = N(v) - u: true twins (adjacent, same
    closed neighbourhood) or false twins (non-adjacent, same open one).  No
    vertex v has both a true twin u and a false twin w: u is in N(v) = N(w),
    so w is in N[u] = N[v], adjacent to v.  So the two groupings together
    partition the vertices, and any permutation of one class is an
    automorphism of the graph.
    """
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, r in enumerate(rows):
        by_open[r] = by_open.get(r, 0) | 1 << v
        by_closed[r | 1 << v] = by_closed.get(r | 1 << v, 0) | 1 << v
    return tuple(by_open[r] | by_closed[r | 1 << v] for v, r in enumerate(rows))


def canonical_form(g: Graph) -> Graph:
    """Relabel g to minimise its graph6 bitstring over all permutations.

    Column pos of the bitstring is the adjacency of the vertex placed at pos
    to those placed before it, kept for each unplaced vertex as one int,
    first placed vertex in the highest bit.  The unplaced vertices are kept
    as cells (mask, code) of equal code, sorted by code: placing v splits
    each cell into its non-neighbours of v (code << 1) and then its
    neighbours (code << 1 | 1), which keeps the order, so the first cell
    holds the least-coded vertices, the only ones that can start the least
    completion (an ordered partition, as in nauty: McKay and Piperno 2014).
    They are tried in ascending id; a twin of one already tried is skipped:
    swapping two twins is an automorphism that fixes the placed prefix, so
    its subtree gives the same codes.
    """
    n, rows = g.n, g.rows
    if n <= 1:
        return g
    best: list[int] = []  # the least code sequence found, and its labelling
    best_perm: list[int] = []
    twins = _twins(rows)
    offs = [~(r | 1 << v) for v, r in enumerate(rows)]  # v's non-neighbours, v excluded
    codes = [0] * n  # the placed prefix, position by position
    perm = [0] * n

    # tight: the codes so far equal best's prefix (False: strictly smaller,
    # or no best yet).  Returns True when best was replaced in the subtree,
    # which leaves the caller's prefix equal to the new best's.
    def dfs(cells: list[tuple[int, int]], pos: int, tight: bool) -> bool:
        if not cells:
            if tight:
                return False
            best[:], best_perm[:] = codes, perm
            return True
        first, low = cells[0]
        if tight:
            ref = best[pos]
            if low > ref:
                return False
            tight = low == ref
        codes[pos] = low
        replaced = False
        tried = 0
        for v in _bits(first):
            if twins[v] & tried:
                continue
            tried |= 1 << v
            perm[pos] = v
            row, off = rows[v], offs[v]
            split = []
            for mask, code in cells:
                if part := mask & off:
                    split.append((part, code << 1))
                if part := mask & row:
                    split.append((part, code << 1 | 1))
            if dfs(split, pos + 1, tight):
                tight = replaced = True
        return replaced

    dfs([((1 << n) - 1, 0)], 0, False)
    place = [0] * n  # per vertex, the bit of its new label
    for i, v in enumerate(best_perm):
        place[v] = 1 << i
    return Graph(n, tuple(sum(place[w] for w in _bits(rows[v])) for v in best_perm))


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class.

    Returned canonically labelled and sorted by graph6 string, so indices
    are stable across runs.  Each parent tries only the attachment masks
    whose meet with every twin class of the parent is that class's lowest
    vertices: one mask per orbit under twin swaps, which fix the new vertex
    and so carry the canonical-deletion verdict and the isomorphism class
    over to every other mask of the orbit.
    """
    if n < 1:
        return ()
    if n == 1:
        return (Graph(1, (0,)),)
    new, full = n - 1, (1 << n) - 1
    reps: set[Graph] = set()
    for g in connected_graphs(n - 1):
        masks = [0]
        for cls in set(_twins(g.rows)):
            prefixes = [0]
            for v in _bits(cls):
                prefixes.append(prefixes[-1] | 1 << v)
            masks = [m | p for m in masks for p in prefixes]
        for mask in masks[1:]:  # masks[0] is the empty mask
            rows = tuple(r | (mask >> v & 1) << new for v, r in enumerate(g.rows)) + (mask,)
            deg = [r.bit_count() for r in rows]
            d, d_sum = deg[new], sum(deg[w] for w in _bits(mask))
            if not any(
                (deg[v] > d or deg[v] == d and sum(deg[w] for w in _bits(rows[v])) > d_sum)
                and _reach([r & ~(1 << v) for r in rows], 1 << new) == full ^ 1 << v
                for v in range(new)
            ):
                reps.add(canonical_form(Graph(n, rows)))
    return tuple(sorted(reps, key=to_graph6))


def iter_connected_graphs(max_n: int, min_n: int = 1):
    """Yield connected graphs with min_n <= |V| <= max_n in stable order."""
    for n in range(min_n, max_n + 1):
        yield from connected_graphs(n)
