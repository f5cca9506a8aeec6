"""Exhaustive enumeration of small connected graphs up to isomorphism.

Graphs on n vertices are built by attaching a new vertex (every nonempty
neighbourhood) to each connected graph on n-1 vertices, deduplicating by an
invariant bucket plus explicit isomorphism tests.  Representatives are
canonically relabelled so that enumeration order is reproducible.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _bits, contains_induced, to_graph6

# connected graphs up to isomorphism on 1..8 vertices
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


def _invariant(g: Graph) -> tuple:
    degs = [g.degree(v) for v in range(g.n)]
    tri = [
        sum((g.rows[v] & g.rows[w]).bit_count() for w in _bits(g.rows[v])) // 2
        for v in range(g.n)
    ]
    profile = sorted(
        (degs[v], tri[v], tuple(sorted(degs[w] for w in _bits(g.rows[v]))))
        for v in range(g.n)
    )
    return (g.n, g.m, tuple(profile))


def canonical_form(g: Graph) -> Graph:
    """Relabel g to minimise its graph6 bitstring over all permutations."""
    n = g.n
    if n <= 1:
        return g
    best_chunks: list[tuple[int, ...]] | None = None
    best_perm: list[int] | None = None
    placed: list[int] = []

    # cmp: 0 = prefix equals the current best, -1 = strictly smaller.
    # Returns True when the best code was replaced inside this subtree, so
    # callers can reset their comparison state to "equal prefix".
    def dfs(pos: int, used: int, chunks: list[tuple[int, ...]], cmp: int) -> bool:
        nonlocal best_chunks, best_perm
        if pos == n:
            if cmp < 0 or best_chunks is None:
                best_chunks = list(chunks)
                best_perm = list(placed)
                return True
            return False
        updated = False
        for old in range(n):
            if used >> old & 1:
                continue
            chunk = tuple(g.rows[placed[i]] >> old & 1 for i in range(pos))
            if best_chunks is None or cmp < 0:
                step_cmp = -1
            else:
                ref = best_chunks[pos]
                if chunk > ref:
                    continue
                step_cmp = -1 if chunk < ref else 0
            placed.append(old)
            chunks.append(chunk)
            if dfs(pos + 1, used | 1 << old, chunks, step_cmp):
                updated = True
                cmp = 0
            chunks.pop()
            placed.pop()
        return updated

    dfs(0, 0, [], 0)
    perm = {old: new for new, old in enumerate(best_perm)}
    rows = [0] * n
    for u, v in g.edges():
        rows[perm[u]] |= 1 << perm[v]
        rows[perm[v]] |= 1 << perm[u]
    return Graph(n, tuple(rows))


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class.

    Returned canonically labelled and sorted by graph6 string, so indices
    are stable across runs.
    """
    if n < 1:
        return ()
    if n == 1:
        return (Graph(1, (0,)),)
    buckets: dict[tuple, list[Graph]] = {}
    for g in connected_graphs(n - 1):
        for mask in range(1, 1 << (n - 1)):
            cand = Graph(n, tuple(r | ((mask >> v & 1) << (n - 1)) for v, r in enumerate(g.rows)) + (mask,))
            key = _invariant(cand)  # holds n and m, so a copy is an isomorphism
            bucket = buckets.setdefault(key, [])
            if not any(contains_induced(rep, cand) is not None for rep in bucket):
                bucket.append(cand)
    reps = [canonical_form(g) for bucket in buckets.values() for g in bucket]
    reps.sort(key=to_graph6)
    return tuple(reps)


def iter_connected_graphs(max_n: int, min_n: int = 1):
    """Yield connected graphs with min_n <= |V| <= max_n in stable order."""
    for n in range(min_n, max_n + 1):
        yield from connected_graphs(n)
