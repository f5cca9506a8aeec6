"""Slow reference implementations used to pin expected values.

Everything here is written against plain (order, edge list) data and
rebuilds its own adjacency dicts, deliberately sharing no code with the
bitmask solvers under test; `relabel` and `complement` build a Graph
only to feed inputs to the code under test, and `brute_canonical` returns
one only so its answer compares with the labeller's.  There are four
exceptions, each a copy of an engine as it was before a change that must
not alter its answers.  `ParentSearch` is the branch-and-bound walk before
the last-member step, the reach packing and the explicit stack: it reuses
the search's set-up and replaces `run` with the recursive walk and
`_record` with one that ends a decision by raising, so that the tests can
hold the new walk and bounds to the old ones, record by record.
`parent_embed` is the matcher before forward checking, which filtered
only the current step's domain; it takes the same plans as
`graphs.embed`, so the tests can hold the two to the same first match.
`parent_connected_graphs` is the enumeration before
twin-orbit pruning, which tried every attachment mask of every parent.
`parent_canonical_form` is the labeller before it kept the unplaced
vertices as sorted cells of equal code: it rebuilds a {vertex: code} dict
for every child and takes the least code with `min`.
"""

from itertools import combinations, permutations

from semitotal import Graph
from semitotal.domination import _Search, search_budget
from semitotal.errors import ScaleLimit
from semitotal.graphs import _bits, _reach, to_graph6
from semitotal.smallgraphs import _twins, canonical_form, connected_graphs


def edge_data(g):
    return g.n, g.edges()


def adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_distances(adj, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def relabel(g, perm):
    """g with each vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def complement(g):
    """g with its edges and non-edges swapped."""
    n, edges = edge_data(g)
    present = set(edges)
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if e not in present])


def brute_automorphism_count(g):
    """How many permutations of g's vertices map its edge set onto itself."""
    n, edges = edge_data(g)
    present = {frozenset(e) for e in edges}
    return sum(
        all(frozenset((perm[u], perm[v])) in present for u, v in edges)
        for perm in permutations(range(n))
    )


def brute_canonical(g):
    """g relabelled to the least graph6 bitstring over every permutation."""
    n, edges = edge_data(g)
    adj = adjacency(n, edges)

    def bits(order):  # order[new] = old
        return tuple(order[i] in adj[order[j]] for j in range(1, n) for i in range(j))

    best = min(permutations(range(n)), key=bits)
    return relabel(g, [best.index(v) for v in range(n)])


def is_tree(g):
    n, edges = edge_data(g)
    return len(edges) == n - 1 and len(bfs_distances(adjacency(n, edges), 0)) == n


def ok_dominating(adj, d):
    return all(v in d or adj[v] & d for v in adj)


def ok_total(adj, d):
    return ok_dominating(adj, d) and all(adj[v] & d for v in d)


def ok_semitotal(adj, d):
    if not ok_dominating(adj, d):
        return False
    for v in d:
        ball = set(adj[v])
        for u in adj[v]:
            ball |= adj[u]
        if not (ball & d) - {v}:
            return False
    return True


CHECKS = {
    "domination": ok_dominating,
    "total": ok_total,
    "semitotal": ok_semitotal,
}


def brute_value(n, edges, kind):
    """Smallest feasible size by raw subset enumeration, None if none."""
    adj = adjacency(n, edges)
    check = CHECKS[kind]
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            if check(adj, set(combo)):
                return size
    return None


def brute_min_sets(n, edges, kind):
    adj = adjacency(n, edges)
    check = CHECKS[kind]
    for size in range(1, n + 1):
        found = [
            frozenset(c) for c in combinations(range(n), size) if check(adj, set(c))
        ]
        if found:
            return found
    return []


def contract_map(n, chosen):
    """Old id -> new id of the quotient by the classes the chosen edges
    connect: each class takes the rank of its smallest member."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in chosen:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    roots = sorted({find(v) for v in range(n)})
    index = {r: i for i, r in enumerate(roots)}
    return {v: index[find(v)] for v in range(n)}


def contract(n, edges, chosen):
    """Quotient by the classes the chosen edges connect, smallest-member
    relabelling, parallel edges and loops dropped."""
    vmap = contract_map(n, chosen)
    quotient = set()
    for u, v in edges:
        a, b = vmap[u], vmap[v]
        if a != b:
            quotient.add((min(a, b), max(a, b)))
    return len(set(vmap.values())), sorted(quotient)


def brute_ct(n, edges, kind, kmax=3):
    """Fewest contracted edges strictly lowering the value, None if no
    subset of size <= kmax works (covers the floor cases naturally)."""
    base = brute_value(n, edges, kind)
    for k in range(1, kmax + 1):
        for subset in combinations(edges, k):
            qn, qe = contract(n, edges, subset)
            after = brute_value(qn, qe, kind)
            if after is not None and after < base:
                return k
    return None


def _injections(gn, hn, within):
    pool = range(gn) if within is None else sorted(set(within))
    for combo in combinations(pool, hn):
        yield from permutations(combo)


def brute_induced(gn, gedges, hn, hedges, within=None):
    """Induced-subgraph test by trying every injection (into within, if given)."""
    gset = {frozenset(e) for e in gedges}
    hset = {frozenset(e) for e in hedges}
    for perm in _injections(gn, hn, within):
        if all(
            (frozenset((perm[a], perm[b])) in gset)
            == (frozenset((a, b)) in hset)
            for a in range(hn)
            for b in range(a + 1, hn)
        ):
            return True
    return False


def brute_subgraph(gn, gedges, hn, hedges, within=None):
    """Subgraph test: some injection (into within, if given) keeps every edge."""
    gset = {frozenset(e) for e in gedges}
    for perm in _injections(gn, hn, within):
        if all(frozenset((perm[a], perm[b])) in gset for a, b in hedges):
            return True
    return False


def g6_decode(text):
    """Minimal graph6 reader for orders below 63."""
    data = [ord(c) - 63 for c in text.strip()]
    if not data or not 0 <= data[0] < 63:
        raise ValueError("oracle decoder only handles short form")
    n = data[0]
    bits = []
    for val in data[1:]:
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return n, edges


class _Found(Exception):
    pass


class ParentSearch(_Search):
    """The walk before the last-member step: every child is a call, and
    every node runs the packing bound, whatever room it has left.  It keeps
    the free-aware packing walk, the reference the later bounds are held
    to: every uncovered vertex in rank order, packed when its free
    candidates miss those of the vertices packed before it.  A decision
    stops at its first record by raising `_Found` out of the recursion."""

    def _record(self, dmask, size):
        if size < self.best:
            self.best = size
            self.best_mask = dmask
            if self.stop_at is not None:
                raise _Found

    def run(self, dmask, cover, banned, size):
        self.nodes += 1
        if self.nodes > self.budget:
            raise ScaleLimit(f"search exceeded {self.budget} nodes")
        uncovered = self.all & ~cover
        if uncovered:
            limit = self.best - size
            if limit <= 1:
                return
            # greedy packing: uncovered vertices whose candidate sets are
            # pairwise disjoint each need their own member
            ball_by_rank = self.ball_by_rank
            free = ~banned
            used = cnt = 0
            rest = uncovered
            while rest:
                low = rest & -rest
                b = ball_by_rank[low.bit_length() - 1] & free
                if not b:
                    return  # some vertex can no longer be dominated
                if not b & used:
                    cnt += 1
                    if cnt >= limit:
                        return
                    used |= b
                rest ^= low
            cands = ball_by_rank[(uncovered & -uncovered).bit_length() - 1] & free
        elif self.semitotal:
            for v in _bits(dmask):
                near = self.near[v] or self._near(v)
                if not near & dmask:
                    break
            else:
                self._record(dmask, size)
                return
            if size + 1 >= self.best:
                return
            cands = near & ~dmask & ~banned
        else:
            self._record(dmask, size)
            return
        covers = self.covers
        size += 1
        while cands:
            low = cands & -cands
            c = low.bit_length() - 1
            self.run(dmask | low, cover | (covers[c] or self._covers(c)), banned, size)
            banned |= low
            cands ^= low


def parent_solve(g, kind):
    """(value, witness) from `ParentSearch`, seeded as `solve` seeds it."""
    search = ParentSearch(g, kind, search_budget(), stop_at=None)
    search.greedy()
    search.run(0, 0, 0, 0)
    return search.best, frozenset(_bits(search.best_mask))


def parent_exists_within(g, kind, k):
    """`exists_within` on `ParentSearch`."""
    if k <= 0:
        return False
    search = ParentSearch(g, kind, search_budget(), stop_at=k)
    try:
        search.run(0, 0, 0, 0)
    except _Found:
        return True
    return search.best <= k


def parent_embed(tables, checks, reuse, above, domains):
    """`graphs.embed` before forward checking: each step ANDs its own
    checks into its candidate mask, and no step looks ahead."""
    last = len(checks)
    hosts = [0] * last

    def extend(i: int, used: int) -> bool:
        if i == last:
            return True
        dom = domains[i]
        cand = dom & ~used
        for j in reuse[i]:
            cand |= dom & 1 << hosts[j]
        for j, table, want in checks[i]:
            row = tables[table][hosts[j]]
            cand &= row if want else ~row
        for j in above[i]:
            cand &= -2 << hosts[j]  # only ids above the host of step j
        while cand:
            low = cand & -cand
            hosts[i] = low.bit_length() - 1
            if extend(i + 1, used | low):
                return True
            cand ^= low
        return False

    return tuple(hosts) if extend(0, 0) else None


def parent_connected_graphs(n):
    """`connected_graphs(n)` trying all 2^(n-1) - 1 masks of each parent.
    The parents are the package's order n - 1 list, so a test that holds
    the two equal order by order, from order 2 up, checks each order from
    parents the parent loop would have made."""
    if n < 1:
        return ()
    if n == 1:
        return (Graph(1, (0,)),)
    new, full = n - 1, (1 << n) - 1
    reps = set()
    for g in connected_graphs(n - 1):
        for mask in range(1, 1 << new):
            rows = tuple(r | (mask >> v & 1) << new for v, r in enumerate(g.rows)) + (mask,)
            f = [(r.bit_count(), sum(rows[w].bit_count() for w in _bits(r))) for r in rows]
            if not any(
                f[v] > f[new] and _reach([r & ~(1 << v) for r in rows], 1 << new) == full ^ 1 << v
                for v in range(new)
            ):
                reps.add(canonical_form(Graph(n, rows)))
    return tuple(sorted(reps, key=to_graph6))


def parent_canonical_form(g: Graph) -> Graph:
    """Relabel g to minimise its graph6 bitstring over all permutations.

    Column pos of the bitstring is the adjacency of the vertex placed at pos
    to those placed before it, kept for each unplaced vertex as one int,
    first placed vertex in the highest bit.  Only the vertices whose code is
    the level's minimum can start the least completion.  Of those, a twin of
    one already tried is skipped: swapping two twins is an automorphism that
    fixes the placed prefix, so its subtree gives the same codes.
    """
    n, rows = g.n, g.rows
    if n <= 1:
        return g
    best: list[int] = []  # the least code sequence found, and its labelling
    best_perm: list[int] = []
    twins = _twins(rows)
    codes: list[int] = []
    perm: list[int] = []

    # tight: the codes so far equal best's prefix (False: strictly smaller,
    # or no best yet).  Returns True when best was replaced in the subtree,
    # which leaves the caller's prefix equal to the new best's.
    def dfs(free: dict[int, int], tight: bool) -> bool:
        if not free:
            if tight:
                return False
            best[:], best_perm[:] = codes, perm
            return True
        low = min(free.values())
        if tight:
            ref = best[len(codes)]
            if low > ref:
                return False
            tight = low == ref
        replaced = False
        tried = 0
        for v, code in free.items():
            if code != low or twins[v] & tried:
                continue
            tried |= 1 << v
            codes.append(low)
            perm.append(v)
            row = rows[v]
            if dfs({w: c << 1 | row >> w & 1 for w, c in free.items() if w != v}, tight):
                tight = replaced = True
            perm.pop()
            codes.pop()
        return replaced

    dfs(dict.fromkeys(range(n), 0), False)
    new = {old: i for i, old in enumerate(best_perm)}
    out = [0] * n
    for u, v in g.edges():
        out[new[u]] |= 1 << new[v]
        out[new[v]] |= 1 << new[u]
    return Graph(n, tuple(out))
