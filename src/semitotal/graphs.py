"""Immutable simple graphs on vertex ids 0..n-1 with bitmask adjacency.

Adjacency is stored as one Python int per vertex (bit v of row u set iff
uv is an edge), which keeps neighbourhood algebra cheap for the solvers.
All operations return fresh Graph values; nothing here mutates.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from math import inf

from .errors import GenerationFailed, InvalidEdge, ParseError, PatternTooLarge

MAX_PATTERN_ORDER = 12


def _bits(mask: int):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; vertices are always 0..n-1."""

    n: int
    rows: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 0:
            raise InvalidEdge(f"vertex count must be non-negative, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidEdge(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidEdge(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            out.extend((u, v) for v in _bits(self.rows[u] >> (u + 1) << (u + 1)))
        return out

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.rows[v]))

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- traversal and distances ---------------------------------------------


def _bfs_dist(rows: tuple[int, ...], n: int, sources: int) -> list[float]:
    """Distances from the nearest vertex of the `sources` mask, the one
    distance route; math.inf if unreachable."""
    dist = [inf] * n
    frontier = sources
    seen = frontier
    d = 0
    while frontier:
        for v in _bits(frontier):
            dist[v] = d
        nxt = 0
        for v in _bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    return dist


def _reach(rows, seen: int) -> int:
    """Mask of every vertex reachable from the vertices of `seen`; rows maps
    each reachable vertex to its neighbour mask."""
    frontier = seen
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    return g.n == 0 or _reach(g.rows, 1) == g.full_mask()


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    todo = g.full_mask()
    out = []
    while todo:
        seen = _reach(g.rows, todo & -todo)
        out.append(frozenset(_bits(seen)))
        todo &= ~seen
    return out


def vertex_mask(g: Graph, vertices) -> int:
    """Bitmask of the given vertices; InvalidEdge if one is not in g."""
    vs = set(vertices)
    if any(v < 0 or v >= g.n for v in vs):
        raise InvalidEdge("vertex out of range")
    return sum(1 << v for v in vs)


# -- derived graphs ------------------------------------------------------


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on the given vertices, relabelled by sorted order.

    Returns the subgraph and the old-id -> new-id map.
    """
    vs = sorted(_bits(vertex_mask(g, vertices)))
    remap = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for v in vs:
        for w in _bits(g.rows[v]):
            if w in remap:
                rows[remap[v]] |= 1 << remap[w]
    return Graph(len(vs), tuple(rows)), remap


def contract_rows(rows: tuple[int, ...], x: int, y: int) -> tuple[int, ...]:
    """The rows after contracting the edge xy, x < y: y merges into x, and
    every id above y moves down by one."""
    xb, yb = 1 << x, 1 << y
    low = yb - 1
    merged = (rows[x] | rows[y]) & ~(xb | yb)
    out = []
    for v, r in enumerate(rows):
        if v == x:
            r = merged
        elif v == y:
            continue
        elif r & yb:
            r |= xb
        out.append(r & low | r >> 1 & ~low)
    return tuple(out)


def _fold(rows: tuple[int, ...], edges) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Fold `contract_rows` over the edges, each mapped through the steps
    before it; an edge inside an already merged class is skipped.  Returns
    the rows and the (x, y) steps taken."""
    steps = []
    for u, v in edges:
        for x, y in steps:
            u = x if u == y else u - (u > y)
            v = x if v == y else v - (v > y)
        if u != v:
            if u > v:
                u, v = v, u
            rows = contract_rows(rows, u, v)
            steps.append((u, v))
    return rows, steps


def contract_edges(g: Graph, edges) -> tuple[Graph, dict[int, int]]:
    """Contract a set of edges simultaneously (partition semantics).

    Endpoint-sharing edges merge transitively into one vertex per connected
    component of the selected edge set.  Each merged vertex inherits the
    smallest old id in its component; survivors are then compacted to
    0..n'-1 preserving old-id order.  Returns the contracted graph and the
    total old-id -> new-id map.

    The edges are contracted one at a time by `contract_rows`.  Each step
    merges two classes into the place of the one with the smaller least
    member and keeps every other class's place in order, so after the last
    step each class sits at the rank of its least member: the quotient
    above, whatever the order of the edges.
    """
    edge_list = [normalize_edge(u, v) for u, v in edges]
    if not edge_list:
        raise InvalidEdge("contract_edges: need at least one edge")
    for u, v in edge_list:
        if not g.has_edge(u, v):
            raise InvalidEdge(f"contract_edges: ({u},{v}) is not an edge")
    rows, steps = _fold(g.rows, edge_list)
    index = list(range(g.n))
    for x, y in steps:
        index = [x if i == y else i - (i > y) for i in index]
    return Graph(len(rows), rows), dict(enumerate(index))


def disjoint_union(graphs) -> Graph:
    """Disjoint union; vertex ids of later graphs are shifted up."""
    rows: list[int] = []
    offset = 0
    for g in graphs:
        rows.extend(r << offset for r in g.rows)
        offset += g.n
    return Graph(offset, tuple(rows))


# -- generators ----------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidEdge(f"cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: centre 0 plus n-1 leaves."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def random_connected(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) conditioned on connectivity, deterministic in seed."""
    if not 0 < p <= 1:
        raise GenerationFailed(f"edge probability must be in (0, 1], got {p}")
    rng = random.Random(seed)
    for _ in range(1000):
        g = Graph.from_edges(
            n,
            [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            ],
        )
        if is_connected(g):
            return g
    raise GenerationFailed(f"no connected sample for n={n}, p={p} after 1000 tries")


# -- the embedding engine ------------------------------------------------


def embed(tables, checks, reuse, above, domains) -> tuple[int, ...] | None:
    """First host tuple, one host per step, that passes every check.

    Step i draws its host from the bitmask `domains[i]`.  Each
    `(j, table, want)` in `checks[i]` asks that the host of step i lie
    (`want`) or not lie in the row `tables[table][host of step j]` of an
    earlier step j.  Hosts are distinct, except that step i may repeat the
    host of each earlier step in `reuse[i]`, and the host of step i must
    exceed the host of each earlier step in `above[i]` (the symmetry-breaking
    constraints of `_pattern_plan`, which keep the least tuple of each orbit
    when the steps of one orbit share a domain, as the degree and co-degree
    domains of `_match` do).  All of these are folded into one
    candidate mask per step (bitset domain filtering, as in the Glasgow
    Subgraph Solver) and candidates are taken lowest id first, so the answer
    is the lexicographically first in step order.  With one candidate per
    step, this verifies a given assignment; verify mode carries no `above`
    constraints, since it must accept any orientation of the given tuple.

    The checks are applied by forward checking (Haralick and Elliott,
    Artificial Intelligence 14, 1980): when step i takes a host, every
    later step's domain is ANDed at once with the rows its checks against
    step i name, and the host is skipped when a later step without `reuse`
    has no candidate left outside the hosts used so far.  A reuse step gets
    no such test, since the host it may repeat is already used.  The first
    match is unchanged: the steps and their candidates keep their order,
    `above` still acts at its own step, and a skipped host roots a subtree
    in which that later step would find no candidate.
    """
    last = len(checks)
    hosts = [0] * last
    # ahead[j]: each later step's checks against step j, with the table
    # each reads and whether that step needs a host not used before
    ahead = [[] for _ in range(last)]
    for k, step in enumerate(checks):
        for j, table, want in step:
            ahead[j].append((k, tables[table], want, not reuse[k]))

    def extend(i: int, used: int, doms) -> bool:
        if i == last:
            return True
        dom = doms[i]
        cand = dom & ~used
        for j in reuse[i]:
            cand |= dom & 1 << hosts[j]
        for j in above[i]:
            cand &= -2 << hosts[j]  # only ids above the host of step j
        forward = ahead[i]
        while cand:
            low = cand & -cand
            host = hosts[i] = low.bit_length() - 1
            if forward:
                nxt = doms.copy()
                free = ~(used | low)
                for k, rows, want, distinct in forward:
                    row = rows[host]
                    left = nxt[k] & row if want else nxt[k] & ~row
                    if distinct and not left & free:
                        break  # step k has no candidate left
                    nxt[k] = left
                else:
                    if extend(i + 1, used | low, nxt):
                        return True
            elif extend(i + 1, used | low, doms):
                return True
            cand ^= low
        return False

    return tuple(hosts) if extend(0, 0, list(domains)) else None


# -- induced / subgraph pattern search -----------------------------------


@lru_cache(maxsize=32)
def _pattern_plan(h: Graph, induced: bool):
    """(order, checks, reuse, above, floors) for placing h with `embed`.

    The placement order keeps each prefix as connected as possible (most
    placed neighbours, then highest degree, then smallest id).  Each step's
    checks run on g's rows: one per placed vertex that h joins to it by an
    edge or, when induced, by a non-edge.  No step may reuse a host.

    `above` breaks h's symmetry (Grochow and Kellis, RECOMB 2007): at step
    i, every other vertex w in the orbit of the vertex placed there, under
    the automorphisms of h that fix each earlier step's vertex, must get a
    larger host than step i.  The orbits come from `embed` itself, placing
    h in h with the earlier steps pinned, step i pinned to w and every
    later step kept among the vertices of its vertex's degree, which
    automorphisms preserve.  Every copy of h is then found once, not once
    per automorphism.  Precondition: the steps of one orbit draw from the
    same domain, as they do when each step's domain depends only on its
    vertex's degree and co-degree.  Then the least tuple of each orbit is
    the one kept, so the first match is the same as without `above`.
    Verify mode (one candidate per step, checking a given tuple) carries no
    `above`: it must accept every orientation of the tuple.

    `floors` gives per step (degree, vertices of at least that degree,
    co-degree, vertices of at least that co-degree), the co-degree
    (non-neighbours) being 0 for a subgraph copy.  The counts turn "the
    host's sorted sequence dominates the pattern's" into one test per step
    of `_match`'s screen: at least that many hosts reach the step's floor.
    """
    degree = [row.bit_count() for row in h.rows]
    order: list[int] = []
    placed = 0
    for _ in range(h.n):
        p = max(
            (v for v in range(h.n) if not placed >> v & 1),
            key=lambda v: ((h.rows[v] & placed).bit_count(), degree[v], -v),
        )
        order.append(p)
        placed |= 1 << p

    def step_checks(non_edges: bool):
        return tuple(
            tuple(
                (j, 0, edge)
                for j, q in enumerate(order[:i])
                if (edge := bool(h.rows[p] >> q & 1)) or non_edges
            )
            for i, p in enumerate(order)
        )

    # an automorphism is an induced copy of h in h; step k's vertex is in
    # step i's orbit when one maps order[i] to order[k] and fixes order[:i]
    automorphic = step_checks(True)
    none = ((),) * h.n
    pins = [1 << v for v in order]
    classes = [sum(1 << w for w in range(h.n) if degree[w] == degree[v]) for v in order]
    above: list[list[int]] = [[] for _ in order]
    for i in range(h.n):
        for k in range(i + 1, h.n):
            doms = (*pins[:i], pins[k], *classes[i + 1:])
            if classes[i] & pins[k] and embed((h.rows,), automorphic, none, none, doms) is not None:
                above[k].append(i)
    checks = automorphic if induced else step_checks(False)
    co = [h.n - 1 - d if induced else 0 for d in degree]
    floors = tuple(
        (degree[v], sum(d >= degree[v] for d in degree), co[v], sum(c >= co[v] for c in co))
        for v in order
    )
    return tuple(order), checks, none, tuple(map(tuple, above)), floors


def _match(g: Graph, h: Graph, induced: bool, within) -> dict[int, int] | None:
    """Screen the hosts by degree and co-degree inside the mask, then
    search (the degree filtering of LAD, Solnon, Artificial Intelligence
    174, 2010).  A copy maps each pattern vertex to a host of at least its
    degree and, if induced, its co-degree, so the screen drops no host of
    any copy and the first match is the one the unscreened search finds."""
    if h.n > MAX_PATTERN_ORDER:
        raise PatternTooLarge(f"pattern has {h.n} vertices, limit {MAX_PATTERN_ORDER}")
    mask = g.full_mask() if within is None else vertex_mask(g, within)
    size = mask.bit_count()
    if h.n > size:  # also keeps every floor below size
        return None
    # at_least[d]: the hosts of degree d or more in g[mask]
    at_least = [0] * (size + 1)
    for v in _bits(mask):
        at_least[(g.rows[v] & mask).bit_count()] |= 1 << v
    for d in range(size - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    order, checks, reuse, above, floors = _pattern_plan(h, induced)
    domains = []
    for degree, many, co, co_many in floors:
        # co-degree at least co: degree at most size - 1 - co
        up, down = at_least[degree], mask & ~at_least[size - co]
        if up.bit_count() < many or down.bit_count() < co_many:
            return None
        domains.append(up & down)
    hosts = embed((g.rows,), checks, reuse, above, domains)
    return None if hosts is None else dict(sorted(zip(order, hosts)))


def contains_induced(g: Graph, h: Graph, within=None) -> dict[int, int] | None:
    """First induced copy of h in g as a pattern-id -> host-id map, else None.

    `within` optionally restricts host vertices to a subset of V(g).  The
    pattern is placed in the order of `_pattern_plan`, so the copy returned
    is the first that `embed` finds in that order.  Each step draws from
    the hosts whose degree and co-degree in the mask reach its vertex's,
    and automorphisms of h preserve both, so the steps of one orbit share a
    domain and the plan's symmetry-breaking constraints try each copy of h
    once without changing which copy comes first.
    """
    return _match(g, h, True, within)


def contains_subgraph(g: Graph, h: Graph, within=None) -> dict[int, int] | None:
    """Like contains_induced but only requires h's edges to be present."""
    return _match(g, h, False, within)


def is_chordal(g: Graph) -> bool:
    """Maximum cardinality search followed by the elimination-order check."""
    n = g.n
    if n == 0:
        return True
    weight = [0] * n
    number = [-1] * n  # position in MCS order, n-1 first
    for pos in range(n - 1, -1, -1):
        v = max(
            (x for x in range(n) if number[x] == -1),
            key=lambda x: (weight[x], -x),
        )
        number[v] = pos
        for w in _bits(g.rows[v]):
            if number[w] == -1:
                weight[w] += 1
    for v in range(n):
        later = [w for w in _bits(g.rows[v]) if number[w] > number[v]]
        if not later:
            continue
        u = min(later, key=lambda w: number[w])
        for w in later:
            if w != u and not g.has_edge(u, w):
                return False
    return True


# -- graph6 --------------------------------------------------------------

_G6_MAX = 258047


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= _G6_MAX:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        raise ParseError(f"graph6 encoding supports at most {_G6_MAX} vertices")
    # column j (the pairs ij, i < j) is row j's low j bits, lowest first
    bits = "".join(format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(_G6_BYTES[bits[k:k + 6]] for k in range(0, len(bits), 6))


# each graph6 byte as its six bits, high bit first, and back
_G6_BITS = {63 + v: format(v, "06b") for v in range(64)}
_G6_BYTES = {bits: chr(byte) for byte, bits in _G6_BITS.items()}
# any character outside the graph6 bytes ? (63) .. ~ (126)
_G6_BAD = re.compile("[^?-~]")


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise ParseError("empty graph6 string", offset=0)
    bad = _G6_BAD.search(s)
    if bad:
        raise ParseError(f"invalid graph6 byte {bad.group()!r}", offset=bad.start())
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise ParseError("graph6 order above 258047 not supported", offset=0)
        if len(s) < 4:
            raise ParseError("truncated graph6 size block", offset=len(s))
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
        body_off = 4
    else:
        n = ord(s[0]) - 63
        body = s[1:]
        body_off = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ParseError(
            f"graph6 body for n={n} needs {need} chars, got {len(body)}",
            offset=body_off + min(len(body), need),
        )
    bits = body.translate(_G6_BITS)
    if "1" in bits[nbits:]:
        raise ParseError("nonzero graph6 padding bits", offset=len(s) - 1)
    # the body as one int, its first bit lowest: column j (the pairs ij,
    # i < j) is the j-bit slice that starts at bit j(j-1)/2
    adj = int(bits[nbits - 1::-1], 2) if nbits else 0
    rows = [0] * n
    for j in range(1, n):
        col = adj & ((1 << j) - 1)
        adj >>= j
        rows[j] |= col
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    return Graph(n, tuple(rows))


# -- edge-list text format ----------------------------------------------


def _at_most(tok: str, limit: int) -> int:
    """The value of a token of ASCII digits, or limit + 1 for any value
    above limit.  int() refuses more than 4300 digits, so a token with more
    significant digits than limit is not converted."""
    digits = tok.lstrip("0")
    return limit + 1 if len(digits) > len(str(limit)) else int(digits or "0")


def parse_edge_list(text: str) -> Graph:
    """Read "n m" followed by m lines "u v" (0-based, one edge each)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty edge-list input", offset=0)
    head = lines[0].split()
    # str.isdigit alone also accepts the digits of other scripts
    if len(head) != 2 or not all(t.isascii() and t.isdigit() for t in head):
        raise ParseError(f"bad header {lines[0]!r}", offset=0)
    n, m = _at_most(head[0], _G6_MAX), _at_most(head[1], len(lines) - 1)
    if n > _G6_MAX:
        raise ParseError(f"order {head[0]} exceeds the graph6 maximum {_G6_MAX}", offset=0)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {head[1]} edge lines, got {len(lines) - 1}")
    seen = set()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(t.isascii() and t.isdigit() for t in parts):
            raise ParseError(f"bad edge line {ln!r}")
        u, v = _at_most(parts[0], n), _at_most(parts[1], n)
        if u == v or u >= n or v >= n:
            raise ParseError(f"invalid edge {parts[0]} {parts[1]} for n={n}")
        e = normalize_edge(u, v)
        if e in seen:
            raise ParseError(f"duplicate edge {u} {v}")
        seen.add(e)
        edges.append(e)
    return Graph.from_edges(n, edges)
