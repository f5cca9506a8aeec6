"""Exact solvers for domination, total domination and semitotal domination.

Every value and every decision comes from one engine, the branch-and-bound
`_Search` over vertex bitmasks with a greedy packing lower bound: it
minimises (`solve`) and decides whether a set of at most k vertices exists
(`exists_within`).  It keeps its cover in rank space, the vertices
relabelled by (cover-ball size, id).  The packing takes the lowest
uncovered vertex and drops every vertex whose ball meets its ball, one step
per packed vertex, and stops as soon as it prunes.  When it ends one short,
a completion below the best size takes exactly one member from each packed
candidate set: the sets are filtered to a fixpoint by the uncovered
vertices whose candidates meet only one of them, and the node branches on
the filtered first set.  Branches take candidates in ascending original
id, and each candidate's rank-space cover, each reach mask and each
distance-2 ball are built on first use.
A node with room for one more member below the best size takes its last
member from the intersection of its uncovered vertices' candidate sets,
without a call per child, and a child with no room is not visited: the
records, and so the witness, are those of the full walk.  Nodes are
counted per visit and per last-member step, and the node budget, the one
limit of a search, is checked at every count.  The one lexicographic
sweep, `feasible_sets`, lists the feasible sets of one size in
`combinations` order, for callers that need every set or the first one
carrying some structure.  It shares only the ball helpers `_balls` and
`_near` with the search, not its walk, its bound or its tables, so
`solve_by_enumeration`, its smallest-size scan, is the independent
reference the tests hold `solve` to; nothing in the package calls it.
SEMITOTAL_BUDGET caps the nodes of every search and, through
`check_subsets`, the C(n, k) subsets of every sweep.  Inside a
`solved_once` block, `solve` searches each (rows, kind) once and returns
the stored result after that; outside one it always searches."""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from math import comb

from .errors import Infeasible, InvalidSetting, NotInSet, ScaleLimit
from .graphs import Graph, _at_most, _bits, is_connected, vertex_mask

DEFAULT_BUDGET = 10**8


def search_budget() -> int:
    """Node / subset budget: SEMITOTAL_BUDGET, a positive integer, or the
    default.  A value with more digits than sys.maxsize is read as
    sys.maxsize + 1, unconverted: no search counts that far, and no sweep
    of more subsets would end."""
    raw = os.environ.get("SEMITOTAL_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    budget = _at_most(raw, sys.maxsize) if raw.isascii() and raw.isdigit() else 0
    if budget <= 0:
        raise InvalidSetting(f"SEMITOTAL_BUDGET must be a positive integer, got {raw!r}")
    return budget


class DominationKind(Enum):
    DOMINATION = "domination"
    TOTAL = "total"
    SEMITOTAL = "semitotal"


@dataclass(frozen=True)
class SolveResult:
    """A minimum set and its size.  `nodes` is the search's node count,
    deterministic for a given graph and kind; None from the subset sweep
    `solve_by_enumeration`.  Results compare without it."""

    kind: DominationKind
    value: int
    witness: frozenset[int]
    nodes: int | None = field(default=None, compare=False)


def _balls(g: Graph, kind: DominationKind) -> tuple[int, ...]:
    """Each vertex's cover ball: its open neighbourhood for total
    domination, its closed one otherwise."""
    return g.rows if kind is DominationKind.TOTAL else tuple(r | 1 << v for v, r in enumerate(g.rows))


def _near(rows: tuple[int, ...], v: int) -> int:
    """The vertices within distance two of v, v itself excluded."""
    m = rows[v]
    for w in _bits(rows[v]):
        m |= rows[w]
    return m & ~(1 << v)


def check_subsets(n: int, k: int) -> None:
    """ScaleLimit when a sweep over the C(n, k) k-subsets of n items would
    pass search_budget()."""
    cap = search_budget()
    if comb(n, k) > cap:
        raise ScaleLimit(f"C({n},{k}) subsets exceed the {cap} budget")


def is_feasible(g: Graph, kind: DominationKind, d) -> bool:
    """Check the defining conditions of the given domination variant."""
    dset = set(d)
    if any(v < 0 or v >= g.n for v in dset):
        raise NotInSet(f"set contains vertices outside 0..{g.n - 1}")
    if kind is not DominationKind.DOMINATION and g.n < 2:
        raise Infeasible(f"{kind.value} domination needs at least 2 vertices")
    ball = _balls(g, kind)
    dmask = vertex_mask(g, dset)
    cover = 0
    for v in dset:
        cover |= ball[v]
    if cover != g.full_mask():
        return False
    return kind is not DominationKind.SEMITOTAL or all(_near(g.rows, v) & dmask for v in dset)


class _Found(Exception):
    pass


def _checked_budget(budget) -> int:
    """A per-call node budget must be a non-negative int: NaN would compare
    false with every node count and switch the budget off."""
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise InvalidSetting(f"budget must be a non-negative integer, got {budget!r}")
    return budget


class _Search:
    """Branch-and-bound over vertex bitmasks for one graph and kind.

    The cover is kept in rank space: bit r stands for the vertex of place r
    in the order (cover-ball size, id).  So the uncovered vertices come out
    lowest bit first in the order the packing bound takes them, and the
    branch target is the lowest uncovered bit.  The chosen set, the banned
    candidates and the balls stay in original ids: branches take their
    candidates in ascending id, and the semitotal repair fixes the lonely
    member of smallest id, so the walk and the witness do not depend on the
    ranks.  A candidate's rank-space cover, a rank's reach mask and a
    vertex's distance-2 ball are built on first use: most searches visit a
    few nodes, so set-up is what they pay for.

    The packing bound packs the lowest uncovered rank r, then clears its
    reach mask, the ranks whose balls meet ball(v_r), from the rest: the
    packed vertices have disjoint balls, so each needs its own member, and
    the node prunes once they fill its room or one has no free candidate.
    A packing one short of that, p = limit - 1 sets with limit =
    best - size, is used in full by `_one_short`.  A completion that
    records adds at most limit - 1 = p members and needs one in each of
    the p disjoint sets, so it takes exactly one member from each set and
    nothing else.  So the member that covers an uncovered vertex x comes
    from a set meeting x's candidates: if none does, the node prunes; if
    one does, that set shrinks to x's candidates; this repeats until
    nothing changes.  The node branches on the filtered first set, and the
    candidates dropped from it are banned before the loop: a completion
    with two members of that set cannot record.  All of these remove only
    nodes and children that cannot record below `best`, so the records are
    those of a walk without them, and the walk visits a subset of its
    nodes.

    A node whose cover is not full is searched only while it has room for
    two or more members below the best size.  With room for one,
    `best - size == 2`, its only completions add one free candidate of
    every uncovered vertex, so `_last` takes them from the intersection of
    those candidate sets, in ascending id, and records the first that
    passes the leaf check: the sets its children would record, in their
    order.  With no room, the child is not visited at all.  `nodes` counts
    the calls of `run` and the children handed to `_last`, not the skipped
    ones.  Every count is checked against the budget, which arrives
    checked, as `_check_solvable` returns it."""

    def __init__(self, g: Graph, kind: DominationKind, budget, stop_at):
        n = g.n
        ball = _balls(g, kind)
        # a stable sort keeps equal-size balls in id order
        order = sorted(range(n), key=[b.bit_count() for b in ball].__getitem__)
        rank_bit = [0] * n
        for r, v in enumerate(order):
            rank_bit[v] = 1 << r
        self.rows = g.rows
        self.semitotal = kind is DominationKind.SEMITOTAL
        self.ball = ball
        self.ball_by_rank = [ball[v] for v in order]
        self.rank_bit = rank_bit
        self.covers = [None] * n  # per vertex: the ranks its ball covers
        self.near = [None] * n  # per vertex: its distance-2 ball, itself excluded
        self.reach = [None] * n  # per rank: the ranks whose balls meet its ball
        self.budget = budget
        self.stop_at = stop_at
        self.nodes = 0
        self.all = (1 << n) - 1
        self.best = n + 1 if stop_at is None else stop_at + 1
        self.best_mask = 0

    def _covers(self, c: int) -> int:
        rank_bit = self.rank_bit
        mask = self.ball[c]
        out = 0
        while mask:
            low = mask & -mask
            out |= rank_bit[low.bit_length() - 1]
            mask ^= low
        self.covers[c] = out
        return out

    def _reach(self, r: int) -> int:
        covers = self.covers
        out = 1 << r
        for c in _bits(self.ball_by_rank[r]):
            out |= covers[c] or self._covers(c)
        self.reach[r] = out
        return out

    def _near(self, v: int) -> int:
        self.near[v] = m = _near(self.rows, v)
        return m

    def _lonely(self, dmask: int) -> int:
        """The distance-2 ball of the smallest member of dmask with no other
        member within distance two, or 0 when every member has one."""
        for v in _bits(dmask):
            near = self.near[v] or self._near(v)
            if not near & dmask:
                return near
        return 0

    def greedy(self):
        """Seed the bound: repeatedly take the vertex covering most, ties
        to the smallest id, then give each lonely semitotal pick the
        smallest-id partner within distance two."""
        ball = self.ball
        dmask = cover = 0
        while cover != self.all:
            uncovered = self.all & ~cover
            gains = [(b & uncovered).bit_count() for b in ball]
            v = gains.index(max(gains))
            dmask |= 1 << v
            cover |= ball[v]
        if self.semitotal:
            while near := self._lonely(dmask):
                dmask |= near & -near
        self.best = dmask.bit_count()
        self.best_mask = dmask

    def run(self, dmask: int, cover: int, banned: int, size: int):
        self.nodes += 1
        if self.nodes > self.budget:
            raise ScaleLimit(f"search exceeded {self.budget} nodes")
        full = self.all
        uncovered = full & ~cover
        if uncovered:
            limit = self.best - size
            if limit <= 2:
                if limit == 2:  # only the root gets here: children go to _last directly
                    self._last(dmask, uncovered, banned, size)
                return
            # packing: pack the lowest uncovered rank left, then drop every
            # rank whose ball meets its ball
            ball_by_rank = self.ball_by_rank
            reach = self.reach
            free = ~banned
            packed = []
            heads = 0
            rest = uncovered
            while rest:
                low = rest & -rest
                r = low.bit_length() - 1
                b = ball_by_rank[r] & free
                if not b:
                    return  # some vertex can no longer be dominated
                packed.append(b)
                if len(packed) >= limit:
                    return
                heads |= low
                rest &= ~(reach[r] or self._reach(r))
            cands = packed[0]
            if len(packed) == limit - 1:
                if not self._one_short(packed, uncovered & ~heads):
                    return
                # a completion with two members of the first set cannot
                # record, so the members the filter dropped are banned here
                banned |= cands ^ packed[0]
                cands = packed[0]
        elif self.semitotal:
            near = self._lonely(dmask)
            if not near:
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
            child = cover | (covers[c] or self._covers(c))
            room = self.best - size
            if child == full or room > 2:
                self.run(dmask | low, child, banned, size)
            elif room == 2:
                self.nodes += 1
                if self.nodes > self.budget:
                    raise ScaleLimit(f"search exceeded {self.budget} nodes")
                self._last(dmask | low, full & ~child, banned, size)
            banned |= low
            cands ^= low

    def _one_short(self, packed: list, pending: int) -> bool:
        """Filter the packed candidate sets of a node one short, in place,
        and say whether the node survives.  `pending` holds the uncovered
        ranks other than the packed ones, whose sets are their own.  A rank
        whose candidates meet no set prunes the node; one whose candidates
        meet one set cuts that set to them, and is settled, since the set
        stays inside its candidates.  Passes repeat until one changes
        nothing."""
        ball_by_rank = self.ball_by_rank
        union = 0
        for b in packed:
            union |= b
        changed = True
        while changed and pending:
            changed = False
            rest = pending
            while rest:
                low = rest & -rest
                rest ^= low
                cand = ball_by_rank[low.bit_length() - 1]
                meet = cand & union
                if not meet:
                    return False
                j = 0
                for b in packed:
                    if meet & b:
                        break
                    j += 1
                if meet & ~b:
                    continue  # two or more sets meet it
                pending ^= low
                if b & ~cand:
                    union ^= b & ~cand
                    packed[j] = b & cand
                    changed = True
        return True

    def _last(self, dmask: int, uncovered: int, banned: int, size: int):
        """The node (dmask, size) with room for one more member: record the
        first completion by a free candidate common to every uncovered
        vertex, in ascending id, that passes the leaf check.  Its packing
        bound prunes only when there is none, and a record makes `best`
        the size of every later completion, so none of them records."""
        ball_by_rank = self.ball_by_rank
        common = ~banned
        while uncovered:
            low = uncovered & -uncovered
            common &= ball_by_rank[low.bit_length() - 1]
            if not common:
                return
            uncovered ^= low
        while common:
            low = common & -common
            if not self.semitotal or not self._lonely(dmask | low):
                self._record(dmask | low, size + 1)
                return
            common ^= low

    def _record(self, dmask: int, size: int):
        if size < self.best:
            self.best = size
            self.best_mask = dmask
            if self.stop_at is not None:
                raise _Found


def _check_solvable(g: Graph, kind: DominationKind, budget=None) -> int:
    """The gate of every search, run before any work: Infeasible for a
    disconnected graph, or for total or semitotal domination on fewer than
    2 vertices; then the checked node budget, search_budget() by default."""
    if kind is not DominationKind.DOMINATION and g.n < 2:
        raise Infeasible(f"{kind.value} domination needs at least 2 vertices")
    if not is_connected(g):
        raise Infeasible("solver requires a connected graph")
    return search_budget() if budget is None else _checked_budget(budget)


def _walk(search: _Search) -> None:
    """Run the search from the root.  `run` takes one frame per chosen
    member, so a deep walk is refused with ScaleLimit, not RecursionError."""
    try:
        search.run(0, 0, 0, 0)
    except RecursionError:
        raise ScaleLimit(f"search deeper than the recursion limit {sys.getrecursionlimit()}") from None


# the results `solve` stored in the innermost open `solved_once` block
_SOLVED: ContextVar[dict | None] = ContextVar("solved", default=None)


@contextmanager
def solved_once():
    """A scope in which `solve` searches each (rows, kind) at most once.
    Nothing outlives the block and a nested block starts empty, so memory
    is bounded by one caller's unit of work, such as one visited graph."""
    token = _SOLVED.set({})
    try:
        yield
    finally:
        _SOLVED.reset(token)


def solve(g: Graph, kind: DominationKind, *, budget: int | None = None) -> SolveResult:
    """Minimum (semi)total/plain dominating set via branch-and-bound.

    `budget` caps the nodes (default search_budget()), the search's only
    limit, so whether a search stops does not depend on the machine.
    InvalidSetting for a budget that is not a non-negative int; ScaleLimit
    past it, or when the walk, one frame per chosen member, would pass the
    recursion limit.

    Inside a `solved_once` block, a call without a budget returns the
    result stored for the same rows and kind, the very object the first
    call returned; the search is deterministic, so that is the result a
    second search would give.  A call with a budget always searches, and a
    call that raises stores nothing."""
    memo = _SOLVED.get() if budget is None else None
    if memo is not None:
        key = g.rows, kind
        stored = memo.get(key)
        if stored is not None:
            return stored
    search = _Search(g, kind, _check_solvable(g, kind, budget), stop_at=None)
    search.greedy()
    _walk(search)
    result = SolveResult(kind, search.best, frozenset(_bits(search.best_mask)), search.nodes)
    if memo is not None:
        memo[key] = result
    return result


def exists_within(g: Graph, kind: DominationKind, k: int, *, budget: int | None = None) -> bool:
    """Decision variant: is there a feasible set of size at most k?  The
    budget is that of `solve`, checked the same way.  The search starts
    from best = k + 1, without the greedy seed, so its first record has
    size at most k and ends it; a walk that returns recorded nothing."""
    cap = _check_solvable(g, kind, budget)
    if k <= 0:  # no set is smaller than the empty one, which dominates only K0
        return k == 0 == g.n
    search = _Search(g, kind, cap, stop_at=k)
    try:
        _walk(search)
    except _Found:
        return True
    return False


def feasible_sets(g: Graph, kind: DominationKind, k: int):
    """Every feasible set of exactly k vertices, as tuples in `combinations`
    order.  An include-first walk over vertex ids: a branch is cut once its
    vertices and all later ones cannot cover the graph, and leaves are
    checked in full.  ScaleLimit if C(n, k) > search_budget()."""
    n = g.n
    check_subsets(n, k)
    full = g.full_mask()
    ball = _balls(g, kind)
    near = tuple(_near(g.rows, v) for v in range(n)) if kind is DominationKind.SEMITOTAL else None
    later = [0] * (n + 1)  # later[v]: union of the balls of v..n-1
    for v in range(n - 1, -1, -1):
        later[v] = later[v + 1] | ball[v]
    chosen: list[int] = []

    def extend(start: int, dmask: int, cover: int):
        left = k - len(chosen)
        if not left:
            if cover == full and (near is None or all(near[v] & dmask for v in chosen)):
                yield tuple(chosen)
            return
        for v in range(start, n - left + 1):
            if cover | later[v] != full:
                return
            chosen.append(v)
            yield from extend(v + 1, dmask | 1 << v, cover | ball[v])
            chosen.pop()

    yield from extend(0, 0, 0)


def solve_by_enumeration(g: Graph, kind: DominationKind) -> SolveResult:
    """Smallest feasible set by the subset sweep; independent of the search."""
    _check_solvable(g, kind)
    for size in range(g.n + 1):
        for d in feasible_sets(g, kind, size):
            return SolveResult(kind, size, frozenset(d))
    raise Infeasible(f"no feasible {kind.value} set exists")


def enumerate_min_sets(g: Graph, kind: DominationKind) -> list[frozenset[int]]:
    """All minimum sets for the variant, in lexicographic subset order."""
    value = solve(g, kind).value
    return [frozenset(d) for d in feasible_sets(g, kind, value)]
