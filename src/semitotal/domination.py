"""Exact solvers for domination, total domination and semitotal domination.

Two engines answer every question.  The branch-and-bound `_Search` over
vertex bitmasks, with a greedy packing lower bound, minimises (`solve`) and
decides whether a set of at most k vertices exists (`exists_within`).  The
one lexicographic sweep, `feasible_sets`, yields the feasible sets of one
size in `combinations` order; it shares only the feasibility test with the
search, so it is the independent route.  SEMITOTAL_BUDGET caps both."""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from math import comb
from time import monotonic

from .errors import Infeasible, InvalidSetting, NotInSet, ScaleLimit
from .graphs import Graph, _bits, inner_degrees, is_connected, vertex_mask

DEFAULT_BUDGET = 10**8


def search_budget() -> int:
    """Node / subset budget: SEMITOTAL_BUDGET, a positive integer, or the default."""
    raw = os.environ.get("SEMITOTAL_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise InvalidSetting(f"SEMITOTAL_BUDGET must be a positive integer, got {raw!r}")
    return int(raw)


class DominationKind(Enum):
    DOMINATION = "domination"
    TOTAL = "total"
    SEMITOTAL = "semitotal"


@dataclass(frozen=True)
class SolveResult:
    kind: DominationKind
    value: int
    witness: frozenset[int]


class _Instance:
    """Per-graph mask tables shared by feasibility and search."""

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n
        self.all = g.full_mask()
        self.open = g.rows
        self.closed = tuple(r | 1 << v for v, r in enumerate(g.rows))
        ball2 = []
        for v in range(g.n):
            m = self.closed[v]
            for w in _bits(g.rows[v]):
                m |= g.rows[w]
            ball2.append(m & ~(1 << v))
        self.ball2open = tuple(ball2)

    def cover_ball(self, kind: DominationKind) -> tuple[int, ...]:
        return self.open if kind is DominationKind.TOTAL else self.closed


def _feasible_mask(inst: _Instance, kind: DominationKind, dmask: int) -> bool:
    cover = 0
    for v in _bits(dmask):
        cover |= inst.cover_ball(kind)[v]
    if kind is DominationKind.DOMINATION:
        if inst.all & ~dmask & ~cover:
            return False
        return True
    if cover != inst.all:
        return False
    if kind is DominationKind.SEMITOTAL:
        for v in _bits(dmask):
            if not inst.ball2open[v] & dmask:
                return False
    return True


def is_feasible(g: Graph, kind: DominationKind, d) -> bool:
    """Check the defining conditions of the given domination variant."""
    dset = set(d)
    if any(v < 0 or v >= g.n for v in dset):
        raise NotInSet(f"set contains vertices outside 0..{g.n - 1}")
    if kind is not DominationKind.DOMINATION and g.n < 2:
        raise Infeasible(f"{kind.value} domination needs at least 2 vertices")
    return _feasible_mask(_Instance(g), kind, vertex_mask(g, dset))


def _greedy_upper(inst: _Instance, kind: DominationKind) -> int:
    ball = inst.cover_ball(kind)
    dmask = 0
    cover = 0
    while True:
        uncovered = inst.all & ~cover
        if kind is DominationKind.DOMINATION:
            uncovered &= ~dmask
        if not uncovered:
            break
        best_v = -1
        best_gain = -1
        for v in range(inst.n):
            gain = (ball[v] & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        dmask |= 1 << best_v
        cover |= ball[best_v]
    if kind is DominationKind.SEMITOTAL:
        for v in list(_bits(dmask)):
            if not inst.ball2open[v] & dmask:
                # smallest-id helper inside the distance-2 ball
                helper = inst.ball2open[v] & ~dmask
                dmask |= helper & -helper
    return dmask


class _Found(Exception):
    pass


class _Search:
    def __init__(self, inst, kind, budget, deadline, stop_at):
        self.inst = inst
        self.kind = kind
        self.ball = inst.cover_ball(kind)
        self.order = sorted(range(inst.n), key=lambda v: (self.ball[v].bit_count(), v))
        self.budget = search_budget() if budget is None else budget
        self.deadline = deadline
        self.stop_at = stop_at
        self.nodes = 0
        self.best = inst.n + 1
        self.best_mask = None

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise ScaleLimit(f"search exceeded {self.budget} nodes")
        if self.deadline is not None and self.nodes % 256 == 0 and monotonic() > self.deadline:
            raise ScaleLimit("search deadline exceeded")

    def _record(self, dmask: int):
        size = dmask.bit_count()
        if size < self.best:
            self.best = size
            self.best_mask = dmask
            if self.stop_at is not None and self.best <= self.stop_at:
                raise _Found

    def _packing_bound(self, uncovered: int, banned: int) -> int:
        used = 0
        cnt = 0
        for v in self.order:
            if not uncovered >> v & 1:
                continue
            b = self.ball[v] & ~banned
            if b == 0:
                return self.inst.n + 1  # some vertex can no longer be dominated
            if not b & used:
                cnt += 1
                used |= b
        return cnt

    def run(self, dmask: int, cover: int, banned: int):
        self._tick()
        size = dmask.bit_count()
        uncovered = self.inst.all & ~cover
        if self.kind is DominationKind.DOMINATION:
            uncovered &= ~dmask
        if uncovered:
            if size + max(1, self._packing_bound(uncovered, banned)) >= self.best:
                return
            target = next(v for v in self.order if uncovered >> v & 1)
            local_ban = banned
            for c in _bits(self.ball[target] & ~local_ban):
                self.run(dmask | 1 << c, cover | self.ball[c], local_ban)
                local_ban |= 1 << c
            return
        if self.kind is DominationKind.SEMITOTAL:
            lonely = -1
            for v in _bits(dmask):
                if not self.inst.ball2open[v] & dmask:
                    lonely = v
                    break
            if lonely >= 0:
                if size + 1 >= self.best:
                    return
                local_ban = banned
                for c in _bits(self.inst.ball2open[lonely] & ~dmask & ~local_ban):
                    self.run(dmask | 1 << c, cover | self.ball[c], local_ban)
                    local_ban |= 1 << c
                return
        self._record(dmask)


def _check_solvable(g: Graph, kind: DominationKind):
    if kind is not DominationKind.DOMINATION and g.n < 2:
        raise Infeasible(f"{kind.value} domination needs at least 2 vertices")
    if not is_connected(g):
        raise Infeasible("solver requires a connected graph")


def solve(
    g: Graph,
    kind: DominationKind,
    *,
    budget: int | None = None,
    deadline: float | None = None,
) -> SolveResult:
    """Minimum (semi)total/plain dominating set via branch-and-bound."""
    _check_solvable(g, kind)
    inst = _Instance(g)
    search = _Search(inst, kind, budget, deadline, stop_at=None)
    seed = _greedy_upper(inst, kind)
    search.best = seed.bit_count()
    search.best_mask = seed
    search.run(0, 0, 0)
    return SolveResult(kind, search.best, frozenset(_bits(search.best_mask)))


def exists_within(
    g: Graph,
    kind: DominationKind,
    k: int,
    *,
    budget: int | None = None,
    deadline: float | None = None,
) -> bool:
    """Decision variant: is there a feasible set of size at most k?"""
    _check_solvable(g, kind)
    if k <= 0:
        return False
    search = _Search(_Instance(g), kind, budget, deadline, stop_at=k)
    search.best = k + 1
    try:
        search.run(0, 0, 0)
    except _Found:
        return True
    return search.best <= k


def feasible_sets(g: Graph, kind: DominationKind, k: int, *, budget: int | None = None):
    """Every feasible set of exactly k vertices, as tuples in `combinations`
    order.  A branch is cut once its vertices and all later ones cannot cover
    the graph; leaves are checked in full.  ScaleLimit if C(n, k) > budget."""
    return _sweep(_Instance(g), kind, k, budget)


def _sweep(inst: _Instance, kind: DominationKind, k: int, budget: int | None):
    cap = search_budget() if budget is None else budget
    if comb(inst.n, k) > cap:
        raise ScaleLimit(f"C({inst.n},{k}) exceeds the {cap} subset budget")
    ball = inst.cover_ball(kind)
    later = [0] * (inst.n + 1)  # later[v]: union of the balls of v..n-1
    for v in range(inst.n - 1, -1, -1):
        later[v] = later[v + 1] | ball[v]
    chosen: list[int] = []

    def extend(start: int, dmask: int, cover: int):
        left = k - len(chosen)
        if not left:
            if _feasible_mask(inst, kind, dmask):
                yield tuple(chosen)
            return
        for v in range(start, inst.n - left + 1):
            if cover | later[v] != inst.all:
                return
            chosen.append(v)
            yield from extend(v + 1, dmask | 1 << v, cover | ball[v])
            chosen.pop()

    yield from extend(0, 0, 0)


def solve_by_enumeration(g: Graph, kind: DominationKind, *, budget: int | None = None) -> SolveResult:
    """Smallest feasible set by the subset sweep; independent of the search."""
    _check_solvable(g, kind)
    inst = _Instance(g)
    for size in range(1, g.n + 1):
        for d in _sweep(inst, kind, size, budget):
            return SolveResult(kind, size, frozenset(d))
    raise Infeasible(f"no feasible {kind.value} set exists")


def enumerate_min_sets(g: Graph, kind: DominationKind, *, budget: int | None = None) -> list[frozenset[int]]:
    """All minimum sets for the variant, in lexicographic subset order."""
    value = solve(g, kind, budget=budget).value
    return [frozenset(d) for d in feasible_sets(g, kind, value, budget=budget)]


def witnesses_of(g: Graph, d, v: int) -> frozenset[int]:
    """Members of d other than v within distance two of v."""
    dset = set(d)
    if v not in dset:
        raise NotInSet(f"vertex {v} is not in the given set")
    inst = _Instance(g)
    return frozenset(_bits(inst.ball2open[v] & vertex_mask(g, dset)))


def private_neighbours(g: Graph, d, v: int) -> frozenset[int]:
    """Neighbours of v outside d dominated by no other member of d."""
    dset = set(d)
    if v not in dset:
        raise NotInSet(f"vertex {v} is not in the given set")
    dmask = vertex_mask(g, dset)
    return frozenset(
        u
        for u in _bits(g.rows[v])
        if not dmask >> u & 1 and g.rows[u] & dmask == 1 << v
    )


def all_min_sds_independent(g: Graph) -> bool:
    """True iff every minimum semitotal dominating set induces no edge."""
    value = solve(g, DominationKind.SEMITOTAL).value
    sets = feasible_sets(g, DominationKind.SEMITOTAL, value)
    return not any(any(inner_degrees(g, d)) for d in sets)
