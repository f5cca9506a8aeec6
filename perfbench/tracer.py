"""Outside-in span tracer for the semitotal package.

The tracer replaces chosen package functions with thin wrappers, in every
module namespace that bound them, so the program itself carries no tracing
code.  Each call becomes a span (name, start, end, parent) held in memory;
`layer_times` turns the spans into per-layer self and inclusive seconds
after the run, and `write_spans` saves them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from dataclasses import dataclass, field

PACKAGE = "semitotal"


@dataclass
class Spans:
    """Spans in call order; a parent's index is always below its children's."""

    names: list[str] = field(default_factory=list)
    name: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    parent: array = field(default_factory=lambda: array("i"))

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span; used to build synthetic trees in tests."""
        i = len(self.name)
        self.name.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return i

    def _intern(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1


@dataclass
class LayerTimes:
    calls: dict[str, int]
    self_s: dict[str, float]
    # time covered by a name's spans, counting spans nested in a span of
    # the same name once
    s: dict[str, float]


def layer_times(spans: Spans) -> LayerTimes:
    """Call counts, self seconds and inclusive seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children.  Calls run one at a time, so children never overlap and
    their durations are exactly the part of the parent they cover.
    """
    n = len(spans)
    dur = [spans.end[i] - spans.start[i] for i in range(n)]
    own = list(dur)
    # ancestors[i]: the name ids of span i's strict ancestors
    ancestors: list[frozenset] = [frozenset()] * n
    for i in range(n):
        p = spans.parent[i]
        if p >= 0:
            own[p] -= dur[i]
            ancestors[i] = ancestors[p] | {spans.name[p]}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    for i in range(n):
        nid = spans.name[i]
        g = spans.names[nid]
        calls[g] = calls.get(g, 0) + 1
        self_s[g] = self_s.get(g, 0.0) + own[i]
        if nid not in ancestors[i]:
            incl[g] = incl.get(g, 0.0) + dur[i]
    return LayerTimes(calls, self_s, incl)


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans = Spans()
        self.positives: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, positive=None):
        """A wrapper recording one span per call of fn.  Functions wrapped
        under one name count as one group.

        `positive`, when given, is a predicate on the return value; the
        number of calls it accepts is kept in `positives[name]`.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nid = spans._intern(name)
        names, starts, ends, parents = spans.name, spans.start, spans.end, spans.parent
        positives = self.positives
        if positive is not None:
            positives.setdefault(name, 0)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if positive is not None and positive(result):
                positives[name] += 1
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, targets, tables=()):
        """Wrap each target function wherever the package binds it.

        `targets` maps (module, attribute) to (span name, positive).  Every
        loaded module of the package whose namespace holds the same
        function object gets the wrapper, so calls made through any import
        path are seen.  `tables` lists (dict, key, span name) entries for
        functions reached through a dictionary rather than a module.
        """
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for (module, attr), (name, positive) in targets.items():
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, positive)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)
        for table, key, name in tables:
            original = table[key]
            self._patched.append((table, key, original))
            table[key] = self.wrap(original, name)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()


def write_spans(spans: Spans, path) -> None:
    """Write spans as gzip'd tab-separated lines: index, parent, name,
    start and end in seconds."""
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write("index\tparent\tname\tstart_s\tend_s\n")
        for i in range(len(spans)):
            fh.write(
                f"{i}\t{spans.parent[i]}\t{spans.names[spans.name[i]]}"
                f"\t{spans.start[i]:.9f}\t{spans.end[i]:.9f}\n"
            )
