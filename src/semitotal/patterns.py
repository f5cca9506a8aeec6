"""Named forbidden-subgraph patterns and the textual pattern language.

A pattern expression is a '+'-separated sum of components, each an optional
integer multiplier followed by Pk / Ck / Kk or one of the named graphs
(claw, net, longpaw).  Example: "P3+2P2+K1".
"""

from __future__ import annotations

import re

from .errors import ParseError, PatternTooLarge
from .graphs import (
    Graph,
    _at_most,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)


def claw() -> Graph:
    return star_graph(4)


def net() -> Graph:
    """Triangle 0,1,2 with one pendant leaf on each triangle vertex."""
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])


def long_paw() -> Graph:
    """Triangle 0,1,2 with a path 2-3-4 attached."""
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])


_NAMED = {
    "claw": claw,
    "net": net,
    "longpaw": long_paw,
}

# ASCII only: \d alone also matches the digits of other scripts
_TERM = re.compile(r"^(\d*)([PCK])(\d+)$", re.ASCII)

MAX_EXPRESSION_ORDER = 1000  # forbidden patterns are small; bounds what is allocated


def parse_pattern(text: str) -> Graph:
    """Build the disjoint union described by a pattern expression."""
    if not text or not text.strip():
        raise ParseError("empty pattern expression", offset=0)
    parts = []
    total = 0
    for raw in text.split("+"):
        tok = raw.strip()
        key = tok.lower().replace("-", "").replace("_", "")
        if key in _NAMED:
            parts.append(_NAMED[key]())
            continue
        m = _TERM.match(tok)
        if not m:
            raise ParseError(f"unrecognised pattern term {tok!r}")
        count = _at_most(m.group(1), MAX_EXPRESSION_ORDER) if m.group(1) else 1
        kind, order = m.group(2), _at_most(m.group(3), MAX_EXPRESSION_ORDER)
        if count < 1:
            raise ParseError(f"multiplier must be positive in {tok!r}")
        if order < 1 or (kind == "C" and order < 3):
            raise ParseError(f"order out of range in {tok!r}")
        total += count * order
        if total > MAX_EXPRESSION_ORDER:
            raise PatternTooLarge(f"pattern exceeds {MAX_EXPRESSION_ORDER} vertices at {tok!r}")
        base = {"P": path_graph, "C": cycle_graph, "K": complete_graph}[kind]
        parts.extend(base(order) for _ in range(count))
    return disjoint_union(parts)
