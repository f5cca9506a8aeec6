"""Named forbidden-subgraph patterns and the textual pattern language.

A pattern expression is a '+'-separated sum of components, each an optional
integer multiplier followed by Pk / Ck / Kk or one of the named graphs
(claw, net, longpaw).  Example: "P3+2P2+K1".
"""

from __future__ import annotations

import re
from functools import partial

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
_MULTIPLIER = re.compile(r"\d*", re.ASCII)
_FAMILY = re.compile(r"^([PCK])(\d+)$", re.ASCII)

MAX_EXPRESSION_ORDER = 1000  # forbidden patterns are small; bounds what is allocated


def parse_pattern(text: str) -> Graph:
    """Build the disjoint union described by a pattern expression."""
    if not text or not text.strip():
        raise ParseError("empty pattern expression", offset=0)
    parts = []
    total = 0
    for raw in text.split("+"):
        tok = raw.strip()
        digits = _MULTIPLIER.match(tok).group()
        body = tok[len(digits):]
        count = _at_most(digits, MAX_EXPRESSION_ORDER) if digits else 1
        name = body.lower().replace("-", "").replace("_", "")
        family = _FAMILY.match(body)
        if name in _NAMED:
            make = _NAMED[name]
            order = make().n
        elif family:
            kind, order = family.group(1), _at_most(family.group(2), MAX_EXPRESSION_ORDER)
            if order < 1 or (kind == "C" and order < 3):
                raise ParseError(f"order out of range in {tok!r}")
            make = partial({"P": path_graph, "C": cycle_graph, "K": complete_graph}[kind], order)
        else:
            raise ParseError(f"unrecognised pattern term {tok!r}")
        if count < 1:
            raise ParseError(f"multiplier must be positive in {tok!r}")
        total += count * order
        if total > MAX_EXPRESSION_ORDER:
            raise PatternTooLarge(f"pattern exceeds {MAX_EXPRESSION_ORDER} vertices at {tok!r}")
        parts.extend(make() for _ in range(count))
    return disjoint_union(parts)
