"""Exception hierarchy shared by all modules."""


class SemitotalError(Exception):
    """Base class for every error raised by this package."""


class InvalidEdge(SemitotalError):
    """An edge refers to a missing vertex, a loop, or a non-edge."""


class PatternTooLarge(SemitotalError):
    """Induced-subgraph search only supports patterns on at most 12 vertices."""


class ParseError(SemitotalError):
    """Malformed textual input (graph6, edge list, or SAT instance).

    Carries the byte offset of the first offending character when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


class GenerationFailed(SemitotalError):
    """A randomised generator exhausted its retry budget."""


class Infeasible(SemitotalError):
    """The requested domination variant has no feasible set on this input."""


class NotInSet(SemitotalError):
    """A vertex argument was required to be a member of the given set."""


class ScaleLimit(SemitotalError):
    """The search or enumeration budget was exhausted before an answer."""


class InvalidSetting(SemitotalError):
    """An environment setting such as SEMITOTAL_BUDGET has an unusable value."""


class InvalidInstance(SemitotalError):
    """A SAT instance violates its declared shape (arity, bounds, ranges)."""


class PreconditionViolated(SemitotalError):
    """The input lies outside the stated domain of the operation."""


class FloorError(SemitotalError):
    """The parameter sits at its universal floor, so no contraction can lower it."""
