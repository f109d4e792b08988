"""Exception types shared across the package.

Errors that indicate a bug in this library (violated theorems, failed
certificates) are InternalInvariantError; everything else reports bad input.
"""


class HypersplitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HypersplitError):
    """Input file or serialized payload is malformed."""


class InvalidCutError(HypersplitError):
    """Cut side is empty or covers the whole vertex set."""


class InvalidQueryError(HypersplitError):
    """Query endpoints coincide (u == v, or source == sink)."""


class UnknownVertexError(HypersplitError):
    """A vertex id or name is not part of the instance."""


class NonTerminalEndpointError(HypersplitError):
    """An element-connectivity query endpoint is not a terminal."""


class MissingEdgeError(HypersplitError):
    """An edge or hyperedge id does not exist in the instance."""


class TrimMissingVertexError(HypersplitError):
    """Trim target hyperedge does not contain the split vertex."""


class MergeNotAlmostDisjointError(HypersplitError):
    """Merge inputs intersect in something other than exactly the split vertex."""


class ReplayError(HypersplitError):
    """An operation in a replayed log failed; carries the failing index."""

    def __init__(self, index: int, cause: HypersplitError):
        super().__init__(f"operation {index} failed: {cause}")
        self.index = index
        self.cause = cause


class InstanceTooLargeError(HypersplitError):
    """Instance exceeds the brute-force enumeration bounds."""


class InternalInvariantError(HypersplitError):
    """A guaranteed invariant failed; indicates a bug in this library."""
