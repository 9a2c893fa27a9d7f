"""Exception hierarchy shared by all hcratio modules."""


class HcratioError(Exception):
    """Base class for every error raised by this package."""


class ParseError(HcratioError):
    """Malformed text input (graph file or Newick tree)."""


class DuplicateEdge(ParseError):
    """The same unordered vertex pair appears twice in an edge list."""


class InvalidWeight(ParseError):
    """A weight is negative, NaN, infinite, or not a number at all."""


class SelfLoop(ParseError):
    """An edge connects a vertex to itself."""


class InvalidTriplet(HcratioError):
    """Triplet indices are out of range or not pairwise distinct."""


class LeafMismatch(HcratioError):
    """Tree leaves and graph vertices (or labels) do not line up."""


class InvalidDelta(HcratioError):
    """Perturbation parameter must satisfy delta >= 1."""


class TooLarge(HcratioError):
    """Instance exceeds the exhaustive-search size cap."""


class InvalidParam(HcratioError):
    """Parameter out of range (probability, trials, jobs, ...)."""
