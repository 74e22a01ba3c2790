"""Exception types raised by the metricdim library."""


class MetricDimError(Exception):
    """Base class for all metricdim errors."""


class InvalidEdge(MetricDimError):
    """Edge endpoint out of range, or a self-loop."""


class TooSmall(MetricDimError):
    """Graph order below the supported minimum (two vertices)."""


class TooLarge(MetricDimError):
    """Input exceeds a solver cap; pass an explicit cap to override."""


class NotConnected(MetricDimError):
    """Operation requires a connected graph."""


class EmptySet(MetricDimError):
    """A non-empty vertex set was required."""


class InvalidAnchor(MetricDimError):
    """Anchor set contains vertices outside the graph."""


class InvalidOption(MetricDimError):
    """Solver or command option outside its admissible domain."""


class InvalidSpec(MetricDimError):
    """Family parameters outside their admissible domain."""


class RuleViolation(InvalidSpec):
    """Layered-family description violates a construction rule."""

    def __init__(self, rule: str, message: str = ""):
        self.rule = rule
        super().__init__(f"{rule}: {message}" if message else rule)


class GenerationFailed(MetricDimError):
    """Random generation exhausted its rejection budget."""


class NotATree(MetricDimError):
    """Operation requires a tree."""


class NotUnicyclic(MetricDimError):
    """Operation requires a unicyclic graph (connected, m == n)."""


class IsAPath(MetricDimError):
    """Operation is undefined for paths."""


class TooMany(MetricDimError):
    """Enumeration would exceed its output cap."""


class Unsupported(MetricDimError):
    """No closed form is known for this input."""


class ParseError(MetricDimError):
    """Malformed or unreadable graph file; carries the offending line number.

    Line number 0 marks an error about the file as a whole.
    """

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if line_no else message)


class HeaderMismatch(MetricDimError):
    """Declared header counts disagree with the file body."""
