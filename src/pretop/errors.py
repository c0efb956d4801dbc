"""Exception hierarchy shared by the whole workbench."""


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


# -- interval algebra -------------------------------------------------------

class MalformedInterval(WorkbenchError):
    """Endpoint pair that cannot denote an interval (lo > hi, or an
    infinite endpoint on the wrong side)."""


class AxisMismatch(WorkbenchError):
    """Operation mixing interval sets over different axis domains."""


# -- definable sets ---------------------------------------------------------

class SchemaMismatch(WorkbenchError):
    """Operation mixing definable sets over different ground schemas."""


class UnknownPoint(WorkbenchError):
    """Point reference that does not belong to the schema."""


# -- finite spaces ----------------------------------------------------------

class AxiomViolation(WorkbenchError):
    """Vicinity table where some point is missing from its own kernel."""


class EmptyKernel(WorkbenchError):
    """Attempt to build a filter with an empty kernel."""


class PointSetMismatch(WorkbenchError):
    """Two finite spaces compared although their point sets differ."""


class SizeLimit(WorkbenchError):
    """Exhaustive enumeration requested beyond the supported size."""


class EmptySubspace(WorkbenchError):
    """Restriction of a space to an empty point set."""


class InvalidTopology(WorkbenchError):
    """Family of open sets that fails the topology axioms."""


# -- symbolic engine --------------------------------------------------------

class PatternGap(WorkbenchError):
    """Rule patterns that fail to cover the whole carrier."""


class PatternOverlap(WorkbenchError):
    """Two rule patterns claiming the same point."""


class NonMonotoneRule(WorkbenchError):
    """Vicinity template that grows as its parameter increases."""


class SelfMembershipViolation(WorkbenchError):
    """Vicinity template that omits the point it belongs to."""


class FragmentEscape(WorkbenchError):
    """Exact answer left the definable fragment; refusing to approximate."""


class UnknownBuiltin(WorkbenchError):
    """Builtin space name that is not provided."""


class WindowTooSmall(WorkbenchError):
    """Truncation window too small to be faithful to the rule constants."""


# -- maps and constructions -------------------------------------------------

class NotDense(WorkbenchError):
    """Extension whose base set is not dense in the ambient space."""


class UnclassifiableImageTrace(WorkbenchError):
    """Image trace of an end that is neither convergent nor an end of the
    target space."""


# -- model files ------------------------------------------------------------

class ParseError(WorkbenchError):
    """Syntax error in a model file; carries line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ResolutionError(WorkbenchError):
    """Name used in a model file that is never declared."""
