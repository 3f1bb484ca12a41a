"""Exception taxonomy shared by every module."""


class MechIndepError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MechIndepError):
    """Malformed or inconsistent user input (shapes aside)."""


class ShapeError(MechIndepError):
    """Dimension mismatch between operands."""


class RankError(MechIndepError):
    """An operation required full column rank (or invertibility) and did not get it."""


class SizeError(MechIndepError):
    """Input exceeds the enumeration caps of an exhaustive search."""


class DegenerateColumn(MechIndepError):
    """A column with empty support where the criterion needs nonempty supports."""


class InternalError(MechIndepError):
    """Two characterizations that must agree disagreed; indicates a bug, not bad input."""


class GenerationError(MechIndepError):
    """A bounded random redraw loop failed to produce an admissible sample."""


class EvalError(MechIndepError):
    """A user-supplied function returned non-finite values during differencing."""
