"""Exception types shared across the package."""


class HierotError(Exception):
    """Base class for all package errors."""


class InvalidInput(HierotError):
    """Malformed geometric input (dimension mismatch, off-manifold point, ...)."""


class InvalidPoint(InvalidInput):
    """Point coordinates are not on the declared manifold."""


class NonUnitMass(HierotError):
    """Weights of a measure node do not sum to one."""


class LevelMismatch(HierotError):
    """Operands live at different hierarchy levels or on different manifolds."""


class BaseMismatch(HierotError):
    """Velocity plans do not share the same base measure."""


class CouplingMismatch(HierotError):
    """A coupling does not have the expected marginal plans."""


class UnbalancedMarginals(HierotError):
    """Transport marginals do not both sum to one."""


class NumericalFailure(HierotError):
    """The exact solver failed: it ran out of pivots, its basis stopped being a
    spanning tree, or it returned a plan that fails its optimality certificate."""


class TooLarge(HierotError):
    """Brute-force oracle invoked beyond its size limit."""


class DeskScaleError(HierotError):
    """Instance exceeds the configured depth/atom budget."""


class NotOptimalInput(HierotError):
    """An operation requiring a certified optimal plan received a non-optimal one."""


class SchemaError(HierotError):
    """A JSON document does not follow the wire format."""
