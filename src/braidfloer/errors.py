"""Exception types shared across the package."""


class BraidInputError(ValueError):
    """Malformed braid data: bad generator index, strand mismatch, bad syntax."""


class TransversalityError(ValueError):
    """Anchor data violates the transversality rules for discretized braids."""


class AmbiguousDiagramError(ValueError):
    """Crossing events of a discretized braid cannot be ordered unambiguously."""


class ImproperClassError(ValueError):
    """A relative braid class is improper; carries the collapsing cell."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateCrossingError(ValueError):
    """A Maslov crossing form has a (numerically) zero eigenvalue."""


class StationaryDegenerateError(ValueError):
    """det(Psi(tau) - sigma) vanishes at the endpoint: degenerate stationary braid."""


class StiffnessError(RuntimeError):
    """Adaptive integration cannot reach the requested drift bound."""


class BoundaryContactError(RuntimeError):
    """A parabolic trajectory reached the disc boundary."""


class MonotonicityViolationError(RuntimeError):
    """Crossing number increased along a parabolic flow step; implementation bug."""


class StabilizationError(RuntimeError):
    """Betti tables at consecutive periods disagree; result withheld."""
