"""Exception hierarchy shared by all radoncomp modules."""


class RadoncompError(Exception):
    """Base class for all radoncomp errors."""


class InvalidGrid(RadoncompError):
    """Sphere grid parameters violate the size/parity constraints."""


class BandwidthExceeded(RadoncompError):
    """Requested harmonic degree is above the grid's exact bandwidth."""


class OutOfRange(RadoncompError):
    """Out of range: a multiplier's k and p, an exponent, a norm, a report number."""


class NotPositive(RadoncompError):
    """An operation requiring a strictly positive function got one that is not."""


class DegenerateInput(RadoncompError):
    """An integral that must be positive vanished."""


class DominationFails(RadoncompError):
    """The pointwise Radon-transform domination hypothesis does not hold."""


class NotApplicable(RadoncompError):
    """Counterexample construction requested where the hypothesis side is certified."""


class ConstructionFailed(RadoncompError):
    """Counterexample search exhausted its parameter budget without meeting the margins."""


class GridMismatch(RadoncompError):
    """Two sampled objects do not share the same grid."""


class DecayTooSlow(RadoncompError):
    """A radial profile's decay tag admits non-integrable hyperplane integrals."""


class TailTooHeavy(RadoncompError):
    """Truncated-grid integral has a boundary contribution above tolerance."""


class GridTooCoarse(RadoncompError):
    """The 1D frequency grid does not capture the tail of the transform."""


class CertificateRequired(RadoncompError):
    """Operation needs a prior intersection-function certificate."""


class InputInvalid(RadoncompError):
    """Input outside the admissible function class (decay tag, parity, sign)."""


class ExprError(RadoncompError):
    """Base class for expression-language errors; carries a 1-based position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifier(ExprError):
    pass


class ArityError(ExprError):
    pass
