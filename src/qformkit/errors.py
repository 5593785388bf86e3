"""Exception hierarchy shared across the package."""


class QFormError(Exception):
    """Base class for all library errors."""


class FormatError(QFormError):
    """Malformed input file or JSON payload."""


class MismatchedRadicand(QFormError):
    """Two quadratic-extension values with different radicands were combined."""


class DimensionMismatch(QFormError):
    pass


class NonSymmetricMatrix(QFormError):
    """Input matrix for a quadratic form is not exactly symmetric."""


class NotIndefinite(QFormError):
    """The containment decision requires an indefinite base form."""


class NotSemidefinite(QFormError):
    """The semidefinite machinery got a form that is not semidefinite."""


class NoWitnessFound(QFormError):
    """A complete witness search (the form family, or the cone sweep of
    poly-contain) came back empty: a fault of qformkit, never a verdict."""


class DegreeMismatch(QFormError):
    pass


class NotPythagorean(QFormError):
    """a^2 + b^2 != h^2 for a rational boost/rotation triple."""


class InvalidSpeed(QFormError):
    pass


class ContainmentFails(QFormError):
    """Zero-set containment was refuted; carries a witness where q vanishes and r does not."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NumericalFailure(QFormError):
    """Floating-point residual exceeded the requested tolerance."""


class CertificateRejected(QFormError):
    """An independent re-check rejected a certificate the library produced;
    a fault of qformkit itself, never a verdict about the input."""
