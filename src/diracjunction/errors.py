"""Exception hierarchy shared by all modules.

Everything user-facing derives from :class:`JunctionError`.  Input and
contract violations are :class:`ValidationError` (a ``ValueError``); a
solver producing an answer that fails its own consistency checks raises
:class:`InternalInconsistencyError` (a ``RuntimeError``).
"""


class JunctionError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(JunctionError, ValueError):
    """An input violates a documented precondition."""


class InternalInconsistencyError(JunctionError, RuntimeError):
    """A computed result failed an internal consistency check."""


class NotUnitaryError(ValidationError):
    """Matrix is not unitary within tolerance."""


class InvalidFormError(ValidationError):
    """Quaternion-form parameters violate |g1|^2 + |g2|^2 = |g3| = 1."""


class NotInClassError(ValidationError):
    """Four-parameter boundary vector fails the admissibility constraints."""


class InvalidBDError(ValidationError):
    """Real four-parameter form violates b1*b4 + b2*b3 = 1."""


class ZeroParameterError(ValidationError):
    """A parameter that must be nonzero is zero."""


class NotUnimodularError(ValidationError):
    """Complex parameter expected on the unit circle is not unimodular."""


class DiagonalInputError(ValidationError):
    """Operation requires a non-diagonal unitary (off-diagonal entry nonzero)."""


class SingularSystemError(ValidationError):
    """Boundary-value matching system is singular (diagonal unitary)."""


class OutsideIslandError(ValidationError):
    """Evaluation point (with stencil) is not strictly inside one half-line."""


class QuadratureFailureError(ValidationError):
    """Quadrature grid cannot meet the requested truncation tolerance."""


class BelowGapError(ValidationError):
    """Energy is at or below the mass gap; no propagating mode exists."""
