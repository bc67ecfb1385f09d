"""Boundary-condition data types for the two-half-line Dirac junction.

Two families exist: separating conditions, a pair of extended reals
(rho_plus, rho_minus) imposing ``i*rho*psi_up = psi_down`` independently
at each face (``psi_up = 0`` for rho = +inf); and transmitting
conditions, four complex parameters (a1, a2, a3, a4) whose matrix
``B = [[a1, a2], [a3, a4]]`` couples the faces via ``psi(+L) = B psi(-L)``.
The admissible transmitting vectors form the class

    Re(a1 a2*) = Re(a1 a3*) = Re(a2 a4*) = Re(a3 a4*) = 0,
    a1 a4* + a2 a3* = a1 a4* + a2* a3 = 1,

equivalent to the real four-parameter family
``e^{i theta} [[b1, i b2], [i b3, b4]]`` with ``b1 b4 + b2 b3 = 1``
(:class:`BDForm`).  Every admissible matrix preserves the probability
current ``j = 2 Re(psi_up* psi_down)`` across the junction.

Random-instance generators live here (not in the tests) so the CLI
fuzzing entry point can reuse them.  They draw only ``uniform(low, high)``
and ``random()``, so a :class:`random.Random` or a numpy ``Generator``
drives them.
"""

from __future__ import annotations

import math
from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import (
    InvalidBDError,
    NotInClassError,
    ValidationError,
    ZeroParameterError,
)
from .matrix2 import BOUND, DEFAULT_TOL, MAX_MAGNITUDE, NORM_FLOOR, arg_2pi, record_type

if TYPE_CHECKING:
    import random

    import numpy as np

TWO_PI = 2.0 * math.pi


class Island(Enum):
    """One of the two half-lines: LEFT is (-inf, -L), RIGHT is (L, inf)."""

    LEFT = "left"
    RIGHT = "right"


def _check_extended_real(value: float, name: str) -> float:
    v = float(value)
    if not (abs(v) <= MAX_MAGNITUDE or v == math.inf):
        raise ValidationError(f"{name} must be +inf or of modulus <= {BOUND}, got {value!r}")
    return v


@record_type
class _RhoFields(NamedTuple):
    rho_plus: float
    rho_minus: float


class RhoBC(_RhoFields):
    """Separating condition; each component is +inf or of modulus <= MAX_MAGNITUDE."""

    __slots__ = ()

    def __new__(cls, rho_plus: float, rho_minus: float):
        _check_extended_real(rho_plus, "rho_plus")
        _check_extended_real(rho_minus, "rho_minus")
        return super().__new__(cls, rho_plus, rho_minus)

    @classmethod
    def _make(cls, fields):  # so that _replace validates too
        return cls(*fields)


@record_type
class _AlphaFields(NamedTuple):
    a1: complex
    a2: complex
    a3: complex
    a4: complex


class AlphaBC(_AlphaFields):
    """Transmitting condition parameters (a1, a2, a3, a4).  The reports of
    :func:`validate_class` and the forms of :func:`phase_form` are kept in
    ``__dict__``, which equality, hashing, ``repr``, pickling and copying
    ignore."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __getstate__(self):
        return None  # the stored reports are not state

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.a1), complex(self.a2), complex(self.a3), complex(self.a4))

    def matrix(self) -> np.ndarray:
        """The boundary matrix [[a1, a2], [a3, a4]]."""
        import numpy as np

        return np.array([[self.a1, self.a2], [self.a3, self.a4]], dtype=complex)


@record_type
class BDForm(NamedTuple):
    """Real four-parameter form: theta in [0, 2*pi), b1*b4 + b2*b3 = 1."""

    theta: float
    b1: float
    b2: float
    b3: float
    b4: float

    def residual(self) -> float:
        return abs(self.b1 * self.b4 + self.b2 * self.b3 - 1.0)

    def bs(self) -> tuple[float, float, float, float]:
        return (self.b1, self.b2, self.b3, self.b4)


class ClassReport(NamedTuple):
    """Outcome of :func:`validate_class`: per-constraint residuals (a
    read-only mapping, since one report is shared by every caller) and the
    scales their limits are taken in."""

    residuals: Mapping[str, float]
    scale: float  # of the four orthogonality constraints
    det_scale: float  # of the two determinant constraints
    failed: tuple[str, ...]  # the constraints over their limits

    @property
    def valid(self) -> bool:
        return not self.failed

    def worst(self) -> tuple[str, float]:
        """The failing constraint with the largest residual when there are
        any, else the constraint with the largest residual in units of the
        scale of its limit."""
        if self.failed:
            name = max(self.failed, key=self.residuals.get)
        else:
            name = max(self.residuals, key=lambda n: self.residuals[n] / self.scale_of(n))
        return name, self.residuals[name]

    def scale_of(self, name: str) -> float:
        """The scale of constraint ``name``'s limit, ``tol`` times this."""
        return self.det_scale if name.startswith("unit_det") else self.scale


def validate_class(a: AlphaBC, tol: float = DEFAULT_TOL) -> ClassReport:
    """Check the six admissibility constraints, reporting each residual.

    An orthogonality residual |Re(a_i a_j*)| passes when it is at most
    tol * max(1, sum |a_i|^2); a determinant residual |a1 a4* + a2 a3* - 1|
    (or with a2* a3) when it is at most tol * max(1, |a1||a4| + |a2||a3|),
    the size of the products it subtracts 1 from.  Both verdicts are
    invariant under rescaling the overall magnitude of the data.  Raises
    :class:`ValidationError` when a modulus |a_i| exceeds
    B = :data:`~.matrix2.MAX_MAGNITUDE` or is NaN; below B every product and
    every residual is finite.

    The report is computed once per condition object and ``tol``, kept on
    the object, and returned again by later calls, so the maps, the
    scattering kernel and ``verify`` share one measurement.  Two threads
    racing on a fresh object at most compute the same report twice.
    """
    reports = a.__dict__.setdefault("_class_reports", {})
    report = reports.get(tol)
    if report is None:
        report = reports[tol] = _measure_class(a, tol)
    return report


def _measure_class(a: AlphaBC, tol: float) -> ClassReport:
    """The :func:`validate_class` report, computed afresh."""
    a1, a2, a3, a4 = complex(a.a1), complex(a.a2), complex(a.a3), complex(a.a4)
    x1, y1, x2, y2 = a1.real, a1.imag, a2.real, a2.imag
    x3, y3, x4, y4 = a3.real, a3.imag, a4.real, a4.imag
    m1, m2, m3, m4 = math.hypot(x1, y1), math.hypot(x2, y2), math.hypot(x3, y3), math.hypot(x4, y4)
    if not (m1 <= MAX_MAGNITUDE and m2 <= MAX_MAGNITUDE and m3 <= MAX_MAGNITUDE and m4 <= MAX_MAGNITUDE):  # or NaN
        raise ValidationError(f"a boundary parameter's modulus is NaN or above {BOUND}")
    r12, r13 = abs(x1 * x2 + y1 * y2), abs(x1 * x3 + y1 * y3)
    r24, r34 = abs(x2 * x4 + y2 * y4), abs(x3 * x4 + y3 * y4)
    p = a1 * a4.conjugate()
    det_plus, det_conj = abs(p + a2 * a3.conjugate() - 1.0), abs(p + a2.conjugate() * a3 - 1.0)
    # maxima by comparison: a max() call costs more than the rest of its line
    big = m1 if m1 > m2 else m2
    big = big if big > m3 else m3
    big = big if big > m4 else m4
    # the moduli in units of big (Higham, *Accuracy and Stability of
    # Numerical Algorithms*, 2nd ed., sec. 2)
    s1, s2, s3, s4 = (m1 / big, m2 / big, m3 / big, m4 / big) if big else (m1, m2, m3, m4)
    sigma = s1 ** 2 + s2 ** 2 + s3 ** 2 + s4 ** 2
    scale, det_scale = big * big * sigma, m1 * m4 + m2 * m3
    scale, det_scale = (scale if scale > 1.0 else 1.0), (det_scale if det_scale > 1.0 else 1.0)
    residuals = MappingProxyType({
        "re_a1_a2": r12, "re_a1_a3": r13, "re_a2_a4": r24, "re_a3_a4": r34,
        "unit_det_plus": det_plus, "unit_det_conj": det_conj,
    })
    # all pass: r <= tol * scale
    orth_limit, det_limit = tol * scale, tol * det_scale
    if (
        r12 <= orth_limit and r13 <= orth_limit and r24 <= orth_limit and r34 <= orth_limit
        and det_plus <= det_limit and det_conj <= det_limit
    ):
        return ClassReport(residuals, scale, det_scale, ())
    failed = tuple(n for n, r in residuals.items() if not r <= (det_limit if n.startswith("unit") else orth_limit))
    return ClassReport(residuals, scale, det_scale, failed)


def require_class(a: AlphaBC, tol: float = DEFAULT_TOL) -> ClassReport:
    """The passing :func:`validate_class` report; raises
    :class:`NotInClassError` naming the worst constraint otherwise."""
    report = validate_class(a, tol)
    if not report.valid:
        name, value = report.worst()
        raise NotInClassError(
            f"boundary parameters fail class constraint {name}: "
            f"residual {value:.3e} > {tol:.1e} * scale {report.scale_of(name):.3e}"
        )
    return report


def alpha_to_bd(a: AlphaBC, tol: float = DEFAULT_TOL) -> BDForm:
    """Extract (theta, b1..b4) with B = e^{i theta} [[b1, i b2], [i b3, b4]].

    Pivots on a1 when |a1| > tol * max(|a1|, |a3|), else on a3; for class
    input at least one of a1, a3 is nonzero.  The pivot is divided by its
    modulus before any product is formed.  The b's are real for class input
    up to rounding; residual imaginary parts beyond tolerance raise
    :class:`NotInClassError`.  Like the class report, the form is computed
    once per condition object and ``tol`` (:func:`phase_form`).
    """
    return phase_form(a, tol)[0]


def phase_form(a: AlphaBC, tol: float = DEFAULT_TOL) -> tuple[BDForm, complex]:
    """The :func:`alpha_to_bd` form and e^{i theta} as the unit complex the
    b's were taken against (its argument is theta), kept on the condition
    next to its class reports."""
    forms = a.__dict__.setdefault("_bd_forms", {})
    form = forms.get(tol)
    if form is None:
        require_class(a, tol)
        form = forms[tol] = _extract_form(a, tol)
    return form


def _extract_form(a: AlphaBC, tol: float) -> tuple[BDForm, complex]:
    """The :func:`phase_form` of a class member, computed afresh."""
    a1, a2, a3, a4 = a.as_tuple()
    r1, r3 = abs(a1), abs(a3)
    if r1 > tol * (r1 if r1 > r3 else r3):
        theta = arg_2pi(a1)
        phase = a1 / r1
        u = phase.conjugate()
        w = -1j * u
        b1, b2, b3, b4 = complex(r1), w * a2, w * a3, u * a4
    else:
        if a3 == 0:
            raise NotInClassError("a1 ~ 0 and a3 = 0: no admissible matrix has both")
        phase = -1j * a3 / r3
        theta = arg_2pi(phase)
        u = (a3 / r3).conjugate()
        w = 1j * u
        b1, b2, b3, b4 = w * a1, u * a2, complex(r3), w * a4
    # the limit is max(tol, NORM_FLOOR) * max(1, |b_i|), as the b's carry
    # about one ulp of rounding, so only an imaginary part over the floor
    # needs the moduli
    floor = tol if tol > NORM_FLOOR else NORM_FLOOR
    if abs(b1.imag) > floor or abs(b2.imag) > floor or abs(b3.imag) > floor or abs(b4.imag) > floor:
        worst_imag = max(abs(b1.imag), abs(b2.imag), abs(b3.imag), abs(b4.imag))
        if worst_imag > floor * max(1.0, abs(b1), abs(b2), abs(b3), abs(b4)):
            raise NotInClassError(
                f"extracted parameters are not real: max imaginary part {worst_imag:.3e}"
            )
    return BDForm(theta, b1.real, b2.real, b3.real, b4.real), phase


def bd_to_alpha(f: BDForm, tol: float = DEFAULT_TOL) -> AlphaBC:
    """Expand (theta, b1..b4) into the four complex boundary parameters.
    Raises :class:`InvalidBDError` unless theta is finite, each |b_i| is at
    most B = :data:`~.matrix2.MAX_MAGNITUDE` and b1*b4 + b2*b3 = 1 holds
    within tol * max(1, |b1 b4| + |b2 b3|), as in :func:`validate_class`."""
    theta, b1, b2, b3, b4 = f
    bound = MAX_MAGNITUDE  # x - x is NaN unless x is finite; NaN fails every comparison
    if not (theta - theta == 0 and abs(b1) <= bound and abs(b2) <= bound and abs(b3) <= bound and abs(b4) <= bound):
        raise InvalidBDError(f"theta must be finite and each |b_i| <= {BOUND}, got {f!r}")
    residual = f.residual()
    if not residual <= tol * max(1.0, abs(b1 * b4) + abs(b2 * b3)):
        raise InvalidBDError(f"b1*b4 + b2*b3 = 1 violated: residual {residual:.3e}")
    phase = complex(math.cos(theta), math.sin(theta))
    i_phase = 1j * phase
    return AlphaBC(phase * b1, i_phase * b2, i_phase * b3, phase * b4)


def invert_alpha(a: AlphaBC, tol: float = DEFAULT_TOL) -> AlphaBC:
    """Parameters of the inverse boundary matrix: B^{-1} = [[a4*, a2*], [a3*, a1*]]."""
    require_class(a, tol)
    a1, a2, a3, a4 = a.as_tuple()
    return AlphaBC(a4.conjugate(), a2.conjugate(), a3.conjugate(), a1.conjugate())


def make_spin_flip(theta: float, b2: float) -> AlphaBC:
    """Transmitting condition interchanging the spin components:
    B = e^{i(theta + pi/2)} [[0, b2], [1/b2, 0]]."""
    if b2 == 0.0:
        raise ZeroParameterError("b2 must be nonzero")
    return bd_to_alpha(BDForm(theta % TWO_PI, 0.0, float(b2), 1.0 / float(b2), 0.0))


def make_phase_shift(theta: float, b1: float) -> AlphaBC:
    """Transmitting condition preserving spin components:
    B = e^{i theta} diag(b1, 1/b1)."""
    if b1 == 0.0:
        raise ZeroParameterError("b1 must be nonzero")
    return bd_to_alpha(BDForm(theta % TWO_PI, float(b1), 0.0, 0.0, 1.0 / float(b1)))


# ---------------------------------------------------------------------------
# Random-instance generators (reused by the CLI fuzzer and the test suite)
# ---------------------------------------------------------------------------


def _log_uniform(rng: random.Random) -> float:
    mag = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
    return mag if rng.random() < 0.5 else -mag


def random_bdform(rng: random.Random) -> BDForm:
    """theta uniform; b2, b3 bounded log-uniform with random sign; b1 likewise;
    b4 = (1 - b2*b3)/b1 closes the constraint exactly.

    The bounds keep the resulting parameter magnitudes below ~1e2 so that
    double-precision round trips through the extension matrix (forward
    error ~ eps * |a|^2) stay well inside 1e-10.
    """
    theta = rng.uniform(0.0, TWO_PI)
    b2 = _log_uniform(rng)
    b3 = _log_uniform(rng)
    b1 = _log_uniform(rng)
    b4 = (1.0 - b2 * b3) / b1
    return BDForm(theta, b1, b2, b3, b4)


def random_alpha(rng: random.Random) -> AlphaBC:
    """Random class-valid transmitting condition."""
    return bd_to_alpha(random_bdform(rng))


def random_rho(rng: random.Random) -> RhoBC:
    """Random separating condition; each component +inf with probability
    0.15, else standard Cauchy (covers the whole tangent range).

    Finite draws are capped at |rho| = 1e3, far inside the bound
    B = :data:`~.matrix2.MAX_MAGNITUDE` that :class:`RhoBC` holds every
    finite rho to.
    """

    def component() -> float:
        if rng.random() < 0.15:
            return math.inf
        while True:
            x = math.tan(math.pi * (rng.random() - 0.5))
            if abs(x) <= 1e3:
                return x

    return RhoBC(component(), component())

