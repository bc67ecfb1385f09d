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
(:class:`BDForm`), in which :func:`validate_class` measures membership.
Every admissible matrix preserves the probability current
``j = 2 Re(psi_up* psi_down)`` across the junction.

Random-instance generators live here (not in the tests) so the CLI
fuzzing entry point can reuse them.  They draw only ``uniform(low, high)``
and ``random()``, so a :class:`random.Random` or a numpy ``Generator``
drives them.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from .errors import (
    InvalidBDError,
    NotInClassError,
    ValidationError,
    ZeroParameterError,
)
from .matrix2 import BOUND, DEFAULT_TOL, MAX_MAGNITUDE, NORM_FLOOR, Record, _new, arg_2pi

if TYPE_CHECKING:
    import random

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


class RhoBC(Record):
    """Separating condition; each component is a Python float, +inf or of
    modulus <= MAX_MAGNITUDE."""

    __slots__ = ()

    def __new__(cls, rho_plus: float, rho_minus: float):
        return _new(cls, (_check_extended_real(rho_plus, "rho_plus"), _check_extended_real(rho_minus, "rho_minus")))


class AlphaBC(Record):
    """Transmitting condition parameters (a1, a2, a3, a4), each held as a
    Python complex.  The reports of :func:`validate_class` are kept in
    ``__dict__``, which equality, hashing, ``repr``, pickling and copying
    ignore."""

    def __new__(cls, a1: complex, a2: complex, a3: complex, a4: complex):
        return _new(cls, (complex(a1), complex(a2), complex(a3), complex(a4)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __getstate__(self):
        return None  # the stored reports are not state

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        """The four entries as a plain tuple (``perfbench`` reads them so)."""
        return tuple(self)


class BDForm(Record):
    """Real four-parameter form: theta in [0, 2*pi), b1*b4 + b2*b3 = 1."""

    __slots__ = ()

    def __new__(cls, theta: float, b1: float, b2: float, b3: float, b4: float):
        return _new(cls, (theta, b1, b2, b3, b4))

    def bs(self) -> tuple[float, float, float, float]:
        return (self.b1, self.b2, self.b3, self.b4)


class ClassReport(Record):
    """Outcome of :func:`validate_class`: the condition's distance from the
    class, the limit it is held to, and the b-form of the real parts with
    the unit complex e^{i theta} the b's were taken against (both None
    when a1 ~ 0 and a3 = 0 leave no pivot)."""

    __slots__ = ()

    def __new__(cls, distance: float, limit: float, form: BDForm | None, phase: complex | None):
        return _new(cls, (distance, limit, form, phase))

    @property
    def valid(self) -> bool:
        return self.distance <= self.limit


def _unit_det(b1: complex, b2: complex, b3: complex, b4: complex) -> tuple[float, float]:
    """|b1* b4 + b3* b2 - 1|, the corner of B^dag J B - J in the b's, and the
    size of the products it is formed from, max(1, |b1||b4| + |b2||b3|).
    For real b's this is the residual of b1 b4 + b2 b3 = 1."""
    size = abs(b1) * abs(b4) + abs(b2) * abs(b3)
    return abs(b1.conjugate() * b4 + b3.conjugate() * b2 - 1.0), (size if size > 1.0 else 1.0)


def validate_class(a: AlphaBC, tol: float = DEFAULT_TOL) -> ClassReport:
    """Measure how far ``a`` is from the class, in its b-form.

    Pivots on a1 when |a1| > tol * max(|a1|, |a3|), else on a3, divides the
    pivot by its modulus and takes b1..b4 from e^{-i theta} B.  On the class
    the b's are real and B preserves the current, B^dag J B = J with
    J = [[0, 1], [1, 0]].  The distance is the largest of
    max |Im b_i| / max(1, max |a_i|), the imaginary parts the form drops;
    |Im(b1* b3)| / max(1, |b1||b3|) and |Im(b2* b4)| / max(1, |b2||b4|),
    the diagonal of B^dag J B - J over 2; and
    |b1* b4 + b3* b2 - 1| / max(1, |b1||b4| + |b2||b3|), its corner.  Each
    entry is held against the products it is formed from, so an imaginary
    part that is small beside max |a_i| but not beside its partner in a
    product still counts.  The distance is inf when a1 ~ 0 and a3 = 0,
    which no member has.  The condition is valid when the distance is at
    most max(tol, :data:`~.matrix2.NORM_FLOOR`), as the b's carry a few
    units of roundoff.  Raises :class:`ValidationError` when a modulus
    |a_i| exceeds B = :data:`~.matrix2.MAX_MAGNITUDE` or is NaN; below B
    every product is finite.

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


#: The smallest normal float: the modulus of a smaller pivot has too few digits to divide it by.
_NORMAL = 2.0**-1022


def _scaled(z: complex) -> tuple[complex, float]:
    """A pivot ``z`` of subnormal modulus and that modulus, both times 2^600: exactly, and with every
    digit, so that their quotient is the pivot's direction."""
    z = complex(z.real * 2.0**600, z.imag * 2.0**600)
    return z, abs(z)


def _measure_class(a: AlphaBC, tol: float) -> ClassReport:
    """The :func:`validate_class` report, computed afresh."""
    a1, a2, a3, a4 = a
    # math.hypot, as abs() of a complex overflows at a modulus of 1.5e308
    m1, m2 = math.hypot(a1.real, a1.imag), math.hypot(a2.real, a2.imag)
    m3, m4 = math.hypot(a3.real, a3.imag), math.hypot(a4.real, a4.imag)
    if not (m1 <= MAX_MAGNITUDE and m2 <= MAX_MAGNITUDE and m3 <= MAX_MAGNITUDE and m4 <= MAX_MAGNITUDE):  # or NaN
        raise ValidationError(f"a boundary parameter's modulus is NaN or above {BOUND}")
    limit = NORM_FLOOR if tol < NORM_FLOOR else tol  # a NaN tol is a NaN limit, which nothing meets
    # the pivot's modulus by abs(), which math.hypot can miss by an ulp: the
    # form's bits are pinned (tests/test_map_layer_bits.py)
    r1, r3 = abs(a1), abs(a3)
    if r1 > tol * (r1 if r1 > r3 else r3):
        theta = arg_2pi(a1)
        p1, s1 = (a1, r1) if r1 >= _NORMAL else _scaled(a1)
        phase = p1 / s1
        u = phase.conjugate()
        w = -1j * u
        b1, b2, b3, b4 = complex(r1), w * a2, w * a3, u * a4
    elif a3 == 0:
        return ClassReport(math.inf, limit, None, None)
    else:
        p3, s3 = (a3, r3) if r3 >= _NORMAL else _scaled(a3)
        phase = -1j * p3 / s3
        theta = arg_2pi(phase)
        u = (p3 / s3).conjugate()
        w = 1j * u
        b1, b2, b3, b4 = w * a1, u * a2, complex(r3), w * a4
    # maxima by comparison: a max() call costs more than the rest of its line
    big = m1 if m1 > m2 else m2
    big = big if big > m3 else m3
    big = big if big > m4 else m4
    imag = max(abs(b1.imag), abs(b2.imag), abs(b3.imag), abs(b4.imag)) / (big if big > 1.0 else 1.0)
    # |b_i| = |a_i|, up to an ulp
    s13, s24 = m1 * m3, m2 * m4
    d13 = abs((b1.conjugate() * b3).imag) / (s13 if s13 > 1.0 else 1.0)
    d24 = abs((b2.conjugate() * b4).imag) / (s24 if s24 > 1.0 else 1.0)
    residual, size = _unit_det(b1, b2, b3, b4)
    distance = max(imag, d13, d24, residual / size)
    return ClassReport(distance, limit, BDForm(theta, b1.real, b2.real, b3.real, b4.real), phase)


def require_class(a: AlphaBC, tol: float = DEFAULT_TOL) -> ClassReport:
    """The passing :func:`validate_class` report; raises
    :class:`NotInClassError` giving the distance otherwise."""
    report = validate_class(a, tol)
    if not report.valid:
        raise NotInClassError(
            f"boundary parameters are not in the class: distance {report.distance:.3e} > {report.limit:.1e}"
        )
    return report


def alpha_to_bd(a: AlphaBC, tol: float = DEFAULT_TOL) -> BDForm:
    """(theta, b1..b4) with B = e^{i theta} [[b1, i b2], [i b3, b4]]: the
    form of the :func:`validate_class` report, which must pass (else
    :class:`NotInClassError`)."""
    return require_class(a, tol).form


def bd_to_alpha(f: BDForm, tol: float = DEFAULT_TOL) -> AlphaBC:
    """Expand (theta, b1..b4) into the four complex boundary parameters.
    Raises :class:`InvalidBDError` unless theta is finite, each |b_i| is at
    most B = :data:`~.matrix2.MAX_MAGNITUDE` and b1*b4 + b2*b3 = 1 holds
    within tol * max(1, |b1 b4| + |b2 b3|), as in :func:`validate_class`."""
    theta, b1, b2, b3, b4 = f
    bound = MAX_MAGNITUDE  # x - x is NaN unless x is finite; NaN fails every comparison
    if not (theta - theta == 0 and abs(b1) <= bound and abs(b2) <= bound and abs(b3) <= bound and abs(b4) <= bound):
        raise InvalidBDError(f"theta must be finite and each |b_i| <= {BOUND}, got {f!r}")
    residual, size = _unit_det(b1, b2, b3, b4)
    if not residual <= tol * size:
        raise InvalidBDError(f"b1*b4 + b2*b3 = 1 violated: residual {residual:.3e}")
    phase = complex(math.cos(theta), math.sin(theta))
    i_phase = 1j * phase
    return AlphaBC(phase * b1, i_phase * b2, i_phase * b3, phase * b4)


def invert_alpha(a: AlphaBC, tol: float = DEFAULT_TOL) -> AlphaBC:
    """Parameters of the inverse boundary matrix: B^{-1} = [[a4*, a2*], [a3*, a1*]]."""
    require_class(a, tol)
    a1, a2, a3, a4 = a
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

