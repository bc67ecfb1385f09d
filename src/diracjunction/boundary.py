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
fuzzing entry point can reuse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InvalidBDError,
    NotInClassError,
    ValidationError,
    ZeroParameterError,
)
from .matrix2 import DEFAULT_TOL, arg_2pi, as_c2vector

TWO_PI = 2.0 * math.pi


class Island(Enum):
    """One of the two half-lines: LEFT is (-inf, -L), RIGHT is (L, inf)."""

    LEFT = "left"
    RIGHT = "right"


def _check_extended_real(value: float, name: str) -> float:
    v = float(value)
    if math.isnan(v) or v == -math.inf:
        raise ValidationError(f"{name} must be finite or +inf, got {value!r}")
    return v


@dataclass(frozen=True)
class RhoBC:
    """Separating condition; each component is finite or +inf."""

    rho_plus: float
    rho_minus: float

    def __post_init__(self):
        _check_extended_real(self.rho_plus, "rho_plus")
        _check_extended_real(self.rho_minus, "rho_minus")


@dataclass(frozen=True)
class AlphaBC:
    """Transmitting condition parameters (a1, a2, a3, a4)."""

    a1: complex
    a2: complex
    a3: complex
    a4: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.a1), complex(self.a2), complex(self.a3), complex(self.a4))

    def matrix(self) -> np.ndarray:
        """The boundary matrix [[a1, a2], [a3, a4]]."""
        return np.array([[self.a1, self.a2], [self.a3, self.a4]], dtype=complex)


@dataclass(frozen=True)
class BDForm:
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


@dataclass(frozen=True)
class ClassReport:
    """Outcome of :func:`validate_class`: per-constraint residuals and scale."""

    valid: bool
    residuals: dict[str, float]
    scale: float

    def worst(self) -> tuple[str, float]:
        name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]


def _norm_sq_parts(a: AlphaBC) -> tuple[float, float]:
    """(big, sigma) with sum |a_i|^2 = big^2 * sigma and big = max |a_i|.

    Scaling by the largest magnitude first (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., sec. 2) keeps every term at most 1,
    so nothing overflows before the final product.  Raises
    :class:`ValidationError` when a modulus is not finite.
    """
    mags = [math.hypot(x.real, x.imag) for x in a.as_tuple()]
    if not all(map(math.isfinite, mags)):
        raise ValidationError("a boundary parameter's modulus is not finite")
    big = max(mags)
    if big == 0.0:
        return 0.0, 0.0
    return big, sum((x / big) ** 2 for x in mags)


def class_scale(a: AlphaBC) -> float:
    """Scale for residual comparison: max(1, sum |a_i|^2); inf when the sum
    exceeds the float range."""
    big, sigma = _norm_sq_parts(a)
    return max(1.0, big * big * sigma)


def validate_class(a: AlphaBC, tol: float = DEFAULT_TOL) -> ClassReport:
    """Check the six admissibility constraints, reporting each residual.

    A residual r passes when r <= tol * max(1, sum |a_i|^2), making the
    verdict invariant under rescaling the overall magnitude of the data.
    When sum |a_i|^2 overflows, the comparison is made in units of
    max |a_i|^2, so it stays exact; a residual that itself overflowed fails.
    """
    a1, a2, a3, a4 = a.as_tuple()
    residuals = {
        # Re(x y*) formed alone: the imaginary part of x y* may overflow
        "re_a1_a2": abs(a1.real * a2.real + a1.imag * a2.imag),
        "re_a1_a3": abs(a1.real * a3.real + a1.imag * a3.imag),
        "re_a2_a4": abs(a2.real * a4.real + a2.imag * a4.imag),
        "re_a3_a4": abs(a3.real * a4.real + a3.imag * a4.imag),
        "unit_det_plus": abs(a1 * a4.conjugate() + a2 * a3.conjugate() - 1.0),
        "unit_det_conj": abs(a1 * a4.conjugate() + a2.conjugate() * a3 - 1.0),
    }
    scale = class_scale(a)
    if math.isinf(scale):
        big, sigma = _norm_sq_parts(a)
        valid = all(r / big <= tol * big * sigma for r in residuals.values())
    else:
        valid = all(r <= tol * scale for r in residuals.values())
    return ClassReport(valid=valid, residuals=residuals, scale=scale)


def require_class(a: AlphaBC, tol: float = DEFAULT_TOL) -> ClassReport:
    """The passing :func:`validate_class` report; raises
    :class:`NotInClassError` naming the worst constraint otherwise."""
    report = validate_class(a, tol)
    if not report.valid:
        name, value = report.worst()
        raise NotInClassError(
            f"boundary parameters fail class constraint {name}: "
            f"residual {value:.3e} > {tol:.1e} * scale {report.scale:.3e}"
        )
    return report


def alpha_to_bd(a: AlphaBC, tol: float = DEFAULT_TOL) -> BDForm:
    """Extract (theta, b1..b4) with B = e^{i theta} [[b1, i b2], [i b3, b4]].

    Pivots on a1 when |a1| > tol * max(|a1|, |a3|), else on a3; for class
    input at least one of a1, a3 is nonzero.  The pivot is divided by its
    modulus before any product is formed, so entries near the float range
    do not overflow.  The b's are
    real for class input up to rounding; residual imaginary parts beyond
    tolerance raise :class:`NotInClassError`.
    """
    require_class(a, tol)
    a1, a2, a3, a4 = a.as_tuple()
    if abs(a1) > tol * max(abs(a1), abs(a3)):
        theta = arg_2pi(a1)
        r = abs(a1)
        u = np.conj(a1 / r)
        bs = (complex(r), -1j * u * a2, -1j * u * a3, u * a4)
    else:
        if a3 == 0:
            raise NotInClassError("a1 ~ 0 and a3 = 0: no admissible matrix has both")
        theta = arg_2pi(-1j * a3 / abs(a3))
        r = abs(a3)
        u = np.conj(a3 / r)
        bs = (1j * u * a1, u * a2, complex(r), 1j * u * a4)
    scale = max(1.0, max(abs(b) for b in bs))
    worst_imag = max(abs(complex(b).imag) for b in bs)
    if worst_imag > tol * scale:
        raise NotInClassError(
            f"extracted parameters are not real: max imaginary part {worst_imag:.3e}"
        )
    return BDForm(theta, *(float(complex(b).real) for b in bs))


def bd_to_alpha(f: BDForm, tol: float = DEFAULT_TOL) -> AlphaBC:
    """Expand (theta, b1..b4) into the four complex boundary parameters."""
    scale = max(1.0, max(abs(b) for b in f.bs()))
    if f.residual() > tol * scale:
        raise InvalidBDError(
            f"b1*b4 + b2*b3 = 1 violated: residual {f.residual():.3e}"
        )
    phase = complex(math.cos(f.theta), math.sin(f.theta))
    return AlphaBC(phase * f.b1, 1j * phase * f.b2, 1j * phase * f.b3, phase * f.b4)


def bd_equivalent(f: BDForm, g: BDForm, tol: float = 1e-9) -> bool:
    """Equality of forms up to the joint flip (theta + pi, -b), which leaves
    the assembled matrix unchanged."""

    def close(x: BDForm, y: BDForm) -> bool:
        dt = abs((x.theta - y.theta + math.pi) % TWO_PI - math.pi)
        return dt <= tol and all(
            abs(p - q) <= tol * max(1.0, abs(p), abs(q))
            for p, q in zip(x.bs(), y.bs())
        )

    flipped = BDForm((g.theta + math.pi) % TWO_PI, *(-b for b in g.bs()))
    return close(f, g) or close(f, flipped)


def invert_alpha(a: AlphaBC, tol: float = DEFAULT_TOL) -> AlphaBC:
    """Parameters of the inverse boundary matrix: B^{-1} = [[a4*, a2*], [a3*, a1*]]."""
    require_class(a, tol)
    a1, a2, a3, a4 = a.as_tuple()
    return AlphaBC(np.conj(a4), np.conj(a2), np.conj(a3), np.conj(a1))


def apply_alpha(a: AlphaBC, v_minus) -> np.ndarray:
    """Boundary value at the right face: B times the left-face spinor."""
    return a.matrix() @ as_c2vector(v_minus)


def satisfies_rho(r: RhoBC, v_minus, v_plus, tol: float = DEFAULT_TOL) -> bool:
    """Whether boundary spinors satisfy the separating condition at both faces.

    Finite rho: |i*rho*v_up - v_down| <= tol * scale; infinite rho:
    |v_up| <= tol * scale, with scale = max(1, |v_up|, |v_down|) so tiny
    vectors cannot pass vacuously.
    """

    def face_ok(rho: float, v: np.ndarray) -> bool:
        up, down = complex(v[0]), complex(v[1])
        scale = max(1.0, abs(up), abs(down))
        if math.isinf(rho):
            return abs(up) <= tol * scale
        return abs(1j * rho * up - down) <= tol * scale

    return face_ok(r.rho_minus, as_c2vector(v_minus)) and face_ok(
        r.rho_plus, as_c2vector(v_plus)
    )


def current(v) -> float:
    """Probability current j = 2 Re(v_up* v_down) of a boundary spinor."""
    w = as_c2vector(v)
    return float(2.0 * (np.conj(w[0]) * w[1]).real)


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


def _log_uniform(rng: np.random.Generator) -> float:
    mag = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
    return mag if rng.uniform() < 0.5 else -mag


def random_bdform(rng: np.random.Generator) -> BDForm:
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


def random_alpha(rng: np.random.Generator) -> AlphaBC:
    """Random class-valid transmitting condition."""
    return bd_to_alpha(random_bdform(rng))


def random_rho(rng: np.random.Generator) -> RhoBC:
    """Random separating condition; each component +inf with probability
    0.15, else Cauchy-distributed (covers the whole tangent range).

    Finite draws are capped at |rho| = 1e3.  Far beyond the cap, from about
    |rho| = 2e10/sqrt(1+m^2), the diagonal unitary's phase comes within
    ``DEFAULT_TOL`` of -1 and maps back to +inf by design, so a round trip
    there is not an identity.
    """

    def component() -> float:
        if rng.uniform() < 0.15:
            return math.inf
        while True:
            x = float(rng.standard_cauchy())
            if abs(x) <= 1e3:
                return x

    return RhoBC(component(), component())


def random_spinor(rng: np.random.Generator) -> np.ndarray:
    """Complex-normal 2-spinor."""
    return rng.standard_normal(2) + 1j * rng.standard_normal(2)
