"""Bidirectional maps between U(2) extension parameters and boundary conditions.

A self-adjoint realization of the Dirac operator on the two half-lines is
labelled by a unitary ``U`` acting between the deficiency subspaces.
Diagonal ``U = diag(gL, gR)`` corresponds to a separating condition
(:class:`~.boundary.RhoBC`); non-diagonal ``U``, written in quaternion
form ``g3 [[g1, -g2*], [g2, g1*]]`` with ``g2 != 0``, corresponds to a
transmitting condition (:class:`~.boundary.AlphaBC`).  The mass enters
only through the unimodular constant ``mu = (1 + i m)/sqrt(1 + m^2)``.

Ground truth in both directions is the boundary-value construction: build
the two domain basis elements ``psi_j^+ + U psi_j^-`` from the deficiency
eigenfunctions, whose spinors :func:`eigen_spinor` defines, evaluate their
boundary spinors, and solve the 2x2 matching system.  Those constructions
are test oracles, in :mod:`~.deficiency` but for the numpy-free
:func:`oracle_rho_from_diagonal`, which ``verify`` runs.  The inverse map
:func:`alpha_to_u2` is the closed form with g3 taken from the second
defining identity; the formula as printed (:func:`closed_form_u2_candidate`)
gets g3 wrong for most inputs (see :func:`compare_closed_form`) and is kept
as the record of the paper's formula.

All functions here are pure; parameter sweeps can be partitioned across
workers freely.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from .boundary import AlphaBC, Island, RhoBC, alpha_to_bd, require_class
from .errors import (
    DiagonalInputError,
    InternalInconsistencyError,
    NotUnimodularError,
    ValidationError,
)
from .matrix2 import (
    BOUND,
    DEFAULT_TOL,
    MAX_MAGNITUDE,
    NORM_FLOOR,
    QuaternionForm,
    Record,
    _new,
    _split_unitary,
    _unitary,
)


def check_mass(m: float) -> float:
    """``m`` as a float; raises :class:`ValidationError` unless 0 <= m <= B
    (:data:`~.matrix2.MAX_MAGNITUDE`)."""
    m = float(m)
    if not 0.0 <= m <= MAX_MAGNITUDE:
        raise ValidationError(f"mass must be finite and >= 0, got {m!r}" if not m >= 0.0 else
                              f"mass must be at most {BOUND}, got {m!r}")
    return m


def mu_constant(m: float) -> complex:
    """Unimodular constant mu = (1 + i m)/sqrt(1 + m^2)."""
    return _mass_constants(m)[2]


def _mass_constants(m: float) -> tuple[float, float, complex]:
    """The checked mass, s = sqrt(1 + m^2) and mu, derived once per map call."""
    m = check_mass(m)
    s = math.hypot(1.0, m)
    return m, s, complex(1.0 / s, m / s)


class Sign(Enum):
    """The deficiency subspace: eigenvalue +i (PLUS) or -i (MINUS)."""

    PLUS = "plus"
    MINUS = "minus"


def eigen_spinor(island: Island, sign: Sign, m: float) -> tuple[complex, complex]:
    """Constant spinor of a deficiency eigenfunction: (1, -mu) and (1, mu)
    for PLUS on the left and right, (1, mu*) and (1, -mu*) for MINUS."""
    mu = mu_constant(m)
    down = -mu if sign is Sign.PLUS else mu.conjugate()
    return 1.0, (down if island is Island.LEFT else -down)


def face_factor(m: float, lam: float, power: int = 1) -> float:
    """e^{-sqrt(1+m^2) lam}, the eigenfunctions' common trace factor at the
    faces; raises :class:`ValidationError` unless 0 <= lam keeps its
    ``power``-th power, which the calling oracle divides by, a normal double."""
    rate = math.hypot(1.0, m)
    top = -math.log(sys.float_info.min) / (power * rate)
    if not 0.0 <= lam <= top:
        raise ValidationError(f"lam = {lam!r} is out of range: e^(-{power} sqrt(1+m^2) lam) is a normal double "
                              f"only for 0 <= lam <= {top:.6g} at m = {m!r}")
    return math.exp(-rate * lam)


class Separating(Record):
    """Extension acting independently on the two half-lines."""

    __slots__ = ()

    def __new__(cls, rho: RhoBC):
        return _new(cls, (rho,))


class Transmitting(Record):
    """Extension coupling the half-lines through the junction."""

    __slots__ = ()

    def __new__(cls, alpha: AlphaBC):
        return _new(cls, (alpha,))


ExtensionClass = Separating | Transmitting


def _require_unimodular(z: complex, name: str, tol: float) -> complex:
    z, tol = complex(z), max(tol, NORM_FLOOR)
    if not abs(abs(z) - 1.0) <= tol:
        raise NotUnimodularError(f"|{name}| = {abs(z):.12g} is not 1 within tol={tol}")
    return z


# ---------------------------------------------------------------------------
# Diagonal U  <->  separating condition
# ---------------------------------------------------------------------------


def _at_pole(g: complex) -> bool:
    """Whether the unimodular g is -1, the pole of rho = +inf, exactly."""
    return g.imag == 0.0 and g.real < 0.0


def diagonal_u2_to_rho(
    gl: complex, gr: complex, m: float, tol: float = DEFAULT_TOL
) -> RhoBC:
    """Separating parameters of the extension U = diag(gl, gr).

    rho_minus = (tan(arg(gl)/2) - m)/sqrt(1+m^2) for gl != -1, else +inf;
    rho_plus mirrors with an overall sign.  The pole of the tangent at
    arg = pi is exactly the +inf case, taken only at the pole itself (a
    real negative g): a g within tol of -1 is a large finite rho, and one
    so close that |rho| exceeds B = :data:`~.matrix2.MAX_MAGNITUDE` raises
    :class:`ValidationError`.
    """
    m, s, _ = _mass_constants(m)
    gl = _require_unimodular(gl, "gamma_left", tol)
    gr = _require_unimodular(gr, "gamma_right", tol)

    def finite(g: complex, sign: float) -> float:
        # tan(arg(g)/2) from the half-angle identities, using whichever
        # denominator stays away from zero; no trig round trip near the pole.
        if g.real >= 0.0:
            t = g.imag / (1.0 + g.real)
        else:
            t = (1.0 - g.real) / g.imag
        return sign * (t - m) / s

    rho_minus = math.inf if _at_pole(gl) else finite(gl, +1.0)
    rho_plus = math.inf if _at_pole(gr) else finite(gr, -1.0)
    return RhoBC(rho_plus=rho_plus, rho_minus=rho_minus)


def rho_to_diagonal_u2(r: RhoBC, m: float) -> tuple[complex, complex]:
    """Diagonal unitary parameters (gl, gr) for a separating condition."""
    m, s, _ = _mass_constants(m)

    def phase(t: float) -> complex:
        # e^{2i atan t} = (1 + i t)^2 / (1 + t^2), in 1/t when |t| > 1.  t^2
        # cannot overflow within MAX_MAGNITUDE, but the 1/t form rounds
        # differently for most |t| > 1, and the maps' bits are pinned.
        if abs(t) <= 1.0:
            d = 1.0 + t * t
            return complex((1.0 - t * t) / d, 2.0 * t / d)
        u = 1.0 / t
        d = u * u + 1.0
        return complex((u * u - 1.0) / d, 2.0 * u / d)

    gl = -1.0 + 0.0j if math.isinf(r.rho_minus) else phase(m + s * r.rho_minus)
    gr = -1.0 + 0.0j if math.isinf(r.rho_plus) else phase(m - s * r.rho_plus)
    return gl, gr


def oracle_rho_from_diagonal(
    gl: complex, gr: complex, m: float, lam: float = 0.0, tol: float = DEFAULT_TOL
) -> RhoBC:
    """Separating parameters read off from explicit boundary spinors.

    Forms the domain element psi_L^+ + gl * psi_L^- and takes the ratio of
    its spin components at the left face (mirror construction at the
    right); independent of the half junction length ``lam``, which must
    keep :func:`face_factor` a normal double.  Serves as the independent
    check of :func:`diagonal_u2_to_rho`.
    """
    m = check_mass(m)
    gl = _require_unimodular(gl, "gamma_left", tol)
    gr = _require_unimodular(gr, "gamma_right", tol)
    scale = face_factor(m, lam)

    def face(g: complex, island: Island) -> float:
        if _at_pole(g):
            return math.inf
        (p_up, p_down), (m_up, m_down) = (eigen_spinor(island, sign, m) for sign in Sign)
        ratio = (scale * (p_down + g * m_down)) / (scale * (p_up + g * m_up))
        # a rounding of g moves the ratio by about eps / |1 + g| of itself
        if abs(ratio.real) > 100.0 * max(tol, NORM_FLOOR / abs(1.0 + g)) * max(1.0, abs(ratio)):
            raise InternalInconsistencyError(f"boundary spinor ratio {ratio!r} is not purely imaginary")
        return float(ratio.imag)

    rho_minus = face(gl, Island.LEFT)
    return RhoBC(rho_plus=face(gr, Island.RIGHT), rho_minus=rho_minus)


# ---------------------------------------------------------------------------
# Non-diagonal U  ->  transmitting condition
# ---------------------------------------------------------------------------


def u2_to_alpha(q: QuaternionForm, m: float) -> AlphaBC:
    """Transmitting parameters of a non-diagonal extension.

    a1 = i g2^{-1} sqrt(1+m^2) (Im(g1* mu) + Im(g3* mu))
    a2 =   g2^{-1} sqrt(1+m^2) (Re g1 + Re g3)
    a3 =   g2^{-1} sqrt(1+m^2) (-Re g1 + Re(g3* mu^2))
    a4 = i g2^{-1} sqrt(1+m^2) (Im(g1 mu) + Im(g3* mu))

    The map is invariant under the joint sign flip of (g1, g2, g3).
    Raises :class:`DiagonalInputError` when g2 = 0, or when a parameter's
    modulus exceeds B = :data:`~.matrix2.MAX_MAGNITUDE`.  A small but
    nonzero g2 is a valid transmitting extension: :func:`classify` sends
    near-diagonal unitaries to the separating side with its own tolerance
    test before calling this.
    """
    m, s, mu = _mass_constants(m)
    g1, g2, g3 = q
    inv = s / g2 if g2 else math.inf  # s / 0 raises ZeroDivisionError
    g3c_mu = g3.conjugate() * mu
    a1 = 1j * inv * ((g1.conjugate() * mu).imag + g3c_mu.imag)
    a2 = inv * (g1.real + g3.real)
    a3 = inv * (-g1.real + (g3c_mu * mu).real)
    a4 = 1j * inv * ((g1 * mu).imag + g3c_mu.imag)
    hypot, bound = math.hypot, MAX_MAGNITUDE  # NaN fails every comparison
    if not (hypot(a1.real, a1.imag) <= bound and hypot(a2.real, a2.imag) <= bound
            and hypot(a3.real, a3.imag) <= bound and hypot(a4.real, a4.imag) <= bound):
        raise DiagonalInputError(
            f"a transmitting parameter exceeds {BOUND} at g2 = {g2!r}, m = {m!r}; it is out of range"
            if g2
            else "extension is diagonal (g2 = 0); it has separating parameters, not transmitting ones"
        )
    return AlphaBC(a1, a2, a3, a4)


def alpha_to_u2(a: AlphaBC, m: float, tol: float = DEFAULT_TOL) -> QuaternionForm:
    """Quaternion-form parameters of the extension for a transmitting condition.

    The closed form, with w = -mu* a1 + a2 - a3 + mu a4, s = sqrt(1+m^2) and
    e^{i theta} the phase of the condition:

        g1 = G0 i e^{-i theta} w
        g2 = G0 i e^{-i theta} 2/s
        g3 = ((a1 + mu* a2) g2 - g1*)*

    with G0 = (4/s^2 + |w|^2)^{-1/2}, then the joint sign flip that puts
    arg(g3) in [0, pi).  g1 and g2 are those of
    :func:`closed_form_u2_candidate`; g3 comes from the second defining
    identity (:func:`inverse_identity_residuals`), and on the class |g3| = 1.
    Plain complex arithmetic; round-trips with :func:`u2_to_alpha` and agrees
    with the boundary-value solve (:func:`~.deficiency.solve_u2_matrix`).
    Raises :class:`~.errors.NotInClassError` outside the class and
    :class:`InternalInconsistencyError` when |g1|^2 + |g2|^2 misses 1 by more
    than ``tol``, at least :data:`NORM_FLOOR` here, or |g3| by more than
    ``tol`` times max(1, sum |a_i|^2), which happens only where the map
    amplifies the condition's class residual.
    """
    _, s, mu = _mass_constants(m)
    muc = mu.conjugate()
    require_class(a, tol)
    a1, a2, a3, a4 = a
    # e^{i theta} up to sign, from the larger of a1 = e^{i theta} b1 and
    # a3 = i e^{i theta} b3 (one is nonzero on the class); the sign is
    # removed by the flip below
    n1, n2, n3, n4 = abs(a1), abs(a2), abs(a3), abs(a4)
    p = a1 / n1 if n1 >= n3 else -1j * a3 / n3
    w = -muc * a1 + a2 - a3 + mu * a4
    g2_scale = 2.0 / s
    norm = math.hypot(g2_scale, w.real, w.imag)  # 1/G0
    c = 1j * p.conjugate() / norm
    g1 = c * w
    g2 = c * g2_scale
    g3 = ((a1 + muc * a2) * g2 - g1.conjugate()).conjugate()
    if not (g3.imag > 0.0 or (g3.imag == 0.0 and g3.real > 0.0)):  # is_canonical
        g1, g2, g3 = -g1, -g2, -g3
    # + 0j turns -0.0 into 0.0, so no parameter prints as a negative zero
    q = QuaternionForm(g1 + 0j, g2 + 0j, g3 + 0j)
    # g1, g2 are normalized by construction; |g3| inherits the class residual,
    # allowed up to tol times the size of the a's
    r1, r2 = q.norm_residuals()
    tol = max(tol, NORM_FLOOR)
    limit = tol * max(1.0, n1 * n1 + n2 * n2 + n3 * n3 + n4 * n4)
    if not (r1 <= tol and r2 <= limit):
        raise InternalInconsistencyError(
            f"closed-form extension parameters fail the norm constraints: "
            f"residuals ({r1:.3e}, {r2:.3e}) exceed ({tol:.1e}, {limit:.3e}); "
            f"the map amplifies the condition's class residual beyond them"
        )
    return q


def inverse_identity_residuals(
    q: QuaternionForm, a: AlphaBC, m: float
) -> tuple[float, float, float, float]:
    """Residuals of the four identities coupling (g1, g2, g3) to (a1..a4):

        (a1 + mu* a2) g1 + g2*     = g3* (-a1 + mu a2)
        (a1 + mu* a2) g2 - g1*     = g3*
        (a3 + mu* a4) g1 - mu* g2* = g3* (-a3 + mu a4)
        (a3 + mu* a4) g2 + mu* g1* = mu g3*

    All four vanish for the solved extension of the given condition; they
    are invariant under the joint sign flip of the form.
    """
    mu = mu_constant(m)
    muc = mu.conjugate()
    g1, g2, g3 = q
    g1c, g2c, g3c = g1.conjugate(), g2.conjugate(), g3.conjugate()
    a1, a2, a3, a4 = a
    return (
        abs((a1 + muc * a2) * g1 + g2c - g3c * (-a1 + mu * a2)),
        abs((a1 + muc * a2) * g2 - g1c - g3c),
        abs((a3 + muc * a4) * g1 - muc * g2c - g3c * (-a3 + mu * a4)),
        abs((a3 + muc * a4) * g2 + muc * g1c - mu * g3c),
    )


# ---------------------------------------------------------------------------
# Closed-form inverse map, kept as an errata cross-check
# ---------------------------------------------------------------------------


def closed_form_u2_candidate(a: AlphaBC, m: float, tol: float = DEFAULT_TOL) -> QuaternionForm:
    """Evaluate the closed-form inverse parameter map as written.

    g1 = G0 e^{-i(theta - pi/2)} (-mu* a1 + a2 - a3 + mu a4)
    g2 = G0 e^{-i(theta - pi/2)} 2/sqrt(1+m^2)
    g3 = G0 e^{-i(theta - pi/2)} mu (a1 + mu* a2 + mu a3 + a4)*

    with G0 = (4/(1+m^2) + |-mu* a1 + a2 - a3 + mu a4|^2)^{-1/2} and theta
    the phase of the real four-parameter form.  The output always satisfies
    the norm constraints, but its overall phase does not reproduce the
    defining domain condition for most inputs; use
    :func:`compare_closed_form` to classify the disagreement.  Returned
    uncanonicalized, exactly as evaluated.
    """
    _, s, mu = _mass_constants(m)
    theta = alpha_to_bd(a, tol).theta
    a1, a2, a3, a4 = a
    muc = mu.conjugate()
    w = -muc * a1 + a2 - a3 + mu * a4
    g2_scale = 2.0 / s  # 2/sqrt(1+m^2)
    gamma0 = 1.0 / math.hypot(g2_scale, abs(w))
    half = theta - math.pi / 2.0
    c = gamma0 * complex(math.cos(half), -math.sin(half))  # G0 e^{-i(theta - pi/2)}
    return QuaternionForm(c * w, c * g2_scale, c * mu * (a1 + muc * a2 + mu * a3 + a4).conjugate())


class ClosedFormComparison(Record):
    """Three-way classification of the closed-form candidate
    (:func:`closed_form_u2_candidate`) against the solved extension
    ``primary``: componentwise equal, equal to the flipped sign-pair member,
    or neither.  ``classification`` is "exact", "sign_pair" or "mismatch";
    ``difference`` is max |candidate - primary| and ``difference_flipped``
    max |candidate + primary|.  The candidate itself is not kept: evaluate
    it, and its :func:`inverse_identity_residuals`, where they are wanted."""

    __slots__ = ()

    def __new__(cls, classification: str, primary: QuaternionForm, difference: float, difference_flipped: float):
        return _new(cls, (classification, primary, difference, difference_flipped))


def compare_closed_form(
    a: AlphaBC, m: float, primary: QuaternionForm | None = None, tol: float = DEFAULT_TOL
) -> ClosedFormComparison:
    """Classify the closed-form candidate against the solved extension
    ``primary`` (:func:`alpha_to_u2` of ``a`` at ``tol``, solved here when not
    given); the two agree when their largest entry difference is at most
    1e-8."""
    if primary is None:
        primary = alpha_to_u2(a, m, tol)
    c1, c2, c3 = closed_form_u2_candidate(a, m, tol)
    p1, p2, p3 = primary
    diff = max(abs(c1 - p1), abs(c2 - p2), abs(c3 - p3))
    diff_flipped = max(abs(c1 + p1), abs(c2 + p2), abs(c3 + p3))
    if diff <= 1e-8:
        kind = "exact"
    elif diff_flipped <= 1e-8:
        kind = "sign_pair"
    else:
        kind = "mismatch"
    return ClosedFormComparison(kind, primary, diff, diff_flipped)


# ---------------------------------------------------------------------------
# Classification of an arbitrary extension
# ---------------------------------------------------------------------------


def classify(matrix, m: float, tol: float = DEFAULT_TOL) -> ExtensionClass:
    """Boundary condition of an arbitrary extension: separating when the
    unitary is diagonal, transmitting otherwise; it refuses a matrix that
    :func:`~.matrix2.decompose_u2` refuses, with the same message."""
    u = _unitary(matrix, tol)
    (gl, u12), (u21, gr) = u
    if abs(u12) <= tol and abs(u21) <= tol:
        return Separating(diagonal_u2_to_rho(gl, gr, m, tol))
    return Transmitting(u2_to_alpha(_split_unitary(u, tol), m))
