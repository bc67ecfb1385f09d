"""Bidirectional maps between U(2) extension parameters and boundary conditions.

A self-adjoint realization of the Dirac operator on the two half-lines is
labelled by a unitary ``U`` acting between the deficiency subspaces.
Diagonal ``U = diag(gL, gR)`` corresponds to a separating condition
(:class:`~.boundary.RhoBC`); non-diagonal ``U``, written in quaternion
form ``g3 [[g1, -g2*], [g2, g1*]]`` with ``g2 != 0``, corresponds to a
transmitting condition (:class:`~.boundary.AlphaBC`).  The mass enters
only through the unimodular constant ``mu = (1 + i m)/sqrt(1 + m^2)``.

Ground truth in both directions is the boundary-value construction: build
the two domain basis elements ``psi_j^+ + U psi_j^-`` from the explicit
deficiency eigenfunctions, evaluate their boundary spinors, and solve the
2x2 matching system.  Those solves are kept as test oracles
(:func:`solve_u2_matrix`, :func:`oracle_alpha_from_u2`).  The inverse map
:func:`alpha_to_u2` is the closed form with g3 taken from the second
defining identity; the formula as printed (:func:`closed_form_u2_candidate`)
gets g3 wrong for most inputs (see :func:`compare_closed_form`) and is kept
as the record of the paper's formula.

All functions here are pure; parameter sweeps can be partitioned across
workers freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import AlphaBC, RhoBC, alpha_to_bd, require_class
from .errors import (
    DiagonalInputError,
    InternalInconsistencyError,
    NotUnimodularError,
    NotUnitaryError,
    SingularSystemError,
    ValidationError,
)
from .matrix2 import (
    DEFAULT_TOL,
    QuaternionForm,
    as_c2matrix,
    is_diagonal,
    is_unitary,
    split_unitary,
)


def check_mass(m: float) -> float:
    m = float(m)
    if not math.isfinite(m) or m < 0.0:
        raise ValidationError(f"mass must be finite and >= 0, got {m!r}")
    return m


def mu_constant(m: float) -> complex:
    """Unimodular constant mu = (1 + i m)/sqrt(1 + m^2)."""
    m = check_mass(m)
    s = math.hypot(1.0, m)
    return complex(1.0 / s, m / s)


@dataclass(frozen=True)
class Separating:
    """Extension acting independently on the two half-lines."""

    rho: RhoBC


@dataclass(frozen=True)
class Transmitting:
    """Extension coupling the half-lines through the junction."""

    alpha: AlphaBC


ExtensionClass = Separating | Transmitting


def _require_unimodular(z: complex, name: str, tol: float) -> complex:
    z = complex(z)
    if abs(abs(z) - 1.0) > tol:
        raise NotUnimodularError(f"|{name}| = {abs(z):.12g} is not 1 within tol={tol}")
    return z


# ---------------------------------------------------------------------------
# Diagonal U  <->  separating condition
# ---------------------------------------------------------------------------


def diagonal_u2_to_rho(
    gl: complex, gr: complex, m: float, tol: float = DEFAULT_TOL
) -> RhoBC:
    """Separating parameters of the extension U = diag(gl, gr).

    rho_minus = (tan(arg(gl)/2) - m)/sqrt(1+m^2) for gl != -1, else +inf;
    rho_plus mirrors with an overall sign.  The pole of the tangent at
    arg = pi is exactly the +inf case, detected by |1 + g| <= tol.
    """
    m = check_mass(m)
    gl = _require_unimodular(gl, "gamma_left", tol)
    gr = _require_unimodular(gr, "gamma_right", tol)
    s = math.hypot(1.0, m)

    def finite(g: complex, sign: float) -> float:
        # tan(arg(g)/2) from the half-angle identities, using whichever
        # denominator stays away from zero; no trig round trip near the pole.
        if g.real >= 0.0:
            t = g.imag / (1.0 + g.real)
        else:
            t = (1.0 - g.real) / g.imag
        return sign * (t - m) / s

    rho_minus = math.inf if abs(1.0 + gl) <= tol else finite(gl, +1.0)
    rho_plus = math.inf if abs(1.0 + gr) <= tol else finite(gr, -1.0)
    return RhoBC(rho_plus=rho_plus, rho_minus=rho_minus)


def rho_to_diagonal_u2(r: RhoBC, m: float) -> tuple[complex, complex]:
    """Diagonal unitary parameters (gl, gr) for a separating condition."""
    m = check_mass(m)
    s = math.hypot(1.0, m)

    def phase(t: float) -> complex:
        # e^{2i atan t} = (1 + i t)^2 / (1 + t^2), in 1/t when |t| > 1 so
        # that t^2 cannot overflow.
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
    right); independent of the half junction length ``lam``.  Serves as
    the independent check of :func:`diagonal_u2_to_rho`.
    """
    m = check_mass(m)
    gl = _require_unimodular(gl, "gamma_left", tol)
    gr = _require_unimodular(gr, "gamma_right", tol)
    mu = mu_constant(m)
    scale = math.exp(-math.hypot(1.0, m) * lam)

    def face(g: complex, up: complex, down: complex) -> float:
        if abs(1.0 + g) <= tol:
            return math.inf
        ratio = down / up
        if abs(ratio.real) > 100.0 * tol * max(1.0, abs(ratio)):
            raise InternalInconsistencyError(
                f"boundary spinor ratio {ratio!r} is not purely imaginary"
            )
        return float(ratio.imag)

    # left face of psi_L^+ + gl psi_L^-: spinor (1 + gl, -mu + gl mu*)
    rho_minus = face(gl, scale * (1.0 + gl), scale * (-mu + gl * np.conj(mu)))
    # right face of psi_R^+ + gr psi_R^-: spinor (1 + gr, mu - gr mu*)
    rho_plus = face(gr, scale * (1.0 + gr), scale * (mu - gr * np.conj(mu)))
    return RhoBC(rho_plus=rho_plus, rho_minus=rho_minus)


# ---------------------------------------------------------------------------
# Non-diagonal U  ->  transmitting condition
# ---------------------------------------------------------------------------


def u2_to_alpha(q: QuaternionForm, m: float, tol: float = DEFAULT_TOL) -> AlphaBC:
    """Transmitting parameters of a non-diagonal extension.

    a1 = i g2^{-1} sqrt(1+m^2) (Im(g1* mu) + Im(g3* mu))
    a2 =   g2^{-1} sqrt(1+m^2) (Re g1 + Re g3)
    a3 =   g2^{-1} sqrt(1+m^2) (-Re g1 + Re(g3* mu^2))
    a4 = i g2^{-1} sqrt(1+m^2) (Im(g1 mu) + Im(g3* mu))

    The map is invariant under the joint sign flip of (g1, g2, g3).
    Raises :class:`DiagonalInputError` when |g2| <= tol.
    """
    m = check_mass(m)
    if abs(q.g2) <= tol:
        raise DiagonalInputError(
            "extension is diagonal (g2 ~ 0); it has separating parameters, "
            "not transmitting ones"
        )
    mu = mu_constant(m)
    s = math.hypot(1.0, m)
    g1, g2, g3 = complex(q.g1), complex(q.g2), complex(q.g3)
    inv = s / g2
    return AlphaBC(
        1j * inv * ((np.conj(g1) * mu).imag + (np.conj(g3) * mu).imag),
        inv * (g1.real + g3.real),
        inv * (-g1.real + (np.conj(g3) * mu * mu).real),
        1j * inv * ((g1 * mu).imag + (np.conj(g3) * mu).imag),
    )


def _boundary_basis(m: float, lam: float) -> dict[str, np.ndarray]:
    """One-sided boundary spinors of the four deficiency eigenfunctions,
    unit internal normalization (the common factor cancels in every ratio
    used here, avoiding underflow at large lam)."""
    mu = mu_constant(m)
    e = math.exp(-math.hypot(1.0, m) * lam)
    return {
        "Lp_minus": e * np.array([1.0, -mu]),
        "Lm_minus": e * np.array([1.0, np.conj(mu)]),
        "Rp_plus": e * np.array([1.0, mu]),
        "Rm_plus": e * np.array([1.0, -np.conj(mu)]),
    }


def oracle_alpha_from_u2(
    matrix, m: float, lam: float = 0.0, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Boundary matrix of a non-diagonal extension, from first principles.

    Builds the domain basis elements phi_L = psi_L^+ + u11 psi_L^- + u12 psi_R^-
    and phi_R = psi_R^+ + u21 psi_L^- + u22 psi_R^-, evaluates their boundary
    spinors at the two faces and solves V [phi_L(-L) phi_R(-L)] =
    [phi_L(+L) phi_R(+L)] for V.  The result is independent of ``lam`` and
    class-valid; the matching matrix is singular exactly when U is diagonal
    (its determinant is proportional to u21).
    """
    m = check_mass(m)
    u = as_c2matrix(matrix)
    if not is_unitary(u, tol):
        raise NotUnitaryError(f"matrix is not unitary within tol={tol}")
    b = _boundary_basis(m, float(lam))
    minus = np.column_stack(
        [b["Lp_minus"] + u[0, 0] * b["Lm_minus"], u[1, 0] * b["Lm_minus"]]
    )
    plus = np.column_stack(
        [u[0, 1] * b["Rm_plus"], b["Rp_plus"] + u[1, 1] * b["Rm_plus"]]
    )
    det = minus[0, 0] * minus[1, 1] - minus[0, 1] * minus[1, 0]
    if abs(det) <= tol * float(np.abs(minus).max() ** 2 + 1e-300):
        raise SingularSystemError(
            "boundary-value matrix at the left face is singular; "
            "the extension is diagonal"
        )
    return plus @ np.linalg.inv(minus)


# ---------------------------------------------------------------------------
# Transmitting condition  ->  non-diagonal U
# ---------------------------------------------------------------------------


def solve_u2_matrix(a: AlphaBC, m: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary of a transmitting condition via the boundary-value systems.

    Imposes psi(+L) = B psi(-L) on both domain basis elements; each gives a
    2x2 linear system with the same coefficient matrix
    ``[[a1 + a2 mu*, -1], [a3 + a4 mu*, mu*]]`` (never singular for class
    input).  Asserts unitarity of the assembled matrix.
    """
    m = check_mass(m)
    require_class(a, tol)
    mu = mu_constant(m)
    a1, a2, a3, a4 = a.as_tuple()
    coeff = np.array(
        [
            [a1 + a2 * np.conj(mu), -1.0],
            [a3 + a4 * np.conj(mu), np.conj(mu)],
        ],
        dtype=complex,
    )
    rhs = np.column_stack(
        [np.array([-a1 + a2 * mu, -a3 + a4 * mu]), np.array([1.0, mu])]
    )
    try:
        sol = np.linalg.solve(coeff, rhs)
    except np.linalg.LinAlgError as exc:
        raise InternalInconsistencyError(
            f"boundary-value system unexpectedly singular: {exc}"
        ) from exc
    u = np.array([[sol[0, 0], sol[1, 0]], [sol[0, 1], sol[1, 1]]])
    unit_tol = max(tol, 1e3 * DEFAULT_TOL * np.linalg.cond(coeff))
    if not is_unitary(u, unit_tol):
        raise InternalInconsistencyError(
            "solved extension matrix is not unitary; input may be far from class"
        )
    return u


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
    with the boundary-value solve (:func:`solve_u2_matrix`).  Raises
    :class:`~.errors.NotInClassError` outside the class,
    :class:`ValidationError` when w overflows, and
    :class:`InternalInconsistencyError` when |g3| misses 1 by more than the
    class check allows (``tol`` times :func:`~.boundary.class_scale`), which
    happens only where the map amplifies the condition's class residual.
    """
    mu = mu_constant(m)
    muc = mu.conjugate()
    scale = require_class(a, tol).scale
    a1, a2, a3, a4 = a.as_tuple()
    # e^{i theta} up to sign, from the larger of a1 = e^{i theta} b1 and
    # a3 = i e^{i theta} b3 (one is nonzero on the class); the sign is
    # removed by the flip below
    p = a1 / abs(a1) if abs(a1) >= abs(a3) else -1j * a3 / abs(a3)
    w = -muc * a1 + a2 - a3 + mu * a4
    g2_scale = 2.0 / math.hypot(1.0, m)
    norm = math.hypot(g2_scale, w.real, w.imag)  # 1/G0; abs(w) raises on overflow
    if not math.isfinite(norm):
        raise ValidationError(
            f"boundary parameters overflow the inverse map: |w| = {norm!r}"
        )
    c = 1j * p.conjugate() / norm
    g1 = c * w
    g2 = c * g2_scale
    g3 = ((a1 + muc * a2) * g2 - g1.conjugate()).conjugate()
    if not (g3.imag > 0.0 or (g3.imag == 0.0 and g3.real > 0.0)):  # is_canonical
        g1, g2, g3 = -g1, -g2, -g3
    # + 0j turns -0.0 into 0.0, so no parameter prints as a negative zero
    q = QuaternionForm(g1 + 0j, g2 + 0j, g3 + 0j)
    # g1, g2 are normalized by construction; |g3| inherits the class residual,
    # which the class check allows up to tol * class_scale
    r1, r2 = q.norm_residuals()
    limit = tol * scale
    if not (r1 <= tol and r2 <= limit):
        raise InternalInconsistencyError(
            f"closed-form extension parameters fail the norm constraints: "
            f"residuals ({r1:.3e}, {r2:.3e}) exceed ({tol:.1e}, {limit:.3e}); "
            f"the condition is too ill-conditioned at this mass"
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
    muc = np.conj(mu)
    g1, g2, g3 = complex(q.g1), complex(q.g2), complex(q.g3)
    g1c, g2c, g3c = np.conj(g1), np.conj(g2), np.conj(g3)
    a1, a2, a3, a4 = a.as_tuple()
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
    m = check_mass(m)
    mu = mu_constant(m)
    theta = alpha_to_bd(a, tol).theta
    a1, a2, a3, a4 = a.as_tuple()
    w = -np.conj(mu) * a1 + a2 - a3 + mu * a4
    g2_scale = 2.0 / math.hypot(1.0, m)  # 2/sqrt(1+m^2)
    gamma0 = 1.0 / math.hypot(g2_scale, abs(w))
    half = theta - math.pi / 2.0
    phase = complex(math.cos(half), -math.sin(half))  # e^{-i(theta - pi/2)}
    return QuaternionForm(
        gamma0 * phase * w,
        gamma0 * phase * g2_scale,
        gamma0 * phase * mu * np.conj(a1 + np.conj(mu) * a2 + mu * a3 + a4),
    )


@dataclass(frozen=True)
class ClosedFormComparison:
    """Three-way classification of the closed-form candidate against the
    solved extension: componentwise equal, equal to the flipped sign-pair
    member, or neither."""

    classification: str  # "exact" | "sign_pair" | "mismatch"
    primary: QuaternionForm
    candidate: QuaternionForm
    difference: float  # max |candidate - primary|
    difference_flipped: float  # max |candidate + primary|
    identity_residual: float  # worst defining-identity residual of the candidate

    @property
    def agrees_exactly(self) -> bool:
        return self.classification == "exact"

    @property
    def agrees_up_to_sign_pair(self) -> bool:
        return self.classification == "sign_pair"

    @property
    def disagrees(self) -> bool:
        return self.classification == "mismatch"


def compare_closed_form(
    a: AlphaBC, m: float, primary: QuaternionForm | None = None
) -> ClosedFormComparison:
    """Classify the closed-form candidate against the solved extension
    ``primary`` (:func:`alpha_to_u2` of ``a``, solved here when not given);
    the two agree when their largest entry difference is at most 1e-8."""
    if primary is None:
        primary = alpha_to_u2(a, m)
    candidate = closed_form_u2_candidate(a, m)
    diff = float(np.abs(candidate.as_array() - primary.as_array()).max())
    diff_flipped = float(np.abs(candidate.as_array() + primary.as_array()).max())
    if diff <= 1e-8:
        kind = "exact"
    elif diff_flipped <= 1e-8:
        kind = "sign_pair"
    else:
        kind = "mismatch"
    return ClosedFormComparison(
        classification=kind,
        primary=primary,
        candidate=candidate,
        difference=diff,
        difference_flipped=diff_flipped,
        identity_residual=max(inverse_identity_residuals(candidate, a, m)),
    )


# ---------------------------------------------------------------------------
# Classification of an arbitrary extension
# ---------------------------------------------------------------------------


def classify(matrix, m: float, tol: float = DEFAULT_TOL) -> ExtensionClass:
    """Boundary condition of an arbitrary extension: separating when the
    unitary is diagonal, transmitting otherwise."""
    u = as_c2matrix(matrix)
    if not is_unitary(u, tol):
        raise NotUnitaryError(f"matrix is not unitary within tol={tol}")
    if is_diagonal(u, tol):
        return Separating(diagonal_u2_to_rho(u[0, 0], u[1, 1], m, tol))
    return Transmitting(u2_to_alpha(split_unitary(u, tol), m, tol))
