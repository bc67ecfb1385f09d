"""Dense complex 2x2 linear algebra and the U(1)*SU(2) splitting of U(2).

Matrices and spinors are plain ``numpy`` arrays of ``complex128``; the
three-parameter representation ``U = g3 * [[g1, -g2*], [g2, g1*]]`` with
``|g1|^2 + |g2|^2 = |g3| = 1`` is carried by :class:`QuaternionForm`.
All operations are pure functions on immutable values and are safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidFormError, NotUnitaryError

#: Default tolerance for all membership predicates (double precision,
#: machine epsilon ~1e-16, only a handful of operations per predicate).
DEFAULT_TOL = 1e-10


def as_c2matrix(obj) -> np.ndarray:
    """Coerce to a (2, 2) complex ndarray."""
    m = np.asarray(obj, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


def as_c2vector(obj) -> np.ndarray:
    """Coerce to a length-2 complex ndarray."""
    v = np.asarray(obj, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"expected a 2-spinor, got shape {v.shape}")
    return v


def arg_2pi(z: complex) -> float:
    """Argument of ``z`` mapped into [0, 2*pi); never ``-0.0``."""
    a = math.atan2(z.imag, z.real) + 0.0  # + 0.0 turns -0.0 into 0.0
    if a < 0.0:
        a += 2.0 * math.pi
        if a == 2.0 * math.pi:  # a tiny negative angle rounds up to 2*pi
            a = 0.0
    return a


@dataclass(frozen=True)
class QuaternionForm:
    """Parameters (g1, g2, g3) of the phase-times-quaternion form of a unitary.

    The pair (g1, g2, g3) and (-g1, -g2, -g3) compose to the same matrix;
    the canonical representative has arg(g3) in [0, pi).
    """

    g1: complex
    g2: complex
    g3: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.g1, self.g2, self.g3], dtype=complex)

    def norm_residuals(self) -> tuple[float, float]:
        """Residuals of |g1|^2 + |g2|^2 = 1 and |g3| = 1; inf, not an
        ``OverflowError``, when a modulus exceeds the float range."""
        g1, g2, g3 = complex(self.g1), complex(self.g2), complex(self.g3)
        return (
            abs(g1.real * g1.real + g1.imag * g1.imag + g2.real * g2.real + g2.imag * g2.imag - 1.0),
            abs(math.hypot(g3.real, g3.imag) - 1.0),
        )

    def is_valid(self, tol: float = DEFAULT_TOL) -> bool:
        r1, r2 = self.norm_residuals()
        return r1 <= tol and r2 <= tol

    def is_canonical(self) -> bool:
        g3 = complex(self.g3)
        return g3.imag > 0.0 or (g3.imag == 0.0 and g3.real > 0.0)

    def negated(self) -> "QuaternionForm":
        return QuaternionForm(-self.g1, -self.g2, -self.g3)


def unitarity_residual(matrix) -> float:
    """Max-norm deviation of M^dag M and M M^dag from the identity; inf when
    an entry, or a product of entries, is not finite.

    Both products are Hermitian, so their six distinct entries are formed
    directly from the four matrix entries, in plain complex arithmetic.
    """
    (a, b), (c, d) = as_c2matrix(matrix).tolist()
    na, nb, nc, nd = (z.real * z.real + z.imag * z.imag for z in (a, b, c, d))
    entries = (
        abs(na + nc - 1.0),  # M^dag M
        abs(nb + nd - 1.0),
        abs(a.conjugate() * b + c.conjugate() * d),
        abs(na + nb - 1.0),  # M M^dag
        abs(nc + nd - 1.0),
        abs(a * c.conjugate() + b * d.conjugate()),
    )
    # max() may skip a NaN; the sum of the entries cannot
    return max(entries) if math.isfinite(sum(entries)) else math.inf


def is_unitary(matrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-norm of (M^dag M - I) and (M M^dag - I) is <= tol."""
    return unitarity_residual(matrix) <= tol


def det2(matrix) -> complex:
    """Determinant of a 2x2 matrix, computed directly."""
    m = as_c2matrix(matrix)
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def is_su2(matrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff the matrix is unitary with determinant 1 within tolerance."""
    m = as_c2matrix(matrix)
    return is_unitary(m, tol) and abs(det2(m) - 1.0) <= tol


def is_diagonal(matrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff both off-diagonal entries have magnitude <= tol."""
    m = as_c2matrix(matrix)
    return abs(m[0, 1]) <= tol and abs(m[1, 0]) <= tol


def compose(q: QuaternionForm, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Assemble the unitary g3 * [[g1, -g2*], [g2, g1*]] from its parameters."""
    if not q.is_valid(tol):
        raise InvalidFormError(
            f"quaternion-form norm residuals {q.norm_residuals()} exceed tol={tol}"
        )
    g1, g2, g3 = q.g1, q.g2, q.g3
    return g3 * np.array(
        [[g1, -np.conj(g2)], [g2, np.conj(g1)]], dtype=complex
    )


def decompose_u2(matrix, tol: float = DEFAULT_TOL) -> QuaternionForm:
    """Split a unitary into phase * SU(2) parameters, canonicalized.

    The phase is extracted from the off-diagonal arguments when the lower
    off-diagonal entry is nonzero (|u21| > tol), and from the diagonal
    arguments otherwise; both branches reconstruct the input exactly up to
    rounding.  Raises :class:`NotUnitaryError` on non-unitary input.
    """
    m = as_c2matrix(matrix)
    residual = unitarity_residual(m)
    if residual > tol:
        raise NotUnitaryError(
            f"matrix is not unitary: residual {residual:.3e} > tol {tol:.1e}"
        )
    return split_unitary(m, tol)


def split_unitary(matrix, tol: float = DEFAULT_TOL) -> QuaternionForm:
    """The splitting of :func:`decompose_u2`, for a matrix the caller has
    already found unitary; nothing is checked here."""
    (u11, u12), (u21, u22) = as_c2matrix(matrix).tolist()
    if abs(u21) <= tol:
        # det U = e^{i(arg u11 + arg u22)}; removing half of it lands in SU(2)
        half = (arg_2pi(u11) + arg_2pi(u22)) / 2.0
    else:
        # det U = e^{i(arg u12 + arg u21 + pi)}
        half = (arg_2pi(u12) + arg_2pi(u21) + math.pi) / 2.0
    # canonicalize on the angle itself: g3 and -g3 differ by pi, and the
    # member with arg in [0, pi) is the representative; doing this before
    # exponentiating keeps boundary cases (arg exactly pi) exact
    half = math.fmod(half, math.pi)
    phase = complex(math.cos(half), math.sin(half))
    return QuaternionForm(u11 / phase, u21 / phase, phase)


def decompose_branch(matrix, tol: float = DEFAULT_TOL) -> str:
    """Which phase-extraction branch :func:`decompose_u2` takes for this input."""
    m = as_c2matrix(matrix)
    return "u21_zero" if abs(m[1, 0]) <= tol else "u21_nonzero"


def random_quaternion_form(
    rng: np.random.Generator, min_offdiag: float = 0.0
) -> QuaternionForm:
    """Draw a valid random form; |g2| >= min_offdiag via rejection."""
    while True:
        v = rng.standard_normal(4)
        g1 = complex(v[0], v[1])
        g2 = complex(v[2], v[3])
        norm = math.hypot(abs(g1), abs(g2))
        if norm < 1e-12:
            continue
        g1 /= norm
        g2 /= norm
        if abs(g2) < min_offdiag:
            continue
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return QuaternionForm(g1, g2, complex(math.cos(phi), math.sin(phi)))
