"""Deficiency eigenfunctions and the numerical self-adjointness verifier.

The minimal Dirac operator on the two half-lines ``(-inf, -L)`` and
``(L, inf)`` has deficiency indices (2, 2); each deficiency subspace is
spanned by one exponentially decaying spinor per half-line,

    left,  +:  (1, -mu ) e^{ sqrt(1+m^2) x},   x <= -L
    right, +:  (1,  mu ) e^{-sqrt(1+m^2) x},   x >= +L
    left,  -:  (1,  mu*) e^{ sqrt(1+m^2) x},   x <= -L
    right, -:  (1, -mu*) e^{-sqrt(1+m^2) x},   x >= +L

with mu = (1 + i m)/sqrt(1+m^2), the spinors of
:func:`~.correspondence.eigen_spinor`.  This module evaluates them, checks
the first-order eigenfunction system by finite differences, computes Gram
matrices by quadrature (rank 2 certifies the indices), and evaluates the
boundary form

    -i { psi_up(+L)* phi_down(+L) + psi_down(+L)* phi_up(+L)
       - psi_up(-L)* phi_down(-L) - psi_down(-L)* phi_up(-L) }

whose vanishing on a boundary-condition's solution set certifies symmetry
of the restricted operator.  The boundary-value oracles of the parameter
maps, :func:`oracle_alpha_from_u2` and :func:`solve_u2_matrix`, are built
on the same eigenfunctions; only tests and the benchmark call them.  Both
quadratures walk their grids in blocks (:func:`_simpson_blocks`), and the
verifier its pairs in row blocks, below glibc's mmap threshold, in place
where the bits allow: the Gram matrix squares N e^{+-s x} on each block's
points, the verifier sums the boundary form's four products into one buffer,
and the Green identity evaluates each distinct profile once per block, on
the indices that cover its support, sums only the products w f' g it uses
into Python floats and does the spinor algebra in Python complex scalars.

Face values are complex arrays of shape (..., 2, 2): axis -2 is the face
(-L, then +L) and axis -1 is (up, down).

Note on normalization: a prefactor N cancels from every ratio of the
parameter correspondence, so the functions carry none; a caller who wants
one scales the term's coefficient.  :func:`gram_matrix` uses
:func:`reference_normalization`, under which the squared norms are
``e^{-4 sqrt(1+m^2) L}``: normalized only at L = 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

try:
    import numpy as np
except ImportError as exc:
    raise ImportError("diracjunction.deficiency needs numpy: pip install 'diracjunction[oracles]'") from exc

from .boundary import AlphaBC, Island, require_class
from .correspondence import ExtensionClass, Sign, Transmitting, check_mass, eigen_spinor, face_factor
from .errors import (InternalInconsistencyError, NotUnitaryError, OutsideIslandError, SingularSystemError,
                     ValidationError)
from .matrix2 import DEFAULT_TOL, _unitarity_residual, as_c2matrix, is_unitary


def decay_rate(m: float) -> float:
    return math.hypot(1.0, m)


def reference_normalization(m: float, lam: float) -> float:
    """Reference prefactor (1+m^2)^{1/4} e^{-sqrt(1+m^2) lam}."""
    rate = decay_rate(m)
    return math.sqrt(rate) * math.exp(-rate * lam)


class _SpinorProfile:
    """A basis term: a constant ``spinor`` times the real ``profile`` f."""

    def evaluate(self, x) -> np.ndarray:
        """Spinor value; zero outside the support. Shape (2,) + x.shape."""
        return np.multiply.outer(np.asarray(self.spinor, dtype=complex), self.profile(x)[0])

    __call__ = evaluate

    def derivative(self, x) -> np.ndarray:
        """Analytic derivative (zero outside the support)."""
        return np.multiply.outer(np.asarray(self.spinor, dtype=complex), self.profile(x)[1])


@dataclass(frozen=True)
class DeficiencyFunction(_SpinorProfile):
    """One deficiency eigenfunction, supported on a single half-line."""

    island: Island
    sign: Sign
    m: float
    lam: float = 0.0

    def __post_init__(self):
        check_mass(self.m)
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValidationError(f"lam must be finite and >= 0, got {self.lam!r}")

    @property
    def rate(self) -> float:
        return decay_rate(self.m)

    @property
    def spinor(self) -> np.ndarray:
        return np.array(eigen_spinor(self.island, self.sign, self.m), dtype=complex)

    @property
    def support(self) -> tuple[float, float]:
        """The closed half-line the function lives on."""
        if self.island is Island.LEFT:
            return -math.inf, -self.lam
        return self.lam, math.inf

    def profile(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Real radial factor f and its derivative f'."""
        xs = np.asarray(x, dtype=float)
        left = self.island is Island.LEFT
        sgn = 1.0 if left else -1.0
        radial = np.exp(sgn * self.rate * xs)
        if not (xs.max(initial=-math.inf) <= -self.lam if left else xs.min(initial=math.inf) >= self.lam):
            radial = np.where(xs <= -self.lam if left else xs >= self.lam, radial, 0.0)  # NaN is outside
        return radial, sgn * self.rate * radial


def ode_residual(f: DeficiencyFunction, x: float, h: float) -> float:
    """Max-norm residual of the first-order eigenfunction system at x.

    Central difference of f against the coupling matrix
    [[0, s + i m], [s - i m, 0]] with s = -1 for the plus branch and
    s = +1 for the minus branch; O(h^2) for true eigenfunctions.
    """
    if h <= 0.0:
        raise ValidationError("h must be > 0")
    x = float(x)
    lo, hi = f.support
    if not (lo < x - h and x + h < hi):
        raise OutsideIslandError(
            f"stencil [{x - h}, {x + h}] is not strictly inside the {f.island.value} half-line"
        )
    s = -1.0 if f.sign is Sign.PLUS else 1.0
    coupling = np.array([[0.0, s + 1j * f.m], [s - 1j * f.m, 0.0]])
    diff = (f.evaluate(x + h) - f.evaluate(x - h)) / (2.0 * h)
    return float(np.abs(diff - coupling @ f.evaluate(x)).max())


#: Points per quadrature block (the last also takes the final point): even,
#: so blocks start on even indices, and 64 KB a row of doubles, below glibc's
#: default 128 KiB mmap threshold, so block temporaries reuse heap memory.
_BLOCK = 8192
_INDICES = np.arange(_BLOCK + 1, dtype=float)


def _simpson_points(n: int) -> int:
    """Grid size accepted by :func:`_simpson_blocks`: an odd integer, at least 3."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 3 or n % 2 == 0:
        raise ValidationError(f"composite Simpson quadrature needs an odd number of points >= 3, got {n}")
    return int(n)


def _simpson_blocks(island: Island, lam: float, reach: float, n: int):
    """Composite Simpson on the n-point ``np.linspace`` grid over the first
    ``reach`` of the island from its face, in consecutive blocks of
    :data:`_BLOCK` points: yields grid points ``xs`` and weights ``w``, bit
    for bit the full-grid ones, so an integral is the sum of ``w @ y`` over
    the blocks.  Only odd n is accepted, where the rule is exact for cubics;
    there is no even-length correction."""
    n = _simpson_points(n)
    start, stop = (-lam - reach, -lam) if island is Island.LEFT else (lam, lam + reach)
    step = (stop - start) / (n - 1)
    scale = (stop - start) / (3.0 * (n - 1))
    pattern = np.full(_BLOCK + 1, 2.0 * scale)
    pattern[1::2] = 4.0 * scale
    for lo in range(0, n - 1, _BLOCK):
        hi = lo + _BLOCK if lo + _BLOCK < n - 1 else n
        xs = np.add(_INDICES[: hi - lo], lo)  # the indices lo..hi-1, exact in floats
        np.add(np.multiply(xs, step, out=xs), start, out=xs)
        w = pattern[: hi - lo]
        if lo == 0 or hi == n:  # the end points weigh 1
            w = w.copy()
            if lo == 0:
                w[0] = scale
            if hi == n:
                xs[-1], w[-1] = stop, scale
        yield xs, w


def gram_matrix(sign: Sign, m: float, lam: float, num_points: int = 2**16 + 1) -> np.ndarray:
    """Quadrature Gram matrix of the two eigenfunctions of one branch, at
    the reference prefactor.

    Off-diagonal entries are exactly zero (disjoint supports); each
    diagonal is |u|^2 times the composite-Simpson integral of f^2 for the
    eigenfunction u f over the first 40/sqrt(1+m^2) of its half-line, where
    the integrand has fallen by e^-80, and evaluates to
    e^{-4 sqrt(1+m^2) lam}.  ``num_points`` must be odd and at least 3, and
    ``lam`` must keep the diagonal a normal double (:class:`ValidationError`
    otherwise).  Rank 2 certifies deficiency indices (2, 2).
    """
    rate = decay_rate(check_mass(m))
    top = -math.log(sys.float_info.min) / (4.0 * rate)
    if not 0.0 <= lam <= top:
        raise ValidationError(
            f"lam = {lam!r} is out of range: the reference Gram diagonal "
            f"e^(-4 sqrt(1+m^2) lam) is a normal double only for 0 <= lam <= {top:.6g} at m = {m!r}"
        )
    norm = reference_normalization(m, lam)
    diag = []
    for island, slope in ((Island.LEFT, rate), (Island.RIGHT, -rate)):
        spin = float(np.sum(np.abs(np.array(eigen_spinor(island, sign, m), dtype=complex)) ** 2))
        total = 0.0  # each block's grid lies in the support: N e^{slope x} in place, squared
        for xs, w in _simpson_blocks(island, lam, 40.0 / rate, num_points):
            total += w @ np.square(np.multiply(np.exp(np.multiply(xs, slope, out=xs), out=xs), norm, out=xs), out=xs)
        diag.append(spin * float(total))
    return np.array([[diag[0], 0.0], [0.0, diag[1]]])


def boundary_form(p, q) -> np.ndarray:
    """The boundary form of integration by parts over face values ``p`` of
    psi and ``q`` of phi, each of shape (..., 2, 2); the other axes
    broadcast.
    """
    return -1j * (
        np.conj(p[..., 1, 0]) * q[..., 1, 1]
        + np.conj(p[..., 1, 1]) * q[..., 1, 0]
        - np.conj(p[..., 0, 0]) * q[..., 0, 1]
        - np.conj(p[..., 0, 1]) * q[..., 0, 0]
    )


@dataclass(frozen=True)
class SmoothBump(_SpinorProfile):
    """C-infinity bump spinor supported strictly inside one half-line.

    value(x) = spinor * exp(1 - 1/(1 - t^2)) with t = (x - center)/width;
    all derivatives vanish at the support edge, so the bump contributes
    nothing to boundary values.
    """

    island: Island
    center: float
    width: float
    spinor: tuple[complex, complex]
    lam: float = 0.0

    def __post_init__(self):
        if not (self.width > 0.0 and math.isfinite(self.center)):
            raise ValidationError("bump width must be > 0 and its center finite")
        lo, hi = self.support
        if not (hi < -self.lam if self.island is Island.LEFT else lo > self.lam):
            raise ValidationError("bump support must lie strictly inside its half-line")

    @property
    def support(self) -> tuple[float, float]:
        """The open interval the bump lives on."""
        return self.center - self.width, self.center + self.width

    def profile(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Real profile f and its derivative f'."""
        t = (np.asarray(x, dtype=float) - self.center) / self.width
        mask = np.abs(t) < 1.0 - 1e-12
        tm = np.where(mask, t, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            core = np.where(mask, np.exp(1.0 - 1.0 / (1.0 - tm**2)), 0.0)
        dcore = np.where(mask, core * (-2.0 * tm / (1.0 - tm**2) ** 2) / self.width, 0.0)
        return core, dcore


#: One addend of a spinor combination: (coefficient, basis function).
CombinationTerm = tuple[complex, DeficiencyFunction | SmoothBump]


def traces(terms: Sequence[CombinationTerm]) -> np.ndarray:
    """Face values of a combination, shape (2, 2): each deficiency function
    adds its coefficient times its spinor times e^{-sqrt(1+m^2) lam} at its
    own face, and a bump nothing."""
    faces = np.zeros((2, 2), dtype=complex)
    for coef, term in terms:
        if isinstance(term, DeficiencyFunction):
            face = 0 if term.island is Island.LEFT else 1
            faces[face] += coef * (math.exp(-term.rate * term.lam) * term.spinor)
    return faces


def _check_terms(terms: Sequence[CombinationTerm], m: float, lam: float) -> float:
    """Validate term consistency; return the grid reach needed to cover them."""
    reach = 40.0 / decay_rate(m)
    for _, term in terms:
        if term.lam != lam:
            raise ValidationError("all terms must share the junction half-length")
        if isinstance(term, DeficiencyFunction) and term.m != m:
            raise ValidationError("deficiency terms must share the operator mass")
        if isinstance(term, SmoothBump):  # cover the far edge of its support
            lo, hi = term.support
            reach = max(reach, (-lam - lo if term.island is Island.LEFT else hi - lam) + 1.0)
    return reach


def _profile_key(term: DeficiencyFunction | SmoothBump) -> tuple:
    """A key of what ``term.profile`` reads: terms with one key share that profile."""
    if isinstance(term, DeficiencyFunction):
        return term.island, term.m, term.lam
    return term.center, term.width


def boundary_form_quadrature(
    psi_terms: Sequence[CombinationTerm],
    phi_terms: Sequence[CombinationTerm],
    m: float,
    lam: float = 0.0,
    num_points: int = 2**15 + 1,
) -> complex:
    """<H psi | phi> - <psi | H phi> by composite Simpson on both half-lines.

    Each term is a constant spinor u times a real profile f, and the mass
    part of H = sigma_x (-i d/dx) + m sigma_z cancels, so a psi term
    (c, u, f) against a phi term (d, v, g) adds i c* d (u^H sigma_x v)
    times the integral of (f g)' = f' g + g' f.  Per half-line the sums
    A[a, b] of w f_a' f_b over the grid blocks are formed once per pair of
    distinct profiles that the terms need, on the overlap of their supports.
    ``num_points`` must be odd and at least 3 (:class:`ValidationError`
    otherwise).  The result matches :func:`boundary_form` of the
    combinations' :func:`traces`.
    """
    check_mass(m)
    reach = max(_check_terms(psi_terms, m, lam), _check_terms(phi_terms, m, lam))
    _simpson_points(num_points)
    total = 0.0 + 0.0j
    for island in (Island.LEFT, Island.RIGHT):
        psi = [(c, t) for c, t in psi_terms if t.island is island]
        phi = [(c, t) for c, t in phi_terms if t.island is island]
        if not (psi and phi):
            continue  # the integrand vanishes identically
        keys = {}  # profile key -> (index, a term with that profile)
        index = [keys.setdefault(_profile_key(t), (len(keys), t))[0] for _, t in psi + phi]
        ia, ib = index[: len(psi)], index[len(psi):]
        pairs = {pair for a in ia for b in ib for pair in ((a, b), (b, a))}
        sums = [[0.0] * len(keys) for _ in keys]  # A[a][b], the sum of w f_a' f_b
        for xs, w in _simpson_blocks(island, lam, reach, num_points):
            spans = {}  # profile index -> (first index, f, w f') on the indices covering its support
            for k, term in keys.values():
                start, stop = term.support
                if start <= xs[-1] and stop >= xs[0]:  # no search when the support covers the block
                    i, j = np.searchsorted(xs, (start, stop)) if start > xs[0] or stop < xs[-1] else (0, xs.size)
                    lo = max(i - 1, 0)  # one point of margin on each side
                    f, df = term.profile(xs[lo : j + 1])
                    df *= w[lo : j + 1]
                    spans[k] = lo, f, df
            for a, b in pairs:
                if a in spans and b in spans:
                    (la, _, dfa), (lb, fb, _) = spans[a], spans[b]
                    lo, hi = max(la, lb), min(la + dfa.size, lb + fb.size)
                    if lo < hi:
                        sums[a][b] += float(dfa[lo - la : hi - la] @ fb[lo - lb : hi - lb])
        u = [[complex(c * z).conjugate() for z in t.spinor] for c, t in psi]
        v = [[complex(d * z) for z in t.spinor] for d, t in phi]
        total += 1j * sum((p0 * q1 + p1 * q0) * (sums[a][b] + sums[b][a])  # c* d u^H sigma_x v times a slope
                          for (p0, p1), a in zip(u, ia) for (q0, q1), b in zip(v, ib))
    return total


# ---------------------------------------------------------------------------
# Boundary-value oracles of the parameter maps
# ---------------------------------------------------------------------------


def oracle_alpha_from_u2(matrix, m: float, lam: float = 0.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Boundary matrix of a non-diagonal extension, from first principles.

    Builds the domain basis elements phi_L = psi_L^+ + u11 psi_L^- + u12 psi_R^-
    and phi_R = psi_R^+ + u21 psi_L^- + u22 psi_R^-, evaluates their boundary
    spinors at the two faces and solves V [phi_L(-L) phi_R(-L)] =
    [phi_L(+L) phi_R(+L)] for V.  The result is independent of ``lam``, which
    must keep the square of :func:`~.correspondence.face_factor` a normal
    double, and class-valid; the matching matrix is singular exactly when U
    is diagonal (its determinant is proportional to u21).
    """
    m = check_mass(m)
    u = as_c2matrix(matrix)
    if not _unitarity_residual(u) <= tol:
        raise NotUnitaryError(f"matrix is not unitary within tol={tol}")
    e = face_factor(m, lam, 2)
    lp, lm, rp, rm = e * np.array([eigen_spinor(island, sign, m) for island in Island for sign in Sign])
    (u11, u12), (u21, u22) = u
    # phi_L and phi_R at the faces, their nonzero terms summed from 0 as traces sums
    at_minus = np.array([0j + lp + u11 * lm, 0j + u21 * lm]).T
    at_plus = np.array([0j + u12 * rm, 0j + rp + u22 * rm]).T
    det = at_minus[0, 0] * at_minus[1, 1] - at_minus[0, 1] * at_minus[1, 0]
    if abs(det) <= tol * float(np.abs(at_minus).max() ** 2):
        raise SingularSystemError("boundary-value matrix at the left face is singular; the extension is diagonal")
    return at_plus @ np.linalg.inv(at_minus)


def solve_u2_matrix(a: AlphaBC, m: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary of a transmitting condition via the boundary-value systems.

    Imposes psi(+L) = B psi(-L) on both domain basis elements; each gives a
    2x2 linear system with the coefficient columns B s_L^- and -s_R^-, and
    the right-hand sides -B s_L^+ and s_R^+, for the eigenfunctions' spinors
    s (never singular for class input).  Asserts unitarity of the assembled
    matrix.
    """
    m = check_mass(m)
    require_class(a, tol)
    a1, a2, a3, a4 = a.as_tuple()
    (lp, lm), (rp, rm) = ([eigen_spinor(island, sign, m) for sign in Sign] for island in Island)
    coeff = np.array([[a1 * lm[0] + a2 * lm[1], -rm[0]], [a3 * lm[0] + a4 * lm[1], -rm[1]]], dtype=complex)
    rhs = np.array([[-(a1 * lp[0] + a2 * lp[1]), rp[0]], [-(a3 * lp[0] + a4 * lp[1]), rp[1]]], dtype=complex)
    try:
        u = np.linalg.solve(coeff, rhs).T
    except np.linalg.LinAlgError as exc:
        raise InternalInconsistencyError(f"boundary-value system unexpectedly singular: {exc}") from exc
    if not is_unitary(u, max(tol, 1e3 * DEFAULT_TOL * np.linalg.cond(coeff))):
        raise InternalInconsistencyError("solved extension matrix is not unitary; input may be far from class")
    return u


# ---------------------------------------------------------------------------
# Self-adjointness verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfAdjointReport:
    """Outcome of :func:`verify_selfadjoint_domain`."""

    samples: int
    max_symmetry_residual: float
    witness_magnitudes: dict[str, float]
    tol: float
    passed: bool

    def __str__(self) -> str:  # pragma: no cover - formatting only
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: symmetry residual {self.max_symmetry_residual:.3e} over "
            f"{self.samples} samples; maximality witnesses {self.witness_magnitudes}"
        )


def _face(r: float, s) -> np.ndarray:
    """Spinors s (1, i r) satisfying rho = r at a face, or s (0, 1) for
    r = inf, with (up, down) on a new last axis."""
    s = np.asarray(s, dtype=complex)
    if math.isinf(r):
        return np.stack([np.zeros_like(s), s], axis=-1)
    return np.stack([s, 1j * r * s], axis=-1)


def _violating_pairs(bc: ExtensionClass) -> dict[str, np.ndarray]:
    """Face values that break the condition at the named face only."""
    if isinstance(bc, Transmitting):
        return {
            "plus_face": np.array([[0, 0], [1, 0]], dtype=complex),
            "minus_face": np.array([[1, 0], [0, 0]], dtype=complex),
        }
    rho = bc.rho

    def violate(r: float) -> np.ndarray:
        if math.isinf(r):
            return np.array([1.0, 0.0], dtype=complex)  # psi_up must vanish but does not
        return np.array([1.0, 1j * r + 1.0])

    return {
        "plus_face": np.array([_face(rho.rho_minus, 1.0), violate(rho.rho_plus)]),
        "minus_face": np.array([violate(rho.rho_minus), _face(rho.rho_plus, 1.0)]),
    }


def verify_selfadjoint_domain(
    bc: ExtensionClass,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-12,
) -> SelfAdjointReport:
    """Numerically certify symmetry and maximality of a boundary condition.

    Draws random boundary pairs satisfying the condition and checks the
    boundary form vanishes on all ordered pairs (symmetry of the restricted
    operator); then exhibits, for each face, a condition-violating pair
    whose form against some in-domain pair is bounded away from zero
    (adding it would break symmetry, so the domain is maximal).  All
    samples come from one (samples, 2, 2) draw, and the form over all
    ordered pairs is evaluated in row blocks of the (samples, samples) array.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 0:
        raise ValidationError(f"samples must be an integer >= 0, got {samples!r}")
    # one draw in the order per-sample draws would take it: a transmitting
    # sample is v = re + i im at -L and B v at +L; a separating one scales
    # its -L and +L faces by one complex normal each
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}") from exc
    draws = rng.standard_normal((samples, 2, 2))
    if isinstance(bc, Transmitting):
        at_minus = draws[:, 0] + 1j * draws[:, 1]
        # a stack of matrix-vector products rounds as one B @ v per sample
        faces = np.stack([at_minus, (bc.alpha.matrix() @ at_minus[..., None])[..., 0]], axis=1)
    else:
        s = draws[..., 0] + 1j * draws[..., 1]
        faces = np.stack([_face(bc.rho.rho_minus, s[:, 0]), _face(bc.rho.rho_plus, s[:, 1])], axis=1)
    # row i is psi = sample i, column j is phi = sample j, in row blocks below glibc's mmap threshold. A
    # block sums boundary_form's products into one buffer in its order and operand shapes (numpy rounds
    # a complex product by its layout) and drops its factor -i, which leaves every modulus unchanged
    mags, p, q = np.abs(faces).max(axis=(1, 2)), faces.conj()[..., None], faces[None]
    rows, worst = max(1, _BLOCK // 2 // max(samples, 1)), 0.0  # a complex entry is two doubles
    form, term = np.empty((2, min(rows, samples), samples), dtype=complex)
    forms, scales = np.empty((2, min(rows, samples), samples))
    for i in range(0, samples, rows):
        n, psi = min(rows, samples - i), p[i : i + rows]
        acc = np.multiply(psi[:, 1, 0], q[..., 1, 1], out=form[:n])
        acc += np.multiply(psi[:, 1, 1], q[..., 1, 0], out=term[:n])
        acc -= np.multiply(psi[:, 0, 0], q[..., 0, 1], out=term[:n])
        acc -= np.multiply(psi[:, 0, 1], q[..., 0, 0], out=term[:n])
        scale = np.maximum(np.multiply(mags[i : i + n, None], mags, out=scales[:n]), 1.0, out=scales[:n])
        worst = float(np.maximum(worst, np.max(np.divide(np.abs(acc, out=forms[:n]), scale, out=forms[:n]))))
    probes = faces[:16]
    witnesses = {
        face: float(np.max(np.abs(boundary_form(bad, probes)), initial=0.0))
        for face, bad in _violating_pairs(bc).items()
    }
    passed = worst <= tol and all(w > 0.01 for w in witnesses.values())
    return SelfAdjointReport(
        samples=samples,
        max_symmetry_residual=worst,
        witness_magnitudes=witnesses,
        tol=tol,
        passed=passed,
    )
