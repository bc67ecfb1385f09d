"""Deficiency eigenfunctions and the numerical self-adjointness verifier.

The minimal Dirac operator on the two half-lines ``(-inf, -L)`` and
``(L, inf)`` has deficiency indices (2, 2); each deficiency subspace is
spanned by one exponentially decaying spinor per half-line,

    left,  +:  N (1, -mu ) e^{ sqrt(1+m^2) x},   x <= -L
    right, +:  N (1,  mu ) e^{-sqrt(1+m^2) x},   x >= +L
    left,  -:  N (1,  mu*) e^{ sqrt(1+m^2) x},   x <= -L
    right, -:  N (1, -mu*) e^{-sqrt(1+m^2) x},   x >= +L

with mu = (1 + i m)/sqrt(1+m^2).  This module evaluates them, checks the
first-order eigenfunction system by finite differences, computes Gram
matrices by quadrature (rank 2 certifies the indices), and evaluates the
boundary form

    -i { psi_up(+L)* phi_down(+L) + psi_down(+L)* phi_up(+L)
       - psi_up(-L)* phi_down(-L) - psi_down(-L)* phi_up(-L) }

whose vanishing on a boundary-condition's solution set certifies symmetry
of the restricted operator.

Note on normalization: with the reference prefactor
``N = (1+m^2)^{1/4} e^{-sqrt(1+m^2) L}`` the squared norms evaluate to
``e^{-4 sqrt(1+m^2) L}``, i.e. the functions are normalized only at
L = 0 (a positive exponent would normalize for every L).  Nothing in the
parameter correspondence depends on N, which cancels from every ratio;
the default prefactor is therefore 1, with :func:`reference_normalization`
available for Gram diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .boundary import Island, random_spinor
from .correspondence import ExtensionClass, Transmitting, mu_constant
from .errors import OutsideIslandError, QuadratureFailureError, ValidationError
from .matrix2 import as_c2vector


class Sign(Enum):
    PLUS = "plus"
    MINUS = "minus"


def decay_rate(m: float) -> float:
    return math.hypot(1.0, m)


def reference_normalization(m: float, lam: float) -> float:
    """Reference prefactor (1+m^2)^{1/4} e^{-sqrt(1+m^2) lam}."""
    rate = decay_rate(m)
    return math.sqrt(rate) * math.exp(-rate * lam)


def eigen_spinor(island: Island, sign: Sign, m: float) -> np.ndarray:
    """Constant spinor prefactor of the deficiency eigenfunction."""
    mu = mu_constant(m)
    if sign is Sign.PLUS:
        down = -mu if island is Island.LEFT else mu
    else:
        down = np.conj(mu) if island is Island.LEFT else -np.conj(mu)
    return np.array([1.0, down], dtype=complex)


@dataclass(frozen=True)
class BoundaryPair:
    """One-sided boundary spinors at the two faces -L and +L."""

    at_minus: np.ndarray
    at_plus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "at_minus", as_c2vector(self.at_minus))
        object.__setattr__(self, "at_plus", as_c2vector(self.at_plus))

    def magnitude(self) -> float:
        return float(
            max(np.abs(self.at_minus).max(), np.abs(self.at_plus).max())
        )


@dataclass(frozen=True)
class DeficiencyFunction:
    """One deficiency eigenfunction, supported on a single half-line."""

    island: Island
    sign: Sign
    m: float
    lam: float = 0.0
    normalization: float = 1.0

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValidationError("lam must be >= 0")
        if not self.normalization > 0.0:
            raise ValidationError("normalization must be > 0")

    @property
    def rate(self) -> float:
        return decay_rate(self.m)

    @property
    def spinor(self) -> np.ndarray:
        return eigen_spinor(self.island, self.sign, self.m)

    def _support_mask(self, x: np.ndarray) -> np.ndarray:
        if self.island is Island.LEFT:
            return x <= -self.lam
        return x >= self.lam

    def evaluate(self, x) -> np.ndarray:
        """Spinor value; zero outside the closed half-line. Shape (2,) + x.shape."""
        xs = np.asarray(x, dtype=float)
        sgn = 1.0 if self.island is Island.LEFT else -1.0
        radial = np.where(
            self._support_mask(xs),
            self.normalization * np.exp(sgn * self.rate * xs),
            0.0,
        )
        return np.multiply.outer(self.spinor, radial)

    __call__ = evaluate

    def derivative(self, x) -> np.ndarray:
        """Analytic derivative inside the half-line (zero outside)."""
        sgn = 1.0 if self.island is Island.LEFT else -1.0
        return sgn * self.rate * self.evaluate(x)

    def boundary_pair(self) -> BoundaryPair:
        """One-sided traces at the faces; the off-island face is zero."""
        trace = self.normalization * math.exp(-self.rate * self.lam) * self.spinor
        zero = np.zeros(2, dtype=complex)
        if self.island is Island.LEFT:
            return BoundaryPair(at_minus=trace, at_plus=zero)
        return BoundaryPair(at_minus=zero, at_plus=trace)


def ode_residual(f: DeficiencyFunction, x: float, h: float) -> float:
    """Max-norm residual of the first-order eigenfunction system at x.

    Central difference of f against the coupling matrix
    [[0, s + i m], [s - i m, 0]] with s = -1 for the plus branch and
    s = +1 for the minus branch; O(h^2) for true eigenfunctions.
    """
    if h <= 0.0:
        raise ValidationError("h must be > 0")
    x = float(x)
    inside = (
        x + h < -f.lam if f.island is Island.LEFT else x - h > f.lam
    )
    if not inside:
        raise OutsideIslandError(
            f"stencil [{x - h}, {x + h}] is not strictly inside the {f.island.value} half-line"
        )
    s = -1.0 if f.sign is Sign.PLUS else 1.0
    coupling = np.array([[0.0, s + 1j * f.m], [s - 1j * f.m, 0.0]])
    diff = (f.evaluate(x + h) - f.evaluate(x - h)) / (2.0 * h)
    return float(np.abs(diff - coupling @ f.evaluate(x)).max())


def _simpson_points(n: int) -> int:
    """Grid size accepted by :func:`_simpson`: odd and at least 3."""
    if n < 3 or n % 2 == 0:
        raise ValidationError(
            f"composite Simpson quadrature needs an odd number of points >= 3, got {n}"
        )
    return n


def _simpson(y: np.ndarray, xs: np.ndarray):
    """Composite Simpson rule for samples ``y`` on the equally spaced grid ``xs``.

    Only odd-length grids are accepted, where the rule is exact for cubics;
    there is no even-length correction.
    """
    n = _simpson_points(xs.size)
    h = (xs[-1] - xs[0]) / (n - 1)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def _island_grid(island: Island, lam: float, reach: float, n: int) -> np.ndarray:
    n = _simpson_points(n)
    if island is Island.LEFT:
        return np.linspace(-lam - reach, -lam, n)
    return np.linspace(lam, lam + reach, n)


def gram_matrix(
    sign: Sign,
    m: float,
    lam: float,
    normalization: float | None = None,
    num_points: int = 2**16 + 1,
    extent: float | None = None,
) -> np.ndarray:
    """Quadrature Gram matrix of the two eigenfunctions of one branch.

    Off-diagonal entries are exactly zero (disjoint supports); the
    diagonals are computed by composite Simpson on each half-line,
    truncated where the integrand is below double precision.
    ``num_points`` must be odd and at least 3 (:class:`ValidationError`
    otherwise).  With
    ``normalization=None`` the reference prefactor is used, making the
    diagonal e^{-4 sqrt(1+m^2) lam}.  Rank 2 certifies deficiency
    indices (2, 2).
    """
    rate = decay_rate(m)
    reach = extent if extent is not None else 40.0 / rate
    norm = reference_normalization(m, lam) if normalization is None else float(normalization)
    # truncated tail of the norm integral, bounded analytically
    tail = 2.0 * norm**2 * math.exp(-2.0 * rate * (lam + reach)) / (2.0 * rate)
    diag = []
    for island in (Island.LEFT, Island.RIGHT):
        f = DeficiencyFunction(island, sign, m, lam, norm)
        xs = _island_grid(island, lam, reach, num_points)
        vals = f.evaluate(xs)
        diag.append(float(_simpson(np.abs(vals[0]) ** 2 + np.abs(vals[1]) ** 2, xs)))
    if tail > 1e-13 * max(1.0, *diag):
        raise QuadratureFailureError(
            f"truncation tail {tail:.3e} exceeds tolerance for extent {reach}"
        )
    return np.array([[diag[0], 0.0], [0.0, diag[1]]])


def _boundary_forms(pm, pp, qm, qp) -> np.ndarray:
    """The boundary form over broadcast stacks of face spinors.

    ``pm``/``pp`` are psi's spinors at -L/+L and ``qm``/``qp`` phi's, each
    with (up, down) on the last axis; the other axes broadcast.
    """
    return -1j * (
        np.conj(pp[..., 0]) * qp[..., 1]
        + np.conj(pp[..., 1]) * qp[..., 0]
        - np.conj(pm[..., 0]) * qm[..., 1]
        - np.conj(pm[..., 1]) * qm[..., 0]
    )


def boundary_form(psi: BoundaryPair, phi: BoundaryPair) -> complex:
    """Sesquilinear boundary expression produced by integration by parts."""
    return complex(_boundary_forms(psi.at_minus, psi.at_plus, phi.at_minus, phi.at_plus))


@dataclass(frozen=True)
class SmoothBump:
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
        if self.width <= 0.0:
            raise ValidationError("width must be > 0")
        lo, hi = self.center - self.width, self.center + self.width
        inside = hi < -self.lam if self.island is Island.LEFT else lo > self.lam
        if not inside:
            raise ValidationError(
                "bump support must lie strictly inside its half-line"
            )

    @property
    def reach(self) -> float:
        """Distance from the face to the far edge of the support."""
        if self.island is Island.LEFT:
            return -self.lam - (self.center - self.width)
        return (self.center + self.width) - self.lam

    def _profile(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = (np.asarray(x, dtype=float) - self.center) / self.width
        mask = np.abs(t) < 1.0 - 1e-12
        tm = np.where(mask, t, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            core = np.where(mask, np.exp(1.0 - 1.0 / (1.0 - tm**2)), 0.0)
        dcore = np.where(
            mask, core * (-2.0 * tm / (1.0 - tm**2) ** 2) / self.width, 0.0
        )
        return core, dcore

    def evaluate(self, x) -> np.ndarray:
        core, _ = self._profile(x)
        return np.multiply.outer(np.asarray(self.spinor, dtype=complex), core)

    def derivative(self, x) -> np.ndarray:
        _, dcore = self._profile(x)
        return np.multiply.outer(np.asarray(self.spinor, dtype=complex), dcore)

    def boundary_pair(self) -> BoundaryPair:
        zero = np.zeros(2, dtype=complex)
        return BoundaryPair(at_minus=zero, at_plus=zero)


#: One addend of a spinor combination: (coefficient, basis function).
CombinationTerm = tuple[complex, DeficiencyFunction | SmoothBump]


def combination_boundary(terms: Sequence[CombinationTerm]) -> BoundaryPair:
    minus = np.zeros(2, dtype=complex)
    plus = np.zeros(2, dtype=complex)
    for coef, term in terms:
        bp = term.boundary_pair()
        minus = minus + coef * bp.at_minus
        plus = plus + coef * bp.at_plus
    return BoundaryPair(at_minus=minus, at_plus=plus)


def _check_terms(terms: Sequence[CombinationTerm], m: float, lam: float) -> float:
    """Validate term consistency; return the grid reach needed to cover them."""
    reach = 40.0 / decay_rate(m)
    for _, term in terms:
        if term.lam != lam:
            raise ValidationError("all terms must share the junction half-length")
        if isinstance(term, DeficiencyFunction) and term.m != m:
            raise ValidationError("deficiency terms must share the operator mass")
        if isinstance(term, SmoothBump):
            reach = max(reach, term.reach + 1.0)
    return reach


def _combination_on_grid(
    terms: Sequence[CombinationTerm], island: Island, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    vals = np.zeros((2, xs.size), dtype=complex)
    ders = np.zeros((2, xs.size), dtype=complex)
    for coef, term in terms:
        if term.island is island:
            vals += coef * term.evaluate(xs)
            ders += coef * term.derivative(xs)
    return vals, ders


def _apply_operator(vals: np.ndarray, ders: np.ndarray, m: float) -> np.ndarray:
    """sigma_x (-i d/dx) + m sigma_z, applied with analytic derivatives."""
    out = np.empty_like(vals)
    out[0] = -1j * ders[1] + m * vals[0]
    out[1] = -1j * ders[0] - m * vals[1]
    return out


def boundary_form_quadrature(
    psi_terms: Sequence[CombinationTerm],
    phi_terms: Sequence[CombinationTerm],
    m: float,
    lam: float = 0.0,
    num_points: int = 2**15 + 1,
) -> complex:
    """<H psi | phi> - <psi | H phi> by composite Simpson on both half-lines.

    ``num_points`` must be odd and at least 3 (:class:`ValidationError`
    otherwise).

    The maximal operator is applied analytically on the basis functions, so
    the only error source is the quadrature itself; the result matches
    :func:`boundary_form` of the combinations' boundary values.
    """
    reach = max(_check_terms(psi_terms, m, lam), _check_terms(phi_terms, m, lam))
    total = 0.0 + 0.0j
    for island in (Island.LEFT, Island.RIGHT):
        xs = _island_grid(island, lam, reach, num_points)
        pv, pd = _combination_on_grid(psi_terms, island, xs)
        qv, qd = _combination_on_grid(phi_terms, island, xs)
        hp = _apply_operator(pv, pd, m)
        hq = _apply_operator(qv, qd, m)
        integrand = (np.conj(hp) * qv - np.conj(pv) * hq).sum(axis=0)
        total += complex(_simpson(integrand, xs))
    return total


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
    witness_floor: float = 0.01

    def __str__(self) -> str:  # pragma: no cover - formatting only
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: symmetry residual {self.max_symmetry_residual:.3e} over "
            f"{self.samples} samples; maximality witnesses {self.witness_magnitudes}"
        )


def _domain_pair(bc: ExtensionClass, rng: np.random.Generator) -> BoundaryPair:
    if isinstance(bc, Transmitting):
        v = random_spinor(rng)
        return BoundaryPair(at_minus=v, at_plus=bc.alpha.matrix() @ v)
    rho = bc.rho

    def face(r: float) -> np.ndarray:
        s = complex(*rng.standard_normal(2))
        if math.isinf(r):
            return np.array([0.0, s])
        return np.array([s, 1j * r * s])

    return BoundaryPair(at_minus=face(rho.rho_minus), at_plus=face(rho.rho_plus))


def _violating_pairs(bc: ExtensionClass) -> dict[str, BoundaryPair]:
    zero = np.zeros(2, dtype=complex)
    e1 = np.array([1.0, 0.0], dtype=complex)
    if isinstance(bc, Transmitting):
        return {
            "plus_face": BoundaryPair(at_minus=zero, at_plus=e1),
            "minus_face": BoundaryPair(at_minus=e1, at_plus=zero),
        }
    rho = bc.rho

    def violate(r: float) -> np.ndarray:
        if math.isinf(r):
            return e1.copy()  # psi_up must vanish but does not
        return np.array([1.0, 1j * r + 1.0])

    valid_plus = (
        np.array([0.0, 1.0]) if math.isinf(rho.rho_plus) else np.array([1.0, 1j * rho.rho_plus])
    )
    valid_minus = (
        np.array([0.0, 1.0]) if math.isinf(rho.rho_minus) else np.array([1.0, 1j * rho.rho_minus])
    )
    return {
        "plus_face": BoundaryPair(at_minus=valid_minus, at_plus=violate(rho.rho_plus)),
        "minus_face": BoundaryPair(at_minus=violate(rho.rho_minus), at_plus=valid_plus),
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
    (adding it would break symmetry, so the domain is maximal).  The form
    over all ordered pairs is evaluated as one (samples, samples) array.
    """
    rng = np.random.default_rng(seed)
    pairs = [_domain_pair(bc, rng) for _ in range(samples)]
    # all ordered pairs at once: row i is psi = pairs[i], column j is phi = pairs[j]
    pm = np.array([p.at_minus for p in pairs], dtype=complex).reshape(-1, 2)
    pp = np.array([p.at_plus for p in pairs], dtype=complex).reshape(-1, 2)
    mags = np.array([p.magnitude() for p in pairs])
    scale = np.maximum(1.0, mags[:, None] * mags[None, :])
    forms = _boundary_forms(pm[:, None], pp[:, None], pm[None], pp[None])
    worst = float(np.max(np.abs(forms) / scale, initial=0.0))
    probes = slice(0, 16)
    witnesses = {
        face: float(np.max(
            np.abs(_boundary_forms(bad.at_minus, bad.at_plus, pm[probes], pp[probes])),
            initial=0.0,
        ))
        for face, bad in _violating_pairs(bc).items()
    }
    floor = 0.01
    passed = worst <= tol and all(w > floor for w in witnesses.values())
    return SelfAdjointReport(
        samples=samples,
        max_symmetry_residual=worst,
        witness_magnitudes=witnesses,
        tol=tol,
        passed=passed,
        witness_floor=floor,
    )
