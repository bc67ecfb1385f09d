"""Stationary plane-wave scattering through the junction.

The transfer across the junction is algebraic (a boundary condition at the
faces), so matching plane waves captures the stationary physics exactly; no
time stepper is involved.  Amplitudes are referenced to the junction faces
(incident wave ``e^{ik(x+L)}``, transmitted ``e^{ik(x-L)}``), which makes
every result independent of the junction length, like the boundary
conditions themselves.

For a transmitting condition B the solve is

    t * u_plus = B (u_plus + r * u_minus),

with right/left-moving spinors u_{+-} = (1, +-lambda), lambda = k/(E+m);
current conservation (B preserves j = 2 Re psi_up* psi_down) forces
R + T = 1.  A separating condition reflects at its face with |r| = 1 and
transmits nothing.

Only the particle branch E > m is exposed; the hole branch E < -m would
need nothing beyond sign bookkeeping in :func:`_wavenumbers` but is left
out as untested scope.

One batch kernel, :func:`scatter_batch`, computes every quantity for a
whole energy array at once and returns it as columns
(:class:`ScatteringColumns`); :func:`scatter_alpha` and
:func:`scatter_rho` return one row of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import AlphaBC, Island, RhoBC, make_phase_shift, make_spin_flip, require_class
from .correspondence import ExtensionClass, Separating, Transmitting, check_mass
from .errors import BelowGapError
from .matrix2 import DEFAULT_TOL


def _above_gap(E, m: float) -> np.ndarray:
    """Energies as a float array; :class:`BelowGapError` if any E <= m."""
    E = np.asarray(E, dtype=float)
    below = E <= m
    if np.count_nonzero(below):
        raise BelowGapError(
            f"E = {float(E[below].flat[0])} is not above the mass gap m = {m}"
        )
    return E


def _wavenumbers(E, m: float):
    """k and lambda = k/(E + m), as lambda = sqrt((E - m)/(E + m)), k = lambda (E + m).

    Neither squares E, so both stay finite for huge masses and keep full
    relative accuracy next to the gap; at m = 0 they give lambda = 1 and
    k = E exactly.  For m > 1 both are halved first, so E + m cannot
    overflow; halving is exact there (E > m > 1) and changes no bit of
    either result.  For m <= 1, E + m cannot overflow, and halving could
    round a tiny E to 0.
    """
    halve = m > 1.0
    if halve:
        E, m = 0.5 * E, 0.5 * m
    above = E + m
    lam = np.sqrt((E - m) / above)
    k = lam * above
    return (2.0 * k if halve else k), lam


@dataclass(frozen=True)
class ScatteringResult:
    """Reflection/transmission amplitudes at one energy."""

    E: float
    k: float
    lam: float
    r: complex
    t: complex
    R: float
    T: float
    transmission_phase: float
    flag: str | None = None  # always None: a class member's matching system is never singular


@dataclass(frozen=True)
class ScatteringColumns:
    """Scattering results over an energy grid, one array per quantity."""

    E: np.ndarray
    k: np.ndarray
    lam: np.ndarray
    r: np.ndarray
    t: np.ndarray
    R: np.ndarray
    T: np.ndarray
    phase_t: np.ndarray

    def row(self, i: int) -> ScatteringResult:
        """Row ``i`` as a :class:`ScatteringResult`."""
        return ScatteringResult(
            E=float(self.E[i]),
            k=float(self.k[i]),
            lam=float(self.lam[i]),
            r=complex(self.r[i]),
            t=complex(self.t[i]),
            R=float(self.R[i]),
            T=float(self.T[i]),
            transmission_phase=float(self.phase_t[i]),
        )

    def rows(self) -> list[ScatteringResult]:
        return [self.row(i) for i in range(self.E.size)]


def _transmitting_amplitudes(a: AlphaBC, lam: np.ndarray):
    """(r, t) of t u_+ = B (u_+ + r u_-) by Cramer's rule, for a class member.

    The system's columns multiply (r, t): r B u_- - t u_+ = -B u_+, i.e.
    [[s0, -1], [s1, -lam]] with (s0, s1) = B u_-.  With
    B = e^{i theta} [[b1, i b2], [i b3, b4]] the negated determinant is
    e^{i theta} D, D = lam (b1 + b4) - i (b2 lam^2 + b3), and
    |D|^2 = lam^2 (b1^2 + b4^2) + b2^2 lam^4 + b3^2 + 2 lam^2 >= 4 lam^2
    because b1 b4 + b2 b3 = 1: the system is never singular above the gap.
    """
    a1, a2, a3, a4 = a.as_tuple()
    lam = lam.astype(complex)
    a2_lam, a4_lam = a2 * lam, a4 * lam
    neg_det = lam * (a1 - a2_lam) - (a3 - a4_lam)
    # numerators and determinant negated together, so that exact zeros come
    # out as +0; t's numerator reduces to -2 lam det(B)
    r = ((a3 + a4_lam) - lam * (a1 + a2_lam)) / neg_det
    t = (2.0 * (a1 * a4 - a2 * a3)) * lam / neg_det
    return r, t


def scatter_batch(
    bc: ExtensionClass, E, m: float, face: Island = Island.LEFT, tol: float = DEFAULT_TOL
) -> ScatteringColumns:
    """Scatter the incident mode off ``bc`` at every energy of ``E`` at once.

    Transmitting conditions solve the 2x2 matching system per energy and
    must be in the class at ``tol`` (:class:`NotInClassError` otherwise);
    the wave always arrives from the left, whatever ``face`` says.
    Separating conditions reflect totally at ``face``.  Raises
    :class:`BelowGapError` if any E <= m.
    """
    m = check_mass(m)
    E = _above_gap(E, m).ravel()
    k, lam = _wavenumbers(E, m)
    if isinstance(bc, Transmitting):
        require_class(bc.alpha, tol)
        r, t = _transmitting_amplitudes(bc.alpha, lam)
        T = np.abs(t) ** 2
        phase = np.angle(t)
    else:
        value = bc.rho.rho_minus if face is Island.LEFT else bc.rho.rho_plus
        if math.isinf(value):
            r = np.full(E.shape, -1.0 + 0.0j)
        else:
            # left face r = (lam - i rho)/(lam + i rho) = e^{-2i phi}, phi = atan2(rho, lam);
            # the right face mirrors the sign.  |r| = 1 to within an ulp.
            sign = -2.0 if face is Island.LEFT else 2.0
            r = np.exp(1j * sign * np.arctan2(value, lam))
        t = np.zeros(E.shape, dtype=complex)
        T = np.zeros(E.shape)
        phase = np.zeros(E.shape)
    return ScatteringColumns(E, k, lam, r, t, np.abs(r) ** 2, T, phase)


def scatter_alpha(a: AlphaBC, E: float, m: float) -> ScatteringResult:
    """Scatter the right-moving mode off a transmitting condition.

    Solves the 2x2 complex system for (r, t); raises
    :class:`NotInClassError` when ``a`` is not in the class.
    """
    return scatter_batch(Transmitting(a), E, m).row(0)


def scatter_rho(rho: RhoBC, E: float, m: float, face: Island = Island.LEFT) -> ScatteringResult:
    """Total reflection off one face of a separating condition.

    Left face: lambda (1 - r) = i rho_- (1 + r), so r = (lambda - i rho)/(lambda + i rho);
    right face mirrors to r = (lambda + i rho)/(lambda - i rho); rho = +inf gives r = -1.
    Always |r| = 1 and T = 0.
    """
    return scatter_batch(Separating(rho), E, m, face).row(0)


def sweep_columns(
    bc: ExtensionClass,
    e_min: float,
    e_max: float,
    steps: int,
    m: float,
    face: Island = Island.LEFT,
    tol: float = DEFAULT_TOL,
) -> ScatteringColumns:
    """Uniform energy grid of scattering results, ordered by E, as columns."""
    m = check_mass(m)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not (m < e_min < e_max < math.inf):
        raise ValueError("need m < e_min < e_max, all finite")
    return scatter_batch(bc, np.linspace(e_min, e_max, steps), m, face, tol)


# ---------------------------------------------------------------------------
# Two-unit switching demonstration
# ---------------------------------------------------------------------------

#: The demonstration's operating point: energy E = 1 at mass m = 0.
DEMO_E, DEMO_M = 1.0, 0.0


@dataclass(frozen=True)
class UnitReport:
    """One junction unit: its condition, transparency, and spin action."""

    name: str
    alpha: AlphaBC
    r: complex
    t: complex
    T: float
    transmission_phase: float
    up_maps_to: np.ndarray
    down_maps_to: np.ndarray
    preserves_spin: bool
    swaps_spin: bool


@dataclass(frozen=True)
class PhaseVariant:
    theta: float
    t: complex
    T: float
    transmission_phase: float

    @property
    def verified(self) -> bool:
        """Full transmission with phase theta (mod 2 pi), both within 1e-12."""
        return bool(
            abs(self.T - 1.0) <= 1e-12
            and abs(np.exp(1j * (self.transmission_phase - self.theta)) - 1.0) <= 1e-12
        )


@dataclass(frozen=True)
class SwitchDemoReport:
    unit0: UnitReport
    unit1: UnitReport
    phase_variants: tuple[PhaseVariant, ...]
    ok: bool


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    return v / n if n > 0.0 else np.zeros_like(v)


def _unit_report(name: str, a: AlphaBC) -> UnitReport:
    res = scatter_alpha(a, DEMO_E, DEMO_M)
    b = a.matrix()
    up_out = _unit(b @ np.array([1.0, 0.0], dtype=complex))
    down_out = _unit(b @ np.array([0.0, 1.0], dtype=complex))
    preserves = bool(abs(up_out[0]) > 1.0 - 1e-12 and abs(down_out[1]) > 1.0 - 1e-12)
    swaps = bool(abs(up_out[1]) > 1.0 - 1e-12 and abs(down_out[0]) > 1.0 - 1e-12)
    return UnitReport(
        name=name,
        alpha=a,
        r=res.r,
        t=res.t,
        T=res.T,
        transmission_phase=res.transmission_phase,
        up_maps_to=up_out,
        down_maps_to=down_out,
        preserves_spin=preserves,
        swaps_spin=swaps,
    )


def phase_variant(theta: float) -> PhaseVariant:
    """Transmission through the spin-preserving condition of phase theta, b1 = 1,
    at the operating point."""
    res = scatter_alpha(make_phase_shift(theta, 1.0), DEMO_E, DEMO_M)
    return PhaseVariant(theta=theta, t=res.t, T=res.T, transmission_phase=res.transmission_phase)


def switch_demo() -> SwitchDemoReport:
    """Two-unit qubit-channel switch at the operating point (DEMO_E, DEMO_M).

    Unit 0 is the spin-preserving condition with theta = 0, b1 = 1 (the
    free line); Unit 1 the spin-interchanging condition with theta = -pi/2,
    b2 = 1.  Both transmit fully; Unit 0 leaves the spin components alone
    while Unit 1 swaps them.  Phase variants theta in {pi/4, pi/2} show the
    transmitted phase tracking the condition's phase parameter.
    """
    unit0 = _unit_report("unit0", make_phase_shift(0.0, 1.0))
    unit1 = _unit_report("unit1", make_spin_flip(-math.pi / 2.0, 1.0))
    variants = [phase_variant(theta) for theta in (math.pi / 4.0, math.pi / 2.0)]
    ok = (
        unit0.preserves_spin
        and not unit0.swaps_spin
        and unit1.swaps_spin
        and not unit1.preserves_spin
        and abs(unit0.T - 1.0) <= 1e-12
        and abs(unit1.T - 1.0) <= 1e-12
        and all(v.verified for v in variants)
    )
    return SwitchDemoReport(
        unit0=unit0, unit1=unit1, phase_variants=tuple(variants), ok=ok
    )
