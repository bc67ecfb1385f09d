"""Stationary plane-wave scattering through the junction.

The transfer across the junction is algebraic (a boundary condition at the
faces), so matching plane waves captures the stationary physics exactly; no
time stepper is involved.  Amplitudes are referenced to the junction faces
(incident wave ``e^{ik(x+L)}``, transmitted ``e^{ik(x-L)}``), which makes
every result independent of the junction length, like the boundary
conditions themselves.  Only the particle branch E > m is exposed.

For a transmitting condition B the solve is

    t * u_plus = B (u_plus + r * u_minus),

with right/left-moving spinors u_{+-} = (1, +-lambda), lambda = k/(E+m);
current conservation (B preserves j = 2 Re psi_up* psi_down) forces
R + T = 1.  A separating condition reflects at its face with |r| = 1 and
transmits nothing.

Only the particle branch E > m is exposed; the hole branch E < -m would
need nothing beyond sign bookkeeping in :func:`plane_spinors` but is left
out as untested scope.

One batch kernel, :func:`scatter_batch`, computes every quantity for a
whole energy array at once and returns it as columns
(:class:`ScatteringColumns`); :func:`scatter_alpha`, :func:`scatter_rho`
and :func:`sweep` are thin wrappers over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import AlphaBC, Island, RhoBC, make_phase_shift, make_spin_flip
from .correspondence import ExtensionClass, Separating, Transmitting, check_mass
from .errors import BelowGapError, ResonanceSingularError

#: Flag carried by sweep rows whose matching system was singular.
RESONANCE_FLAG = "RESONANCE"


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Free right/left-moving spinor modes at energy E > m."""

    E: float
    k: float
    lam: float  # spin ratio k/(E+m)
    u_plus: np.ndarray
    u_minus: np.ndarray


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
    k = E exactly.
    """
    above = E + m
    lam = np.sqrt((E - m) / above)
    return lam * above, lam


def plane_spinors(E: float, m: float) -> PlaneWaveBasis:
    """Propagating modes: k = sqrt(E^2 - m^2), u_+- = (1, +-k/(E+m))."""
    m = check_mass(m)
    E = float(_above_gap(E, m))
    k, lam = (float(x) for x in _wavenumbers(E, m))
    return PlaneWaveBasis(
        E=E,
        k=k,
        lam=lam,
        u_plus=np.array([1.0, lam], dtype=complex),
        u_minus=np.array([1.0, -lam], dtype=complex),
    )


@dataclass(frozen=True)
class ScatteringResult:
    """Energy-resolved reflection/transmission amplitudes and spin content."""

    E: float
    k: float
    lam: float
    r: complex
    t: complex
    R: float
    T: float
    incoming_spin: np.ndarray
    transmitted_spin: np.ndarray
    transmission_phase: float
    flag: str | None = None

    @classmethod
    def flagged(cls, E: float, flag: str) -> "ScatteringResult":
        nan = float("nan")
        zero = np.zeros(2, dtype=complex)
        return cls(E, nan, nan, complex(nan, nan), complex(nan, nan), nan, nan,
                   zero, zero, nan, flag=flag)


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    return v / n if n > 0.0 else np.zeros_like(v)


@dataclass(frozen=True)
class ScatteringColumns:
    """Scattering results over an energy grid, one array per quantity.

    ``resonance`` marks the rows whose matching system was singular; they
    carry NaN in every column but ``E``.  ``face`` is the face the incident
    wave arrives at (always LEFT for a transmitting condition).
    """

    face: Island
    E: np.ndarray
    k: np.ndarray
    lam: np.ndarray
    r: np.ndarray
    t: np.ndarray
    R: np.ndarray
    T: np.ndarray
    phase_t: np.ndarray
    resonance: np.ndarray

    def row(self, i: int) -> ScatteringResult:
        """Row ``i`` as a :class:`ScatteringResult`, spins included."""
        E = float(self.E[i])
        if self.resonance[i]:
            return ScatteringResult.flagged(E, RESONANCE_FLAG)
        lam, t = float(self.lam[i]), complex(self.t[i])
        norm = math.hypot(1.0, lam)
        right = np.array([1.0, lam], dtype=complex) / norm
        incoming = right if self.face is Island.LEFT else np.array([1.0, -lam], dtype=complex) / norm
        return ScatteringResult(
            E=E,
            k=float(self.k[i]),
            lam=lam,
            r=complex(self.r[i]),
            t=t,
            R=float(self.R[i]),
            T=float(self.T[i]),
            incoming_spin=incoming,
            # t u_+ normalised: the right-moving spinor times the phase of t
            transmitted_spin=(t / abs(t)) * right if t else np.zeros(2, dtype=complex),
            transmission_phase=float(self.phase_t[i]),
        )

    def rows(self) -> list[ScatteringResult]:
        return [self.row(i) for i in range(self.E.size)]


def _transmitting_amplitudes(a: AlphaBC, lam: np.ndarray):
    """(r, t, singular) of t u_+ = B (u_+ + r u_-) by Cramer's rule.

    The system's columns multiply (r, t): r B u_- - t u_+ = -B u_+, i.e.
    [[s0, -1], [s1, -lam]] with (s0, s1) = B u_-.  A row is singular when
    |det| <= 1e-14 max(1, max|system|)^2.
    """
    a1, a2, a3, a4 = a.as_tuple()
    lam = lam.astype(complex)
    a2_lam, a4_lam = a2 * lam, a4 * lam
    s0, s1 = a1 - a2_lam, a3 - a4_lam
    neg_det = lam * s0 - s1
    singular = np.abs(neg_det) <= 1e-14 * np.maximum(1.0, np.maximum(np.abs(s0), np.abs(s1))) ** 2
    if np.count_nonzero(singular):
        neg_det = np.where(singular, 1.0, neg_det)
    # numerators and determinant negated together, so that exact zeros come
    # out as +0; t's numerator reduces to -2 lam det(B)
    r = ((a3 + a4_lam) - lam * (a1 + a2_lam)) / neg_det
    t = (2.0 * (a1 * a4 - a2 * a3)) * lam / neg_det
    return r, t, singular


def scatter_batch(
    bc: ExtensionClass, E, m: float, face: Island = Island.LEFT
) -> ScatteringColumns:
    """Scatter the incident mode off ``bc`` at every energy of ``E`` at once.

    Transmitting conditions solve the 2x2 matching system per energy (rows
    where it is singular are marked, not dropped); separating conditions
    reflect totally at ``face``.  Raises :class:`BelowGapError` if any
    E <= m.
    """
    m = check_mass(m)
    E = _above_gap(E, m).ravel()
    k, lam = _wavenumbers(E, m)
    if isinstance(bc, Transmitting):
        face = Island.LEFT
        r, t, singular = _transmitting_amplitudes(bc.alpha, lam)
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
        singular = np.zeros(E.shape, dtype=bool)
    R = np.abs(r) ** 2
    if np.count_nonzero(singular):
        nan = complex(math.nan, math.nan)
        r, t = np.where(singular, nan, r), np.where(singular, nan, t)
        k, lam, R, T, phase = (np.where(singular, math.nan, x) for x in (k, lam, R, T, phase))
    return ScatteringColumns(face, E, k, lam, r, t, R, T, phase, singular)


def scatter_alpha(a: AlphaBC, E: float, m: float) -> ScatteringResult:
    """Scatter the right-moving mode off a transmitting condition.

    Solves the 2x2 complex system for (r, t); raises
    :class:`ResonanceSingularError` when the system is singular at this
    energy (no regularization is applied).
    """
    cols = scatter_batch(Transmitting(a), E, m)
    if cols.resonance[0]:
        raise ResonanceSingularError(f"matching system singular at E = {E}")
    return cols.row(0)


def scatter_rho(rho: RhoBC, E: float, m: float, face: Island = Island.LEFT) -> ScatteringResult:
    """Total reflection off one face of a separating condition.

    Left face: lambda (1 - r) = i rho_- (1 + r), so r = (lambda - i rho)/(lambda + i rho);
    right face mirrors to r = (lambda + i rho)/(lambda - i rho); rho = +inf gives r = -1.
    Always |r| = 1 and T = 0.
    """
    return scatter_batch(Separating(rho), E, m, face).row(0)


def scattering_state_faces(res: ScatteringResult) -> tuple[np.ndarray, np.ndarray]:
    """Boundary values of the assembled scattering state at the two faces."""
    u_plus = np.array([1.0, res.lam], dtype=complex)
    u_minus = np.array([1.0, -res.lam], dtype=complex)
    return u_plus + res.r * u_minus, res.t * u_plus


def sweep_columns(
    bc: ExtensionClass,
    e_min: float,
    e_max: float,
    steps: int,
    m: float,
    face: Island = Island.LEFT,
) -> ScatteringColumns:
    """Uniform energy grid of scattering results, ordered by E, as columns.

    Singular rows are marked in ``resonance``, never dropped.
    """
    m = check_mass(m)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not (m < e_min < e_max < math.inf):
        raise ValueError("need m < e_min < e_max, all finite")
    return scatter_batch(bc, np.linspace(e_min, e_max, steps), m, face)


def sweep(
    bc: ExtensionClass,
    e_min: float,
    e_max: float,
    steps: int,
    m: float,
    face: Island = Island.LEFT,
) -> list[ScatteringResult]:
    """Uniform energy grid of scattering results, ordered by E.

    Singular rows are flagged (:data:`RESONANCE_FLAG`), never dropped.
    """
    return sweep_columns(bc, e_min, e_max, steps, m, face).rows()


# ---------------------------------------------------------------------------
# Two-unit switching demonstration
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class SwitchDemoReport:
    unit0: UnitReport
    unit1: UnitReport
    phase_variants: tuple[PhaseVariant, ...]
    ok: bool


def _unit_report(name: str, a: AlphaBC, E: float, m: float) -> UnitReport:
    res = scatter_alpha(a, E, m)
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


def switch_demo(E: float = 1.0, m: float = 0.0) -> SwitchDemoReport:
    """Two-unit qubit-channel switch at the default operating point.

    Unit 0 is the spin-preserving condition with theta = 0, b1 = 1 (the
    free line); Unit 1 the spin-interchanging condition with theta = -pi/2,
    b2 = 1.  Both transmit fully; Unit 0 leaves the spin components alone
    while Unit 1 swaps them.  Phase variants theta in {pi/4, pi/2} show the
    transmitted phase tracking the condition's phase parameter.
    """
    unit0 = _unit_report("unit0", make_phase_shift(0.0, 1.0), E, m)
    unit1 = _unit_report("unit1", make_spin_flip(-math.pi / 2.0, 1.0), E, m)
    variants = []
    for theta in (math.pi / 4.0, math.pi / 2.0):
        res = scatter_alpha(make_phase_shift(theta, 1.0), E, m)
        variants.append(
            PhaseVariant(
                theta=theta,
                t=res.t,
                T=res.T,
                transmission_phase=res.transmission_phase,
            )
        )
    ok = (
        unit0.preserves_spin
        and not unit0.swaps_spin
        and unit1.swaps_spin
        and not unit1.preserves_spin
        and abs(unit0.T - 1.0) <= 1e-12
        and abs(unit1.T - 1.0) <= 1e-12
        and all(abs(v.T - 1.0) <= 1e-12 for v in variants)
        and all(
            abs(v.transmission_phase - v.theta) <= 1e-12 for v in variants
        )
    )
    return SwitchDemoReport(
        unit0=unit0, unit1=unit1, phase_variants=tuple(variants), ok=ok
    )
