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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import AlphaBC, Island, RhoBC, make_phase_shift, make_spin_flip
from .correspondence import ExtensionClass, Transmitting, check_mass
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


def plane_spinors(E: float, m: float) -> PlaneWaveBasis:
    """Propagating modes: k = sqrt(E^2 - m^2), u_+- = (1, +-k/(E+m))."""
    m = check_mass(m)
    E = float(E)
    if E <= m:
        raise BelowGapError(f"E = {E} is not above the mass gap m = {m}")
    k = math.sqrt(E * E - m * m)
    lam = k / (E + m)
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


def scatter_alpha(a: AlphaBC, E: float, m: float) -> ScatteringResult:
    """Scatter the right-moving mode off a transmitting condition.

    Solves the 2x2 complex system for (r, t); raises
    :class:`ResonanceSingularError` when the system is singular at this
    energy (no regularization is applied).
    """
    basis = plane_spinors(E, m)
    b = a.matrix()
    # columns multiply (r, t): r * B u_minus - t * u_plus = -B u_plus
    system = np.column_stack([b @ basis.u_minus, -basis.u_plus])
    rhs = -(b @ basis.u_plus)
    det = system[0, 0] * system[1, 1] - system[0, 1] * system[1, 0]
    if abs(det) <= 1e-14 * max(1.0, float(np.abs(system).max()) ** 2):
        raise ResonanceSingularError(f"matching system singular at E = {E}")
    r, t = np.linalg.solve(system, rhs)
    transmitted = t * basis.u_plus
    return ScatteringResult(
        E=basis.E,
        k=basis.k,
        lam=basis.lam,
        r=complex(r),
        t=complex(t),
        R=abs(r) ** 2,
        T=abs(t) ** 2,
        incoming_spin=_unit(basis.u_plus),
        transmitted_spin=_unit(transmitted),
        transmission_phase=float(np.angle(t)),
    )


def scatter_rho(rho: RhoBC, E: float, m: float, face: Island = Island.LEFT) -> ScatteringResult:
    """Total reflection off one face of a separating condition.

    Left face: lambda (1 - r) = i rho_- (1 + r), so r = (lambda - i rho)/(lambda + i rho);
    right face mirrors to r = (lambda + i rho)/(lambda - i rho); rho = +inf gives r = -1.
    Always |r| = 1 and T = 0.
    """
    basis = plane_spinors(E, m)
    value = rho.rho_minus if face is Island.LEFT else rho.rho_plus
    if math.isinf(value):
        r = -1.0 + 0.0j
    elif face is Island.LEFT:
        r = (basis.lam - 1j * value) / (basis.lam + 1j * value)
    else:
        r = (basis.lam + 1j * value) / (basis.lam - 1j * value)
    incoming = basis.u_plus if face is Island.LEFT else basis.u_minus
    return ScatteringResult(
        E=basis.E,
        k=basis.k,
        lam=basis.lam,
        r=complex(r),
        t=0j,
        R=abs(r) ** 2,
        T=0.0,
        incoming_spin=_unit(incoming),
        transmitted_spin=np.zeros(2, dtype=complex),
        transmission_phase=0.0,
    )


def scattering_state_faces(res: ScatteringResult) -> tuple[np.ndarray, np.ndarray]:
    """Boundary values of the assembled scattering state at the two faces."""
    u_plus = np.array([1.0, res.lam], dtype=complex)
    u_minus = np.array([1.0, -res.lam], dtype=complex)
    return u_plus + res.r * u_minus, res.t * u_plus


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
    m = check_mass(m)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not (m < e_min < e_max):
        raise ValueError("need m < e_min < e_max")
    rows: list[ScatteringResult] = []
    for E in np.linspace(e_min, e_max, steps):
        E = float(E)
        try:
            if isinstance(bc, Transmitting):
                rows.append(scatter_alpha(bc.alpha, E, m))
            else:
                rows.append(scatter_rho(bc.rho, E, m, face=face))
        except ResonanceSingularError:
            rows.append(ScatteringResult.flagged(E, RESONANCE_FLAG))
    return rows


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
