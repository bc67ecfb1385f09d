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

One kernel, :func:`_columns`, computes every quantity as plain arithmetic
that runs unchanged on Python floats and on numpy arrays: the caller hands
it the few operations that differ (:data:`_SCALAR_OPS`, :func:`_array_ops`).
:func:`scatter_batch` evaluates it once on a whole energy array and
returns columns (:class:`ScatteringColumns`); :func:`scatter_alpha` and
:func:`scatter_rho` evaluate it on one energy, without ``numpy``, and give
bit for bit the batch's row.  :func:`sweep_columns` takes either path by
the size of its grid.
"""

from __future__ import annotations

import cmath
import math
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from .boundary import AlphaBC, Island, RhoBC, make_phase_shift, make_spin_flip, require_class
from .correspondence import ExtensionClass, Separating, Transmitting, check_mass
from .errors import BelowGapError
from .matrix2 import DEFAULT_TOL, record_type

if TYPE_CHECKING:
    import numpy as np

#: The kernel's operations on Python floats.  ``sqrt`` is correctly rounded
#: here and in numpy, and ``exp`` of an imaginary argument agrees with
#: ``numpy.exp``; ``atan2`` is ``math.atan2`` on both sides, because
#: ``numpy.arctan2`` rounds differently.
_SCALAR_OPS = SimpleNamespace(
    sqrt=math.sqrt,
    atan2=math.atan2,
    exp=cmath.exp,
    where=lambda cond, x, y: x if cond else y,
    complex=complex,
    full=lambda like, value: value,
)


def _array_ops() -> SimpleNamespace:
    """The kernel's operations on float arrays (see :data:`_SCALAR_OPS`)."""
    import numpy as np

    def atan2(y, x):
        y, x = np.broadcast_arrays(y, x)
        return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), float, count=x.size)

    def make_complex(re, im):
        z = np.empty(re.shape, dtype=complex)
        z.real, z.imag = re, im
        return z

    return SimpleNamespace(
        sqrt=np.sqrt,
        atan2=atan2,
        exp=np.exp,
        where=np.where,
        complex=make_complex,
        full=lambda like, value: np.full(like.shape, value),
    )


def _above_gap(E, m: float) -> np.ndarray:
    """Energies as a float array; :class:`BelowGapError` if any E <= m."""
    import numpy as np

    E = np.asarray(E, dtype=float)
    below = E <= m
    if np.count_nonzero(below):
        raise BelowGapError(
            f"E = {float(E[below].flat[0])} is not above the mass gap m = {m}"
        )
    return E


def _wavenumbers(E, m: float, sqrt):
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
    lam = sqrt((E - m) / above)
    k = lam * above
    return (2.0 * k if halve else k), lam


@record_type
class ScatteringResult(NamedTuple):
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


@record_type
class ScatteringColumns(NamedTuple):
    """Scattering results over an energy grid, one array or list per quantity."""

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
        return [self.row(i) for i in range(len(self.E))]


def _quotient(nr, ni, dr, di, ops):
    """(nr + i ni) / (dr + i di) in real arithmetic, rounded as numpy divides
    complex numbers: Smith's method on the larger part of the divisor, with
    the reciprocal of the scaled divisor as a factor.  Nothing overflows
    before the result does."""
    re_larger = abs(dr) >= abs(di)
    p, q = ops.where(re_larger, dr, di), ops.where(re_larger, di, dr)
    rat = q / p
    scl = 1.0 / (p + q * rat)
    re = ops.where(re_larger, nr + ni * rat, nr * rat + ni) * scl
    im = ops.where(re_larger, ni - nr * rat, ni * rat - nr) * scl
    return ops.complex(re, im)


def _transmitting_amplitudes(a: AlphaBC, lam, ops):
    """(r, t) of t u_+ = B (u_+ + r u_-) by Cramer's rule, for a class member.

    The system's columns multiply (r, t): r B u_- - t u_+ = -B u_+, i.e.
    [[s0, -1], [s1, -lam]] with (s0, s1) = B u_-.  With
    B = e^{i theta} [[b1, i b2], [i b3, b4]] the negated determinant is
    e^{i theta} D, D = lam (b1 + b4) - i (b2 lam^2 + b3), and
    |D|^2 = lam^2 (b1^2 + b4^2) + b2^2 lam^4 + b3^2 + 2 lam^2 >= 4 lam^2
    because b1 b4 + b2 b3 = 1: the system is never singular above the gap.
    """
    a1, a2, a3, a4 = a.as_tuple()
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = ((z.real, z.imag) for z in (a1, a2, a3, a4))
    # numerators and determinant negated together, so that exact zeros come
    # out as +0; t's numerator reduces to -2 lam det(B)
    dr = lam * (x1 - x2 * lam) - (x3 - x4 * lam)
    di = lam * (y1 - y2 * lam) - (y3 - y4 * lam)
    r_re = (x3 + x4 * lam) - lam * (x1 + x2 * lam)
    r_im = (y3 + y4 * lam) - lam * (y1 + y2 * lam)
    c = 2.0 * (a1 * a4 - a2 * a3)
    return _quotient(r_re, r_im, dr, di, ops), _quotient(c.real * lam, c.imag * lam, dr, di, ops)


def _columns(bc: ExtensionClass, E, m: float, face: Island, tol: float, ops) -> tuple:
    """(k, lam, r, t, R, T, phase_t) at energies ``E`` above the gap: one
    Python float with :data:`_SCALAR_OPS`, or a float array with
    :func:`_array_ops`.  See :func:`scatter_batch`."""
    k, lam = _wavenumbers(E, m, ops.sqrt)
    if isinstance(bc, Transmitting):
        require_class(bc.alpha, tol)
        r, t = _transmitting_amplitudes(bc.alpha, lam, ops)
        phase = ops.atan2(t.imag, t.real)
    else:
        value = bc.rho.rho_minus if face is Island.LEFT else bc.rho.rho_plus
        if math.isinf(value):
            r = ops.full(lam, -1.0 + 0.0j)
        else:
            # left face r = (lam - i rho)/(lam + i rho) = e^{-2i phi}, phi = atan2(rho, lam);
            # the right face mirrors the sign.  |r| = 1 to within an ulp.
            sign = -2.0 if face is Island.LEFT else 2.0
            r = ops.exp(1j * sign * ops.atan2(value, lam))
        t = ops.full(lam, 0j)
        phase = ops.full(lam, 0.0)
    R = r.real * r.real + r.imag * r.imag
    T = t.real * t.real + t.imag * t.imag
    return k, lam, r, t, R, T, phase


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
    return ScatteringColumns(E, *_columns(bc, E, m, face, tol, _array_ops()))


def _scatter_one(bc: ExtensionClass, E: float, m: float, face: Island) -> ScatteringResult:
    """The kernel at one energy, on Python floats; the row of
    :func:`scatter_batch` at that energy, bit for bit."""
    m = check_mass(m)
    E = float(E)
    if E <= m:
        raise BelowGapError(f"E = {E} is not above the mass gap m = {m}")
    return ScatteringResult(E, *_columns(bc, E, m, face, DEFAULT_TOL, _SCALAR_OPS))


def scatter_alpha(a: AlphaBC, E: float, m: float) -> ScatteringResult:
    """Scatter the right-moving mode off a transmitting condition.

    Solves the 2x2 complex system for (r, t); raises
    :class:`NotInClassError` when ``a`` is not in the class.
    """
    return _scatter_one(Transmitting(a), E, m, Island.LEFT)


def scatter_rho(rho: RhoBC, E: float, m: float, face: Island = Island.LEFT) -> ScatteringResult:
    """Total reflection off one face of a separating condition.

    Left face: lambda (1 - r) = i rho_- (1 + r), so r = (lambda - i rho)/(lambda + i rho);
    right face mirrors to r = (lambda + i rho)/(lambda - i rho); rho = +inf gives r = -1.
    Always |r| = 1 and T = 0.
    """
    return _scatter_one(Separating(rho), E, m, face)


#: Sweeps of at most this many energies run on Python floats, without
#: ``numpy``: below it, importing numpy (about 130 ms of a process) costs
#: more than the scalar kernel's extra time per energy, about 7 us for a
#: transmitting condition (where whole processes break even) and 2 us for
#: a separating one.
SCALAR_SWEEP_MAX = 16_000


def sweep_columns(
    bc: ExtensionClass,
    e_min: float,
    e_max: float,
    steps: int,
    m: float,
    face: Island = Island.LEFT,
    tol: float = DEFAULT_TOL,
) -> ScatteringColumns:
    """Uniform energy grid of scattering results, ordered by E, as columns.

    The columns are lists of Python numbers for at most
    :data:`SCALAR_SWEEP_MAX` energies, and numpy arrays
    (:func:`scatter_batch`) above it.  Both are the grid of
    ``numpy.linspace`` and its rows, bit for bit.
    """
    m = check_mass(m)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not (m < e_min < e_max < math.inf):
        raise ValueError("need m < e_min < e_max, all finite")
    if steps > SCALAR_SWEEP_MAX:
        import numpy as np

        try:
            grid = np.linspace(e_min, e_max, steps)
        except MemoryError as exc:  # numpy's message names the size it asked for
            raise ValueError(f"no energy grid of {steps} steps: {exc}") from exc
        return scatter_batch(bc, grid, m, face, tol)
    # numpy.linspace's arithmetic, with the last point set to e_max
    start, div = float(e_min), steps - 1
    delta = float(e_max) - start
    step = delta / div
    if step:
        grid = [i * step + start for i in range(div)]
    else:  # the step underflowed to 0
        grid = [i / div * delta + start for i in range(div)]
    grid.append(float(e_max))
    rows = [_columns(bc, E, m, face, tol, _SCALAR_OPS) for E in grid]
    return ScatteringColumns(grid, *map(list, zip(*rows)))


# ---------------------------------------------------------------------------
# Two-unit switching demonstration
# ---------------------------------------------------------------------------

#: The demonstration's operating point: energy E = 1 at mass m = 0.
DEMO_E, DEMO_M = 1.0, 0.0


@record_type
class UnitReport(NamedTuple):
    """One junction unit: its condition, transparency, and spin action."""

    name: str
    alpha: AlphaBC
    r: complex
    t: complex
    T: float
    transmission_phase: float
    up_maps_to: tuple[complex, complex]  # B (1, 0), normalized
    down_maps_to: tuple[complex, complex]  # B (0, 1), normalized
    preserves_spin: bool
    swaps_spin: bool


@record_type
class PhaseVariant(NamedTuple):
    theta: float
    t: complex
    T: float
    transmission_phase: float

    @property
    def verified(self) -> bool:
        """Full transmission with phase theta (mod 2 pi), both within 1e-12."""
        return bool(
            abs(self.T - 1.0) <= 1e-12
            and abs(cmath.exp(1j * (self.transmission_phase - self.theta)) - 1.0) <= 1e-12
        )


@record_type
class SwitchDemoReport(NamedTuple):
    unit0: UnitReport
    unit1: UnitReport
    phase_variants: tuple[PhaseVariant, ...]
    ok: bool


def _unit(x: complex, y: complex) -> tuple[complex, complex]:
    """(x, y) normalized; + 0j turns -0.0 into 0.0, so no part prints as a
    negative zero."""
    n = math.hypot(x.real, x.imag, y.real, y.imag)
    return (x / n + 0j, y / n + 0j) if n > 0.0 else (0j, 0j)


def _unit_report(name: str, a: AlphaBC) -> UnitReport:
    res = scatter_alpha(a, DEMO_E, DEMO_M)
    a1, a2, a3, a4 = a.as_tuple()
    up_out = _unit(a1, a3)  # the columns of B = [[a1, a2], [a3, a4]]
    down_out = _unit(a2, a4)
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
