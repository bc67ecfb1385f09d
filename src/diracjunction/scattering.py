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
R + T = 1.  In the real four-parameter form
B = e^{i theta} [[b1, i b2], [i b3, b4]] (:func:`~.boundary.alpha_to_bd`)
the solution is

    D = lam (b1 + b4) - i (b2 lam^2 + b3),   N = lam (b4 - b1) + i (b3 - b2 lam^2),
    r = N / D,   t = 2 lam e^{i theta} / D,   R = |N|^2 / |D|^2,   T = 4 lam^2 / |D|^2,

and |D|^2 = |N|^2 + 4 lam^2 >= 4 lam^2 on the class, so the system is never
singular above the gap.  A wave from the right solves
u_minus + r' u_plus = B t' u_minus, with the same D:

    r' = (lam (b1 - b4) + i (b3 - b2 lam^2)) / D,   t' = 2 lam e^{-i theta} / D = t e^{-2i theta}.

The kernel divides by |N|^2 + 4 lam^2, which is positive for any finite
b's: every E > m within B gives lam^2 >= 2^-54.  A separating condition
reflects at its face with |r| = 1 and transmits nothing.

Only the particle branch E > m is exposed; the hole branch E < -m would
need nothing beyond sign bookkeeping in the wavenumbers but is left
out as untested scope.

One kernel, :func:`_columns`, computes every quantity on a list of
energies, in plain float arithmetic, and returns the output columns (real
and imaginary parts apart).  :func:`sweep_part` runs it on rows of a
uniform grid, and :func:`scatter_alpha` and :func:`scatter_rho` on one
energy.  Nothing here imports ``numpy``.
"""

from __future__ import annotations

import math

from .boundary import TWO_PI, AlphaBC, Island, RhoBC, make_phase_shift, make_spin_flip, require_class
from .correspondence import ExtensionClass, Separating, Transmitting, check_mass
from .errors import BelowGapError, ValidationError
from .matrix2 import BOUND, DEFAULT_TOL, MAX_MAGNITUDE, Record, _new


class ScatteringResult(Record):
    """Reflection/transmission amplitudes at one energy.  ``flag`` is always
    None: a class member's matching system is never singular."""

    __slots__ = ()

    def __new__(cls, E: float, k: float, lam: float, r: complex, t: complex, R: float, T: float,
                transmission_phase: float, flag: str | None = None):
        return _new(cls, (E, k, lam, r, t, R, T, transmission_phase, flag))


class ScatteringColumns(Record):
    """Scattering results over an energy grid, one list of floats per output
    column; ``r`` and ``t`` are assembled from their parts on request."""

    __slots__ = ()

    def __new__(cls, E, k, lam, re_r, im_r, re_t, im_t, R, T, phase_t):
        return _new(cls, (E, k, lam, re_r, im_r, re_t, im_t, R, T, phase_t))

    @property
    def r(self) -> list[complex]:
        return list(map(complex, self.re_r, self.im_r))

    @property
    def t(self) -> list[complex]:
        return list(map(complex, self.re_t, self.im_t))

    def row(self, i: int) -> ScatteringResult:
        """Row ``i`` as a :class:`ScatteringResult`."""
        return _row(self.E, self[1:], i)

    def rows(self) -> list[ScatteringResult]:
        return [self.row(i) for i in range(len(self.E))]


# Both kernels form the wavenumbers as lambda = sqrt((E - m)/(E + m)) and
# k = lambda (E + m), with E + m <= 2 MAX_MAGNITUDE.  Neither squares E, so both
# keep full relative accuracy next to the gap; at m = 0 they give lambda = 1 and
# k = E exactly.


def _transmitting(a: AlphaBC, face: Island, E: list[float], m: float, tol: float) -> tuple[list[float], ...]:
    """The :func:`_columns` of a class member at ``tol`` for a wave coming in
    through ``face``, from the b-form (module docstring)."""
    report = require_class(a, tol)
    _, b1, b2, b3, b4 = report.form
    phase = report.phase
    s, d, pr, pi = b1 + b4, b4 - b1, phase.real, phase.imag
    if face is Island.RIGHT:  # N with b1 and b4 swapped, t with the conjugate phase
        d, pi = b1 - b4, -pi
    cols = k, lam, re_r, im_r, re_t, im_t, R, T, phase_t = [], [], [], [], [], [], [], [], []
    sqrt, atan2 = math.sqrt, math.atan2
    for e in E:
        above = e + m
        x = sqrt((e - m) / above)
        k.append(x * above)
        lam.append(x)
        y = x * x
        by = b2 * y
        # D = dr - i di and N = nr + i ni, and |D|^2 = |N|^2 + 4 lam^2,
        # so that R + T = 1 up to the rounding of the two quotients
        dr, di = s * x, by + b3
        nr, ni = d * x, b3 - by
        nn, w = nr * nr + ni * ni, 4.0 * y
        dd = nn + w
        q = 2.0 * x / dd
        u, v = q * (pr * dr - pi * di), q * (pi * dr + pr * di)
        re_r.append((nr * dr - ni * di) / dd)
        im_r.append((ni * dr + nr * di) / dd)
        re_t.append(u)
        im_t.append(v)
        R.append(nn / dd)
        T.append(w / dd)
        phase_t.append(atan2(v, u))
    return cols


def _separating(rho: RhoBC, face: Island, E: list[float], m: float) -> tuple[list[float], ...]:
    """The :func:`_columns` of total reflection off ``face``.

    Left face r = (lam - i rho)/(lam + i rho) = e^{-2i phi}, phi = atan2(rho, lam);
    the right face mirrors the sign; rho = +inf gives r = -1.  |r| = 1 to
    within an ulp.
    """
    value = rho.rho_minus if face is Island.LEFT else rho.rho_plus
    finite = not math.isinf(value)
    # r = e^{i angle} with angle = sign phi; adding ``zero`` signs a zero
    # angle as the complex product (i sign) phi does, which fixes the sign
    # of a zero imaginary part of r
    sign, zero = (-2.0, -0.0) if face is Island.LEFT else (2.0, 0.0)
    k, lam, re_r, im_r, R = [], [], [], [], []
    sqrt, atan2, cos, sin = math.sqrt, math.atan2, math.cos, math.sin
    for e in E:
        above = e + m
        x = sqrt((e - m) / above)
        k.append(x * above)
        lam.append(x)
        if finite:
            angle = sign * atan2(value, x) + zero
            u, v = cos(angle), sin(angle)
            re_r.append(u)
            im_r.append(v)
            R.append(u * u + v * v)
    n = len(lam)
    if not finite:
        re_r, im_r, R = [-1.0] * n, [0.0] * n, [1.0] * n
    return k, lam, re_r, im_r, [0.0] * n, [0.0] * n, R, [0.0] * n, [0.0] * n


def _columns(bc: ExtensionClass, E: list[float], m: float, face: Island, tol: float) -> tuple[list[float], ...]:
    """The output columns after E, (k, lam, re_r, im_r, re_t, im_t, R, T,
    phase_t), at energies ``E`` above the gap, for a wave coming in through
    ``face``: a transmitting condition must be in the class at ``tol``; a
    separating one reflects totally at ``face``.

    At m = 0 the kernels give lambda = 1 and k = E exactly, and every other
    column depends on the energy only through lambda, so one row is computed
    and its columns after k repeated, bit for bit the rows of every energy.
    """
    if m == 0.0 and len(E) > 1:
        n = len(E)
        return (list(E), *(col * n for col in _columns(bc, E[:1], m, face, tol)[1:]))
    if isinstance(bc, Transmitting):
        return _transmitting(bc.alpha, face, E, m, tol)
    return _separating(bc.rho, face, E, m)


def _energy(E: float, m: float) -> tuple[list[float], float]:
    """The one energy of a scalar call as a grid, and the mass; raises
    :class:`BelowGapError` if E <= m, and :class:`ValidationError` unless
    E <= B (:data:`~.matrix2.MAX_MAGNITUDE`)."""
    m = check_mass(m)
    E = float(E)
    if E <= m:
        raise BelowGapError(f"E = {E} is not above the mass gap m = {m}")
    if not E <= MAX_MAGNITUDE:
        raise ValidationError(f"E must be at most {BOUND}, got {E!r}")
    return [E], m


def _row(E: list[float], cols: tuple[list[float], ...], i: int = 0) -> ScatteringResult:
    """Row ``i`` of the kernel's columns over the energies ``E``; at one
    energy, the row of :func:`sweep_columns` there, bit for bit."""
    k, lam, re_r, im_r, re_t, im_t, R, T, phase_t = cols
    return ScatteringResult(
        E[i], k[i], lam[i], complex(re_r[i], im_r[i]), complex(re_t[i], im_t[i]), R[i], T[i], phase_t[i]
    )


def scatter_alpha(a: AlphaBC, E: float, m: float, face: Island = Island.LEFT) -> ScatteringResult:
    """Scatter a wave coming in through ``face`` off a transmitting condition.

    Runs the b-form kernel (module docstring) at one energy; raises
    :class:`NotInClassError` when ``a`` is not in the class.
    """
    E, m = _energy(E, m)
    return _row(E, _transmitting(a, face, E, m, DEFAULT_TOL))


def scatter_rho(rho: RhoBC, E: float, m: float, face: Island = Island.LEFT) -> ScatteringResult:
    """Total reflection off one face of a separating condition.

    Left face: lambda (1 - r) = i rho_- (1 + r), so r = (lambda - i rho)/(lambda + i rho);
    right face mirrors to r = (lambda + i rho)/(lambda - i rho); rho = +inf gives r = -1.
    Always |r| = 1 and T = 0.
    """
    E, m = _energy(E, m)
    return _row(E, _separating(rho, face, E, m))


def check_sweep(bc: ExtensionClass, e_min: float, e_max: float, steps: int, m: float,
                tol: float = DEFAULT_TOL) -> float:
    """Refuse a sweep before any row is computed (grid, size, class); returns the mass."""
    m = check_mass(m)
    if steps < 2:
        raise ValidationError("steps must be >= 2")
    if not (m < e_min < e_max <= MAX_MAGNITUDE):
        raise ValidationError(f"need m < e_min < e_max <= {BOUND}")
    try:  # one allocation refuses a grid that cannot fit, before any is built
        [0.0] * steps
    except (MemoryError, OverflowError):
        raise ValidationError(f"no energy grid of {steps} steps fits in memory") from None
    if isinstance(bc, Transmitting):
        require_class(bc.alpha, tol)
    return m


def sweep_part(bc: ExtensionClass, e_min: float, e_max: float, steps: int, m: float, face: Island, tol: float,
               lo: int, hi: int) -> ScatteringColumns:
    """Rows ``lo..hi-1`` of a sweep :func:`check_sweep` accepted: those points of the
    ``numpy.linspace`` grid, by its arithmetic, bit for bit, the last set to ``e_max``."""
    start, div = float(e_min), steps - 1
    delta = float(e_max) - start
    step = delta / div
    points = range(lo, min(hi, div))
    # where the step underflows to 0, numpy takes i / div * delta
    grid = [i * step + start for i in points] if step else [i / div * delta + start for i in points]
    grid += [float(e_max)] * (hi == steps)
    return ScatteringColumns(grid, *_columns(bc, grid, m, face, tol))


def sweep_columns(bc: ExtensionClass, e_min: float, e_max: float, steps: int, m: float,
                  face: Island = Island.LEFT, tol: float = DEFAULT_TOL) -> ScatteringColumns:
    """Uniform energy grid of scattering results, ordered by E, as columns
    of Python floats: the grid of ``numpy.linspace`` and its rows, bit for
    bit."""
    return sweep_part(bc, e_min, e_max, steps, check_sweep(bc, e_min, e_max, steps, m, tol), face, tol, 0, steps)


# ---------------------------------------------------------------------------
# Two-unit switching demonstration
# ---------------------------------------------------------------------------

#: The demonstration's operating point: energy E = 1 at mass m = 0.
DEMO_E, DEMO_M = 1.0, 0.0


class UnitReport(Record):
    """One junction unit: its condition, transparency, and spin action;
    ``up_maps_to`` is B (1, 0) normalized, and ``down_maps_to`` B (0, 1)."""

    __slots__ = ()

    def __new__(cls, name: str, alpha: AlphaBC, r: complex, t: complex, T: float, transmission_phase: float,
                up_maps_to: tuple[complex, complex], down_maps_to: tuple[complex, complex],
                preserves_spin: bool, swaps_spin: bool):
        return _new(cls, (name, alpha, r, t, T, transmission_phase, up_maps_to, down_maps_to,
                          preserves_spin, swaps_spin))


class PhaseVariant(Record):
    """Transmission through a phase-shift unit of phase ``theta``."""

    __slots__ = ()

    def __new__(cls, theta: float, t: complex, T: float, transmission_phase: float):
        return _new(cls, (theta, t, T, transmission_phase))

    @property
    def verified(self) -> bool:
        """Full transmission with phase theta (mod 2 pi), both within 1e-12.  With d the
        phase minus theta, cos d + i sin d is ``cmath.exp(1j * d)`` bit for bit but for the
        imaginary zero's sign at d = -0.0, which ``abs`` ignores: the same verdict."""
        return bool(
            abs(self.T - 1.0) <= 1e-12 and math.isfinite(d := self.transmission_phase - self.theta)
            and abs(complex(math.cos(d), math.sin(d)) - 1.0) <= 1e-12
        )


class SwitchDemoReport(Record):
    """The demonstration's two units, its phase variants and its verdict."""

    __slots__ = ()

    def __new__(cls, unit0: UnitReport, unit1: UnitReport, phase_variants: tuple[PhaseVariant, ...], ok: bool):
        return _new(cls, (unit0, unit1, phase_variants, ok))


def _unit(x: complex, y: complex) -> tuple[complex, complex]:
    """(x, y) normalized; + 0j turns -0.0 into 0.0, so no part prints as a
    negative zero."""
    n = math.hypot(x.real, x.imag, y.real, y.imag)
    return (x / n + 0j, y / n + 0j) if n > 0.0 else (0j, 0j)


def _unit_report(name: str, a: AlphaBC) -> UnitReport:
    res = scatter_alpha(a, DEMO_E, DEMO_M)
    a1, a2, a3, a4 = a
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
    at the operating point.  The variant's ``theta`` is theta mod 2 pi, the
    angle the condition is built from: for a large theta, theta mod the
    double nearest 2 pi is not theta mod 2 pi within 1e-12."""
    theta = theta % TWO_PI
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
