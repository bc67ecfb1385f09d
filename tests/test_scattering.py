import cmath
import math
import random

import numpy as np
import pytest

from diracjunction.boundary import (
    AlphaBC,
    BDForm,
    RhoBC,
    alpha_to_bd,
    bd_to_alpha,
    make_phase_shift,
    make_spin_flip,
    random_alpha,
    random_rho,
    validate_class,
)
from diracjunction import scattering
from diracjunction.correspondence import Separating, Transmitting, alpha_to_u2
from diracjunction.deficiency import Island
from diracjunction.errors import BelowGapError, NotInClassError, ValidationError
from diracjunction.matrix2 import DEFAULT_TOL, arg_2pi, compose
from diracjunction.scattering import (
    PhaseVariant,
    ScatteringColumns,
    ScatteringResult,
    scatter_alpha,
    scatter_rho,
    phase_variant,
    sweep_columns,
    switch_demo,
)
from helpers import B, BOUND_MATCH, apply_alpha, as_array, current, scatter_batch

SPIN_FLIP = AlphaBC(0, 1, 1, 0)


def modes(E: float, m: float):
    """(k, lambda) at one energy, as the kernel's columns give them."""
    cols = scatter_batch(Transmitting(SPIN_FLIP), [E], m)
    return float(cols.k[0]), float(cols.lam[0])


class TestPlaneSpinors:
    """The modes u_+- = (1, +-lambda) at the kernel's k and lambda."""

    def test_massless(self):
        k, lam = modes(1.0, 0.0)
        assert k == pytest.approx(1.0)
        assert lam == pytest.approx(1.0)

    def test_unit_mass(self):
        k, lam = modes(math.sqrt(2), 1.0)
        assert k == pytest.approx(1.0)
        assert lam == pytest.approx(math.sqrt(2) - 1)

    def test_near_gap(self):
        _, lam = modes(1.0000001, 1.0)
        assert lam == pytest.approx(0.0, abs=1e-3)
        assert lam > 0

    @pytest.mark.parametrize("E,m", [(1.0, 0.0), (2.5, 1.0), (10.5, 10.0)])
    def test_eigen_residual(self, E, m):
        # u_+- solve (sigma_x (+-k) + m sigma_z) u = E u
        k, lam = modes(E, m)
        for sign in (1.0, -1.0):
            u = np.array([1.0, sign * lam], dtype=complex)
            h = np.array([[m, sign * k], [sign * k, -m]], dtype=complex)
            assert float(np.abs(h @ u - E * u).max()) <= 1e-12

    def test_below_gap(self):
        for E in (0.5, 1.0):
            with pytest.raises(BelowGapError):
                scatter_alpha(SPIN_FLIP, E, 1.0)
            with pytest.raises(BelowGapError):
                scatter_rho(RhoBC(0.0, 0.0), E, 1.0)


class TestScatterAlpha:
    def test_free_line(self):
        res = scatter_alpha(AlphaBC(1, 0, 0, 1), 1.7, 0.0)
        assert abs(res.r) <= 1e-14
        assert res.t == pytest.approx(1.0)
        assert res.T == pytest.approx(1.0)

    def test_massless_spin_flip_transparent(self):
        res = scatter_alpha(SPIN_FLIP, 1.0, 0.0)
        assert abs(res.r) <= 1e-14
        assert res.t == pytest.approx(1.0)
        assert res.T == pytest.approx(1.0)
        # the junction interchanges the spin components of boundary values
        np.testing.assert_allclose(apply_alpha(SPIN_FLIP, [1, 0]), [0, 1])
        np.testing.assert_allclose(apply_alpha(SPIN_FLIP, [0, 1]), [1, 0])

    def test_phase_condition(self):
        res = scatter_alpha(AlphaBC(-1j, 0, 0, -1j), 1.0, 0.0)
        assert abs(res.r) <= 1e-14
        assert res.t == pytest.approx(-1j)
        assert res.T == pytest.approx(1.0)
        assert res.transmission_phase == pytest.approx(-math.pi / 2)

    def test_massive_spin_flip_half_transmission(self):
        res = scatter_alpha(SPIN_FLIP, math.sqrt(2), 1.0)
        assert res.r == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
        assert res.T == pytest.approx(0.5, abs=1e-12)

    def test_unitarity_random(self):
        rng = np.random.default_rng(61)
        masses = [0.0, 0.5, 1.0, 10.0]
        worst = 0.0
        for i in range(1000):
            a = random_alpha(rng)
            m = masses[i % 4]
            E = m + math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
            res = scatter_alpha(a, E, m)
            worst = max(worst, abs(res.R + res.T - 1.0))
        assert worst <= 1e-12

    def test_current_conserved_pointwise(self):
        rng = np.random.default_rng(62)
        for i in range(300):
            a = random_alpha(rng)
            m = [0.0, 1.0][i % 2]
            res = scatter_alpha(a, m + 1.3, m)
            # the scattering state's boundary values at the two faces
            u_plus = np.array([1.0, res.lam], dtype=complex)
            u_minus = np.array([1.0, -res.lam], dtype=complex)
            minus, plus = u_plus + res.r * u_minus, res.t * u_plus
            assert abs(current(plus) - current(minus)) <= 1e-12 * max(
                1.0, abs(current(minus))
            )


class TestScatterRho:
    def test_zero_rho_full_reflection(self):
        res = scatter_rho(RhoBC(0.0, 0.0), 1.0, 0.0)
        assert res.r == pytest.approx(1.0)
        assert res.T == 0.0

    def test_infinite_rho(self):
        res = scatter_rho(RhoBC(math.inf, math.inf), 1.0, 0.0)
        assert res.r == pytest.approx(-1.0)

    def test_unit_rho(self):
        res = scatter_rho(RhoBC(0.0, 1.0), 1.0, 0.0)
        assert res.r == pytest.approx(-1j)

    def test_right_face_mirror(self):
        res = scatter_rho(RhoBC(1.0, 0.0), 1.0, 0.0, face=Island.RIGHT)
        assert res.r == pytest.approx(1j)
        left_zero = scatter_rho(RhoBC(math.inf, 0.0), 1.0, 0.0, face=Island.RIGHT)
        assert left_zero.r == pytest.approx(-1.0)

    def test_always_unimodular(self):
        rng = np.random.default_rng(63)
        for i in range(500):
            r = random_rho(rng)
            m = [0.0, 0.5, 1.0, 10.0][i % 4]
            E = m + math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
            face = Island.LEFT if i % 2 else Island.RIGHT
            res = scatter_rho(r, E, m, face=face)
            assert abs(abs(res.r) - 1.0) <= 1e-12
            assert res.T == 0.0


class TestSweep:
    def test_spin_flip_monotone_transmission(self):
        rows = sweep_columns(Transmitting(SPIN_FLIP), 1.1, 2.1, 11, m=1.0).rows()
        ts = [row.T for row in rows]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert [row.E for row in rows] == sorted(row.E for row in rows)

    def test_separating_never_transmits(self):
        rows = sweep_columns(Separating(RhoBC(0.0, 0.0)), 0.5, 2.0, 7, m=0.0).rows()
        assert all(row.T == 0.0 for row in rows)

    def test_free_line_all_transparent(self):
        rows = sweep_columns(Transmitting(AlphaBC(1, 0, 0, 1)), 0.5, 2.0, 5, m=0.0).rows()
        assert all(row.T == pytest.approx(1.0) for row in rows)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_columns(Transmitting(SPIN_FLIP), 2.0, 1.0, 5, m=0.0)
        with pytest.raises(ValueError):
            sweep_columns(Transmitting(SPIN_FLIP), 1.0, 2.0, 1, m=0.0)
        with pytest.raises(ValueError):
            sweep_columns(Transmitting(SPIN_FLIP), 0.5, 2.0, 5, m=1.0)

    def test_gap_suppression(self):
        rows = sweep_columns(Transmitting(SPIN_FLIP), 1.0 + 1e-6, 2.0, 30, m=1.0).rows()
        ts = [row.T for row in rows]
        assert ts[0] < 1e-5
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("steps", [2, 9, 16_000, 16_001])
    def test_scalar_and_batch_paths_agree_to_the_bit(self, steps):
        # the sweep's lists against the numpy adapter on numpy.linspace's
        # grid, at the sizes on both sides of the former scalar/array fork
        rng = np.random.default_rng(steps)
        cases = [
            (Transmitting(random_alpha(rng)), 0.7, 0.9, 5.3, Island.LEFT),
            (Separating(random_rho(rng)), 10.0, 10.2, 13.0, Island.RIGHT),
            (Separating(RhoBC(0.3, math.inf)), 0.0, 5e-324, 1e-323, Island.LEFT),  # the step underflows
            (Transmitting(SPIN_FLIP), B / 2, 0.75 * B, B, Island.LEFT),
        ]
        for bc, m, e_min, e_max, face in cases:
            sweep = sweep_columns(bc, e_min, e_max, steps, m, face)
            grid = np.linspace(e_min, e_max, steps)
            batch = scatter_batch(bc, grid, m, face)
            assert all(isinstance(column, list) for column in sweep)
            assert all(isinstance(column, np.ndarray) for column in batch)
            assert list(map(repr, sweep.E)) == list(map(repr, grid.tolist()))
            for name in ScatteringColumns._fields:
                assert list(map(repr, getattr(sweep, name))) == list(map(repr, getattr(batch, name).tolist())), name

    def test_off_class_condition_is_rejected(self):
        # (1, 0, 1, 0) is not admissible: at m = 0 its matching determinant
        # vanishes at every energy, which no class member's can
        bad = AlphaBC(1, 0, 1, 0)
        with pytest.raises(NotInClassError):
            scatter_alpha(bad, 1.0, 0.0)
        with pytest.raises(NotInClassError):
            sweep_columns(Transmitting(bad), 0.5, 2.0, 4, 0.0)

    def test_massless_spin_flip_transparency_family(self):
        for theta in np.linspace(0, 2 * math.pi, 7, endpoint=False):
            for b2 in (1.0, -1.0):
                a = make_spin_flip(float(theta), b2)
                for E in (0.2, 1.0, 5.0):
                    assert scatter_alpha(a, E, 0.0).T == pytest.approx(1.0)


class TestMassZero:
    """At m = 0, where lambda = 1 at every energy, the kernel computes one
    row and repeats its columns after k; each value has the bits of the row
    computed alone, as a one-energy call computes it."""

    CONDITIONS = [
        (Transmitting(SPIN_FLIP), Island.LEFT),
        (Transmitting(bd_to_alpha(BDForm(0.7, 1.3, -0.4, 2.1, (1.0 + 0.4 * 2.1) / 1.3))), Island.RIGHT),
        *((Separating(RhoBC(rho, rho)), face) for rho in (0.0, -0.0, math.inf) for face in Island),
    ]

    @pytest.mark.parametrize("bc, face", CONDITIONS)
    def test_sweep_rows_are_the_rows_computed_alone(self, bc, face):
        for lo, hi in ((0, 300), (17, 18), (298, 300)):
            part = scattering.sweep_part(bc, 0.5, 3.0, 300, 0.0, face, DEFAULT_TOL, lo, hi)
            for i, e in enumerate(part.E):
                alone = scattering._columns(bc, [e], 0.0, face, DEFAULT_TOL)
                assert [col[i].hex() for col in part[1:]] == [col[0].hex() for col in alone]
            # computed once: one float object per column after k
            assert all(len(set(map(id, col))) == 1 for col in part[2:])
            assert part.k == part.E and part.k is not part.E

    @pytest.mark.parametrize("bc, face", CONDITIONS)
    def test_one_energy_calls_are_the_sweep_rows(self, bc, face):
        cols = sweep_columns(bc, 0.5, 3.0, 7, 0.0, face)
        for i, e in enumerate(cols.E):
            if isinstance(bc, Transmitting):
                alone = scatter_alpha(bc.alpha, e, 0.0, face)
            else:
                alone = scatter_rho(bc.rho, e, 0.0, face)
            assert [x.hex() for x in _parts(alone)] == [x.hex() for x in _parts(cols.row(i))]


def _parts(res: ScatteringResult) -> list[float]:
    return [res.E, res.k, res.lam, res.r.real, res.r.imag, res.t.real, res.t.imag, res.R, res.T,
            res.transmission_phase]


def solve_oracle(a: AlphaBC, lam: float, face: Island = Island.LEFT) -> tuple[complex, complex]:
    """Per-energy reference: np.linalg.solve on the matching system, of
    t u_+ = B (u_+ + r u_-) from the left and u_- + r u_+ = B t u_- from the right."""
    b = as_array(a)
    u_plus = np.array([1.0, lam], dtype=complex)
    u_minus = np.array([1.0, -lam], dtype=complex)
    if face is Island.RIGHT:
        r, t = np.linalg.solve(np.column_stack([u_plus, -(b @ u_minus)]), -u_minus)
    else:
        r, t = np.linalg.solve(np.column_stack([b @ u_minus, -u_plus]), -(b @ u_plus))
    return complex(r), complex(t)


def exact_amplitudes(mpmath, a: AlphaBC, lam: float):
    """(r, t) of t u_+ = B (u_+ + r u_-) by Cramer's rule in mpmath's
    working precision, for the entries of ``a`` and ``lam`` as given."""
    a1, a2, a3, a4 = (mpmath.mpc(z.real, z.imag) for z in a.as_tuple())
    lam = mpmath.mpf(lam)
    det = (a3 - a4 * lam) - lam * (a1 - a2 * lam)
    r = (lam * (a1 + a2 * lam) - (a3 + a4 * lam)) / det
    t = ((a3 - a4 * lam) * (a1 + a2 * lam) - (a1 - a2 * lam) * (a3 + a4 * lam)) / det
    return r, t


def assert_same_result(x: ScatteringResult, y: ScatteringResult) -> None:
    """Bit for bit: repr tells -0.0 from 0.0 and prints every NaN alike."""
    for name in ScatteringResult._fields:
        u, v = getattr(x, name), getattr(y, name)
        assert type(u) is type(v) and repr(u) == repr(v), name


def random_grid(rng, m: float, n: int) -> np.ndarray:
    return np.sort(m + np.exp(rng.uniform(math.log(1e-6), math.log(30.0), n)))


def relative_grid(rng, m: float, n: int) -> np.ndarray:
    """Energies from m + 1e-6 to m + 30 in units of max(1, m), so that they
    stay above the gap at any mass."""
    return m + max(m, 1.0) * np.exp(rng.uniform(math.log(1e-6), math.log(30.0), n))


def wide_alpha(rng, top: float = 1e3) -> AlphaBC:
    """A class member with |b1|, |b2|, |b3| log-uniform over 1/top to top."""

    def b() -> float:
        return math.exp(rng.uniform(math.log(1.0 / top), math.log(top))) * rng.choice([-1.0, 1.0])

    b1, b2, b3 = b(), b(), b()
    return bd_to_alpha(BDForm(rng.uniform(0.0, 2.0 * math.pi), b1, b2, b3, (1.0 - b2 * b3) / b1))


class TestRightFace:
    """A wave coming in from the right: r' = (lam (b1 - b4) + i (b3 - b2 lam^2)) / D
    and t' = t e^{-2i theta}, with R and T those of the left face."""

    def test_matches_the_right_face_solve(self):
        rng = random.Random(9)
        worst = 0.0
        for i in range(2000):
            m = (0.0, 0.5, 1.0, 10.0)[i % 4]
            a = random_alpha(rng)
            E = m + math.exp(rng.uniform(-3.0, 3.0))
            cols = scatter_batch(Transmitting(a), [E], m, Island.RIGHT)
            r0, t0 = solve_oracle(a, float(cols.lam[0]), Island.RIGHT)
            worst = max(worst, abs(cols.r[0] - r0), abs(cols.t[0] - t0))
            left = scatter_batch(Transmitting(a), [E], m)
            assert (cols.R[0], cols.T[0]) == (left.R[0], left.T[0])
        assert worst <= 1e-14  # 6.8e-16 on these draws

    def test_the_cli_sweep_takes_the_face(self):
        # the member of bd = (0.3, 2, 0.5, 1, 0.25) at m = 1, E = 2
        a = bd_to_alpha(BDForm(0.3, 2.0, 0.5, 1.0, 0.25))
        right = sweep_columns(Transmitting(a), 2.0, 3.0, 2, 1.0, Island.RIGHT).row(0)
        r0, t0 = solve_oracle(a, right.lam, Island.RIGHT)
        assert right.r == pytest.approx(r0, abs=1e-15) and right.t == pytest.approx(t0, abs=1e-15)
        assert right.transmission_phase == pytest.approx(cmath.phase(t0), abs=1e-15)
        assert abs(right.r - scatter_alpha(a, 2.0, 1.0).r) > 0.5

    def test_scatter_alpha_takes_the_face(self):
        # at one energy, the rows of a two-point right-face sweep, bit for bit
        rng = random.Random(9)
        for i in range(400):
            m = (0.0, 0.5, 1.0, 10.0)[i % 4]
            a = random_alpha(rng) if i % 2 else wide_alpha(rng, 1e6)
            E = m + math.exp(rng.uniform(-3.0, 3.0))
            for row in sweep_columns(Transmitting(a), E, 2.0 * E, 2, m, Island.RIGHT).rows():
                assert_same_result(scatter_alpha(a, row.E, m, Island.RIGHT), row)
            assert_same_result(scatter_alpha(a, E, m, Island.LEFT), scatter_alpha(a, E, m))


class TestSMatrix:
    """The on-shell S-matrix [[r, t'], [t, r']], from the kernel at both faces,
    is conj(U) of the lambda-similar condition (a1, lam a2, a3/lam, a4) at
    m = 0, U its extension's unitary: the kernel and the maps computed apart."""

    @pytest.mark.parametrize("seed, draw", [(7, random_alpha), (9, lambda rng: wide_alpha(rng, 1e6))])
    def test_is_the_conjugate_extension_unitary(self, seed, draw):
        rng = random.Random(seed)
        worst = 0.0
        for i in range(2000):
            a = draw(rng)
            m = (0.0, 0.5, 1.0, 10.0)[i % 4]
            E = m + math.exp(rng.uniform(-3.0, 3.0))
            left, right = (sweep_columns(Transmitting(a), E, 2.0 * E, 2, m, face).row(0) for face in Island)
            a1, a2, a3, a4 = a.as_tuple()
            u = compose(alpha_to_u2(AlphaBC(a1, left.lam * a2, a3 / left.lam, a4), 0.0))
            s = ((left.r, right.t), (left.t, right.r))
            worst = max(worst, *(abs(x - y.conjugate()) for row, urow in zip(s, u) for x, y in zip(row, urow)))
        assert worst <= 1e-14  # 7.9e-16 and 1.2e-15 on these draws


class TestScatterBatch:
    def test_matches_per_energy_solve(self):
        rng = np.random.default_rng(64)
        worst = 0.0
        for i in range(200):
            m = [0.0, 0.5, 1.0, 10.0][i % 4]
            a = random_alpha(rng)
            cols = scatter_batch(Transmitting(a), random_grid(rng, m, 25), m)
            for lam, r, t in zip(cols.lam, cols.r, cols.t):
                r0, t0 = solve_oracle(a, float(lam))
                worst = max(worst, abs(r - r0), abs(t - t0))
        assert worst <= 1e-13

    def test_sweep_rows_equal_scalar_wrappers(self):
        # one kernel, run on Python floats by the wrappers and on arrays by
        # the batch: every row agrees to the bit
        rng = np.random.default_rng(65)
        for m in (0.0, 0.5, 1.0, 10.0):
            a = random_alpha(rng)
            for row in sweep_columns(Transmitting(a), m + 0.01, m + 5.0, 9, m).rows():
                assert_same_result(row, scatter_alpha(a, row.E, m))
            rho = RhoBC(float(rng.standard_cauchy()), math.inf)
            for face in (Island.LEFT, Island.RIGHT):
                for row in sweep_columns(Separating(rho), m + 0.01, m + 5.0, 9, m, face=face).rows():
                    assert_same_result(row, scatter_rho(rho, row.E, m, face=face))
        for m in (0.0, 0.5, 1.0, 10.0, B / 64):  # relative_grid keeps E below 31 m
            for _ in range(3):
                grid = relative_grid(rng, m, 40)
                for a in (random_alpha(rng), wide_alpha(rng)):
                    for row in scatter_batch(Transmitting(a), grid, m).rows():
                        assert_same_result(row, scatter_alpha(a, row.E, m))
                cauchy = rng.standard_cauchy(3).tolist()
                for rho in (RhoBC(cauchy[0], cauchy[1]), RhoBC(math.inf, cauchy[2]), random_rho(rng)):
                    for face in (Island.LEFT, Island.RIGHT):
                        for row in scatter_batch(Separating(rho), grid, m, face).rows():
                            assert_same_result(row, scatter_rho(rho, row.E, m, face=face))

    def test_R_T_phase_no_less_accurate_than_numpy_forms(self):
        # R and T are ratios of sums of squares of the b-form and phase_t is
        # math.atan2 of t; the earlier forms np.abs(z) ** 2 of the computed
        # r, t and np.angle(t) serve as the baseline.  Against 40-digit
        # values of the exact R, T at the kernel's lambda and the exact
        # argument of the computed t, the kernel's worst and mean relative
        # errors are no larger.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = np.random.default_rng(68)
        errors = {name: ([], []) for name in ("R", "T", "phase_t", "R_separating")}

        def record(name, new, old, refs):
            for ni, oi, ref in zip(new.tolist(), old.tolist(), refs):
                scale = max(abs(float(ref)), 1e-300)
                errors[name][0].append(float(abs(ni - ref)) / scale)
                errors[name][1].append(float(abs(oi - ref)) / scale)

        for m in (0.0, 0.5, 1.0, 10.0, 1e3):
            for a in (random_alpha(rng), random_alpha(rng), wide_alpha(rng), wide_alpha(rng)):
                cols = scatter_batch(Transmitting(a), relative_grid(rng, m, 25), m)
                exact = [exact_amplitudes(mpmath, a, lam) for lam in cols.lam.tolist()]
                record("R", cols.R, np.abs(cols.r) ** 2, [abs(r) ** 2 for r, _ in exact])
                record("T", cols.T, np.abs(cols.t) ** 2, [abs(t) ** 2 for _, t in exact])
                record("phase_t", cols.phase_t, np.angle(cols.t),
                       [mpmath.arg(mpmath.mpc(z.real, z.imag)) for z in cols.t.tolist()])
            rho = float(rng.standard_cauchy())
            for face, sign in ((Island.LEFT, -2.0), (Island.RIGHT, 2.0)):
                cols = scatter_batch(Separating(RhoBC(rho, rho)), relative_grid(rng, m, 25), m, face)
                old_r = np.exp(1j * sign * np.arctan2(rho, cols.lam))
                errors["R_separating"][0].extend(np.abs(cols.R - 1.0).tolist())
                errors["R_separating"][1].extend(np.abs(np.abs(old_r) ** 2 - 1.0).tolist())
        for name, (new, old) in errors.items():
            assert max(new) <= max(old), name
            assert sum(new) <= sum(old), name

    def test_kernel_checks_the_class_at_the_given_tol(self):
        bad = AlphaBC(1, 0, 1, 0)  # det = 1 - lambda: singular as lambda -> 1
        for m in (0.0, 1e-14):
            with pytest.raises(NotInClassError):
                sweep_columns(Transmitting(bad), 0.5, 2.0, 6, m)
            with pytest.raises(NotInClassError):
                scatter_batch(Transmitting(bad), [0.5, 2.0], m)
        # a class member perturbed by 1e-6: rejected at the default tol,
        # scattered at a looser one
        near = AlphaBC(1.0 + 1e-6, 0, 0, 1.0)
        with pytest.raises(NotInClassError):
            sweep_columns(Transmitting(near), 0.5, 2.0, 3, 0.0)
        cols = sweep_columns(Transmitting(near), 0.5, 2.0, 3, 0.0, tol=1e-5)
        assert np.isfinite(cols.T).all() and (cols.rows()[0].flag is None)

    def test_conservation_on_sweeps(self):
        rng = np.random.default_rng(66)
        for i in range(100):
            m = [0.0, 0.5, 1.0, 10.0][i % 4]
            grid = random_grid(rng, m, 50)
            cols = scatter_batch(Transmitting(random_alpha(rng)), grid, m)
            assert np.abs(cols.R + cols.T - 1.0).max() <= 1e-12
            face = Island.LEFT if i % 2 else Island.RIGHT
            cols = scatter_batch(Separating(random_rho(rng)), grid, m, face)
            assert np.abs(np.abs(cols.r) - 1.0).max() <= 1e-12
            assert not cols.T.any() and not cols.t.any()

    def test_separating_unimodularity_no_worse_than_division(self):
        rng = np.random.default_rng(67)
        new = old = 0.0
        for i in range(400):
            m = [0.0, 0.5, 1.0, 10.0][i % 4]
            rho = float(rng.standard_cauchy()) * 10.0 ** rng.integers(-3, 4)
            cols = scatter_batch(Separating(RhoBC(0.0, rho)), random_grid(rng, m, 50), m)
            new = max(new, float(np.abs(np.abs(cols.r) - 1.0).max()))
            # the direct quotient r = (lambda - i rho)/(lambda + i rho)
            old = max(old, max(abs(abs((lam - 1j * rho) / (lam + 1j * rho)) - 1.0)
                               for lam in cols.lam.tolist()))
        assert new <= old

    def test_huge_mass_is_finite(self):
        m = B / 3
        for bc in (Transmitting(SPIN_FLIP), Separating(RhoBC(0.0, 0.0))):
            cols = sweep_columns(bc, 2 * m, 3 * m, 5, m)
            for x in (cols.k, cols.lam, cols.r, cols.t, cols.R, cols.T, cols.phase_t):
                assert np.isfinite(x).all()
        # lambda = sqrt((E - m)/(E + m)) is exact at E = 2m, 3m up to rounding
        np.testing.assert_allclose([cols.lam[0], cols.lam[-1]], [3 ** -0.5, 2 ** -0.5], rtol=1e-15)

    def test_wavenumbers_when_e_plus_m_overflows(self):
        # E + m is below 2 B at the largest masses, so it cannot overflow;
        # an energy above B is refused
        mpmath = pytest.importorskip("mpmath")
        m = B / 2
        with pytest.raises(ValidationError, match=BOUND_MATCH):
            sweep_columns(Separating(RhoBC(0.0, 0.0)), 0.75 * B, 1e308, 5, m)
        cols = sweep_columns(Separating(RhoBC(0.0, 0.0)), 0.75 * B, B, 5, m)
        with mpmath.workdps(40):
            for E, k, lam in zip(cols.E, cols.k, cols.lam):
                E_, m_ = mpmath.mpf(E), mpmath.mpf(m)
                assert math.isfinite(k) and math.isfinite(lam)
                assert abs(k - mpmath.sqrt(E_ * E_ - m_ * m_)) <= 1e-15 * k
                assert abs(lam - mpmath.sqrt((E_ - m_) / (E_ + m_))) <= 1e-15 * lam

    def test_massless_wavenumber_is_exact(self):
        grid = np.random.default_rng(68).uniform(0.01, 50.0, 1000)
        cols = scatter_batch(Transmitting(SPIN_FLIP), grid, 0.0)
        assert (cols.k == grid).all() and (cols.lam == 1.0).all()
        # subnormal energies, which halving would round away
        tiny = np.array([5e-324, 1.5e-323, 3e-310])
        cols = scatter_batch(Transmitting(SPIN_FLIP), tiny, 0.0)
        assert (cols.k == tiny).all() and (cols.lam == 1.0).all()

    def test_rejects_energies_below_gap(self):
        for e_min in (0.5, 1.0):
            with pytest.raises(ValidationError, match="need m < e_min"):
                sweep_columns(Transmitting(SPIN_FLIP), e_min, 3.0, 3, 1.0)

    def test_grid_must_be_finite(self):
        with pytest.raises(ValueError):
            sweep_columns(Transmitting(SPIN_FLIP), 1.0, math.inf, 3, 0.0)


class TestBForm:
    """The kernel's real four-parameter form against references."""

    def test_R_T_against_mpmath_on_wide_conditions(self):
        # 600 class members with |b1|, |b2|, |b3| log-uniform over 1e-4 to
        # 1e4, at m in {0, 1, 10, 1e4}: R and T against the 50-digit solve of
        # the rounded entries, so the rounding of alpha_to_bd counts.  The
        # limits are the worst errors of the Cramer kernel this one replaced
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(600)
        worst_R = worst_T = 0.0
        with mpmath.workdps(50):
            for i in range(600):
                b1, b2, b3 = (math.exp(rng.uniform(math.log(1e-4), math.log(1e4))) * rng.choice([-1.0, 1.0])
                              for _ in range(3))
                a = bd_to_alpha(BDForm(rng.uniform(0.0, 2.0 * math.pi), b1, b2, b3, (1.0 - b2 * b3) / b1))
                m = (0.0, 1.0, 10.0, 1e4)[i % 4]
                E = m + max(m, 1.0) * math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
                res = scatter_alpha(a, E, m)
                r, t = exact_amplitudes(mpmath, a, res.lam)
                worst_R = max(worst_R, float(abs(res.R - abs(r) ** 2)))
                worst_T = max(worst_T, float(abs(res.T - abs(t) ** 2)))
        assert worst_R <= 1.0e-15 and worst_T <= 5.5e-16, (worst_R, worst_T)

    def test_R_and_T_are_the_moduli_of_g1_and_g2(self):
        # the paper's reading: T = |g2|^2 and R = |g1|^2 of the extension of
        # (a1, lam a2, a3/lam, a4) at m = 0, at every mass and energy
        rng = np.random.default_rng(69)
        worst = 0.0
        for i in range(400):
            a = random_alpha(rng)
            m = (0.0, 0.5, 1.0, 10.0, 100.0)[i % 5]
            res = scatter_alpha(a, m + math.exp(rng.uniform(math.log(0.05), math.log(3.0))), m)
            a1, a2, a3, a4 = a.as_tuple()
            q = alpha_to_u2(AlphaBC(a1, res.lam * a2, a3 / res.lam, a4), 0.0)
            worst = max(worst, abs(res.T - abs(q.g2) ** 2), abs(res.R - abs(q.g1) ** 2))
        assert worst <= 1e-14

    @pytest.mark.parametrize("big", [1e76, B, 1e160, 1e200, 1e300])
    def test_huge_entries_neither_overflow_nor_lose_R(self, big):
        # |D|^2 of the b's is at most 8 B^2, finite; an entry beyond B, where
        # it could overflow to R = inf/inf, is refused
        a = AlphaBC(big, 0, 0, 1 / big)
        if big > B:
            with pytest.raises(ValidationError, match=BOUND_MATCH):
                scatter_alpha(a, 0.5, 0.0)
            return
        for m in (0.0, 1.0):
            res = scatter_alpha(a, m + 0.5, m)
            assert (res.r, res.R) == (-1.0, 1.0) and 0.0 <= res.T <= 4.0 / big / big * (1 + 1e-15) + 5e-324
            assert res.t.real == pytest.approx(2.0 / big, rel=1e-15) and res.t.imag == 0.0
        cols = sweep_columns(Transmitting(AlphaBC(big * 1j, big, 0, 1j / big)), 0.5, 2.0, 5, 0.0)
        assert all(map(math.isfinite, [*cols.re_r, *cols.im_r, *cols.R, *cols.T, *cols.phase_t]))
        assert all(R + T == pytest.approx(1.0, abs=1e-15) for R, T in zip(cols.R, cols.T))

    @pytest.mark.parametrize("b2", [1.0, 1e10, B])
    def test_the_denominator_stays_positive_at_the_gap(self, b2):
        # the kernel divides by |N|^2 + 4 lam^2, and every E > m within B
        # gives lam^2 >= 2^-54, whatever the b's: at the first energy above
        # the gap the columns are finite and R + T = 1
        a = bd_to_alpha(BDForm(0.3, 1, b2, 0, 1))
        for m in (0.0, 5e-324, 1e-300, 1.0, 1e10, B / 2):
            res = scatter_alpha(a, math.nextafter(m, math.inf), m)
            assert all(map(math.isfinite, (res.k, res.lam, res.r.real, res.r.imag, res.t.real, res.t.imag,
                                           res.R, res.T, res.transmission_phase))), (b2, m)
            assert res.lam >= 2.0**-27 and abs(res.R + res.T - 1.0) <= 1e-15, (b2, m, res)

    def test_exact_zeros_are_positive(self):
        # the free line with theta = pi: r = 0 and t = -1 with +0 parts, so
        # phase_t is +pi
        for a in (AlphaBC(1, 0, 0, 1), AlphaBC(-1, 0, 0, -1), AlphaBC(0, 1, 1, 0)):
            res = scatter_alpha(a, 1.0, 0.0)
            assert repr(res.r) == "0j" and math.copysign(1.0, res.t.imag) == 1.0
        assert scatter_alpha(AlphaBC(-1, 0, 0, -1), 1.0, 0.0).transmission_phase == math.pi

    def test_the_form_is_measured_once_per_condition_and_tol(self):
        a = random_alpha(np.random.default_rng(70))
        report = validate_class(a)
        assert validate_class(a) is report and validate_class(a, 1e-12) is not report
        form, phase = report.form, report.phase
        assert alpha_to_bd(a) is form and abs(phase) == pytest.approx(1.0, abs=1e-15)
        assert arg_2pi(phase) == form.theta


class TestSwitchDemo:
    def test_report_verifies(self):
        report = switch_demo()
        assert report.ok

    def test_unit0_preserves_spin(self):
        report = switch_demo()
        assert report.unit0.preserves_spin and not report.unit0.swaps_spin
        np.testing.assert_allclose(report.unit0.up_maps_to, [1, 0], atol=1e-14)
        assert report.unit0.T == pytest.approx(1.0)

    def test_unit1_swaps_spin(self):
        report = switch_demo()
        assert report.unit1.swaps_spin and not report.unit1.preserves_spin
        np.testing.assert_allclose(report.unit1.up_maps_to, [0, 1], atol=1e-14)
        np.testing.assert_allclose(report.unit1.down_maps_to, [1, 0], atol=1e-14)
        assert report.unit1.T == pytest.approx(1.0)

    @pytest.mark.parametrize("theta", [1e5, 1e10])
    def test_large_phase_is_verified_against_the_reduced_angle(self, theta):
        v = phase_variant(theta)
        assert v.theta == theta % (2.0 * math.pi)
        assert v.verified

    def test_phase_verdict_is_the_complex_exponentials(self):
        # cos d + i sin d in place of cmath.exp(1j * d): the same verdict, at the
        # threshold, at signed zeros and at non-finite phases too
        rng = np.random.default_rng(11)
        tiny = np.ldexp(1e-12, np.arange(-3, 4))
        ds = [0.0, -0.0, math.nan, math.inf, -math.inf, math.pi, -2 * math.pi, *tiny, *-tiny,
              *(np.exp(rng.uniform(-46, 9, 2000)) * rng.choice([-1.0, 1.0], 2000))]
        for d in map(float, ds):
            for T in (1.0, 1.0 + 2e-12):
                expected = abs(T - 1.0) <= 1e-12 and abs(cmath.exp(1j * d) - 1.0) <= 1e-12
                assert PhaseVariant(0.0, 1j, T, d).verified is expected, d

    def test_phase_variants(self):
        report = switch_demo()
        thetas = [v.theta for v in report.phase_variants]
        assert thetas == [math.pi / 4, math.pi / 2]
        for v in report.phase_variants:
            assert v.transmission_phase == pytest.approx(v.theta)
            assert v.T == pytest.approx(1.0)
