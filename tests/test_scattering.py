import math

import numpy as np
import pytest

from diracjunction.boundary import (
    AlphaBC,
    RhoBC,
    apply_alpha,
    current,
    make_phase_shift,
    make_spin_flip,
    random_alpha,
    random_rho,
)
from diracjunction.correspondence import Separating, Transmitting
from diracjunction.deficiency import Island
from diracjunction.errors import BelowGapError, NotInClassError
from diracjunction.scattering import (
    ScatteringResult,
    scatter_alpha,
    scatter_batch,
    scatter_rho,
    sweep_columns,
    switch_demo,
)

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
        for bc in (Transmitting(SPIN_FLIP), Separating(RhoBC(0.0, 0.0))):
            with pytest.raises(BelowGapError):
                scatter_batch(bc, [0.5], 1.0)
            with pytest.raises(BelowGapError):
                scatter_batch(bc, [1.0], 1.0)


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


def solve_oracle(a: AlphaBC, lam: float) -> tuple[complex, complex]:
    """Per-energy reference: np.linalg.solve on the matching system."""
    b = a.matrix()
    u_plus = np.array([1.0, lam], dtype=complex)
    u_minus = np.array([1.0, -lam], dtype=complex)
    system = np.column_stack([b @ u_minus, -u_plus])
    r, t = np.linalg.solve(system, -(b @ u_plus))
    return complex(r), complex(t)


def assert_same_result(x: ScatteringResult, y: ScatteringResult) -> None:
    for name in ScatteringResult.__dataclass_fields__:
        u, v = getattr(x, name), getattr(y, name)
        if isinstance(u, (float, complex)) and u != u:  # NaN
            assert v != v, name
        else:
            assert u == v, name


def random_grid(rng, m: float, n: int) -> np.ndarray:
    return np.sort(m + np.exp(rng.uniform(math.log(1e-6), math.log(30.0), n)))


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
        rng = np.random.default_rng(65)
        for m in (0.0, 0.5, 1.0, 10.0):
            a = random_alpha(rng)
            for row in sweep_columns(Transmitting(a), m + 0.01, m + 5.0, 9, m).rows():
                assert_same_result(row, scatter_alpha(a, row.E, m))
            rho = RhoBC(float(rng.standard_cauchy()), math.inf)
            for face in (Island.LEFT, Island.RIGHT):
                for row in sweep_columns(Separating(rho), m + 0.01, m + 5.0, 9, m, face=face).rows():
                    assert_same_result(row, scatter_rho(rho, row.E, m, face=face))

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
        m = 1e200
        for bc in (Transmitting(SPIN_FLIP), Separating(RhoBC(0.0, 0.0))):
            cols = sweep_columns(bc, 2e200, 3e200, 5, m)
            for x in (cols.k, cols.lam, cols.r, cols.t, cols.R, cols.T, cols.phase_t):
                assert np.isfinite(x).all()
        # lambda = sqrt((E - m)/(E + m)) is exact at E = 2m, 3m up to rounding
        np.testing.assert_allclose(cols.lam[[0, -1]], [3 ** -0.5, 2 ** -0.5], rtol=1e-15)

    def test_wavenumbers_when_e_plus_m_overflows(self):
        mpmath = pytest.importorskip("mpmath")
        m = 1e308
        cols = sweep_columns(Separating(RhoBC(0.0, 0.0)), 1.5e308, 1.7e308, 5, m)
        with mpmath.workdps(40):
            for E, k, lam in zip(cols.E.tolist(), cols.k.tolist(), cols.lam.tolist()):
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
        with pytest.raises(BelowGapError):
            scatter_batch(Transmitting(SPIN_FLIP), [2.0, 1.0, 3.0], 1.0)

    def test_grid_must_be_finite(self):
        with pytest.raises(ValueError):
            sweep_columns(Transmitting(SPIN_FLIP), 1.0, math.inf, 3, 0.0)


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

    def test_phase_variants(self):
        report = switch_demo()
        thetas = [v.theta for v in report.phase_variants]
        assert thetas == [math.pi / 4, math.pi / 2]
        for v in report.phase_variants:
            assert v.transmission_phase == pytest.approx(v.theta)
            assert v.T == pytest.approx(1.0)
