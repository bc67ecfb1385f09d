import math
from dataclasses import dataclass

import numpy as np
import pytest

from diracjunction.boundary import AlphaBC, RhoBC, random_alpha, random_rho
from diracjunction.correspondence import Separating, Transmitting, mu_constant
from diracjunction.deficiency import (
    BoundaryPair,
    DeficiencyFunction,
    Island,
    Sign,
    SmoothBump,
    boundary_form,
    boundary_form_quadrature,
    combination_boundary,
    gram_matrix,
    ode_residual,
    reference_normalization,
    verify_selfadjoint_domain,
)
from diracjunction.deficiency import _simpson
from diracjunction.errors import OutsideIslandError, ValidationError


class TestEvaluation:
    def test_left_plus_massless_at_origin(self):
        f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=0.0, lam=0.0)
        np.testing.assert_allclose(f.evaluate(0.0), [1.0, -1.0], atol=1e-15)

    def test_right_function_vanishes_on_left(self):
        f = DeficiencyFunction(Island.RIGHT, Sign.PLUS, m=0.0, lam=0.0)
        for x in (-3.0, -0.5, -1e-9):
            np.testing.assert_array_equal(f.evaluate(x), [0.0, 0.0])

    def test_massive_spinor_prefactors(self):
        mu = mu_constant(1.0)
        assert mu == pytest.approx((1 + 1j) / math.sqrt(2))
        cases = {
            (Island.LEFT, Sign.PLUS): -mu,
            (Island.RIGHT, Sign.PLUS): mu,
            (Island.LEFT, Sign.MINUS): np.conj(mu),
            (Island.RIGHT, Sign.MINUS): -np.conj(mu),
        }
        for (island, sign), down in cases.items():
            f = DeficiencyFunction(island, sign, m=1.0, lam=0.25)
            assert f.spinor[1] == pytest.approx(down)

    def test_decay_rate(self):
        f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=1.0, lam=0.0)
        # e^{sqrt(2) x} on the left island
        assert f.evaluate(-1.0)[0] == pytest.approx(math.exp(-math.sqrt(2)))

    def test_vectorized_evaluation(self):
        f = DeficiencyFunction(Island.RIGHT, Sign.MINUS, m=0.5, lam=0.3)
        xs = np.linspace(-1, 2, 7)
        vals = f.evaluate(xs)
        assert vals.shape == (2, 7)
        assert np.all(vals[:, xs < 0.3] == 0)

    def test_boundary_pair_is_one_sided(self):
        f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=0.0, lam=0.0)
        bp = f.boundary_pair()
        np.testing.assert_allclose(bp.at_minus, [1.0, -1.0])
        np.testing.assert_array_equal(bp.at_plus, [0.0, 0.0])


@dataclass(frozen=True)
class _NonSolutionProbe(DeficiencyFunction):
    """chi_L * (1, 0) e^x: right decay, wrong spinor structure."""

    def evaluate(self, x):
        xs = np.asarray(x, dtype=float)
        radial = np.where(xs <= -self.lam, np.exp(xs), 0.0)
        return np.multiply.outer(np.array([1.0, 0.0], dtype=complex), radial)


class TestOdeResidual:
    def test_true_eigenfunction_small_residual(self):
        f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=0.0, lam=0.0)
        assert ode_residual(f, -1.0, 1e-4) <= 1e-7

    def test_non_solution_probe_large_residual(self):
        probe = _NonSolutionProbe(Island.LEFT, Sign.PLUS, m=0.0, lam=0.0)
        assert ode_residual(probe, -1.0, 1e-4) > 0.3

    @pytest.mark.parametrize("island", list(Island))
    @pytest.mark.parametrize("sign", list(Sign))
    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 10.0])
    def test_second_order_convergence(self, island, sign, m):
        lam = 0.25
        x = -lam - 1.0 if island is Island.LEFT else lam + 1.0
        f = DeficiencyFunction(island, sign, m=m, lam=lam)
        h = 1e-3
        ratio = ode_residual(f, x, h) / ode_residual(f, x, h / 2)
        assert ratio == pytest.approx(4.0, abs=0.1)

    def test_outside_island_rejected(self):
        f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=0.0, lam=1.0)
        with pytest.raises(OutsideIslandError):
            ode_residual(f, -1.0, 1e-3)  # stencil touches the face
        with pytest.raises(OutsideIslandError):
            ode_residual(f, 0.5, 1e-3)
        with pytest.raises(ValidationError):
            ode_residual(f, -2.0, 0.0)


class TestGram:
    def test_normalized_at_lambda_zero(self):
        g = gram_matrix(Sign.PLUS, m=0.0, lam=0.0)
        np.testing.assert_allclose(g, np.eye(2), atol=1e-10)

    def test_off_diagonal_exactly_zero(self):
        g = gram_matrix(Sign.MINUS, m=1.0, lam=2.0)
        assert g[0, 1] == 0.0 and g[1, 0] == 0.0

    def test_reference_prefactor_anomaly(self):
        # with the reference prefactor the norms are e^{-4 sqrt(1+m^2) lam}
        assert reference_normalization(0.0, 1.0) == pytest.approx(math.exp(-1.0))
        g = gram_matrix(Sign.PLUS, m=0.0, lam=1.0)
        np.testing.assert_allclose(np.diag(g), math.exp(-4.0), rtol=1e-10)

    def test_unit_prefactor(self):
        g = gram_matrix(Sign.PLUS, m=0.0, lam=1.0, normalization=1.0)
        # integral of 2 e^{2x} up to -1: e^{-2}
        np.testing.assert_allclose(np.diag(g), math.exp(-2.0), rtol=1e-10)

    @pytest.mark.parametrize("sign", list(Sign))
    def test_rank_two(self, sign):
        for m, lam in ((0.0, 0.0), (1.0, 0.5), (10.0, 1.0)):
            g = gram_matrix(sign, m=m, lam=lam)
            assert np.linalg.matrix_rank(g, tol=1e-30) == 2
            assert g[0, 0] > 0 and g[1, 1] > 0

    def test_insufficient_extent_rejected(self):
        from diracjunction.errors import QuadratureFailureError

        with pytest.raises(QuadratureFailureError):
            gram_matrix(Sign.PLUS, m=0.0, lam=0.0, extent=1.0)

    @pytest.mark.parametrize("m", [0.5, 1.0, 10.0])
    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0])
    def test_reference_diagonal_is_analytic(self, m, lam):
        g = gram_matrix(Sign.MINUS, m=m, lam=lam)
        expected = math.exp(-4.0 * math.sqrt(1.0 + m * m) * lam)
        np.testing.assert_allclose(np.diag(g), expected, rtol=1e-10)

    @pytest.mark.parametrize("n", [-3, 0, 1, 2, 4, 2**16])
    def test_grid_must_be_odd_and_at_least_three(self, n):
        f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=0.0)
        with pytest.raises(ValidationError, match="odd number of points"):
            gram_matrix(Sign.PLUS, m=0.0, lam=0.0, num_points=n)
        with pytest.raises(ValidationError, match="odd number of points"):
            boundary_form_quadrature([(1.0, f)], [(1.0, f)], m=0.0, num_points=n)


class TestSimpson:
    def test_exact_on_cubic(self):
        xs = np.linspace(-0.5, 2.0, 9)
        y = 3.0 * xs**3 - 2.0 * xs**2 + xs - 7.0
        exact = 0.75 * xs**4 - 2.0 / 3.0 * xs**3 + 0.5 * xs**2 - 7.0 * xs
        value = _simpson(y, xs)
        assert value == pytest.approx(exact[-1] - exact[0], rel=1e-12)

    def test_even_grid_rejected(self):
        xs = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ValidationError):
            _simpson(xs, xs)


class TestBoundaryForm:
    def test_zero_values(self):
        z = BoundaryPair([0, 0], [0, 0])
        assert boundary_form(z, z) == 0

    def test_single_surviving_term(self):
        psi = BoundaryPair([0, 0], [1, 0])
        phi = BoundaryPair([0, 0], [0, 1])
        assert boundary_form(psi, phi) == pytest.approx(-1j)

    def test_identity_condition_cancellation(self):
        psi = BoundaryPair([1, 0], [1, 0])
        phi = BoundaryPair([0, 1], [0, 1])
        assert boundary_form(psi, phi) == pytest.approx(0.0)


class TestQuadratureGreenIdentity:
    def test_eigenfunction_shortcut(self):
        # psi = phi = left/plus eigenfunction: the difference equals
        # -2i ||psi||^2, and matches the boundary expression
        for m, lam in ((0.0, 0.0), (1.0, 1.0)):
            f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=m, lam=lam)
            terms = [(1.0 + 0j, f)]
            value = boundary_form_quadrature(terms, terms, m=m, lam=lam)
            norm2 = gram_matrix(Sign.PLUS, m=m, lam=lam, normalization=1.0)[0, 0]
            assert value == pytest.approx(-2j * norm2, abs=1e-10)
            bp = f.boundary_pair()
            assert value == pytest.approx(boundary_form(bp, bp), abs=1e-10)

    def test_disjoint_compact_supports_give_zero(self):
        left = SmoothBump(Island.LEFT, center=-3.0, width=1.0, spinor=(1, 2j))
        right = SmoothBump(Island.RIGHT, center=4.0, width=2.0, spinor=(1j, 0))
        value = boundary_form_quadrature([(1.0, left)], [(1.0, right)], m=0.5)
        assert abs(value) <= 1e-12

    @pytest.mark.parametrize("m", [0.0, 1.0])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_random_combinations_match_boundary_values(self, m, lam):
        rng = np.random.default_rng(int(10 * m + lam) + 5)
        basis = [
            DeficiencyFunction(island, sign, m=m, lam=lam)
            for island in Island
            for sign in Sign
        ]
        bumps = [
            SmoothBump(Island.LEFT, center=-lam - 2.5, width=1.0, spinor=(1, -1j), lam=lam),
            SmoothBump(Island.RIGHT, center=lam + 1.5, width=0.75, spinor=(0.5j, 1), lam=lam),
        ]

        def random_terms():
            coefs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            return list(zip(coefs, basis + bumps))

        for _ in range(3):
            psi = random_terms()
            phi = random_terms()
            lhs = boundary_form_quadrature(psi, phi, m=m, lam=lam)
            rhs = boundary_form(combination_boundary(psi), combination_boundary(phi))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_mass_mismatch_rejected(self):
        f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=1.0, lam=0.0)
        with pytest.raises(ValidationError):
            boundary_form_quadrature([(1.0, f)], [(1.0, f)], m=0.0)

    def test_bump_must_sit_inside_island(self):
        with pytest.raises(ValidationError):
            SmoothBump(Island.LEFT, center=-0.5, width=1.0, spinor=(1, 0), lam=0.0)


class TestSelfAdjointVerifier:
    def test_spin_flip_condition(self):
        report = verify_selfadjoint_domain(
            Transmitting(AlphaBC(0, 1, 1, 0)), samples=100, seed=1
        )
        assert report.passed
        assert report.max_symmetry_residual <= 1e-12

    def test_zero_rho_condition(self):
        report = verify_selfadjoint_domain(
            Separating(RhoBC(0.0, 0.0)), samples=100, seed=2
        )
        assert report.passed
        assert report.max_symmetry_residual <= 1e-12

    def test_infinite_rho_condition(self):
        report = verify_selfadjoint_domain(
            Separating(RhoBC(math.inf, 0.5)), samples=60, seed=3
        )
        assert report.passed

    def test_violating_pair_breaks_symmetry(self):
        # condition-violating pair against an in-domain pair: nonzero form
        bad = BoundaryPair([0, 0], [1, 0])
        good = BoundaryPair([0, 1], [0, 1])  # satisfies the identity condition
        assert abs(boundary_form(bad, good)) == pytest.approx(1.0)

    def test_random_conditions(self):
        rng = np.random.default_rng(9)
        for i in range(10):
            bc = (
                Transmitting(random_alpha(rng))
                if i % 2
                else Separating(random_rho(rng))
            )
            assert verify_selfadjoint_domain(bc, samples=40, seed=i).passed
