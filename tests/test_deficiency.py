import math
from dataclasses import dataclass

import numpy as np
import pytest

from diracjunction.boundary import AlphaBC, RhoBC, random_alpha, random_rho, random_spinor
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
from diracjunction.deficiency import _check_terms, _island_grid, _simpson, _violating_pairs
from diracjunction.errors import OutsideIslandError, ValidationError


def _grouped_simpson(y, xs):
    """Composite Simpson as grouped sums of the odd and even samples."""
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def _reference_quadrature(psi_terms, phi_terms, m, lam, num_points=2**15 + 1):
    """<H psi | phi> - <psi | H phi> from the complex (2, n) spinor arrays of
    both combinations on the full grid of each half-line, H applied with the
    analytic derivatives."""
    reach = max(_check_terms(psi_terms, m, lam), _check_terms(phi_terms, m, lam))
    total = 0.0 + 0.0j
    for island in (Island.LEFT, Island.RIGHT):
        xs = _island_grid(island, lam, reach, num_points)

        def on_grid(terms):
            vals = np.zeros((2, xs.size), dtype=complex)
            ders = np.zeros((2, xs.size), dtype=complex)
            for coef, term in terms:
                if term.island is island:
                    vals += coef * term.evaluate(xs)
                    ders += coef * term.derivative(xs)
            return vals, np.array([-1j * ders[1] + m * vals[0], -1j * ders[0] - m * vals[1]])

        pv, hp = on_grid(psi_terms)
        qv, hq = on_grid(phi_terms)
        total += complex(_grouped_simpson((np.conj(hp) * qv - np.conj(pv) * hq).sum(axis=0), xs))
    return total


def _domain_pair(bc, rng):
    """One in-domain boundary pair from its own draws: the per-sample
    reference for the verifier's single batched draw."""
    if isinstance(bc, Transmitting):
        v = random_spinor(rng)
        return BoundaryPair(at_minus=v, at_plus=bc.alpha.matrix() @ v)
    rho = bc.rho

    def face(r):
        s = complex(*rng.standard_normal(2))
        if math.isinf(r):
            return np.array([0.0, s])
        return np.array([s, 1j * r * s])

    return BoundaryPair(at_minus=face(rho.rho_minus), at_plus=face(rho.rho_plus))


def _magnitude(pair):
    return float(max(np.abs(pair.at_minus).max(), np.abs(pair.at_plus).max()))


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

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, m):
        with pytest.raises(ValidationError, match="mass"):
            DeficiencyFunction(Island.LEFT, Sign.PLUS, m=m)

    @pytest.mark.parametrize("norm", [math.nan, math.inf, 0.0])
    def test_bad_normalization_rejected(self, norm):
        with pytest.raises(ValidationError, match="normalization"):
            DeficiencyFunction(Island.LEFT, Sign.PLUS, m=0.0, normalization=norm)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
    def test_bad_half_length_rejected(self, lam):
        with pytest.raises(ValidationError, match="lam"):
            DeficiencyFunction(Island.RIGHT, Sign.MINUS, m=1.0, lam=lam)

    @pytest.mark.parametrize("island", list(Island))
    def test_evaluate_and_derivative_are_spinor_times_profile(self, island):
        f = DeficiencyFunction(island, Sign.MINUS, m=0.5, lam=0.3)
        bump = SmoothBump(island, center=1.5 if island is Island.RIGHT else -1.5,
                          width=0.5, spinor=(1j, 2.0), lam=0.3)
        xs = np.linspace(-3.0, 3.0, 61)
        for term in (f, bump):
            value, slope = term.profile(xs)
            u = np.asarray(term.spinor, dtype=complex)
            np.testing.assert_array_equal(term.evaluate(xs), np.multiply.outer(u, value))
            np.testing.assert_array_equal(term.derivative(xs), np.multiply.outer(u, slope))
            assert np.all(value[(xs < term.support[0]) | (xs > term.support[1])] == 0.0)

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

    @pytest.mark.parametrize("extent", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_extent_must_be_finite_and_positive(self, extent):
        with pytest.raises(ValidationError, match="extent"):
            gram_matrix(Sign.PLUS, m=0.0, lam=0.0, extent=extent)

    @pytest.mark.parametrize("sign", list(Sign))
    @pytest.mark.parametrize("m, lam", [(0.0, 0.0), (0.5, 0.7), (10.0, 0.25)])
    def test_diagonal_matches_complex_spinor_reference(self, sign, m, lam):
        norm = reference_normalization(m, lam)
        g = gram_matrix(sign, m=m, lam=lam)
        for i, island in enumerate((Island.LEFT, Island.RIGHT)):
            xs = _island_grid(island, lam, 40.0 / math.hypot(1.0, m), 2**16 + 1)
            vals = DeficiencyFunction(island, sign, m, lam, norm).evaluate(xs)
            ref = _grouped_simpson(np.abs(vals[0]) ** 2 + np.abs(vals[1]) ** 2, xs)
            assert g[i, i] == pytest.approx(ref, rel=1e-13, abs=0.0)

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
        value = _simpson(xs) @ y
        assert value == pytest.approx(exact[-1] - exact[0], rel=1e-12)

    def test_even_grid_rejected(self):
        xs = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ValidationError):
            _simpson(xs)


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

    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 10.0])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_matches_complex_integrand_reference(self, m, lam):
        rng = np.random.default_rng(int(100 * m + 10 * lam) + 17)
        far = 40.0 / math.hypot(1.0, m) - 1.5  # support ends 1 before the grid does
        basis = [DeficiencyFunction(island, sign, m=m, lam=lam) for island in Island for sign in Sign]
        basis += [
            SmoothBump(Island.LEFT, center=-lam - 0.3, width=0.25, spinor=(1, -1j), lam=lam),
            SmoothBump(Island.RIGHT, center=lam + 0.2, width=0.15, spinor=(0.5j, 1), lam=lam),
            SmoothBump(Island.LEFT, center=-lam - far, width=0.5, spinor=(2, 1j), lam=lam),
            SmoothBump(Island.RIGHT, center=lam + far, width=0.5, spinor=(-1, 3), lam=lam),
        ]

        def random_terms(pool):
            pick = rng.permutation(len(pool))[: rng.integers(1, len(pool) + 1)]
            coefs = rng.standard_normal(pick.size) + 1j * rng.standard_normal(pick.size)
            return [(c, pool[i]) for c, i in zip(coefs, pick)]

        for _ in range(3):
            psi, phi = random_terms(basis), random_terms(basis)
            ref = _reference_quadrature(psi, phi, m, lam)
            value = boundary_form_quadrature(psi, phi, m=m, lam=lam)
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))
        left = [t for t in basis if t.island is Island.LEFT]
        right = [t for t in basis if t.island is Island.RIGHT]
        # terms on different half-lines, or none: the integrand is identically zero
        for psi, phi in ((random_terms(left), random_terms(right)), ([], random_terms(basis)), ([], [])):
            value = boundary_form_quadrature(psi, phi, m=m, lam=lam)
            assert value == 0j and _reference_quadrature(psi, phi, m, lam) == 0j

    @pytest.mark.parametrize("m", [math.nan, math.inf, -1.0])
    def test_bad_mass_rejected(self, m):
        bump = SmoothBump(Island.RIGHT, center=3.0, width=1.0, spinor=(1, 0))
        with pytest.raises(ValidationError, match="mass"):
            boundary_form_quadrature([(1.0, bump)], [(1j, bump)], m=m)

    def test_mass_mismatch_rejected(self):
        f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=1.0, lam=0.0)
        with pytest.raises(ValidationError):
            boundary_form_quadrature([(1.0, f)], [(1.0, f)], m=0.0)

    def test_bump_must_sit_inside_island(self):
        with pytest.raises(ValidationError):
            SmoothBump(Island.LEFT, center=-0.5, width=1.0, spinor=(1, 0), lam=0.0)

    @pytest.mark.parametrize("island, center, width", [
        (Island.RIGHT, math.inf, 1.0), (Island.LEFT, -math.inf, 1.0),
        (Island.RIGHT, math.nan, 1.0), (Island.RIGHT, 3.0, math.nan), (Island.RIGHT, 3.0, 0.0),
    ])
    def test_bump_needs_a_finite_support(self, island, center, width):
        with pytest.raises(ValidationError):
            SmoothBump(island, center=center, width=width, spinor=(1, 0))


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

    def test_matches_pairwise_loop(self):
        # reference: per-sample draws, and the form evaluated pair by pair
        # with boundary_form; magnitudes are taken with numpy's abs, as the
        # verifier takes them (Python's abs of a complex may differ in the last bit)
        rng = np.random.default_rng(10)
        for i in range(12):
            bc = Transmitting(random_alpha(rng)) if i % 2 else Separating(random_rho(rng))
            report = verify_selfadjoint_domain(bc, samples=30, seed=i)
            draws = np.random.default_rng(i)
            pairs = [_domain_pair(bc, draws) for _ in range(30)]
            forms = np.array([[boundary_form(p, q) for q in pairs] for p in pairs])
            scales = np.array([[max(1.0, _magnitude(p) * _magnitude(q)) for q in pairs] for p in pairs])
            assert report.max_symmetry_residual == np.max(np.abs(forms) / scales)
            for face, bad in _violating_pairs(bc).items():
                expected = np.max(np.abs([boundary_form(bad, q) for q in pairs[:16]]))
                assert report.witness_magnitudes[face] == expected

    def test_zero_samples_never_pass(self):
        report = verify_selfadjoint_domain(Transmitting(AlphaBC(0, 1, 1, 0)), samples=0)
        assert report.max_symmetry_residual == 0.0
        assert report.witness_magnitudes == {"plus_face": 0.0, "minus_face": 0.0}
        assert not report.passed

    def test_negative_samples_rejected(self):
        with pytest.raises(ValidationError, match="samples"):
            verify_selfadjoint_domain(Transmitting(AlphaBC(0, 1, 1, 0)), samples=-3)

    def test_random_conditions(self):
        rng = np.random.default_rng(9)
        for i in range(10):
            bc = (
                Transmitting(random_alpha(rng))
                if i % 2
                else Separating(random_rho(rng))
            )
            assert verify_selfadjoint_domain(bc, samples=40, seed=i).passed
