import math
import sys
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from diracjunction.boundary import AlphaBC, RhoBC, random_alpha, random_rho
from diracjunction.correspondence import Separating, Sign, Transmitting, face_factor, mu_constant
from diracjunction.deficiency import (
    DeficiencyFunction,
    Island,
    SmoothBump,
    boundary_form,
    boundary_form_quadrature,
    gram_matrix,
    ode_residual,
    reference_normalization,
    traces,
    verify_selfadjoint_domain,
)
from diracjunction.deficiency import _BLOCK, _check_terms, _simpson_blocks, _violating_pairs
from diracjunction.errors import JunctionError, OutsideIslandError, ValidationError
from helpers import B, random_spinor


#: Grid sizes at the block edges: the shortest grid, one point short of a
#: full block, and one point past one and two full blocks.
BLOCK_EDGE_POINTS = (3, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 1)


def _island_linspace(island, lam, reach, n):
    """The full n-point grid of one half-line's quadrature."""
    if island is Island.LEFT:
        return np.linspace(-lam - reach, -lam, n)
    return np.linspace(lam, lam + reach, n)


def _simpson_weights(xs):
    """Composite Simpson weights on the whole grid ``xs``, as one vector."""
    n = xs.size
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * ((xs[-1] - xs[0]) / (3.0 * (n - 1)))


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
        xs = _island_linspace(island, lam, reach, num_points)

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
    """Face values of one in-domain pair from its own draws: the per-sample
    reference for the verifier's single batched draw."""
    if isinstance(bc, Transmitting):
        v = random_spinor(rng)
        return np.array([v, bc.alpha.matrix() @ v])
    rho = bc.rho

    def face(r):
        s = complex(*rng.standard_normal(2))
        if math.isinf(r):
            return np.array([0.0, s])
        return np.array([s, 1j * r * s])

    return np.array([face(rho.rho_minus), face(rho.rho_plus)], dtype=complex)


def _magnitude(pair):
    return float(np.abs(pair).max())


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

    def test_traces_are_one_sided(self):
        # each function's coefficient (here with a prefactor N = 2 in it)
        # times its spinor times e^(-sqrt(1+m^2) lam) at its own face, zero
        # at the other; bumps add nothing
        m, lam = 0.5, 0.3
        coef = (1.0 - 0.5j) * 2.0
        for own, island in enumerate((Island.LEFT, Island.RIGHT)):
            f = DeficiencyFunction(island, Sign.MINUS, m=m, lam=lam)
            bump = SmoothBump(island, center=(2 * own - 1) * 1.5, width=0.5, spinor=(1j, 2.0), lam=lam)
            faces = traces([(coef, f)])
            np.testing.assert_allclose(faces[own], (1.0 - 0.5j) * 2.0 * face_factor(m, lam) * f.spinor, rtol=1e-15)
            np.testing.assert_array_equal(faces[1 - own], [0.0, 0.0])
            np.testing.assert_array_equal(traces([(3.0, bump)]), np.zeros((2, 2)))
            np.testing.assert_array_equal(traces([(coef, f), (3.0, bump)]), faces)
        np.testing.assert_array_equal(traces([]), np.zeros((2, 2)))


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

    @pytest.mark.parametrize("sign", list(Sign))
    def test_rank_two(self, sign):
        for m, lam in ((0.0, 0.0), (1.0, 0.5), (10.0, 1.0)):
            g = gram_matrix(sign, m=m, lam=lam)
            assert np.linalg.matrix_rank(g, tol=1e-30) == 2
            assert g[0, 0] > 0 and g[1, 1] > 0

    @pytest.mark.parametrize("lam", [200.0, 800.0])
    def test_underflowing_reference_diagonal_names_lam(self, lam):
        # e^{-4 lam} underflows: at 200 the Gram was all zero (rank 0), at
        # 800 the prefactor itself underflowed and blamed the normalization
        with pytest.raises(ValidationError, match=r"lam = .* 0 <= lam <= 177\.099"):
            gram_matrix(Sign.PLUS, m=0.0, lam=lam)
        top = -math.log(sys.float_info.min) / 4.0
        assert np.linalg.matrix_rank(gram_matrix(Sign.PLUS, m=0.0, lam=top), tol=0.0) == 2

    @pytest.mark.parametrize("sign", list(Sign))
    @pytest.mark.parametrize("m, lam", [(0.0, 0.0), (0.5, 0.7), (10.0, 0.25)])
    def test_diagonal_matches_complex_spinor_reference(self, sign, m, lam):
        norm = reference_normalization(m, lam)
        for n in (2**16 + 1, *BLOCK_EDGE_POINTS):
            g = gram_matrix(sign, m=m, lam=lam, num_points=n)
            for i, island in enumerate((Island.LEFT, Island.RIGHT)):
                xs = _island_linspace(island, lam, 40.0 / math.hypot(1.0, m), n)
                vals = DeficiencyFunction(island, sign, m, lam).evaluate(xs)
                ref = norm**2 * _grouped_simpson(np.abs(vals[0]) ** 2 + np.abs(vals[1]) ** 2, xs)
                assert g[i, i] == pytest.approx(ref, rel=1e-13, abs=0.0)

    #: The diagonals (left, right) as ``float.hex`` for the grids 2**16 + 1
    #: and BLOCK_EDGE_POINTS, in that order; both signs give these.
    PINNED = {
        (0.0, 0.0): [
            ("0x1.0000000000037p+0", "0x1.0000000000036p+0"), ("0x1.aaaaaaaaaaaabp+3", "0x1.aaaaaaaaaaaabp+3"),
            ("0x1.00000000379c6p+0", "0x1.00000000379bep+0"), ("0x1.00000000378e1p+0", "0x1.00000000378e0p+0"),
            ("0x1.000000000378fp+0", "0x1.000000000378dp+0"),
        ],
        (0.5, 0.7): [
            ("0x1.65f57a8d12ddep-5", "0x1.65f57a8d12e06p-5"), ("0x1.2a4c90cae50c5p-1", "0x1.2a4c90cae50c5p-1"),
            ("0x1.65f57a8d60995p-5", "0x1.65f57a8d609d5p-5"), ("0x1.65f57a8d60877p-5", "0x1.65f57a8d6089ep-5"),
            ("0x1.65f57a8d17b3ep-5", "0x1.65f57a8d17b66p-5"),
        ],
        (10.0, 0.25): [
            ("0x1.6a5039c3290f1p-15", "0x1.6a5039c3290f1p-15"), ("0x1.2ded8577f7887p-11", "0x1.2ded8577f7886p-11"),
            ("0x1.6a5039c377be3p-15", "0x1.6a5039c377be0p-15"), ("0x1.6a5039c377aa8p-15", "0x1.6a5039c377aa6p-15"),
            ("0x1.6a5039c32df43p-15", "0x1.6a5039c32df41p-15"),
        ],
    }

    @pytest.mark.parametrize("sign", list(Sign))
    @pytest.mark.parametrize("m, lam", list(PINNED))
    def test_diagonal_is_pinned_bit_for_bit(self, sign, m, lam):
        for n, pinned in zip((2**16 + 1, *BLOCK_EDGE_POINTS), self.PINNED[m, lam], strict=True):
            g = gram_matrix(sign, m=m, lam=lam, num_points=n)
            assert (float(g[0, 0]).hex(), float(g[1, 1]).hex()) == pinned
            assert g[0, 1] == g[1, 0] == 0.0

    @pytest.mark.parametrize("m", [0.5, 1.0, 10.0])
    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0])
    def test_reference_diagonal_is_analytic(self, m, lam):
        g = gram_matrix(Sign.MINUS, m=m, lam=lam)
        expected = math.exp(-4.0 * math.sqrt(1.0 + m * m) * lam)
        np.testing.assert_allclose(np.diag(g), expected, rtol=1e-10)

    def test_huge_mass_gives_the_identity_without_overflow(self):
        # at m = B, the largest mass, the reference prefactor is sqrt(B):
        # nothing in the Gram quadrature overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = gram_matrix(Sign.PLUS, m=B, lam=0.0)
        np.testing.assert_allclose(g, np.eye(2), atol=1e-10)
        assert g[0, 1] == g[1, 0] == 0.0

    @pytest.mark.parametrize("n", [-3, 0, 1, 2, 4, 2**16])
    def test_grid_must_be_odd_and_at_least_three(self, n):
        f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=0.0)
        with pytest.raises(ValidationError, match="odd number of points"):
            gram_matrix(Sign.PLUS, m=0.0, lam=0.0, num_points=n)
        with pytest.raises(ValidationError, match="odd number of points"):
            boundary_form_quadrature([(1.0, f)], [(1.0, f)], m=0.0, num_points=n)


class TestSimpson:
    def test_exact_on_cubic(self):
        def antiderivative(x):
            return 0.75 * x**4 - 2.0 / 3.0 * x**3 + 0.5 * x**2 - 7.0 * x

        for n in (9, *BLOCK_EDGE_POINTS):
            value = sum(
                w @ (3.0 * xs**3 - 2.0 * xs**2 + xs - 7.0)
                for xs, w in _simpson_blocks(Island.LEFT, 0.5, 2.5, n)  # over [-3, -0.5]
            )
            exact = antiderivative(-0.5) - antiderivative(-3.0)
            assert value == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("n", [9, *BLOCK_EDGE_POINTS, 2**15 + 1, 2**16 + 1])
    @pytest.mark.parametrize("island, lam, reach", [(Island.LEFT, 0.7, 3.3), (Island.RIGHT, 0.0, 40.0)])
    def test_blocks_tile_the_full_grid_rule(self, island, lam, reach, n):
        blocks = list(_simpson_blocks(island, lam, reach, n))
        assert all(xs.size == w.size <= _BLOCK + 1 for xs, w in blocks)
        xs = np.concatenate([xs for xs, _ in blocks])
        full = _island_linspace(island, lam, reach, n)
        assert np.array_equal(xs, full)
        assert np.array_equal(np.concatenate([w for _, w in blocks]), _simpson_weights(full))

    def test_even_grid_rejected(self):
        with pytest.raises(ValidationError):
            next(_simpson_blocks(Island.RIGHT, 0.0, 1.0, 4))


class TestBoundaryForm:
    def test_zero_values(self):
        z = np.zeros((2, 2), dtype=complex)
        assert boundary_form(z, z) == 0

    def test_single_surviving_term(self):
        psi = np.array([[0, 0], [1, 0]], dtype=complex)
        phi = np.array([[0, 0], [0, 1]], dtype=complex)
        assert boundary_form(psi, phi) == pytest.approx(-1j)

    def test_identity_condition_cancellation(self):
        psi = np.array([[1, 0], [1, 0]], dtype=complex)
        phi = np.array([[0, 1], [0, 1]], dtype=complex)
        assert boundary_form(psi, phi) == pytest.approx(0.0)


class TestQuadratureGreenIdentity:
    def test_eigenfunction_shortcut(self):
        # psi = phi = left/plus eigenfunction: the difference equals
        # -2i ||psi||^2, ||psi||^2 = e^(-2 sqrt(1+m^2) lam)/sqrt(1+m^2) at
        # N = 1, and matches the boundary expression
        for m, lam in ((0.0, 0.0), (1.0, 1.0)):
            f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=m, lam=lam)
            terms = [(1.0 + 0j, f)]
            value = boundary_form_quadrature(terms, terms, m=m, lam=lam)
            rate = math.hypot(1.0, m)
            norm2 = math.exp(-2.0 * rate * lam) / rate
            assert value == pytest.approx(-2j * norm2, abs=1e-10)
            assert value == pytest.approx(boundary_form(traces(terms), traces(terms)), abs=1e-10)

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
            rhs = boundary_form(traces(psi), traces(phi))
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
            for n in (2**15 + 1, *BLOCK_EDGE_POINTS):
                ref = _reference_quadrature(psi, phi, m, lam, n)
                value = boundary_form_quadrature(psi, phi, m=m, lam=lam, num_points=n)
                assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))
        left = [t for t in basis if t.island is Island.LEFT]
        right = [t for t in basis if t.island is Island.RIGHT]
        # terms on different half-lines, or none: the integrand is identically zero
        for psi, phi in ((random_terms(left), random_terms(right)), ([], random_terms(basis)), ([], [])):
            value = boundary_form_quadrature(psi, phi, m=m, lam=lam)
            assert value == 0j and _reference_quadrature(psi, phi, m, lam) == 0j

    @pytest.mark.parametrize("n", [3, _BLOCK + 3, 3 * _BLOCK + 1])
    def test_bumps_covering_and_straddling_blocks_on_small_grids(self, n):
        # 3 points are one block, _BLOCK + 3 a full block and a 3-point one; on
        # 3 * _BLOCK + 1 points the wide bump covers the middle block whole and
        # the narrow one straddles the edge between the last two blocks
        m, lam = 0.0, 0.25
        cover = SmoothBump(Island.RIGHT, center=14.0, width=13.5, spinor=(1.0, -0.5j), lam=lam)
        straddle = SmoothBump(Island.RIGHT, center=27.0, width=2.0, spinor=(0.5j, 1.0), lam=lam)
        psi = [(1.0 + 0.5j, DeficiencyFunction(Island.LEFT, Sign.PLUS, m, lam)),
               (-0.3j, DeficiencyFunction(Island.RIGHT, Sign.MINUS, m, lam)), (0.8, cover)]
        phi = [(0.2 - 1j, DeficiencyFunction(Island.RIGHT, Sign.PLUS, m, lam)),
               (1.5, DeficiencyFunction(Island.LEFT, Sign.MINUS, m, lam)), (0.4j, straddle)]
        reach = max(_check_terms(psi, m, lam), _check_terms(phi, m, lam))
        blocks = [(xs[0], xs[-1]) for xs, _ in _simpson_blocks(Island.RIGHT, lam, reach, n)]
        if n == 3 * _BLOCK + 1:
            assert cover.support[0] <= blocks[1][0] and blocks[1][1] <= cover.support[1]
            assert straddle.support[0] < blocks[1][1] < blocks[2][0] < straddle.support[1]
        value = boundary_form_quadrature(psi, phi, m, lam, num_points=n)
        ref = _reference_quadrature(psi, phi, m, lam, n)
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))
        if n > 3:  # the Green identity gate, where the grid resolves the bumps
            assert value == pytest.approx(boundary_form(traces(psi), traces(phi)), abs=1e-8)

    def test_prefactors_ride_in_the_coefficients(self):
        # a term's prefactor is a factor of its coefficient; terms that
        # differ only in it share one profile
        m, lam = 0.5, 0.7
        n1, n2 = reference_normalization(m, lam), 3.25
        psi = [((1.0 - 0.5j) * n1, DeficiencyFunction(Island.LEFT, Sign.PLUS, m, lam)),
               (0.3j * n2, DeficiencyFunction(Island.LEFT, Sign.MINUS, m, lam)),
               (2.0 * n2, DeficiencyFunction(Island.RIGHT, Sign.PLUS, m, lam))]
        phi = [(0.2 + 1j, DeficiencyFunction(Island.LEFT, Sign.MINUS, m, lam)),
               (-1.5 * n1, DeficiencyFunction(Island.RIGHT, Sign.MINUS, m, lam))]
        for n in (2**15 + 1, *BLOCK_EDGE_POINTS):
            ref = _reference_quadrature(psi, phi, m, lam, n)
            value = boundary_form_quadrature(psi, phi, m, lam, num_points=n)
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))
        assert value == pytest.approx(boundary_form(traces(psi), traces(phi)), abs=1e-8)

    def test_huge_mass_and_prefactor_do_not_overflow(self):
        # at the largest mass, m = B, f' = sqrt(1+m^2) e^{...} is about B at
        # the face and the coefficient N = 2^127; N^2 = B/2 times the spinor
        # product is of order 1, and so is the form of the traces
        m, prefactor = B, 2.0 ** 127
        terms = [(prefactor, DeficiencyFunction(Island.LEFT, Sign.PLUS, m, 0.0))]
        unit = [(1.0, DeficiencyFunction(Island.LEFT, Sign.PLUS, m, 0.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = boundary_form_quadrature(terms, terms, m)
            ref = prefactor**2 * _reference_quadrature(unit, unit, m, 0.0)
            exact = boundary_form(traces(terms), traces(terms))
        assert exact == -1j
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))
        assert value == pytest.approx(exact, abs=1e-8)

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


class TestQuadratureMemory:
    """The quadratures walk their grids in blocks, so at the default
    ``num_points`` no array as long as a grid is built."""

    @staticmethod
    def _traced_peak(run):
        run()  # warm numpy's lazy state outside the trace
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("quadrature", ["gram", "green"])
    def test_traced_peak_stays_under_1_5_mb(self, quadrature):
        # one deficiency function and one bump per side, with coefficients
        m, lam = 0.5, 0.3
        left, right = Island.LEFT, Island.RIGHT
        psi = [
            (1.0 + 0.5j, DeficiencyFunction(left, Sign.PLUS, m, lam)),
            (-0.3j, DeficiencyFunction(right, Sign.MINUS, m, lam)),
            (0.8, SmoothBump(left, -lam - 2.0, 0.8, (1.0, -1j), lam=lam)),
        ]
        phi = [
            (0.2 - 1j, DeficiencyFunction(right, Sign.PLUS, m, lam)),
            (1.5, DeficiencyFunction(left, Sign.MINUS, m, lam)),
            (0.4j, SmoothBump(right, lam + 2.0, 0.8, (1j, 1.0), lam=lam)),
        ]
        if quadrature == "gram":
            peak = self._traced_peak(lambda: gram_matrix(Sign.PLUS, m, lam))
        else:
            peak = self._traced_peak(lambda: boundary_form_quadrature(psi, phi, m, lam))
        assert peak < 1.5e6


class TestQuadratureWork:
    """A block of the Green identity evaluates each distinct profile once,
    on the indices that cover its support."""

    @staticmethod
    def _counted(monkeypatch, cls):
        sizes = []
        profile = cls.profile

        def counted(self, x):
            sizes.append(np.size(x))
            return profile(self, x)

        monkeypatch.setattr(cls, "profile", counted)
        return sizes

    def test_shared_profile_is_evaluated_once_per_block(self, monkeypatch):
        m, lam, n = 0.5, 0.3, 2 * _BLOCK + 1  # two blocks per half-line
        # the signs differ, but a deficiency function's profile does not read its sign
        psi = [(1.0 + 0.5j, DeficiencyFunction(Island.LEFT, Sign.PLUS, m, lam))]
        phi = [(0.2 - 1j, DeficiencyFunction(Island.LEFT, Sign.MINUS, m, lam))]
        expected = _reference_quadrature(psi, phi, m, lam, n)
        sizes = self._counted(monkeypatch, DeficiencyFunction)
        value = boundary_form_quadrature(psi, phi, m, lam, num_points=n)
        assert sizes == [_BLOCK, _BLOCK + 1]
        assert abs(value - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_terms_differing_in_prefactor_share_a_profile(self, monkeypatch):
        m, lam, n = 0.5, 0.3, 2 * _BLOCK + 1
        psi = [(2.0, DeficiencyFunction(Island.LEFT, Sign.PLUS, m, lam)),
               (1j * reference_normalization(m, lam), DeficiencyFunction(Island.LEFT, Sign.MINUS, m, lam))]
        phi = [(0.2 - 1j, DeficiencyFunction(Island.LEFT, Sign.MINUS, m, lam))]
        sizes = self._counted(monkeypatch, DeficiencyFunction)
        boundary_form_quadrature(psi, phi, m, lam, num_points=n)
        assert sizes == [_BLOCK, _BLOCK + 1]

    def test_bump_is_evaluated_only_on_its_support(self, monkeypatch):
        m, lam, n = 0.5, 0.3, 2**15 + 1
        bump = SmoothBump(Island.RIGHT, lam + 2.0, 0.8, (1j, 1.0), lam=lam)
        f = DeficiencyFunction(Island.RIGHT, Sign.PLUS, m, lam)
        sizes = self._counted(monkeypatch, SmoothBump)
        boundary_form_quadrature([(1.0, bump)], [(1.0, f)], m, lam, num_points=n)
        step = _check_terms([(1.0, f)], m, lam) / (n - 1)
        assert sizes and sum(sizes) <= 2 * bump.width / step + 3  # one point of margin on each side


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
        bad = np.array([[0, 0], [1, 0]], dtype=complex)
        good = np.array([[0, 1], [0, 1]], dtype=complex)  # satisfies the identity condition
        assert abs(boundary_form(bad, good)) == pytest.approx(1.0)

    @staticmethod
    def _check_pairwise(bc, samples, seed):
        # reference: per-sample draws, and the form evaluated pair by pair
        # with boundary_form; magnitudes are taken with numpy's abs, as the
        # verifier takes them (Python's abs of a complex may differ in the last bit)
        report = verify_selfadjoint_domain(bc, samples=samples, seed=seed)
        draws = np.random.default_rng(seed)
        pairs = [_domain_pair(bc, draws) for _ in range(samples)]
        forms = np.array([[boundary_form(p, q) for q in pairs] for p in pairs])
        scales = np.array([[max(1.0, _magnitude(p) * _magnitude(q)) for q in pairs] for p in pairs])
        assert report.max_symmetry_residual == np.max(np.abs(forms) / scales)
        for face, bad in _violating_pairs(bc).items():
            expected = np.max(np.abs([boundary_form(bad, q) for q in pairs[:16]]))
            assert report.witness_magnitudes[face] == expected

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(10)
        for i in range(12):
            bc = Transmitting(random_alpha(rng)) if i % 2 else Separating(random_rho(rng))
            self._check_pairwise(bc, 30, i)

    @pytest.mark.parametrize("samples", [65, 150])
    def test_matches_pairwise_loop_across_row_blocks(self, samples):
        # 65 samples take a block of 63 rows and one of 2; 150 take five
        # blocks of 27 and one of 15
        rng = np.random.default_rng(samples)
        self._check_pairwise(Transmitting(random_alpha(rng)), samples, 1)
        self._check_pairwise(Separating(random_rho(rng)), samples, 2)

    @pytest.mark.parametrize("samples", [1, 100])
    def test_matches_pairwise_loop_at_one_and_a_hundred_samples(self, samples):
        # one sample is a single one-row block; 100 is the benchmark's size,
        # blocks of 40, 40 and 20 rows
        rng = np.random.default_rng(samples + 7)
        self._check_pairwise(Transmitting(random_alpha(rng)), samples, 3)
        self._check_pairwise(Separating(random_rho(rng)), samples, 4)

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


class TestTypedErrors:
    """Malformed counts and seeds raise ValidationError, a typed JunctionError."""

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed") as info:
            verify_selfadjoint_domain(Transmitting(AlphaBC(0, 1, 1, 0)), 10, seed=-1)
        assert isinstance(info.value, JunctionError)

    @pytest.mark.parametrize("samples", [2.5, True])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(ValidationError, match="samples"):
            verify_selfadjoint_domain(Transmitting(AlphaBC(0, 1, 1, 0)), samples=samples)

    def test_integer_like_samples_accepted(self):
        bc = Transmitting(AlphaBC(0, 1, 1, 0))
        assert verify_selfadjoint_domain(bc, samples=np.int64(30), seed=1) == verify_selfadjoint_domain(bc, 30, 1)

    def test_float_grid_rejected_by_gram(self):
        with pytest.raises(ValidationError, match="odd number of points"):
            gram_matrix(Sign.PLUS, m=0.0, lam=0.0, num_points=65537.0)

    def test_float_grid_rejected_by_green_identity(self):
        f = DeficiencyFunction(Island.LEFT, Sign.PLUS, m=0.0)
        with pytest.raises(ValidationError, match="odd number of points"):
            boundary_form_quadrature([(1.0, f)], [(1.0, f)], m=0.0, num_points=65537.0)
