import math

import numpy as np
import pytest

from diracjunction.boundary import AlphaBC, BDForm, RhoBC, bd_to_alpha, random_alpha, validate_class
from diracjunction.correspondence import (
    Separating,
    Transmitting,
    alpha_to_u2,
    classify,
    closed_form_u2_candidate,
    compare_closed_form,
    diagonal_u2_to_rho,
    inverse_identity_residuals,
    mu_constant,
    oracle_alpha_from_u2,
    oracle_rho_from_diagonal,
    rho_to_diagonal_u2,
    solve_u2_matrix,
    u2_to_alpha,
)
from diracjunction.errors import (
    DiagonalInputError,
    InternalInconsistencyError,
    NotUnimodularError,
    NotUnitaryError,
    SingularSystemError,
    ValidationError,
)
from diracjunction.matrix2 import (
    QuaternionForm,
    compose,
    decompose_u2,
    is_unitary,
    random_quaternion_form,
)

MASSES = [0.0, 0.5, 1.0, 10.0]

SWAP = np.array([[0, 1], [1, 0]], dtype=complex)

# fixed triples (transmitting condition <-> quaternion form at m = 0),
# frozen from the boundary-value solve checked by hand
TRIPLES = [
    (AlphaBC(1, 0, 0, 1), QuaternionForm(0, -1j, 1j)),
    (AlphaBC(0, 1, 1, 0), QuaternionForm(0, 1, 1)),
    (AlphaBC(-1j, 0, 0, -1j), QuaternionForm(0, 1, 1j)),
]


def _mp_u2(mpmath, a: AlphaBC, m: float) -> list:
    """(g1, g2, g3) from the boundary-value system of :func:`solve_u2_matrix`,
    solved in the working precision of ``mpmath``, with g3 = sqrt(det U)."""
    mu = mpmath.mpc(1, m) / mpmath.sqrt(1 + mpmath.mpf(m) ** 2)
    muc = mpmath.conj(mu)
    a1, a2, a3, a4 = (mpmath.mpc(x.real, x.imag) for x in a.as_tuple())
    coeff = mpmath.matrix([[a1 + a2 * muc, -1], [a3 + a4 * muc, muc]])
    rhs = mpmath.matrix([[-a1 + a2 * mu, 1], [-a3 + a4 * mu, mu]])
    sol = mpmath.inverse(coeff) * rhs
    u11, u12, u21, u22 = sol[0, 0], sol[1, 0], sol[0, 1], sol[1, 1]
    g3 = mpmath.sqrt(u11 * u22 - u12 * u21)
    return [u11 / g3, u21 / g3, g3]


def alpha_diff(a: AlphaBC, b: AlphaBC) -> float:
    return max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple()))


def test_mass_is_validated():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            mu_constant(bad)


def test_huge_mass_stays_unimodular():
    mu = mu_constant(1e200)
    assert abs(mu) == pytest.approx(1.0, abs=1e-15)
    cmp = compare_closed_form(AlphaBC(0, 1, 1, 0), 1e200)
    assert math.isfinite(cmp.difference) and math.isfinite(cmp.difference_flipped)


def test_mu_constant():
    assert mu_constant(0.0) == 1.0
    mu = mu_constant(1.0)
    assert mu == pytest.approx((1 + 1j) / math.sqrt(2))
    for m in MASSES:
        assert abs(mu_constant(m)) == pytest.approx(1.0)
        assert mu_constant(m).real > 0


class TestDiagonalCorrespondence:
    def test_minus_one_maps_to_infinity(self):
        for m in MASSES:
            r = diagonal_u2_to_rho(-1, -1, m)
            assert math.isinf(r.rho_plus) and math.isinf(r.rho_minus)

    def test_identity_massless(self):
        r = diagonal_u2_to_rho(1, 1, 0.0)
        assert r.rho_plus == pytest.approx(0.0)
        assert r.rho_minus == pytest.approx(0.0)

    def test_quarter_turn_massless(self):
        r = diagonal_u2_to_rho(1j, 1j, 0.0)
        assert r.rho_plus == pytest.approx(-1.0)
        assert r.rho_minus == pytest.approx(1.0)

    def test_quarter_turn_unit_mass(self):
        # (tan(pi/4) - 1)/sqrt(2) = 0
        r = diagonal_u2_to_rho(1j, 1, 1.0)
        assert r.rho_minus == pytest.approx(0.0)

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            diagonal_u2_to_rho(0.5, 1, 0.0)

    def test_inverse_examples(self):
        assert rho_to_diagonal_u2(RhoBC(math.inf, math.inf), 0.7) == (-1, -1)
        gl, gr = rho_to_diagonal_u2(RhoBC(0.0, 0.0), 0.0)
        assert gl == pytest.approx(1.0) and gr == pytest.approx(1.0)
        gl, gr = rho_to_diagonal_u2(RhoBC(-1.0, 1.0), 0.0)
        assert gl == pytest.approx(1j) and gr == pytest.approx(1j)

    def test_roundtrip_rho_origin(self):
        # enough draws to reach the tangent pole (|rho| ~ 1e3, so
        # t = m + sqrt(1+m^2) rho ~ 1e4 at m = 10) for every mass
        rng = np.random.default_rng(21)
        from diracjunction.boundary import random_rho

        for i in range(24000):
            r = random_rho(rng)
            m = MASSES[i % 4]
            back = diagonal_u2_to_rho(*rho_to_diagonal_u2(r, m), m)
            for x, y in ((r.rho_plus, back.rho_plus), (r.rho_minus, back.rho_minus)):
                if math.isinf(x) or math.isinf(y):
                    assert x == y
                else:
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(x))

    def test_phase_at_overflowing_tangent(self):
        # t = m + sqrt(1+m^2) rho overflows to -inf: the phase is its limit -1
        gl, gr = rho_to_diagonal_u2(RhoBC(1e200, -1e300), 1e200)
        assert gl == pytest.approx(-1.0, abs=1e-15)
        assert gr == pytest.approx(-1.0, abs=1e-15)

    def test_formula_agrees_with_boundary_ratio_oracle(self):
        rng = np.random.default_rng(22)
        for i in range(400):
            phi = rng.uniform(0, 2 * math.pi)
            gl = complex(math.cos(phi), math.sin(phi))
            psi = rng.uniform(0, 2 * math.pi)
            gr = complex(math.cos(psi), math.sin(psi))
            m = MASSES[i % 4]
            a = diagonal_u2_to_rho(gl, gr, m)
            b = oracle_rho_from_diagonal(gl, gr, m, lam=0.5 * (i % 3))
            for x, y in ((a.rho_plus, b.rho_plus), (a.rho_minus, b.rho_minus)):
                if math.isinf(x) or math.isinf(y):
                    assert x == y
                else:
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(x))

    def test_oracle_examples(self):
        assert math.isinf(oracle_rho_from_diagonal(-1, 1, 0.0).rho_minus)
        assert oracle_rho_from_diagonal(1, 1, 0.0).rho_minus == pytest.approx(0.0)
        assert oracle_rho_from_diagonal(1j, 1, 0.0).rho_minus == pytest.approx(1.0)


class TestForwardMap:
    def test_fixed_triples(self):
        for a, q in TRIPLES:
            got = u2_to_alpha(q, 0.0)
            assert alpha_diff(got, a) <= 1e-14

    def test_diagonal_input_rejected(self):
        with pytest.raises(DiagonalInputError):
            u2_to_alpha(QuaternionForm(1, 0, 1), 0.0)

    def test_sign_pair_invariance_exact(self):
        rng = np.random.default_rng(31)
        for i in range(300):
            q = random_quaternion_form(rng, min_offdiag=1e-3)
            m = MASSES[i % 4]
            a = u2_to_alpha(q, m)
            b = u2_to_alpha(q.negated(), m)
            assert a.as_tuple() == b.as_tuple()

    def test_output_in_class(self):
        rng = np.random.default_rng(32)
        for i in range(500):
            q = random_quaternion_form(rng, min_offdiag=1e-3)
            m = MASSES[i % 4]
            report = validate_class(u2_to_alpha(q, m), 1e-12)
            _, worst = report.worst()
            assert worst <= 1e-12 * report.scale


class TestBoundaryValueOracle:
    def test_swap_gives_identity(self):
        np.testing.assert_allclose(
            oracle_alpha_from_u2(SWAP, 0.0), np.eye(2), atol=1e-14
        )

    def test_rotation_gives_swap(self):
        u = np.array([[0, -1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(oracle_alpha_from_u2(u, 0.0), SWAP, atol=1e-14)

    def test_negative_swap_gives_minus_identity(self):
        u = np.array([[0, -1], [-1, 0]], dtype=complex)
        np.testing.assert_allclose(
            oracle_alpha_from_u2(u, 0.0), -np.eye(2), atol=1e-14
        )

    def test_diagonal_is_singular(self):
        with pytest.raises(SingularSystemError):
            oracle_alpha_from_u2(np.diag([1j, 1]), 0.0)

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitaryError):
            oracle_alpha_from_u2(np.array([[1, 1], [0, 1]], dtype=complex), 0.0)

    def test_formula_matches_oracle_and_lambda_independent(self):
        rng = np.random.default_rng(33)
        for i in range(200):
            q = random_quaternion_form(rng, min_offdiag=0.05)
            u = compose(q)
            m = MASSES[i % 4]
            a = u2_to_alpha(decompose_u2(u), m)
            b_alpha = np.array(a.as_tuple()).reshape(2, 2)
            reference = oracle_alpha_from_u2(u, m, lam=0.0)
            assert float(np.abs(b_alpha - reference).max()) <= 1e-10
            for lam in (0.5, 2.0):
                v = oracle_alpha_from_u2(u, m, lam=lam)
                assert float(np.abs(v - reference).max()) <= 1e-10


class TestInverseMap:
    def test_fixed_triples(self):
        for a, q in TRIPLES:
            got = alpha_to_u2(a, 0.0)
            assert np.abs(got.as_array() - q.as_array()).max() <= 1e-14

    def test_solved_matrix_is_unitary(self):
        rng = np.random.default_rng(41)
        for i in range(300):
            a = random_alpha(rng)
            u = solve_u2_matrix(a, MASSES[i % 4])
            assert is_unitary(u, 1e-9)

    def test_roundtrip_alpha_origin(self):
        rng = np.random.default_rng(42)
        for i in range(1000):
            a = random_alpha(rng)
            m = MASSES[i % 4]
            back = u2_to_alpha(alpha_to_u2(a, m), m)
            assert alpha_diff(a, back) <= 1e-10

    def test_roundtrip_u2_origin(self):
        rng = np.random.default_rng(43)
        for i in range(500):
            u = compose(random_quaternion_form(rng, min_offdiag=0.05))
            m = MASSES[i % 4]
            q = alpha_to_u2(u2_to_alpha(decompose_u2(u), m), m)
            assert float(np.abs(compose(q) - u).max()) <= 1e-10

    def test_defining_identities_hold_for_primary(self):
        rng = np.random.default_rng(44)
        for i in range(400):
            a = random_alpha(rng)
            m = MASSES[i % 4]
            q = alpha_to_u2(a, m)
            scale = max(1.0, max(abs(x) for x in a.as_tuple()))
            assert max(inverse_identity_residuals(q, a, m)) <= 1e-12 * scale

    def test_closed_form_matches_solved_oracle(self):
        rng = np.random.default_rng(45)
        for i in range(4000):
            a = random_alpha(rng)
            m = MASSES[i % 4]
            q = alpha_to_u2(a, m)
            oracle = decompose_u2(solve_u2_matrix(a, m))
            assert np.abs(q.as_array() - oracle.as_array()).max() <= 1e-10
            assert q.is_canonical()
            scale = max(1.0, max(abs(x) for x in a.as_tuple()))
            assert max(inverse_identity_residuals(q, a, m)) <= 1e-10 * scale
            assert max(q.norm_residuals()) <= 1e-12

    @pytest.mark.parametrize("m", MASSES)
    def test_tiny_a1_with_zero_a3(self, m):
        # |a1| <= tol and a3 = 0: the phase comes from a1, the larger pivot
        a = AlphaBC(1e-11, 0, 0, 1e11)
        q = alpha_to_u2(a, m)
        oracle = decompose_u2(solve_u2_matrix(a, m))
        assert np.abs(q.as_array() - oracle.as_array()).max() <= 1e-10

    def test_no_negative_zero_parameters(self):
        for a, _ in TRIPLES:
            q = alpha_to_u2(a, 1.0)
            parts = [x for g in (q.g1, q.g2, q.g3) for x in (g.real, g.imag)]
            assert all(math.copysign(1.0, x) == 1.0 for x in parts if x == 0.0)

    def test_overflowing_condition_is_a_validation_error(self):
        # a class member whose w = -mu* a1 + a2 - a3 + mu a4 overflows
        with pytest.raises(ValidationError, match="overflow"):
            alpha_to_u2(AlphaBC(1e308, 1e308j, 0, 1e-308), 1.0)

    def test_ill_conditioned_condition_raises(self):
        # b = (-2, 3, -1, -2): w -> 0 as m grows, so the class residual
        # 1e-10 of the perturbed a4 is amplified in |g3|
        exact = AlphaBC(-2, 3j, -1j, -2)
        q = alpha_to_u2(exact, 100.0)
        assert max(q.norm_residuals()) <= 1e-12
        assert max(inverse_identity_residuals(q, exact, 100.0)) <= 1e-12
        perturbed = AlphaBC(-2, 3j, -1j, -2 + 1e-10j)
        assert validate_class(perturbed).valid
        with pytest.raises(InternalInconsistencyError):
            alpha_to_u2(perturbed, 100.0)

    def test_accuracy_against_high_precision_solve(self):
        # conditions with entries spread over 1e-4 .. 1e5, far outside the
        # generator's caps, against a 40-digit solve of the same system
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(46)
        with mpmath.workdps(40):
            for i in range(300):
                lo, hi = 10 ** rng.uniform(-4, 0), 10 ** rng.uniform(0, 5)
                b1, b2, b3 = (
                    math.exp(rng.uniform(math.log(lo), math.log(hi))) * rng.choice([-1, 1])
                    for _ in range(3)
                )
                a = bd_to_alpha(
                    BDForm(rng.uniform(0, 2 * math.pi), b1, b2, b3, (1 - b2 * b3) / b1)
                )
                m = MASSES[i % 4]
                want = _mp_u2(mpmath, a, m)
                got = [mpmath.mpc(g.real, g.imag) for g in alpha_to_u2(a, m).as_array().tolist()]
                err = min(
                    max(abs(x - y) for x, y in zip(got, want)),
                    max(abs(x + y) for x, y in zip(got, want)),
                )
                assert err <= 1e-12


class TestClosedFormCrossCheck:
    def test_identity_condition_mismatch(self):
        # candidate (0, i, i) composes to the wrong matrix and violates the
        # second defining identity; the solved result is (0, -i, i)
        comparison = compare_closed_form(AlphaBC(1, 0, 0, 1), 0.0)
        assert comparison.disagrees
        cand = closed_form_u2_candidate(AlphaBC(1, 0, 0, 1), 0.0)
        assert np.abs(cand.as_array() - np.array([0, 1j, 1j])).max() <= 1e-14
        assert comparison.identity_residual > 0.5

    def test_spin_flip_sign_pair(self):
        comparison = compare_closed_form(AlphaBC(0, 1, 1, 0), 0.0)
        assert comparison.agrees_up_to_sign_pair

    def test_phase_sign_pair(self):
        comparison = compare_closed_form(AlphaBC(-1j, 0, 0, -1j), 0.0)
        assert comparison.agrees_up_to_sign_pair

    def test_candidate_always_satisfies_norm_constraints(self):
        rng = np.random.default_rng(51)
        for i in range(300):
            a = random_alpha(rng)
            cand = closed_form_u2_candidate(a, MASSES[i % 4])
            r1, r2 = cand.norm_residuals()
            assert r1 <= 1e-12 and r2 <= 1e-12
            assert is_unitary(compose(cand), 1e-12)

    def test_classification_is_exhaustive(self):
        rng = np.random.default_rng(52)
        for i in range(100):
            comparison = compare_closed_form(random_alpha(rng), MASSES[i % 4])
            assert (
                comparison.agrees_exactly
                + comparison.agrees_up_to_sign_pair
                + comparison.disagrees
                == 1
            )


class TestClassify:
    def test_diagonal_minus_one(self):
        bc = classify(np.diag([-1, -1]).astype(complex), 0.3)
        assert isinstance(bc, Separating)
        assert math.isinf(bc.rho.rho_plus) and math.isinf(bc.rho.rho_minus)

    def test_swap_is_identity_condition(self):
        bc = classify(SWAP, 0.0)
        assert isinstance(bc, Transmitting)
        assert alpha_diff(bc.alpha, AlphaBC(1, 0, 0, 1)) <= 1e-14

    def test_identity_matrix_is_zero_rho(self):
        bc = classify(np.eye(2, dtype=complex), 0.0)
        assert isinstance(bc, Separating)
        assert bc.rho.rho_plus == pytest.approx(0.0)
        assert bc.rho.rho_minus == pytest.approx(0.0)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            classify(np.array([[1, 1], [0, 1]], dtype=complex), 0.0)

    def test_measures_unitarity_once(self, monkeypatch):
        from diracjunction import matrix2

        residual = matrix2.unitarity_residual
        calls = []

        def counting(m):
            calls.append(m)
            return residual(m)

        monkeypatch.setattr(matrix2, "unitarity_residual", counting)
        assert isinstance(classify(SWAP, 0.5), Transmitting)
        assert len(calls) == 1
