import math

import numpy as np
import pytest

from diracjunction.errors import InvalidFormError, NotUnitaryError
from diracjunction.matrix2 import (
    QuaternionForm,
    arg_2pi,
    compose,
    decompose_branch,
    decompose_u2,
    is_diagonal,
    is_su2,
    is_unitary,
    random_quaternion_form,
    unitarity_residual,
)

I2 = np.eye(2, dtype=complex)
SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
ROT = np.array([[0, -1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def test_arg_2pi_range():
    assert arg_2pi(1) == 0.0
    assert arg_2pi(-1) == pytest.approx(math.pi)
    assert arg_2pi(-1j) == pytest.approx(3 * math.pi / 2)
    assert 0.0 <= arg_2pi(complex(0.3, -0.7)) < 2 * math.pi


@pytest.mark.parametrize("z", [complex(1.0, -0.0), complex(1.0, 0.0), complex(0.0, -0.0), complex(1.0, -1e-300)])
def test_arg_2pi_zero_is_positive_zero(z):
    # a negative zero or a tiny negative angle lands on +0.0, not -0.0 or 2*pi
    a = arg_2pi(z)
    assert a == 0.0 and math.copysign(1.0, a) == 1.0


def test_arg_2pi_matches_numpy_angle():
    rng = np.random.default_rng(23)
    for _ in range(500):
        z = complex(*rng.standard_normal(2))
        assert arg_2pi(z) == pytest.approx(float(np.angle(z)) % (2 * math.pi), abs=1e-15)


class TestPredicates:
    def test_is_unitary_identity(self):
        assert is_unitary(I2)

    def test_is_unitary_shear(self):
        assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_is_unitary_hadamard(self):
        # direct M^dag M evaluation
        assert np.allclose(HADAMARD.conj().T @ HADAMARD, I2)
        assert is_unitary(HADAMARD)

    def test_is_unitary_nonfinite(self):
        assert not is_unitary(np.array([[np.nan, 0], [0, 1]], dtype=complex))
        assert not is_unitary(np.array([[np.inf, 0], [0, 1]], dtype=complex))

    def test_is_su2(self):
        assert is_su2(I2)
        assert not is_su2(np.diag([1j, 1]))  # det = i
        assert is_su2(ROT)

    def test_su2_structure(self):
        # det-1 unitaries have the form [[a, -b*], [b, a*]]
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = random_quaternion_form(rng)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            m = compose(QuaternionForm(q.g1, q.g2, sign))
            assert is_su2(m)
            assert abs(m[1, 1] - np.conj(m[0, 0])) <= 1e-12
            assert abs(m[0, 1] + np.conj(m[1, 0])) <= 1e-12

    def test_is_diagonal(self):
        assert is_diagonal(np.diag([1j, -1]))
        assert not is_diagonal(SWAP)
        assert is_diagonal(np.array([[1, 1e-14], [0, 1]], dtype=complex), tol=1e-12)


class TestCompose:
    def test_identity(self):
        np.testing.assert_allclose(compose(QuaternionForm(1, 0, 1)), I2)

    def test_rotation(self):
        np.testing.assert_allclose(compose(QuaternionForm(0, 1, 1)), ROT)

    def test_swap(self):
        np.testing.assert_allclose(compose(QuaternionForm(0, -1j, 1j)), SWAP)
        np.testing.assert_allclose(compose(QuaternionForm(0, 1, -1j)), -1j * ROT)

    def test_result_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert is_unitary(compose(random_quaternion_form(rng)), 1e-12)

    def test_invalid_form(self):
        with pytest.raises(InvalidFormError):
            compose(QuaternionForm(1, 1, 1))
        with pytest.raises(InvalidFormError):
            compose(QuaternionForm(1, 0, 2))


class TestDecompose:
    def test_identity(self):
        q = decompose_u2(I2)
        np.testing.assert_allclose(q.as_array(), [1, 0, 1], atol=1e-15)
        assert decompose_branch(I2) == "u21_zero"

    def test_rotation(self):
        q = decompose_u2(ROT)
        np.testing.assert_allclose(q.as_array(), [0, 1, 1], atol=1e-15)
        assert decompose_branch(ROT) == "u21_nonzero"

    def test_diagonal_phase(self):
        q = decompose_u2(np.diag([1j, 1]))
        root = np.exp(1j * math.pi / 4)
        np.testing.assert_allclose(q.as_array(), [root, 0, root], atol=1e-15)

    def test_not_unitary(self):
        with pytest.raises(NotUnitaryError):
            decompose_u2(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_roundtrip_1000(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(1000):
            u = compose(random_quaternion_form(rng))
            worst = max(worst, float(np.abs(compose(decompose_u2(u)) - u).max()))
        assert worst <= 1e-12

    def test_output_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            q = decompose_u2(compose(random_quaternion_form(rng)))
            r1, r2 = q.norm_residuals()
            assert r1 <= 1e-12 and r2 <= 1e-12
            assert q.is_canonical()

    def test_returns_canonical_member(self):
        # construct forms with arg(g3) safely away from the 0/pi boundary
        rng = np.random.default_rng(81)
        for _ in range(500):
            base = random_quaternion_form(rng)
            theta = rng.uniform(0.05, math.pi - 0.05)
            canonical = QuaternionForm(
                base.g1, base.g2, complex(math.cos(theta), math.sin(theta))
            )
            given = canonical if rng.uniform() < 0.5 else canonical.negated()
            got = decompose_u2(compose(given))
            assert np.abs(got.as_array() - canonical.as_array()).max() <= 1e-12

    def test_exact_boundary_canonicalization(self):
        # g3 = -1 flips to the arg-0 member
        q = decompose_u2(ROT)  # proof branch yields (0, -1, -1); canonical is (0, 1, 1)
        assert q.g3 == pytest.approx(1.0)
        assert q.is_canonical()


class TestSignPair:
    def test_compose_sign_pair_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            q = random_quaternion_form(rng)
            a = compose(q)
            b = compose(q.negated())
            assert np.array_equal(a, b)

    def test_exactly_one_member_canonical(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            q = random_quaternion_form(rng)
            assert q.is_canonical() != q.negated().is_canonical()


def test_unitarity_residual_values():
    assert unitarity_residual(I2) == 0.0
    assert unitarity_residual(2 * I2) == pytest.approx(3.0)


def _numpy_unitarity_residual(m: np.ndarray) -> float:
    mh = m.conj().T
    return float(max(np.abs(mh @ m - I2).max(), np.abs(m @ mh - I2).max()))


def test_unitarity_residual_matches_numpy_formula():
    rng = np.random.default_rng(29)
    for _ in range(300):
        unitary = compose(random_quaternion_form(rng))
        near = unitary + 1e-9 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        general = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for m in (unitary, near, general, ROT, HADAMARD):
            assert unitarity_residual(m) == pytest.approx(
                _numpy_unitarity_residual(m), rel=1e-12, abs=4e-16
            )


@pytest.mark.parametrize(
    "m",
    [
        np.array([[np.nan, 0], [0, 1]], dtype=complex),
        np.array([[1, 0], [0, complex(0, np.inf)]], dtype=complex),
        np.array([[1, 0], [np.inf, 1]], dtype=complex),
        # finite entries whose products overflow
        1e200 * HADAMARD,
    ],
)
def test_unitarity_residual_non_finite_is_inf(m):
    assert unitarity_residual(m) == math.inf
    assert not is_unitary(m)
    with pytest.raises(NotUnitaryError):
        decompose_u2(m)
