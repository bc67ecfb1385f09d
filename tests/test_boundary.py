import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracjunction.boundary import (
    AlphaBC,
    BDForm,
    RhoBC,
    alpha_to_bd,
    bd_to_alpha,
    invert_alpha,
    make_phase_shift,
    make_spin_flip,
    random_alpha,
    random_bdform,
    random_rho,
    validate_class,
)
from diracjunction.errors import (
    InvalidBDError,
    NotInClassError,
    ValidationError,
    ZeroParameterError,
)
from diracjunction.matrix2 import DEFAULT_TOL, NORM_FLOOR
from helpers import B, BOUND_MATCH, apply_alpha, as_array, bd_equivalent, current, random_spinor, satisfies_rho

IDENTITY = AlphaBC(1, 0, 0, 1)
SPIN_FLIP = AlphaBC(0, 1, 1, 0)
PHASE = AlphaBC(-1j, 0, 0, -1j)


class TestRhoBC:
    def test_accepts_plus_inf(self):
        RhoBC(math.inf, 0.0)

    def test_rejects_minus_inf_and_nan(self):
        with pytest.raises(ValidationError):
            RhoBC(-math.inf, 0.0)
        with pytest.raises(ValidationError):
            RhoBC(0.0, math.nan)


class TestValidateClass:
    def test_identity_valid(self):
        assert validate_class(IDENTITY).valid

    def test_spin_flip_valid(self):
        assert validate_class(SPIN_FLIP).valid

    def test_sign_flipped_diagonal_invalid(self):
        # b1 b4 + b2 b3 = -1 misses 1 by 2, in units of max(1, |b1 b4|) = 1
        report = validate_class(AlphaBC(1, 0, 0, -1))
        assert not report.valid
        assert report.distance == 2.0

    def test_residuals_all_reported(self):
        # b2 = -i a2 = -i is imaginary by 1, in units of max(1, max |a_i|) = 1;
        # the report gives the distance, its limit and the real parts' form
        report = validate_class(AlphaBC(1, 1, 0, 1))
        assert not report.valid
        assert (report.distance, report.limit) == (1.0, DEFAULT_TOL)
        assert report.form == BDForm(0.0, 1.0, 0.0, 0.0, 1.0) and report.phase == 1.0

    def test_no_pivot_is_an_infinite_distance(self):
        for a in (AlphaBC(0, 0, 0, 0), AlphaBC(0, 1, 0, 1), AlphaBC(-0.0, 1j, 0, 0)):
            report = validate_class(a)
            assert (report.distance, report.form, report.phase) == (math.inf, None, None)
            with pytest.raises(NotInClassError, match="distance inf"):
                alpha_to_bd(a)

    def test_the_limit_is_tol_or_the_floor(self):
        assert validate_class(IDENTITY, 1e-3).limit == 1e-3
        assert validate_class(IDENTITY, 1e-20).limit == NORM_FLOOR

    @pytest.mark.parametrize("a", [
        AlphaBC(5e-324 + 5e-324j, 0, 0, 1),
        AlphaBC(1e-320 + 3e-320j, 0, 0, 1),
        AlphaBC(-2e-310 + 1e-321j, 0, 0, 1),
        AlphaBC(0, 0, 5e-324 + 5e-324j, 1),
        AlphaBC(0, 0, -7e-322 - 3e-316j, 1),
    ])
    def test_a_subnormal_pivot_gives_a_unit_phase(self, a):
        # abs() of a subnormal complex keeps few digits: abs(5e-324+5e-324j)
        # is 5e-324, which made the phase 1+1j and b4 = 0.31625 in the second
        report = validate_class(a)
        pivot = a.a1 if a.a1 else -1j * a.a3  # e^{i theta} is a1 / |a1|, else -i a3 / |a3|
        expected = complex(math.cos(math.atan2(pivot.imag, pivot.real)), math.sin(math.atan2(pivot.imag, pivot.real)))
        assert abs(report.phase - expected) <= 2e-16 and abs(abs(report.phase) - 1.0) <= 2e-16
        assert report.form.theta == pytest.approx(math.atan2(pivot.imag, pivot.real) % (2 * math.pi), abs=1e-15)
        assert abs(report.form.b4 - (report.phase.conjugate() * a.a4).real) <= 2e-16


class TestDeterminantScale:
    """The determinant term is measured against max(1, |b1 b4| + |b2 b3|),
    the imaginary parts of the b's against max(1, max |a_i|)."""

    @pytest.mark.parametrize("big", [1e5, 1e6, B, 1e100, 1e200])
    def test_a_lone_large_entry_breaks_the_determinant(self, big):
        # b1 b4 + b2 b3 = 0, which sum |a_i|^2 >= 1/tol once hid; an entry
        # beyond the bound B is refused before any distance is measured
        if big > B:
            with pytest.raises(ValidationError, match=BOUND_MATCH):
                validate_class(AlphaBC(big, 0, 0, 0))
            return
        report = validate_class(AlphaBC(big, 0, 0, 0))
        assert not report.valid and report.distance == 1.0
        message = "not in the class: distance 1.000e.00 > 1.0e-10"
        with pytest.raises(NotInClassError, match=message):
            alpha_to_bd(AlphaBC(big, 0, 0, 0))

    def test_the_worst_failing_constraint_is_named(self):
        # b3 = -i, b4 = i are imaginary by 1/B of max |a_i| = B; the
        # determinant misses 1 by all of it
        report = validate_class(AlphaBC(B, 0, -1, 1j))
        assert not report.valid and report.distance == 1.0

    def test_a_passing_report_ranks_by_residual_over_scale(self):
        # Im b2 = -2^-40 is the largest residual, but 2^-43 of its scale 8;
        # the determinant residual 2^-42 is a larger share of 1 + 2^-42
        report = validate_class(AlphaBC(8, 2**-40, 0, 0.125 + 2**-45))
        assert report.valid and report.distance == 2**-42 / (1 + 2**-42)

    def test_huge_entries_keep_an_exact_determinant_verdict(self):
        # |b1 b4| = 1
        assert validate_class(AlphaBC(B, 0, 0, 1 / B)).valid
        assert validate_class(AlphaBC(B, 0, 0, 1 / B * (1 + 1e-12))).valid
        assert not validate_class(AlphaBC(B, 0, 0, 1 / B * (1 + 1e-9))).valid
        # |b1 b4| = B^2 and the residual B^2 - 1 are finite: it fails
        report = validate_class(AlphaBC(B, 0, 0, B))
        assert not report.valid and report.distance == 1.0
        # an entry whose square overflows is refused
        with pytest.raises(ValidationError, match=BOUND_MATCH):
            validate_class(AlphaBC(1e300, 0, 0, 1e-300))

    def test_exact_class_members_pass_over_a_wide_range(self):
        rng = np.random.default_rng(72)
        worst = 0.0
        for _ in range(3000):
            b1, b2, b3 = (math.exp(rng.uniform(-6, 6) * math.log(10)) * rng.choice([-1.0, 1.0])
                          for _ in range(3))
            a = bd_to_alpha(BDForm(rng.uniform(0.0, 2.0 * math.pi), b1, b2, b3, (1.0 - b2 * b3) / b1))
            report = validate_class(a)
            assert report.valid, a
            worst = max(worst, report.distance)
        assert worst <= 1e-14


class TestCurrentDefect:
    """An imaginary part under tol times max |a_i| still fails when the entry
    it multiplies in B^dag J B is large: each entry of B^dag J B - J is held
    against its own products."""

    @pytest.mark.parametrize("a, distance", [
        # Im b4 beside b1 = 1e6: b1* b4 + b3* b2 - 1 = i
        (AlphaBC(1e6, 0, 0, 1e-6 + 1e-6j), 2**-0.5),
        (AlphaBC(B, 0, 0, (1 + 1j) / B), 2**-0.5),
        # Im b3 = 5e-5 beside b1 = 1e6: Im(b1* b3) = 50 of |b1||b3| = 50
        (AlphaBC(1e6, 0, -5e-5, 1e-6), 1.0),
        # Im b2 = 5e-5 beside b4 = 1e6: Im(b2* b4) = 50 of |b2||b4| ~ 1e6
        (AlphaBC(1e-6, 1j - 5e-5, 0, 1e6), 5e-5),
    ])
    def test_a_small_imaginary_part_beside_a_large_partner_fails(self, a, distance):
        report = validate_class(a)
        assert not report.valid and report.distance == pytest.approx(distance, rel=1e-9)
        with pytest.raises(NotInClassError, match="not in the class"):
            alpha_to_bd(a)

    def test_the_real_parts_alone_would_pass(self):
        # the form of AlphaBC(1e6, 0, 0, 1e-6 + 1e-6j) is diag(1e6, 1e-6), a member
        report = validate_class(AlphaBC(1e6, 0, 0, 1e-6 + 1e-6j))
        assert report.form == BDForm(0.0, 1e6, 0.0, 0.0, 1e-6)
        assert validate_class(bd_to_alpha(report.form)).valid


class TestOneVerdict:
    def test_every_member_the_class_check_accepts_has_a_form(self):
        # members moved by up to 0.3 tol max(1, |a_i|) in each part, on both
        # sides of the class's edge: one measurement decides both verdicts
        rng, accepted = random.Random(1), 0
        for _ in range(5000):
            a = random_alpha(rng)
            moved = AlphaBC(*(z + 0.3 * DEFAULT_TOL * max(1.0, abs(z)) * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                              for z in a.as_tuple()))
            if validate_class(moved).valid:
                accepted += 1
                assert alpha_to_bd(moved) == validate_class(moved).form, moved
        assert 4500 < accepted < 5000


class TestClassScaleOverflow:
    """No scale overflows: every modulus is at most B, so every product of
    two moduli is finite, and a larger modulus is refused."""

    def test_scale_of_huge_parameters_is_finite_not_an_error(self):
        assert validate_class(AlphaBC(B, 0, 0, 1 / B)).distance == 0.0
        assert validate_class(AlphaBC(3, 4j, 0, 0)).distance == 1.0
        with pytest.raises(ValidationError, match=BOUND_MATCH):
            validate_class(AlphaBC(1e200, 0, 0, 1e-200))
        # a modulus of 1.5e308, which abs() of a complex overflows on
        with pytest.raises(ValidationError, match=BOUND_MATCH):
            validate_class(AlphaBC(1.5e308 + 1.5e308j, 0, 0, 0))

    def test_verdict_stays_exact_at_the_bound(self):
        # diag(B, 1/B) and [[B, B i], [0, 1/B]] are in the class, at distance 0
        for a in (AlphaBC(B, 0, 0, 1 / B), AlphaBC(B, B * 1j, 0, 1 / B)):
            report = validate_class(a)
            assert report.valid and report.distance == 0.0
        f = alpha_to_bd(AlphaBC(B, 0, 0, 1 / B))
        assert (f.theta, f.bs()) == (0.0, (B, 0.0, 0.0, 1 / B))
        # Im b2 / max |a_i| = 1e-5 is far outside the 1e-10 tolerance
        assert not validate_class(AlphaBC(B, B * 1e-5, 0, 1 / B)).valid
        # the largest distance, 1, fails rather than passing vacuously
        report = validate_class(AlphaBC(B, B, 0, 0))
        assert not report.valid and report.distance == 1.0

    @pytest.mark.parametrize("alpha", [
        # the parameters of --gamma 0.6,0.8i,i at m = B: products of order B^2
        AlphaBC(4.3422033463993573e76, -4.3422033463993573e76j, 4.3422033463993573e76j, 4.3422033463993573e76),
        # b1 b4 + b2 b3 is B^2 - B^2; its true value 0 misses 1 by far less
        # than tol times |b1 b4| + |b2 b3| = 2 B^2
        AlphaBC(B, B * 1j, -B * 1j, B),
    ])
    def test_overflowing_products_leave_no_nan_residual(self, alpha):
        report = validate_class(alpha)
        assert report.valid and 0.0 < report.distance < 1e-150
        assert all(map(math.isfinite, report.form))


class TestBDForm:
    def test_alpha_to_bd_identity(self):
        f = alpha_to_bd(IDENTITY)
        assert f.theta == 0.0
        assert f.bs() == pytest.approx((1, 0, 0, 1))

    def test_alpha_to_bd_spin_flip(self):
        f = alpha_to_bd(SPIN_FLIP)
        assert f.theta == pytest.approx(3 * math.pi / 2)
        assert f.bs() == pytest.approx((0, 1, 1, 0))

    def test_alpha_to_bd_phase(self):
        f = alpha_to_bd(PHASE)
        assert f.theta == pytest.approx(3 * math.pi / 2)
        assert f.bs() == pytest.approx((1, 0, 0, 1))

    def test_reconstruction(self):
        for a in (IDENTITY, SPIN_FLIP, PHASE):
            f = alpha_to_bd(a)
            phase = np.exp(1j * f.theta)
            b = phase * np.array([[f.b1, 1j * f.b2], [1j * f.b3, f.b4]])
            np.testing.assert_allclose(b, as_array(a), atol=1e-14)

    def test_bd_to_alpha_examples(self):
        assert bd_to_alpha(BDForm(0, 1, 0, 0, 1)).as_tuple() == pytest.approx(
            IDENTITY.as_tuple()
        )
        got = bd_to_alpha(BDForm(3 * math.pi / 2, 0, 1, 1, 0)).as_tuple()
        assert got == pytest.approx(SPIN_FLIP.as_tuple(), abs=1e-15)
        got = bd_to_alpha(BDForm(math.pi / 2, 0, 1, 1, 0)).as_tuple()
        assert got == pytest.approx((0, -1, -1, 0), abs=1e-15)

    def test_bd_to_alpha_rejects_bad_form(self):
        with pytest.raises(InvalidBDError):
            bd_to_alpha(BDForm(0, 1, 1, 1, 1))

    @pytest.mark.parametrize("build", [
        lambda: bd_to_alpha(BDForm(0.0, math.nan, 0.0, 0.0, 1.0)),  # was a1 = nan+nanj
        lambda: bd_to_alpha(BDForm(0.0, math.inf, 0.0, 0.0, 1.0)),  # was a1 = inf+nanj
        lambda: bd_to_alpha(BDForm(0.0, 1.0, 0.0, -math.inf, 1.0)),
        lambda: bd_to_alpha(BDForm(math.nan, 1.0, 0.0, 0.0, 1.0)),  # was four NaN parameters
        lambda: bd_to_alpha(BDForm(math.inf, 1.0, 0.0, 0.0, 1.0)),  # was ValueError: math domain error
        lambda: make_phase_shift(math.nan, 1.0),
        lambda: make_phase_shift(math.inf, 1.0),
        lambda: make_spin_flip(0.0, math.inf),
    ])
    def test_bd_to_alpha_refuses_a_non_finite_angle_or_parameter(self, build):
        with pytest.raises(InvalidBDError, match="must be finite"):
            build()

    def test_alpha_to_bd_rejects_out_of_class(self):
        with pytest.raises(NotInClassError):
            alpha_to_bd(AlphaBC(1, 1, 0, 1))

    def test_roundtrip_bd_origin(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            f = random_bdform(rng)
            assert bd_equivalent(alpha_to_bd(bd_to_alpha(f)), f, tol=1e-9)

    def test_roundtrip_alpha_origin(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a = random_alpha(rng)
            back = bd_to_alpha(alpha_to_bd(a))
            scale = max(1.0, max(abs(x) for x in a.as_tuple()))
            assert max(
                abs(x - y) for x, y in zip(a.as_tuple(), back.as_tuple())
            ) <= 1e-12 * scale

    @given(
        theta=st.floats(0, 2 * math.pi, exclude_max=True),
        b1=st.floats(-4, 4).filter(lambda x: abs(x) > 0.05),
        b2=st.floats(-4, 4),
        b3=st.floats(-4, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_bd_family_always_in_class(self, theta, b1, b2, b3):
        b4 = (1.0 - b2 * b3) / b1
        a = bd_to_alpha(BDForm(theta, b1, b2, b3, b4))
        assert validate_class(a).valid


class TestInvert:
    def test_identity(self):
        assert invert_alpha(IDENTITY).as_tuple() == IDENTITY.as_tuple()

    def test_spin_flip_involution(self):
        assert invert_alpha(SPIN_FLIP).as_tuple() == SPIN_FLIP.as_tuple()

    def test_phase(self):
        assert invert_alpha(PHASE).as_tuple() == pytest.approx((1j, 0, 0, 1j))

    def test_product_is_identity_and_in_class(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a = random_alpha(rng)
            inv = invert_alpha(a)
            assert validate_class(inv).valid
            prod = as_array(a) @ as_array(inv)
            assert float(np.abs(prod - np.eye(2)).max()) <= 1e-12 * max(
                1.0, float(np.abs(as_array(a)).max()) ** 2
            )

    def test_rejects_out_of_class(self):
        with pytest.raises(NotInClassError):
            invert_alpha(AlphaBC(1, 0, 0, -1))


class TestApplyAndRho:
    def test_apply_examples(self):
        np.testing.assert_allclose(apply_alpha(SPIN_FLIP, [1, 0]), [0, 1])
        np.testing.assert_allclose(apply_alpha(PHASE, [1, 1]), [-1j, -1j])
        np.testing.assert_allclose(apply_alpha(IDENTITY, [2.5, -1j]), [2.5, -1j])

    def test_satisfies_rho_zero(self):
        r = RhoBC(rho_plus=0.0, rho_minus=0.0)
        assert satisfies_rho(r, [1, 0], [3, 0])
        assert not satisfies_rho(r, [1, 0.5], [3, 0])

    def test_satisfies_rho_infinite(self):
        r = RhoBC(rho_plus=math.inf, rho_minus=math.inf)
        assert satisfies_rho(r, [0, 5], [0, -2j])
        assert not satisfies_rho(r, [1e-3, 5], [0, 1])

    def test_satisfies_rho_unit(self):
        r = RhoBC(rho_plus=0.0, rho_minus=1.0)
        assert satisfies_rho(r, [1, 1j], [1, 0])

    def test_scale_floor_catches_small_violations(self):
        # floor at 1 keeps the tolerance absolute for small vectors
        r = RhoBC(rho_plus=0.0, rho_minus=1.0)
        assert not satisfies_rho(r, [1e-5, 0.0], [1, 0])

    def test_scale_relative_for_large_vectors(self):
        r = RhoBC(rho_plus=0.0, rho_minus=1.0)
        big = 1e8
        assert satisfies_rho(r, [big, 1j * big * (1 + 1e-12)], [1, 0])


class TestCurrent:
    def test_examples(self):
        assert current([1, 1]) == pytest.approx(2.0)
        assert current([1, 0]) == 0.0
        assert current([1, 1j]) == pytest.approx(0.0)

    def test_conserved_by_class_matrices(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            a = random_alpha(rng)
            v = random_spinor(rng)
            scale = max(1.0, float(np.abs(v).max()) ** 2) * max(
                1.0, float(np.abs(as_array(a)).max()) ** 2
            )
            worst = max(
                worst, abs(current(apply_alpha(a, v)) - current(v)) / scale
            )
        assert worst <= 1e-12

    def test_matrix_preserves_current_form(self):
        # B^dag sigma_x B = sigma_x
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        rng = np.random.default_rng(8)
        for _ in range(300):
            b = as_array(random_alpha(rng))
            lhs = b.conj().T @ sigma_x @ b
            assert float(np.abs(lhs - sigma_x).max()) <= 1e-12 * max(
                1.0, float(np.abs(b).max()) ** 2
            )


class TestMakers:
    def test_spin_flip_unit1(self):
        a = make_spin_flip(-math.pi / 2, 1.0)
        assert a.as_tuple() == pytest.approx((0, 1, 1, 0), abs=1e-15)

    def test_phase_shift_unit0(self):
        a = make_phase_shift(0.0, 1.0)
        assert a.as_tuple() == pytest.approx((1, 0, 0, 1))

    def test_phase_shift_quarter(self):
        a = make_phase_shift(-math.pi / 2, 1.0)
        assert a.as_tuple() == pytest.approx((-1j, 0, 0, -1j), abs=1e-15)

    def test_makers_shape(self):
        a = make_spin_flip(0.7, 2.0)
        m = as_array(a)
        phase = np.exp(1j * (0.7 + math.pi / 2))
        np.testing.assert_allclose(
            m, phase * np.array([[0, 2.0], [0.5, 0]]), atol=1e-14
        )
        assert validate_class(a).valid
        b = make_phase_shift(0.7, 2.0)
        np.testing.assert_allclose(
            as_array(b), np.exp(0.7j) * np.diag([2.0, 0.5]), atol=1e-14
        )
        assert validate_class(b).valid

    def test_zero_parameter(self):
        with pytest.raises(ZeroParameterError):
            make_spin_flip(0.0, 0.0)
        with pytest.raises(ZeroParameterError):
            make_phase_shift(0.0, 0.0)


class TestGenerators:
    def test_random_alpha_always_valid(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            assert validate_class(random_alpha(rng)).valid

    def test_random_rho_components(self):
        rng = np.random.default_rng(10)
        saw_inf = False
        for _ in range(300):
            r = random_rho(rng)
            for v in (r.rho_plus, r.rho_minus):
                assert math.isinf(v) or abs(v) <= 1e3
                saw_inf = saw_inf or math.isinf(v)
        assert saw_inf
