"""The exact boundary-form residuals of ``verify`` against the sampled checks
they replace: each exact residual is at least what sampling reports, and
the verdicts agree."""

import math
import random

import numpy as np
import pytest

from diracjunction import checks, deficiency, matrix2
from diracjunction.boundary import AlphaBC, BDForm, RhoBC, bd_to_alpha, random_alpha, random_rho, validate_class
from diracjunction.correspondence import Separating, Transmitting
from diracjunction.errors import ValidationError
from diracjunction.matrix2 import DEFAULT_TOL
from helpers import B, BOUND_MATCH, current, random_quaternion_form, random_spinor

MASSES = (0.0, 1.0, 10.0)


def _records(condition, m: float) -> dict:
    return {r.name: r for r in checks.verify_condition(condition, m, DEFAULT_TOL).records}


def _class_member(rng: np.random.Generator, top: float) -> AlphaBC:
    """A class member with |b1|, |b2|, |b3| log-uniform in [0.25, top]."""

    def b() -> float:
        mag = math.exp(rng.uniform(math.log(0.25), math.log(top)))
        return mag if rng.uniform() < 0.5 else -mag

    b2, b3, b1 = b(), b(), b()
    return bd_to_alpha(BDForm(rng.uniform(0.0, 2.0 * math.pi), b1, b2, b3, (1.0 - b2 * b3) / b1))


def _sampled_current(a: AlphaBC, v: np.ndarray) -> float:
    """The residual current-conservation sampled before it was exact:
    |j(B v) - j(v)| / max(1, max|v_i|^2 max(1, max|a_i|)^2)."""
    v_scale, a_scale = float(np.abs(v).max()), checks.alpha_scale(a)
    scale = max(1.0, (v_scale * v_scale) * (a_scale * a_scale))
    return abs(current(a.matrix() @ v) - current(v)) / scale


class TestExactResiduals:
    @pytest.mark.parametrize("top", [4.0, 1e2, 1e3])
    def test_transmitting_residuals_bound_the_sampled_ones(self, top):
        rng = np.random.default_rng(int(top))
        for i in range(30):
            a = _class_member(rng, top)
            sampled = deficiency.verify_selfadjoint_domain(Transmitting(a), samples=50, seed=i)
            # the 100 spinors the old check drew, and B's two right singular vectors
            _, _, vh = np.linalg.svd(a.matrix())
            spinors = [random_spinor(rng) for _ in range(100)] + [vh[0].conj(), vh[1].conj()]
            worst_current = max(_sampled_current(a, v) for v in spinors)
            for m in MASSES:
                records = _records(Transmitting(a), m)
                symmetry = records["boundary-form-symmetry"]
                assert symmetry.residual >= sampled.max_symmetry_residual
                assert symmetry.passed == sampled.passed
                assert records["current-conservation"].residual >= worst_current

    def test_separating_residual_bounds_the_sampled_one(self):
        rng = np.random.default_rng(3)
        for i in range(40):
            bc = Separating(random_rho(rng))
            sampled = deficiency.verify_selfadjoint_domain(bc, samples=50, seed=i)
            for m in MASSES:
                symmetry = _records(bc, m)["boundary-form-symmetry"]
                assert symmetry.residual >= sampled.max_symmetry_residual
                assert symmetry.passed == sampled.passed

    def test_off_class_residuals_bound_the_sampled_ones(self):
        # H is far from zero here, so the bounds are not just the rounding allowance
        rng = np.random.default_rng(5)
        for i in range(30):
            a = AlphaBC(*(complex(*rng.standard_normal(2)) for _ in range(4)))
            sampled = deficiency.verify_selfadjoint_domain(Transmitting(a), samples=50, seed=i)
            assert sampled.max_symmetry_residual > 1e-3
            assert checks.SYMMETRY.residual(Transmitting(a)) >= sampled.max_symmetry_residual
            spinors = [random_spinor(rng) for _ in range(100)]
            assert checks.CURRENT.residual(a) >= max(_sampled_current(a, v) for v in spinors)

    def test_exact_condition_leaves_only_the_rounding_allowance(self):
        records = _records(Transmitting(AlphaBC(0, 1, 1, 0)), 1.0)
        assert records["current-conservation"].residual == checks.ROUNDING
        assert records["boundary-form-symmetry"].residual == checks.ROUNDING

    @pytest.mark.parametrize(
        "alpha", [(1000, 0, 0, 0.001), (B, 0, 0, 1 / B), (1e200, 0, 0, 1e-200)], ids=["1e3", "B", "1e200"]
    )
    def test_small_witness_fails_only_the_sampled_oracle(self, alpha):
        # |a3|, |a4| small: the pair that breaks the condition at +L has a
        # small form against the domain, under the oracle's absolute 0.01
        # floor; the domain is still maximal (test_symbolic), and verify
        # checks only the form's bound.  An entry beyond B is refused.
        bc = Transmitting(AlphaBC(*alpha))
        if alpha[0] > B:
            with pytest.raises(ValidationError, match=BOUND_MATCH):
                _records(bc, 0.0)
            return
        if alpha[0] == 1000:
            assert not deficiency.verify_selfadjoint_domain(bc, samples=50, seed=0).passed
        assert all(record.passed for record in _records(bc, 0.0).values())

    def test_decomposition_residual_is_the_array_maximum(self):
        # abs() is libm's hypot; numpy's vectorized complex absolute forms
        # max * sqrt(1 + (min/max)^2) and can differ from it in the last bit
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = matrix2.compose(random_quaternion_form(rng))
            q = matrix2.decompose_u2(u)
            expected = float(np.abs(matrix2.compose(q) - np.array(u)).max())
            for given in (u, matrix2.as_c2matrix(u)):
                assert abs(checks.DECOMPOSITION.residual(given, q) - expected) <= math.ulp(expected)


class TestRecordVerdicts:
    """Every record's verdict is its residual against its limit, so the
    printed residual explains the PASS or FAIL next to it."""

    @staticmethod
    def _consistent(verification: checks.Verification) -> None:
        for r in verification.records:
            assert r.passed == (r.residual <= r.limit), r

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-13, 1e-15, 1e-16, 1e-17])
    def test_fuzz_records(self, tol):
        for seed, m in ((1, 0.0), (2, 1.0), (3, 1.0), (4, 10.0)):
            self._consistent(checks.verify_fuzz(3600 if seed == 3 else 400, m, tol, seed))

    def test_fuzz_class_residual_is_on_its_constraints_scale(self):
        # instance 0 of seed 3 fails a determinant constraint, whose scale
        # is not the orthogonality scale the residual was once divided by
        (record,) = checks.verify_fuzz(3600, 1.0, 1e-16, 3).records
        assert record.name == "fuzz-class" and record.residual > record.limit == 1e-16

    def test_passing_class_record_takes_its_constraints_scale(self):
        # the worst share of its scale is a determinant residual, whose
        # limit is tol times the determinant scale, not the orthogonality one
        a = AlphaBC(8, 2**-40, 0, 0.125 + 2**-45)
        report = validate_class(a, DEFAULT_TOL)
        record = checks.verify_condition(Transmitting(a), 1.0, DEFAULT_TOL).records[0]
        assert record == checks.CheckRecord("class-constraints", 2**-42, DEFAULT_TOL * report.det_scale, True)
        assert report.det_scale != report.scale

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-16, 1e-17])
    def test_condition_records(self, tol):
        rng = np.random.default_rng(91)
        for i in range(300):
            m = MASSES[i % 3]
            for condition in (Transmitting(random_alpha(rng)), Separating(random_rho(rng))):
                self._consistent(checks.verify_condition(condition, m, tol))
            # a composed unitary misses unitarity by a few units of roundoff,
            # which a smaller tol rejects as input
            self._consistent(checks.verify_condition(matrix2.compose(random_quaternion_form(rng)), m, max(tol, 1e-15)))


class TestFuzzParts:
    """A fuzz run split into consecutive parts merges to the one run."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-16])
    def test_slices_merge_to_the_one_run(self, tol):
        for seed, m in ((1, 0.0), (2, 0.5), (3, 1.0), (4, 10.0)):
            draws = list(checks.draw_fuzz(300, m, seed))
            expected = checks.verify_fuzz(300, m, tol, seed)
            for bounds in ([0, 300], [0, 1, 300], [0, 150, 299, 300], [0, 7, 100, 200, 300]):
                parts = [checks.check_fuzz(draws[lo:hi], m, tol) for lo, hi in zip(bounds, bounds[1:])]
                assert checks.merge_fuzz(parts, tol) == expected

    def test_the_first_part_that_stopped_decides(self):
        from diracjunction.errors import InternalInconsistencyError

        done = checks.check_fuzz(checks.draw_fuzz(5, 1.0, 7), 1.0, DEFAULT_TOL)
        error = InternalInconsistencyError("a later instance")
        verdict = checks.merge_fuzz([done, (2e-16,), error], DEFAULT_TOL)
        assert verdict.records == (checks.CheckRecord("fuzz-class", 2e-16, 1e-12, False),)
        with pytest.raises(InternalInconsistencyError, match="a later instance"):
            checks.merge_fuzz([done, error, (2e-16,)], DEFAULT_TOL)

    def test_draws_are_one_stream(self):
        # each instance draws its condition, energy and separating condition in turn
        rng = random.Random(5)
        for a, E, r in checks.draw_fuzz(50, 2.0, 5):
            assert a == random_alpha(rng)
            assert E == max(2.0 + math.exp(rng.uniform(math.log(0.05), math.log(3.0))), math.nextafter(2.0, math.inf))
            assert r == random_rho(rng)

    def test_a_numpy_generator_still_drives_the_generators(self):
        # they draw only uniform(low, high) and random(), which numpy's Generator has as well
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)

        def signed(top: float) -> float:
            mag = math.exp(twin.uniform(math.log(0.25), math.log(top)))
            return mag if twin.random() < 0.5 else -mag

        def component() -> float:
            if twin.random() < 0.15:
                return math.inf
            while abs(x := math.tan(math.pi * (twin.random() - 0.5))) > 1e3:
                pass
            return x

        for _ in range(100):
            theta, b2, b3, b1 = twin.uniform(0.0, 2.0 * math.pi), signed(4.0), signed(4.0), signed(4.0)
            assert random_alpha(rng) == bd_to_alpha(BDForm(theta, b1, b2, b3, (1.0 - b2 * b3) / b1))
            assert random_rho(rng) == RhoBC(component(), component())
