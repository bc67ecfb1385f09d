"""The class check measures each condition once per ``tol``, and measures it
exactly as the dict-based check it replaced did.

``_oracle_validate_class`` is that earlier ``validate_class`` (its docstring
aside), the reference for the leaner measurement, with one change: a modulus
above the bound B is refused, so that no product overflows into a NaN or
infinite residual.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracjunction import boundary, checks, correspondence, scattering
from diracjunction.boundary import (
    AlphaBC,
    ClassReport,
    alpha_to_bd,
    random_alpha,
    require_class,
    validate_class,
)
from diracjunction.errors import NotInClassError, ValidationError
from diracjunction.matrix2 import DEFAULT_TOL
from helpers import B, BOUND_MATCH


def _oracle_validate_class(a: AlphaBC, tol: float = DEFAULT_TOL) -> ClassReport:
    a1, a2, a3, a4 = a.as_tuple()
    m1, m2, m3, m4 = mags = [math.hypot(z.real, z.imag) for z in (a1, a2, a3, a4)]
    if not all(m <= B for m in mags):
        raise ValidationError("a boundary parameter's modulus exceeds B or is NaN")
    big = max(mags)
    # the moduli in units of big (Higham, *Accuracy and Stability of
    # Numerical Algorithms*, 2nd ed., sec. 2)
    s1, s2, s3, s4 = (m1 / big, m2 / big, m3 / big, m4 / big) if big else (m1, m2, m3, m4)
    sigma = s1 ** 2 + s2 ** 2 + s3 ** 2 + s4 ** 2
    scale = max(1.0, big * big * sigma)
    det_scale = max(1.0, m1 * m4 + m2 * m3)
    orth_limit, det_limit = tol * scale, tol * det_scale
    orthogonality = {
        "re_a1_a2": abs((a1 * a2.conjugate()).real),
        "re_a1_a3": abs((a1 * a3.conjugate()).real),
        "re_a2_a4": abs((a2 * a4.conjugate()).real),
        "re_a3_a4": abs((a3 * a4.conjugate()).real),
    }
    determinant = {
        "unit_det_plus": abs(a1 * a4.conjugate() + a2 * a3.conjugate() - 1.0),
        "unit_det_conj": abs(a1 * a4.conjugate() + a2.conjugate() * a3 - 1.0),
    }
    failed = [name for name, r in orthogonality.items() if not r <= orth_limit]
    failed += [name for name, r in determinant.items() if not r <= det_limit]
    return ClassReport({**orthogonality, **determinant}, scale, det_scale, tuple(failed))


def _bits(x: float) -> str:
    return repr(float(x))  # distinguishes -0.0, keeps every digit, spells nan once


def _seeded_alpha(seed: int, delta: float) -> AlphaBC:
    """A ``random_alpha`` member, moved off the class by complex noise of
    size ``delta`` times its largest entry when ``delta`` > 0."""
    rng = np.random.default_rng(seed)
    a = random_alpha(rng).as_tuple()
    size = delta * max(map(abs, a))
    return AlphaBC(*(z + size * complex(rng.standard_normal(), rng.standard_normal()) for z in a))


EXTREMES = [
    0.0, -0.0, 1.0, -1.0, 1j, 1e-11, 1e11, 1e-308, 5e-324, 1 / B, B, -B, B * 1j, (B + B * 1j) / 2,
    B * (0.6 + 0.8j), math.nextafter(B, math.inf), 1e200, 1.5e308, -1.5e308j, 1.5e308 + 1.5e308j,
    math.inf, -math.inf, complex(math.inf, 0.0), complex(0.0, math.nan), math.nan,
]
ENTRIES = st.one_of(
    st.sampled_from(EXTREMES),
    st.complex_numbers(max_magnitude=1e6),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)
TOLERANCES = st.sampled_from([DEFAULT_TOL, DEFAULT_TOL, 1e-12, 1e-8, 1e-20, 0.5, 1e300, 0.0, math.nan])
CONDITIONS = st.one_of(
    st.builds(_seeded_alpha, st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.0, 1e-12, 1e-10, 1e-8, 1e-3])),
    st.builds(AlphaBC, ENTRIES, ENTRIES, ENTRIES, ENTRIES),
)


class TestMeasurementMatchesTheDictCheck:
    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    @given(a=CONDITIONS, tol=TOLERANCES)
    @example(a=AlphaBC(0, 0, 0, 0), tol=DEFAULT_TOL)
    @example(a=AlphaBC(1e-11, 0, 0, 1e11), tol=DEFAULT_TOL)
    @example(a=AlphaBC(B, B * 1j, 0, 1 / B), tol=DEFAULT_TOL)
    @example(a=AlphaBC(1.5e308, 0, 0, 1e-308), tol=DEFAULT_TOL)
    @example(a=AlphaBC((B + B * 1j) / 2, (B - B * 1j) / 2, 0, 0), tol=DEFAULT_TOL)
    @example(a=AlphaBC(1.5e308 + 1.5e308j, 0, 0, 0), tol=DEFAULT_TOL)
    @example(a=AlphaBC(B, 0, 0, math.nextafter(B, math.inf)), tol=DEFAULT_TOL)
    @example(a=AlphaBC(1.5e200, 0, 0, 1e108 - 1e108j), tol=DEFAULT_TOL)
    def test_same_residuals_scales_and_verdict(self, a, tol):
        try:
            expected = _oracle_validate_class(a, tol)
        except ValidationError:
            with pytest.raises(ValidationError, match=BOUND_MATCH):
                validate_class(a, tol)
            return
        report = validate_class(a, tol)
        assert list(report.residuals) == list(expected.residuals)
        assert [_bits(r) for r in report.residuals.values()] == [_bits(r) for r in expected.residuals.values()]
        assert (_bits(report.scale), _bits(report.det_scale)) == (_bits(expected.scale), _bits(expected.det_scale))
        assert report.failed == expected.failed

    def test_same_bits_over_many_conditions(self):
        # last-ulp differences (x**2 against x*x, math.hypot against abs of a
        # complex) show up in about one value in a thousand, so this sweep
        # is wide rather than clever
        rng = np.random.default_rng(2024)
        conditions = [_seeded_alpha(seed, delta) for seed in range(4000) for delta in (0.0, 1e-9)]
        parts = rng.standard_normal((12000, 8)) * 10.0 ** rng.uniform(-3, 3, (12000, 8))
        conditions += [AlphaBC(*(complex(x, y) for x, y in zip(row[::2], row[1::2]))) for row in parts]
        for a in conditions:
            expected, report = _oracle_validate_class(a), validate_class(a)
            assert [_bits(r) for r in report.residuals.values()] == [_bits(r) for r in expected.residuals.values()], a
            assert (_bits(report.scale), _bits(report.det_scale), report.failed) == (
                _bits(expected.scale), _bits(expected.det_scale), expected.failed
            ), a

    def test_overflowing_determinant_fails_instead_of_raising(self):
        # the largest determinant residual, of moduli at B, is finite and fails
        report = validate_class(AlphaBC(B, 0, 0, B * (0.6 - 0.8j)))
        assert report.residuals["unit_det_plus"] == pytest.approx(B * B, rel=1e-15)
        assert report.failed == ("unit_det_plus", "unit_det_conj")
        # finite moduli whose product a1 a4* overflows are refused
        with pytest.raises(ValidationError, match=BOUND_MATCH):
            validate_class(AlphaBC(1.5e200, 0, 0, 1e108 - 1e108j))


class TestMemo:
    def test_a_repeat_returns_the_stored_report(self):
        a = AlphaBC(0, 1, 1, 0)
        assert validate_class(a) is validate_class(a) is require_class(a)
        assert validate_class(a, 1e-12) is not validate_class(a)

    def test_no_stale_verdict_across_tolerances(self):
        # off the class by 1e-15: inside 1e-10, outside 1e-20
        a = AlphaBC(1.0 + 1e-15, 0, 0, 1.0)
        assert validate_class(a, 1e-10).valid
        alpha_to_bd(a, 1e-10)
        with pytest.raises(NotInClassError):
            require_class(a, 1e-20)
        with pytest.raises(NotInClassError):
            alpha_to_bd(a, 1e-20)
        assert validate_class(a, 1e-10).valid and not validate_class(a, 1e-20).valid

    def test_equality_hash_and_repr_ignore_the_stored_reports(self):
        a, b = AlphaBC(1j, 0, 0, 1j), AlphaBC(1j, 0, 0, 1j)
        before = (a == b, hash(a) == hash(b), repr(a))
        validate_class(a)
        validate_class(b, 1e-12)
        assert (a == b, hash(a) == hash(b), repr(a)) == before == (True, True, repr(b))
        assert len({a, b}) == 1

    def test_pickle_copy_and_replace_round_trip(self):
        a = random_alpha(np.random.default_rng(5))
        report = validate_class(a)
        alpha_to_bd(a)
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a), a._replace()):
            assert b == a and b.as_tuple() == a.as_tuple()
            # measured afresh, not carried along
            assert "_class_reports" not in b.__dict__ and "_bd_forms" not in b.__dict__
            assert validate_class(b) == report and validate_class(b) is not report
        c = a._replace(a1=a.a1 + 1.0)
        assert not validate_class(c).valid and validate_class(a).valid

    def test_a_shared_report_cannot_be_changed(self):
        report = validate_class(AlphaBC(1, 1, 0, 1))
        with pytest.raises(TypeError):
            report.residuals["re_a1_a2"] = 0.0
        with pytest.raises(AttributeError):
            report.failed = ()
        assert validate_class(AlphaBC(1, 1, 0, 1)).failed == report.failed != ()


class TestOneMeasurementPerCondition:
    @pytest.fixture
    def measured(self, monkeypatch):
        """The conditions the private measuring function sees, in order."""
        seen = []
        original = boundary._measure_class

        def counted(a, tol):
            seen.append(a)
            return original(a, tol)

        monkeypatch.setattr(boundary, "_measure_class", counted)
        return seen

    def test_maps_and_scattering_share_one_measurement(self, measured):
        a, m = random_alpha(np.random.default_rng(11)), 1.0
        q = correspondence.alpha_to_u2(a, m)
        alpha_to_bd(a)
        correspondence.compare_closed_form(a, m, primary=q)
        correspondence.compare_closed_form(a, m)
        scattering.scatter_alpha(a, 1.7, m)
        boundary.invert_alpha(a)
        assert measured == [a]

    def test_verify_measures_its_condition_once(self, measured):
        a = random_alpha(np.random.default_rng(12))
        result = checks.verify_condition(correspondence.Transmitting(a), 1.0, DEFAULT_TOL)
        assert all(record.passed for record in result.records)
        assert measured == [a]

    def test_fuzz_measures_each_instance_once(self, measured):
        result = checks.verify_fuzz(25, 1.0, DEFAULT_TOL, 7)
        assert all(record.passed for record in result.records)
        assert len(measured) == 25 and len(set(map(id, measured))) == 25
