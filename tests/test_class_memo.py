"""The class check measures each condition once per ``tol``, its distance
matches an independent 50-digit reference, and its verdicts agree with the
paper's six constraints.

``_reference_distance`` computes the distance from its definition in
``mpmath``: the pivot, e^{-i theta} and the b's of
B = e^{i theta} [[b1, i b2], [i b3, b4]], each exact to 50 digits, then the
largest of the imaginary parts' share of max(1, max |a_i|) and the three
entries of B^dag J B - J, each a share of the products it is formed from.
``_six_constraint_defect`` takes no b's: it holds the six constraints of
the class on the a's, each against its own products.
"""

import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracjunction import boundary, checks, correspondence, scattering
from diracjunction.boundary import (
    AlphaBC,
    BDForm,
    alpha_to_bd,
    bd_to_alpha,
    random_alpha,
    require_class,
    validate_class,
)
from diracjunction.errors import NotInClassError, ValidationError
from diracjunction.matrix2 import DEFAULT_TOL, NORM_FLOOR
from helpers import B, BOUND_MATCH

#: How far the measured distance, at most 2 or inf, may miss the reference:
#: each b_i carries a few units of roundoff of |a_i|, and each term is a
#: share of the products of the moduli it is formed from
SLACK = 2.0 ** -48


def _reference_distance(a: AlphaBC, tol: float) -> float:
    """The distance, to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        # the domain bounds the modulus as rounded to a double
        if not all(math.hypot(x.real, x.imag) <= B for x in a.as_tuple()):  # NaN fails too
            raise ValidationError("a boundary parameter's modulus exceeds B or is NaN")
        z = [mpmath.mpc(x.real, x.imag) for x in a.as_tuple()]
        moduli = [abs(x) for x in z]
        if moduli[0] > tol * max(moduli[0], moduli[2]):
            e = mpmath.conj(z[0]) / moduli[0]  # a1 = e^{i theta} b1, b1 > 0
        elif z[2] == 0:
            return math.inf
        else:
            e = 1j * mpmath.conj(z[2]) / moduli[2]  # a3 = i e^{i theta} b3, b3 > 0
        b1, b2, b3, b4 = e * z[0], -1j * e * z[1], -1j * e * z[2], e * z[3]
        m1, m2, m3, m4 = moduli
        c = mpmath.conj
        return float(max(
            max(abs(x.imag) for x in (b1, b2, b3, b4)) / max(1, *moduli),
            abs((c(b1) * b3).imag) / max(1, m1 * m3),
            abs((c(b2) * b4).imag) / max(1, m2 * m4),
            abs(c(b1) * b4 + c(b3) * b2 - 1) / max(1, m1 * m4 + m2 * m3),
        ))


def _six_constraint_defect(a: AlphaBC) -> float:
    """The largest of the six constraints' residuals, Re(a1 a2*), Re(a1 a3*),
    Re(a2 a4*), Re(a3 a4*), a1 a4* + a2 a3* - 1 and a1 a4* + a2* a3 - 1,
    each a share of max(1, the moduli of its products), to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z = [mpmath.mpc(x.real, x.imag) for x in a.as_tuple()]
        m = [abs(x) for x in z]
        c = mpmath.conj
        orthogonal = [abs((z[i] * c(z[j])).real) / max(1, m[i] * m[j]) for i, j in ((0, 1), (0, 2), (1, 3), (2, 3))]
        size = max(1, m[0] * m[3] + m[1] * m[2])
        unit = [abs(z[0] * c(z[3]) + z[1] * c(z[2]) - 1) / size, abs(z[0] * c(z[3]) + c(z[1]) * z[2] - 1) / size]
        return float(max(orthogonal + unit))


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


def _assert_matches_the_reference(a: AlphaBC, tol: float) -> None:
    try:
        expected = _reference_distance(a, tol)
    except ValidationError:
        with pytest.raises(ValidationError, match=BOUND_MATCH):
            validate_class(a, tol)
        return
    report = validate_class(a, tol)
    limit = max(tol, NORM_FLOOR)  # NaN for a NaN tol
    assert report.limit == limit or math.isnan(tol), a
    if math.isinf(expected):
        assert (report.distance, report.form, report.phase) == (math.inf, None, None), a
        return
    assert abs(report.distance - expected) <= SLACK, (a, report.distance, expected)
    if not abs(expected - limit) <= SLACK:
        assert report.valid == (expected <= limit), a


class TestReferenceDistance:
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
    @example(a=AlphaBC(1e-3, 1j, 1j, 5e-8 + 1.5e-10j), tol=DEFAULT_TOL)
    @example(a=AlphaBC(5e-324 + 5e-324j, 0, 0, 1), tol=DEFAULT_TOL)  # a subnormal pivot
    @example(a=AlphaBC(1e6, 0, 0, 1e-6 + 1e-6j), tol=DEFAULT_TOL)  # Im b4, seen beside b1 only
    @example(a=AlphaBC(B, 0, 0, (1 + 1j) / B), tol=DEFAULT_TOL)
    @example(a=AlphaBC(1e6, 0, -5e-5, 1e-6), tol=DEFAULT_TOL)  # Im b3, seen beside b1 only
    @example(a=AlphaBC(1e-6, 1j - 5e-5, 0, 1e6), tol=DEFAULT_TOL)  # Im b2, seen beside b4 only
    def test_same_distance_and_verdict(self, a, tol):
        _assert_matches_the_reference(a, tol)

    def test_same_distance_over_many_conditions(self):
        rng = np.random.default_rng(2024)
        conditions = [_seeded_alpha(seed, delta) for seed in range(5000) for delta in (0.0, 1e-9)]
        parts = rng.standard_normal((10000, 8)) * 10.0 ** rng.uniform(-3, 3, (10000, 8))
        conditions += [AlphaBC(*(complex(x, y) for x, y in zip(row[::2], row[1::2]))) for row in parts]
        for a in conditions:
            _assert_matches_the_reference(a, DEFAULT_TOL)

    def test_overflowing_determinant_fails_instead_of_raising(self):
        # the largest determinant residual, of moduli at B, is finite and fails
        report = validate_class(AlphaBC(B, 0, 0, B * (0.6 - 0.8j)))
        assert not report.valid and report.distance == pytest.approx(1.0, rel=1e-15)
        # finite moduli whose product a1 a4* overflows are refused
        with pytest.raises(ValidationError, match=BOUND_MATCH):
            validate_class(AlphaBC(1.5e200, 0, 0, 1e108 - 1e108j))


def _moved(rng: random.Random, a: AlphaBC) -> AlphaBC:
    """``a`` with one entry moved by a complex step of 1e-9 to 1 times
    max(1e-3, its modulus)."""
    z, i = list(a.as_tuple()), rng.randrange(4)
    z[i] += 10.0 ** rng.uniform(-9, 0) * max(1e-3, abs(z[i])) * complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return AlphaBC(*z)


def _wide_member(rng: random.Random, decades: float) -> AlphaBC:
    """A class member whose |b1|, |b2|, |b3| are log-uniform over 10^-decades..10^decades."""
    b1, b2, b3 = (10.0 ** rng.uniform(-decades, decades) * rng.choice([-1.0, 1.0]) for _ in range(3))
    return bd_to_alpha(BDForm(rng.uniform(0.0, 2.0 * math.pi), b1, b2, b3, (1.0 - b2 * b3) / b1))


class TestSixConstraints:
    """The distance against the six constraints of the class, measured on
    the a's alone: both vanish on exact members, and off the class they
    agree within a small factor where the b's are of moderate size."""

    def test_exact_members_pass_both(self):
        rng = random.Random(31)
        for a in [random_alpha(rng) for _ in range(1000)] + [_wide_member(rng, 6) for _ in range(1000)]:
            assert validate_class(a, NORM_FLOOR).valid and _six_constraint_defect(a) < 1e-14, a

    def test_moved_members_keep_the_verdict(self):
        # with |b| in 1/4..4, members moved by 1e-9 to 1 of an entry: the two
        # measures agree within a factor 20 either way, so a condition the
        # six constraints put well inside or well outside the class at tol
        # is on the same side of the distance's limit
        rng = random.Random(32)
        for _ in range(3000):
            a = _moved(rng, _wide_member(rng, math.log10(4.0)))
            distance, defect = validate_class(a).distance, _six_constraint_defect(a)
            assert defect / 20.0 <= distance <= 5.0 * defect, (a, distance, defect)

    @pytest.mark.parametrize("a", [
        AlphaBC(1e6, 0, 0, 1e-6 + 1e-6j),
        AlphaBC(B, 0, 0, (1 + 1j) / B),
        AlphaBC(1e6, 0, -5e-5, 1e-6),
        AlphaBC(1e-6, 1j - 5e-5, 0, 1e6),
    ])
    def test_small_imaginary_parts_beside_large_partners_fail_both(self, a):
        # each imaginary part is under tol times max |a_i|, but not beside
        # the entry it multiplies in the current
        assert _six_constraint_defect(a) > 1e-5 and validate_class(a).distance > 1e-5


class TestMemo:
    def test_a_repeat_returns_the_stored_report(self):
        a = AlphaBC(0, 1, 1, 0)
        assert validate_class(a) is validate_class(a) is require_class(a)
        assert validate_class(a, 1e-12) is not validate_class(a)

    def test_no_stale_verdict_across_tolerances(self):
        # off the class by 1e-12: inside 1e-10, outside 1e-20 (whose limit is NORM_FLOOR)
        a = AlphaBC(1.0 + 1e-12, 0, 0, 1.0)
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
            assert "_class_reports" not in b.__dict__
            assert validate_class(b) == report and validate_class(b) is not report
        c = a._replace(a1=a.a1 + 1.0)
        assert not validate_class(c).valid and validate_class(a).valid

    def test_a_shared_report_cannot_be_changed(self):
        report = validate_class(AlphaBC(1, 1, 0, 1))
        with pytest.raises(AttributeError):
            report.distance = 0.0
        with pytest.raises(AttributeError):
            report.form.b2 = 1.0
        assert validate_class(AlphaBC(1, 1, 0, 1)) == report and not report.valid


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
