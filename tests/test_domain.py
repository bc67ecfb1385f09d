"""The input domain: every magnitude at most B = 2^255.

Below B every product of two moduli, and every sum of four such products,
is finite, so the maps need no rescaling.  A magnitude above B, given or
produced, exits 2 with a message naming B.  Valid input drawn over the
whole domain, log-uniformly, converts and scatters with exit 0 and prints
no ``NaN`` or ``Infinity``.  ``verify`` is left out of the drawn suite: its
round trip loses accuracy at large masses, and that envelope is unmeasured.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracjunction.boundary import AlphaBC, BDForm, RhoBC, bd_to_alpha, validate_class
from diracjunction.cli import main
from diracjunction.correspondence import check_mass
from diracjunction.errors import ValidationError
from diracjunction.scattering import scatter_rho
from helpers import B, BOUND_MATCH, BOUND_TEXT

ABOVE = math.nextafter(B, math.inf)
TINY = 2.0 ** -255
SETTINGS = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _reject_constant(token):
    raise ValueError(f"non-finite JSON value {token}")


def _json(out: str):
    """The one JSON line of ``out``, with no NaN and no Infinity in it."""
    return json.loads(out, parse_constant=_reject_constant)


def _pairs(*zs: complex) -> str:
    """Complex values as the CLI's exact JSON [re, im] pairs."""
    return ",".join(f"[{z.real!r},{z.imag!r}]" for z in map(complex, zs))


class TestTheBound:
    def test_a_separating_condition_at_the_bound_passes(self):
        code, out, err = _run("verify", "--rho", f"{B!r},0.5", "--mass", repr(B))
        assert (code, err) == (0, "")
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_a_class_member_at_the_bound_passes(self):
        a = AlphaBC(B, B * 1j, 0, 1 / B)
        report = validate_class(a)
        assert report.valid and all(map(math.isfinite, report.residuals.values()))
        code, out, err = _run("verify", "--alpha", _pairs(*a))
        assert (code, err) == (0, "")
        assert all(line.startswith(("PASS", "INFO")) for line in out.splitlines())

    @pytest.mark.parametrize("argv", [
        ["verify", "--alpha", f"{ABOVE!r},0,0,{1 / B!r}"],
        ["verify", "--rho", f"0.5,{-ABOVE!r}"],
        ["convert", "bd-to-alpha", "--bd", f"0,{ABOVE!r},0,0,{1 / B!r}"],
        ["convert", "rho-to-u2", "--rho", "0,0", "--mass", repr(ABOVE)],
        ["scatter", "--rho", "0,0", "--emin", "1", "--emax", repr(ABOVE), "--steps", "2"],
        # a produced rho above B: the phase is within 1e-300 of -1
        ["convert", "u2-to-bc", "--diag", f"1,{_pairs(complex(-1.0, 1e-300))}"],
        # produced parameters above B, near 2 B
        ["convert", "u2-to-bc", "--gamma", "0.6,0.8,1", "--mass", repr(B)],
    ])
    def test_a_magnitude_above_the_bound_exits_2_naming_it(self, argv):
        code, out, err = _run(*argv)
        assert (code, out) == (2, "")
        assert BOUND_TEXT in err and "Traceback" not in err

    def test_the_checks_refuse_a_magnitude_above_the_bound(self):
        for build in (
            lambda: check_mass(ABOVE),
            lambda: RhoBC(ABOVE, 0.0),
            lambda: RhoBC(0.0, -ABOVE),
            lambda: validate_class(AlphaBC(ABOVE, 0, 0, 1 / B)),
            lambda: validate_class(AlphaBC(0, ABOVE * 1j, 1j / B, 0)),
            lambda: bd_to_alpha(BDForm(0.0, ABOVE, 0.0, 0.0, 1 / B)),
            lambda: scatter_rho(RhoBC(0.0, 0.0), ABOVE, 1.0),
        ):
            with pytest.raises(ValidationError, match=BOUND_MATCH):
                build()
        # B itself is in the domain
        assert check_mass(B) == B and RhoBC(B, -B).rho_minus == -B
        assert validate_class(AlphaBC(B, 0, 0, 1 / B)).valid


# ---------------------------------------------------------------------------
# Valid input drawn log-uniformly over the whole domain
# ---------------------------------------------------------------------------

@st.composite
def magnitudes(draw, low: float = TINY, high: float = B) -> float:
    """A magnitude log-uniform in [low, high], either end included."""
    x = draw(st.floats(math.log(low), math.log(high)))
    return min(max(math.exp(x), low), high)


def _signed(low: float = TINY, high: float = B):
    """A magnitude of :func:`magnitudes` with a random sign."""
    return magnitudes(low, high).flatmap(lambda x: st.sampled_from([x, -x]))


signed = _signed()
masses = st.one_of(st.just(0.0), st.just(B), magnitudes())
thetas = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


@st.composite
def b_forms(draw) -> BDForm:
    """A b-form with every |b| in [2^-255, B]: one product of a pair is at
    most 1 in modulus, and the other pair's second entry closes
    b1 b4 + b2 b3 = 1, so that the residual is a few units of roundoff."""
    small = draw(signed)
    free = draw(_signed(TINY, min(B, 1.0 / abs(small))))
    lead = draw(_signed(2.0 / B, B))
    close = (1.0 - small * free) / lead
    if draw(st.booleans()):  # b2 b3 drawn, b1 b4 closed
        return BDForm(draw(thetas), lead, small, free, close)
    return BDForm(draw(thetas), small, lead, close, free)


@st.composite
def cancelling_b_forms(draw) -> BDForm:
    """A b-form whose two products are both large and cancel: |b2|, |b3| in
    [1, B], so |b2 b3| is up to B^2, and b1 b4 closes b1 b4 + b2 b3 = 1 with
    every |b| at most B."""
    b2, b3 = draw(_signed(1.0, B)), draw(_signed(1.0, B))
    rest = 1.0 - b2 * b3
    b1 = draw(_signed(min(math.nextafter(abs(rest) / B, math.inf), B), B))
    b4 = rest / b1
    assume(abs(b4) <= B)
    return BDForm(draw(thetas), b1, b2, b3, b4)


def _in_domain(a: AlphaBC) -> bool:
    return all(math.hypot(z.real, z.imag) <= B for z in a.as_tuple())


rhos = st.one_of(st.just(math.inf), signed, st.just(0.0))


@st.composite
def energies(draw, m: float) -> tuple[float, float]:
    """Two energies m < e_min < e_max <= B."""
    u, v = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2, max_size=2, unique=True)))
    low, high = m + (B - m) * u, m + (B - m) * v
    if not m < low < high <= B:
        low, high = math.nextafter(m, B), B
    return low, high


@st.composite
def unitaries(draw) -> str:
    """--gamma of a unitary with |g2| in [2^-255, 1]."""
    r2 = draw(magnitudes(TINY, 1.0))
    r1 = math.sqrt(max(0.0, 1.0 - r2 * r2))
    p1, p2, p3 = draw(thetas), draw(thetas), draw(thetas)
    return _pairs(*(r * complex(math.cos(p), math.sin(p)) for r, p in ((r1, p1), (r2, p2), (1.0, p3))))


class TestValidInputOverTheDomain:
    @SETTINGS
    @given(form=b_forms(), m=masses)
    def test_class_members_convert(self, form, m):
        code, out, err = _run("convert", "bd-to-alpha", "--bd", ",".join(map(repr, form)))
        assert (code, err) == (0, ""), form
        _json(out)
        a = bd_to_alpha(form)
        if not _in_domain(a):  # a modulus rounded past B: not valid input
            return
        for direction in ("alpha-to-bd", "bc-to-u2"):
            code, out, err = _run("convert", direction, "--alpha", _pairs(*a), "--mass", repr(m))
            assert (code, err) == (0, ""), (direction, a, m)
            _json(out)

    @SETTINGS
    @given(rho=st.tuples(rhos, rhos), m=masses)
    def test_separating_conditions_convert(self, rho, m):
        code, out, err = _run("convert", "rho-to-u2", "--rho", ",".join(map(repr, rho)), "--mass", repr(m))
        assert (code, err) == (0, ""), (rho, m)
        _json(out)

    @SETTINGS
    @given(gamma=unitaries(), m=masses)
    def test_unitaries_convert_or_name_the_bound(self, gamma, m):
        code, out, err = _run("convert", "u2-to-bc", "--gamma", gamma, "--mass", repr(m))
        if code == 2:
            assert out == "" and BOUND_TEXT in err, (gamma, m, err)
        else:
            assert (code, err) == (0, ""), (gamma, m)
            _json(out)

    @SETTINGS
    @given(data=st.data(), m=masses.filter(lambda m: m < B), fmt=st.sampled_from(["csv", "json"]))
    def test_conditions_scatter(self, data, m, fmt):
        e_min, e_max = data.draw(energies(m))
        if data.draw(st.booleans()):
            a = bd_to_alpha(data.draw(b_forms()))
            if not _in_domain(a):
                return
            condition = ["--alpha", _pairs(*a)]
        else:
            condition = ["--rho", ",".join(map(repr, data.draw(st.tuples(rhos, rhos))))]
        grid = ["--emin", repr(e_min), "--emax", repr(e_max), "--steps", "3", "--format", fmt]
        code, out, err = _run("scatter", *condition, "--mass", repr(m), *grid)
        assert (code, err) == (0, ""), (condition, m, e_min, e_max)
        if fmt == "json":
            _json(out)
        else:
            assert all(math.isfinite(float(x)) for line in out.splitlines()[1:] for x in line.split(",")[:-1])


class TestCancellingProducts:
    """``bd-to-alpha`` holds b1 b4 + b2 b3 = 1 to tol * max(1, |b1 b4| +
    |b2 b3|), the scale of the class check's determinant constraints, so the
    b's and the alpha each direction of ``convert`` prints are accepted by the
    other, however large the products that cancel."""

    @SETTINGS
    @given(form=cancelling_b_forms())
    def test_both_directions_round_trip(self, form):
        code, out, err = _run("convert", "bd-to-alpha", "--bd", ",".join(map(repr, form)))
        assert (code, err) == (0, ""), form
        a = AlphaBC(*(complex(*z) for z in _json(out)["alpha"]))
        assert a == bd_to_alpha(form)
        if not _in_domain(a):  # a modulus rounded past B: not valid input
            return
        # bd-to-alpha -> alpha-to-bd
        code, out, err = _run("convert", "alpha-to-bd", "--alpha", _pairs(*a))
        assert (code, err) == (0, ""), (form, a)
        # alpha-to-bd -> bd-to-alpha
        back = _json(out)
        code, out, err = _run("convert", "bd-to-alpha", "--bd", ",".join(map(repr, [back["theta"], *back["a"]])))
        assert (code, err) == (0, ""), (form, back)
        _json(out)

    @pytest.mark.parametrize("bd, expected", [
        # products of 4.7e55 that cancel to 1 within a few units of roundoff
        ("0.0,6.715110264912701e+16,2.753010143929865e+29,-1.702269258223234e+26,6.978834822825437e+38", 0),
        # b1 b4 = 1.00005: a residual of 5e-5 against products of about 1, though |b1| = 1e6
        ("0,1e6,0,0,1.00005e-6", 2),
    ], ids=["products-cancel", "residual-hidden-by-b1"])
    def test_the_residual_is_measured_against_the_products(self, bd, expected):
        code, out, err = _run("convert", "bd-to-alpha", "--bd", bd)
        assert code == expected, err
        if code:
            assert out == "" and "b1*b4 + b2*b3 = 1 violated" in err
