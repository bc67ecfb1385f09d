"""Verification checks behind ``diracjunction verify``, each defined once.

A :class:`Check` is a name, a residual function and a limit.  A run over a
condition, a unitary or ``count`` random instances returns a
:class:`Verification`: one :class:`CheckRecord` per check, in a fixed
order, and the closed-form inverse tally.  The fuzz checks reuse the
single-instance residual functions and limits under ``fuzz-`` names.  The
acceptance suite keeps its own, independent gates.

The two boundary-form checks are exact, not sampled.  For a transmitting
condition both read the one Hermitian matrix H = B^H sigma_x B - sigma_x,
whose entries are class residuals: the boundary form of two domain pairs
(v, B v) and (w, B w) is -i v^H H w, and the current changes across the
junction by v^H H v.  A separating condition's form vanishes face by face.
The domain of every class member is its own form-orthogonal complement
(proved symbolically in the tests), so no check samples a maximality
witness.  Checking one condition is deterministic and draws nothing;
:func:`verify_fuzz` draws from one :class:`random.Random` of the run's seed,
so no check imports ``numpy``; it is :func:`draw_fuzz`, :func:`check_fuzz`
and :func:`merge_fuzz` over one part.  The CLI runs them over several,
each part drawing the one stream of :func:`draw_fuzz` up to its own end and
checking its own slice.
:func:`~.deficiency.verify_selfadjoint_domain` stays the sampled
counterpart, and the tests hold the exact residuals to be upper bounds of it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import boundary, correspondence, matrix2
from .boundary import AlphaBC, RhoBC
from .correspondence import ExtensionClass, Separating
from .errors import DiagonalInputError, JunctionError, ValidationError
from .matrix2 import record_type

#: Allowance, in units of the scale a residual is divided by, for evaluating
#: the form or the current in double precision on a domain pair, 2^6 units
#: of roundoff (Higham, *Accuracy and Stability of Numerical Algorithms*,
#: 2nd ed., sec. 3.6).  It covers at most 58 units for the current (the
#: rounded entries of H and the two currents) and 26 for the boundary form
#: (four products and their sum).
ROUNDING = 2.0 ** -47


@record_type
class CheckRecord(NamedTuple):
    """Outcome of one check: its residual next to the limit it must meet."""

    name: str
    residual: float
    limit: float
    passed: bool


@record_type
class Check(NamedTuple):
    """One verification check: a name, a residual function and a limit."""

    name: str
    residual: Callable[..., float]
    limit: float

    def record(self, residual: float, scale: float = 1.0) -> CheckRecord:
        """Compare ``residual`` with the limit times ``scale``."""
        return CheckRecord(self.name, residual, self.limit * scale, residual <= self.limit * scale)

    def __call__(self, *args, scale: float = 1.0) -> CheckRecord:
        return self.record(self.residual(*args), scale)


@record_type
class Verification(NamedTuple):
    """Check records, and the closed-form inverse tally: ``{"classification":
    kind}`` for one transmitting condition, counts for a fuzz run, else empty."""

    records: tuple[CheckRecord, ...]
    closed_form: dict

    @property
    def passed(self) -> bool:
        return bool(self.records) and all(r.passed for r in self.records)


def alpha_scale(a: AlphaBC) -> float:
    """max(1, max |a_i|), of a class member (finite entries)."""
    a1, a2, a3, a4 = a.as_tuple()
    return max(1.0, abs(a1), abs(a2), abs(a3), abs(a4))


def rho_distance(a: RhoBC, b: RhoBC) -> float:
    """Worst relative difference of the components; inf when only one of a
    pair is infinite."""

    def comp(x: float, y: float) -> float:
        if math.isinf(x) or math.isinf(y):
            return 0.0 if x == y else math.inf
        return abs(x - y) / max(1.0, abs(x), abs(y))

    return max(comp(a.rho_plus, b.rho_plus), comp(a.rho_minus, b.rho_minus))


def _recomposition(u, q: matrix2.QuaternionForm) -> float:
    """Largest entry modulus of compose(q) - u."""
    (x1, x2), (x3, x4) = matrix2.compose_entries(q)
    (y1, y2), (y3, y4) = matrix2.as_c2matrix(u)
    return max(abs(x1 - y1), abs(x2 - y2), abs(x3 - y3), abs(x4 - y4))


def _alpha_round_trip(a: AlphaBC, q: matrix2.QuaternionForm, m: float) -> float:
    """Largest difference of ``a`` and the map back from ``q``, in units of
    :func:`alpha_scale`; inf when the map back leaves the bound B (at a large
    mass, g2 of order 1/m) or loses g2 to underflow."""
    try:
        back = correspondence.u2_to_alpha(q, m)
    except DiagonalInputError:
        return math.inf
    (x1, x2, x3, x4), (y1, y2, y3, y4) = a.as_tuple(), back.as_tuple()
    return max(abs(x1 - y1), abs(x2 - y2), abs(x3 - y3), abs(x4 - y4)) / alpha_scale(a)


def _current_change(a: AlphaBC) -> float:
    """Bound of |j(B v) - j(v)| / max(1, max|v_i|^2 max(1, max|a_i|)^2) over
    every spinor v, plus :data:`ROUNDING`.

    j(B v) - j(v) = v^H H v with H = [[h11, h12], [h12*, h22]],
    h11 = 2 Re(a1* a3), h22 = 2 Re(a2* a4), h12 = a1* a4 + a3* a2 - 1, and
    |v^H H v| <= ||H||_2 |v|_2^2 <= 2 ||H||_2 max|v_i|^2, so the bound is
    2 ||H||_2 / max(1, max|a_i|)^2.  ||H||_2 = |h11 + h22|/2 +
    hypot((h11 - h22)/2, |h12|) is the larger modulus of its eigenvalues.
    The class check holds every |a_i| to MAX_MAGNITUDE: no product overflows.
    """
    scale = alpha_scale(a)
    a1, a2, a3, a4 = a.as_tuple()
    h11, h22 = 2.0 * (a1.conjugate() * a3).real, 2.0 * (a2.conjugate() * a4).real
    h12 = a1.conjugate() * a4 + a3.conjugate() * a2 - 1.0
    norm = abs(h11 + h22) / 2.0 + math.hypot((h11 - h22) / 2.0, h12.real, h12.imag)
    return 2.0 * norm / (scale * scale) + ROUNDING


def _form_bound(bc: ExtensionClass) -> float:
    """Bound of |form(p, q)| / max(1, |p| |q|) over every pair of domain
    elements p, q, with |p| the largest modulus of p's four face values,
    plus :data:`ROUNDING`.

    A separating condition's face values are (s, i rho s), or (0, s) for
    rho = inf, and the form of two of them vanishes for real rho: the bound
    is 0.  For a transmitting condition, form(p, q) = -i v^H H w for
    p = (v, B v) and q = (w, B w) (see :func:`_current_change`), and
    |p| >= sqrt(v^H M v)/2 with M = 1 + B^H B.  So the bound is 4 max |lambda|
    over the roots of det(H - lambda M) = 0, which lie in [-1, 1]:
    max |lambda| = (|t| + sqrt(t^2 - 4 d))/2 with t = lambda1 + lambda2 and
    d = lambda1 lambda2.  H and M are formed in integers, from the a_i over
    one power-of-two denominator, so t and d are exact up to their final
    rounding; in floats, the cancellation in H's entries would cost up to
    max|a_i|^2 units of roundoff.
    """
    if isinstance(bc, Separating):
        return ROUNDING
    ratios = [x.as_integer_ratio() for z in bc.alpha.as_tuple() for x in (z.real, z.imag)]
    den = max(d for _, d in ratios)
    x1, y1, x2, y2, x3, y3, x4, y4 = (n * (den // d) for n, d in ratios)
    one = den * den
    # den^2 H and den^2 M, the off-diagonal entries as real and imaginary parts
    h11, h22 = 2 * (x1 * x3 + y1 * y3), 2 * (x2 * x4 + y2 * y4)
    hr, hi = x1 * x4 + y1 * y4 + x3 * x2 + y3 * y2 - one, x1 * y4 - y1 * x4 + x3 * y2 - y3 * x2
    m11 = one + x1 * x1 + y1 * y1 + x3 * x3 + y3 * y3
    m22 = one + x2 * x2 + y2 * y2 + x4 * x4 + y4 * y4
    mr, mi = x1 * x2 + y1 * y2 + x3 * x4 + y3 * y4, x1 * y2 - y1 * x2 + x3 * y4 - y3 * x4
    # det(H - lambda M) = det(M) lambda^2 - det(M) t lambda + det(M) d
    det_m = m11 * m22 - mr * mr - mi * mi
    trace = h11 * m22 + h22 * m11 - 2 * (hr * mr + hi * mi)
    det_h = h11 * h22 - hr * hr - hi * hi
    disc = trace * trace - 4 * det_m * det_h  # det(M)^2 (t^2 - 4 d) >= 0
    return 2.0 * (abs(trace) / det_m + math.sqrt(disc / (det_m * det_m))) + ROUNDING


def _rho_round_trip(r: RhoBC, m: float, tol: float) -> float:
    gl, gr = correspondence.rho_to_diagonal_u2(r, m)
    return rho_distance(r, correspondence.diagonal_u2_to_rho(gl, gr, m, tol))


def _ratio_oracle(r: RhoBC, m: float, tol: float) -> float:
    gl, gr = correspondence.rho_to_diagonal_u2(r, m)
    return rho_distance(r, correspondence.oracle_rho_from_diagonal(gl, gr, m, tol=tol))


DECOMPOSITION = Check("decomposition-round-trip", _recomposition, 1e-12)
ROUND_TRIP = Check("extension-round-trip", _alpha_round_trip, 1e-10)
#: limit in units of :func:`alpha_scale`
IDENTITIES = Check(
    "defining-identities", lambda q, a, m: max(correspondence.inverse_identity_residuals(q, a, m)), 1e-10
)
CURRENT = Check("current-conservation", _current_change, 1e-12)
SYMMETRY = Check("boundary-form-symmetry", _form_bound, 1e-12)
RHO_ROUND_TRIP = Check("extension-round-trip", _rho_round_trip, 1e-12)
RATIO_ORACLE = Check("boundary-ratio-oracle", _ratio_oracle, 1e-12)

FUZZ_CHECKS = (
    # the worst class residual, in units of its own constraint's scale
    Check("fuzz-class", lambda report: (w := report.worst())[1] / report.scale_of(w[0]), 1e-12),
    ROUND_TRIP._replace(name="fuzz-round-trip"),
    CURRENT._replace(name="fuzz-current"),
    Check("fuzz-scatter-unitarity", lambda res: abs(res.R + res.T - 1.0), 1e-12),
    RHO_ROUND_TRIP._replace(name="fuzz-rho-round-trip"),
    Check("fuzz-rho-reflection", lambda res: abs(abs(res.r) - 1.0) + res.T, 1e-12),
)


def verify_condition(condition: ExtensionClass | matrix2.Entries, m: float, tol: float) -> Verification:
    """Check one extension, given as its boundary condition or its unitary
    (an ndarray or a pair of pairs of entries).

    A unitary is decomposed and recomposed (``decomposition-round-trip``),
    then classified and checked as its boundary condition.  A transmitting
    condition outside the class at ``tol`` fails ``class-constraints``,
    under the name of its worst constraint, and runs no further check.
    Every check is exact or a closed form, so the result is deterministic.
    """
    if not isinstance(condition, ExtensionClass):  # a unitary
        first = DECOMPOSITION(condition, matrix2.decompose_u2(condition, tol))
        rest = verify_condition(correspondence.classify(condition, m, tol), m, tol)
        return Verification((first, *rest.records), rest.closed_form)
    if isinstance(condition, Separating):
        r = condition.rho
        return Verification((RHO_ROUND_TRIP(r, m, tol), RATIO_ORACLE(r, m, tol), SYMMETRY(condition)), {})
    a = condition.alpha
    report = boundary.validate_class(a, tol)
    name, worst = report.worst()
    limit = tol * report.scale_of(name)
    if not report.valid:
        return Verification((CheckRecord(f"class-constraints {name}", worst, limit, False),), {})
    q = correspondence.alpha_to_u2(a, m, tol)
    records = (
        CheckRecord("class-constraints", worst, limit, True),
        ROUND_TRIP(a, q, m),
        IDENTITIES(q, a, m, scale=alpha_scale(a)),
        CURRENT(a),
        SYMMETRY(condition),
    )
    comparison = correspondence.compare_closed_form(a, m, q, tol)
    return Verification(records, {"classification": comparison.classification})


def draw_fuzz(count: int, m: float, seed: int) -> Iterator[tuple[AlphaBC, float, RhoBC]]:
    """The ``count`` instances of a fuzz run, drawn on demand from one stream: a
    transmitting condition, an energy above the gap and a separating condition each."""
    if count < 1:
        raise ValidationError(f"--fuzz needs N >= 1 instances, got {count}")
    rng = random.Random(seed)

    def energy() -> float:  # at a mass this large the kinetic energy may round away; E stays above the gap
        return max(m + math.exp(rng.uniform(math.log(0.05), math.log(3.0))), math.nextafter(m, math.inf))

    return ((boundary.random_alpha(rng), energy(), boundary.random_rho(rng)) for _ in range(count))


def check_fuzz(instances: Iterable[tuple[AlphaBC, float, RhoBC]], m: float, tol: float) -> tuple:
    """The worst residual of each of :data:`FUZZ_CHECKS` over ``instances``, then the
    closed-form tally; or, at the first instance outside the class at ``tol``, only its
    ``fuzz-class`` residual."""
    from . import scattering  # only the fuzz checks scatter; checking one condition does not load it
    in_class, round_trip, current, unitarity, rho_round_trip, reflection = FUZZ_CHECKS
    worst = [0.0] * len(FUZZ_CHECKS)
    counts = {"exact": 0, "sign_pair": 0, "mismatch": 0}
    for a, E, r in instances:
        report = boundary.validate_class(a, tol)
        if not report.valid:
            return (in_class.residual(report),)
        q = correspondence.alpha_to_u2(a, m, tol)
        residuals = (
            in_class.residual(report),
            round_trip.residual(a, q, m),
            current.residual(a),
            unitarity.residual(scattering.scatter_alpha(a, E, m)),
            rho_round_trip.residual(r, m, tol),
            reflection.residual(scattering.scatter_rho(r, E, m)),
        )
        worst = list(map(max, worst, residuals))
        counts[correspondence.compare_closed_form(a, m, q, tol).classification] += 1
    return (*worst, counts)


def merge_fuzz(parts: Iterable[tuple | JunctionError], tol: float) -> Verification:
    """A fuzz run's verdict from the :func:`check_fuzz` results (or raised errors)
    of its consecutive parts, in order: the first part that stopped decides, as in
    one run over them all; else each check's worst residual, and the summed tally."""
    in_class = FUZZ_CHECKS[0]
    worst, tally = [0.0] * len(FUZZ_CHECKS), Counter()
    for part in parts:
        if isinstance(part, JunctionError):
            raise part
        if len(part) == 1:
            return Verification((CheckRecord(in_class.name, part[0], min(tol, in_class.limit), False),), {})
        worst = list(map(max, worst, part[:-1]))
        tally.update(part[-1])
    return Verification(tuple(check.record(w) for check, w in zip(FUZZ_CHECKS, worst)), dict(tally))


def verify_fuzz(count: int, m: float, tol: float, seed: int) -> Verification:
    """Worst residual of each fuzz check over ``count`` random transmitting
    and separating conditions, one energy each, and the closed-form tally; an
    instance outside the class at ``tol`` fails ``fuzz-class`` (against the
    smaller of ``tol`` and its usual limit) and ends the run."""
    return merge_fuzz([check_fuzz(draw_fuzz(count, m, seed), m, tol)], tol)
