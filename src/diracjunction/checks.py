"""Verification checks behind ``diracjunction verify``, each defined once.

A :class:`Check` is a name, a residual function and a limit.  A run over a
condition, a unitary or ``count`` random instances returns a
:class:`Verification`: one :class:`CheckRecord` per check, in a fixed
order, and the closed-form inverse tally.  The fuzz checks reuse the
single-instance residual functions and limits under ``fuzz-`` names.  The
acceptance suite keeps its own, independent gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import boundary, correspondence, deficiency, matrix2, scattering
from .boundary import AlphaBC, RhoBC
from .correspondence import ExtensionClass, Separating
from .errors import ValidationError


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one check: its residual next to the limit it must meet."""

    name: str
    residual: float
    limit: float
    passed: bool


@dataclass(frozen=True)
class Check:
    """One verification check: a name, a residual function and a limit."""

    name: str
    residual: Callable[..., float]
    limit: float

    def record(self, residual: float, scale: float = 1.0) -> CheckRecord:
        """Compare ``residual`` with the limit times ``scale``."""
        return CheckRecord(self.name, residual, self.limit * scale, residual <= self.limit * scale)

    def __call__(self, *args, scale: float = 1.0) -> CheckRecord:
        return self.record(self.residual(*args), scale)


@dataclass(frozen=True)
class Verification:
    """Check records, and the closed-form inverse tally: ``{"classification":
    kind}`` for one transmitting condition, counts for a fuzz run, else empty."""

    records: tuple[CheckRecord, ...]
    closed_form: dict

    @property
    def passed(self) -> bool:
        return bool(self.records) and all(r.passed for r in self.records)


def alpha_scale(a: AlphaBC) -> float:
    """max(1, max |a_i|)."""
    return max(1.0, max(abs(x) for x in a.as_tuple()))


def rho_distance(a: RhoBC, b: RhoBC) -> float:
    """Worst relative difference of the components; inf when only one of a
    pair is infinite."""

    def comp(x: float, y: float) -> float:
        if math.isinf(x) or math.isinf(y):
            return 0.0 if x == y else math.inf
        return abs(x - y) / max(1.0, abs(x), abs(y))

    return max(comp(a.rho_plus, b.rho_plus), comp(a.rho_minus, b.rho_minus))


def _alpha_round_trip(a: AlphaBC, q: matrix2.QuaternionForm, m: float, tol: float) -> float:
    back = correspondence.u2_to_alpha(q, m, tol)
    return max(abs(x - y) for x, y in zip(a.as_tuple(), back.as_tuple())) / alpha_scale(a)


def _current_change(a: AlphaBC, v: np.ndarray) -> float:
    """|j(B v) - j(v)| relative to max(1, max|v|^2 alpha_scale^2)."""
    v_scale, a_scale = float(np.abs(v).max()), alpha_scale(a)
    # products, not ** 2: a float power raises OverflowError instead of giving inf
    scale = max(1.0, (v_scale * v_scale) * (a_scale * a_scale))
    return abs(boundary.current(a.matrix() @ v) - boundary.current(v)) / scale


def _rho_round_trip(r: RhoBC, m: float, tol: float) -> float:
    gl, gr = correspondence.rho_to_diagonal_u2(r, m)
    return rho_distance(r, correspondence.diagonal_u2_to_rho(gl, gr, m, tol))


def _ratio_oracle(r: RhoBC, m: float, tol: float) -> float:
    gl, gr = correspondence.rho_to_diagonal_u2(r, m)
    return rho_distance(r, correspondence.oracle_rho_from_diagonal(gl, gr, m, tol=tol))


DECOMPOSITION = Check(
    "decomposition-round-trip",
    lambda u, q: float(np.abs(matrix2.compose(q) - np.array(u)).max()),
    1e-12,
)
ROUND_TRIP = Check("extension-round-trip", _alpha_round_trip, 1e-10)
#: limit in units of :func:`alpha_scale`
IDENTITIES = Check(
    "defining-identities", lambda q, a, m: max(correspondence.inverse_identity_residuals(q, a, m)), 1e-10
)
CURRENT = Check("current-conservation", _current_change, 1e-12)
RHO_ROUND_TRIP = Check("extension-round-trip", _rho_round_trip, 1e-12)
RATIO_ORACLE = Check("boundary-ratio-oracle", _ratio_oracle, 1e-12)

FUZZ_CHECKS = (
    Check("fuzz-class", lambda report: report.worst()[1] / report.scale, 1e-12),
    replace(ROUND_TRIP, name="fuzz-round-trip"),
    replace(CURRENT, name="fuzz-current"),
    Check("fuzz-scatter-unitarity", lambda res: abs(res.R + res.T - 1.0), 1e-12),
    replace(RHO_ROUND_TRIP, name="fuzz-rho-round-trip"),
    Check("fuzz-rho-reflection", lambda res: abs(abs(res.r) - 1.0) + res.T, 1e-12),
)


def _symmetry(bc: ExtensionClass, seed: int) -> CheckRecord:
    """Boundary form on 50 sampled domain pairs, with maximality witnesses."""
    sa = deficiency.verify_selfadjoint_domain(bc, samples=50, seed=seed)
    return CheckRecord("boundary-form-symmetry", sa.max_symmetry_residual, sa.tol, sa.passed)


def verify_condition(
    condition: ExtensionClass | matrix2.Entries, m: float, tol: float, seed: int
) -> Verification:
    """Check one extension, given as its boundary condition or its unitary
    (an ndarray or a pair of pairs of entries).

    A unitary is decomposed and recomposed (``decomposition-round-trip``),
    then classified and checked as its boundary condition.  A transmitting
    condition outside the class at ``tol`` fails ``class-constraints``,
    under the name of its worst constraint, and runs no further check.
    """
    if not isinstance(condition, ExtensionClass):  # a unitary
        first = DECOMPOSITION(condition, matrix2.decompose_u2(condition, tol))
        rest = verify_condition(correspondence.classify(condition, m, tol), m, tol, seed)
        return Verification((first, *rest.records), rest.closed_form)
    if isinstance(condition, Separating):
        r = condition.rho
        return Verification((RHO_ROUND_TRIP(r, m, tol), RATIO_ORACLE(r, m, tol), _symmetry(condition, seed)), {})
    a = condition.alpha
    report = boundary.validate_class(a, tol)
    name, worst = report.worst()
    if not report.valid:
        limit = tol * report.scale_of(name)
        return Verification((CheckRecord(f"class-constraints {name}", worst, limit, False),), {})
    q = correspondence.alpha_to_u2(a, m, tol)
    rng = np.random.default_rng(seed)
    current = max(0.0, *(CURRENT.residual(a, boundary.random_spinor(rng)) for _ in range(100)))
    records = (
        CheckRecord("class-constraints", worst, tol * report.scale, True),
        ROUND_TRIP(a, q, m, tol),
        IDENTITIES(q, a, m, scale=alpha_scale(a)),
        CURRENT.record(current),
        _symmetry(condition, seed),
    )
    comparison = correspondence.compare_closed_form(a, m, primary=q)
    return Verification(records, {"classification": comparison.classification})


def verify_fuzz(count: int, m: float, tol: float, seed: int) -> Verification:
    """Worst residual of each fuzz check over ``count`` random transmitting
    and separating conditions, one energy each, and the closed-form tally.

    A generated instance outside the class at ``tol`` fails ``fuzz-class``
    (against the smaller of ``tol`` and its usual limit) and ends the run.
    """
    if count < 1:
        raise ValidationError(f"--fuzz needs N >= 1 instances, got {count}")
    rng = np.random.default_rng(seed)
    in_class, round_trip, current, unitarity, rho_round_trip, reflection = FUZZ_CHECKS
    worst = [0.0] * len(FUZZ_CHECKS)
    counts = {"exact": 0, "sign_pair": 0, "mismatch": 0}
    for _ in range(count):
        a = boundary.random_alpha(rng)
        report = boundary.validate_class(a, tol)
        if not report.valid:
            limit = min(tol, in_class.limit)
            return Verification((CheckRecord(in_class.name, in_class.residual(report), limit, False),), {})
        q = correspondence.alpha_to_u2(a, m, tol)
        v = boundary.random_spinor(rng)
        E = m + math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
        r = boundary.random_rho(rng)
        residuals = (
            in_class.residual(report),
            round_trip.residual(a, q, m, tol),
            current.residual(a, v),
            unitarity.residual(scattering.scatter_alpha(a, E, m)),
            rho_round_trip.residual(r, m, tol),
            reflection.residual(scattering.scatter_rho(r, E, m)),
        )
        worst = list(map(max, worst, residuals))
        counts[correspondence.compare_closed_form(a, m, primary=q).classification] += 1
    return Verification(tuple(check.record(w) for check, w in zip(FUZZ_CHECKS, worst)), counts)
