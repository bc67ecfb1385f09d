"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal (they are captured otherwise).
"""

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from diracjunction.boundary import (
    AlphaBC,
    RhoBC,
    apply_alpha,
    random_alpha,
    random_rho,
    validate_class,
)
from diracjunction.correspondence import (
    Separating,
    Transmitting,
    alpha_to_u2,
    compare_closed_form,
    diagonal_u2_to_rho,
    oracle_alpha_from_u2,
    oracle_rho_from_diagonal,
    rho_to_diagonal_u2,
    u2_to_alpha,
)
from diracjunction.deficiency import (
    DeficiencyFunction,
    Island,
    Sign,
    SmoothBump,
    boundary_form,
    boundary_form_quadrature,
    combination_boundary,
    gram_matrix,
    ode_residual,
    verify_selfadjoint_domain,
)
from diracjunction.matrix2 import (
    QuaternionForm,
    compose,
    decompose_u2,
    random_quaternion_form,
)
from diracjunction.scattering import scatter_alpha, scatter_rho

MASSES = [0.0, 0.5, 1.0, 10.0]
ARTIFACT_DIR = Path(__file__).resolve().parents[1] / "artifacts"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL {name}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS {name}")


def test_criterion_01_decomposition_roundtrip():
    with criterion(1, "U(2) decomposition round-trip <= 1e-12 (1000 unitaries)"):
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(1000):
            u = compose(random_quaternion_form(rng))
            worst = max(worst, float(np.abs(compose(decompose_u2(u)) - u).max()))
        assert worst <= 1e-12


def test_criterion_02_class_production():
    with criterion(2, "forward map lands in the admissible class <= 1e-12"):
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(1000):
            q = random_quaternion_form(rng, min_offdiag=1e-3)
            for m in MASSES:
                report = validate_class(u2_to_alpha(q, m), 1e-12)
                _, value = report.worst()
                worst = max(worst, value / report.scale)
        assert worst <= 1e-12


def test_criterion_03_oracle_equivalence_and_length_independence():
    with criterion(3, "formula equals boundary-value oracle <= 1e-10 for all lengths"):
        rng = np.random.default_rng(1003)
        worst = 0.0
        for _ in range(250):
            q = random_quaternion_form(rng, min_offdiag=0.05)
            u = compose(q)
            for m in MASSES:
                a = np.array(u2_to_alpha(decompose_u2(u), m).as_tuple()).reshape(2, 2)
                for lam in (0.0, 0.5, 2.0):
                    v = oracle_alpha_from_u2(u, m, lam=lam)
                    worst = max(worst, float(np.abs(a - v).max()))
        assert worst <= 1e-10


def test_criterion_04_full_roundtrip():
    with criterion(4, "alpha -> U -> alpha componentwise <= 1e-10 + fixed triples"):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for i in range(1000):
            a = random_alpha(rng)
            m = MASSES[i % 4]
            back = u2_to_alpha(alpha_to_u2(a, m), m)
            worst = max(
                worst, max(abs(x - y) for x, y in zip(a.as_tuple(), back.as_tuple()))
            )
        assert worst <= 1e-10
        triples = [
            (AlphaBC(1, 0, 0, 1), QuaternionForm(0, -1j, 1j)),
            (AlphaBC(0, 1, 1, 0), QuaternionForm(0, 1, 1)),
            (AlphaBC(-1j, 0, 0, -1j), QuaternionForm(0, 1, 1j)),
        ]
        for a, q in triples:
            got = alpha_to_u2(a, 0.0)
            assert np.abs(got.as_array() - q.as_array()).max() <= 1e-12
            back = u2_to_alpha(q, 0.0)
            assert max(abs(x - y) for x, y in zip(a.as_tuple(), back.as_tuple())) <= 1e-12


def test_criterion_05_diagonal_correspondence():
    with criterion(5, "separating round-trip and ratio oracle <= 1e-12 (incl. +inf)"):
        rng = np.random.default_rng(1005)
        # gamma = -1 <-> rho = +inf, exactly
        r = diagonal_u2_to_rho(-1, -1, 0.7)
        assert math.isinf(r.rho_plus) and math.isinf(r.rho_minus)
        assert rho_to_diagonal_u2(RhoBC(math.inf, math.inf), 0.7) == (-1, -1)
        for i in range(1000):
            rho = random_rho(rng)
            m = MASSES[i % 4]
            gl, gr = rho_to_diagonal_u2(rho, m)
            back = diagonal_u2_to_rho(gl, gr, m)
            oracle = oracle_rho_from_diagonal(gl, gr, m, lam=0.5 * (i % 3))
            for x, y, z in (
                (rho.rho_plus, back.rho_plus, oracle.rho_plus),
                (rho.rho_minus, back.rho_minus, oracle.rho_minus),
            ):
                if math.isinf(x):
                    assert math.isinf(y) and math.isinf(z)
                else:
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(x))
                    assert abs(y - z) <= 1e-12 * max(1.0, abs(x))


def test_criterion_06_selfadjoint_boundary_form():
    with criterion(6, "Green identity <= 1e-8; form vanishes <= 1e-12 on both types"):
        rng = np.random.default_rng(1006)
        for m, lam in ((0.0, 0.0), (1.0, 1.0)):
            basis = [
                DeficiencyFunction(island, sign, m=m, lam=lam)
                for island in Island
                for sign in Sign
            ]
            bumps = [
                SmoothBump(Island.LEFT, -lam - 2.0, 0.8, (1, -1j), lam=lam),
                SmoothBump(Island.RIGHT, lam + 2.0, 0.8, (1j, 1), lam=lam),
            ]

            def terms():
                coefs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                return list(zip(coefs, basis + bumps))

            for _ in range(3):
                psi, phi = terms(), terms()
                lhs = boundary_form_quadrature(psi, phi, m=m, lam=lam)
                rhs = boundary_form(
                    combination_boundary(psi), combination_boundary(phi)
                )
                assert abs(lhs - rhs) <= 1e-8
        for i in range(4):
            bc = (
                Transmitting(random_alpha(rng))
                if i % 2
                else Separating(random_rho(rng))
            )
            report = verify_selfadjoint_domain(bc, samples=100, seed=2000 + i, tol=1e-12)
            assert report.passed, report


def test_criterion_07_deficiency_verification():
    with criterion(7, "ODE residual second-order (ratio 4 +- 0.1); Gram rank 2"):
        lam = 0.25
        for m in MASSES:
            for island in Island:
                for sign in Sign:
                    f = DeficiencyFunction(island, sign, m=m, lam=lam)
                    x = -lam - 1.0 if island is Island.LEFT else lam + 1.0
                    h = 1e-3
                    ratio = ode_residual(f, x, h) / ode_residual(f, x, h / 2)
                    assert abs(ratio - 4.0) <= 0.1
        for sign in Sign:
            g = gram_matrix(sign, m=0.5, lam=0.5)
            assert np.linalg.matrix_rank(g, tol=1e-30) == 2


def test_criterion_08_scattering_unitarity():
    with criterion(8, "R + T = 1 <= 1e-12 (1000 draws); separating reflects fully"):
        rng = np.random.default_rng(1008)
        worst = 0.0
        for i in range(1000):
            a = random_alpha(rng)
            m = MASSES[i % 4]
            energy = m + math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
            res = scatter_alpha(a, energy, m)
            worst = max(worst, abs(res.R + res.T - 1.0))
        assert worst <= 1e-12
        for i in range(300):
            rho = random_rho(rng)
            m = MASSES[i % 4]
            energy = m + math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
            face = Island.LEFT if i % 2 else Island.RIGHT
            res = scatter_rho(rho, energy, m, face=face)
            assert res.T == 0.0
            assert abs(abs(res.r) - 1.0) <= 1e-12


def test_criterion_09_device_regimes():
    with criterion(9, "spin-flip/phase/massive device points at stated tolerances"):
        flip = AlphaBC(0, 1, 1, 0)
        res = scatter_alpha(flip, 1.0, 0.0)
        assert abs(res.r) <= 1e-12
        assert abs(res.t - 1.0) <= 1e-12
        # full spin interchange at the boundary-value level
        assert np.abs(apply_alpha(flip, [1, 0]) - np.array([0, 1])).max() <= 1e-12
        assert np.abs(apply_alpha(flip, [0, 1]) - np.array([1, 0])).max() <= 1e-12

        res = scatter_alpha(AlphaBC(-1j, 0, 0, -1j), 1.0, 0.0)
        assert abs(res.t - (-1j)) <= 1e-12

        res = scatter_alpha(flip, math.sqrt(2), 1.0)
        assert abs(res.T - 0.5) <= 1e-12


def test_criterion_10_closed_form_survey():
    with criterion(10, "closed-form inverse survey over 1000 instances matches its record"):
        rng = np.random.default_rng(1010)
        counts = {"exact": 0, "sign_pair": 0, "mismatch": 0}
        worst_identity = 0.0
        for i in range(1000):
            a = random_alpha(rng)
            comparison = compare_closed_form(a, MASSES[i % 4])
            counts[comparison.classification] += 1
            if comparison.classification != "mismatch":
                worst_identity = max(worst_identity, comparison.identity_residual)
        assert sum(counts.values()) == 1000
        survey = {
            "instances": 1000,
            "seed": 1010,
            "masses": MASSES,
            "classification_counts": counts,
            "note": (
                "the linear-system construction is authoritative; the "
                "closed-form map is recorded for comparison only"
            ),
        }
        # the tracked record is compared, never rewritten, so a test run
        # leaves the working tree clean
        record = (ARTIFACT_DIR / "closed_form_survey.json").read_text(encoding="utf-8")
        assert json.loads(record) == survey
        print(f"ACCEPTANCE 10 INFO classification counts: {counts}")
