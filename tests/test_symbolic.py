"""Symbolic proofs: the corrected closed-form inverse map is exact on the
class, and the scattering kernel's matching system is never singular on it.

Every transmitting condition is ``a = e^{i theta} (b1, i b2, i b3, b4)`` with
real b's and ``b1 b4 + b2 b3 = 1``.  Since b1 and b3 are never both zero,
two parametrizations cover the class: ``b4 = (1 - b2 b3)/b1`` and
``b2 = (1 - b1 b4)/b3``.  With ``mu = (1 + i m)/sqrt(1 + m^2)`` and the
pivot phase ``e^{i theta}`` (up to a sign, which flips the whole triple),
:func:`~diracjunction.correspondence.alpha_to_u2` evaluates

    w  = -mu* a1 + a2 - a3 + mu a4
    g1 = G0 i e^{-i theta} w,   g2 = G0 i e^{-i theta} 2/sqrt(1+m^2)
    g3 = ((a1 + mu* a2) g2 - g1*)*

The four defining identities are homogeneous of degree one in the real
factor G0, so they are proved with G0 = 1; and ``|g3|^2`` at G0 = 1 equals
``4/(1+m^2) + |w|^2 = G0^{-2}``, so ``|g3| = 1`` once G0 is applied, as
``|g1|^2 + |g2|^2 = 1`` is by construction.
"""

import pytest

sp = pytest.importorskip("sympy")


def _simplified(expr):
    return sp.simplify(sp.expand(expr))


@pytest.fixture(scope="module", params=["b1 != 0", "b3 != 0"])
def corrected_triple(request):
    theta, b1, b2, b3, b4, m = sp.symbols("theta b1 b2 b3 b4 m", real=True)
    if request.param == "b1 != 0":
        b4 = (1 - b2 * b3) / b1
    else:
        b2 = (1 - b1 * b4) / b3
    phase = sp.exp(sp.I * theta)
    a1, a2, a3, a4 = phase * b1, phase * sp.I * b2, phase * sp.I * b3, phase * b4
    s = sp.sqrt(1 + m**2)
    mu = (1 + sp.I * m) / s
    muc = sp.conjugate(mu)
    w = -muc * a1 + a2 - a3 + mu * a4
    c = sp.I * sp.conjugate(phase)  # G0 = 1
    g1 = c * w
    g2 = c * 2 / s
    g3 = sp.conjugate((a1 + muc * a2) * g2 - sp.conjugate(g1))
    return {"a": (a1, a2, a3, a4), "mu": mu, "w": w, "g": (g1, g2, g3), "m": m}


def test_corrected_triple_satisfies_the_four_defining_identities(corrected_triple):
    a1, a2, a3, a4 = corrected_triple["a"]
    g1, g2, g3 = corrected_triple["g"]
    mu = corrected_triple["mu"]
    muc = sp.conjugate(mu)
    g1c, g2c, g3c = (sp.conjugate(g) for g in (g1, g2, g3))
    # the identities of correspondence.inverse_identity_residuals
    identities = (
        (a1 + muc * a2) * g1 + g2c - g3c * (-a1 + mu * a2),
        (a1 + muc * a2) * g2 - g1c - g3c,
        (a3 + muc * a4) * g1 - muc * g2c - g3c * (-a3 + mu * a4),
        (a3 + muc * a4) * g2 + muc * g1c - mu * g3c,
    )
    for k, expr in enumerate(identities, start=1):
        assert _simplified(expr) == 0, f"identity {k}"


def test_g3_has_the_modulus_that_g0_normalizes(corrected_triple):
    g3 = corrected_triple["g"][2]
    w, m = corrected_triple["w"], corrected_triple["m"]
    expr = g3 * sp.conjugate(g3) - (4 / (1 + m**2) + w * sp.conjugate(w))
    assert _simplified(expr) == 0


def test_matching_determinant_is_bounded_away_from_zero_on_the_class():
    """The kernel's negated determinant lam (a1 - a2 lam) - (a3 - a4 lam) is
    e^{i theta} D with D = lam (b1 + b4) - i (b2 lam^2 + b3), and
    |D|^2 - (S + 2 lam^2) = 2 lam^2 (b1 b4 + b2 b3 - 1) with
    S = lam^2 (b1^2 + b4^2) + b2^2 lam^4 + b3^2.  On the class the right side
    vanishes, so |D|^2 = S + 2 lam^2 >= 4 lam^2 > 0 above the gap."""
    theta, b1, b2, b3, b4, lam = sp.symbols("theta b1 b2 b3 b4 lambda", real=True)
    phase = sp.exp(sp.I * theta)
    a1, a2, a3, a4 = phase * b1, phase * sp.I * b2, phase * sp.I * b3, phase * b4
    D = lam * (b1 + b4) - sp.I * (b2 * lam**2 + b3)
    assert _simplified(lam * (a1 - a2 * lam) - (a3 - a4 * lam) - phase * D) == 0
    S = lam**2 * (b1**2 + b4**2) + b2**2 * lam**4 + b3**2
    assert _simplified(D * sp.conjugate(D) - (S + 2 * lam**2) - 2 * lam**2 * (b1 * b4 + b2 * b3 - 1)) == 0
    # S + 2 lam^2 - 4 lam^2 = lam^2 (b1 - b4)^2 + (b2 lam^2 - b3)^2 when b1 b4 + b2 b3 = 1
    gap = S + 2 * lam**2 - 4 * lam**2 - (lam**2 * (b1 - b4) ** 2 + (b2 * lam**2 - b3) ** 2)
    assert _simplified(gap - 2 * lam**2 * (b1 * b4 + b2 * b3 - 1)) == 0
