"""Symbolic proofs: the corrected closed-form inverse map is exact on the
class, the scattering kernel's matching system is never singular on it, and
the kernel's two-sided S-matrix is unitary there and is the conjugate of the
extension's unitary (of the lambda-similar condition when m > 0).

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
    return {"a": (a1, a2, a3, a4), "mu": mu, "w": w, "g": (g1, g2, g3), "m": m, "b": (b1, b2, b3, b4),
            "phase": phase}


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


def test_boundary_form_matrix_entries_are_the_class_residuals():
    """H = B^H sigma_x B - sigma_x, the matrix of the boundary form on domain
    pairs (v, B v) and of the change of the current across the junction,
    has entries 2 Re(a1* a3), 2 Re(a2* a4) and a1* a4 + a3* a2 - 1; on the
    class it is (b1 b4 + b2 b3 - 1) sigma_x, which vanishes."""
    xs = sp.symbols("x1:5", real=True)
    ys = sp.symbols("y1:5", real=True)
    a1, a2, a3, a4 = (x + sp.I * y for x, y in zip(xs, ys))
    sigma_x = sp.Matrix([[0, 1], [1, 0]])

    def form_matrix(b):
        return b.H * sigma_x * b - sigma_x

    c = sp.conjugate
    h12 = c(a1) * a4 + c(a3) * a2 - 1
    expected = sp.Matrix([[2 * sp.re(c(a1) * a3), h12], [c(h12), 2 * sp.re(c(a2) * a4)]])
    residual = form_matrix(sp.Matrix([[a1, a2], [a3, a4]])) - expected
    assert residual.applyfunc(_simplified) == sp.zeros(2, 2)

    theta, b1, b2, b3, b4 = sp.symbols("theta b1 b2 b3 b4", real=True)
    on_class = sp.exp(sp.I * theta) * sp.Matrix([[b1, sp.I * b2], [sp.I * b3, b4]])
    residual = form_matrix(on_class) - (b1 * b4 + b2 * b3 - 1) * sigma_x
    assert residual.applyfunc(_simplified) == sp.zeros(2, 2)


def test_domain_is_its_own_form_orthogonal_complement():
    """For any B with B^H sigma_x B = sigma_x, the graph {(v, B v)} equals
    its complement under the boundary form
    -i (p(+L)^H sigma_x q(+L) - p(-L)^H sigma_x q(-L)), so the domain is
    maximal and no sampled witness is needed.

    Each step is a polynomial identity in the entries of B, with
    H = B^H sigma_x B - sigma_x, which vanishes by hypothesis:
    - the form of two graph elements is -i v^H H w, so the graph lies in
      its complement;
    - q = (w-, w+) is in the complement iff -sigma_x w- + B^H sigma_x w+ = 0,
      that is w- = K w+ with K = sigma_x B^H sigma_x;
    - (1 - B K) B = -B sigma_x H = 0, and B is invertible since
      det(B^H sigma_x B) = -|det B|^2 = det sigma_x; so B K = 1 and
      w+ = B w-: the complement lies in the graph.
    """
    xs = sp.symbols("x1:5", real=True)
    ys = sp.symbols("y1:5", real=True)
    a1, a2, a3, a4 = (x + sp.I * y for x, y in zip(xs, ys))
    b = sp.Matrix([[a1, a2], [a3, a4]])
    one, zero = sp.eye(2), sp.zeros(2, 2)
    sigma_x = sp.Matrix([[0, 1], [1, 0]])
    h = b.H * sigma_x * b - sigma_x
    form = -sp.I * sp.diag(-sigma_x, sigma_x)  # on (p(-L), p(+L)) stacked
    graph = sp.Matrix.vstack(one, b)
    assert (graph.H * form * graph + sp.I * h).applyfunc(sp.expand) == zero
    assert (graph.H * form + sp.I * sp.Matrix.hstack(-sigma_x, b.H * sigma_x)).applyfunc(sp.expand) == sp.zeros(2, 4)
    k = sigma_x * b.H * sigma_x
    assert ((one - b * k) * b + b * sigma_x * h).applyfunc(sp.expand) == zero
    assert sp.expand((b.H * sigma_x * b).det() + b.det() * sp.conjugate(b.det())) == 0


def _b_form_condition():
    """A general b-form condition and the kernel's D and N at lambda."""
    theta, b1, b2, b3, b4, lam = sp.symbols("theta b1 b2 b3 b4 lambda", real=True)
    phase = sp.exp(sp.I * theta)
    b = phase * sp.Matrix([[b1, sp.I * b2], [sp.I * b3, b4]])
    D = lam * (b1 + b4) - sp.I * (b2 * lam**2 + b3)
    N = lam * (b4 - b1) + sp.I * (b3 - b2 * lam**2)
    return b, phase, (b1, b2, b3, b4), lam, D, N


def test_b_form_amplitudes_solve_the_matching_system_on_the_class():
    """With r = N/D and t = 2 lam e^{i theta}/D, D times the matching
    residual t u+ - B (u+ + r u-) is 2 lam e^{i theta} (1 - b1 b4 - b2 b3)
    (1, lam): it vanishes on the whole class, where D != 0 (the bound
    above).  And |D|^2 = |N|^2 + 4 lam^2 (b1 b4 + b2 b3), which the kernel
    uses as |N|^2 + 4 lam^2, so R + T = 1."""
    b, phase, (b1, b2, b3, b4), lam, D, N = _b_form_condition()
    u_plus, u_minus = sp.Matrix([1, lam]), sp.Matrix([1, -lam])
    det = b1 * b4 + b2 * b3
    residual = 2 * lam * phase * u_plus - b * (D * u_plus + N * u_minus)
    assert (residual - 2 * lam * phase * (1 - det) * u_plus).applyfunc(_simplified) == sp.zeros(2, 1)
    assert _simplified(D * sp.conjugate(D) - N * sp.conjugate(N) - 4 * lam**2 * det) == 0


def test_reflection_and_penetration_are_the_quaternion_moduli():
    """The paper's reading of (g1, g2, g3) as reflection, penetration and
    phase: at m = 0 (lambda = 1), T = |g2|^2 and R = |g1|^2 with g from
    :func:`~diracjunction.correspondence.alpha_to_u2`.  There w = -a1 + a2
    - a3 + a4 and |g2|^2 = 4/(4 + |w|^2), |g1|^2 = |w|^2/(4 + |w|^2); and
    |D|^2 = 4 + |w|^2, |N|^2 = |w|^2 on the class.  For m > 0 the same holds
    for (a1, lam a2, a3/lam, a4) at m = 0, whose D and N are those at
    lambda divided by lambda."""
    b, phase, (b1, b2, b3, b4), lam, D, N = _b_form_condition()
    (a1, a2), (a3, a4) = b.tolist()
    w = -a1 + a2 - a3 + a4
    det = b1 * b4 + b2 * b3
    D1, N1 = D.subs(lam, 1), N.subs(lam, 1)
    w2 = w * sp.conjugate(w)
    assert _simplified(D1 * sp.conjugate(D1) - (4 + w2) - 4 * (det - 1)) == 0
    assert _simplified(N1 * sp.conjugate(N1) - w2) == 0
    # the similarity diag(1, lam): b2 -> lam b2, b3 -> b3/lam
    for at_one, at_lam in ((D1, D), (N1, N)):
        scaled = at_one.subs({b2: lam * b2, b3: b3 / lam}, simultaneous=True)
        assert _simplified(lam * scaled - at_lam) == 0


def _d_times_s(phase, bs, lam, D, N):
    """D S, with S = [[r, t'], [t, r']] the on-shell S-matrix of the kernel:
    r = N/D and t = 2 lam e^{i theta}/D from the left; r' (N with b1 and b4
    swapped) over D and t' = 2 lam e^{-i theta}/D from the right."""
    b1, _, _, b4 = bs
    swapped = N.subs({b1: b4, b4: b1}, simultaneous=True)
    return sp.Matrix([[N, 2 * lam * sp.conjugate(phase)], [2 * lam * phase, swapped]])


def test_right_incidence_amplitudes_solve_their_matching_system():
    """D times the residual u- + r' u+ - B t' u- of a wave from the right
    vanishes for any b's, on the class and off it."""
    b, phase, bs, lam, D, N = _b_form_condition()
    u_plus, u_minus = sp.Matrix([1, lam]), sp.Matrix([1, -lam])
    (_, t_right), (_, r_right) = _d_times_s(phase, bs, lam, D, N).tolist()
    residual = D * u_minus + r_right * u_plus - b * t_right * u_minus
    assert residual.applyfunc(_simplified) == sp.zeros(2, 1)


def test_s_matrix_is_unitary_on_the_class():
    """(D S)^H (D S) - |D|^2 = 4 lam^2 (1 - b1 b4 - b2 b3): S^H S = 1 on the class."""
    b, phase, bs, lam, D, N = _b_form_condition()
    b1, b2, b3, b4 = bs
    ds = _d_times_s(phase, bs, lam, D, N)
    residual = ds.H * ds - (D * sp.conjugate(D) + 4 * lam**2 * (1 - b1 * b4 - b2 * b3)) * sp.eye(2)
    assert residual.applyfunc(_simplified) == sp.zeros(2, 2)


def test_s_matrix_is_the_conjugate_extension_unitary_at_zero_mass(corrected_triple):
    """At m = 0 (lambda = 1) S = conj(U), U = g3 [[g1, -g2*], [g2, g1*]] of
    :func:`~diracjunction.correspondence.alpha_to_u2`, at every energy.  U is
    of degree two in G0, and G0^-2 = |g3|^2 at G0 = 1 equals |D|^2 there, so
    S = conj(U) reads U at G0 = 1 = conj(D S) D."""
    g1, g2, g3 = (g.subs(corrected_triple["m"], 0) for g in corrected_triple["g"])
    phase, bs = corrected_triple["phase"], corrected_triple["b"]
    b1, b2, b3, b4 = bs
    D = (b1 + b4) - sp.I * (b2 + b3)
    N = (b4 - b1) + sp.I * (b3 - b2)
    assert _simplified(g3 * sp.conjugate(g3) - D * sp.conjugate(D)) == 0
    unitary = g3 * sp.Matrix([[g1, -sp.conjugate(g2)], [g2, sp.conjugate(g1)]])
    residual = unitary - _d_times_s(phase, bs, 1, D, N).conjugate() * D
    assert residual.applyfunc(_simplified) == sp.zeros(2, 2)


def test_s_matrix_at_lambda_is_that_of_the_similar_condition_at_zero_mass():
    """For m > 0, S at lambda is S at lambda = 1 of the similar condition
    diag(1, lam)^-1 B diag(1, lam), whose b's are (b1, lam b2, b3/lam, b4):
    its D and D S are those at lambda divided by lambda.  With the identity
    at m = 0, S(E) = conj(U) of that condition's extension."""
    b, phase, bs, lam, D, N = _b_form_condition()
    b1, b2, b3, b4 = bs
    similar = {b2: lam * b2, b3: b3 / lam}
    at_one = {lam: 1}
    ds_one = _d_times_s(phase, bs, 1, D.subs(at_one), N.subs(at_one)).subs(similar, simultaneous=True)
    assert _simplified(lam * D.subs(at_one).subs(similar, simultaneous=True) - D) == 0
    assert (lam * ds_one - _d_times_s(phase, bs, lam, D, N)).applyfunc(_simplified) == sp.zeros(2, 2)
