"""Relative equilibria, period normalization, and Floquet analysis."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from nvortex import core, equilibria as eq, loops as lp
from nvortex.core import VortexSystem
from nvortex.errors import ZeroTotalVorticity


# ---------------------------------------------------------------------------
# constructors

def test_pair_omega_and_residual():
    pair = eq.make_pair(1.0, 1.0, 2.0)
    assert pair.omega == pytest.approx(2.0 / (np.pi * 4.0), rel=1e-14)
    assert eq.residual_HS0(pair) < 1e-12
    assert np.linalg.norm(pair.sys.gammas @ pair.z.reshape(-1, 2)) < 1e-14


def test_pair_asymmetric():
    pair = eq.make_pair(2.0, 0.5, 1.5)
    assert pair.omega == pytest.approx(2.5 / (np.pi * 1.5**2), rel=1e-14)
    assert eq.residual_HS0(pair) < 1e-12
    assert np.linalg.norm(pair.sys.gammas @ pair.z.reshape(-1, 2)) < 1e-14


def test_pair_zero_total_vorticity_rejected():
    with pytest.raises(ZeroTotalVorticity):
        eq.make_pair(1.0, -1.0, 2.0)


def test_triangle_with_total_zero_to_rounding_rejected():
    """0.1 + 0.2 - 0.3 is 5.6e-17, roundoff: dividing by it would put every
    vertex near 4.5e15."""
    with pytest.raises(ZeroTotalVorticity, match="zero-sum vorticities"):
        eq.make_triangle(0.1, 0.2, -0.3, 1.0)


@pytest.mark.parametrize("seed", [
    eq.make_pair(1e8, 2e8, 1.0), eq.make_pair(1e-8, 3e-8, 1e3),
    eq.make_triangle(1.0, 2.0, 3.0, 1.3), eq.make_thomson(5, 1.0, 0.5)],
    ids=["pair-1e8", "pair-1e-8", "triangle", "thomson-5"])
def test_residual_is_free_of_scale(seed):
    """The residual is relative to the largest block of grad H0, which grows
    like gamma^2/d: roundoff at any vorticity scale, and exactly the
    relative error of an omega off by 1e-6."""
    assert eq.residual_HS0(seed) < 1e-14
    bent = eq.RelativeEquilibrium(seed.sys, seed.z, seed.omega * (1 + 1e-6))
    assert eq.residual_HS0(bent) == pytest.approx(1e-6, rel=1e-6)
    assert eq.residual_HS0(bent) > eq.residual_bound(seed.sys)


def _residual_by_rotation(rel):
    """The residual's defining form: the block norm of
    Gamma_k Zdot_k(0) - J grad_k H0(z), with Z(t) = e^{-omega J t} z built
    from the explicit rotation, over the largest block of grad H0."""
    c, s = np.cos(rel.omega * 0.0), np.sin(rel.omega * 0.0)
    blocks = rel.z.reshape(-1, 2) @ np.array([[c, -s], [s, c]]).T
    zdot = -rel.omega * blocks @ core.J2.T
    grad = core.grad_H0(rel.sys, rel.z).reshape(-1, 2)
    defect = rel.sys.gammas[:, None] * zdot - grad @ core.J2.T
    return float(np.hypot(*defect.T).max() / np.hypot(*grad.T).max())


_vorticity = st.floats(0.05, 5.0) | st.floats(-5.0, -0.05)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["pair", "triangle", "thomson"]),
       g=st.tuples(_vorticity, _vorticity, _vorticity),
       size=st.floats(0.1, 10.0), n=st.integers(2, 8),
       bend=st.sampled_from([0.0, 1e-9, -1e-6, 0.3]))
def test_residual_equals_its_rotation_form_bitwise(kind, g, size, n, bend):
    """omega Gamma_k z_k + grad_k H0 is -J (Gamma_k Zdot_k(0) - J grad_k H0)
    term by term, and J only swaps and negates: the two forms agree to the
    bit on seeds whose omega is not normalized, and on bent omegas."""
    try:
        seed = {"pair": lambda: eq.make_pair(g[0], g[1], size),
                "triangle": lambda: eq.make_triangle(*g, size),
                "thomson": lambda: eq.make_thomson(n, g[0], size)}[kind]()
    except ZeroTotalVorticity:
        assume(False)
    rel = eq.RelativeEquilibrium(seed.sys, seed.z, seed.omega * (1 + bend))
    assert eq.residual_HS0(rel).hex() == _residual_by_rotation(rel).hex()


@pytest.mark.parametrize("gammas", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0),
                                    (1.0, 1.0, -0.5), (0.3, -0.2, 1.7)])
def test_triangle_residual_and_omega(gammas):
    tri = eq.make_triangle(*gammas, 1.3)
    total = sum(gammas)
    assert tri.omega == pytest.approx(total / (np.pi * 1.3**2), rel=1e-13)
    assert eq.residual_HS0(tri) < 1e-12
    assert np.linalg.norm(tri.sys.gammas @ tri.z.reshape(-1, 2)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_thomson_residual_and_omega(n):
    th = eq.make_thomson(n, 1.0, 1.0)
    assert th.omega == pytest.approx((n - 1) / (2 * np.pi), rel=1e-13)
    assert eq.residual_HS0(th) < 1e-12


@pytest.mark.parametrize("build", [
    lambda bad: eq.make_pair(1.0, 1.0, bad),
    lambda bad: eq.make_triangle(1.0, 2.0, 3.0, bad),
    lambda bad: eq.make_thomson(4, 1.0, bad),
    lambda bad: eq.make_pair(bad, 1.0, 1.0),
    lambda bad: eq.RelativeEquilibrium(VortexSystem([1.0, 1.0]),
                                       [0.5, 0.0, -0.5, bad], 1.0),
    lambda bad: eq.RelativeEquilibrium(VortexSystem([1.0, 1.0]),
                                       [0.5, 0.0, -0.5, 0.0], bad),
], ids=["separation", "side", "radius", "gamma", "z", "omega"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(build, bad):
    with pytest.raises(ValueError, match="finite.*(nan|inf)"):
        build(bad)


def test_configuration_of_another_system_rejected():
    with pytest.raises(ValueError, match="does not match the system"):
        eq.RelativeEquilibrium(VortexSystem([1.0, 1.0]), np.ones(6), 1.0)


@pytest.mark.parametrize("build", [
    lambda: eq.make_pair(0.0, 1.0, 1.0),
    lambda: eq.make_triangle(1.0, 0.0, 3.0, 1.0),
    lambda: eq.make_thomson(4, 0.0, 1.0),
], ids=["pair", "triangle", "thomson"])
def test_zero_vorticity_rejected(build):
    with pytest.raises(ValueError, match="every vorticity must be nonzero"):
        build()


def test_normalize_period():
    pair = eq.make_pair(1.0, 1.0, 2.0)
    norm = eq.normalize_period(pair)
    assert abs(norm.omega) == pytest.approx(1.0, abs=1e-15)
    assert eq.residual_HS0(norm) < 1e-12
    again = eq.normalize_period(norm)
    assert np.allclose(again.z, norm.z)
    assert norm.period == pytest.approx(2 * np.pi)


def test_rotation_solves_flow():
    tri = eq.normalize_period(eq.make_triangle(1.0, 2.0, 3.0, 1.0))
    frame = lp.build_frame(tri.z, tri.omega, 1)
    t = 0.37
    z_t = frame.eval(t)
    rhs = core.vortex_rhs(tri.sys, core.Plane(), z_t)
    assert np.allclose(rhs, lp.differentiate(frame).eval(t), atol=1e-12)


def test_relative_equilibria_compare_by_value():
    a, b = eq.make_pair(1.0, 1.0, 2.0), eq.make_pair(1.0, 1.0, 2.0)
    assert a == b and hash(a) == hash(b)
    assert a != eq.make_pair(1.0, 1.0, 3.0) and a != eq.make_pair(1.0, 2.0, 2.0)
    assert a != eq.normalize_period(a) and a != a.sys
    assert a != eq.RelativeEquilibrium(a.sys, -a.z, a.omega)  # turned by pi
    with pytest.raises(ValueError, match="read-only"):
        a.z[0] = 5.0


# ---------------------------------------------------------------------------
# monodromy

def test_monodromy_reports_compare_by_identity():
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    rep = eq.monodromy(pair)
    assert rep == rep and rep != eq.monodromy(pair)
    assert len({rep, rep}) == 1

def test_monodromy_needs_a_normalized_equilibrium():
    with pytest.raises(ValueError, match="call normalize_period first"):
        eq.monodromy(eq.make_pair(1.0, 1.0, 2.0))


def _monodromy_matrix(rep):
    """W = expm(2pi B), which the library does not build, from rep.generator."""
    return scipy.linalg.expm(2.0 * np.pi * rep.generator)


def test_monodromy_pair_nondegenerate():
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    rep = eq.monodromy(pair)
    assert rep.kernel_dim == 3
    assert rep.nondegenerate
    assert abs(np.prod(np.abs(rep.multipliers)) - 1.0) < 1e-6


def test_monodromy_fixes_known_kernel_vectors():
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    rep = eq.monodromy(pair)
    W = _monodromy_matrix(rep)
    zdot = lp.differentiate(lp.build_frame(pair.z, pair.omega, 1)).eval(0.0)
    for e in (np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0]),
              zdot):
        assert np.linalg.norm(W @ e - e) < 1e-6 * max(1.0, np.linalg.norm(e))


def _rk4_lab_frame(rel_eq, steps):
    """Monodromy by fixed-step RK4 on Wdot = M^-1 J_N H0''(Z(t)) W.

    H0'' is evaluated on the rotating orbit Z(t) itself, at every RK4 stage
    time, so the reference does not use the rotating-frame reduction.
    """
    vsys = rel_eq.sys
    h = 2.0 * np.pi / steps
    angles = rel_eq.omega * 0.5 * h * np.arange(2 * steps + 1)
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    x, y = rel_eq.z[0::2], rel_eq.z[1::2]
    orbit = np.empty((angles.size, 2 * vsys.n))
    orbit[:, 0::2] = c * x - s * y
    orbit[:, 1::2] = s * x + c * y
    coeff = (1.0 / vsys.m_gamma_diag())[:, None] * (
        vsys.j_n() @ core.hess_H0(vsys, orbit))
    W = np.eye(2 * vsys.n)
    for i in range(steps):
        a0, am, a1 = coeff[2 * i], coeff[2 * i + 1], coeff[2 * i + 2]
        k1 = a0 @ W
        k2 = am @ (W + 0.5 * h * k1)
        k3 = am @ (W + 0.5 * h * k2)
        k4 = a1 @ (W + h * k3)
        W = W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return W


def test_monodromy_matches_fine_rk4_reference():
    """expm(2pi B) against 8000-step RK4 in the lab frame.

    The cases cover the pair, a generic triangle, the L = 0 triangle (a
    Jordan block), the Thomson square and a triangle with negative total
    vorticity, where omega = -1.
    """
    cases = [eq.make_pair(1.0, 1.0, 2.0),
             eq.make_triangle(1.0, 2.0, 3.0, 1.0),
             eq.make_triangle(1.0, 1.0, -0.5, 1.0),
             eq.make_thomson(4, 1.0, 1.0),
             eq.make_triangle(-1.0, -2.0, 0.5, 1.0)]
    for rel_eq in map(eq.normalize_period, cases):
        W = _monodromy_matrix(eq.monodromy(rel_eq))
        ref = _rk4_lab_frame(rel_eq, 8000)
        assert np.linalg.norm(W - ref) <= 1e-9 * np.linalg.norm(ref)
    assert rel_eq.omega == -1.0


def test_monodromy_triangle_generic():
    tri = eq.normalize_period(eq.make_triangle(1.0, 2.0, 3.0, 1.0))
    rep = eq.monodromy(tri)
    assert rep.kernel_dim == 3
    assert rep.nondegenerate


def test_monodromy_triangle_sumsq_degenerate():
    tri = eq.normalize_period(eq.make_triangle(1.0, 1.0, 1.0, 1.0))
    rep = eq.monodromy(tri)
    assert rep.kernel_dim == 5
    assert not rep.nondegenerate


def test_L_zero_triangle_jordan_structure():
    """At L = 0 the extra multiplier-1 modes are generalized eigenvectors.

    The constant rotating-frame generator B acquires a single 4x4 nilpotent
    Jordan block at eigenvalue 0 (ranks of B, B^2, B^3 drop by one each),
    so the space of genuinely periodic solutions of the linearized system
    stays three-dimensional and the SVD kernel count remains 3.
    """
    tri = eq.normalize_period(eq.make_triangle(1.0, 1.0, -0.5, 1.0))
    B = eq.rotating_generator(tri)

    def numerical_nullity(A):
        sv = np.linalg.svd(A, compute_uv=False)
        return int(np.sum(sv < 1e-8 * sv[0]))

    assert numerical_nullity(B) == 1
    assert numerical_nullity(B @ B) == 2
    assert numerical_nullity(B @ B @ B) == 3

    rep = eq.monodromy(tri)
    assert rep.kernel_dim == 3  # geometric multiplicity only


def test_triangle_conditions_arithmetic():
    ok = eq.triangle_conditions(VortexSystem([1.0, 2.0, 3.0]))
    assert ok.predicted_nondegenerate
    assert ok.L == pytest.approx(11.0)
    assert ok.sumsq == pytest.approx(14.0)

    l_zero = eq.triangle_conditions(VortexSystem([1.0, 1.0, -0.5]))
    assert not l_zero.L_ok
    assert not l_zero.predicted_nondegenerate

    equal = eq.triangle_conditions(VortexSystem([1.0, 1.0, 1.0]))
    assert not equal.L_neq_sumsq
    assert not equal.predicted_nondegenerate

    with pytest.raises(ValueError):
        eq.triangle_conditions(VortexSystem([0.0, 1.0, 1.0]))


@pytest.mark.parametrize("gammas", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
def test_triangle_conditions_refuse_other_counts(gammas):
    with pytest.raises(ValueError, match=f"a triangle has 3 vortices, "
                                         f"got {len(gammas)}"):
        eq.triangle_conditions(VortexSystem(gammas))


def _flags(cond):
    return cond.gamma_ok, cond.L_ok, cond.L_neq_sumsq


@settings(max_examples=300, deadline=None)
@given(g=st.tuples(*3 * [st.integers(-9, 9).filter(bool)]),
       k=st.floats(-300.0, 300.0))
def test_triangle_conditions_are_free_of_scale(g, k):
    """gamma -> c gamma only rescales time, so no condition moves for c in
    10^[-300, 300], where L and sumsq themselves under- or overflow.  At
    c = 1 the integer vorticities make Gamma, L and sumsq - L integers:
    each condition is exactly 0 or at least 1 from it."""
    c = 10.0**k
    assert _flags(eq.triangle_conditions(VortexSystem([c * x for x in g]))) \
        == _flags(eq.triangle_conditions(VortexSystem(g)))


def test_monodromy_det_one():
    tri = eq.normalize_period(eq.make_triangle(1.0, 2.0, 3.0, 1.0))
    rep = eq.monodromy(tri)
    # det expm(2pi B) = exp(2pi tr B), and tr B = 0
    assert np.linalg.det(_monodromy_matrix(rep)) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the verdict read off B

def _draw(rng):
    """A pair or triangle by the certification benchmark's rule: vorticities
    from [-2, 2], and Gamma, L, L - sum(g^2) and each gamma at least 0.1
    from zero (L > 0.1 for a triangle), with size from [0.5, 2]."""
    n = int(rng.integers(2, 4))
    while True:
        g = rng.uniform(-2.0, 2.0, n)
        L = g[0] * g[1] + (g[2] * (g[0] + g[1]) if n == 3 else 0.0)
        keys = [abs(g.sum()), *np.abs(g)] + (
            [L, abs(L - (g**2).sum())] if n == 3 else [])
        if min(keys) > 0.1:
            size = rng.uniform(0.5, 2.0)
            return (eq.make_pair(*g, size) if n == 2 else
                    eq.make_triangle(*g, size))


def _multiplier_gap(a, b):
    """Largest distance between the multisets a and b, nearest first."""
    b, gap = list(b), 0.0
    for x in a:
        j = int(np.argmin(np.abs(x - np.array(b))))
        gap = max(gap, abs(x - b.pop(j)))
    return gap


def _jordan_kappa(B):
    """kappa = |y| |v1| of the 4x4 nilpotent Jordan block of B: a chain
    B v4 = v3, B v3 = v2, B v2 = v1, B v1 = 0 with v4 in ker B^4, and the
    left null vector y of B scaled so that y.v4 = 1.  Another chain
    changes v4 by a factor t and multiples of v1..v3, so v1 by t and y by
    1/t: kappa depends on B alone."""
    null4 = np.linalg.svd(np.linalg.matrix_power(B, 4))[2][-4:].T
    v4 = null4 @ np.linalg.svd(np.linalg.matrix_power(B, 3) @ null4)[2][0]
    v1 = np.linalg.matrix_power(B, 3) @ v4
    y = np.linalg.svd(B)[0][:, -1]
    return np.linalg.norm(y) * np.linalg.norm(v1) / abs(y @ v4)


def _cluster_at_one(multipliers, rho):
    """The six multipliers within 0.05 of 1 have mean 1 to 1e-12, and
    each lies within rho of 1."""
    near = multipliers[np.abs(multipliers - 1.0) < 0.05]
    return (near.size == 6 and abs(near.mean() - 1.0) <= 1e-12
            and np.abs(near - 1.0).max() <= rho)


def test_multipliers_match_eigvals_of_W():
    """exp(2 pi lambda(B)) against eigvals(expm(2 pi B)).  Both sides are
    perturbed where B has a Jordan block: the 2x2 phase/scaling block of
    every equilibrium (about 4e-6 measured over 2000 draws).

    At L = 0 the triangle's B has one 4x4 nilpotent block (phase, scaling
    and the merged shape pair) and the translations +-i, so each side has
    six multipliers at 1, and the two sides' splittings of the block need
    not line up.  What the mathematics fixes on each side:
    (a) the cluster mean is the trace of the spectral projector times the
        matrix, over 6, which is well-conditioned: 1 to 1e-12;
    (b) eig returns the exact eigenvalues of A + E, |E|_2 <= n eps |A|_2
        (backward stability, n = 6).  Where A is upper triangular on a
        Jordan chain with superdiagonal s, the eigenvalues split off the
        4x4 block solve mu^4 = s^3 y^H E v1 to first order (Lidskii), so
        |mu| <= (s^3 kappa |E|_2)^(1/4), kappa from ``_jordan_kappa``.
        For B, s = 1 and |lambda| <= rho_B = (kappa n eps |B|_2)^(1/4), so
        |exp(2 pi lambda) - 1| <= expm1(2 pi rho_B).  On the same chain
        expm(2 pi B) is I + 2 pi N + ..., so s = 2 pi, and E holds eig's
        backward error and expm's rounding of W, each n eps |W|_2.
    With kappa = 4 sqrt(2), |B|_2 = 2.66 and |W|_2 = 248 the bounds are
    2.4e-3 and 5.5e-3; measured 7.8e-4 and 1.8e-3."""
    rng = np.random.default_rng(15)
    for _ in range(200):
        rep = eq.monodromy(eq.normalize_period(_draw(rng)))
        assert rep.nondegenerate
        assert _multiplier_gap(rep.multipliers,
                               np.linalg.eigvals(_monodromy_matrix(rep))) <= 1e-5
    zero_l = eq.monodromy(eq.normalize_period(eq.make_triangle(1.0, 1.0, -0.5, 1.0)))
    B, W = zero_l.generator, _monodromy_matrix(zero_l)
    n, eps, kappa = B.shape[0], np.finfo(float).eps, _jordan_kappa(B)
    rho_b = np.expm1(2 * np.pi * (kappa * n * eps * np.linalg.norm(B, 2)) ** 0.25)
    rho_w = ((2 * np.pi) ** 3 * kappa * 2 * n * eps * np.linalg.norm(W, 2)) ** 0.25
    assert _cluster_at_one(zero_l.multipliers, rho_b)
    assert _cluster_at_one(np.linalg.eigvals(W), rho_w)
    # a relative error of 1e-9 in every multiplier moves the mean past 1e-12
    assert not _cluster_at_one(zero_l.multipliers * (1 + 1e-9), rho_b)


@pytest.mark.parametrize("g", [(1.0, 1.0, -1.2), (1.0, 1.0, -1.5),
                               (1.0, 1.0, -1.8), (2.0, 1.0, -2.5)])
def test_unstable_triangle_kernel_is_three(g):
    """L < 0, so the shape pair lambda^2 = -3L/Gamma^2 is real and W grows
    like e^{2 pi lambda}.  The triangle conditions hold, so ker(W - I) is
    the two translations and the phase: 3."""
    assert eq.triangle_conditions(VortexSystem(g)).predicted_nondegenerate
    rep = eq.monodromy(eq.normalize_period(eq.make_triangle(*g, 1.0)))
    assert np.abs(rep.multipliers).max() > 1e3
    assert rep.kernel_dim == 3 and rep.nondegenerate


@pytest.mark.parametrize("n", range(2, 21))
def test_thomson_kernel_matches_eigenvector_rank(n):
    """ker(W - I) is spanned by the eigenvectors of B for eigenvalues in iZ;
    count it a second way, as the rank of those eigenvectors."""
    rep = eq.monodromy(eq.normalize_period(eq.make_thomson(n, 1.0, 1.0)))
    lam, vecs = np.linalg.eig(rep.generator)
    on_iz = vecs[:, np.abs(lam - 1j * np.rint(lam.imag)) < 1e-6]
    sv = np.linalg.svd(on_iz, compute_uv=False)
    assert rep.kernel_dim == np.count_nonzero(sv > 1e-6 * sv[0])
    if n >= 8:
        assert rep.kernel_dim == 5


def test_overflowing_equilibria_are_rejected():
    with pytest.raises(ValueError, match="residual under- or overflows"):
        eq.residual_HS0(eq.make_pair(1e300, 1e300, 1.0))
    with pytest.raises(ValueError, match="generator B overflows"):
        eq.monodromy(eq.normalize_period(eq.make_pair(1e200, 1e200, 1.0)))
    with pytest.raises(ValueError, match="angular velocity overflows"):
        eq.make_pair(1.0, 2.0, 1e-300)
    with pytest.raises(ValueError, match="2 gamma does not overflow"):
        VortexSystem([1e308, 1.0])
