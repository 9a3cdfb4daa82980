"""Energy functions, domain models, and Robin critical points."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nvortex import cli, core, dynamics as dyn, equilibria as eq, loops as lp
from nvortex import reduction as rd
from nvortex.core import (HalfPlane, Plane, SyntheticQuadratic,
                          TranslatedDomain, UnitDisk, VortexSystem)
from nvortex.errors import (BoundaryError, CollisionError, DegenerateFrame,
                            DomainError, LeftDomain, NoConvergence,
                            ZeroTotalVorticity)

RNG = np.random.default_rng(12345)


def fd_grad(f, x, h=1e-5):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def random_disk_config(n, rng=RNG, radius=0.7):
    while True:
        z = rng.uniform(-radius, radius, size=2 * n)
        if core.min_separation(z) > 0.15 and np.all(
                np.linalg.norm(z.reshape(-1, 2), axis=1) < radius):
            return z


# ---------------------------------------------------------------------------
# H0

def test_H0_pair_value():
    sys2 = VortexSystem([1.0, 1.0])
    z = np.array([1.0, 0.0, -1.0, 0.0])
    assert core.eval_H0(sys2, z) == pytest.approx(-np.log(2.0) / np.pi,
                                                  rel=1e-12)


def test_H0_unit_separation_vanishes():
    sys2 = VortexSystem([1.0, -1.0])
    assert core.eval_H0(sys2, np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_H0_equilateral_unit_side():
    z = np.array([0.0, 0.0, 1.0, 0.0, 0.5, np.sqrt(3) / 2])
    assert abs(core.eval_H0(VortexSystem([1.0, 1.0, 1.0]), z)) < 1e-14


def test_H0_collision_raises():
    sys2 = VortexSystem([1.0, 1.0])
    with pytest.raises(CollisionError):
        core.eval_H0(sys2, np.array([0.0, 0.0, 0.0, 1e-13]))


@pytest.mark.parametrize("gammas", [[], [[1.0, 2.0]]], ids=["empty", "matrix"])
def test_vortex_system_needs_a_nonempty_vector(gammas):
    with pytest.raises(ValueError, match="gammas must be a nonempty vector"):
        VortexSystem(gammas)


def test_odd_configuration_length_rejected():
    """Named by its own message: without the check, the reshape to points
    raises a ValueError of numpy's."""
    with pytest.raises(ValueError, match="configuration length must be even"):
        core.min_separation(np.zeros(3))


def test_grad_H0_pair_block():
    sys2 = VortexSystem([1.0, 1.0])
    z = np.array([1.0, 0.0, -1.0, 0.0])
    g = core.grad_H0(sys2, z)
    assert g[:2] == pytest.approx([-1.0 / (2 * np.pi), 0.0], abs=1e-14)


def test_grad_H0_matches_fd():
    sys3 = VortexSystem([1.0, 2.0, -0.7])
    z = random_disk_config(3)
    g = core.grad_H0(sys3, z)
    fd = fd_grad(lambda x: core.eval_H0(sys3, x), z)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5


def _exact_pair_sums(gammas, z, dz):
    """sum_j G_j [(d + delta)/|d + delta|^2 - d/|d|^2] per vortex k, in exact
    rational arithmetic on the float inputs, with d = z_k - z_j and
    delta = dz_k - dz_j; and the scale sum_j |G_j| |delta|/(|d||d + delta|)
    of its terms, each of which has exactly that size."""
    p = [[Fraction(x) for x in row] for row in np.reshape(z, (-1, 2))]
    q = [[Fraction(x) for x in row] for row in np.reshape(dz, (-1, 2))]
    sums, scales = np.zeros((len(p), 2)), np.zeros(len(p))
    for k in range(len(p)):
        acc = [Fraction(0), Fraction(0)]
        for j in range(len(p)):
            if j == k:
                continue
            d = [p[k][a] - p[j][a] for a in (0, 1)]
            e = [d[a] + q[k][a] - q[j][a] for a in (0, 1)]
            nd, ne = d[0] ** 2 + d[1] ** 2, e[0] ** 2 + e[1] ** 2
            g = Fraction(gammas[j])
            acc = [acc[a] + g * (e[a] / ne - d[a] / nd) for a in (0, 1)]
            delta = float((e[0] - d[0]) ** 2 + (e[1] - d[1]) ** 2) ** 0.5
            scales[k] += abs(gammas[j]) * delta / float(nd * ne) ** 0.5
        sums[k] = [float(a) for a in acc]
    return sums, scales


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       size=st.floats(-12, 0))
def test_grad_H0_increment_is_exact_to_rounding(n, seed, size):
    """The increment of grad H0 from z to z + dz, for random vorticities,
    separated z and |dz| = 10^size from 1e-12 to O(1), equals the exact
    difference block by block to 64 eps of the size of its terms, a scale
    proportional to |delta|: it keeps its digits where the difference of
    two grad_H0 calls, which agrees with it to that difference's own
    rounding, loses them."""
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
    sys = VortexSystem(gammas)
    z = rng.uniform(-1.0, 1.0, 2 * n)
    dz = rng.normal(size=2 * n)
    dz *= 10.0 ** size / np.linalg.norm(dz)
    assume(core.min_separation(z) > 0.2 and core.min_separation(z + dz) > 0.05)
    got = core.grad_H0_increment(sys, z, dz).reshape(n, 2)
    sums, scales = _exact_pair_sums(gammas, z, dz)
    col = np.abs(sys._h0_col)
    exact = sys._h0_col * sums
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - exact) <= 64 * eps * col * scales[:, None])
    # the difference of two calls errs by eps times its O(1) terms
    diff = (core.grad_H0(sys, z + dz) - core.grad_H0(sys, z)).reshape(n, 2)
    d = z.reshape(-1, 1, 2) - z.reshape(1, -1, 2)
    big = np.abs(gammas) @ (1 / (np.linalg.norm(d, axis=-1) + np.eye(n)))
    spread = 1 + np.abs(z).max() / core.min_separation(z + dz)
    assert np.all(np.abs(got - diff) <= 64 * eps * col * (big * spread)[:, None])


def test_grad_H0_increment_broadcasts_and_guards_collisions():
    """A batch of increments about one z, as the solver's sample stack,
    equals the increments one by one; z + dz within COLLISION_TOL raises."""
    sys = VortexSystem([1.0, 2.0, -0.5])
    z = np.array([0.3, 0.0, -0.2, 0.1, 0.0, -0.4])
    dz = 1e-3 * RNG.normal(size=(5, 6))
    batch = core.grad_H0_increment(sys, z, dz)
    assert batch.shape == (5, 6)
    for row, step in zip(batch, dz):
        assert np.array_equal(row, core.grad_H0_increment(sys, z, step))
    merge = np.zeros(6)
    merge[0:2] = z[2:4] - z[0:2]
    with pytest.raises(CollisionError):
        core.grad_H0_increment(sys, z, merge)


def test_hess_H0_matches_fd_and_symmetric():
    sys3 = VortexSystem([1.0, 2.0, -0.7])
    z = random_disk_config(3)
    H = core.hess_H0(sys3, z)
    assert np.allclose(H, H.T)
    fd = np.column_stack([
        fd_grad(lambda x: core.grad_H0(sys3, x)[i], z) for i in range(z.size)])
    assert np.linalg.norm(H - fd) / np.linalg.norm(fd) < 1e-5


def test_H0_translation_rotation_invariance():
    sys3 = VortexSystem([1.0, 2.0, -0.7])
    z = random_disk_config(3)
    shifted = (z.reshape(-1, 2) + np.array([0.3, -0.8])).ravel()
    theta = 0.9
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    rotated = (z.reshape(-1, 2) @ R.T).ravel()
    base = core.eval_H0(sys3, z)
    assert abs(core.eval_H0(sys3, shifted) - base) < 1e-12
    assert abs(core.eval_H0(sys3, rotated) - base) < 1e-12


def test_velocity_matches_rigid_rotation():
    sys2 = VortexSystem([1.0, 1.0])
    z = np.array([1.0, 0.0, -1.0, 0.0])
    rhs = core.vortex_rhs(sys2, Plane(), z)
    omega = 1.0 / (2 * np.pi)
    expect = -omega * (z.reshape(-1, 2) @ core.J2.T).ravel()
    assert rhs[:2] == pytest.approx([0.0, 1.0 / (2 * np.pi)], abs=1e-14)
    assert rhs == pytest.approx(expect, abs=1e-14)


def test_cached_arrays_are_built_once_and_read_only():
    """The identity, the +inf diagonal, J_N and the per-system columns are
    built once (per n or per system), read-only and equal to fresh ones."""
    for n in range(1, 7):
        assert core._eye(n) is core._eye(n)
        assert core._inf_diagonal(n) is core._inf_diagonal(n)
        gammas = RNG.uniform(0.2, 2.0, n) * RNG.choice([-1.0, 1.0], n)
        vsys = VortexSystem(gammas)
        assert vsys.j_n() is VortexSystem(gammas[::-1]).j_n()
        for got, ref in [(core._eye(n), np.eye(n)),
                         (core._inf_diagonal(n), np.diag(np.full(n, np.inf))),
                         (vsys.j_n(), np.kron(np.eye(n), core.J2)),
                         (vsys.gammas, gammas),
                         (vsys._h0_col, -(gammas[:, None] / np.pi)),
                         (vsys._f_col, 2.0 * gammas[:, None])]:
            assert np.array_equal(got, ref) and not got.flags.writeable
        # the system keeps its own copy: changing the input changes nothing
        gammas[0] = 7.0
        assert vsys.gammas[0] != 7.0 and vsys._f_col[0, 0] != 14.0


# ---------------------------------------------------------------------------
# domains and g

@pytest.mark.parametrize("domain", [UnitDisk(), HalfPlane(),
                                    SyntheticQuadratic(np.eye(2))])
def test_g_symmetry_random(domain):
    rng = np.random.default_rng(7)
    if domain.variant == "halfplane":
        w = rng.uniform([-2, 0.05], [2, 3], size=(10_000, 2))
        z = rng.uniform([-2, 0.05], [2, 3], size=(10_000, 2))
    else:
        w = rng.uniform(-0.65, 0.65, size=(10_000, 2))
        z = rng.uniform(-0.65, 0.65, size=(10_000, 2))
    assert np.max(np.abs(domain.g(w, z) - domain.g(z, w))) < 1e-12


@pytest.mark.parametrize("domain,w,z", [
    (UnitDisk(), np.array([0.3, -0.2]), np.array([-0.4, 0.1])),
    (HalfPlane(), np.array([0.3, 0.8]), np.array([-0.4, 1.1])),
    (SyntheticQuadratic(np.array([[1.0, 0.3], [0.3, 2.0]])),
     np.array([0.3, -0.2]), np.array([-0.4, 0.1])),
])
def test_g_derivatives_match_fd(domain, w, z):
    gw = domain.g_w(w, z)
    fd = fd_grad(lambda x: domain.g(x, z), w)
    assert np.linalg.norm(gw - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))
    gww = domain.g_ww(w, z)
    fd2 = np.column_stack([
        fd_grad(lambda x: domain.g_w(x, z)[i], w) for i in range(2)])
    assert np.linalg.norm(gww - fd2) < 1e-6 * max(1.0, np.linalg.norm(fd2))
    gwz = domain.g_wz(w, z)
    fdm = np.column_stack([
        fd_grad(lambda y: domain.g_w(w, y)[i], z) for i in range(2)])
    assert np.linalg.norm(gwz - fdm.T) < 1e-6 * max(1.0, np.linalg.norm(fdm))


def test_disk_h_closed_forms():
    disk = UnitDisk()
    assert core.eval_h(disk, np.zeros(2)) == 0.0
    assert np.allclose(core.grad_h(disk, np.zeros(2)), 0.0)
    assert np.allclose(core.hess_h(disk, np.zeros(2)),
                       np.eye(2) / np.pi, atol=1e-12)
    p = np.array([0.5, 0.0])
    assert core.eval_h(disk, p) == pytest.approx(
        -np.log(0.75) / (2 * np.pi), rel=1e-12)


def test_halfplane_h_gradient():
    hp = HalfPlane()
    for y in (0.3, 1.0, 2.5):
        g = core.grad_h(hp, np.array([0.0, y]))
        assert g == pytest.approx([0.0, -1.0 / (2 * np.pi * y)], rel=1e-12)


def test_h_chain_rule_from_g():
    disk = UnitDisk()
    p = np.array([0.25, -0.35])
    assert np.allclose(core.grad_h(disk, p), 2 * disk.g_w(p, p), atol=1e-12)
    fd = fd_grad(lambda x: core.eval_h(disk, x), p)
    assert np.linalg.norm(core.grad_h(disk, p) - fd) < 1e-6


_BELOW_ONE = np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("domain, outside, near, inside", [
    (Plane(), [], [], [[1e300, -1e300]]),
    (SyntheticQuadratic(np.eye(2)), [], [], [[-1e100, 1e100]]),
    (UnitDisk(), [[1.0, 0.0], [0.0, -1.0], [2.0, 0.0], [np.nan, 0.0]],
     [[_BELOW_ONE, 0.0]], [[0.0, 0.0]]),
    (HalfPlane(), [[3.0, 0.0], [0.0, -1.0], [0.0, np.nan]],
     [[-1e300, 5e-324]], [[0.0, 1.0]]),
    (TranslatedDomain(UnitDisk(), [0.5, 0.0]),
     [[0.5, 0.0], [-1.5, 0.0], [np.nan, np.nan]],
     [[0.5 - 2.0**-52, 0.0]], [[-0.5, 0.0]]),
], ids=["plane", "quadratic", "disk", "halfplane", "translated"])
def test_membership_is_a_positive_boundary_gap(domain, outside, near, inside):
    """Points on the boundary and NaN points are outside; points just inside
    are inside, and too close to the boundary for the Robin function."""
    pts = np.array(outside + near + inside).reshape(-1, 2)
    assert domain.contains(pts).tolist() == (
        [False] * len(outside) + [True] * (len(near) + len(inside)))
    for p in outside:
        with pytest.raises(DomainError) as info:
            core.eval_h(domain, p)
        assert info.type is DomainError
    for p in near:
        with pytest.raises(BoundaryError):
            core.eval_h(domain, p)
    for p in inside:
        assert np.isfinite(core.eval_h(domain, p))


def test_h_boundary_and_domain_errors():
    disk = UnitDisk()
    with pytest.raises(DomainError):
        core.eval_h(disk, np.array([1.5, 0.0]))
    with pytest.raises(BoundaryError):
        core.eval_h(disk, np.array([1.0 - 1e-16, 0.0]))


# ---------------------------------------------------------------------------
# F

def test_F_plane_zero():
    sys2 = VortexSystem([1.0, 1.0])
    z = np.array([0.3, 0.0, -0.3, 0.1])
    assert core.eval_F(sys2, Plane(), z) == 0.0
    assert np.allclose(core.grad_F(sys2, Plane(), z), 0.0)
    assert np.allclose(core.hess_F(sys2, Plane(), z), 0.0)


def test_F_disk_single_vortex_origin():
    assert core.eval_F(VortexSystem([1.0]), UnitDisk(), np.zeros(2)) == 0.0


def test_F_quadratic_example():
    dom = SyntheticQuadratic(np.eye(2))
    z = np.array([1.0, 0.0, 0.0, 1.0])
    assert core.eval_F(VortexSystem([1.0, 1.0]), dom, z) == pytest.approx(
        2.0, rel=1e-14)


def test_grad_hess_F_match_fd():
    sys3 = VortexSystem([1.0, -0.5, 2.0])
    disk = UnitDisk()
    z = random_disk_config(3, radius=0.5)
    g = core.grad_F(sys3, disk, z)
    fd = fd_grad(lambda x: core.eval_F(sys3, disk, x), z)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5
    H = core.hess_F(sys3, disk, z)
    assert np.allclose(H, H.T)
    fd2 = np.column_stack([
        fd_grad(lambda x: core.grad_F(sys3, disk, x)[i], z)
        for i in range(z.size)])
    assert np.linalg.norm(H - fd2) / np.linalg.norm(fd2) < 1e-5


def test_hess_F_origin_kron_structure():
    """hess_F at the zero configuration is (G_j G_k) x h''(0): the full
    tensor-product structure, coefficient 1 (single-vortex chain rule)."""
    disk = UnitDisk()
    for gammas in ([1.0], [1.0, 1.0], [1.0, -0.5, 2.0]):
        sys_ = VortexSystem(gammas)
        H = core.hess_F(sys_, disk, np.zeros(2 * sys_.n))
        kron = np.kron(np.outer(sys_.gammas, sys_.gammas),
                       core.hess_h(disk, np.zeros(2)))
        assert np.linalg.norm(H - kron) < 1e-8


def test_F_domain_error():
    with pytest.raises(DomainError):
        core.eval_F(VortexSystem([1.0, 1.0]), UnitDisk(),
                    np.array([0.0, 0.0, 1.2, 0.0]))


# ---------------------------------------------------------------------------
# H_r

def test_Hr_plane_equals_H0():
    sys2 = VortexSystem([1.0, 1.0])
    z = np.array([0.3, 0.0, -0.3, 0.1])
    assert core.eval_Hr(sys2, Plane(), 0.7, z) == core.eval_H0(sys2, z)


def test_Hr_composition():
    sys2 = VortexSystem([1.0, 1.0])
    disk = UnitDisk()
    u = np.array([0.1, 0.0, -0.1, 0.0])
    r = 0.5
    expect = (core.eval_H0(sys2, u) - core.eval_F(sys2, disk, r * u)
              + core.eval_F(sys2, disk, np.zeros(4)))
    assert core.eval_Hr(sys2, disk, r, u) == pytest.approx(expect, rel=1e-14)


def test_Hr_in_the_half_plane_leaves_out_F_at_the_origin():
    # the origin lies on the half plane's boundary, where F is undefined
    sys2 = VortexSystem([1.0, -0.5])
    u = np.array([0.1, 0.5, -0.1, 0.5])
    expect = core.eval_H0(sys2, u) - core.eval_F(sys2, HalfPlane(), 0.3 * u)
    assert core.eval_Hr(sys2, HalfPlane(), 0.3, u) == expect


def test_Hr_limit_linear_in_r():
    sys2 = VortexSystem([1.0, -0.5])
    disk = UnitDisk()
    u = np.array([0.4, 0.1, -0.3, -0.2])
    h0 = core.eval_H0(sys2, u)
    diffs = [abs(core.eval_Hr(sys2, disk, r, u) - h0)
             for r in (0.2, 0.1, 0.05)]
    assert diffs[0] < 0.5
    assert all(d2 < 0.7 * d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_grad_Hr_matches_fd():
    sys2 = VortexSystem([1.0, -0.5])
    disk = UnitDisk()
    u = np.array([0.4, 0.1, -0.3, -0.2])
    g = core.grad_Hr(sys2, disk, 0.3, u)
    fd = fd_grad(lambda x: core.eval_Hr(sys2, disk, 0.3, x), u)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5


@pytest.mark.parametrize("stack", [[0.0], [0.0, 0.1]])
def test_grad_Hr_stack_with_r_zero_in_half_plane(stack):
    """r = 0 drops the F term, alone or in a stack: F at 0 * u lies on the
    half plane's boundary, so a stack that evaluated it there would refuse
    what each of its r alone accepts."""
    sys2, domain = VortexSystem([1.0, -0.5]), HalfPlane()
    u = np.array([0.4, 0.5, -0.3, 0.2])
    r = np.array(stack)
    alone = [core.grad_Hr(sys2, domain, float(x), u) for x in r]
    assert np.array_equal(core.grad_Hr(sys2, domain, r, np.stack([u] * len(r))),
                          alone)


def test_rhs_tangent_to_energy_level():
    sys3 = VortexSystem([1.0, 2.0, -0.7])
    disk = UnitDisk()
    z = random_disk_config(3, radius=0.5)
    rhs = core.vortex_rhs(sys3, disk, z, r=1.0)
    grad = core.grad_H0(sys3, z) - core.grad_F(sys3, disk, z)
    assert abs(grad @ rhs) < 1e-12 * np.linalg.norm(grad) * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# critical points of h

def test_critical_point_disk():
    crit = core.find_critical_point_h(UnitDisk(), np.array([0.3, -0.2]))
    assert np.linalg.norm(crit.point) < 1e-10
    assert crit.nondegenerate
    assert np.allclose(crit.hessian, np.eye(2) / np.pi, atol=1e-10)


def test_critical_points_compare_by_identity():
    a, b = (core.find_critical_point_h(UnitDisk(), np.array([0.3, -0.2]))
            for _ in range(2))
    assert a == a and a != b and len({a, a, b}) == 2


def test_critical_point_disk_trivial_guess():
    crit = core.find_critical_point_h(UnitDisk(), np.zeros(2))
    assert np.linalg.norm(crit.point) == 0.0


def test_critical_point_halfplane_fails():
    with pytest.raises((NoConvergence, LeftDomain)):
        core.find_critical_point_h(HalfPlane(), np.array([0.0, 1.0]))


def test_critical_point_newton_kept_outside_raises_left_domain():
    """Newton's step is halved until it lands inside; when 20 halvings all
    land outside, the search ends with LeftDomain.  This disk holds only
    the guess, which is not critical (h is least at 0)."""
    guess = np.array([0.3, -0.2])

    class OnlyTheGuess(UnitDisk):
        def contains(self, p):
            return np.all(np.asarray(p) == guess, axis=-1)

    with pytest.raises(LeftDomain, match="left the domain despite damping"):
        core.find_critical_point_h(OnlyTheGuess(), guess)


def test_critical_point_quadratic():
    crit = core.find_critical_point_h(SyntheticQuadratic(np.eye(2)),
                                      np.array([0.7, -0.4]))
    assert np.linalg.norm(crit.point) < 1e-12
    # h(p) = p.A p so the Hessian is 2A
    assert np.allclose(crit.hessian, 2 * np.eye(2), atol=1e-10)


def test_critical_point_nondegeneracy_is_scale_aware():
    # h'' = 2e-6 I has det 4e-12, yet it is as nondegenerate as 2 I
    small = core.find_critical_point_h(SyntheticQuadratic(1e-6 * np.eye(2)),
                                       np.array([0.7, -0.4]))
    assert np.linalg.norm(small.point) < 1e-12
    assert small.nondegenerate
    # rank one: every point of the line p_x = 0 is critical
    rank_one = core.find_critical_point_h(
        SyntheticQuadratic(np.diag([1.0, 0.0])), np.array([0.0, 0.5]))
    assert not rank_one.nondegenerate
    zero = core.find_critical_point_h(SyntheticQuadratic(np.zeros((2, 2))),
                                      np.array([0.3, 0.1]))
    assert not zero.nondegenerate


@pytest.mark.parametrize("domain", [UnitDisk(), HalfPlane(),
                                    SyntheticQuadratic()])
def test_critical_point_rejects_non_finite_guess(domain):
    with pytest.raises(ValueError, match="finite.*nan"):
        core.find_critical_point_h(domain, np.array([np.nan, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vortex_system_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite.*(nan|inf)"):
        VortexSystem([1.0, bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hamiltonians_reject_non_finite_configuration(bad):
    sys2 = VortexSystem([1.0, 1.0])
    z2 = np.array([0.0, 0.0, bad, 0.0])
    sys3 = VortexSystem([1.0, 1.0, 1.0])
    z3 = np.array([0.1, 0.2, -0.3, 0.1, 0.0, bad])
    calls = [
        lambda: core.eval_H0(sys2, z2),
        lambda: core.eval_H0(sys3, z3),
        lambda: core.grad_H0(sys3, z3),
        lambda: core.hess_H0(sys3, z3),
        lambda: core.eval_F(sys3, UnitDisk(), z3),
        lambda: core.hess_F(sys3, Plane(), z3),
        lambda: core.eval_Hr(sys3, UnitDisk(), 0.1, z3),
        lambda: core.vortex_rhs(sys3, UnitDisk(), z3, r=1.0),
        lambda: core.vortex_rhs(sys3, Plane(), z3),
        lambda: core.min_separation(np.stack([z3 / 2, z3])),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite.*(nan|inf)"):
            call()


def test_hamiltonians_reject_overflowing_pair_distances():
    """Finite points 2e154 apart, |d|^2 = 4e308: a ValueError, not the
    inf and NaN of log(inf) and inf - inf; on a batch it names the sample."""
    sys2 = VortexSystem([1.0, 1.0])
    z = np.array([1e154, 0.0, -1e154, 0.0])
    calls = [
        lambda: core.eval_H0(sys2, z),
        lambda: core.grad_H0(sys2, z),
        lambda: core.grad_H0_increment(sys2, z, np.zeros(4)),
        lambda: core.grad_H0_increment(sys2, z / 2, z / 2),
        lambda: core.hess_H0(sys2, z),
        lambda: core.vortex_rhs(sys2, Plane(), z),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="pair distance overflows"):
            call()
    with pytest.raises(ValueError, match="overflows.* at sample 1"):
        core.grad_H0(sys2, np.stack([z / 2, z]))
    assert core.min_separation(z) == np.inf


def test_points_beyond_half_the_float_range_are_refused():
    """At (1e308, 0, -1e308, 0) the pair difference 2e308 overflows, so a
    coordinate beyond half the largest double is refused before any
    difference is formed: a ValueError naming it, and no RuntimeWarning
    (an error under this suite's settings)."""
    sys2 = VortexSystem([1.0, 1.0])
    z = np.array([1e308, 0.0, -1e308, 0.0])
    calls = [
        lambda: core.eval_H0(sys2, z),
        lambda: core.grad_H0(sys2, z),
        lambda: core.hess_H0(sys2, z),
        lambda: core.vortex_rhs(sys2, Plane(), z),
        lambda: core.min_separation(z),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"at most 8\.98847e\+307 in "
                           r"magnitude, .* got 1e\+308$"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quadratic_domain_rejects_non_finite_matrix(bad):
    with pytest.raises(ValueError, match="A must be"):
        SyntheticQuadratic(np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.filterwarnings("error")
def test_halfplane_field_next_to_the_boundary_raises():
    """At y = 1e-200 the image distance |w - Rz|^2 underflows to 0; both
    fields raise BoundaryError instead of returning NaN with a warning."""
    sys2 = VortexSystem([1.0, 1.0])
    with pytest.raises(BoundaryError, match="too close to the boundary"):
        core.vortex_rhs(sys2, HalfPlane(), [0.0, 1e-200, 1.0, 1e-200], r=1.0)
    for r in (3.8e-307, 1e-100):
        with pytest.raises(BoundaryError, match="too close to the boundary"):
            core.vortex_rhs(sys2, HalfPlane(), [0.0, 1.0, 1.0, 1.0], r=r)
    # a little further out the field is finite: each vortex's own image,
    # G_k^2 h(z_k) in F with h = -log(4 y^2)/4pi, drives it along the wall at
    # (1/G_k) G_k^2 / (2 pi y), and the other vortex and its image (a
    # distance 2y apart) cancel each other's vertical velocity up to O(y)
    y = 1e-70
    rhs = core.vortex_rhs(sys2, HalfPlane(), [0.0, y, 1.0, y], r=1.0)
    assert rhs == pytest.approx([1 / (2 * np.pi * y), 0.0] * 2, rel=1e-12,
                                abs=1e-12)


def test_vortex_system_value_semantics():
    a = VortexSystem([1.0, 1.0])
    assert a == VortexSystem(np.array([1.0, 1.0]))
    assert hash(a) == hash(VortexSystem([1, 1]))
    assert a != VortexSystem([1.0, 2.0])
    assert a != VortexSystem([1.0, 1.0, 1.0])
    assert a != (1.0, 1.0)
    table = {a: "pair", VortexSystem([1.0, 1.0, 1.0]): "thomson"}
    assert table[VortexSystem([1.0, 1.0])] == "pair"
    assert len({a, VortexSystem([1.0, 1.0]), VortexSystem([1.0, 2.0])}) == 2


def test_domain_serialization_roundtrip():
    for dom in (Plane(), UnitDisk(), HalfPlane(),
                SyntheticQuadratic(np.array([[1.0, 0.2], [0.2, 3.0]])),
                TranslatedDomain(SyntheticQuadratic([[1.0, 0.2], [0.2, 3.0]]),
                                 [0.5, -0.25])):
        clone = core.domain_from_spec(dom.variant, dom.params())
        w = np.array([0.2, 0.3])
        z = np.array([-0.1, 0.4])
        assert clone.g(w, z) == dom.g(w, z)


@pytest.mark.parametrize("variant, params, named", [
    ("annulus", {}, "unknown domain variant: 'annulus'"),
    ("disk+offset", {}, "offset must be one finite point, got None"),
    ("disk+offset", {"offset": [0.1, np.nan]}, "offset must be one finite"),
    ("disk+offset", {"offset": [0.1, 0.0, 0.0]}, "offset must be one finite"),
    ("torus+offset", {"offset": [0.1, 0.0]}, "unknown domain variant: 'torus'"),
    ("disk", {"offset": [0.5, 0.0]}, "the disk domain reads no params "
     "['offset']"),
    ("disk", {"a_matrix": [[1.0, 0.0], [0.0, 1.0]]}, "the disk domain reads "
     "no params ['a_matrix']"),
    ("plane", {"bogus": 1}, "the plane domain reads no params ['bogus']"),
    ("halfplane+offset", {"offset": [0.0, 0.5], "bogus": 1, "a_matrix": 1},
     "the halfplane domain reads no params ['a_matrix', 'bogus']"),
    ("quadratic", {"a_matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0, 0]},
     "the quadratic domain reads no params ['offset']"),
])
def test_domain_from_spec_rejects_what_no_domain_writes(variant, params,
                                                       named):
    """A spec is refused unless its variant reads every param it carries:
    a_matrix for quadratic, offset for a variant ending +offset."""
    with pytest.raises(ValueError, match=re.escape(named)):
        core.domain_from_spec(variant, params)


@pytest.mark.parametrize("gammas, total", [
    ((1e-15, 1e-15), 2e-15),
    ((1.0, 2.0, 3.0), 6.0),
    ((1.0, -1.0 + 2.0**-50), 2.0**-50),
    ((1.0, -1.0), None),
    ((1.0, -1.0 + 2.0**-52), None),
    ((0.1, 0.2, -0.3), None),
    ((1.0, 1.0, -2.0), None),
], ids=["tiny-pair", "triangle", "above-bound", "zero", "below-bound",
        "decimal-triangle", "zero-triangle"])
def test_zero_total_rule(gammas, total):
    """Gamma counts as zero within (N-1) eps sum|gamma_k| of 0, the rounding
    error of its own sum: 0.1 + 0.2 - 0.3 = 5.6e-17 is within 2.7e-16, and
    a (1, -1 + 2^-52) pair within 4.4e-16, while (1e-15, 1e-15), small as it
    is, lies far above its bound 4.4e-31."""
    system = VortexSystem(gammas)
    if total is None:
        with pytest.raises(ZeroTotalVorticity, match="^zero-sum vorticities: "
                           "a rotating seed needs a nonzero total"):
            system.nonzero_total()
    else:
        assert system.nonzero_total() == total


def _total_and_bound(gammas):
    """The total and its rounding bound as the rule first computed them."""
    with np.errstate(all="ignore"):
        total = gammas.sum()
    return total, np.sum((gammas.size - 1) * np.finfo(float).eps * np.abs(gammas))


def _nonzero_total_reference(gammas):
    """The zero-total rule as first written, with np.sum at each call."""
    total = core.finite("the total vorticity overflows", gammas.sum)
    bound = _total_and_bound(gammas)[1]
    if abs(total) <= bound:
        raise ZeroTotalVorticity(
            f"zero-sum vorticities: a rotating seed needs a nonzero total, "
            f"got {total:.3g}, within the rounding bound {bound:.3g} of 0")
    return float(total)


_VORTICITY = st.floats(-8e307, 8e307, allow_nan=False).filter(lambda g: g != 0)


@settings(max_examples=200, deadline=None)
@given(gammas=st.lists(_VORTICITY, min_size=1, max_size=12),
       close=st.sampled_from([None, 0.0, 1.0, -1.0, 2.0**-52, 0.5]))
def test_zero_total_rule_matches_its_reference(gammas, close):
    """nonzero_total, computed once with the system, gives the verdict, the
    value and the message of the rule evaluated at each call: on random
    vorticities, and on lists closed to a total near 0 by one more term;
    the stored total and bound are those numbers, bit for bit."""
    if close is not None and math.isfinite(sum(gammas)) and sum(gammas) != close:
        gammas = gammas + [close - sum(gammas)]
        assume(0 < abs(gammas[-1]) <= 8e307)
    system = VortexSystem(gammas)
    np.testing.assert_array_equal(system._total, _total_and_bound(system.gammas))

    def outcome(rule):
        try:
            return rule()
        except (ValueError, ZeroTotalVorticity) as exc:
            return type(exc), str(exc)
    assert outcome(system.nonzero_total) == outcome(
        lambda: _nonzero_total_reference(system.gammas))


def test_zero_total_rule_reports_an_overflowing_sum():
    """Three vorticities of 8e307 are each finite, but their sum is not."""
    with pytest.raises(ValueError, match="total vorticity overflows"):
        VortexSystem([8e307] * 3).nonzero_total()


# ---------------------------------------------------------------------------
# input rules: each has one owner in core, and every site that takes such an
# input meets the same bad values with the same error and message


def _cli(*argv):
    """Run one subcommand without main's catch, so its error propagates."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


_Z0 = np.array([0.3, 0.0, -0.3, 0.0])
_PAIR = VortexSystem([1.0, 1.0])


def _basis():
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    return rd.build_x_basis(pair, 4)


_POSITIVE_SITES = {
    "r_max": lambda v: rd.SolverParams(r_max=v),
    "separation": lambda v: eq.make_pair(1.0, 1.0, v),
    "side": lambda v: eq.make_triangle(1.0, 2.0, 3.0, v),
    "radius": lambda v: eq.make_thomson(4, 1.0, v),
    "--time": lambda v: _cli("simulate", "--z0=0.3,0,-0.3,0", f"--time={v}"),
    "--tol": lambda v: _cli("validate", "--orbit", "unread.json", f"--tol={v}"),
    "T": lambda v: dyn.integrate(_PAIR, Plane(), 0.0, _Z0, v),
    "rtol": lambda v: dyn.integrate(_PAIR, Plane(), 0.0, _Z0, 1.0, rtol=v),
    "atol": lambda v: dyn.integrate(_PAIR, Plane(), 0.0, _Z0, 1.0, atol=v),
    "r": lambda v: rd.unrescale(np.zeros(2), v, lp.constant_loop(_Z0, 1), 4,
                                UnitDisk()),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", _POSITIVE_SITES)
def test_finite_and_positive_rule_at_every_site(name, bad):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be finite and positive, got {bad}") + "$"):
        _POSITIVE_SITES[name](bad)


_R_SITES = {
    "eval_Hr": lambda v: core.eval_Hr(_PAIR, UnitDisk(), v, _Z0),
    "vortex_rhs": lambda v: core.vortex_rhs(_PAIR, UnitDisk(), _Z0, r=v),
    "grad_J_r": lambda v: rd.grad_J_r(_PAIR, UnitDisk(), v, _basis().Z),
    "assemble_L_r": lambda v: rd.assemble_L_r(UnitDisk(), v, _basis()),
    "integrate": lambda v: dyn.integrate(_PAIR, UnitDisk(), v, _Z0, 1.0),
    "simulate": lambda v: _cli("simulate", "--z0=0.3,0,-0.3,0", "--time=1",
                               f"--r={v}"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("site", _R_SITES)
def test_finite_and_nonnegative_r_rule_at_every_site(site, bad):
    name = "--r" if site == "simulate" else "r"
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be finite and nonnegative, got {bad}") + "$"):
        _R_SITES[site](bad)


_COUNT_SITES = [
    ("modes", 1, lambda k: rd.SolverParams(modes=k)),
    ("r_points", 2, lambda k: rd.SolverParams(r_points=k)),
    ("--samples", 2, lambda k: _cli("simulate", "--z0=0.3,0,-0.3,0",
                                    "--time=1", f"--samples={k}")),
    ("samples", 1, lambda k: rd.unrescale(
        np.zeros(2), 0.1, lp.constant_loop(_Z0, 1), k, UnitDisk())),
    ("n", 2, lambda k: eq.make_thomson(k, 1.0, 1.0)),
    ("len(t_eval)", 2, lambda k: dyn.integrate(
        _PAIR, Plane(), 0.0, _Z0, 1.0, t_eval=np.linspace(0.0, 1.0, k))),
]


@pytest.mark.parametrize("name, least, site", _COUNT_SITES,
                         ids=[name for name, _, _ in _COUNT_SITES])
def test_count_rule_at_every_site(name, least, site):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be at least {least}, got {least - 1}") + "$"):
        site(least - 1)


@pytest.mark.parametrize("name, least, site", [
    s for s in _COUNT_SITES if s[0] in ("modes", "r_points", "samples", "n")],
    ids=["modes", "r_points", "samples", "n"])
def test_count_must_be_an_integer(name, least, site):
    """A count is an integer: a float or a bool is refused with one message
    at each site, and a numpy integer is taken."""
    for bad in (least + 0.5, True):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an integer, got {bad}") + "$"):
            site(bad)
    site(np.int64(least))


def test_period_normalized_rule_at_every_site():
    """An omega 1e-6 off 1 is refused by the frame, the continuation that
    builds it and the Floquet check alike, with one error that is also a
    ValueError; normalize_period takes it to exactly 1."""
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    near = eq.RelativeEquilibrium(pair.sys, pair.z, 1.0 + 1e-6)
    sites = [
        lambda: lp.build_frame(near.z, near.omega, 4),
        lambda: rd.continue_path(near, UnitDisk(), np.zeros(2),
                                 rd.SolverParams(modes=4)),
        lambda: eq.monodromy(near),
    ]
    assert issubclass(DegenerateFrame, ValueError)
    for site in sites:
        with pytest.raises(DegenerateFrame, match="period-normalized.*call "
                           "normalize_period first"):
            site()
    assert eq.normalize_period(near).omega == 1.0
    assert eq.monodromy(eq.normalize_period(near)).nondegenerate
