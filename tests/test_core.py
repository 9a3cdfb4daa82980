"""Energy functions, domain models, and Robin critical points."""

import numpy as np
import pytest

from nvortex import core
from nvortex.core import (HalfPlane, Plane, SyntheticQuadratic,
                          TranslatedDomain, UnitDisk, VortexSystem)
from nvortex.errors import (BoundaryError, CollisionError, DomainError,
                            LeftDomain, NoConvergence)

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


def test_pair_indices_cached_and_read_only():
    """The pair indices, the identity, J_N and the per-system columns are
    built once (per n or per system), read-only and equal to fresh ones."""
    for n in range(1, 7):
        iu = core._pair_indices(n)
        assert core._pair_indices(n) is iu
        for got, ref in zip(iu, np.triu_indices(n, 1)):
            assert np.array_equal(got, ref) and not got.flags.writeable
        assert core._eye(n) is core._eye(n)
        gammas = RNG.uniform(0.2, 2.0, n) * RNG.choice([-1.0, 1.0], n)
        vsys = VortexSystem(gammas)
        assert vsys.j_n() is VortexSystem(gammas[::-1]).j_n()
        for got, ref in [(core._eye(n), np.eye(n)),
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


def test_rhs_tangent_to_energy_level():
    sys3 = VortexSystem([1.0, 2.0, -0.7])
    disk = UnitDisk()
    z = random_disk_config(3, radius=0.5)
    rhs = core.vortex_rhs(sys3, disk, z, physical=True)
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
        lambda: core.vortex_rhs(sys3, UnitDisk(), z3, physical=True),
        lambda: core.vortex_rhs(sys3, Plane(), z3),
        lambda: core.min_separation(np.stack([z3 / 2, z3])),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite.*(nan|inf)"):
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
        core.vortex_rhs(sys2, HalfPlane(), [0.0, 1e-200, 1.0, 1e-200],
                        physical=True)
    for r in (3.8e-307, 1e-100):
        with pytest.raises(BoundaryError, match="too close to the boundary"):
            core.vortex_rhs(sys2, HalfPlane(), [0.0, 1.0, 1.0, 1.0], r=r)
    # a little further out the field is finite: each vortex's own image,
    # G_k^2 h(z_k) in F with h = -log(4 y^2)/4pi, drives it along the wall at
    # (1/G_k) G_k^2 / (2 pi y), and the other vortex and its image (a
    # distance 2y apart) cancel each other's vertical velocity up to O(y)
    y = 1e-70
    rhs = core.vortex_rhs(sys2, HalfPlane(), [0.0, y, 1.0, y], physical=True)
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
                SyntheticQuadratic(np.array([[1.0, 0.2], [0.2, 3.0]]))):
        clone = core.domain_from_spec(dom.variant, dom.params())
        w = np.array([0.2, 0.3])
        z = np.array([-0.1, 0.4])
        assert clone.g(w, z) == dom.g(w, z)
