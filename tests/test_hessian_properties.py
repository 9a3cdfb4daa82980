"""Property tests of the dense pair-block Hessians hess_H0 and hess_F over
random N, domains and separated configurations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nvortex import core
from nvortex.core import (HalfPlane, Plane, SyntheticQuadratic,
                          TranslatedDomain, UnitDisk, VortexSystem)
from nvortex.errors import CollisionError, DomainError

MIN_SEP = 0.05


@st.composite
def cases(draw):
    """(system, domain, configurations of shape (B, 2N)) with every point
    inside the domain and every pair at least MIN_SEP apart."""
    n = draw(st.integers(2, 6))
    batch = draw(st.integers(1, 3))
    mag = st.floats(0.2, 2.0)
    gammas = [draw(mag) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(n)]
    variant = draw(st.sampled_from(["disk", "halfplane", "quadratic", "plane"]))
    # points are drawn in the square [-1, 1]^2 and mapped into the domain
    unit = draw(hnp.arrays(float, (batch, n, 2),
                           elements=st.floats(-1.0, 1.0)))
    if variant == "disk":
        domain, pts = UnitDisk(), 0.6 * unit  # |p| <= 0.85
    elif variant == "halfplane":
        domain, pts = HalfPlane(), unit + [0.0, 1.5]  # y >= 0.5
    elif variant == "quadratic":
        a, b, c = (draw(st.floats(-2.0, 2.0)) for _ in range(3))
        domain, pts = SyntheticQuadratic([[a, b], [b, c]]), unit
    else:
        domain, pts = Plane(), unit
    z = pts.reshape(batch, 2 * n)
    assume(core.min_separation(z) >= MIN_SEP)
    return VortexSystem(gammas), domain, z


def hessians(sys_, domain, z):
    return (core.hess_H0(sys_, z), core.hess_F(sys_, domain, z))


def grads(sys_, domain, z):
    return (core.grad_H0(sys_, z), core.grad_F(sys_, domain, z))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_hessians_symmetric_and_batched(case):
    sys_, domain, z = case
    for H, one_by_one in zip(hessians(sys_, domain, z),
                             zip(*(hessians(sys_, domain, zi) for zi in z))):
        assert H.shape == z.shape + (z.shape[-1],)
        assert np.array_equal(H, np.swapaxes(H, -1, -2))
        scale = 1e-14 * max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(H - np.stack(one_by_one))) <= scale


@settings(max_examples=60, deadline=None)
@given(cases())
def test_hessians_match_central_difference_of_gradients(case):
    sys_, domain, z = case
    z0 = z[0]
    h = 1e-6
    steps = h * np.eye(z0.size)
    fd = [(np.stack(gp) - np.stack(gm)).T / (2 * h) for gp, gm in zip(
        zip(*(grads(sys_, domain, z0 + e) for e in steps)),
        zip(*(grads(sys_, domain, z0 - e) for e in steps)))]
    for H, ref in zip(hessians(sys_, domain, z0), fd):
        assert np.max(np.abs(H - ref)) <= 1e-5 * max(1.0, np.max(np.abs(H)))


@settings(max_examples=60, deadline=None)
@given(cases(), st.just(0.0) | st.floats(1e-3, 1.0))
def test_vortex_rhs_is_block_J_grad_over_gamma(case, r):
    """In every mode vortex_rhs, which checks the configuration once, equals
    block by block J grad_k / G_k built from the public gradients.  (Below
    about r = 1e-150, r u in the half-plane is so near y = 0 that g_w
    overflows.)"""
    sys_, domain, z = case

    def field(grad):
        g = grad.reshape(grad.shape[:-1] + (sys_.n, 2))
        # J2 (gx, gy) = (gy, -gx)
        return (np.stack([g[..., 1], -g[..., 0]], axis=-1)
                / sys_.gammas[:, None]).reshape(grad.shape)

    for zz in (z, z[0]):
        assert np.array_equal(
            core.vortex_rhs(sys_, domain, zz, r=1.0),
            field(core.grad_H0(sys_, zz) - core.grad_F(sys_, domain, zz)))
        assert np.array_equal(core.vortex_rhs(sys_, domain, zz, r=r),
                              field(core.grad_Hr(sys_, domain, r, zz)))
        assert np.array_equal(core.vortex_rhs(sys_, Plane(), zz),
                              field(core.grad_H0(sys_, zz)))


@settings(max_examples=60, deadline=None)
@given(cases(), st.floats(0.1, 1.0))
def test_vortex_rhs_rejects_bad_configurations(case, r):
    """A NaN, a collision or (in a bounded domain) a point outside still
    stops vortex_rhs with its error in every mode that reads it."""
    sys_, domain, z = case
    modes = [dict(r=1.0), dict(r=r), dict(r=0.0)]
    bad = z.copy()
    bad[-1, 0] = np.nan
    for mode in modes:
        with pytest.raises(ValueError, match="finite"):
            core.vortex_rhs(sys_, domain, bad, **mode)
    bad = z.copy()
    bad[-1, 2:4] = bad[-1, 0:2]
    for mode in modes:
        with pytest.raises(CollisionError):
            core.vortex_rhs(sys_, domain, bad, **mode)
    outside = {"disk": [1.5, 0.0], "halfplane": [0.0, -1.0]}.get(domain.variant)
    if outside is not None:
        bad = z.copy()
        bad[-1, 0:2] = outside
        with pytest.raises(DomainError):
            core.vortex_rhs(sys_, domain, bad, r=1.0)
        bad[-1, 0:2] = np.divide(outside, r)
        with pytest.raises(DomainError):
            core.vortex_rhs(sys_, domain, bad, r=r)


@st.composite
def robin_cases(draw):
    """(domain, points of shape (B, 2) inside it) over the disk, the half
    plane, a quadratic domain and a translated disk."""
    variant = draw(st.sampled_from(["disk", "halfplane", "quadratic",
                                    "translated"]))
    unit = draw(hnp.arrays(float, (draw(st.integers(1, 3)), 2),
                           elements=st.floats(-1.0, 1.0)))
    if variant == "disk":
        return UnitDisk(), 0.6 * unit  # |p| <= 0.85
    if variant == "halfplane":
        return HalfPlane(), unit + [0.0, 1.5]  # y >= 0.5
    if variant == "quadratic":
        a, b, c = (draw(st.floats(-2.0, 2.0)) for _ in range(3))
        return SyntheticQuadratic([[a, b], [b, c]]), unit
    offset = draw(hnp.arrays(float, 2, elements=st.floats(-0.25, 0.25)))
    return TranslatedDomain(UnitDisk(), offset), 0.4 * unit  # |p + offset| <= 0.92


def robin_formulas(domain, p):
    """g(p, p), 2 g_w(p, p) and 2 (g_ww + (g_wz + g_wz^T) / 2) at p, the
    formulas that h, grad h and h'' evaluated before they became F of one
    unit vortex."""
    gwz = domain.g_wz(p, p)
    return (domain.g(p, p), 2.0 * domain.g_w(p, p),
            2.0 * (domain.g_ww(p, p) + 0.5 * (gwz + np.swapaxes(gwz, -1, -2))))


@settings(max_examples=60, deadline=None)
@given(robin_cases())
def test_robin_function_is_the_formulas_of_g(case):
    """h, grad h and h'' equal the Robin formulas bit for bit when g is
    evaluated on the pair layout (..., N, N, 2) of F with N = 1: the unit
    vortex only multiplies by 1, and the 2x2 blocks are already symmetric.
    In p's own layout numpy's vector loops may round g an ulp apart."""
    domain, pts = case
    for p in (pts, pts[0]):
        got = (core.eval_h(domain, p), core.grad_h(domain, p),
               core.hess_h(domain, p))
        pair = robin_formulas(domain, p[..., None, None, :])
        for value, exact, near in zip(got, pair, robin_formulas(domain, p)):
            assert value.shape == np.shape(near)
            assert np.array_equal(value, exact.reshape(value.shape))
            assert np.abs(value - near).max() <= 4 * np.finfo(float).eps * max(
                1.0, np.abs(near).max())


@settings(max_examples=60, deadline=None)
@given(cases())
def test_trajectory_min_separation_is_core_min_separation(case):
    """The minimum separation along a trajectory is core.min_separation of
    its state batch, which is the minimum over the states."""
    _, _, z = case
    per_state = min(core.min_separation(zi) for zi in z)
    assert core.min_separation(z) == pytest.approx(per_state, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: hnp.arrays(
    float, st.tuples(st.integers(1, 3), st.just(2 * n)),
    elements=st.floats(-10.0, 10.0))))
def test_min_separation_is_brute_force_pair_minimum(z):
    """Batched and single min_separation equal the minimum over i < j of
    |p_i - p_j|, and inf for a single vortex."""
    n = z.shape[-1] // 2
    brute = []
    for zi in z:
        p = zi.reshape(n, 2)
        dists = [np.sqrt((p[i, 0] - p[j, 0]) ** 2 + (p[i, 1] - p[j, 1]) ** 2)
                 for i in range(n) for j in range(i + 1, n)]
        brute.append(min(dists, default=np.inf))
        assert core.min_separation(zi) == pytest.approx(brute[-1], rel=1e-15,
                                                        abs=0.0)
    assert core.min_separation(z) == pytest.approx(min(brute), rel=1e-15,
                                                   abs=0.0)
