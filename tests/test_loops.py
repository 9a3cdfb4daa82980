"""Fourier loop space: inner products, operators, projections, symmetry."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nvortex import equilibria as eq, loops as lp, reduction as rd
from nvortex.core import VortexSystem
from nvortex.errors import AliasWarning, DimensionMismatch

RNG = np.random.default_rng(2024)
M, N = 8, 2


def random_loop(modes=M, n=N, rng=RNG):
    return lp.Loop(rng.normal(size=(2 * modes + 1, 2 * n)))


@st.composite
def loops(draw):
    """Loops with 1-16 modes, 1-4 vortices and coefficients in [-1, 1]."""
    modes, n = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    return lp.Loop(draw(hnp.arrays(float, (2 * modes + 1, 2 * n),
                                   elements=st.floats(-1.0, 1.0))))


@pytest.fixture(scope="module")
def frame():
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    return lp.build_frame(pair.z, pair.omega, 2, M)


# ---------------------------------------------------------------------------
# inner products

@settings(max_examples=60, deadline=None)
@given(loops())
@example(lp.Loop(np.full((33, 8), 1.6e-163)))  # squares underflow to 0
def test_parseval_vs_quadrature(u):
    # both sides are bilinear, so compare at unit scale: a relative bound
    # cannot hold for results in the subnormal range
    u = lp.Loop(u.coeffs / (np.abs(u.coeffs).max() or 1.0))
    m = 8 * u.modes
    t = lp.sample_times(m)
    vals, dvals = u.eval(t), lp.differentiate(u).eval(t)
    quad = 2 * np.pi / m * (np.sum(vals**2) + np.sum(dvals**2))
    assert abs(quad - lp.h1_inner(u, u)) <= 1e-10 * quad


def test_constant_loop_norms(frame):
    assert lp.h1_inner(frame.e1, frame.e1) == pytest.approx(2 * np.pi * N,
                                                            rel=1e-14)
    assert lp.h1_inner(frame.e1, frame.e2) == 0.0


def test_single_cosine_norm():
    c = np.zeros((2 * M + 1, 2 * N))
    c[1, 0] = 1.0  # cos t on one component
    u = lp.Loop(c)
    assert lp.h1_inner(u, u) == pytest.approx(2 * np.pi, rel=1e-14)


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp.h1_inner(random_loop(n=2), random_loop(n=3))


def test_mixed_truncation_zero_pads():
    u, v = random_loop(modes=4), random_loop(modes=8)
    assert lp.h1_inner(u, v) == pytest.approx(
        lp.h1_inner(u.pad(8), v), rel=1e-14)


# ---------------------------------------------------------------------------
# operators

def test_differentiate_and_smoothing():
    u = random_loop()
    const = lp.constant_loop(np.ones(2 * N), M)
    assert np.all(lp.differentiate(const).coeffs == 0.0)
    assert np.allclose(lp.inv_id_minus_laplace(const).coeffs, const.coeffs)
    round_trip = lp.inv_id_minus_laplace(lp.id_minus_laplace(u))
    assert np.max(np.abs(round_trip.coeffs - u.coeffs)) < 1e-13


def test_smoothing_on_cosine():
    c = np.zeros((2 * M + 1, 2 * N))
    c[1, 0] = 1.0
    half = lp.inv_id_minus_laplace(lp.Loop(c))
    assert half.coeffs[1, 0] == pytest.approx(0.5, rel=1e-15)


def test_smoothing_adjoint_identity():
    u, v = random_loop(), random_loop()
    lhs = lp.h1_inner(lp.inv_id_minus_laplace(u), v)
    assert abs(lhs - lp.l2_inner(u, v)) < 1e-10 * abs(lhs)


@settings(max_examples=60, deadline=None)
@given(loops(), st.floats(-10.0, 10.0), st.floats(0.0, 2 * np.pi))
def test_time_shift_isometry_and_eval(u, theta, t):
    shifted = lp.time_shift(theta, u)
    assert abs(lp.h1_norm(shifted) - lp.h1_norm(u)) < 1e-12
    assert abs(lp.l2_inner(shifted, shifted) - lp.l2_inner(u, u)) < 1e-10
    assert np.allclose(shifted.eval(t), u.eval(t + theta), atol=1e-12)
    assert np.allclose(lp.time_shift(0.0, u).coeffs, u.coeffs)


def test_time_shift_pi_on_cosine():
    c = np.zeros((2 * M + 1, 2 * N))
    c[1, :] = 1.0
    flipped = lp.time_shift(np.pi, lp.Loop(c))
    assert np.allclose(flipped.coeffs[1], -1.0, atol=1e-15)


def test_shift_commutes_with_operators():
    u = random_loop()
    theta = 0.49
    d1 = lp.differentiate(lp.time_shift(theta, u))
    d2 = lp.time_shift(theta, lp.differentiate(u))
    assert np.max(np.abs(d1.coeffs - d2.coeffs)) < 1e-12
    s1 = lp.inv_id_minus_laplace(lp.time_shift(theta, u))
    s2 = lp.time_shift(theta, lp.inv_id_minus_laplace(u))
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-12


# ---------------------------------------------------------------------------
# projections: project_D and the solver's X projector P = B B^T diag(w)

def x_projector(frame):
    """Matrix of the H^1-orthogonal projection onto the odd part of
    X = (R Zdot)^perp over flattened coefficients, built from the solver's
    basis B."""
    basis = rd.build_x_basis(VortexSystem([1.0, 1.0]), frame)
    return (basis.matrix @ basis.matrix.T) * basis.weights


def apply(mat, u):
    return lp.unflatten(mat @ lp.flatten(u), u.n, u.modes)


def odd_modes(u):
    """u with its even Fourier modes, the constants among them, removed."""
    keep = (np.arange(2 * u.modes + 1) + 1) // 2 % 2 == 1
    return lp.Loop(u.coeffs * keep[:, None])


def test_projection_partition_and_orthogonality(frame):
    """P keeps the odd modes of u less their phase component; the even
    modes, and with them D, are dropped."""
    u = random_loop()
    pd = lp.project_D(u)
    px = apply(x_projector(frame), u)
    rest = odd_modes(u) - px
    # the odd part of (I - P) u is the phase component: parallel to Zdot
    coef = lp.h1_inner(u, frame.Zdot) / lp.h1_inner(frame.Zdot, frame.Zdot)
    assert np.max(np.abs(rest.coeffs - coef * frame.Zdot.coeffs)) < 1e-10
    assert np.max(np.abs(odd_modes(px).coeffs - px.coeffs)) == 0.0
    assert abs(lp.h1_inner(px, frame.Zdot)) < 1e-10
    assert abs(lp.h1_inner(px, frame.e1)) < 1e-10
    assert abs(lp.h1_inner(px, frame.e2)) < 1e-10
    assert abs(lp.h1_inner(pd, px)) < 1e-10


def test_projections_idempotent_self_adjoint(frame):
    u, v = random_loop(), random_loop()
    pd = lp.project_D(u)
    assert np.max(np.abs(lp.project_D(pd).coeffs - pd.coeffs)) < 1e-12
    assert abs(lp.h1_inner(lp.project_D(u), v)
               - lp.h1_inner(u, lp.project_D(v))) < 1e-10
    P = x_projector(frame)
    w = lp.h1_weight_vector(N, M)
    assert np.max(np.abs(P @ P - P)) < 1e-12
    wp = w[:, None] * P  # diag(w) P, the H^1 Gram of the projection
    assert np.max(np.abs(wp - wp.T)) < 1e-10 * np.max(np.abs(wp))


def test_projection_fixed_points(frame):
    assert np.max(np.abs(lp.project_D(frame.e1).coeffs
                         - frame.e1.coeffs)) < 1e-14
    P = x_projector(frame)
    assert lp.h1_norm(apply(P, frame.Zdot)) < 1e-12
    # the constant translations are even: P removes them
    for e in (frame.e1, frame.e2):
        assert lp.h1_norm(apply(P, e)) < 1e-12
    # an odd loop orthogonal to Zdot is fixed
    w = odd_modes(random_loop())
    w = w - (lp.h1_inner(w, frame.Zdot)
             / lp.h1_inner(frame.Zdot, frame.Zdot)) * frame.Zdot
    assert np.max(np.abs(apply(P, w).coeffs - w.coeffs)) < 1e-12


def test_frame_orthogonality(frame):
    # zero center of vorticity makes Z mean-free, so Zdot is h1-orthogonal
    # to the constant loops
    assert abs(lp.h1_inner(frame.Zdot, frame.e1)) < 1e-13
    assert abs(lp.h1_inner(frame.Zdot, frame.e2)) < 1e-13


def test_projection_equivariance_with_shifted_frame(frame):
    u = random_loop()
    theta = 0.77
    shifted_frame = lp.LoopFrame(Z=lp.time_shift(theta, frame.Z),
                                 Zdot=lp.time_shift(theta, frame.Zdot),
                                 e1=frame.e1, e2=frame.e2)
    a = lp.time_shift(theta, apply(x_projector(frame), u))
    b = apply(x_projector(shifted_frame), lp.time_shift(theta, u))
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10


# ---------------------------------------------------------------------------
# sampling

def test_sample_roundtrip():
    u = random_loop()
    vals = lp.sample(u, lp.dealias_samples(M))
    back = lp.from_samples(vals, M)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12


def test_sample_uses_one_read_only_table():
    """sample is the cached synthesis table times the coefficients: the same
    product that Loop.eval forms at the sample times."""
    u = random_loop()
    m = lp.dealias_samples(M)
    assert np.array_equal(lp.sample(u, m), u.eval(lp.sample_times(m)))
    s = lp.synthesis_matrix(M, m)
    assert s is lp.synthesis_matrix(M, m) and not s.flags.writeable


def test_sample_constant_and_cosine():
    const = lp.constant_loop(np.array([2.0, -1.0, 0.5, 0.0]), M)
    assert np.allclose(lp.sample(const, 18), np.tile(const.a0, (18, 1)))
    c = np.zeros((2 * M + 1, 2))
    c[1, 0] = 1.0
    vals = lp.sample(lp.Loop(c), 2 * (2 * M + 1))[:, 0]
    assert np.allclose(vals, np.cos(lp.sample_times(2 * (2 * M + 1))))


def test_alias_warning():
    u = random_loop()
    with pytest.warns(AliasWarning):
        lp.sample(u, 2 * M)  # fewer than 2M+1 samples


def test_loops_compare_by_value():
    """Same shape and coefficients; a loop is not hashable, because its
    coeffs may share memory with a caller's writable array."""
    c = np.random.default_rng(5).normal(size=(5, 4))
    a, b = lp.Loop(c), lp.Loop(c.copy())
    assert a == b and not a != b
    assert a != lp.Loop(np.nextafter(c, 1)) and a != a.pad(3) and a != "loop"
    assert lp.build_frame(c[1], 1.0, 2, 2) == lp.build_frame(c[1], 1.0, 2, 2)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_serialization_roundtrip():
    u = random_loop()
    doc = lp.loop_to_dict(u)
    back = lp.loop_from_dict(doc)
    assert np.array_equal(back.coeffs, u.coeffs)
    assert back.n == u.n and back.modes == u.modes
