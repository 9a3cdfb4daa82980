"""Action, preconditioned operator, contraction solver, continuation."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvortex import core, equilibria as eq, loops as lp, reduction as rd
from nvortex.core import Plane, TranslatedDomain, UnitDisk, VortexSystem
from nvortex.errors import (CollisionError, DegenerateFrame, EmptyPath,
                            SingularOperator, ZeroTotalVorticity)

RNG = np.random.default_rng(99)
M = 10


@pytest.fixture(scope="module")
def pair_setup():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    frame = lp.build_frame(pair.z, pair.omega, 2, M)
    basis = rd.build_x_basis(frame)
    return sys2, pair, frame, basis


# ---------------------------------------------------------------------------
# action and gradient

def test_action_symplectic_coefficient_vs_quadrature(pair_setup):
    sys2, _, frame, _ = pair_setup
    u = frame.Z + lp.Loop(0.1 * RNG.normal(size=(2 * M + 1, 4)))
    m = 8 * (2 * M + 1)
    t = lp.sample_times(m)
    vals, dvals = u.eval(t), lp.differentiate(u).eval(t)
    mj = sys2.m_gamma() @ sys2.j_n()
    quad = 0.5 * 2 * np.pi / m * np.sum(
        np.einsum("ti,ij,tj->t", dvals, mj, vals))
    assert abs(rd._symplectic_term(sys2, u) - quad) < 1e-10 * max(
        1.0, abs(quad))


def test_action_constant_loop_is_minus_energy(pair_setup):
    sys2, *_ = pair_setup
    c = lp.constant_loop(np.array([1.0, 0.0, -1.0, 0.5]), M)
    val = rd.action_J_r(sys2, Plane(), 0.0, c)
    assert val == pytest.approx(-2 * np.pi * core.eval_H0(sys2, c.a0),
                                rel=1e-12)


def test_action_r_dependence_linear(pair_setup):
    sys2, _, frame, _ = pair_setup
    disk = UnitDisk()
    u = frame.Z
    j0 = rd.action_J_r(sys2, Plane(), 0.0, u)
    vals = [abs(rd.action_J_r(sys2, disk, r, u) - j0)
            for r in (0.2, 0.1, 0.05)]
    # the F terms vanish with r; each halving shrinks the gap
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def test_grad_zero_at_seed_on_plane(pair_setup):
    sys2, _, frame, _ = pair_setup
    g = rd.grad_J_r(sys2, Plane(), 0.0, frame.Z)
    assert lp.h1_norm(g) < 1e-10


def test_grad_matches_directional_derivative(pair_setup):
    sys2, _, frame, _ = pair_setup
    disk = UnitDisk()
    u = frame.Z + lp.Loop(0.05 * RNG.normal(size=(2 * M + 1, 4)))
    w = lp.Loop(RNG.normal(size=(2 * M + 1, 4)))
    r, epsv = 0.08, 1e-6
    fd = (rd.action_J_r(sys2, disk, r, u + epsv * w)
          - rd.action_J_r(sys2, disk, r, u - epsv * w)) / (2 * epsv)
    an = lp.h1_inner(rd.grad_J_r(sys2, disk, r, u), w)
    assert abs(fd - an) / abs(an) < 1e-5


def test_grad_at_seed_is_smoothed_F_gradient(pair_setup):
    """At the seed the plane part cancels and only the domain forcing
    survives: grad = r (id-Lap)^{-1} grad F(r Z) as a loop."""
    sys2, _, frame, _ = pair_setup
    disk = UnitDisk()
    r = 0.1
    g = rd.grad_J_r(sys2, disk, r, frame.Z)
    m = lp.dealias_samples(M)
    pts = lp.sample(frame.Z, m)
    forcing = lp.from_samples(r * core.grad_F(sys2, disk, r * pts), M)
    expect = lp.inv_id_minus_laplace(forcing)
    assert lp.h1_norm(g - expect) < 1e-12


def test_grad_at_seed_vanishes_with_r(pair_setup):
    sys2, _, frame, _ = pair_setup
    disk = UnitDisk()
    norms = [lp.h1_norm(rd.grad_J_r(sys2, disk, r, frame.Z))
             for r in (0.2, 0.1, 0.05)]
    assert norms[0] < 1e-2
    assert all(n2 < 0.5 * n1 for n1, n2 in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# the operator on X

def test_x_basis_orthonormal(pair_setup):
    _, _, frame, basis = pair_setup
    G = basis.matrix.T @ (basis.weights[:, None] * basis.matrix)
    assert np.max(np.abs(G - np.eye(basis.dim))) < 1e-12
    # the odd modes 1, 3, ..., M - 1 less the phase direction
    assert basis.dim == 4 * 2 * (M // 2) - 1
    assert np.array_equal(np.unique(basis.col_modes), np.arange(1, M, 2))
    assert np.abs(basis.coords(frame.Zdot)).max() < 1e-12
    # first come the 4N - 1 columns of the complement of Z' in mode 1
    assert np.all(basis.col_modes[:7] == 1) and basis.col_modes[7] == 3
    for j in range(basis.dim):
        w = basis.column_loop(j)
        assert lp.h1_norm(lp.time_shift(np.pi, w) + w) < 1e-12
    # the basis is built mode by mode, so Z' must lie in mode 1
    bent = lp.Loop(np.roll(frame.Zdot.coeffs, 2, axis=0))  # moved to mode 2
    with pytest.raises(DegenerateFrame):
        rd.build_x_basis(lp.LoopFrame(Z=frame.Z, Zdot=bent, e1=frame.e1,
                                      e2=frame.e2))


def test_operator_plane_blocks(pair_setup):
    """Only the odd part of X is solved on, so the operator needs H_r even
    along the base.  A mode-2 bump breaks the half-period symmetry of H0''
    even on the plane and is rejected; at the seed the plane operator is
    well conditioned on the odd part."""
    sys2, _, frame, basis = pair_setup
    bump = np.zeros_like(frame.Z.coeffs)
    bump[3:5] = 0.05 * np.random.default_rng(2).normal(size=(2, 4))
    with pytest.raises(ValueError, match="H_r is not even about a0"):
        rd.assemble_L_r(sys2, Plane(), 0.0, frame, basis=basis,
                        base=frame.Z + lp.Loop(bump))
    op = rd.assemble_L_r(sys2, Plane(), 0.0, frame, basis=basis)
    assert op.matrix.shape == (basis.dim, basis.dim)
    assert np.linalg.cond(op.matrix) < 1e3


def test_operator_matches_finite_differences(pair_setup):
    sys2, _, frame, basis = pair_setup
    disk = UnitDisk()
    r = 0.08
    op = rd.assemble_L_r(sys2, disk, r, frame, basis=basis)
    y = RNG.normal(size=basis.dim)
    y /= np.linalg.norm(y)
    w = basis.to_loop(y)
    epsv = 1e-6
    fd = (rd.grad_J_r(sys2, disk, r, frame.Z + epsv * w).coeffs
          - rd.grad_J_r(sys2, disk, r, frame.Z - epsv * w).coeffs) / (2 * epsv)
    fdc = basis.coords(lp.Loop(fd))
    assert np.linalg.norm(op.matrix @ y - fdc) / np.linalg.norm(fdc) < 1e-5


def test_operator_symmetric(pair_setup):
    sys2, _, frame, basis = pair_setup
    op = rd.assemble_L_r(sys2, UnitDisk(), 0.1, frame, basis=basis)
    assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-12


def test_d_block_limit_closed_form(pair_setup):
    """The scaled D block converges to the lift of (Gamma^2/N) h''(0).

    On the unit disk g(w, z) = -(1/4pi) log|1 - w conj(z)|^2, so in complex
    coordinates F(x) = (1/2pi) sum_{n>=1} |p_n(x)|^2 / n with
    p_n(x) = sum_j G_j x_j^n.  The D block is the mean over t of the second
    derivative of F(rZ(t) + s c) in s, divided by N, for unit vectors c.
    Since d^2/ds^2 |p_n|^2 = 2 n^2 |p_{n-1}|^2 + 2 n (n-1) Re(conj(p_n)
    c^2 p_{n-2}), and the last term turns like e^{2it} and averages to 0,

        d0(r) = (1/(pi N)) sum_{n>=1} n r^{2n-2} |p_{n-1}(z)|^2 I.

    The n = 1 term is (Gamma^2/N) h''(0) with h''(0) = I/pi; the r^2 term
    vanishes because p_1(z), the centre of vorticity, is 0.  The error is
    therefore 3 r^4 |p_2(z)|^2 / (pi N) I plus terms smaller by a factor
    O(r^2 |z|^2).
    """
    sys2, pair, frame, basis = pair_setup
    disk = UnitDisk()
    expect = (sys2.gamma_total**2 / sys2.n) * core.hess_h(disk, np.zeros(2))
    pts = pair.z[0::2] + 1j * pair.z[1::2]
    c4 = 3 * abs(np.sum(sys2.gammas * pts**2))**2 / (np.pi * sys2.n)
    for r in (0.1, 0.02):
        op = rd.assemble_L_r(sys2, disk, r, frame, basis=basis)
        lead = c4 * r**4
        assert np.max(np.abs(op.d0_matrix - expect - lead * np.eye(2))) \
            < 1e-3 * lead
    op = rd.assemble_L_r(sys2, disk, 1e-3, frame, basis=basis)
    assert np.max(np.abs(op.d0_matrix - expect)) < 1e-6
    # below r = 1e-4 the r^4 term is under 1e-15: only roundoff is left, and
    # it must not grow like eps / r^2
    for r in (1e-4, 1e-5):
        op = rd.assemble_L_r(sys2, disk, r, frame, basis=basis)
        assert np.max(np.abs(op.d0_matrix - expect)) <= 1e-12


def _reference_operator(sys, domain, r, modes, base):
    """Per-column assembly of L_r, kept as the reference for the Gram form.

    Each unit coefficient column, scaled to unit H^1 norm, is sampled,
    multiplied by H_r''(base) at the nodes, projected back by rFFT, added to
    -J M w', smoothed by (id-Lap)^{-1} and read in H^1 coordinates.  The
    result is L over all coefficients, even modes and constants included.
    The D block of the F part is the same image of the two normalized
    constant loops under the hess_F stack alone (their derivative
    vanishes, so the linear term drops out).
    """
    n = sys.n
    w = lp.h1_weight_vector(n, modes)
    m = lp.dealias_samples(modes)
    base_pts = lp.sample(base, m)
    fmats = (core.hess_F(sys, domain, r * base_pts) if r > 0
             else np.zeros((m, 2 * n, 2 * n)))
    hmats = core.hess_H0(sys, base_pts) - r**2 * fmats
    jm = sys.j_n() @ sys.m_gamma()

    def image(hm, col):
        u = lp.unflatten(col, n, modes)
        nonlin = lp.from_samples(
            -np.einsum("tij,tj->ti", hm, lp.sample(u, m)), modes)
        lin = lp.Loop(-lp.differentiate(u).coeffs @ jm.T)
        return lp.flatten(lp.inv_id_minus_laplace(lin + nonlin))

    unit = np.diag(1 / np.sqrt(w))
    L = unit @ (w[:, None] * np.column_stack([image(hmats, c) for c in unit]))
    L = 0.5 * (L + L.T)
    const = np.zeros((2, w.size))
    const[:, :2 * n] = np.tile(np.eye(2), n) / np.sqrt(2 * np.pi * n)
    d0 = -const @ (w[:, None] * np.column_stack([image(fmats, c)
                                                  for c in const]))
    return L, d0


@pytest.mark.parametrize("modes", [8, 16])
@pytest.mark.parametrize("gammas,make", [
    ((1.0, 1.0), lambda: eq.make_pair(1.0, 1.0, 2.0)),
    ((1.0, 2.0, 3.0), lambda: eq.make_triangle(1.0, 2.0, 3.0, 1.0)),
], ids=["pair", "triangle123"])
def test_operator_matches_per_column_reference(gammas, make, modes):
    """At the rigid seed Z(t + pi) = -Z(t), and at a Newton base Z + v with
    v in the odd part of X too.  In the disk about 0 the Hessians along an
    odd base repeat after half a period, so the reference L over all
    coefficients couples odd and even modes only by roundoff, and its odd
    block read in the X basis is the operator."""
    vs = VortexSystem(list(gammas))
    seed = eq.normalize_period(make())
    frame = lp.build_frame(seed.z, seed.omega, vs.n, modes)
    basis = rd.build_x_basis(frame)
    y = np.random.default_rng(modes).normal(size=basis.dim)
    newton_base = frame.Z + basis.to_loop(0.05 * y / np.linalg.norm(y))
    odd = (np.arange(basis.weights.size) // (2 * vs.n) + 1) // 2 % 2 == 1
    coords = np.sqrt(basis.weights)[:, None] * basis.matrix  # in unit columns
    disk = UnitDisk()
    for r in (0.0, 0.1, 1e-3):
        for base in (frame.Z, newton_base):
            op = rd.assemble_L_r(vs, disk, r, frame, basis=basis, base=base)
            L, d0 = _reference_operator(vs, disk, r, modes, base)
            tol = 1e-13 * np.max(np.abs(L))
            assert np.abs(L[np.ix_(odd, ~odd)]).max() <= tol
            assert np.max(np.abs(op.matrix - coords.T @ L @ coords)) <= tol
            assert np.max(np.abs(op.d0_matrix - d0)) <= tol


def test_singular_operator_guard(pair_setup):
    """At r = 1e-3, L is the plane operator at the seed up to O(r^2).  On a
    mode k >= 2 the plane operator of the equal pair has eigenvalues
    +-k/(1+k^2): the rotation term -J M w' smoothed by (id-Lap)^{-1}.  The
    largest |eigenvalue| is 1, on the seed direction in mode 1: H0 is
    log-homogeneous, so H0''(Z) Z = -grad H0(Z), the equilibrium gives
    grad H0(Z) = -J M Z' = -Z, and -J M Z' - H0''(Z) Z = -2Z is halved by
    (id-Lap)^{-1}.  So cond(A) is
    (1+K^2)/K for the top mode K of the basis: 82/9 = 9.11 on the odd part
    of X (K = M - 1).  cond(D) = cond((Gamma^2/N) h''(0)) = 1.  A limit of 5 trips the guard
    on the A block."""
    sys2, _, frame, basis = pair_setup
    disk = UnitDisk()
    op = rd.assemble_L_r(sys2, disk, 1e-3, frame, basis=basis)
    top = basis.col_modes.max()
    assert top == M - 1
    A = op.matrix
    assert rd._sym_cond(A) == pytest.approx(np.linalg.cond(A), rel=1e-10)
    assert rd._sym_cond(A) == pytest.approx((1 + top**2) / top, rel=1e-6)
    assert np.linalg.cond(op.d0_matrix) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(SingularOperator, match=r"cond\(A\)=9\.111e\+00"):
        rd.assemble_L_r(sys2, disk, 1e-3, frame, basis=basis, cond_limit=5)


def test_off_centre_disk_is_rejected(pair_setup):
    """Recentred at a0 = (0.3, 0) the disk is not symmetric about the new
    origin: F'' along r Z(t) differs from F'' along -r Z(t) at first order
    in r, so H_r is not even about a0 and the orbit need not be odd.  Only
    the odd part of X is solved on, so the operator and the continuation
    refuse it with ValueError at every r, and the continuation leaves at
    its first r."""
    sys2, _, frame, basis = pair_setup
    domain = TranslatedDomain(UnitDisk(), (0.3, 0.0))
    for r in (0.2, 1e-3):
        with pytest.raises(ValueError, match="H_r is not even about a0"):
            rd.assemble_L_r(sys2, domain, r, frame, basis=basis)
        params = rd.SolverParams(modes=M, r_max=r, r_min=r / 2)
        with pytest.raises(ValueError, match="H_r is not even about a0"):
            rd.continue_path(sys2, UnitDisk(), np.array([0.3, 0.0]), frame,
                             params)


def test_center_of_vorticity_identity(pair_setup):
    """P_D[(id-Lap)^{-1} F''(0)[Z]] = 0 for a mean-free seed."""
    sys2, _, frame, _ = pair_setup
    disk = UnitDisk()
    hess0 = core.hess_F(sys2, disk, np.zeros(4))
    img = lp.Loop(frame.Z.coeffs @ hess0.T)
    out = lp.project_D(lp.inv_id_minus_laplace(img))
    assert lp.h1_norm(out) < 1e-10


# ---------------------------------------------------------------------------
# reduced solve

def test_plane_solution_is_zero(pair_setup):
    sys2, _, frame, basis = pair_setup
    sol = rd.solve_reduced(sys2, Plane(), 0.1, frame,
                           rd.SolverParams(modes=M), basis=basis)
    assert sol.vnorm < 1e-12
    assert sol.residual_grad < 1e-12


def test_disk_solution_diagnostics(pair_setup):
    sys2, _, frame, basis = pair_setup
    sol = rd.solve_reduced(sys2, UnitDisk(), 0.1, frame,
                           rd.SolverParams(modes=M), basis=basis)
    assert sol.residual_grad < 1e-10
    assert sol.phase_defect < 1e-10
    assert abs(lp.h1_inner(sol.v, frame.Zdot)) < 1e-10
    assert sol.spectral_tail < 1e-8
    assert 0 < sol.vnorm < 1e-3


def test_fixedpoint_newton_agree(pair_setup):
    sys2, _, frame, basis = pair_setup
    fp = rd.solve_reduced(sys2, UnitDisk(), 0.15, frame,
                          rd.SolverParams(modes=M), basis=basis)
    nw = rd.solve_reduced(sys2, UnitDisk(), 0.15, frame,
                          rd.SolverParams(modes=M, mode="Newton"),
                          basis=basis)
    assert lp.h1_norm(fp.v - nw.v) < 1e-9


@settings(max_examples=20, deadline=None)
@given(g1=st.floats(0.5, 2.0), ratio=st.floats(0.5, 2.0),
       sign=st.sampled_from([1.0, -1.0]), r=st.floats(1e-3, 0.2))
def test_fixedpoint_newton_agree_on_random_pairs(g1, ratio, sign, r):
    """Both solvers find the same v to 1e-9 in H^1 (acceptance criterion
    3's bound), over same-sign pairs in the disk at modes 8."""
    g = (sign * g1, sign * g1 * ratio)
    vs = VortexSystem(list(g))
    seed = eq.normalize_period(eq.make_pair(g[0], g[1], 2.0))
    frame = lp.build_frame(seed.z, seed.omega, vs.n, 8)
    fp, nw = (rd.solve_reduced(vs, UnitDisk(), r, frame,
                               rd.SolverParams(modes=8, mode=mode))
              for mode in ("FixedPoint", "Newton"))
    assert lp.h1_norm(fp.v - nw.v) <= 1e-9


@pytest.mark.parametrize("r, steps", [(0.1, 2), (1e-3, 0)])
def test_newton_iterations_count_steps(r, steps, pair_setup, monkeypatch):
    """Newton's `iterations` is the number of steps (LU solves) taken. At
    r = 1e-3 the equal pair's correction is r^4/pi^2 = 1.0e-13 and the seed
    residual is already below newton_tol = 1e-11, so no step is taken."""
    sys2, _, frame, basis = pair_setup
    solves = []
    lu_solve = rd.scipy.linalg.lu_solve
    monkeypatch.setattr(rd.scipy.linalg, "lu_solve",
                        lambda *a, **k: solves.append(1) or lu_solve(*a, **k))
    sol = rd.solve_reduced(sys2, UnitDisk(), r, frame,
                           rd.SolverParams(modes=M, mode="Newton"),
                           basis=basis)
    assert sol.iterations == len(solves) == steps


def test_solver_equivariance(pair_setup):
    sys2, _, frame, _ = pair_setup
    params = rd.SolverParams(modes=M)
    base = rd.solve_reduced(sys2, UnitDisk(), 0.1, frame, params)
    theta = np.pi / 2
    shifted = lp.LoopFrame(Z=lp.time_shift(theta, frame.Z),
                           Zdot=lp.time_shift(theta, frame.Zdot),
                           e1=frame.e1, e2=frame.e2)
    sol = rd.solve_reduced(sys2, UnitDisk(), 0.1, shifted, params)
    assert lp.h1_norm(sol.v - lp.time_shift(theta, base.v)) < 1e-9


def test_local_uniqueness_probe(pair_setup):
    sys2, _, frame, _ = pair_setup
    params = rd.SolverParams(modes=M)
    sol = rd.solve_reduced(sys2, UnitDisk(), 0.1, frame, params)
    report = rd.local_uniqueness_probe(
        sys2, UnitDisk(), 0.1, frame, params, sol,
        np.linspace(0.0, 2 * np.pi, 8, endpoint=False))
    assert report["max"] < 1e-8
    assert report["mismatch"][0.0] < 1e-12


def test_thomson_solution_is_sigma_fixed():
    """sigma relabels the equal vortices cyclically and shifts time by
    2 pi/3.  Relabelling equal vorticities leaves H_r unchanged and a time
    shift commutes with the action, so grad J_r, the operator at a sigma-fixed
    base and hence the fixed-point and Newton maps are sigma-equivariant.
    The Thomson seed Z is sigma-fixed (turning the ring by 2 pi/3 permutes
    it), so sigma v solves wherever v does, and local uniqueness of the
    solution near 0 gives sigma v = v without any filter."""
    th = eq.normalize_period(eq.make_thomson(3, 1.0, 1.0))
    sys3 = VortexSystem([1.0, 1.0, 1.0])
    frame = lp.build_frame(th.z, th.omega, 3, M)
    sigma = np.array([1, 2, 0])
    for mode in ("FixedPoint", "Newton"):
        params = rd.SolverParams(modes=M, mode=mode)
        sol = rd.solve_reduced(sys3, UnitDisk(), 0.1, frame, params)
        assert lp.h1_norm(lp.sigma_act(sigma, sol.v) - sol.v) <= 1e-10
        assert sol.residual_grad < 1e-10


# ---------------------------------------------------------------------------
# orbits continued in the disk, against targets derived from its symmetry

@pytest.fixture(scope="module", params=["equal", 0, 11, 21])
def disk_path(request):
    """Default continuation (modes 32, r from 0.2 down to 1e-3) of the equal
    pair, or of pair-pool case k with Gamma from default_rng(k)."""
    k = request.param
    g = (1.0, 1.0) if k == "equal" else np.random.default_rng(k).uniform(
        0.5, 2.0, 2)
    vs = VortexSystem(list(g))
    seed = eq.normalize_period(eq.make_pair(g[0], g[1], 2.0))
    params = rd.SolverParams()
    frame = lp.build_frame(seed.z, seed.omega, vs.n, params.modes)
    return k, params, rd.continue_path(vs, UnitDisk(), np.zeros(2), frame,
                                       params)


def test_disk_orbits_are_rigid(disk_path):
    """The disk is rotation-invariant about a0 = 0, so each continued orbit
    is a relative equilibrium of H_r turning at the seed's rate: u is a
    single Fourier mode, k = 1."""
    _, params, path = disk_path
    assert len(path.entries) == params.r_points
    for e in path.entries:
        rest = e.u.coeffs.copy()
        rest[1:3] = 0.0
        assert lp.h1_norm(lp.Loop(rest)) <= 1e-13 * lp.h1_norm(e.u)


def test_pair_r4_law_and_one_step_per_r(disk_path):
    """v decays like c r^4 with the same shape at every small r (criterion 4
    derives the rate), so vnorm / r^4 is constant up to O(r^2) and roundoff,
    to 1e-3 for r <= 5e-3.  The warm start is the previous solution, so the
    first fixed-point step is v(r) - v(r_prev), of norm vnorm(r_prev) -
    vnorm(r), and the frozen operator leaves a second step smaller by a
    factor O(|v|): one iteration when the first step is within fp_tol, two
    when it is not.  Noise in the solve would show in both."""
    _, params, path = disk_path
    rs, vs = path.r_values, path.vnorms
    c = vs[rs <= 5e-3] / rs[rs <= 5e-3] ** 4
    assert np.max(np.abs(c / np.median(c) - 1)) <= 1e-3
    first_step = vs[:-1] - vs[1:]
    iters = np.array([e.iterations for e in path.entries[1:]])
    small = rs[1:] < 3e-3
    assert np.all(iters[small & (first_step < 0.9 * params.fp_tol)] == 1)
    assert np.all(iters[small & (first_step > 1.1 * params.fp_tol)] == 2)
    assert np.all(iters[small] <= 2)


# ---------------------------------------------------------------------------
# continuation and unrescaling

@pytest.fixture(scope="module")
def small_path(pair_setup):
    sys2, _, frame, _ = pair_setup
    params = rd.SolverParams(modes=M, r_points=12)
    return rd.continue_path(sys2, UnitDisk(), np.zeros(2), frame, params)


def test_continuation_all_points(small_path):
    assert len(small_path.entries) == 12
    assert not small_path.failures
    assert all(e.residual_grad < 1e-10 for e in small_path.entries)
    assert small_path.r0_empirical >= small_path.entries[0].r


def test_continuation_vnorm_monotone(small_path):
    rs, vs = small_path.r_values, small_path.vnorms
    mask = rs <= 0.05
    assert np.all(np.diff(vs[mask]) < 0)


def test_domain_exit_is_recorded_and_probe_stops(pair_setup):
    """Continued from r = 1.5 the orbit of the equal pair leaves the disk:
    r = 1.5 fails with the core's DomainError naming the first sample outside,
    r = 1.204 fails the contraction guard, and the four r values from 0.9666
    down converge.  The upward r0 probe from 0.9666 meets the same failures
    and stops there."""
    sys2, _, frame, _ = pair_setup
    params = rd.SolverParams(modes=M, r_max=1.5, r_min=0.5, r_points=6)
    path = rd.continue_path(sys2, UnitDisk(), np.zeros(2), frame, params)
    grid = params.r_grid()
    assert np.array_equal(path.r_values, grid[2:])
    assert sorted(path.failures) == sorted(grid[:2])
    msg = path.failures[1.5]
    assert msg.startswith("DomainError: ") and re.search(r"at sample \d+$", msg)
    assert path.failures[grid[1]].startswith("ContractionFailure: ")
    assert path.r0_empirical == pytest.approx(0.96659, abs=5e-6)


def test_colliding_loop_names_the_sample(pair_setup):
    """z1 = (cos t, 0) and z2 = -z1 meet where cos t = 0; on the m = 84
    nodes of M = 10 the first is sample 21, t = 2 pi 21/84 = pi/2."""
    sys2 = pair_setup[0]
    c = np.zeros((2 * M + 1, 4))
    c[1] = [1.0, 0.0, -1.0, 0.0]
    assert lp.dealias_samples(M) == 84
    with pytest.raises(CollisionError, match=r"at sample 21$"):
        rd.grad_J_r(sys2, UnitDisk(), 0.1, lp.Loop(c))


def test_zero_vorticity_rejected(pair_setup):
    _, _, frame, _ = pair_setup
    with pytest.raises(ZeroTotalVorticity):
        rd.continue_path(VortexSystem([1.0, -1.0]), UnitDisk(), np.zeros(2),
                         frame, rd.SolverParams(modes=M))


def test_unrescale_geometry(small_path, pair_setup):
    sys2, pair, _, _ = pair_setup
    sol = small_path.entries[0]
    orbit = rd.unrescale(np.zeros(2), sol.r, sol.u, 64, domain=UnitDisk())
    assert orbit.period == pytest.approx(2 * np.pi * sol.r**2)
    pts = orbit.samples.reshape(64, 2, 2)
    radii = np.linalg.norm(pts, axis=-1)
    # two points circling the center at radius ~ r * |z_k|
    seed_radius = np.linalg.norm(pair.z[0])
    assert np.all(np.abs(radii - sol.r * seed_radius) < 0.05 * sol.r)
    assert np.all(np.linalg.norm(pts, axis=-1) < 1.0)


def test_unrescale_roundtrip(small_path):
    sol = small_path.entries[0]
    orbit = rd.unrescale(np.zeros(2), sol.r, sol.u, 32)
    back = orbit.samples / sol.r
    expect = sol.u.eval(orbit.times / sol.r**2)
    assert np.max(np.abs(back - expect)) < 1e-10


@pytest.mark.parametrize("samples", [0, -3])
def test_unrescale_rejects_no_samples(samples, pair_setup):
    with pytest.raises(ValueError, match="samples"):
        rd.unrescale(np.zeros(2), 0.1, pair_setup[2].Z, samples)


@pytest.mark.parametrize("r", [0.0, -0.1, np.nan, np.inf])
def test_unrescale_rejects_bad_r(r, pair_setup):
    with pytest.raises(ValueError, match="r must be finite and positive"):
        rd.unrescale(np.zeros(2), r, pair_setup[2].Z, 16)


def test_orbit_file_roundtrip(small_path, pair_setup, tmp_path):
    sys2, pair, _, _ = pair_setup
    sol = small_path.entries[0]
    doc = rd.orbit_to_dict(sys2, UnitDisk(), np.zeros(2), pair.omega, sol)
    path = os.path.join(tmp_path, "orbit.json")
    rd.save_orbit(path, doc)
    loaded = rd.load_orbit(path)
    assert loaded["schema_version"] == rd.ORBIT_SCHEMA_VERSION
    assert loaded["system"]["gammas"] == [1.0, 1.0]
    back = lp.loop_from_dict(loaded["loop"])
    assert np.array_equal(back.coeffs, sol.u.coeffs)
    assert loaded["diagnostics"]["residual_grad"] == sol.residual_grad


def test_orbit_schema_version_checked(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        json.dump({"schema_version": 99}, fh)
    with pytest.raises(ValueError):
        rd.load_orbit(path)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        rd.SolverParams(fp_tol=-1.0)
    with pytest.raises(ValueError):
        rd.SolverParams(r_max=0.001, r_min=0.1)
    with pytest.raises(ValueError):
        rd.SolverParams(mode="bogus")
    with pytest.raises(ValueError):
        rd.SolverParams(spectral_tail_tol=0.0)
    grid = rd.SolverParams().r_grid()
    assert grid[0] == pytest.approx(0.2) and grid[-1] == pytest.approx(1e-3)
    assert np.all(np.diff(grid) < 0)
