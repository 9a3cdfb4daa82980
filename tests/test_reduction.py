"""Action, preconditioned operator, contraction solver, continuation."""

import itertools
import json
import os
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st

from nvortex import (core, dynamics as dyn, equilibria as eq, loops as lp,
                     reduction as rd)
from nvortex.core import (HalfPlane, Plane, SyntheticQuadratic,
                          TranslatedDomain, UnitDisk, VortexSystem)
from nvortex.errors import (CollisionError, ContractionFailure,
                            DegenerateFrame, DomainError,
                            NoConvergence, PhaseDefect, SingularOperator,
                            ZeroTotalVorticity)

RNG = np.random.default_rng(99)
M = 10


@pytest.fixture(scope="module")
def pair_setup():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    Z = lp.build_frame(pair.z, pair.omega, M)
    basis = rd.build_x_basis(pair, M)
    return sys2, pair, Z, basis


def _col_modes(basis):
    """The mode of each basis column, read off its first nonzero row."""
    first = (basis.matrix != 0).argmax(axis=0)
    return (first // (2 * basis.Z.n) + 1) // 2


def _r_and_vnorm(path):
    """The r values and vnorms of a path's entries, as two arrays."""
    return (np.array([e.r for e in path.entries]),
            np.array([e.vnorm for e in path.entries]))


# ---------------------------------------------------------------------------
# action and gradient

def test_action_symplectic_coefficient_vs_quadrature(pair_setup):
    sys2, _, Z, _ = pair_setup
    u = Z + lp.Loop(0.1 * RNG.normal(size=(2 * M + 1, 4)))
    m = 8 * (2 * M + 1)
    t = lp.sample_times(m)
    vals, dvals = u.eval(t), lp.differentiate(u).eval(t)
    mj = sys2.m_gamma_diag()[:, None] * sys2.j_n()
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


def test_action_in_the_half_plane_is_minus_energy(pair_setup):
    sys2, *_ = pair_setup
    a0 = np.array([0.2, 0.6, -0.2, 0.7])
    val = rd.action_J_r(sys2, HalfPlane(), 0.3, lp.constant_loop(a0, M))
    ham = core.eval_H0(sys2, a0) - core.eval_F(sys2, HalfPlane(), 0.3 * a0)
    assert val == pytest.approx(-2 * np.pi * ham, rel=1e-12)


def test_action_r_dependence_linear(pair_setup):
    sys2, _, Z, _ = pair_setup
    disk = UnitDisk()
    u = Z
    j0 = rd.action_J_r(sys2, Plane(), 0.0, u)
    vals = [abs(rd.action_J_r(sys2, disk, r, u) - j0)
            for r in (0.2, 0.1, 0.05)]
    # the F terms vanish with r; each halving shrinks the gap
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def test_grad_zero_at_seed_on_plane(pair_setup):
    sys2, _, Z, _ = pair_setup
    g = rd.grad_J_r(sys2, Plane(), 0.0, Z)
    assert lp.h1_norm(g) < 1e-10


def test_grad_matches_directional_derivative(pair_setup):
    sys2, _, Z, _ = pair_setup
    disk = UnitDisk()
    u = Z + lp.Loop(0.05 * RNG.normal(size=(2 * M + 1, 4)))
    w = lp.Loop(RNG.normal(size=(2 * M + 1, 4)))
    r, epsv = 0.08, 1e-6
    fd = (rd.action_J_r(sys2, disk, r, u + epsv * w)
          - rd.action_J_r(sys2, disk, r, u - epsv * w)) / (2 * epsv)
    an = lp.h1_inner(rd.grad_J_r(sys2, disk, r, u), w)
    assert abs(fd - an) / abs(an) < 1e-5


def test_grad_at_seed_is_smoothed_F_gradient(pair_setup):
    """At the seed the plane part cancels and only the domain forcing
    survives: grad = r (id-Lap)^{-1} grad F(r Z) as a loop."""
    sys2, _, Z, _ = pair_setup
    disk = UnitDisk()
    r = 0.1
    g = rd.grad_J_r(sys2, disk, r, Z)
    m = lp.dealias_samples(M)
    pts = lp.sample(Z, m)
    forcing = lp.from_samples(r * core.grad_F(sys2, disk, r * pts), M)
    expect = lp.inv_id_minus_laplace(forcing)
    assert lp.h1_norm(g - expect) < 1e-12


def test_grad_at_seed_vanishes_with_r(pair_setup):
    sys2, _, Z, _ = pair_setup
    disk = UnitDisk()
    norms = [lp.h1_norm(rd.grad_J_r(sys2, disk, r, Z))
             for r in (0.2, 0.1, 0.05)]
    assert norms[0] < 1e-2
    assert all(n2 < 0.5 * n1 for n1, n2 in zip(norms, norms[1:]))


_RESIDUAL_SEEDS = [lambda: eq.make_pair(1.0, 1.0, 2.0),
                   lambda: eq.make_pair(1.0, 3.0, 2.0),
                   lambda: eq.make_pair(-1.0, 0.5, 1.0),
                   lambda: eq.make_triangle(1.0, 2.0, 3.0, 1.0),
                   lambda: eq.make_triangle(1.0, -0.5, 2.0, 1.5)] + [
    lambda n=n: eq.make_thomson(n, 1.0, 1.0) for n in range(2, 7)]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(_RESIDUAL_SEEDS) - 1), modes=st.integers(1, 16),
       r=st.one_of(st.just(0.0), st.floats(1e-3, 0.3)),
       size=st.floats(-8, -1), seed=st.integers(0, 2**32 - 1))
def test_projected_residual_is_the_full_form_less_the_seed(which, modes, r,
                                                           size, seed):
    """projected_residual at y is the full-form grad_J_r at Z + v read in
    the basis, less the seed's plane residual, for pairs, triangles and
    Thomson rings 2-6 in the disk.  The full form carries terms of size
    |grad H0| along Z that cancel, so the two agree to a few eps times
    that: at most 3.7 eps over 3000 random draws of these ranges."""
    basis = rd.build_x_basis(eq.normalize_period(_RESIDUAL_SEEDS[which]()),
                             modes)
    y = np.random.default_rng(seed).normal(size=basis.dim)
    y *= 10.0**size / np.linalg.norm(y)
    disk = UnitDisk()
    got = rd.projected_residual(disk, r, basis, y)
    want = (basis.coords(rd.grad_J_r(basis.sys, disk, r, basis.Z + basis.to_loop(y)))
            - basis.coords(rd.grad_J_r(basis.sys, Plane(), 0.0, basis.Z)))
    scale = np.abs(core.grad_H0(basis.sys, basis.pts)).max()
    assert np.abs(got - want).max() <= 16 * np.finfo(float).eps * scale


# ---------------------------------------------------------------------------
# the operator on X

def test_x_basis_orthonormal(pair_setup):
    basis = pair_setup[3]
    G = basis.matrix.T @ (basis.weights[:, None] * basis.matrix)
    assert np.max(np.abs(G - np.eye(basis.dim))) < 1e-12
    # the odd modes 1, 3, ..., M - 1 less the phase direction
    assert basis.dim == 4 * 2 * (M // 2) - 1
    col_modes = _col_modes(basis)
    assert np.array_equal(np.unique(col_modes), np.arange(1, M, 2))
    assert np.abs(basis.coords(basis.zdot)).max() < 1e-12
    # first come the 4N - 1 columns of the complement of Z' in mode 1
    assert np.all(col_modes[:7] == 1) and col_modes[7] == 3
    for j in range(basis.dim):
        w = basis.column_loop(j)
        assert lp.h1_norm(lp.time_shift(np.pi, w) + w) < 1e-12


@pytest.mark.parametrize("seed", [eq.make_pair(1.0, 1.0, 2.0),
                                  eq.make_triangle(1.0, 2.0, 3.0, 1.0),
                                  eq.make_thomson(5, 1.0, 1.0)],
                         ids=["pair", "triangle", "thomson-5"])
def test_x_basis_mode_one_is_scipy_null_space(seed):
    """The mode-1 columns are the null space of the one-row Z' as
    scipy.linalg.null_space returns it, scaled to unit H^1 norm."""
    seed = eq.normalize_period(seed)
    n = seed.sys.n
    basis = rd.build_x_basis(seed, M)
    want = scipy.linalg.null_space(basis.zdot.coeffs[1:3].reshape(1, -1))
    got = basis.matrix[2 * n:6 * n, :4 * n - 1] * np.sqrt(
        basis.weights[2 * n:6 * n])[:, None]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_operator_plane_blocks(pair_setup):
    """At the seed the plane operator is well conditioned on the odd part."""
    basis = pair_setup[3]
    L = rd.assemble_L_r(Plane(), 0.0, basis)
    assert L.shape == (basis.dim, basis.dim)
    assert np.linalg.cond(L) < 1e3


def test_operator_matches_finite_differences(pair_setup):
    sys2, _, Z, basis = pair_setup
    disk = UnitDisk()
    r = 0.08
    L = rd.assemble_L_r(disk, r, basis)
    y = RNG.normal(size=basis.dim)
    y /= np.linalg.norm(y)
    w = basis.to_loop(y)
    epsv = 1e-6
    fd = (rd.grad_J_r(sys2, disk, r, Z + epsv * w).coeffs
          - rd.grad_J_r(sys2, disk, r, Z - epsv * w).coeffs) / (2 * epsv)
    fdc = basis.coords(lp.Loop(fd))
    assert np.linalg.norm(L @ y - fdc) / np.linalg.norm(fdc) < 1e-5


def test_h0_hessians_built_once_per_continuation(pair_setup, monkeypatch):
    """A continuation in either mode solves its grid, from r_max down, as
    one batch, and no other r.  A disk orbit is rigid, so every r of a
    continuation is resolved on the START_MODES basis: FixedPoint
    assembles the operators of every r in one call at Z, which evaluates
    hess_H0 once per continuation, and the batch ends with one full-form
    grad_J_r (the residual-tail check of every r).  A FixedPoint batch
    evaluates its projected residuals in one call before each step, none
    after the step the last stop accepts, so it makes as many calls as its
    longest solve takes steps.  Newton assembles only at its own iterate y,
    once per step and with one hess_H0 call each, y = 0 included, and
    evaluates one projected residual per iterate: the seed's and the
    accepted line-search trial's, which the stop test and the next step
    read."""
    _, pair, _, basis = pair_setup
    names = ("hess_H0", "assemble_L_r", "grad_J_r", "projected_residual")
    counts = dict.fromkeys(names, 0)
    solved_at = []
    solve = rd.solve_reduced
    monkeypatch.setattr(rd, "solve_reduced",
                        lambda *a, **k: solved_at.append(a[1]) or solve(*a, **k))

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kw):
            counts[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(owner, name, counted)

    count(core, "hess_H0")
    for name in names[1:]:
        count(rd, name)
    for mode in ("FixedPoint", "Newton"):
        params = rd.SolverParams(modes=M, mode=mode, r_points=4)
        counts.update(dict.fromkeys(counts, 0))
        solved_at.clear()
        path = rd.continue_path(pair, UnitDisk(), np.zeros(2), params)
        assert len(path.entries) == 4
        assert len(solved_at) == 1
        assert np.array_equal(solved_at[0], params.r_grid())
        assert counts["grad_J_r"] == 1
        if mode == "FixedPoint":
            assert counts["assemble_L_r"] == 1 and counts["hess_H0"] == 1
            assert counts["projected_residual"] == max(
                e.iterations for e in path.entries)
    counts.update(dict.fromkeys(counts, 0))
    sol = rd.solve_reduced(UnitDisk(), 0.1, basis,
                           rd.SolverParams(modes=M, mode="Newton"))
    assert sol.iterations == 2
    assert counts == {"hess_H0": 2, "assemble_L_r": 2, "grad_J_r": 1,
                      "projected_residual": 3}


def test_newton_evaluates_hess_H0_once_per_step(pair_setup, monkeypatch):
    """A Newton step from y = 0 assembles at the seed itself: its nodes
    pts + phi @ 0 are the seed's, so the operator equals the chord
    operator (y None) bit for bit, and the first step of a batch from y = 0
    evaluates hess_H0 on the seed's (m, 2N) nodes, not on one copy per r.
    Every assembly evaluates hess_H0 at its own nodes, so a solve makes one
    hess_H0 call per step, and a batch one per step of its longest solve:
    each step evaluates hess_H0 once, at every iterate still stepping."""
    basis = pair_setup[3]
    disk, zero = UnitDisk(), np.zeros(basis.dim)
    assert np.array_equal(rd.assemble_L_r(disk, 0.1, basis),
                          rd.assemble_L_r(disk, 0.1, basis, zero))
    calls = []  # the node shape of each hess_H0 call
    hess_H0 = core.hess_H0
    monkeypatch.setattr(core, "hess_H0",
                        lambda *a: calls.append(np.shape(a[1])) or hess_H0(*a))
    params = rd.SolverParams(modes=M, mode="Newton")
    cold = rd.solve_reduced(disk, 0.1, basis, params)
    assert cold.iterations >= 2 and len(calls) == cold.iterations
    calls.clear()
    batch = rd.solve_reduced(disk, [0.12, 0.1, 1e-3], basis, params)
    steps = [sol.iterations for sol in batch]
    assert steps[1] == cold.iterations and min(steps) < max(steps)
    assert len(calls) == max(steps)
    assert calls[0] == (len(basis.pts), 2 * basis.sys.n)  # the seed's nodes


def test_newton_stops_when_line_search_fails(pair_setup, monkeypatch):
    """A Newton step that no halving makes descend ends the solve with
    NoConvergence naming the line search, after one assembly, instead of
    taking step/256 and going on.  Here the operator's sign is flipped, so
    every step points uphill."""
    basis = pair_setup[3]
    real = rd.assemble_L_r
    assemblies = []

    def flipped(*args, **kw):
        assemblies.append(1)
        return -real(*args, **kw)

    monkeypatch.setattr(rd, "assemble_L_r", flipped)
    with pytest.raises(NoConvergence, match="line search failed at r=0.1"):
        rd.solve_reduced(UnitDisk(), 0.1, basis,
                         rd.SolverParams(modes=M, mode="Newton"))
    assert len(assemblies) == 1


def test_newton_halves_a_trial_step_that_leaves_the_domain(pair_setup,
                                                           monkeypatch):
    """A line-search trial whose residual raises DomainError is halved like
    one that does not descend, and the halved step is taken.  Here the
    first trial, the full step from the seed (y = 0), raises; the solve
    still reaches the solution of an undisturbed one."""
    basis = pair_setup[3]
    params = rd.SolverParams(modes=M, mode="Newton")
    clean = rd.solve_reduced(UnitDisk(), 0.1, basis, params)
    residual, assemble = rd.projected_residual, rd.assemble_L_r
    trials, bases = [], []

    def failing_residual(*args):
        trials.append(args[-1])
        if len(trials) == 2:  # 1 is the seed's residual, 2 the full step
            raise DomainError("injected")
        return residual(*args)

    monkeypatch.setattr(rd, "projected_residual", failing_residual)
    monkeypatch.setattr(rd, "assemble_L_r", lambda *a, **k:
                        bases.append(k["y"]) or assemble(*a, **k))
    sol = rd.solve_reduced(UnitDisk(), 0.1, basis, params)
    seed, full, half = trials[:3]
    assert not seed.any() and bases[0] is None
    assert np.array_equal(bases[1], half)
    assert np.allclose(half, 0.5 * full, rtol=0, atol=1e-15)
    assert lp.h1_norm(sol.v - clean.v) <= 1e-9


def test_result_containers_compare_by_identity(pair_setup, small_path):
    """Containers that hold arrays compare by identity and hash by it, as
    equilibria.MonodromyReport does; == never raises on them."""
    _, pair, _, basis = pair_setup
    disk = UnitDisk()
    sol = small_path.entries[0]
    twins = [
        [rd.solve_reduced(disk, 0.1, basis, rd.SolverParams(modes=M))
         for _ in range(2)],
        [rd.unrescale(np.zeros(2), sol.r, sol.u, 8, disk) for _ in range(2)],
        [rd.ContinuationPath(np.zeros(2), [sol], {}) for _ in range(2)],
        [basis, rd.build_x_basis(pair, M)],
    ]
    for a, b in twins:
        assert a == a and a != b and not a == b
        assert len({a, a, b}) == 2


def test_operator_symmetric(pair_setup):
    basis = pair_setup[3]
    L = rd.assemble_L_r(UnitDisk(), 0.1, basis)
    assert np.max(np.abs(L - L.T)) < 1e-12


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
    O(r^2 |z|^2).  The odd basis holds no constant loop, so the operator
    has no D block: it is read here off the nodes, as the mean of F''.
    """
    sys2, pair, _, basis = pair_setup
    disk, n = UnitDisk(), sys2.n
    expect = (sys2.nonzero_total()**2 / n) * core.hess_h(disk, np.zeros(2))
    pts = pair.z[0::2] + 1j * pair.z[1::2]
    c4 = 3 * abs(np.sum(sys2.gammas * pts**2))**2 / (np.pi * n)

    def d0(r):
        fmats = core.hess_F(sys2, disk, r * basis.pts)
        return fmats.mean(axis=0).reshape(n, 2, n, 2).sum(axis=(0, 2)) / n

    for r in (0.1, 0.02):
        lead = c4 * r**4
        assert np.max(np.abs(d0(r) - expect - lead * np.eye(2))) < 1e-3 * lead
    assert np.max(np.abs(d0(1e-3) - expect)) < 1e-6
    # below r = 1e-4 the r^4 term is under 1e-15: only roundoff is left, and
    # it must not grow like eps / r^2
    for r in (1e-4, 1e-5):
        assert np.max(np.abs(d0(r) - expect)) <= 1e-12


def _reference_operator(sys, domain, r, modes, base):
    """Per-column assembly of L_r, kept as the reference for the Gram form.

    Each unit coefficient column, scaled to unit H^1 norm, is sampled,
    multiplied by H_r''(base) at the nodes, projected back by rFFT, added to
    -J M w', smoothed by (id-Lap)^{-1} and read in H^1 coordinates.  The
    result is L over all coefficients, even modes and constants included.
    """
    n = sys.n
    w = lp.h1_weight_vector(n, modes)
    m = lp.dealias_samples(modes)
    base_pts = lp.sample(base, m)
    fmats = (core.hess_F(sys, domain, r * base_pts) if r > 0
             else np.zeros((m, 2 * n, 2 * n)))
    hmats = core.hess_H0(sys, base_pts) - r**2 * fmats
    jm = sys.j_n() * sys.m_gamma_diag()

    def image(hm, col):
        u = lp.Loop(col.reshape(2 * modes + 1, 2 * n))
        nonlin = lp.from_samples(
            -np.einsum("tij,tj->ti", hm, lp.sample(u, m)), modes)
        lin = lp.Loop(-lp.differentiate(u).coeffs @ jm.T)
        return lp.inv_id_minus_laplace(lin + nonlin).coeffs.ravel()

    unit = np.diag(1 / np.sqrt(w))
    L = unit @ (w[:, None] * np.column_stack([image(hmats, c) for c in unit]))
    return 0.5 * (L + L.T)


@pytest.mark.parametrize("modes", [1, 4, 16])
@pytest.mark.parametrize("make", [lambda: eq.make_pair(1.0, 1.0, 2.0),
                                  lambda: eq.make_triangle(1.0, 2.0, 3.0, 1.0)],
                         ids=["pair", "triangle123"])
def test_operator_is_the_derivative_of_the_projected_residual(make, modes):
    """assemble_L_r at y0 equals central differences of projected_residual
    in y, column by column, relative to its largest entry.  At the seed and
    at a Newton iterate of norm 0.05, step 1e-5 leaves a truncation of
    1.8e-12 at most, under a tolerance of 1e-10.

    From 3 modes on, one more y0 sets mode 3 to -(1 - 1e-4) times mode 1,
    so at t = 0 the vortices are at 1e-4 Z(0): 8.0e-5 apart for the pair,
    1.4e-4 at the closest for the triangle.  An odd base, where H0'' repeats
    after half a period only to roundoff; a test on H0'' refused it.  At 4
    modes cond(A) is 5.3e9 (pair) and 1.7e10 (triangle), under MAX_COND.
    The truncation error, h^2 times the third derivative, grows like
    1/distance^2 there: 2.5e-3 (pair) and 8.9e-4 (triangle) of max|L| at
    step 1e-5, falling as h^2 to 2.5e-7 and 9.0e-8 at step 1e-7, while the
    roundoff, about 2.5e-16/h, is 2.5e-9.  So step 1e-7, tolerance 1e-6.

    Each case is checked in the disk and in the cubic domain, about whose
    centre H_r is not even, so F'' there mixes odd and even modes."""
    basis = rd.build_x_basis(eq.normalize_period(make()), modes)
    r = 0.1
    y = np.random.default_rng(modes).normal(size=basis.dim)
    cases = [(np.zeros(basis.dim), 1e-5, 1e-10),
             (0.05 * y / np.linalg.norm(y), 1e-5, 1e-10)]
    if modes >= 3:
        c = np.zeros_like(basis.Z.coeffs)
        c[5] = -(1 - 1e-4) * basis.Z.coeffs[1]  # the cosine of mode 3
        cases.append((basis.coords(lp.Loop(c)), 1e-7, 1e-6))
    for (y0, h, tol), domain in itertools.product(
            cases, [UnitDisk(), _CubicDomain(1.0)]):
        L = rd.assemble_L_r(domain, r, basis, y0)
        fd = np.column_stack([
            (rd.projected_residual(domain, r, basis, y0 + h * e)
             - rd.projected_residual(domain, r, basis, y0 - h * e)) / (2 * h)
            for e in np.eye(basis.dim)])
        assert np.abs(L - fd).max() <= tol * np.abs(L).max()


@pytest.mark.parametrize("modes", [8, 16])
@pytest.mark.parametrize("gammas,make", [
    ((1.0, 1.0), lambda: eq.make_pair(1.0, 1.0, 2.0)),
    ((1.0, 2.0, 3.0), lambda: eq.make_triangle(1.0, 2.0, 3.0, 1.0)),
], ids=["pair", "triangle123"])
def test_operator_matches_per_column_reference(gammas, make, modes):
    """At the rigid seed Z(t + pi) = -Z(t), and at a Newton iterate y, base
    Z + v with v = to_loop(y) in the odd part of X, too.  In the disk about
    0 the Hessians along an odd base repeat after half a period, so the
    reference L over all coefficients, built from that Loop, couples odd
    and even modes only by roundoff, and its odd block read in the X basis
    is the operator at y."""
    vs = VortexSystem(list(gammas))
    seed = eq.normalize_period(make())
    basis = rd.build_x_basis(seed, modes)
    Z = basis.Z
    y = np.random.default_rng(modes).normal(size=basis.dim)
    y = 0.05 * y / np.linalg.norm(y)
    odd = (np.arange(basis.weights.size) // (2 * vs.n) + 1) // 2 % 2 == 1
    coords = np.sqrt(basis.weights)[:, None] * basis.matrix  # in unit columns
    disk = UnitDisk()
    for r in (0.0, 0.1, 1e-3):
        for y0 in (None, y):
            op = rd.assemble_L_r(disk, r, basis, y0)
            base = Z if y0 is None else Z + basis.to_loop(y0)
            L = _reference_operator(vs, disk, r, modes, base)
            tol = 1e-13 * np.max(np.abs(L))
            assert np.abs(L[np.ix_(odd, ~odd)]).max() <= tol
            assert np.max(np.abs(op - coords.T @ L @ coords)) <= tol


def test_singular_operator_guard(pair_setup, monkeypatch):
    """At r = 1e-3, L is the plane operator at the seed up to O(r^2).  On a
    mode k >= 2 the plane operator of the equal pair has eigenvalues
    +-k/(1+k^2): the rotation term -J M w' smoothed by (id-Lap)^{-1}.  The
    largest |eigenvalue| is 1, on the seed direction in mode 1: H0 is
    log-homogeneous, so H0''(Z) Z = -grad H0(Z), the equilibrium gives
    grad H0(Z) = -J M Z' = -Z, and -J M Z' - H0''(Z) Z = -2Z is halved by
    (id-Lap)^{-1}.  So cond(A) is
    (1+K^2)/K for the top mode K of the basis: 82/9 = 9.11 on the odd part
    of X (K = M - 1).  A MAX_COND of 5 trips the guard."""
    basis = pair_setup[3]
    disk = UnitDisk()
    A = rd.assemble_L_r(disk, 1e-3, basis)
    top = _col_modes(basis).max()
    assert top == M - 1
    assert rd._sym_cond(A) == pytest.approx(np.linalg.cond(A), rel=1e-10)
    assert rd._sym_cond(A) == pytest.approx((1 + top**2) / top, rel=1e-6)
    monkeypatch.setattr(rd, "MAX_COND", 5)
    with pytest.raises(SingularOperator, match=r"cond\(A\)=9\.111e\+00"):
        rd.assemble_L_r(disk, 1e-3, basis)


def test_continuation_solves_about_the_point_its_search_finds(pair_setup):
    """continue_path takes a guess of a0 and solves about the point
    find_critical_point_h finds from it.  The search stops after a step of
    at most CRITICAL_STEP_TOL = 1e-10, and that last step lands exactly on
    the centre: from (1e-9, 0) and (0.3, 0) in the disk, and from (0.1, 0)
    in the quadratic domain diag(3, 5), whose first step lands on -1.4e-17.
    Each path's a0 is the search's point, and every r converges, to the
    path from the guess 0 within an O(delta) bound, delta = |a0| (h has its
    critical point at 0 in both domains), so here to the bit.  Moving a0 by
    delta moves the field of H_r at each node by at most r |F''| delta
    sqrt(N), its L^2 norm over the period by sqrt(2 pi) times that, the
    residual's coordinates in the H^1-orthonormal columns by at most that,
    and the solution by |L^-1| times as much, to first order; the bound is
    twice this."""
    sys2, pair = pair_setup[:2]
    params = rd.SolverParams(modes=8, r_points=4)
    for domain, guess in [(UnitDisk(), [1e-9, 0.0]), (UnitDisk(), [0.3, 0.0]),
                          (SyntheticQuadratic(np.diag([3.0, 5.0])), [0.1, 0.0])]:
        a0 = core.find_critical_point_h(domain, np.array(guess)).point
        centred = rd.continue_path(pair, domain, np.zeros(2), params)
        path = rd.continue_path(pair, domain, np.array(guess), params)
        assert np.array_equal(path.a0, a0)
        assert not path.failures and len(path.entries) == 4
        delta = np.linalg.norm(a0)
        for e, e0 in zip(path.entries, centred.entries):
            basis = rd.build_x_basis(pair, e0.v.modes)
            L = rd.assemble_L_r(domain, e0.r, basis, basis.coords(e0.v))
            nodes = e0.r * lp.sample(e0.u, lp.dealias_samples(e0.u.modes))
            f2 = np.linalg.norm(core.hess_F(sys2, domain, nodes), 2,
                                axis=(-2, -1)).max()
            bound = (2 * e0.r * f2 * delta * np.sqrt(2 * np.pi * sys2.n)
                     / np.abs(np.linalg.eigvalsh(L)).min())
            assert e.r == e0.r
            assert lp.h1_norm(e.v - e0.v) <= bound


def test_center_of_vorticity_identity(pair_setup):
    """P_D[(id-Lap)^{-1} F''(0)[Z]] = 0 for a mean-free seed."""
    sys2, _, Z, _ = pair_setup
    disk = UnitDisk()
    hess0 = core.hess_F(sys2, disk, np.zeros(4))
    img = lp.Loop(Z.coeffs @ hess0.T)
    out = lp.project_D(lp.inv_id_minus_laplace(img))
    assert lp.h1_norm(out) < 1e-10


# ---------------------------------------------------------------------------
# reduced solve

def test_plane_solution_is_zero(pair_setup):
    basis = pair_setup[3]
    sol = rd.solve_reduced(Plane(), 0.1, basis,
                           rd.SolverParams(modes=M))
    assert sol.vnorm < 1e-12
    assert sol.residual_grad < 1e-12


def test_disk_solution_diagnostics(pair_setup):
    basis = pair_setup[3]
    sol = rd.solve_reduced(UnitDisk(), 0.1, basis,
                           rd.SolverParams(modes=M))
    assert sol.residual_grad < 1e-10
    assert sol.phase_defect < 1e-10
    assert abs(lp.h1_inner(sol.v, basis.zdot)) < 1e-10
    assert sol.residual_tail <= rd.tail_bound(M)
    assert 0 < sol.vnorm < 1e-3


def test_fixedpoint_newton_agree(pair_setup):
    basis = pair_setup[3]
    fp = rd.solve_reduced(UnitDisk(), 0.15, basis,
                          rd.SolverParams(modes=M))
    nw = rd.solve_reduced(UnitDisk(), 0.15, basis,
                          rd.SolverParams(modes=M, mode="Newton"))
    assert lp.h1_norm(fp.v - nw.v) < 1e-9


@settings(max_examples=20, deadline=None)
@given(g1=st.floats(0.5, 2.0), ratio=st.floats(0.5, 2.0),
       sign=st.sampled_from([1.0, -1.0]), r=st.floats(1e-3, 0.2))
def test_fixedpoint_newton_agree_on_random_pairs(g1, ratio, sign, r):
    """Both solvers find the same v to 1e-9 in H^1 (acceptance criterion
    3's bound), over same-sign pairs in the disk at modes 8."""
    g = (sign * g1, sign * g1 * ratio)
    seed = eq.normalize_period(eq.make_pair(g[0], g[1], 2.0))
    basis = rd.build_x_basis(seed, 8)
    fp, nw = (rd.solve_reduced(UnitDisk(), r, basis,
                               rd.SolverParams(modes=8, mode=mode))
              for mode in ("FixedPoint", "Newton"))
    assert lp.h1_norm(fp.v - nw.v) <= 1e-9


_BATCH_SEEDS = {"pair": eq.make_pair(1.0, 1.0, 2.0),
                "triangle": eq.make_triangle(1.0, 2.0, 3.0, 1.0),
                "thomson-3": eq.make_thomson(3, 1.0, 1.0)}
# from r = 1.5, where each seed's orbit fails (DomainError, which refuses a
# whole batch, or the contraction guard or Newton's line search, which
# refuse their own r), down to 1e-3, where one step converges
_BATCH_GRID = np.r_[1.5, 1.2, np.geomspace(0.5, 1e-3, 6)]


@pytest.fixture(scope="module")
def alone():
    """Per seed and solver, each r of _BATCH_GRID solved as a batch of one:
    its ReducedSolution or the exception that refused it."""
    out = {}
    for name, seed in _BATCH_SEEDS.items():
        basis = rd.build_x_basis(eq.normalize_period(seed), rd.START_MODES)
        for mode in ("FixedPoint", "Newton"):
            params = rd.SolverParams(modes=8, mode=mode)
            for r in _BATCH_GRID:
                try:
                    out[name, mode, r] = rd.solve_reduced(UnitDisk(), r, basis, params)
                except (CollisionError, ContractionFailure, DomainError,
                        NoConvergence, PhaseDefect, SingularOperator) as exc:
                    out[name, mode, r] = exc
    return out


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(_BATCH_SEEDS)),
       mode=st.sampled_from(["FixedPoint", "Newton"]),
       rs=st.lists(st.sampled_from(list(_BATCH_GRID)), min_size=1,
                   max_size=len(_BATCH_GRID), unique=True))
def test_batch_results_do_not_depend_on_the_batch(alone, name, mode, rs):
    """Whatever r share a batch, and in whatever order, each r gets what a
    solve of it alone gives: the same exception type where it is refused,
    and otherwise the same steps and vnorm to 1e-12 relative.  Every r
    starts from v = 0, and a refusal that names no r splits the batch."""
    basis = rd.build_x_basis(eq.normalize_period(_BATCH_SEEDS[name]),
                             rd.START_MODES)
    batch = rd.solve_reduced(UnitDisk(), np.array(rs), basis,
                             rd.SolverParams(modes=8, mode=mode))
    assert len(batch) == len(rs)
    for r, got in zip(rs, batch):
        want = alone[name, mode, r]
        assert type(got) is type(want)
        if isinstance(want, rd.ReducedSolution):
            assert got.r == r and got.iterations == want.iterations
            assert got.vnorm == pytest.approx(want.vnorm, rel=1e-12, abs=0)


@pytest.mark.parametrize("points", [3, 6, 10])
@pytest.mark.parametrize("seed", [
    eq.make_pair(1.0, 1.0, 2.0), eq.make_pair(1.0, 3.0, 2.0),
    eq.make_triangle(1.0, 2.0, 3.0, 1.0), eq.make_thomson(3, 1.0, 1.0),
], ids=["pair-1-1", "pair-1-3", "triangle-1-2-3", "thomson-3"])
def test_fixedpoint_and_newton_continue_to_the_same_orbits(seed, points):
    """Newton tests its stop after each step, as FixedPoint does, and each
    r starts from v = 0, so neither solver hands one r's orbit on as
    another's.  Down a continuation in the disk at 8 modes both solvers
    converge at every r and agree to 1e-2 relative H^1 (measured: 5.9e-7
    at most, on the triangle's 10-point grid)."""
    seed = eq.normalize_period(seed)
    fp, nw = (rd.continue_path(seed, UnitDisk(), np.zeros(2),
                               rd.SolverParams(modes=8, mode=mode,
                                               r_points=points))
              for mode in ("FixedPoint", "Newton"))
    assert not fp.failures and not nw.failures
    for a, b in zip(fp.entries, nw.entries, strict=True):
        assert a.r == b.r
        assert lp.h1_norm(a.v - b.v) <= 1e-2 * lp.h1_norm(a.v)


@pytest.mark.parametrize("seed", [eq.make_pair(1.0, 1.0, 2.0),
                                  eq.make_triangle(1.0, 2.0, 3.0, 1.0)],
                         ids=["pair", "triangle"])
def test_newton_steps_from_a_start_at_the_solution(seed):
    """In a quadratic domain grad F is 2 gamma_k A times the centre of
    vorticity, which is 0 along the seed, so v = 0 solves at every r and
    the projected residual at the cold start is 0 (the equal pair) or
    roundoff (the triangle, whose centre is 0 to rounding).  Newton's step
    from there cannot lower it, but its trial meets the stop and is
    taken: one step at each r, and nothing fails."""
    path = rd.continue_path(
        eq.normalize_period(seed), SyntheticQuadratic([[3.0, 0.0], [0.0, 5.0]]),
        np.zeros(2), rd.SolverParams(modes=8, mode="Newton", r_points=3))
    assert not path.failures
    assert [e.iterations for e in path.entries] == [1, 1, 1]
    assert max(e.vnorm for e in path.entries) <= 1e-14


@pytest.mark.parametrize("r, steps", [(0.1, 2), (1e-3, 1)])
def test_newton_iterations_count_steps(r, steps, pair_setup, monkeypatch):
    """Newton's `iterations` is the number of steps taken, and it assembles
    the operator once per step. At r = 1e-3 the equal pair's correction is
    r^4/pi^2 = 1.0e-13 and the seed residual is already below
    SOLVE_TOL = 1e-11, but Newton tests its stop only after a step, so it
    takes one and does not return the seed itself."""
    basis = pair_setup[3]
    assemblies = []
    assemble = rd.assemble_L_r
    monkeypatch.setattr(rd, "assemble_L_r",
                        lambda *a, **k: assemblies.append(1) or assemble(*a, **k))
    sol = rd.solve_reduced(UnitDisk(), r, basis,
                           rd.SolverParams(modes=M, mode="Newton"))
    assert sol.iterations == len(assemblies) == steps


@pytest.mark.parametrize("mode, solver", [("FixedPoint", "fixed point"),
                                          ("Newton", "Newton")])
def test_max_iter_ends_the_solve(mode, solver, pair_setup, monkeypatch):
    """Each solver takes more than one step on the equal pair at r = 0.1
    (Newton takes 2, test_newton_iterations_count_steps), so a MAX_ITER of
    1 ends either with NoConvergence."""
    basis = pair_setup[3]
    monkeypatch.setattr(rd, "MAX_ITER", 1)
    with pytest.raises(NoConvergence,
                       match=f"{solver} not converged in 1 iterations at r=0.1"):
        rd.solve_reduced(UnitDisk(), 0.1, basis,
                         rd.SolverParams(modes=M, mode=mode))


@pytest.mark.parametrize("mode", ["FixedPoint", "Newton"])
def test_last_allowed_step_is_tested(mode, pair_setup, monkeypatch):
    """A MAX_ITER equal to the steps a solve takes still converges, to the
    same v in the same steps: the stop is tested after the last allowed
    step in either mode (the equal pair at r = 0.1 takes 2 Newton steps)."""
    basis = pair_setup[3]
    params = rd.SolverParams(modes=M, mode=mode)
    free = rd.solve_reduced(UnitDisk(), 0.1, basis, params)
    monkeypatch.setattr(rd, "MAX_ITER", free.iterations)
    capped = rd.solve_reduced(UnitDisk(), 0.1, basis, params)
    assert capped.iterations == free.iterations
    assert np.array_equal(capped.v.coeffs, free.v.coeffs)


@pytest.mark.parametrize("mode, measure", [("FixedPoint", "step norm"),
                                           ("Newton", "residual")])
def test_max_iter_message_names_the_norm_after_the_last_step(
        mode, measure, pair_setup, monkeypatch):
    """With MAX_ITER = 1 a cold solve takes one full step from the seed,
    y1 = -A^{-1} P_X grad J_r(Z) with A assembled at Z (Newton's line
    search accepts it), and reports the norm its stop reads after that
    step: FixedPoint the step's, Newton the projected residual at y1."""
    basis, r = pair_setup[3], 0.1
    grad = rd.grad_J_r(basis.sys, UnitDisk(), r, basis.Z)
    A = rd.assemble_L_r(UnitDisk(), r, basis)
    y1 = -np.linalg.solve(A, basis.coords(grad))
    after = {"step norm": np.linalg.norm(y1),
             "residual": np.linalg.norm(basis.coords(rd.grad_J_r(
                 basis.sys, UnitDisk(), r, basis.Z + basis.to_loop(y1))))}
    monkeypatch.setattr(rd, "MAX_ITER", 1)
    with pytest.raises(NoConvergence, match=re.escape(
            f"({measure} {after[measure]:.3e} after the last step)")):
        rd.solve_reduced(UnitDisk(), r, basis,
                         rd.SolverParams(modes=M, mode=mode))


def test_solver_equivariance(pair_setup):
    sys2, pair, Z, basis = pair_setup
    params = rd.SolverParams(modes=M)
    base = rd.solve_reduced(UnitDisk(), 0.1, basis, params)
    theta = np.pi / 2
    shifted = rd.build_x_basis(
        eq.RelativeEquilibrium(sys2, Z.eval(theta), pair.omega), M)
    sol = rd.solve_reduced(UnitDisk(), 0.1, shifted, params)
    assert lp.h1_norm(sol.v - lp.time_shift(theta, base.v)) < 1e-9


def test_local_uniqueness_probe(pair_setup):
    basis = pair_setup[3]
    params = rd.SolverParams(modes=M)
    sol = rd.solve_reduced(UnitDisk(), 0.1, basis, params)
    report = rd.local_uniqueness_probe(
        UnitDisk(), 0.1, basis, params, sol,
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
    basis = rd.build_x_basis(th, M)

    def sigma_act(u):
        """(sigma u)(t)_j = u_{j-1}(t + 2 pi/3), indices mod 3."""
        c = lp.time_shift(2 * np.pi / 3, u).coeffs.reshape(2 * M + 1, 3, 2)
        return lp.Loop(c[:, [2, 0, 1], :].reshape(2 * M + 1, 6))

    for mode in ("FixedPoint", "Newton"):
        params = rd.SolverParams(modes=M, mode=mode)
        sol = rd.solve_reduced(UnitDisk(), 0.1, basis, params)
        assert lp.h1_norm(sigma_act(sol.v) - sol.v) <= 1e-10
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
    seed = eq.normalize_period(eq.make_pair(g[0], g[1], 2.0))
    params = rd.SolverParams()
    return k, params, rd.continue_path(seed, UnitDisk(), np.zeros(2), params)


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
    to 1e-3 for r <= 5e-3.  Every r starts from v = 0, so the first
    fixed-point step is v itself up to O(|v|^2), of norm vnorm(r), and the
    frozen operator leaves a second step smaller by a factor O(|v|): one
    iteration when vnorm is within SOLVE_TOL, two when it is not.  Noise in
    the solve would show in both."""
    _, _, path = disk_path
    rs, vs = _r_and_vnorm(path)
    c = vs[rs <= 5e-3] / rs[rs <= 5e-3] ** 4
    assert np.max(np.abs(c / np.median(c) - 1)) <= 1e-3
    iters = np.array([e.iterations for e in path.entries])
    small = rs < 3e-3
    assert np.all(iters[small & (vs < 0.9 * rd.SOLVE_TOL)] == 1)
    assert np.all(iters[small & (vs > 1.1 * rd.SOLVE_TOL)] == 2)
    assert np.all(iters[small] <= 2)


# ---------------------------------------------------------------------------
# continuation and unrescaling

@pytest.fixture(scope="module")
def small_path(pair_setup):
    params = rd.SolverParams(modes=M, r_points=12)
    return rd.continue_path(pair_setup[1], UnitDisk(), np.zeros(2), params)


def test_continuation_all_points(small_path):
    assert len(small_path.entries) == 12
    assert not small_path.failures
    assert all(e.residual_grad < 1e-10 for e in small_path.entries)


def test_continuation_vnorm_monotone(small_path):
    rs, vs = _r_and_vnorm(small_path)
    mask = rs <= 0.05
    assert np.all(np.diff(vs[mask]) < 0)


def test_domain_exit_is_recorded(pair_setup):
    """Continued from r = 1.5 the orbit of the equal pair leaves the disk:
    r = 1.5 fails with the core's DomainError naming the first sample outside,
    r = 1.204 fails the contraction guard, and the four r values from 0.9666
    down converge."""
    params = rd.SolverParams(modes=M, r_max=1.5, r_min=0.5, r_points=6)
    path = rd.continue_path(pair_setup[1], UnitDisk(), np.zeros(2), params)
    grid = params.r_grid()
    assert np.array_equal(_r_and_vnorm(path)[0], grid[2:])
    assert sorted(path.failures) == sorted(grid[:2])
    msg = path.failures[1.5]
    assert msg.startswith("DomainError: ") and re.search(r"at sample \d+$", msg)
    assert path.failures[grid[1]].startswith("ContractionFailure: ")


class _QuarticDomain(core.SyntheticQuadratic):
    """g(w, z) = w.z + (w_x z_x)^2 / 2 on the plane: even about 0, so the
    orbits are odd, but not rotation-invariant, so with growing r they
    carry mass beyond mode 1."""

    def g(self, w, z):
        w, z = np.broadcast_arrays(w, z)
        return super().g(w, z) + 0.5 * (w[..., 0] * z[..., 0]) ** 2

    def g_w(self, w, z):
        w, z = np.broadcast_arrays(w, z)
        out = super().g_w(w, z)
        out[..., 0] += w[..., 0] * z[..., 0] ** 2
        return out

    def g_ww(self, w, z):
        w, z = np.broadcast_arrays(w, z)
        out = np.zeros(w.shape + (2,))
        out[..., 0, 0] = z[..., 0] ** 2
        return out

    def g_wz(self, w, z):
        w, z = np.broadcast_arrays(w, z)
        out = super().g_wz(w, z)
        out[..., 0, 0] += 2 * w[..., 0] * z[..., 0]
        return out


class _CubicDomain(core.SyntheticQuadratic):
    """g(w, z) = w.z + c (w_x z_x)(w_x + z_x) on the plane, symmetric in w
    and z: h(p) = |p|^2 + 2c p_x^3 has a nondegenerate critical point at 0,
    about which it is not even."""

    def __init__(self, c):
        super().__init__()
        self.c = c

    def g(self, w, z):
        w, z = np.broadcast_arrays(w, z)
        wx, zx = w[..., 0], z[..., 0]
        return super().g(w, z) + self.c * wx * zx * (wx + zx)

    def g_w(self, w, z):
        w, z = np.broadcast_arrays(w, z)
        out = super().g_w(w, z)
        out[..., 0] += self.c * z[..., 0] * (2 * w[..., 0] + z[..., 0])
        return out

    def g_ww(self, w, z):
        w, z = np.broadcast_arrays(w, z)
        out = np.zeros(w.shape + (2,))
        out[..., 0, 0] = 2 * self.c * z[..., 0]
        return out

    def g_wz(self, w, z):
        w, z = np.broadcast_arrays(w, z)
        out = super().g_wz(w, z)
        out[..., 0, 0] += 2 * self.c * (w[..., 0] + z[..., 0])
        return out


def test_residual_tail_guard_records_the_r(pair_setup):
    """Under a cap of 8 modes the residual tail above mode 8 is 6.3e-7 at
    r = 0.5, far above tail_bound(8) = 5.9e-13, while at r = 0.05 and 0.005
    it is at most 4.8e-15: only r = 0.5 is under-resolved, and its failure
    names the tail and the mode count."""
    params = rd.SolverParams(modes=8, r_max=0.5, r_min=0.005, r_points=3)
    path = rd.continue_path(pair_setup[1], _QuarticDomain(), np.zeros(2),
                            params)
    assert list(path.failures) == [0.5]
    assert re.match(r"NoConvergence: residual tail \S+ above 5\.882e-13 at 8 "
                    r"modes, r=0\.5$", path.failures[0.5])
    assert np.array_equal(_r_and_vnorm(path)[0], params.r_grid()[1:])
    assert all(e.u.modes == 8 and e.residual_tail <= rd.tail_bound(8)
               for e in path.entries)


def test_adaptive_modes_match_the_cap_basis(pair_setup):
    """Solved from START_MODES under the default cap of 32, each r of the
    quartic domain gives the orbit of a solve on the 32-mode basis alone to
    1e-12 relative H^1 (measured: 5e-14 at most).  At r = 0.5 the tail is
    6.3e-7 at 8 modes and 2.4e-12 at 16, above tail_bound(16) = 3.0e-13, so
    M doubles twice past START_MODES; at r = 0.05 it stops at 8."""
    pair = pair_setup[1]
    start = rd.build_x_basis(pair, rd.START_MODES)
    full = rd.build_x_basis(pair, 32)
    params = rd.SolverParams()
    modes = {}
    for r in (0.5, 0.2, 0.05):
        adaptive = rd.solve_reduced(_QuarticDomain(), r, start, params)
        alone = rd.solve_reduced(_QuarticDomain(), r, full, params)
        assert lp.h1_norm(adaptive.u - alone.u) <= 1e-12 * lp.h1_norm(alone.u)
        modes[r] = adaptive.u.modes
    assert modes == {0.5: 32, 0.2: 16, 0.05: 8}


def test_split_batch_halves_double_their_modes(pair_setup, monkeypatch):
    """A batch that splits on SingularOperator solves each half on its own,
    and each half doubles its mode count from START_MODES as the r in it
    ask: in the quartic domain r = 0.5, 0.2 and 0.05 reach 32, 16 and 8
    modes.  An operator stack that holds r = 0.1 is refused, so the batch
    (0.5, 0.2, 0.1, 0.05) splits into (0.5, 0.2), which doubles to 32, and
    (0.1, 0.05), which splits again: r = 0.1 is refused alone and 0.05
    doubles to 8.  Each other r gets what a solve of it alone gives, to
    roundoff: the same steps and modes, and vnorm to 1e-12 relative."""
    pair, bad = pair_setup[1], 0.1
    start, params = rd.build_x_basis(pair, rd.START_MODES), rd.SolverParams()
    alone = {r: rd.solve_reduced(_QuarticDomain(), r, start, params)
             for r in (0.5, 0.2, 0.05)}
    assemble = rd.assemble_L_r

    def refusing(domain, r, *args, **kw):
        if np.any(np.asarray(r) == bad):
            raise SingularOperator("injected")
        return assemble(domain, r, *args, **kw)
    monkeypatch.setattr(rd, "assemble_L_r", refusing)
    batch = rd.solve_reduced(_QuarticDomain(), [0.5, 0.2, bad, 0.05], start, params)
    assert isinstance(batch[2], SingularOperator)
    got = {sol.r: sol for sol in batch[:2] + batch[3:]}
    assert {r: sol.u.modes for r, sol in got.items()} == {0.5: 32, 0.2: 16, 0.05: 8}
    for r, want in alone.items():
        assert got[r].iterations == want.iterations
        assert got[r].u.modes == want.u.modes
        assert got[r].vnorm == pytest.approx(want.vnorm, rel=1e-12, abs=0)


@pytest.mark.parametrize("modes, r, tail, bound", [
    (4, 0.2, r"1\.18\de-05", r"1\.111e-12"),
    (1, 0.05, r"9\.17\de-07", r"3\.333e-12"),
], ids=["cap4", "cap1"])
def test_solve_reduced_owns_the_residual_tail_verdict(modes, r, tail, bound,
                                                      pair_setup):
    """Under a cap of 4 modes the converged v at r = 0.2 has vnorm 8.749e-4
    against 8.743e-4 at 32 modes; its residual tail above mode 4 shows it,
    and solve_reduced itself refuses it, naming the tail and M.  At one
    mode the tail window, modes 2 and 3, holds the odd mode 3, so the
    one-mode solution at r = 0.05 is refused too."""
    pair = pair_setup[1]
    basis = rd.build_x_basis(pair, modes)
    with pytest.raises(NoConvergence, match=f"^residual tail {tail} above "
                       f"{bound} at {modes} modes, r={r}$"):
        rd.solve_reduced(_QuarticDomain(), r, basis, rd.SolverParams(modes=modes))


def test_one_mode_cap_continues_in_the_disk(pair_setup):
    """The disk's orbits are rigid, so a cap of 1 mode resolves them: the
    tail window, modes 2 and 3, holds the odd mode 3, and reads roundoff.
    Every r converges, on one mode, and each orbit re-integrates to the
    `validate` defaults (rtol 1e-10, closure within 1e-6)."""
    pair = pair_setup[1]
    params = rd.SolverParams(modes=1, r_points=3)
    path = rd.continue_path(pair, UnitDisk(), np.zeros(2), params)
    assert not path.failures and len(path.entries) == 3
    for e in path.entries:
        assert e.u.modes == 1 and e.residual_tail <= rd.tail_bound(1)
        orbit = rd.unrescale(np.zeros(2), e.r, e.u, 64, UnitDisk())
        report = dyn.validate_orbit(pair.sys, UnitDisk(), orbit)
        assert report["closure_error"] <= 1e-6


@pytest.mark.parametrize("domain, a0", [
    (HalfPlane(), [0.0, 0.5]),
    (SyntheticQuadratic([[3.0, 0.0], [0.0, 5.0]]), [0.0, 0.0]),
    (_QuarticDomain(), [0.0, 0.0]),
], ids=["halfplane", "quadratic 3,0;0,5", "quartic"])
def test_a_domain_without_a_centre_validates_in_the_lab_frame(domain, a0,
                                                              pair_setup):
    """A domain that is not invariant under rotation declares no centre
    (the quadratic one not even at A = I, which the quartic domain
    inherits), so `validate_orbit` re-integrates its orbits in the lab
    frame: its report equals (==) the closure and defect of the lab-frame
    run to the samples.  The half plane has no orbits of its own; a disk
    orbit placed in it is re-integrated all the same."""
    assert domain.centre is None
    pair = pair_setup[1]
    basis = rd.build_x_basis(pair, rd.START_MODES)
    solved = UnitDisk() if domain.variant == "halfplane" else domain
    sol = rd.solve_reduced(solved, 0.05, basis, rd.SolverParams())
    orbit = rd.unrescale(np.array(a0), sol.r, sol.u, 64, domain)
    report = dyn.validate_orbit(pair.sys, domain, orbit)
    traj = dyn.integrate(pair.sys, domain, 1.0, orbit.samples[0],
                         orbit.period, rtol=1e-10, atol=1e-12,
                         t_eval=np.append(orbit.times, orbit.period))
    assert report == {
        "closure_error": float(np.linalg.norm(
            traj.states[-1] - orbit.samples[0])),
        "max_pointwise_defect": float(np.max(np.linalg.norm(
            traj.states[:-1] - orbit.samples, axis=-1)))}


def test_colliding_loop_names_the_sample(pair_setup):
    """z1 = (cos t, 0) and z2 = -z1 meet where cos t = 0; on the m = 84
    nodes of M = 10 the first is sample 21, t = 2 pi 21/84 = pi/2."""
    sys2 = pair_setup[0]
    c = np.zeros((2 * M + 1, 4))
    c[1] = [1.0, 0.0, -1.0, 0.0]
    assert lp.dealias_samples(M) == 84
    with pytest.raises(CollisionError, match=r"at sample 21$"):
        rd.grad_J_r(sys2, UnitDisk(), 0.1, lp.Loop(c))


def test_seed_that_is_no_equilibrium_is_refused(pair_setup, monkeypatch):
    """The iterates drop the seed's plane residual -J M Z' - grad H0(Z), so
    each basis checks it by the rule `equilibrium` certifies with:
    residual_HS0 at most residual_bound, RESIDUAL_TOL kappa.  The equal pair
    shrunk by sqrt(1 + 1e-8) turns at an omega 1e-8 faster than the frame
    it is given: it leaves 1e-8 and is refused before any solve.  The
    triangle (-0.416, 1.127, -0.71), whose total 0.001 is small against
    its vorticities (kappa = 2253), leaves 1.9e-13 from roundoff alone and
    is accepted."""
    pair = pair_setup[1]
    bent = eq.RelativeEquilibrium(pair.sys, pair.z / np.sqrt(1 + 1e-8),
                                  pair.omega)
    monkeypatch.setattr(rd, "solve_reduced", lambda *a, **k: pytest.fail())
    with pytest.raises(DegenerateFrame, match=r"not a relative equilibrium "
                       r"of its system: plane residual 1\.00\de-08 of grad "
                       r"H0, above 1\.000e-13$"):
        rd.continue_path(bent, UnitDisk(), np.zeros(2), rd.SolverParams())
    assert eq.residual_HS0(bent) > eq.residual_bound(bent.sys)
    tri = eq.normalize_period(eq.make_triangle(-0.416, 1.127, -0.71, 1.0))
    basis = rd.build_x_basis(tri, 4)
    assert basis.modes == 4


def test_zero_vorticity_rejected():
    """A zero-sum seed built by hand (a (1, -1) pair turns at no rate, so
    make_pair cannot give one) is refused before any basis is built."""
    seed = eq.RelativeEquilibrium(VortexSystem([1.0, -1.0]),
                                  [1.0, 0.0, -1.0, 0.0], 1.0)
    with pytest.raises(ZeroTotalVorticity):
        rd.continue_path(seed, UnitDisk(), np.zeros(2), rd.SolverParams(modes=M))


def test_degenerate_a0_is_refused_before_any_solve(pair_setup, monkeypatch):
    """h(p) = p.A p with A = diag(1, 1e-12) has a degenerate critical point
    at 0: cond(h''(0)) = 1e12 is past 1/CRITICAL_SV_RATIO = 1e10, so the
    continuation raises SingularOperator once, before any solve."""
    solves = []
    monkeypatch.setattr(rd, "solve_reduced", lambda *a, **k: solves.append(a))
    with pytest.raises(SingularOperator, match="^critical point of the "
                       "regular part is degenerate$"):
        rd.continue_path(pair_setup[1], SyntheticQuadratic([[1, 0], [0, 1e-12]]),
                         np.zeros(2), rd.SolverParams(modes=M))
    assert solves == []


@pytest.mark.parametrize("k", [-8, -9.9, -10, -10.1, -12])
def test_a0_rule_is_the_critical_point_verdict(k, pair_setup, monkeypatch):
    """The continuation refuses a0 = 0 of h(p) = p.A p, A = diag(1, 10^k),
    exactly when find_critical_point_h calls it degenerate: both read
    cond(h''(0)) = 10^-k < 1/CRITICAL_SV_RATIO, so they agree either side
    of the edge and at k = -10, the edge itself.  An accepted a0 reaches
    the solve, here stubbed to fail each r."""
    domain = SyntheticQuadratic(np.diag([1.0, 10.0**k]))
    crit = core.find_critical_point_h(domain, np.zeros(2))
    assert crit.nondegenerate == (k > -10)

    def failing_solve(domain, r, *args, **kw):
        return [NoConvergence("stub") for _ in r]
    monkeypatch.setattr(rd, "solve_reduced", failing_solve)
    params = rd.SolverParams(modes=M, r_points=2)
    if crit.nondegenerate:
        path = rd.continue_path(pair_setup[1], domain, np.zeros(2), params)
        assert len(path.failures) == 2 and not path.entries
    else:
        with pytest.raises(SingularOperator, match="degenerate"):
            rd.continue_path(pair_setup[1], domain, np.zeros(2), params)


def test_continuation_solves_about_a0_itself(pair_setup):
    """A guess delta off the disk's centre, |grad h| = delta/pi <= 1e-10,
    is not taken for a0: find_critical_point_h steps from it, and the
    Newton step from a p with |p|^2 below eps is exactly -p, so the search
    returns the centre itself.  At delta = 1e-11 and 1e-10 the path's a0 is
    (0, 0), and every orbit is the centred run's, bit for bit."""
    pair = pair_setup[1]
    params = rd.SolverParams(modes=8, r_points=4)
    centred = rd.continue_path(pair, UnitDisk(), np.zeros(2), params)
    for delta in (1e-11, 1e-10):
        path = rd.continue_path(pair, UnitDisk(), np.array([delta, 0.0]), params)
        assert np.array_equal(path.a0, np.zeros(2))
        assert not path.failures and len(path.entries) == 4
        for e, e0 in zip(path.entries, centred.entries):
            assert e.r == e0.r and np.array_equal(e.v.coeffs, e0.v.coeffs)


def test_continuation_from_guesses_a_gradient_stop_accepted(pair_setup):
    """(2.5e-10, 0) and (3e-10, 0) have |grad h| = 8.0e-11 and 9.5e-11, so a
    stop at |grad h| <= 1e-10 would take them for a0, and their mode-0
    residual r F''(r u) a0, which the odd solve cannot remove, fails r = 0.2
    with PhaseDefect.  The search steps until its step is at most 1e-10:
    both guesses give a0 = (0, 0), and every r converges."""
    pair = pair_setup[1]
    params = rd.SolverParams(modes=4, r_points=4)
    for guess in ([2.5e-10, 0.0], [3e-10, 0.0]):
        path = rd.continue_path(pair, UnitDisk(), np.array(guess), params)
        assert np.array_equal(path.a0, np.zeros(2))
        assert not path.failures and len(path.entries) == 4


def test_cubic_domain_is_judged_by_the_full_gradient(pair_setup, monkeypatch):
    """About the nondegenerate critical point 0 of h(p) = |p|^2 + 2c p_x^3
    H_r is not even, and the odd subspace cannot hold the orbit: the seed
    keeps the pair's centre of vorticity at 0, so along r u the field of the
    cubic part is 2c r^3 G_k sum_j G_j x_j^2 in x, which lies in the even
    modes 0 and 2.  The odd solve converges to v = 0 (to roundoff), and the
    full gradient, which reads every mode, is c r^3 times a constant
    (1.1835 for the equal pair), constant to 1e-3 wherever it is above
    1e-13: below, the roundoff of about 1e-16 shows.  So exactly the r
    where it is under 10 SOLVE_TOL (vnorm + 1) converge, the others fail
    with PhaseDefect, and FixedPoint and Newton agree."""
    domain, p = _CubicDomain(0.1), np.array([0.3, -0.2])
    assert core.eval_h(domain, p) == pytest.approx(p @ p + 0.2 * p[0]**3)
    assert core.grad_h(domain, p) == pytest.approx(2 * p + [0.6 * p[0]**2, 0])
    pair = pair_setup[1]
    grad, last = rd.grad_J_r, {}

    def spy(sys, domain, r, u):  # the full gradient and vnorm of each r solved
        out = grad(sys, domain, r, u)
        modes = (u.modes - 1) // 2
        v = u.pad(modes) - lp.build_frame(pair.z, pair.omega, modes)
        last.update(zip(np.atleast_1d(r),
                        zip(lp.h1_norm(out.pad(modes)), lp.h1_norm(v))))
        return out
    monkeypatch.setattr(rd, "grad_J_r", spy)
    ratios = []
    for c in (1e-6, 1e-3, 0.1):
        paths = {}
        for mode in ("FixedPoint", "Newton"):
            params = rd.SolverParams(modes=8, r_points=8, mode=mode)
            last.clear()
            path = paths[mode] = rd.continue_path(
                pair, _CubicDomain(c), np.zeros(2), params)
            under = {r for r, (full, vnorm) in last.items()
                     if full <= 10 * rd.SOLVE_TOL * (vnorm + 1)}
            assert {e.r for e in path.entries} == under
            assert set(path.failures) == set(last) - under
            assert all(m.startswith("PhaseDefect: ") for m in path.failures.values())
            ratios += [full / (c * r**3) for r, (full, _) in last.items()
                       if full >= 1e-13]
        fixed, newton = paths["FixedPoint"].entries, paths["Newton"].entries
        assert [e.r for e in fixed] == [e.r for e in newton]
        for a, b in zip(fixed, newton):
            assert lp.h1_norm(a.v - b.v) <= 1e-15
            assert a.residual_grad == pytest.approx(b.residual_grad, rel=1e-12)
    assert len(ratios) > 20
    assert max(ratios) / min(ratios) - 1 <= 1e-3


def test_phase_component_of_the_gradient_is_refused(pair_setup, monkeypatch):
    """A gradient along Z', which the projected solve cannot see, lets the
    iteration converge but fails the full-gradient check."""
    basis = pair_setup[3]
    grad = rd.grad_J_r
    monkeypatch.setattr(rd, "grad_J_r",
                        lambda *args: grad(*args) + 1e-6 * basis.zdot)
    with pytest.raises(PhaseDefect, match="phase component did not vanish"):
        rd.solve_reduced(UnitDisk(), 0.1, basis, rd.SolverParams(modes=M))


def test_diverging_iterates_are_refused(pair_setup, monkeypatch):
    """In the quartic domain v has H^1 norm 5.5e-5 at r = 0.1; an operator
    1e12 times too small throws the first step far past max(10 eps_ball,
    1e3)."""
    basis = pair_setup[3]
    assemble = rd.assemble_L_r
    monkeypatch.setattr(rd, "assemble_L_r",
                        lambda *args, **kw: 1e-12 * assemble(*args, **kw))
    with pytest.raises(ContractionFailure, match="iterates diverge at r=0.1 "):
        rd.solve_reduced(_QuarticDomain(), 0.1, basis, rd.SolverParams(modes=M))


@pytest.mark.parametrize("modes", [4, 12])
def test_continuation_solves_at_params_modes(modes, pair_setup):
    """params.modes caps the truncation: continue_path solves each r first
    at START_MODES, or at the cap if that is fewer, and the disk's rigid
    orbits never ask for more, so every orbit has that order."""
    params = rd.SolverParams(modes=modes, r_points=3)
    path = rd.continue_path(pair_setup[1], UnitDisk(), np.zeros(2), params)
    assert len(path.entries) == 3
    order = min(rd.START_MODES, modes)
    assert all(e.u.modes == e.v.modes == order for e in path.entries)


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


@pytest.mark.parametrize("gammas", [(1.0, 1.0), (-1.0, -2.0), (1.0, -3.0)])
def test_unrescale_reads_the_sense_of_rotation_off_mode_1(gammas):
    """The seed Z(t) = exp(-omega J t) z turns counterclockwise for
    omega > 0 (J = J2 turns clockwise), and an orbit turns as its seed:
    `sense` is the sign of omega, read off u's mode-1 coefficients.  A
    loop without mode 1 has no sense."""
    seed = eq.normalize_period(eq.make_pair(*gammas, 1.0))
    Z = lp.build_frame(seed.z, seed.omega, 4)
    orbit = rd.unrescale(np.zeros(2), 0.01, Z, 16, Plane())
    assert orbit.sense == np.sign(seed.omega) != 0
    turned = np.arctan2(*orbit.samples[1, 1::-1]) - np.arctan2(
        *orbit.samples[0, 1::-1])
    assert np.sign(turned) == orbit.sense  # the first vortex, 1/16 turn on
    flat = lp.constant_loop(seed.z, 1)
    assert rd.unrescale(np.zeros(2), 0.01, flat, 4, Plane()).sense == 0


def test_unrescale_roundtrip(small_path):
    sol = small_path.entries[0]
    orbit = rd.unrescale(np.zeros(2), sol.r, sol.u, 32, UnitDisk())
    back = orbit.samples / sol.r
    expect = sol.u.eval(orbit.times / sol.r**2)
    assert np.max(np.abs(back - expect)) < 1e-10


def test_unrescale_rejects_an_orbit_outside_the_domain(small_path):
    sol = small_path.entries[0]
    with pytest.raises(DomainError, match="rescaled orbit leaves the domain"):
        rd.unrescale(np.array([0.99, 0.0]), sol.r, sol.u, 16, UnitDisk())


@pytest.mark.parametrize("samples", [0, -3])
def test_unrescale_rejects_no_samples(samples, pair_setup):
    with pytest.raises(ValueError, match="samples"):
        rd.unrescale(np.zeros(2), 0.1, pair_setup[2], samples, UnitDisk())


@pytest.mark.parametrize("r", [0.0, -0.1, np.nan, np.inf])
def test_unrescale_rejects_bad_r(r, pair_setup):
    with pytest.raises(ValueError, match="r must be finite and positive"):
        rd.unrescale(np.zeros(2), r, pair_setup[2], 16, UnitDisk())


@pytest.mark.parametrize("r", [1e-170, 1e-200, 1e160])
def test_unrescale_rejects_a_period_out_of_range(r, pair_setup):
    """A finite positive r whose period 2 pi r^2 underflows to 0 (r below
    about 1e-162) or overflows (above about 1e154) raises ValueError naming
    the period, before the phases t/r^2 divide by it."""
    with pytest.raises(ValueError, match=re.escape(
            "the period 2 pi r^2 must be finite and positive")):
        rd.unrescale(np.zeros(2), r, pair_setup[2], 16, UnitDisk())


@pytest.mark.parametrize("r", [-0.1, np.nan, np.inf])
def test_every_r_entry_rejects_bad_r(r, pair_setup):
    """core.check_r is the one rule for r: a negative or non-finite r raises
    ValueError in H_r, its gradient, the rescaled field, the action, the
    reduced gradient, the operator and both solvers, alone or in a stack."""
    sys2, _, Z, basis = pair_setup
    disk, z = UnitDisk(), np.array([0.3, 0.0, -0.3, 0.0])
    calls = [
        lambda: core.check_r(r),
        lambda: core.eval_Hr(sys2, disk, r, z),
        lambda: core.grad_Hr(sys2, disk, r, z),
        lambda: core.vortex_rhs(sys2, disk, z, r=r),
        lambda: rd.action_J_r(sys2, disk, r, Z),
        lambda: rd.grad_J_r(sys2, disk, r, Z),
        lambda: rd.assemble_L_r(disk, r, basis),
        lambda: rd.solve_reduced(disk, r, basis,
                                 rd.SolverParams(modes=M)),
        lambda: rd.solve_reduced(disk, r, basis,
                                 rd.SolverParams(modes=M, mode="Newton")),
    ]
    stack, pair = np.array([0.1, r]), lp.Loop(np.stack([Z.coeffs, Z.coeffs]))
    calls += [  # a stack of r is refused when any of its values is
        lambda: core.check_r(stack),
        lambda: core.grad_Hr(sys2, disk, stack, np.stack([z, z])),
        lambda: rd.grad_J_r(sys2, disk, stack, pair),
        lambda: rd.assemble_L_r(disk, stack, basis),
        lambda: rd.solve_reduced(disk, stack, basis, rd.SolverParams(modes=M)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="r must be finite and nonnegative"):
            call()


def test_orbit_file_roundtrip(small_path, pair_setup, tmp_path):
    sys2, pair, _, _ = pair_setup
    sol = small_path.entries[0]
    path = os.path.join(tmp_path, "orbit.json")
    rd.save_orbit(path, sys2, UnitDisk(), np.zeros(2), pair.omega, sol)
    vsys, domain, a0, r, u = rd.load_orbit(path)
    assert vsys == sys2 and domain.variant == "disk"
    assert np.array_equal(a0, np.zeros(2)) and r == sol.r
    assert u == sol.u  # same shape and coefficients, bit for bit
    with open(path) as fh:
        doc = json.load(fh)
    assert list(doc) == ["schema_version", "system", "domain", "a0", "r",
                         "omega_seed", "loop", "diagnostics"]
    assert doc["schema_version"] == rd.ORBIT_SCHEMA_VERSION
    assert doc["diagnostics"]["residual_grad"] == sol.residual_grad


def test_translated_domain_orbit_file_roundtrip(small_path, pair_setup,
                                                 tmp_path):
    """An orbit file names a TranslatedDomain as its base variant plus an
    offset param, and reads it back as the same regular part g."""
    sys2, pair, _, _ = pair_setup
    shifted = TranslatedDomain(UnitDisk(), [0.1, 0.0])
    path = os.path.join(tmp_path, "orbit.json")
    rd.save_orbit(path, sys2, shifted, np.zeros(2), pair.omega,
                  small_path.entries[0])
    domain = rd.load_orbit(path)[1]
    assert domain.variant == "disk+offset" and domain.params() == shifted.params()
    w, z = np.random.default_rng(7).uniform(-0.6, 0.6, (2, 16, 2))
    assert np.array_equal(domain.g(w, z), shifted.g(w, z))


def test_atomic_write_removes_its_temporary_file_when_rename_fails(
        tmp_path, monkeypatch):
    """If the rename fails, the error propagates, the temporary file is
    gone and the file already at the path is left as it was."""
    target = tmp_path / "orbit.json"
    target.write_text("old\n")

    def fail(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(PermissionError):
        rd.atomic_write(str(target), "new\n")
    assert os.listdir(tmp_path) == ["orbit.json"]
    assert target.read_text() == "old\n"


def test_atomic_write_applies_the_umask_and_leaves_no_temporary_file(
        small_path, pair_setup, tmp_path, monkeypatch):
    """Under umask 022 an orbit file is written 0644, as open(path, "w")
    would create it, and no temporary file is left beside it, also after a
    write that fails in the rename or in the text itself."""
    sys2, pair, _, _ = pair_setup
    path = tmp_path / "orbit.json"
    old = os.umask(0o022)
    try:
        rd.save_orbit(str(path), sys2, UnitDisk(), np.zeros(2), pair.omega,
                      small_path.entries[0])
        with pytest.raises(UnicodeEncodeError):
            rd.atomic_write(str(tmp_path / "text.txt"), "\udc80")
        monkeypatch.setattr(os, "replace", lambda src, dst: os.rename(
            src, os.path.join(src, "missing")))
        with pytest.raises(OSError, match="cannot write .*orbit.json"):
            rd.atomic_write(str(path), "new\n")
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o644
    assert os.listdir(tmp_path) == ["orbit.json"]


def test_orbit_schema_version_checked(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        json.dump({"schema_version": 99}, fh)
    with pytest.raises(ValueError):
        rd.load_orbit(path)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        rd.SolverParams(r_max=0.001, r_min=0.1)
    with pytest.raises(ValueError):
        rd.SolverParams(mode="bogus")
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="r_max must be finite and positive"):
            rd.SolverParams(r_max=bad)
    # unrescale's period rule: 2 pi r^2 neither underflows nor overflows
    for key, r in (("r_min", 1e-200), ("r_max", 1e200)):
        with pytest.raises(ValueError, match=re.escape(
                f"the period 2 pi {key}^2 must be finite and positive, got ")):
            rd.SolverParams(**{key: r})
    grid = rd.SolverParams().r_grid()
    assert grid[0] == pytest.approx(0.2) and grid[-1] == pytest.approx(1e-3)
    assert np.all(np.diff(grid) < 0)


@pytest.mark.parametrize("r_min", [1e-309, 1e-320])
def test_solver_params_reject_r_grid_ratio_that_overflows(r_min):
    with pytest.raises(ValueError, match=r"finite r_max / r_min, "
                       r"got r_max = 0\.2, r_min = 1e-3\d\d$"):
        rd.SolverParams(r_min=r_min)
