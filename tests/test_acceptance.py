"""Acceptance suite: one verdict line per criterion.

Each test evaluates every sub-check of its criterion, emits a single
ACCEPTANCE n: PASS/FAIL line (printed and repeated in the terminal
summary via conftest), and then asserts.
"""

import functools

import numpy as np
import pytest

import conftest
from nvortex import core, dynamics as dyn, equilibria as eq, loops as lp
from nvortex import reduction as rd
from nvortex.core import Plane, UnitDisk, VortexSystem


def _verdict(n: int, checks: dict):
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if failed:
        line += " (" + ", ".join(failed) + ")"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def pair_frame():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    frame = lp.build_frame(pair.z, pair.omega, 2, 32)
    return sys2, pair, frame


@pytest.fixture(scope="module")
def reference_path(pair_frame):
    """Reference continuation: unit disk, equal pair, defaults."""
    sys2, _, frame = pair_frame
    params = rd.SolverParams()  # modes=32, r grid 0.2 -> 1e-3, 30 points
    return params, rd.continue_path(sys2, UnitDisk(), np.zeros(2), frame,
                                    params)


def test_criterion_1_equilibrium_residuals():
    checks = {}
    pair = eq.make_pair(1.0, 1.0, 2.0)
    checks["pair residual"] = eq.residual_HS0(pair) <= 1e-10
    checks["pair omega"] = abs(
        pair.omega - (1.0 + 1.0) / (np.pi * 2.0**2)) <= 1e-12
    tri = eq.make_triangle(1.0, 2.0, 3.0, 1.0)
    checks["triangle residual"] = eq.residual_HS0(tri) <= 1e-10
    for n in range(2, 7):
        th = eq.make_thomson(n, 1.0, 1.0)
        checks[f"thomson {n} residual"] = eq.residual_HS0(th) <= 1e-10
    _verdict(1, checks)


def _multiplier_one_dims(rel_eq):
    """Geometric and algebraic multiplicity of the Floquet multiplier 1.

    In the rotating frame the linearized field of a normalized equilibrium
    is the constant generator B = M^-1 J_N H0''(z) + omega J_N, and the
    monodromy is W = expm(2pi B), since the frame has turned once by the end
    of the period.  W - I is singular exactly on the eigenvalues ik of B
    (k integer), and on each of their generalized eigenspaces it equals
    B - ik times an invertible factor, so both multiplicities are nullities
    of B^p and (B^2 + k^2)^p.  Ranks of B are used because powers of
    W - I are too noisy.
    """
    n = rel_eq.sys.n
    B = eq.rotating_generator(rel_eq)

    def nullity(A):
        sv = np.linalg.svd(A, compute_uv=False)
        return int(np.sum(sv < 1e-8 * sv[0]))

    # a Jordan block at 0 has size <= 2N; the conjugate blocks at +-ik have
    # equal sizes, so each is <= N; |k| is at most the spectral norm of B
    geometric = nullity(B)
    algebraic = nullity(np.linalg.matrix_power(B, 2 * n))
    for k in range(1, int(np.linalg.norm(B, 2)) + 1):
        shifted = B @ B + k**2 * np.eye(2 * n)
        geometric += nullity(shifted)
        algebraic += nullity(np.linalg.matrix_power(shifted, n))
    return geometric, algebraic


def test_criterion_2_nondegeneracy():
    checks = {}
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    checks["pair kernel 3"] = eq.monodromy(pair).kernel_dim == 3
    tri = eq.normalize_period(eq.make_triangle(1.0, 2.0, 3.0, 1.0))
    checks["triangle kernel 3"] = eq.monodromy(tri).kernel_dim == 3

    # Normalized to omega = 1, the equilateral triangle's B has eigenvalues
    # 0 twice (the phase direction and the scaling along the family),
    # +-i (the two translations, which rotate in this frame) and the shape
    # pair lambda^2 = -3L / Gamma^2.  For (1, 2, 3), lambda = +-0.957i, so
    # ker(W - I) is 3 and the generalized kernel is 2 + 2 = 4.  At L = 0
    # (Gamma = 1, 1, -1/2) the shape pair joins the zero eigenvalue while
    # ker B stays one-dimensional: B has one 4x4 nilpotent Jordan block
    # (nullities of B, B^2, B^3, B^4 are 1, 2, 3, 4).  The multiplier-1
    # eigenspace therefore stays 3-dimensional (1 + 2) and only the Jordan
    # chain lengthens: the generalized kernel of W - I is 4 + 2 = 6.  The
    # monodromy kernel count sees the geometric multiplicity alone, so the
    # CLI adds the algebraic triangle conditions to its verdict.
    zero_l = eq.normalize_period(eq.make_triangle(1.0, 1.0, -0.5, 1.0))
    zero_l_mono = eq.monodromy(zero_l)
    zero_l_geo, zero_l_alg = _multiplier_one_dims(zero_l)
    checks["L=0 kernel 3"] = zero_l_mono.kernel_dim == 3 and zero_l_geo == 3
    checks["L=0 generalized kernel 6"] = zero_l_alg == 6
    checks["triangle generalized kernel 4"] = \
        _multiplier_one_dims(tri) == (3, 4)
    zero_l_cond = eq.triangle_conditions(1.0, 1.0, -0.5)
    checks["L=0 verdict degenerate"] = not (
        zero_l_mono.nondegenerate and zero_l_cond.predicted_nondegenerate)

    # 20 vorticity triples, kept a margin away from the degeneracy set and
    # restricted to L > 0: for L < 0 the monodromy grows like exp(c sqrt(-L))
    # and its kernel cannot be resolved in double precision
    rng = np.random.default_rng(42)
    agree, count = True, 0
    while count < 20:
        g = rng.uniform(-2.0, 2.0, size=3)
        cond = eq.triangle_conditions(*g)
        margins = (abs(cond.gamma), cond.L,
                   abs(cond.L - cond.sumsq), *np.abs(g))
        if min(margins) <= 0.1:
            continue
        count += 1
        tri = eq.normalize_period(eq.make_triangle(*g, 1.0))
        mono = eq.monodromy(tri)
        agree &= mono.nondegenerate == cond.predicted_nondegenerate
    checks["grid agreement"] = agree
    _verdict(2, checks)


def test_criterion_3_block_operator_identities(pair_frame):
    sys2, _, frame = pair_frame
    disk = UnitDisk()
    checks = {}

    # On the unit disk h(p) = -(1/2pi) log(1 - |p|^2), so h''(0) = I/pi.
    hpp0 = np.eye(2) / np.pi
    checks["h''(0) closed form"] = np.max(np.abs(
        core.hess_h(disk, np.zeros(2)) - hpp0)) <= 1e-8

    # F(z) = sum_{j,k} G_j G_k g(z_j, z_k), the full ordered double sum of
    # the paper's Hamiltonian.  At z = 0, g_ww(0, 0) = 0 and the mixed block
    # is g_wz(0, 0) = I/(2pi) = h''(0)/2, so block (j, k) of F''(0) is
    # G_j G_k (g_wz + g_wz^T) = G_j G_k h''(0) for j != k, and
    # G_j^2 h''(0) + 2 G_j sum_{k != j} G_k g_ww = G_j^2 h''(0) for j = k:
    # F''(0) = kron(GG^T, h''(0)).  A factor 1/2 would belong to a
    # half-weighted F, which neither the paper nor eval_F uses.  Checked
    # against hess_F and against a central-difference Hessian of the energy
    # itself, Richardson-extrapolated from steps s and 2s: F is even and
    # analytic at 0, so the error is O(s^4) ~ 1e-12 plus rounding of order
    # 1e-16 |G|^2 / s^2 ~ 1e-10.
    def fd_hessian(f, dim, s):
        e = np.eye(dim)
        return np.array([[(f(s * (e[i] + e[j])) - f(s * (e[i] - e[j]))
                           - f(s * (e[j] - e[i])) + f(-s * (e[i] + e[j])))
                          / (4 * s * s) for j in range(dim)]
                         for i in range(dim)])

    f_ok = True
    for vsys in (sys2, VortexSystem([1.0, -0.5, 2.0])):
        dim = 2 * vsys.n
        full = np.kron(np.outer(vsys.gammas, vsys.gammas), hpp0)
        energy = functools.partial(core.eval_F, vsys, disk)
        fd = (4 * fd_hessian(energy, dim, 1e-3)
              - fd_hessian(energy, dim, 2e-3)) / 3
        f_ok &= np.max(np.abs(core.hess_F(vsys, disk, np.zeros(dim))
                              - full)) <= 1e-8
        f_ok &= np.max(np.abs(fd - full)) <= 1e-8
    checks["F'' full form"] = bool(f_ok)
    hess0 = core.hess_F(sys2, disk, np.zeros(4))

    # The D block is the mean over t of the F''(rZ(t)) form on the
    # normalized constant loops (c, ..., c)/sqrt(2pi N), and (id-Lap)^{-1}
    # is the identity on constants.  As r -> 0 it tends to F''(0) on them:
    # (1/N) sum_{j,k} G_j G_k h''(0) = (Gamma^2 / N) h''(0), approached at
    # the rate O(r^4) (test_d_block_limit_closed_form), ~1e-14 at r = 1e-3.
    basis = rd.build_x_basis(sys2, frame)
    op = rd.assemble_L_r(sys2, disk, 1e-3, frame, basis=basis)
    d0_limit = (sys2.gamma_total**2 / sys2.n) * hpp0
    checks["D0 full form"] = np.max(np.abs(op.d0_matrix - d0_limit)) <= 1e-8

    # the constant-mode projection of the smoothed F''(0) image of the
    # mean-free seed loop vanishes
    img = lp.Loop(frame.Z.coeffs @ hess0.T)
    out = lp.project_D(lp.inv_id_minus_laplace(img))
    checks["P_D identity"] = lp.h1_norm(out) <= 1e-10
    _verdict(3, checks)


def test_criterion_4_reduction_reference_run(pair_frame, reference_path):
    sys2, _, frame = pair_frame
    params, path = reference_path
    checks = {}
    n_grid = len(params.r_grid())
    good = [e for e in path.entries if e.residual_grad <= 1e-9]
    checks["80% converged"] = len(good) >= 0.8 * n_grid
    checks["phase defect"] = all(e.phase_defect <= 1e-8 for e in good)

    # Rate of the correction v.  Since grad J_0(Z) = 0, v answers the forcing
    # r grad F(rZ) in grad J_r(Z); expand it in r:
    #   r^1: grad F(0) = 0, as 0 is a critical point of h;
    #   r^2: F''(0) Z = G_j h''(0) sum_k G_k Z_k = 0, as Z(t) keeps its
    #        centre of vorticity at 0;
    #   r^3: F'''(0) = 0, as g(-w, -z) = g(w, z) on the disk makes F even.
    # The r^4 term survives.  In complex coordinates the disk gives
    # g(w, z) = -(1/4pi) log|1 - w conj(z)|^2, so
    # F(x) = (1/2pi) sum_{n>=1} |p_n(x)|^2 / n with p_n(x) = sum_j G_j x_j^n,
    # and the r^4 forcing is (r^4 / 4pi) grad|p_2|^2(Z), whose j-th entry is
    # (r^4 / pi) G_j p_2(Z) conj(Z_j).  Its mean over t vanishes (it turns
    # like Z), so the constant block, which is only O(r^2), is not excited.
    # For the normalized equal pair, Z_j = +-rho e^{it}, rho^2 = 1/(2pi),
    # p_2 = 2 rho^2 e^{2it}: the forcing is (2 rho^2 r^4 / pi) Z, along the
    # seed.  H0 is log-homogeneous (grad H0(sZ) = grad H0(Z) / s) and
    # Z' = -J_N Z, so u = (1 + a) Z meets it at first order with
    # a = rho^2 r^4 / pi.  Z is H1-orthogonal to Z', hence in X, and
    # ||Z||_H1 = sqrt(2pi * 2 * 2 rho^2) = 2, so
    #   vnorm = r^4 / pi^2 (1 + O(r^2)),
    # and the log-log slope is 4.
    rs = np.array([e.r for e in good])
    vs = np.array([e.vnorm for e in good])
    mask = (vs > 1e-13) & (rs <= 0.1)
    slope = np.polyfit(np.log(rs[mask]), np.log(vs[mask]), 1)[0]
    checks["slope in [3.9, 4.1]"] = 3.9 <= slope <= 4.1
    # 1e-3 leaves room for an O(r^2) correction with coefficient up to 0.1;
    # below r = 1e-2, vnorm < 1e-9 and rounding in the O(1) field starts to
    # show in the ratio (5e-4 at r = 1e-3)
    near = (rs >= 1e-2) & (rs <= 0.1)
    checks["vnorm/r^4 = 1/pi^2"] = bool(near.any()) and np.max(np.abs(
        vs[near] * np.pi**2 / rs[near]**4 - 1.0)) <= 1e-3

    fp = rd.solve_reduced(sys2, UnitDisk(), 0.1, frame, params)
    nw = rd.solve_reduced(sys2, UnitDisk(), 0.1, frame,
                          rd.SolverParams(mode="Newton"))
    checks["FixedPoint/Newton agree"] = lp.h1_norm(fp.v - nw.v) <= 1e-9
    _verdict(4, checks)


def test_criterion_5_physical_validation(pair_frame):
    sys2, _, frame = pair_frame
    disk = UnitDisk()
    params = rd.SolverParams()
    checks = {}
    for r in (0.1, 0.05, 0.02):
        sol = rd.solve_reduced(sys2, disk, r, frame, params)
        orbit = rd.unrescale(np.zeros(2), r, sol.u, 256, domain=disk)
        report = dyn.validate_orbit(sys2, disk, orbit, rtol=1e-12)
        checks[f"r={r} closure"] = report["closure_error"] <= 1e-6
        pts = orbit.samples.reshape(256, -1, 2)
        checks[f"r={r} in disk"] = bool(
            np.all(np.linalg.norm(pts, axis=-1) < 1.0))
        sep = min(core.min_separation(s) for s in orbit.samples)
        checks[f"r={r} separated"] = sep > 0.0
    _verdict(5, checks)


def test_criterion_6_uniqueness_probe(pair_frame):
    sys2, _, frame = pair_frame
    params = rd.SolverParams()
    sol = rd.solve_reduced(sys2, UnitDisk(), 0.1, frame, params)
    thetas = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    report = rd.local_uniqueness_probe(sys2, UnitDisk(), 0.1, frame, params,
                                       sol, thetas)
    _verdict(6, {"8-point theta mismatch": report["max"] <= 1e-8})


def test_criterion_7_numerical_hygiene(pair_frame):
    sys2, _, frame = pair_frame
    disk = UnitDisk()
    rng = np.random.default_rng(3)
    checks = {}

    # finite-difference consistency of the point-space derivatives
    z = np.array([0.4, 0.1, -0.3, 0.2])
    step = 1e-6
    for name, f, g in (("H0", lambda x: core.eval_H0(sys2, x),
                        lambda x: core.grad_H0(sys2, x)),
                       ("F", lambda x: core.eval_F(sys2, disk, x),
                        lambda x: core.grad_F(sys2, disk, x))):
        w = rng.normal(size=4)
        fd = (f(z + step * w) - f(z - step * w)) / (2 * step)
        an = g(z) @ w
        checks[f"{name} gradient FD"] = abs(fd - an) / abs(an) <= 1e-5
        hd = (g(z + step * w) - g(z - step * w)) / (2 * step)
        hess = core.hess_H0(sys2, z) if name == "H0" else core.hess_F(
            sys2, disk, z)
        checks[f"{name} hessian FD"] = (np.linalg.norm(hd - hess @ w)
                                        / np.linalg.norm(hess @ w)) <= 1e-5

    # loop gradient against the action
    u = frame.Z + lp.Loop(0.05 * rng.normal(size=frame.Z.coeffs.shape))
    w = lp.Loop(rng.normal(size=frame.Z.coeffs.shape))
    fd = (rd.action_J_r(sys2, disk, 0.08, u + step * w)
          - rd.action_J_r(sys2, disk, 0.08, u - step * w)) / (2 * step)
    an = lp.h1_inner(rd.grad_J_r(sys2, disk, 0.08, u), w)
    checks["action gradient FD"] = abs(fd - an) / abs(an) <= 1e-5

    # Parseval: the H1 norm computed from coefficients matches quadrature
    m = lp.dealias_samples(u.modes)
    t = lp.sample_times(m)
    vals, dvals = u.eval(t), lp.differentiate(u).eval(t)
    quad = 2 * np.pi / m * np.sum(vals**2 + dvals**2)
    checks["Parseval"] = abs(lp.h1_norm(u)**2 - quad) <= 1e-10 * quad

    # projections are idempotent and orthogonal; shifts preserve the norm
    pd = lp.project_D(u)
    checks["projection idempotent"] = lp.h1_norm(
        lp.project_D(pd) - pd) <= 1e-10
    checks["projection orthogonal"] = abs(
        lp.h1_inner(pd, u - pd)) <= 1e-10
    shifted = lp.time_shift(1.234, u)
    checks["shift isometry"] = abs(lp.h1_norm(shifted)
                                   - lp.h1_norm(u)) <= 1e-10

    # integrator drifts on a plane benchmark
    sys3 = VortexSystem([1.0, 2.0, 0.5])
    z0 = np.array([1.0, 0.0, -0.5, 0.8, 0.2, -0.9])
    traj = dyn.integrate(sys3, Plane(), "plane", z0, 10.0,
                         rtol=1e-12, atol=1e-12)
    inv = dyn.invariants_along(sys3, Plane(), traj)
    checks["energy drift"] = inv["energy_drift"] <= 1e-9
    checks["center drift"] = inv["center_of_vorticity_drift"] <= 1e-9
    checks["impulse drift"] = inv["angular_impulse_drift"] <= 1e-9
    _verdict(7, checks)
