"""Contraction-mapping reduction for small periodic orbits near an
interior equilibrium point of the regular part.

The rescaled problem looks for 2*pi-periodic loops u with

    M_Gamma u' = J_N grad H_r(u),      H_r(u) = H0(u) - F(ru),

as zeros of the H^1 gradient of the action

    J_r(u) = 1/2 int M_Gamma u' . J_N u  -  int H_r(u).

Writing u = Z + v with Z the rigidly rotating seed, the correction v is
found in the odd part of X, the H^1-orthogonal complement of the phase
direction Z' (v(t + pi) = -v(t), where the orbit lies if H_r is even about
a0; the full-form check of each solution judges the rest), either by the
frozen-Jacobian fixed-point iteration

    v  <-  v - L_r^{-1} [P_X grad J_r(Z + v)]

or by damped Newton, the same loop with L_r assembled at each iterate,
over a geometric grid of the scale parameter r solved as one batch.  The
iterates read P_X grad J_r in increment form about the seed, in the
coordinates of a basis sampled once per mode count, and each r is
solved at the fewest modes, doubling up to a cap, whose residual tail
shows the truncation to be resolved.
Un-rescaling z(t) = a0 + r u(t / r^2) produces orbits of the physical
system with period 2*pi*r^2.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import core, equilibria, loops
from .core import DomainModel, TranslatedDomain, VortexSystem
from .equilibria import RelativeEquilibrium
from .errors import (
    CollisionError,
    ContractionFailure,
    DegenerateFrame,
    DomainError,
    NoConvergence,
    PhaseDefect,
    SingularOperator,
)
from .loops import Loop

ORBIT_SCHEMA_VERSION = 1

# an operator whose condition number exceeds this raises SingularOperator
MAX_COND = 1e12
# the one stop, after each step: FixedPoint ends once the step it just took,
# Newton once the projected residual at its new iterate, has norm at most this
SOLVE_TOL = 1e-11
# each r is solved first at this many modes (or the cap, if smaller): 15
# columns for a pair, where the default cap's 32 modes are 127.  At a start
# of 1, 2 and 4 modes, in process (continue_path, default grid, medians of 12
# alternated runs, 2 vCPU), the default disk pair, whose orbits lie in mode
# 1, takes 4.0, 4.5 and 6.0 ms, and the (1, 3) pair in a quartic domain,
# whose orbits reach 16 modes, 34, 32 and 27 ms: 4 costs the disk 2 ms and
# saves the quartic 7.
START_MODES = 4
# either solver raises NoConvergence after this many steps
MAX_ITER = 200
# FixedPoint raises ContractionFailure after 3 straight step ratios above this
CONTRACTION_GUARD = 0.9


@dataclass(frozen=True)
class SolverParams:
    """The solver settings: each field is a [solver] key with its default."""

    modes: int = 32
    mode: str = "FixedPoint"  # or "Newton", in any case
    r_max: float = 0.2
    r_min: float = 1e-3
    r_points: int = 30

    def __post_init__(self):
        core.check_count(self.modes, "modes", 1)
        core.check_positive(self.r_max, "r_max")
        if not (0 < self.r_min < self.r_max
                and np.isfinite(self.r_max / self.r_min)):
            raise ValueError("r grid needs 0 < r_min < r_max and a finite "
                             f"r_max / r_min, got r_max = {self.r_max}, "
                             f"r_min = {self.r_min}")
        for name in ("r_min", "r_max"):  # unrescale's rule for the period
            r = getattr(self, name)
            core.check_positive(2 * np.pi * (r * r), f"the period 2 pi {name}^2")
        core.check_count(self.r_points, "r_points", 2)
        mode = {"fixedpoint": "FixedPoint", "newton": "Newton"}.get(
            str(self.mode).lower())
        if mode is None:
            raise ValueError(f"unknown solver mode {self.mode!r}")
        object.__setattr__(self, "mode", mode)  # the canonical spelling

    def r_grid(self) -> np.ndarray:
        """Geometric sequence from r_max down to r_min."""
        return np.geomspace(self.r_max, self.r_min, self.r_points)


# the result containers hold arrays: they compare by identity, as
# equilibria.MonodromyReport does
@dataclass(frozen=True, eq=False)
class ReducedSolution:
    r: float
    v: Loop
    u: Loop
    residual_grad: float
    phase_defect: float
    vnorm: float
    iterations: int
    residual_tail: float


@dataclass(frozen=True, eq=False)
class PhysicalOrbit:
    period: float
    times: np.ndarray
    samples: np.ndarray  # (m, 2N)


@dataclass(eq=False)
class ContinuationPath:
    a0: np.ndarray  # the critical point of h the path is solved about
    entries: list  # ReducedSolution, r descending
    failures: dict  # r -> message


# ---------------------------------------------------------------------------
# action and gradient

def _symplectic_term(sys: VortexSystem, u: Loop) -> float:
    """1/2 int M u' . J u, exact in the Fourier coefficients."""
    mj = sys.m_gamma_diag()[:, None] * sys.j_n()
    a, b = u.coeffs[1::2], u.coeffs[2::2]
    k = np.arange(1, u.modes + 1)
    return float(np.pi * np.sum(k * np.einsum("kd,dc,kc->k", b, mj, a)))


def action_J_r(sys: VortexSystem, domain: DomainModel, r: float,
               u: Loop) -> float:
    """Action of the rescaled system; H0/F terms by trapezoidal quadrature."""
    pts = loops.sample(u, loops.dealias_samples(u.modes))
    ham = core.eval_Hr(sys, domain, r, pts)
    return _symplectic_term(sys, u) - 2 * np.pi * float(np.mean(ham))


def grad_J_r(sys: VortexSystem, domain: DomainModel, r,
             u: Loop) -> Loop:
    """H^1 gradient: (id-Lap)^{-1} of the L^2 field -J M u' - grad H_r(u),
    with grad H_r read from core.grad_Hr, the vector field's own; for a
    stack of R values r, u is a stack of R loops.

    The core checks raise CollisionError or DomainError naming the first bad
    sample i, at t = 2 pi i/m on the m = dealias_samples(modes) nodes.
    """
    pts = loops.sample(u, loops.dealias_samples(u.modes))
    field = -core.grad_Hr(sys, domain, r, pts)
    jm = sys.j_n() * sys.m_gamma_diag()
    lin = Loop(-loops.differentiate(u).coeffs @ jm.T)
    return loops.inv_id_minus_laplace(lin + loops.from_samples(field, u.modes))


def projected_residual(domain: DomainModel, r, basis: XBasis,
                       y: np.ndarray) -> np.ndarray:
    """basis.coords of grad_J_r at Z + v, v = basis.to_loop(y), less the
    seed's plane residual -J M Z' - grad H0(Z), which is 0 in exact
    arithmetic (build_x_basis checks it).  Read in H^1 the weight
    pi(1+k^2) of mode k cancels (id-Lap)^{-1}, and loops.from_samples, the
    projection onto the modes <= M, is the trapezoid rule on the m nodes,
    so over the sampled basis phi this is

        rot y + (2 pi/m) sum_t phi_t^T f_t,
        f = -(grad H0(Z + v) - grad H0(Z)) + r grad F(r (Z + v))  at the nodes,

    with the bracket from core.grad_H0_increment, so no O(1) terms cancel
    and the residual stays accurate relative to |v| as r -> 0.  For a
    stack of R values r, y holds R rows."""
    core.check_r(r)
    r, dv = np.asarray(r, dtype=float)[..., None, None], basis.at_nodes(y)
    field = -core.grad_H0_increment(basis.sys, basis.pts, dv)
    if r.any():
        field = field + r * core.grad_F(basis.sys, domain, r * (basis.pts + dv))
    phi = basis.phi.reshape(-1, basis.dim)
    return y @ basis.rot.T + (2 * np.pi / len(basis.pts)) * (
        field.reshape(y.shape[:-1] + (-1,)) @ phi)


# ---------------------------------------------------------------------------
# the X-space basis and the preconditioned operator

@dataclass(frozen=True, eq=False)
class XBasis:
    """The seed of the solver: the period-normalized equilibrium `seed`, its
    loop Z (a one-mode rotation) and zdot = Z', with the H^1-orthonormal
    basis of the odd part of X = (R Z')^perp, the loops of X with
    u(t + pi) = -u(t), as flattened columns.  weights is the diagonal H^1
    Gram in flat coordinates.  On the m = dealias_samples(modes) nodes, pts
    is Z and phi is the basis, phi[t] @ y = v(t) for v = to_loop(y), so the
    residual and the operator at y both read the nodes pts + at_nodes(y); rot
    is the linear term -J M d/dt read in the basis.  coords, to_loop and
    at_nodes (phi @ y) take stacks.
    """

    seed: RelativeEquilibrium
    Z: Loop
    zdot: Loop
    matrix: np.ndarray  # (dim_total, dim_X)
    weights: np.ndarray
    pts: np.ndarray  # (m, 2N)
    phi: np.ndarray  # (m, 2N, dim_X)
    rot: np.ndarray  # (dim_X, dim_X)

    @property
    def sys(self) -> VortexSystem:
        return self.seed.sys

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def modes(self) -> int:
        return self.Z.modes

    def coords(self, u: Loop) -> np.ndarray:
        c = u.pad(self.modes).coeffs
        return (self.weights * c.reshape(c.shape[:-2] + (-1,))) @ self.matrix

    def to_loop(self, y: np.ndarray) -> Loop:
        return Loop((y @ self.matrix.T).reshape(y.shape[:-1] + self.Z.coeffs.shape))

    def at_nodes(self, y: np.ndarray) -> np.ndarray:
        return (y @ self.phi.reshape(-1, self.dim).T).reshape(y.shape[:-1] + self.pts.shape)

    def column_loop(self, j: int) -> Loop:
        return Loop(self.matrix[:, j].reshape(self.Z.coeffs.shape))


def build_x_basis(seed: RelativeEquilibrium, modes: int) -> XBasis:
    """The basis about the seed loop Z = loops.build_frame of the
    period-normalized `seed` at `modes` modes, mode by mode: the complement
    of Z' in mode 1 (the SVD null space scipy.linalg.null_space returns),
    then the unit coefficients of each odd mode k >= 3, all scaled to unit
    H^1 norm; with them, Z and the basis on the dealias nodes, and
    rot = -pi B^T (D x J M) B for the basis matrix B and the derivative D
    on the coefficient rows.  The iterates drop the seed's plane residual,
    so a seed whose residual_HS0 exceeds equilibria.residual_bound raises
    DegenerateFrame, as does one that is not period-normalized
    (ZeroTotalVorticity for a zero-sum seed)."""
    bound = equilibria.residual_bound(seed.sys)
    Z = loops.build_frame(seed.z, seed.omega, modes)
    residual = equilibria.residual_HS0(seed)
    if not residual <= bound:
        raise DegenerateFrame(
            f"the seed is not a relative equilibrium of its system: plane "
            f"residual {residual:.3e} of grad H0, above {bound:.3e}")
    n, zdot, m = Z.n, loops.differentiate(Z), loops.dealias_samples(modes)
    pts = loops.sample(Z, m)
    w = loops.h1_weight_vector(n, modes)
    flat_modes = (np.arange(w.size) // (2 * n) + 1) // 2
    high = np.flatnonzero((flat_modes % 2 == 1) & (flat_modes >= 3))
    k1 = 4 * n - 1  # columns in mode 1
    mat = np.zeros((w.size, k1 + high.size))
    mat[2 * n:6 * n, :k1] = np.linalg.svd(zdot.coeffs[1:3].reshape(1, -1))[2][1:].T
    mat[high, k1 + np.arange(high.size)] = 1.0
    mat /= np.sqrt(w)[:, None]
    # the columns side by side as one loop of 2N * dim_X coordinates
    cols = mat.reshape(2 * modes + 1, -1)
    phi = (loops.synthesis_matrix(modes, m) @ cols).reshape(m, 2 * n, -1)
    dcols = loops.differentiate(Loop(cols)).coeffs.reshape(2 * modes + 1, 2 * n, -1)
    jm = seed.sys.j_n() * seed.sys.m_gamma_diag()
    rot = -np.pi * mat.T @ (jm @ dcols).reshape(w.size, -1)
    return XBasis(seed=seed, Z=Z, zdot=zdot, matrix=mat, weights=w, pts=pts,
                  phi=phi, rot=rot)


def _sym_cond(a: np.ndarray):
    """2-norm condition number of (a stack of) symmetric matrices, max|lambda|/min|lambda|."""
    lam = np.abs(np.linalg.eigvalsh(a))
    low = lam.min(-1)
    return np.divide(lam.max(-1), low, out=np.full(low.shape, np.inf), where=low > 0)


def assemble_L_r(domain: DomainModel, r, basis: XBasis,
                 y: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of P_X DPhi_r at the coordinates y over the X basis: the
    derivative in y of projected_residual, whose field has Jacobian
    -H_r''(u_t) at its nodes u_t = pts_t + phi_t y, so

        L = rot - (2 pi/m) sum_t phi_t^T H_r''(u_t) phi_t,

    symmetrized; SingularOperator if its condition exceeds MAX_COND.  A
    stack of R values r (y None or (R, dim)) gives a stack of R operators,
    refused if any is.  The odd part of X holds no constant loop, so the
    translation block, which reads the nondegeneracy of a0 (checked by
    continue_path), is not in L.  y None is the seed, whose nodes are pts.
    """
    core.check_r(r)
    r = np.asarray(r, dtype=float)
    # projected_residual's nodes, bit for bit
    pts = basis.pts if y is None else basis.pts + basis.at_nodes(y)
    hmats = core.hess_H0(basis.sys, pts)
    if r.any():
        s = r[..., None, None]
        hmats = hmats - (s**2)[..., None] * core.hess_F(basis.sys, domain, s * pts)
    hmats = np.broadcast_to(hmats, r.shape + hmats.shape[-3:])  # r = 0 reads no F''

    phi = basis.phi.reshape(-1, basis.dim)
    hphi = (hmats @ basis.phi).reshape(r.shape + phi.shape)
    L = basis.rot - (2 * np.pi / len(basis.pts)) * (phi.T @ hphi)
    L = 0.5 * (L + np.swapaxes(L, -1, -2))  # DPhi_r is H^1 self-adjoint; symmetrize roundoff
    cond = _sym_cond(L)
    if np.any(cond > MAX_COND):
        raise SingularOperator(
            f"ill-conditioned reduced operator: cond(A)={np.max(cond):.3e}")
    return L


# ---------------------------------------------------------------------------
# reduced solve

def tail_bound(modes: int) -> float:
    """The most residual tail an M-mode solution may leave: SOLVE_TOL/(2M+1).

    The tail is the H^1 norm above mode M of grad J_r at u padded to 2M+1
    modes.  Every mode above 1 lies wholly in X, so the tail is the part of
    the padded problem's projected residual that the M-mode solve cannot
    see, and the step a solve on 2M+1 modes would take from the padded u is
    about L^{-1} of it.  On mode k the operator is the rotation term
    (id-Lap)^{-1} J M d/dt, of size k/(1+k^2), plus O(1/k^2), so |L^{-1}|
    grows like the top mode 2M+1 (7.2, 15.1, 31.1 and 63.0 at 8, 16, 32 and
    64 modes for the equal pair).  A tail at this bound thus asks for a step
    of about SOLVE_TOL, the size at which FixedPoint stops."""
    return SOLVE_TOL / (2 * modes + 1)


def _converge(domain: DomainModel, r: np.ndarray, basis: XBasis, newton: bool,
              y: np.ndarray) -> tuple:
    """The solve loop on one basis for the stack r from the coordinates y,
    (R, dim): per r its last iterate, steps, and None or its refusal.  Each
    r has its own stop, strikes, guards and MAX_ITER.  FixedPoint assembles
    once, at the seed (y None), Newton at each iterate's y, and at the seed
    while every y is 0, whose operator it is bit for bit; each assembly
    evaluates hess_H0 once, and neither solver builds a Loop.
    FixedPoint evaluates projected_residual once before each step, none
    after its last; Newton once per line-search trial, and its stop and
    next step read the accepted one."""
    import scipy.linalg  # slow import; only a solve needs the LU
    res = projected_residual(domain, r, basis, y)
    y, steps, refusals = y.copy(), np.zeros(len(r), int), [None] * len(r)
    act = np.arange(len(r))  # the r still stepping; res, size, strikes, lu hold theirs
    far = max(5 * core.min_separation(basis.seed.z), 1e3)  # 10 x half the least separation
    # what the stop reads: the last step's norm, or the residual's at the iterate
    size = np.linalg.norm(res, axis=1) if newton else np.full(len(r), np.inf)
    strikes = np.zeros(len(r), int)
    for it in range(1, MAX_ITER + 1):  # step `it`, then the stop
        if newton or it == 1:
            lu = scipy.linalg.lu_factor(assemble_L_r(
                domain, r[act], basis, y=y[act] if newton and y[act].any() else None))
        step = -scipy.linalg.lu_solve(lu, res[..., None])[..., 0]
        steps[act] = it
        if newton:  # backtracking: a trial must lower the residual or meet the stop
            start, trial, todo = y[act], np.full(len(act), np.inf), np.arange(len(act))
            for alpha in 0.5 ** np.arange(8):  # todo: the r with no trial taken
                y[act[todo]] = start[todo] + alpha * step[todo]
                try:
                    res[todo] = projected_residual(domain, r[act[todo]], basis, y[act[todo]])
                    trial[todo] = np.linalg.norm(res[todo], axis=1)
                    todo = todo[~((trial[todo] < size[todo]) | (trial[todo] <= SOLVE_TOL))]
                except (CollisionError, DomainError):  # a trial of one r is halved
                    if len(todo) > 1:
                        raise
                if not todo.size:
                    break
            why = {j: f"Newton line search failed at r={r[act[j]]:.5g}: 8 halvings "
                   f"of the step did not lower the residual {size[j]:.3e}" for j in todo}
            size = trial
        else:
            y[act] += step
            prev, size = size, np.linalg.norm(step, axis=1)
            ratio = size / np.maximum(prev, 1e-15)  # read only where prev > 1e-15
            strikes = np.where((1e-15 < prev) & (prev < np.inf), np.where(
                (ratio > CONTRACTION_GUARD) & (size > SOLVE_TOL), strikes + 1, 0), strikes)
            vnorm = np.linalg.norm(y[act], axis=1)
            why = {j: f"iterates diverge at r={r[act[j]]:.5g} (|v| = {vnorm[j]:.3e})"
                   for j in np.flatnonzero(vnorm > far)}
            why.update({j: f"contraction estimate {ratio[j]:.3f} exceeds guard "
                        f"{CONTRACTION_GUARD} at r={r[act[j]]:.5g}"
                        for j in np.flatnonzero(strikes >= 3)})
        for j, msg in why.items():
            refusals[act[j]] = (NoConvergence if newton else ContractionFailure)(msg)
        keep = ~(size <= SOLVE_TOL)
        keep[list(why)] = False
        act, res, size, strikes = act[keep], res[keep], size[keep], strikes[keep]
        if not act.size:
            return y, steps, refusals
        if not newton:
            lu = [part[keep] for part in lu]
            res = projected_residual(domain, r[act], basis, y[act])
    solver, measure = ("Newton", "residual") if newton else ("fixed point", "step norm")
    for i, last in zip(act, size):
        refusals[i] = NoConvergence(f"{solver} not converged in {MAX_ITER} iterations at "
                                    f"r={r[i]:.5g} ({measure} {last:.3e} after the last step)")
    return y, steps, refusals


def solve_reduced(domain: DomainModel, r, basis: XBasis,
                  params: SolverParams):
    """Solve P_X grad J_r(Z + v) = 0 for v in the odd part of X, from v = 0
    at the seed in `basis`, first at its mode count M.  One r returns its
    ReducedSolution or raises its refusal; a stack of r is one batch, and
    lists per r what a solve of it alone gives.  A kernel's CollisionError
    or DomainError, or SingularOperator, names no r of a batch of several:
    it is solved again in halves.  FixedPoint (the chord method) and Newton
    run one loop with three settings: the operator is assembled once at the
    seed, or at each iterate; the stop, tested after each step, reads the
    step just taken, or the projected residual at the new iterate; the
    guards are contraction and divergence, or an 8-halving line search,
    whose trial must lower the residual or meet the stop (a start at the
    solution, residual 0, takes a 0 step).  Each converged v is checked once
    in full form, by grad_J_r at Z + v padded to 2M+1 modes: while the tail
    above mode M exceeds tail_bound(M), M doubles, up to params.modes, for
    the r whose tail asks.  The one verdict on r: NoConvergence for a tail
    at the cap, or PhaseDefect for a full gradient up to mode M, that is too
    large; `iterations` counts the steps over every M."""
    core.check_r(r)
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    try:
        out = _solve_batch(domain, rs, basis, params)
    except (CollisionError, DomainError, SingularOperator) as exc:
        out = [exc] if len(rs) == 1 else (
            solve_reduced(domain, rs[:len(rs) // 2], basis, params)
            + solve_reduced(domain, rs[len(rs) // 2:], basis, params))
    if np.ndim(r) == 0 and isinstance(out[0], Exception):
        raise out[0]
    return out if np.ndim(r) else out[0]


def _solve_batch(domain: DomainModel, r: np.ndarray, basis: XBasis,
                 params: SolverParams) -> list:
    newton, out = params.mode == "Newton", [None] * len(r)
    todo, y, steps = np.arange(len(r)), np.zeros((len(r), basis.dim)), 0
    while True:
        y, it, refusals = _converge(domain, r[todo], basis, newton, y)
        for i, exc in zip(todo, refusals):
            out[i] = exc
        ok = np.array([exc is None for exc in refusals])
        todo, steps, v = todo[ok], (steps + it)[ok], basis.to_loop(y[ok])
        if not todo.size:
            return out
        grad = grad_J_r(basis.sys, domain, r[todo], (basis.Z + v).pad(2 * basis.modes + 1))
        head, bound = grad.pad(basis.modes), tail_bound(basis.modes)
        tail, residual = loops.h1_norm(grad - head), loops.h1_norm(head)
        vnorm, phase = loops.h1_norm(v), np.abs(loops.h1_inner(head, basis.zdot))
        done = (tail <= bound) | (basis.modes >= params.modes)
        for j in np.flatnonzero(done):
            i, vj = todo[j], Loop(v.coeffs[j])
            if tail[j] > bound:
                out[i] = NoConvergence(f"residual tail {tail[j]:.3e} above {bound:.3e} "
                                       f"at {basis.modes} modes, r={r[i]:.5g}")
            elif residual[j] > 10 * SOLVE_TOL * (vnorm[j] + 1.0):
                out[i] = PhaseDefect(
                    f"full gradient {residual[j]:.3e} exceeds 10x the solver "
                    f"tolerance at r={r[i]:.5g}; the phase component did not vanish, "
                    f"or the orbit has modes outside the odd subspace (H_r not even "
                    f"about a0)")
            else:
                out[i] = ReducedSolution(
                    r=float(r[i]), v=vj, u=basis.Z + vj, residual_grad=float(residual[j]),
                    phase_defect=float(phase[j]), vnorm=float(vnorm[j]),
                    iterations=int(steps[j]), residual_tail=float(tail[j]))
        if done.all():
            return out
        todo, steps, v = todo[~done], steps[~done], Loop(v.coeffs[~done])
        basis = build_x_basis(basis.seed, min(2 * basis.modes, params.modes))
        y = basis.coords(v)


# ---------------------------------------------------------------------------
# continuation

def continue_path(seed: RelativeEquilibrium, domain: DomainModel,
                  a0_guess, params: SolverParams) -> ContinuationPath:
    """Solve the r grid, from r_max down, as one solve_reduced batch, in
    `domain` recentred at a0, on the basis of the period-normalized
    equilibrium `seed` at START_MODES (or params.modes if fewer); the batch
    builds the basis of each mode count it doubles to once.  A failed r is
    recorded in `failures`, so a path where none converges has only
    failures.  Before any solve, a0 is found by
    find_critical_point_h from `a0_guess`, the owner of both rules on it:
    SingularOperator if a0 is degenerate; the search's own refusals pass
    through (ValueError for a guess outside the domain, NoConvergence or
    LeftDomain where its Newton steps fail).  Then build_x_basis refuses
    the seed."""
    crit = core.find_critical_point_h(domain, a0_guess)
    if not crit.nondegenerate:
        raise SingularOperator("critical point of the regular part is degenerate")
    basis = build_x_basis(seed, min(START_MODES, params.modes))
    grid = params.r_grid()
    outcomes = solve_reduced(TranslatedDomain(domain, crit.point), grid, basis, params)
    return ContinuationPath(
        a0=crit.point, entries=[o for o in outcomes if isinstance(o, ReducedSolution)],
        failures={float(r): f"{type(o).__name__}: {o}"
                  for r, o in zip(grid, outcomes) if isinstance(o, Exception)})


def unrescale(a0: np.ndarray, r: float, u: Loop, samples: int,
              domain: DomainModel) -> PhysicalOrbit:
    """Physical orbit z(t) = a0 + r u(t/r^2), period 2 pi r^2; ValueError
    unless r > 0, the period neither underflows to 0 nor overflows, and a0
    and every sample are finite, DomainError unless every sample lies in
    the domain."""
    core.check_count(samples, "samples", 1)
    core.check_positive(r, "r")
    a0 = np.asarray(a0, dtype=float)
    period = 2 * np.pi * (r * r)  # r**2 would raise OverflowError, not give inf
    core.check_positive(period, "the period 2 pi r^2")
    times = np.arange(samples) * (period / samples)
    phases = times / (r * r)
    pts = np.tile(a0, u.n) + r * u.eval(phases)
    if not np.isfinite(pts).all():  # a non-finite a0 reaches every sample
        raise ValueError(f"a0 and the loop must be finite, got a0 = {a0}")
    if not np.all(domain.contains(pts.reshape(samples, -1, 2))):
        raise DomainError("rescaled orbit leaves the domain")
    return PhysicalOrbit(period=period, times=times, samples=pts)


def local_uniqueness_probe(domain: DomainModel, r: float, basis: XBasis,
                           params: SolverParams, solution: ReducedSolution,
                           thetas) -> dict:
    """Re-solve from the seeds z = Z(theta); the result must be the shifted v."""
    mismatches = {}
    for theta in thetas:
        shifted = build_x_basis(RelativeEquilibrium(
            basis.sys, basis.Z.eval(theta), basis.seed.omega), basis.modes)
        sol = solve_reduced(domain, r, shifted, params)
        expected = loops.time_shift(theta, solution.v)
        mismatches[float(theta)] = loops.h1_norm(sol.v - expected)
    return {"mismatch": mismatches, "max": max(mismatches.values())}


# ---------------------------------------------------------------------------
# orbit persistence

def atomic_write(path: str, text: str) -> None:
    """Write text to a new temporary file in the target directory, created
    with mode 0666 less the umask as ``open(path, "w")`` would, then rename
    it onto path.  An OSError keeps its type but names `path`, not the
    temporary file, which is removed on any failure."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f"tmp{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise type(exc)(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_orbit(path: str, sys: VortexSystem, domain: DomainModel, a0,
               omega_seed: float, solution: ReducedSolution) -> None:
    u = solution.u
    doc = {
        "schema_version": ORBIT_SCHEMA_VERSION,
        "system": {"gammas": list(map(float, sys.gammas))},
        "domain": {"variant": domain.variant, "params": domain.params()},
        "a0": list(map(float, np.asarray(a0, dtype=float))),
        "r": float(solution.r),
        "omega_seed": float(omega_seed),
        "loop": {"n": u.n, "modes": u.modes, "coeffs": u.coeffs.tolist()},
        "diagnostics": {k: getattr(solution, k) for k in (
            "residual_grad", "phase_defect", "vnorm", "iterations")},
    }
    atomic_write(path, json.dumps(doc) + "\n")  # compact: the C encoder


def _read(doc, path: str, kind=float):
    """Field `path` (dotted) of an orbit document if of JSON type `kind`, a
    float being a number or even nested list of them, read as an array."""
    for key in path.split("."):
        if not (isinstance(doc, dict) and key in doc):
            raise ValueError(f"orbit file has no field {path}")
        doc = doc[key]
    if kind is not float and type(doc) is kind:
        return doc
    try:  # a ragged list's leaves are lists, and a bool is an int, not a number
        leaves = np.array(doc, dtype=object)
        if kind is float and all(type(v) in (int, float) for v in leaves.ravel()):
            return leaves.astype(float)
    except (ValueError, OverflowError):  # over 64 axes, or an int beyond float range
        pass
    what = (f"of JSON type {kind.__name__}" if kind is not float
            else "a number in float range or an even nested list of them")
    raise ValueError(f"{path} must be {what}")


def load_orbit(path: str) -> tuple:
    """The checked contents (sys, domain, a0, r, u) of an orbit file;
    ValueError, OSError or VortexError naming what is malformed."""
    with open(path) as fh:
        doc = json.load(fh)
    if _read(doc, "schema_version", int) != ORBIT_SCHEMA_VERSION:
        raise ValueError(f"unsupported orbit schema {doc['schema_version']}")
    params = _read(doc, "domain.params", dict)
    domain = core.domain_from_spec(_read(doc, "domain.variant", str),
                                   {k: _read(params, k) for k in params})
    sys = VortexSystem(_read(doc, "system.gammas"))
    u = Loop(_read(doc, "loop.coeffs"))
    if [_read(doc, "loop.n", int), _read(doc, "loop.modes", int)] != [u.n, u.modes]:
        raise ValueError("loop.n and loop.modes disagree with loop.coeffs")
    if sys.n != u.n:
        raise ValueError(f"gammas has {sys.n} entries for {u.n} vortices")
    a0, r = _read(doc, "a0"), _read(doc, "r")
    if a0.shape != (2,):
        raise ValueError(f"a0 must be one point (2 numbers), got {doc['a0']}")
    if r.ndim:
        raise ValueError(f"r must be a number, got {doc['r']!r}")
    _read(doc, "diagnostics", dict)  # part of the schema, though unread here
    return sys, domain, a0, float(r), u
