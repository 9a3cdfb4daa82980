"""Contraction-mapping reduction for small periodic orbits near an
interior equilibrium point of the regular part.

The rescaled problem looks for 2*pi-periodic loops u with

    M_Gamma u' = J_N grad H_r(u),      H_r(u) = H0(u) - F(ru) + F(0),

as zeros of the H^1 gradient of the action

    J_r(u) = 1/2 int M_Gamma u' . J_N u  -  int H_r(u).

Writing u = Z + v with Z the rigidly rotating seed, the correction v is
found in the odd part of X, the H^1-orthogonal complement of the phase
direction Z' (v(t + pi) = -v(t), as H_r is even about a0), either by the
frozen-Jacobian fixed-point iteration

    v  <-  v - L_r^{-1} [P_X grad J_r(Z + v)]

or by a damped Newton method, and continued in the scale parameter r.
Un-rescaling z(t) = a0 + r u(t / r^2) produces orbits of the physical
system with period 2*pi*r^2.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import core, loops
from .core import DomainModel, TranslatedDomain, VortexSystem
from .errors import (
    CollisionError,
    ContractionFailure,
    DegenerateFrame,
    DomainError,
    EmptyPath,
    NoConvergence,
    PhaseDefect,
    SingularOperator,
    ZeroTotalVorticity,
)
from .loops import Loop, LoopFrame

ORBIT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SolverParams:
    modes: int = 32
    fp_tol: float = 1e-11
    newton_tol: float = 1e-11
    max_iter: int = 200
    contraction_guard: float = 0.9
    mode: str = "FixedPoint"  # or "Newton"
    r_max: float = 0.2
    r_min: float = 1e-3
    r_points: int = 30
    spectral_tail_tol: float = 1e-8

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"modes must be at least 1, got {self.modes}")
        if self.fp_tol <= 0 or self.newton_tol <= 0 or self.spectral_tail_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (0 < self.contraction_guard < 1):
            raise ValueError("contraction_guard must lie in (0, 1), got "
                             f"{self.contraction_guard}")
        if not (0 < self.r_min < self.r_max):
            raise ValueError("r grid must be strictly decreasing and positive")
        if self.r_points < 2:
            raise ValueError(f"r_points must be at least 2, got {self.r_points}")
        if self.mode not in ("FixedPoint", "Newton"):
            raise ValueError(f"unknown solver mode {self.mode!r}")

    def r_grid(self) -> np.ndarray:
        """Geometric sequence from r_max down to r_min."""
        return np.geomspace(self.r_max, self.r_min, self.r_points)


@dataclass(frozen=True)
class ReducedSolution:
    r: float
    v: Loop
    u: Loop
    residual_grad: float
    phase_defect: float
    vnorm: float
    iterations: int
    spectral_tail: float
    contraction_estimate: float = float("nan")


@dataclass(frozen=True)
class PhysicalOrbit:
    a0: np.ndarray
    r: float
    period: float
    times: np.ndarray
    samples: np.ndarray  # (m, 2N)


@dataclass
class ContinuationPath:
    a0: np.ndarray
    entries: list  # ReducedSolution, r descending
    failures: dict  # r -> message
    r0_empirical: float

    @property
    def r_values(self) -> np.ndarray:
        return np.array([e.r for e in self.entries])

    @property
    def vnorms(self) -> np.ndarray:
        return np.array([e.vnorm for e in self.entries])


# ---------------------------------------------------------------------------
# action and gradient

def _symplectic_term(sys: VortexSystem, u: Loop) -> float:
    """1/2 int M u' . J u, exact in the Fourier coefficients."""
    mj = sys.m_gamma() @ sys.j_n()
    a, b = u.coeffs[1::2], u.coeffs[2::2]
    k = np.arange(1, u.modes + 1)
    return float(np.pi * np.sum(k * np.einsum("kd,dc,kc->k", b, mj, a)))


def action_J_r(sys: VortexSystem, domain: DomainModel, r: float,
               u: Loop) -> float:
    """Action of the rescaled system; H0/F terms by trapezoidal quadrature."""
    pts = loops.sample(u, loops.dealias_samples(u.modes))
    ham = core.eval_H0(sys, pts)
    if r > 0:
        ham = ham - core.eval_F(sys, domain, r * pts) + core.eval_F(
            sys, domain, np.zeros(2 * sys.n))
    return _symplectic_term(sys, u) - 2 * np.pi * float(np.mean(ham))


def grad_J_r(sys: VortexSystem, domain: DomainModel, r: float,
             u: Loop) -> Loop:
    """H^1 gradient: (id-Lap)^{-1} of the L^2 field -J M u' - grad H_r(u).

    The core checks raise CollisionError or DomainError naming the first bad
    sample i, at t = 2 pi i/m on the m = dealias_samples(modes) nodes.
    """
    pts = loops.sample(u, loops.dealias_samples(u.modes))
    field = -core.grad_H0(sys, pts)
    if r > 0:
        field = field + r * core.grad_F(sys, domain, r * pts)
    nonlin = loops.from_samples(field, u.modes)
    du = loops.differentiate(u)
    jm = (sys.j_n() @ sys.m_gamma())
    lin = Loop(-du.coeffs @ jm.T)
    return loops.inv_id_minus_laplace(lin + nonlin)


# ---------------------------------------------------------------------------
# the X-space basis and the preconditioned operator

@dataclass(frozen=True)
class XBasis:
    """H^1-orthonormal basis of the odd part of X = (R Z')^perp, the loops
    of X with u(t + pi) = -u(t), as flattened columns; column j lies in
    mode col_modes[j].  weights is the diagonal H^1 Gram in flat coordinates.
    """

    matrix: np.ndarray  # (dim_total, dim_X)
    weights: np.ndarray
    n: int
    modes: int
    col_modes: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def coords(self, u: Loop) -> np.ndarray:
        return self.matrix.T @ (self.weights * loops.flatten(u.pad(self.modes)))

    def to_loop(self, y: np.ndarray) -> Loop:
        return loops.unflatten(self.matrix @ y, self.n, self.modes)

    def column_loop(self, j: int) -> Loop:
        return loops.unflatten(self.matrix[:, j], self.n, self.modes)


def build_x_basis(frame: LoopFrame) -> XBasis:
    """Mode by mode: the complement of Z' in mode 1 (Z is a one-mode
    rotation), then the unit coefficients of each odd mode k >= 3, all
    scaled to unit H^1 norm."""
    n, modes, zdot = frame.n, frame.modes, frame.Zdot.coeffs
    if np.any(zdot[0]) or np.any(zdot[3:]):
        raise DegenerateFrame("the phase direction Z' must lie in mode 1")
    w = loops.h1_weight_vector(n, modes)
    flat_modes = (np.arange(w.size) // (2 * n) + 1) // 2
    high = np.flatnonzero((flat_modes % 2 == 1) & (flat_modes >= 3))
    k1 = 4 * n - 1  # columns in mode 1
    # column-major: the Gram product B^T K B rounds differently on a
    # row-major B, which moves orbit coefficients by about 1e-30
    mat = np.zeros((w.size, k1 + high.size), order="F")
    mat[2 * n:6 * n, :k1] = scipy.linalg.null_space(zdot[1:3].reshape(1, -1))
    mat[high, k1 + np.arange(high.size)] = 1.0
    mat /= np.sqrt(w)[:, None]
    col_modes = np.concatenate([np.ones(k1, int), flat_modes[high]])
    return XBasis(matrix=mat, weights=w, n=n, modes=modes, col_modes=col_modes)


@dataclass(frozen=True)
class OperatorReport:
    matrix: np.ndarray  # over the columns of the odd X basis
    d0_matrix: np.ndarray  # 2x2 D-block of (L_r - L_0-part)/r^2 in the e-hat basis


def _repeats_after_pi(stack: np.ndarray) -> bool:
    """Whether m (even) samples over [0, 2 pi) repeat after half a period, to
    1e-12 of the largest entry; symmetric cases measure at most 2e-15."""
    half = stack.shape[0] // 2
    return np.abs(stack[:half] - stack[half:]).max() <= 1e-12 * np.abs(stack).max()


def _sym_cond(a: np.ndarray) -> float:
    """2-norm condition number of a symmetric matrix, max|lambda|/min|lambda|."""
    lam = np.abs(np.linalg.eigvalsh(a))
    return float(lam.max() / lam.min()) if lam.min() > 0 else np.inf


def assemble_L_r(sys: VortexSystem, domain: DomainModel, r: float,
                 frame: LoopFrame, basis: XBasis | None = None,
                 base: Loop | None = None,
                 cond_limit: float = 1e12) -> OperatorReport:
    """Dense matrix of P_X DPhi_r at the base loop over the X basis.

    DPhi_r w = (id-Lap)^{-1}(-J M w' - H_r''(base) w), with the H-term taken
    pseudo-spectrally on m = 4(2M+1) > 2M nodes.  There the rFFT projection
    onto modes <= M is the trapezoid rule with weight 2 pi/m, and the H^1
    weight pi(1+k^2) cancels (id-Lap)^{-1}, so over the basis matrix B

        L = B^T K B,  K[:, i, :, j] = -(2 pi/m) S^T diag(H_r''(base)_ij) S,

    with S the synthesis matrix, plus -pi k JM at (a_k, b_k) and +pi k JM at
    (b_k, a_k) from the linear term, JM = J_N M_Gamma.

    H0'' along the base and F'' along r*base must both repeat after half a
    period (H_r even about a0, and an odd base): then DPhi_r keeps odd and
    even modes apart, and the odd part of X holds the orbit.  Otherwise
    ValueError: no other subspace is solved on.
    """
    basis = basis or build_x_basis(frame)
    base = base or frame.Z
    n, modes = sys.n, basis.modes
    m = loops.dealias_samples(modes)
    base_pts = loops.sample(base, m)
    hmats = core.hess_H0(sys, base_pts)
    even = _repeats_after_pi(hmats)
    if r > 0:
        fmats = core.hess_F(sys, domain, r * base_pts)
        # tested apart: in the sum the asymmetry of F'' is scaled by r^2
        # and lost in roundoff at small r
        even = even and _repeats_after_pi(fmats)
        hmats = hmats - r**2 * fmats
        # D-block of the F-contribution alone, scaled by 1/r^2 (finite limit):
        # the e-hat columns are constant, so only the time mean of F'' enters
        d0 = fmats.mean(axis=0).reshape(n, 2, n, 2).sum(axis=(0, 2)) / n
    else:
        d0 = np.zeros((2, 2))
    if not even:
        raise ValueError("H_r is not even about a0: its Hessians along the "
                         "base do not repeat after half a period")

    # coefficient rows a0, a1, b1, ... of the modes that the basis uses
    rows = np.flatnonzero(np.isin(np.arange(1, 2 * modes + 2) // 2,
                                  basis.col_modes))
    s = loops.synthesis_matrix(modes, m)[:, rows]
    dim = 2 * n
    K = np.empty((rows.size, dim, rows.size, dim))
    for i in range(dim):
        for j in range(i, dim):
            K[:, i, :, j] = K[:, j, :, i] = (-2 * np.pi / m) * (
                s.T @ (hmats[:, i, j, None] * s))
    a = np.flatnonzero(rows % 2 == 1)  # the a_k rows, each followed by b_k
    k = (rows[a, None, None] + 1) // 2
    kjm = np.pi * k * (sys.j_n() @ sys.m_gamma())
    K[a, :, a + 1, :] -= kjm
    K[a + 1, :, a, :] += kjm
    K = K.reshape(rows.size * dim, rows.size * dim)
    B = basis.matrix.reshape(2 * modes + 1, dim, -1)[rows].reshape(K.shape[0], -1)
    L = B.T @ K @ B
    L = 0.5 * (L + L.T)  # DPhi_r is H^1 self-adjoint; symmetrize roundoff

    cond_A = _sym_cond(L)
    # D tends to r^2 (Gamma^2/N) h''(a0), so cond(D) tests the nondegeneracy
    # of a0; it vanishes identically when F has no effect (plane, r = 0)
    cond_D = np.linalg.cond(d0) if d0.any() else 1.0
    if max(cond_A, cond_D) > cond_limit:
        raise SingularOperator(
            f"ill-conditioned reduced operator: cond(A)={cond_A:.3e}, "
            f"cond(D)={cond_D:.3e}")
    return OperatorReport(matrix=L, d0_matrix=d0)


# ---------------------------------------------------------------------------
# reduced solve

def _diagnostics(sys, domain, r, frame, v, iters, contraction):
    u = frame.Z + v
    grad = grad_J_r(sys, domain, r, u)
    residual = loops.h1_norm(grad)
    phase = abs(loops.h1_inner(grad, frame.Zdot))
    tail = _spectral_tail(u)
    return ReducedSolution(r=r, v=v, u=u, residual_grad=residual,
                           phase_defect=phase, vnorm=loops.h1_norm(v),
                           iterations=iters, spectral_tail=tail,
                           contraction_estimate=contraction)


def _spectral_tail(u: Loop) -> float:
    """Relative H^1 mass carried by the top quarter of the mode range."""
    w = loops.h1_weights(u.modes)
    per_row = w * np.sum(u.coeffs**2, axis=1)
    cutoff = 2 * int(np.ceil(0.75 * u.modes)) + 1
    total = per_row.sum()
    return float(per_row[cutoff:].sum() / total) if total > 0 else 0.0


def solve_reduced(sys: VortexSystem, domain: DomainModel, r: float,
                  frame: LoopFrame, params: SolverParams,
                  warm_start: Loop | None = None,
                  basis: XBasis | None = None) -> ReducedSolution:
    """Solve P_X grad J_r(Z + v) = 0 for v in the odd part of X."""
    basis = basis or build_x_basis(frame)
    operator = assemble_L_r(sys, domain, r, frame, basis=basis)

    def residual(y):
        return basis.coords(grad_J_r(sys, domain, r, frame.Z + basis.to_loop(y)))

    y = basis.coords(warm_start) if warm_start is not None else np.zeros(basis.dim)
    eps_ball = 0.5 * core.min_separation(frame.Z.a(1).reshape(-1, 2))
    contraction = float("nan")
    if params.mode == "FixedPoint":
        lu = scipy.linalg.lu_factor(operator.matrix)
        prev_step, guard_strikes = None, 0
        for it in range(1, params.max_iter + 1):
            step = -scipy.linalg.lu_solve(lu, residual(y))
            y = y + step
            step_norm = np.linalg.norm(step)
            if prev_step is not None and prev_step > 1e-15:
                contraction = step_norm / prev_step
                if contraction > params.contraction_guard and step_norm > params.fp_tol:
                    guard_strikes += 1
                    if guard_strikes >= 3:
                        raise ContractionFailure(
                            f"contraction estimate {contraction:.3f} exceeds "
                            f"guard {params.contraction_guard} at r={r:.5g}")
                else:
                    guard_strikes = 0
            prev_step = step_norm
            if np.linalg.norm(y) > max(10 * eps_ball, 1e3):
                raise ContractionFailure(
                    f"iterates diverge at r={r:.5g} (|v| = {np.linalg.norm(y):.3e})")
            if step_norm <= params.fp_tol:
                break
        else:
            raise NoConvergence(
                f"fixed point not converged in {params.max_iter} iterations "
                f"at r={r:.5g} (last step {step_norm:.3e})")
    else:
        # `it` counts the Newton steps taken; 0 when the seed already solves
        for it in range(params.max_iter):
            res = residual(y)
            res_norm = np.linalg.norm(res)
            if res_norm <= params.newton_tol:
                break
            op = assemble_L_r(sys, domain, r, frame, basis=basis,
                              base=frame.Z + basis.to_loop(y))
            step = -scipy.linalg.lu_solve(scipy.linalg.lu_factor(op.matrix), res)
            # backtracking on the projected residual
            alpha = 1.0
            for _ in range(8):
                try:
                    r_try = np.linalg.norm(residual(y + alpha * step))
                except (CollisionError, DomainError):
                    r_try = np.inf
                if r_try < res_norm:
                    break
                alpha *= 0.5
            y = y + alpha * step
        else:
            raise NoConvergence(
                f"Newton not converged in {params.max_iter} iterations "
                f"at r={r:.5g} (residual {res_norm:.3e})")

    v = basis.to_loop(y)
    sol = _diagnostics(sys, domain, r, frame, v, it, contraction)
    tol = params.fp_tol if params.mode == "FixedPoint" else params.newton_tol
    if sol.residual_grad > 10 * max(tol, 1e-13) * max(1.0, sol.vnorm + 1.0):
        raise PhaseDefect(
            f"full gradient {sol.residual_grad:.3e} exceeds 10x the solver "
            f"tolerance at r={r:.5g}; the phase component did not vanish")
    return sol


# ---------------------------------------------------------------------------
# continuation

def continue_path(sys: VortexSystem, domain: DomainModel, a0: np.ndarray,
                  frame: LoopFrame, params: SolverParams) -> ContinuationPath:
    """Sweep the r grid downward with warm starts; probe upward for r0."""
    if abs(sys.gamma_total) < 1e-14:
        raise ZeroTotalVorticity(
            "total vorticity vanishes: the reduction hypothesis fails")
    a0 = np.asarray(a0, dtype=float)
    work_domain = domain if np.allclose(a0, 0.0) else TranslatedDomain(domain, a0)

    basis = build_x_basis(frame)
    entries, failures = [], {}
    warm = None
    for r in params.r_grid():
        try:
            sol = solve_reduced(sys, work_domain, float(r), frame, params,
                                warm_start=warm, basis=basis)
            if sol.spectral_tail >= params.spectral_tail_tol:
                raise NoConvergence(
                    f"spectral tail {sol.spectral_tail:.3e} above "
                    f"{params.spectral_tail_tol:g} at r={r:.5g}")
            entries.append(sol)
            warm = sol.v
        except (ContractionFailure, NoConvergence, PhaseDefect, DomainError,
                CollisionError, SingularOperator) as exc:
            failures[float(r)] = f"{type(exc).__name__}: {exc}"
    if not entries:
        raise EmptyPath("no grid point converged")

    # probe upward from the largest converged r to estimate the empirical r0
    ratio = (params.r_max / params.r_min) ** (1.0 / (params.r_points - 1))
    r0 = entries[0].r
    warm_up = entries[0].v
    r_probe = r0
    for _ in range(8):
        r_probe *= ratio
        try:
            sol = solve_reduced(sys, work_domain, r_probe, frame, params,
                                warm_start=warm_up, basis=basis)
            if sol.spectral_tail >= params.spectral_tail_tol:
                break
            r0, warm_up = r_probe, sol.v
        except (ContractionFailure, NoConvergence, PhaseDefect, DomainError,
                CollisionError, SingularOperator):
            break
    return ContinuationPath(a0=a0, entries=entries, failures=failures,
                            r0_empirical=r0)


def unrescale(a0: np.ndarray, r: float, u: Loop, samples: int,
              domain: DomainModel | None = None) -> PhysicalOrbit:
    """Physical orbit z(t) = a0 + r u(t/r^2), period 2 pi r^2; ValueError
    unless r > 0 and a0 and every sample are finite."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"r must be finite and positive, got {r}")
    a0 = np.asarray(a0, dtype=float)
    period = 2 * np.pi * r**2
    times = np.arange(samples) * (period / samples)
    phases = times / r**2
    pts = np.tile(a0, u.n) + r * u.eval(phases)
    if not np.isfinite(pts).all():  # a non-finite a0 reaches every sample
        raise ValueError(f"a0 and the loop must be finite, got a0 = {a0}")
    if domain is not None:
        z = pts.reshape(samples, -1, 2)
        if not np.all(domain.contains(z)):
            raise DomainError("rescaled orbit leaves the domain")
    return PhysicalOrbit(a0=a0, r=r, period=period, times=times, samples=pts)


def local_uniqueness_probe(sys: VortexSystem, domain: DomainModel, r: float,
                           frame: LoopFrame, params: SolverParams,
                           solution: ReducedSolution,
                           thetas) -> dict:
    """Re-solve with time-shifted frames; the result must be the shifted v."""
    mismatches = {}
    for theta in thetas:
        shifted = LoopFrame(Z=loops.time_shift(theta, frame.Z),
                            Zdot=loops.time_shift(theta, frame.Zdot),
                            e1=frame.e1, e2=frame.e2)
        sol = solve_reduced(sys, domain, r, shifted, params)
        expected = loops.time_shift(theta, solution.v)
        mismatches[float(theta)] = loops.h1_norm(sol.v - expected)
    return {"mismatch": mismatches, "max": max(mismatches.values())}


# ---------------------------------------------------------------------------
# orbit persistence

def orbit_to_dict(sys: VortexSystem, domain: DomainModel, a0, omega_seed: float,
                  solution: ReducedSolution) -> dict:
    return {
        "schema_version": ORBIT_SCHEMA_VERSION,
        "system": {"gammas": list(map(float, sys.gammas))},
        "domain": {"variant": domain.variant, "params": domain.params()},
        "a0": list(map(float, np.asarray(a0, dtype=float))),
        "r": float(solution.r),
        "omega_seed": float(omega_seed),
        "loop": loops.loop_to_dict(solution.u),
        "diagnostics": {
            "residual_grad": solution.residual_grad,
            "phase_defect": solution.phase_defect,
            "vnorm": solution.vnorm,
            "iterations": solution.iterations,
        },
    }


def atomic_write(path: str, text: str) -> None:
    """Write text to a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_orbit(path: str, doc: dict) -> None:
    atomic_write(path, json.dumps(doc, indent=1) + "\n")


def load_orbit(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != ORBIT_SCHEMA_VERSION:
        raise ValueError(f"unsupported orbit schema {doc.get('schema_version')}")
    return doc
