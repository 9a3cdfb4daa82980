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

or by a damped Newton method, and continued down a geometric grid of the
scale parameter r.
Un-rescaling z(t) = a0 + r u(t / r^2) produces orbits of the physical
system with period 2*pi*r^2.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

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

# an r fails if the top quarter of modes holds this share of the H^1 mass
MAX_SPECTRAL_TAIL = 1e-8
# an operator whose cond(A) or cond(D) exceeds this raises SingularOperator
MAX_COND = 1e12
# FixedPoint stops once a step's norm is at most this
FP_TOL = 1e-11
# Newton stops once the projected residual's norm is at most this
NEWTON_TOL = 1e-11
# either solver raises NoConvergence after this many steps
MAX_ITER = 200
# FixedPoint raises ContractionFailure after 3 straight step ratios above this
CONTRACTION_GUARD = 0.9


@dataclass(frozen=True)
class SolverParams:
    """The solver settings: each field is a [solver] key with its default."""

    modes: int = 32
    mode: str = "FixedPoint"  # or "Newton"
    r_max: float = 0.2
    r_min: float = 1e-3
    r_points: int = 30

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"modes must be at least 1, got {self.modes}")
        if not 0 < self.r_max < np.inf:
            raise ValueError(f"r_max must be finite and positive, got {self.r_max}")
        if not (0 < self.r_min < self.r_max
                and np.isfinite(self.r_max / self.r_min)):
            raise ValueError("r grid needs 0 < r_min < r_max and a finite "
                             f"r_max / r_min, got r_max = {self.r_max}, "
                             f"r_min = {self.r_min}")
        if self.r_points < 2:
            raise ValueError(f"r_points must be at least 2, got {self.r_points}")
        if self.mode not in ("FixedPoint", "Newton"):
            raise ValueError(f"unknown solver mode {self.mode!r}")

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
    spectral_tail: float
    contraction_estimate: float = float("nan")


@dataclass(frozen=True, eq=False)
class PhysicalOrbit:
    a0: np.ndarray
    r: float
    period: float
    times: np.ndarray
    samples: np.ndarray  # (m, 2N)


@dataclass(eq=False)
class ContinuationPath:
    a0: np.ndarray
    entries: list  # ReducedSolution, r descending
    failures: dict  # r -> message

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
    ham = core.eval_Hr(sys, domain, r, pts)
    return _symplectic_term(sys, u) - 2 * np.pi * float(np.mean(ham))


def grad_J_r(sys: VortexSystem, domain: DomainModel, r: float,
             u: Loop) -> Loop:
    """H^1 gradient: (id-Lap)^{-1} of the L^2 field -J M u' - grad H_r(u).

    The core checks raise CollisionError or DomainError naming the first bad
    sample i, at t = 2 pi i/m on the m = dealias_samples(modes) nodes.
    """
    core.check_r(r)
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

@dataclass(frozen=True, eq=False)
class XBasis:
    """H^1-orthonormal basis of the odd part of X = (R Z')^perp, the loops
    of X with u(t + pi) = -u(t), as flattened columns; column j lies in
    mode col_modes[j].  weights is the diagonal H^1 Gram in flat coordinates.
    h0 is H0'' along the seed Z on the dealias_samples(modes) nodes: the
    r-independent part of every operator assembled at Z.
    """

    matrix: np.ndarray  # (dim_total, dim_X)
    weights: np.ndarray
    n: int
    modes: int
    col_modes: np.ndarray
    h0: np.ndarray  # (m, 2N, 2N)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def coords(self, u: Loop) -> np.ndarray:
        return self.matrix.T @ (self.weights * loops.flatten(u.pad(self.modes)))

    def to_loop(self, y: np.ndarray) -> Loop:
        return loops.unflatten(self.matrix @ y, self.n, self.modes)

    def column_loop(self, j: int) -> Loop:
        return loops.unflatten(self.matrix[:, j], self.n, self.modes)


def build_x_basis(sys: VortexSystem, frame: LoopFrame) -> XBasis:
    """Mode by mode: the complement of Z' in mode 1 (Z is a one-mode
    rotation; the SVD null space scipy.linalg.null_space returns), then the
    unit coefficients of each odd mode k >= 3, all scaled to unit H^1 norm;
    with them, hess_H0 along Z."""
    n, modes, zdot = frame.n, frame.modes, frame.Zdot.coeffs
    if np.any(zdot[0]) or np.any(zdot[3:]):
        raise DegenerateFrame("the phase direction Z' must lie in mode 1")
    w = loops.h1_weight_vector(n, modes)
    flat_modes = (np.arange(w.size) // (2 * n) + 1) // 2
    high = np.flatnonzero((flat_modes % 2 == 1) & (flat_modes >= 3))
    k1 = 4 * n - 1  # columns in mode 1
    mat = np.zeros((w.size, k1 + high.size))
    mat[2 * n:6 * n, :k1] = np.linalg.svd(zdot[1:3].reshape(1, -1))[2][1:].T
    mat[high, k1 + np.arange(high.size)] = 1.0
    mat /= np.sqrt(w)[:, None]
    col_modes = np.concatenate([np.ones(k1, int), flat_modes[high]])
    h0 = core.hess_H0(sys, loops.sample(frame.Z, loops.dealias_samples(modes)))
    return XBasis(matrix=mat, weights=w, n=n, modes=modes, col_modes=col_modes,
                  h0=h0)


@dataclass(frozen=True, eq=False)
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


def _hessian_gram(hmats: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """(2 pi/m) S^T diag(h_ij) S over the cos/sin rows of the modes ks, read
    off one rFFT of the m-sample stack.  With c_n - i s_n = rfft(h)_n / m,
    extended to n < 0 by conjugation (c is even in n, s odd),

        (2 pi/m) sum_t cos kt h cos lt = pi (c_{k-l} + c_{k+l}),
        (2 pi/m) sum_t sin kt h sin lt = pi (c_{k-l} - c_{k+l}),
        (2 pi/m) sum_t cos kt h sin lt = pi (s_{k+l} - s_{k-l}),

    and the sin-cos block is the transpose: Toeplitz plus Hankel in (k, l).
    Exact whenever k + l <= m/2; axes (cos|sin, cos|sin, k, l, i, j)."""
    spec = np.fft.rfft(hmats, axis=0) / hmats.shape[0]
    spec = np.concatenate([spec, spec[:0:-1].conj()])  # entry -n: frequency -n
    c, s = spec.real, -spec.imag
    diff, total = np.subtract.outer(ks, ks), np.add.outer(ks, ks)
    c_d, s_d, c_t, s_t = c[diff], s[diff], c[total], s[total]
    return np.pi * np.array([[c_d + c_t, s_t - s_d], [s_t + s_d, c_d - c_t]])


def assemble_L_r(sys: VortexSystem, domain: DomainModel, r: float,
                 frame: LoopFrame, basis: XBasis | None = None,
                 base: Loop | None = None) -> OperatorReport:
    """Dense matrix of P_X DPhi_r at the base loop over the X basis.

    DPhi_r w = (id-Lap)^{-1}(-J M w' - H_r''(base) w), with the H-term taken
    pseudo-spectrally on m = 4(2M+1) > 2M nodes.  There the rFFT projection
    onto modes <= M is the trapezoid rule with weight 2 pi/m, and the H^1
    weight pi(1+k^2) cancels (id-Lap)^{-1}, so over the basis matrix B

        L = B^T K B,  K[:, i, :, j] = -(2 pi/m) S^T diag(H_r''(base)_ij) S,

    with S the synthesis matrix (read off one rFFT by `_hessian_gram`), plus
    -pi k JM at (a_k, b_k) and +pi k JM at (b_k, a_k) from the linear term,
    JM = J_N M_Gamma.  B is 1/sqrt(w) on each unit column of a mode k >= 3
    and the null space of Z' over sqrt(w_1) in mode 1, so K is scaled and
    only its mode-1 rows and columns are contracted.

    H0'' along the base and F'' along r*base must both repeat after half a
    period (H_r even about a0, and an odd base): then DPhi_r keeps odd and
    even modes apart, and the odd part of X holds the orbit.  Otherwise
    ValueError: no other subspace is solved on.  At the seed (base None)
    H0'' is read from basis.h0; a given base evaluates hess_H0.
    """
    core.check_r(r)
    basis = basis or build_x_basis(sys, frame)
    n, modes = sys.n, basis.modes
    base_pts = loops.sample(base or frame.Z, loops.dealias_samples(modes))
    hmats = basis.h0 if base is None else core.hess_H0(sys, base_pts)
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

    ks = np.arange(1, modes + 1, 2)  # the odd modes the basis spans
    at = np.arange(ks.size)
    G = -_hessian_gram(hmats, ks)
    kjm = np.pi * ks[:, None, None] * (sys.j_n() @ sys.m_gamma())
    G[0, 1, at, at] -= kjm
    G[1, 0, at, at] += kjm
    scale = 1 / np.sqrt(loops.h1_weights(modes)[2 * ks - 1])
    scale[0] = 1.0  # mode 1 is contracted with its null-space block below
    G *= np.multiply.outer(scale, scale)[:, :, None, None]
    K = G.transpose(2, 0, 4, 3, 1, 5).reshape(4 * n * ks.size, -1)
    h = 4 * n  # the coefficients of a_1 and b_1
    v1 = basis.matrix[2 * n:2 * n + h, basis.col_modes == 1]
    L = np.vstack([v1.T @ K[:h], K[h:]])  # contract the mode-1 rows,
    L = np.hstack([L[:, :h] @ v1, L[:, h:]])  # then the mode-1 columns
    L = 0.5 * (L + L.T)  # DPhi_r is H^1 self-adjoint; symmetrize roundoff

    cond_A = _sym_cond(L)
    # D tends to r^2 (Gamma^2/N) h''(a0), so cond(D) tests the nondegeneracy
    # of a0; it vanishes identically when F has no effect (plane, r = 0)
    cond_D = np.linalg.cond(d0) if d0.any() else 1.0
    if max(cond_A, cond_D) > MAX_COND:
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
    """Solve P_X grad J_r(Z + v) = 0 for v in the odd part of X; the basis
    may come from a caller that solves for many r."""
    import scipy.linalg  # slow import; only a solve needs the LU
    basis = basis or build_x_basis(sys, frame)

    def residual(y):
        return basis.coords(grad_J_r(sys, domain, r, frame.Z + basis.to_loop(y)))

    y = basis.coords(warm_start) if warm_start is not None else np.zeros(basis.dim)
    eps_ball = 0.5 * core.min_separation(frame.Z.a(1).reshape(-1, 2))
    contraction = float("nan")
    if params.mode == "FixedPoint":
        operator = assemble_L_r(sys, domain, r, frame, basis=basis)
        lu = scipy.linalg.lu_factor(operator.matrix)
        prev_step, guard_strikes = None, 0
        for it in range(1, MAX_ITER + 1):
            step = -scipy.linalg.lu_solve(lu, residual(y))
            y = y + step
            step_norm = np.linalg.norm(step)
            if prev_step is not None and prev_step > 1e-15:
                contraction = step_norm / prev_step
                if contraction > CONTRACTION_GUARD and step_norm > FP_TOL:
                    guard_strikes += 1
                    if guard_strikes >= 3:
                        raise ContractionFailure(
                            f"contraction estimate {contraction:.3f} exceeds "
                            f"guard {CONTRACTION_GUARD} at r={r:.5g}")
                else:
                    guard_strikes = 0
            prev_step = step_norm
            if np.linalg.norm(y) > max(10 * eps_ball, 1e3):
                raise ContractionFailure(
                    f"iterates diverge at r={r:.5g} (|v| = {np.linalg.norm(y):.3e})")
            if step_norm <= FP_TOL:
                break
        else:
            raise NoConvergence(
                f"fixed point not converged in {MAX_ITER} iterations "
                f"at r={r:.5g} (last step {step_norm:.3e})")
    else:
        # `it` counts the Newton steps taken; 0 when the seed already solves.
        # The accepted line-search trial's residual serves the next step.
        res = residual(y)
        for it in range(MAX_ITER):
            res_norm = np.linalg.norm(res)
            if res_norm <= NEWTON_TOL:
                break
            op = assemble_L_r(sys, domain, r, frame, basis=basis,
                              base=frame.Z + basis.to_loop(y) if y.any() else None)
            step = -scipy.linalg.lu_solve(scipy.linalg.lu_factor(op.matrix), res)
            # backtracking on the projected residual
            alpha = 1.0
            for _ in range(8):
                y_try = y + alpha * step
                try:
                    res_try = residual(y_try)
                    if np.linalg.norm(res_try) < res_norm:
                        break
                except (CollisionError, DomainError):
                    pass
                alpha *= 0.5
            else:
                raise NoConvergence(
                    f"Newton line search failed at r={r:.5g}: 8 halvings of "
                    f"the step did not lower the residual {res_norm:.3e}")
            y, res = y_try, res_try
        else:
            raise NoConvergence(
                f"Newton not converged in {MAX_ITER} iterations "
                f"at r={r:.5g} (residual {res_norm:.3e})")

    v = basis.to_loop(y)
    sol = _diagnostics(sys, domain, r, frame, v, it, contraction)
    tol = FP_TOL if params.mode == "FixedPoint" else NEWTON_TOL
    if sol.residual_grad > 10 * tol * (sol.vnorm + 1.0):
        raise PhaseDefect(
            f"full gradient {sol.residual_grad:.3e} exceeds 10x the solver "
            f"tolerance at r={r:.5g}; the phase component did not vanish")
    return sol


# ---------------------------------------------------------------------------
# continuation

# what a failed solve at one r raises: the r is recorded and the sweep goes on
_SOLVE_FAILURES = (ContractionFailure, NoConvergence, PhaseDefect, DomainError,
                   CollisionError, SingularOperator)


def continue_path(sys: VortexSystem, domain: DomainModel, a0: np.ndarray,
                  frame: LoopFrame, params: SolverParams) -> ContinuationPath:
    """Solve each r of the grid, from r_max down, each warm-started from the
    last converged r; a failed r is recorded in `failures`."""
    if abs(sys.gamma_total) < 1e-14:
        raise ZeroTotalVorticity(
            "total vorticity vanishes: the reduction hypothesis fails")
    a0 = np.asarray(a0, dtype=float)
    work_domain = domain if np.allclose(a0, 0.0) else TranslatedDomain(domain, a0)

    basis = build_x_basis(sys, frame)
    entries, failures = [], {}
    for r in map(float, params.r_grid()):
        try:
            sol = solve_reduced(sys, work_domain, r, frame, params,
                                warm_start=entries[-1].v if entries else None,
                                basis=basis)
            if sol.spectral_tail >= MAX_SPECTRAL_TAIL:
                raise NoConvergence(
                    f"spectral tail {sol.spectral_tail:.3e} above "
                    f"{MAX_SPECTRAL_TAIL:g} at r={r:.5g}")
            entries.append(sol)
        except _SOLVE_FAILURES as exc:
            failures[r] = f"{type(exc).__name__}: {exc}"
    if not entries:
        raise EmptyPath("no grid point converged")
    return ContinuationPath(a0=a0, entries=entries, failures=failures)


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
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_orbit(path: str, doc: dict) -> None:
    atomic_write(path, json.dumps(doc) + "\n")  # compact: the C encoder


def load_orbit(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != ORBIT_SCHEMA_VERSION:
        raise ValueError(f"unsupported orbit schema {doc.get('schema_version')}")
    return doc
