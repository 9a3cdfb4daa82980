"""Rigidly rotating vortex configurations and their Floquet analysis.

A relative equilibrium is a configuration z that rotates rigidly,
Z(t) = e^{-omega J t} z applied blockwise, and solves the free-plane system.
Constructors cover the co-rotating pair, the equilateral triangle and the
regular N-gon of identical vortices; each output is validated through its
defining residual.  In the rotating frame the linearized periodic system
has the constant generator B of ``rotating_generator``, so the monodromy
is expm(2pi B), and ``monodromy`` reads its spectrum off B.  It counts
the geometric multiplicity of the Floquet multiplier 1; for triangles,
``triangle_conditions`` also catches a lengthened Jordan chain at that
multiplier, which the count cannot see.  The paper's abstract does not say
which of the two its "nondegenerate" means; the CLI requires both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (VortexSystem, check_count, check_period_normalized,
                   check_positive, finite, grad_H0, hess_H0)
from .errors import ZeroTotalVorticity

# singular values below KERNEL_SV_RATIO times the largest count as kernel
KERNEL_SV_RATIO = 1e-6
# |L| and sumsq - L at most TRIANGLE_TOL * sumsq fail the triangle test.  All
# three scale as c^2 under gamma -> c gamma, which only rescales time, so the
# test reads them for gamma / max|gamma|, where no product under- or
# overflows.  Both are sums of three products, each off by a few
# eps * sumsq; sumsq - L = 1/2 sum (gamma_i - gamma_j)^2 >= 0 is summed from
# the differences, so it is 0 exactly for equal vorticities.
TRIANGLE_TOL = 1e-9
# residual_HS0 at most RESIDUAL_TOL times kappa = sum|gamma_k| / |Gamma|, the
# condition of the total vorticity, certifies an equilibrium (residual_bound).
# kappa is needed: omega is made from Gamma, which rounding leaves off by up
# to eps kappa, relative.  Roundoff leaves at most 82 eps kappa, 5.5 times
# below the bound (measured over 20,000 constructed seeds: pairs and
# triangles with gamma in (-2, 2) times 10^[-8, 8], and rings of 2 to 20,
# sizes in 10^[-1, 1]); an omega off by delta (relative) leaves delta.
RESIDUAL_TOL = 1e-13
_OVERFLOWS = "overflows: vorticities or size out of range"


@dataclass(frozen=True)
class RelativeEquilibrium:
    """A rigidly rotating solution Z(t) = e^{-omega J t} z of the plane system."""

    sys: VortexSystem
    z: np.ndarray
    omega: float

    def __post_init__(self):
        z = np.array(self.z, dtype=float).ravel()  # a private copy
        z.flags.writeable = False  # so that the hash cannot change
        object.__setattr__(self, "z", z)
        if not np.all(np.isfinite(self.z)):
            raise ValueError(f"configuration must be finite, got {self.z}")
        if not np.isfinite(self.omega):
            raise ValueError(
                f"angular velocity must be finite, got {self.omega}")
        if self.omega == 0.0:
            raise ValueError("angular velocity must be nonzero")
        if self.z.size != 2 * self.sys.n:
            raise ValueError("configuration size does not match the system")

    def __eq__(self, other):  # value semantics; z is an array
        if not isinstance(other, RelativeEquilibrium):
            return NotImplemented
        return (self.sys == other.sys and np.array_equal(self.z, other.z)
                and self.omega == other.omega)

    def __hash__(self):
        return hash((self.sys, self.z.tobytes(), self.omega))

    @property
    def period(self) -> float:
        return 2.0 * np.pi / abs(self.omega)


def residual_HS0(eq: RelativeEquilibrium) -> float:
    """Max block norm of Gamma_k Zdot_k(0) - J grad_k H0(z) over that of
    grad H0(z), checked finite.  Zdot_k(0) = -omega J z_k and J is a
    rotation, so the numerator is max_k |omega Gamma_k z_k + grad_k H0(z)|.
    Both grow like gamma^2/d, so the ratio is free of scale: roundoff leaves
    it near eps kappa, an omega off by delta (relative) leaves delta, and at
    most residual_bound certifies z."""
    def ratio():
        grad = grad_H0(eq.sys, eq.z).reshape(-1, 2)
        defect = eq.sys.gammas[:, None] * (eq.omega * eq.z.reshape(-1, 2)) + grad
        return np.hypot(*defect.T).max() / np.hypot(*grad.T).max()
    return float(finite(f"the residual under- or {_OVERFLOWS}", ratio))


def residual_bound(sys: VortexSystem) -> float:
    """The most residual_HS0 that certifies a seed of `sys`, RESIDUAL_TOL
    kappa; ZeroTotalVorticity for a zero-sum system.  Each |gamma_k / Gamma|
    is below 1/eps once Gamma passes nonzero_total, so kappa cannot overflow."""
    return RESIDUAL_TOL * float(np.abs(sys.gammas / sys.nonzero_total()).sum())


def make_pair(gamma1: float, gamma2: float, separation: float) -> RelativeEquilibrium:
    """Two vortices rotating about their center of vorticity at the origin."""
    sys = VortexSystem([gamma1, gamma2])
    check_positive(separation, "separation")
    total = sys.nonzero_total()
    z1 = np.array([gamma2 * separation / total, 0.0])
    z2 = np.array([-gamma1 * separation / total, 0.0])
    omega = finite(f"the angular velocity {_OVERFLOWS}",
                   lambda: total / (np.pi * np.square(separation)))
    return RelativeEquilibrium(sys=sys, z=np.concatenate([z1, z2]), omega=omega)


def make_triangle(gamma1: float, gamma2: float, gamma3: float,
                  side: float) -> RelativeEquilibrium:
    """Three vortices on an equilateral triangle, vorticity center at 0.

    The angular velocity is (gamma1+gamma2+gamma3) / (pi * side^2), which the
    residual check validates directly against the equations of motion.
    """
    sys = VortexSystem([gamma1, gamma2, gamma3])
    check_positive(side, "side")
    total = sys.nonzero_total()
    # unit-circumradius triangle, scaled so the side is as requested
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    verts = (side / np.sqrt(3.0)) * np.column_stack([np.cos(angles), np.sin(angles)])
    verts -= finite(f"the center of vorticity {_OVERFLOWS}",
                    lambda: (sys.gammas[:, None] * verts).sum(axis=0) / total)
    omega = finite(f"the angular velocity {_OVERFLOWS}",
                   lambda: total / (np.pi * np.square(side)))
    return RelativeEquilibrium(sys=sys, z=verts.ravel(), omega=omega)


def make_thomson(n: int, gamma: float, radius: float) -> RelativeEquilibrium:
    """N identical vortices on a regular N-gon of the given radius."""
    check_count(n, "n", 2)
    sys = VortexSystem(np.full(n, float(gamma)))
    check_positive(radius, "radius")
    angles = 2.0 * np.pi * np.arange(n) / n
    verts = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    omega = finite(f"the angular velocity {_OVERFLOWS}",
                   lambda: gamma * (n - 1) / (2.0 * np.pi * np.square(radius)))
    return RelativeEquilibrium(sys=sys, z=verts.ravel(), omega=omega)


def normalize_period(eq: RelativeEquilibrium) -> RelativeEquilibrium:
    """Rescale to |omega| = 1 (2pi-periodic); idempotent, as the scale of
    a normalized equilibrium is 1.

    Scaling the configuration by sqrt|omega| divides the angular velocity of
    the logarithmic interaction by |omega|.
    """
    scale = np.sqrt(abs(eq.omega))
    return RelativeEquilibrium(
        sys=eq.sys, z=scale * eq.z, omega=float(np.sign(eq.omega))
    )


@dataclass(frozen=True, eq=False)
class MonodromyReport:
    """Floquet data read off the rotating-frame generator B (``generator``);
    the monodromy W = expm(2pi B) is not built, as the verdict needs none.

    ``multipliers`` are exp(2pi lambda) over the eigenvalues lambda of B;
    one beyond the float range (Re lambda above about 113) reads inf, with
    no warning, and the verdict, read off B, does not depend on it.
    ``kernel_dim`` is the geometric multiplicity of the multiplier 1, and
    ``nondegenerate`` means it is exactly 3.  Neither sees generalized
    eigenvectors: the L = 0 triangle has kernel_dim 3 but a six-dimensional
    generalized kernel.
    """

    generator: np.ndarray
    multipliers: np.ndarray
    kernel_dim: int
    nondegenerate: bool


def rotating_generator(eq: RelativeEquilibrium) -> np.ndarray:
    """Constant generator B = M_Gamma^{-1} J_N H0''(z) + omega J_N, checked finite.

    In the frame that rotates with the equilibrium, W(t) = R(t) V(t), the
    linearized system Wdot = M_Gamma^{-1} J_N H0''(Z(t)) W becomes
    Vdot = B V: the blockwise rotation R(t) commutes with J_N and M_Gamma,
    and H0''(Z(t)) = R(t) H0''(z) R(t)^T.
    """
    jn = eq.sys.j_n()
    return finite(f"the generator B {_OVERFLOWS}", lambda: (
        (1.0 / eq.sys.m_gamma_diag())[:, None] * (jn @ hess_H0(eq.sys, eq.z))
        + eq.omega * jn))


def monodromy(eq: RelativeEquilibrium) -> MonodromyReport:
    """Monodromy of the linearized system over one period of a normalized
    equilibrium.

    W = R(2pi) expm(2pi B) = expm(2pi B), as |omega| = 1, so ker(W - I) is
    the sum of ker(B - ikI) over integers k: nullity(B) plus, for real B,
    nullity(B^2 + k^2 I) for k = 1 (translations) and each k >= 2 with an
    eigenvalue of B within 0.1 of ik; each is an SVD count below
    ``KERNEL_SV_RATIO`` times the largest singular value.  (On W - I, which
    grows like e^{2pi Re lambda}, an unstable kernel drowns in roundoff.)
    Nondegenerate means exactly 3: two translations and the phase.
    """
    check_period_normalized(eq.omega)
    B = rotating_generator(eq)
    lam = np.linalg.eigvals(B)
    freq = np.abs(lam.imag)
    k = np.rint(freq)
    ks = np.union1d(1.0, k[(k >= 1) & (np.hypot(lam.real, freq - k) < 0.1)])
    stack = np.concatenate([B[None], B @ B + ks[:, None, None]**2 * np.eye(lam.size)])
    sv = np.linalg.svd(stack, compute_uv=False)
    kernel_dim = int(np.count_nonzero(sv < KERNEL_SV_RATIO * sv[:, :1]))
    with np.errstate(over="ignore"):  # past the float range reads inf
        multipliers = np.exp(2.0 * np.pi * lam)
    return MonodromyReport(generator=B, multipliers=multipliers,
                           kernel_dim=kernel_dim, nondegenerate=(kernel_dim == 3))


@dataclass(frozen=True)
class TriangleConditions:
    gamma_ok: bool
    L_ok: bool
    L_neq_sumsq: bool
    gamma: float
    L: float
    sumsq: float

    @property
    def predicted_nondegenerate(self) -> bool:
        return self.gamma_ok and self.L_ok and self.L_neq_sumsq


def triangle_conditions(sys: VortexSystem) -> TriangleConditions:
    """Algebraic nondegeneracy conditions for the equilateral triangle of
    the three vortices of `sys`; ValueError unless sys has three.

    L is the total vortex angular momentum gamma1*gamma2 + gamma1*gamma3 +
    gamma2*gamma3; the triangle is predicted nondegenerate when the total
    vorticity and L are nonzero and L differs from the sum of squares.

    Normalized to |omega| = 1, the rotating-frame generator
    B = M^-1 J_N H0''(z) + omega J_N has eigenvalues 0 (twice: phase and
    scaling), +-i (translations) and a shape pair with
    lambda^2 = -3L / Gamma^2.  ``L_ok`` excludes the shape pair merging into
    0: at L = 0, B has a single 4x4 nilpotent Jordan block, so the
    generalized kernel of W - I grows from 4 to 6 while its kernel stays 3,
    which ``monodromy`` alone reports as nondegenerate.  ``L_neq_sumsq``
    excludes the shape pair reaching +-i (3L = Gamma^2 is L = sumsq).
    The flags are read off gamma / max|gamma|; the fields L and sumsq are
    in the input's units, 0 or inf past the float range.
    """
    if sys.n != 3:
        raise ValueError(f"a triangle has 3 vortices, got {sys.n}")
    try:
        total, gamma_ok = sys.nonzero_total(), True
    except ZeroTotalVorticity:
        total, gamma_ok = float(sys.gammas.sum()), False

    def moments(g1, g2, g3):  # float products: inf or 0 past the range, no raise
        return g1 * g2 + g1 * g3 + g2 * g3, g1 * g1 + g2 * g2 + g3 * g3

    g1, g2, g3 = map(float, sys.gammas)
    top = max(abs(g1), abs(g2), abs(g3))
    x1, x2, x3 = g1 / top, g2 / top, g3 / top
    L, sumsq = moments(x1, x2, x3)
    spread = ((x1 - x2)**2 + (x1 - x3)**2 + (x2 - x3)**2) / 2  # sumsq - L
    return TriangleConditions(gamma_ok, abs(L) > TRIANGLE_TOL * sumsq,
                              spread > TRIANGLE_TOL * sumsq, total,
                              *moments(g1, g2, g3))  # in the input's units
