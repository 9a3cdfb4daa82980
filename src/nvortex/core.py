"""Point-vortex Hamiltonians and domain Green-function regular parts.

The interaction energy of N vortices with strengths ``gammas`` splits into a
free-plane logarithmic part ``H0`` and a boundary correction ``F`` built from
the regular part ``g(w, z)`` of the domain's Green function.  The Robin
function ``h(p) = g(p, p)`` is ``F`` of one vortex with strength 1.  Both
sums run over *ordered* index pairs, so every unordered pair contributes
twice and ``F`` keeps its diagonal ``gamma_k**2 * h(z_k)`` terms.

All evaluation functions broadcast over leading axes: a configuration is an
array of shape ``(..., 2N)`` holding the stacked planar positions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryError,
    CollisionError,
    DegenerateFrame,
    DomainError,
    LeftDomain,
    NoConvergence,
    ZeroTotalVorticity,
)

# Standard symplectic 2x2 matrix, rows (0, 1), (-1, 0).
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

COLLISION_TOL = 1e-12
BOUNDARY_TOL = 1e-14

# find_critical_point_h: stop once a step is <= tol, step cap, degeneracy ratio
CRITICAL_STEP_TOL = 1e-10
CRITICAL_MAX_ITER = 50
CRITICAL_SV_RATIO = 1e-10

_EPS = np.finfo(float).eps
_HALF_MAX = np.finfo(float).max / 2


@dataclass(frozen=True)
class VortexSystem:
    """Vorticities and the derived constant matrices of an N-vortex system."""

    gammas: np.ndarray

    def __post_init__(self):
        g = np.array(self.gammas, dtype=float, ndmin=1)  # a private copy
        if g.ndim != 1 or g.size == 0:
            raise ValueError("gammas must be a nonempty vector")
        if not np.all(np.abs(g) <= _HALF_MAX):  # NaN fails too
            raise ValueError("every vorticity must be finite, and small enough "
                             f"that 2 gamma does not overflow, got {g}")
        if np.any(g == 0.0):
            raise ValueError("every vorticity must be nonzero")
        # gammas and the columns scaling grad_H0 and grad_F, all read-only
        for name, a in (("gammas", g), ("_h0_col", -(g[:, None] / np.pi)),
                        ("_f_col", 2.0 * g[:, None])):
            object.__setattr__(self, name, _read_only(a))
        # the total and its rounding bound, each term scaled before the sum
        # so the bound cannot overflow; the total may, and nonzero_total says so
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(g.sum())
        bound = float(((g.size - 1) * _EPS * np.abs(g)).sum())
        object.__setattr__(self, "_total", (total, bound))

    @property
    def n(self) -> int:
        return self.gammas.size

    def nonzero_total(self) -> float:
        """Gamma, or ZeroTotalVorticity if Gamma is zero to rounding,
        |Gamma| <= (N-1) eps sum|gamma_k|: a float sum of N terms errs by at
        most (N-1)u sum|gamma_k| to first order, u = eps/2, in any order
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        ch. 4), and rounding the gamma_k from decimal input by u sum|gamma_k|.
        A zero-sum system translates instead of rotating.  Both numbers are
        computed once, with the system."""
        total, bound = self._total
        if not math.isfinite(total):
            raise ValueError("the total vorticity overflows")
        if abs(total) <= bound:
            raise ZeroTotalVorticity(
                f"zero-sum vorticities: a rotating seed needs a nonzero total, "
                f"got {total:.3g}, within the rounding bound {bound:.3g} of 0")
        return total

    def m_gamma_diag(self) -> np.ndarray:
        """Diagonal of M_Gamma: each vorticity repeated twice."""
        return np.repeat(self.gammas, 2)

    def j_n(self) -> np.ndarray:
        """Block-diagonal symplectic matrix: N copies of J2 (read-only)."""
        return _j_n(self.n)

    def __eq__(self, other):  # value semantics on the read-only gammas
        return (np.array_equal(self.gammas, other.gammas)
                if isinstance(other, VortexSystem) else NotImplemented)

    def __hash__(self):
        return hash(self.gammas.tobytes())


def finite(message: str, compute):
    """compute(), or ValueError(message) if an entry overflows to inf or NaN."""
    with np.errstate(all="ignore"):
        value = compute()
    if not np.all(np.isfinite(value)):
        raise ValueError(message)
    return value


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.lru_cache
def _j_n(n: int):
    return _read_only(np.kron(np.eye(n), J2))


@functools.lru_cache
def _eye(n: int):
    """The n x n identity, built once per n and read-only."""
    return _read_only(np.eye(n))


def _as_points(z):
    z = np.asarray(z, dtype=float)
    if z.shape[-1] % 2:
        raise ValueError("configuration length must be even")
    if not np.abs(z).max() <= _HALF_MAX:  # one reduction; NaN fails it too
        bad = ~np.isfinite(z)
        if bad.any():
            raise ValueError("every configuration entry must be finite, got "
                             f"{z[bad][0]}")
        raise ValueError(f"every configuration entry must be at most "
                         f"{_HALF_MAX:.6g} in magnitude, so that no pair difference "
                         f"overflows, got {z[np.abs(z) > _HALF_MAX][0]:.6g}")
    return z.reshape(z.shape[:-1] + (z.shape[-1] // 2, 2))


def _complex(p):
    """Planar points of shape (..., 2) as complex numbers of shape (...)."""
    return np.ascontiguousarray(p, dtype=float).view(complex)[..., 0]


def _planar(a):
    """Complex numbers of shape (...) as planar points of shape (..., 2)."""
    return np.asarray(a)[..., None].view(float)


def _columns(a, b):
    """The 2x2 blocks [[Re a, Re b], [Im a, Im b]] of complex columns a, b."""
    return np.stack([_planar(a), _planar(b)], axis=-1)


def _pair_differences(p):
    """c[..., k, j] = p_k - p_j, complex, and |c|^2 for points of shape
    (..., N, 2); the einsum keeps |c|^2 silent where it overflows to inf."""
    d = p[..., :, None, :] - p[..., None, :, :]
    return _complex(d), np.einsum("...x,...x->...", d, d)


@functools.lru_cache
def _inf_diagonal(n: int):
    """+inf on the diagonal and 0 off it, so that |c|^2 plus it holds only
    the pairs; built once per n and read-only."""
    return _read_only(np.diag(np.full(n, np.inf)))


def min_separation(z) -> float:
    """Minimum pairwise distance over the (batched) configuration; inf for
    one vortex."""
    dist2 = _pair_differences(_as_points(z))[1]
    return float(np.sqrt((dist2 + _inf_diagonal(dist2.shape[-1])).min()))


# ---------------------------------------------------------------------------
# Domain models
# ---------------------------------------------------------------------------


class DomainModel:
    """Regular part g of a hydrodynamic Green function and its derivatives.

    Every domain defines ``g``, the gradient ``g_w`` in the first argument,
    the second derivatives ``g_ww`` and the mixed block ``g_wz`` with
    entries ``d^2 g / dw_a dz_b``; ``boundary_gap`` defaults to +inf, an
    unbounded domain.  All methods broadcast over leading axes of the two
    planar points ``w`` and ``z``.
    """

    variant = "abstract"

    def contains(self, p):
        """Membership of points of shape (..., 2): a positive boundary gap,
        so a NaN point is outside a bounded domain."""
        return self.boundary_gap(p) > 0.0

    def boundary_gap(self, p):
        """Distance-like gap to the boundary; +inf for unbounded variants."""
        p = np.asarray(p, dtype=float)
        return np.full(p.shape[:-1], np.inf)

    def params(self) -> dict:
        return {}


class Plane(DomainModel):
    """The whole plane: no boundary, g identically zero."""

    variant = "plane"

    def g(self, w, z):
        return np.zeros(np.broadcast_shapes(np.shape(w), np.shape(z))[:-1])

    def g_w(self, w, z):
        return np.zeros(np.broadcast_shapes(np.shape(w), np.shape(z)))

    def g_ww(self, w, z):
        return np.zeros(np.broadcast_shapes(np.shape(w), np.shape(z)) + (2,))

    g_wz = g_ww


class _ImageDomain(DomainModel):
    """Method-of-images regular part g(w, z) = -(1/2pi) log|f| over complex
    points, f = alpha conj(w) z + beta conj(w) + gamma z + delta, which is
    antiholomorphic in w and holomorphic in z.  With a = df/dconj(w) and
    D = beta gamma - alpha delta, g_x + i g_y = -a/(2pi f), g_ww has the
    columns P and -iP, P = (a/f)^2/(2pi), and g_wz the columns Q and iQ,
    Q = D/(2pi f^2).  A subclass gives ``_f(w, z)``, f and a, and ``_D``."""

    def g(self, w, z):
        return -np.log(np.abs(self._f(w, z)[0]) ** 2) / (4.0 * np.pi)

    def g_w(self, w, z):
        f, a = self._f(w, z)
        return _planar(a / (-2.0 * np.pi * f))

    def g_ww(self, w, z):
        f, a = self._f(w, z)
        p = (a / f) ** 2 / (2.0 * np.pi)
        return _columns(p, -1j * p)

    def g_wz(self, w, z):
        q = self._D / (2.0 * np.pi * self._f(w, z)[0] ** 2)
        return _columns(q, 1j * q)


class UnitDisk(_ImageDomain):
    """Open unit disk: f = conj(w) z - 1, a = z, D = 1, so g is symmetric
    and h(p) = -(1/2pi) log(1 - |p|^2)."""

    variant = "disk"
    _D = 1.0

    @staticmethod
    def _f(w, z):
        z = _complex(z)
        return _complex(w).conj() * z - 1.0, z

    def boundary_gap(self, p):
        p = np.asarray(p, dtype=float)
        return 1.0 - np.einsum("...x,...x->...", p, p)


class HalfPlane(_ImageDomain):
    """Open upper half-plane: f = conj(w) - z, a = 1, D = -1; |f| is the
    distance from w to the mirror image of z across y = 0."""

    variant = "halfplane"
    _D = -1.0
    _MIN_D2 = np.sqrt(np.finfo(float).tiny)  # 1/|f|^4 in g_ww stays finite

    def _f(self, w, z):
        f = _complex(w).conj() - _complex(z)
        d = _planar(f)
        if np.einsum("...x,...x->...", d, d).min(initial=np.inf) < self._MIN_D2:
            raise BoundaryError("points too close to the boundary y = 0")
        return f, 1.0

    def boundary_gap(self, p):
        p = np.asarray(p, dtype=float)
        return p[..., 1]


class SyntheticQuadratic(Plane):
    """Synthetic regular part g(w, z) = w^T A z on the whole plane.

    Useful as an exactly-solvable test family: h(p) = p^T A p, and all
    second derivatives are constant (``g_ww`` is the plane's zero).
    """

    variant = "quadratic"

    def __init__(self, a_matrix=None):
        a = np.eye(2) if a_matrix is None else np.asarray(a_matrix, dtype=float)
        if a.shape != (2, 2) or not np.allclose(a, a.T):
            raise ValueError("A must be a symmetric 2x2 matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"A must be finite, got {a.tolist()}")
        self.a_matrix = a

    def g(self, w, z):
        w = np.asarray(w, dtype=float)
        z = np.asarray(z, dtype=float)
        return np.einsum("...x,xy,...y->...", w, self.a_matrix, z)

    def g_w(self, w, z):
        z = np.asarray(z, dtype=float)
        w = np.asarray(w, dtype=float)
        out = z @ self.a_matrix.T
        return np.broadcast_to(out, np.broadcast_shapes(w.shape, out.shape)).copy()

    def g_wz(self, w, z):
        shape = np.broadcast_shapes(np.shape(w), np.shape(z))
        return np.broadcast_to(self.a_matrix, shape + (2,)).copy()

    def params(self) -> dict:
        return {"a_matrix": self.a_matrix.tolist()}


class TranslatedDomain(DomainModel):
    """View of a domain recentred so that a given point becomes the origin."""

    def __init__(self, base: DomainModel, offset):
        self.base = base
        self.offset = np.asarray(offset, dtype=float)
        if self.offset.shape != (2,) or not np.all(np.isfinite(self.offset)):
            raise ValueError(f"offset must be one finite point, got {offset}")
        self.variant = base.variant + "+offset"

    def g(self, w, z):
        return self.base.g(np.asarray(w) + self.offset, np.asarray(z) + self.offset)

    def g_w(self, w, z):
        return self.base.g_w(np.asarray(w) + self.offset, np.asarray(z) + self.offset)

    def g_ww(self, w, z):
        return self.base.g_ww(np.asarray(w) + self.offset, np.asarray(z) + self.offset)

    def g_wz(self, w, z):
        return self.base.g_wz(np.asarray(w) + self.offset, np.asarray(z) + self.offset)

    def boundary_gap(self, p):
        return self.base.boundary_gap(np.asarray(p) + self.offset)

    def params(self) -> dict:
        return {**self.base.params(), "offset": self.offset.tolist()}


def domain_from_spec(variant: str, params: dict | None = None) -> DomainModel:
    """Build a domain from its serialized (variant, params) description;
    ValueError for an unknown variant or a param that it does not read."""
    params = dict(params or {})
    variant = variant.lower()
    if variant.endswith("+offset"):  # a TranslatedDomain; None is no point
        offset = params.pop("offset", None)
        return TranslatedDomain(domain_from_spec(variant[:-7], params), offset)
    build = {"plane": Plane, "disk": UnitDisk, "halfplane": HalfPlane,
             "quadratic": SyntheticQuadratic}.get(variant)
    if build is None:
        raise ValueError(f"unknown domain variant: {variant!r}")
    unread = sorted(params.keys() - {"a_matrix"} if variant == "quadratic"
                    else params)
    if unread:
        raise ValueError(f"the {variant} domain reads no params {unread}")
    return build(**params)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def _at_sample(bad):
    """Message suffix " at sample i", i the first True of a per-configuration
    mask (flat over the batch axes); empty for a single configuration."""
    return f" at sample {int(np.argmax(bad))}" if bad.ndim else ""


def _separated_pairs(p):
    """``_pair_differences`` of points no two within COLLISION_TOL, and
    ValueError where a squared distance overflows."""
    c, dist2 = _pair_differences(p)
    if not dist2.max() < np.inf:
        raise ValueError("a squared pair distance overflows: configuration "
                         "out of range" + _at_sample(
                             np.isinf(dist2).any(axis=(-2, -1))))
    off = dist2 + _inf_diagonal(p.shape[-2])
    m = off.min()
    if m <= COLLISION_TOL**2:
        raise CollisionError(
            f"minimum separation {np.sqrt(m):.3e} <= {COLLISION_TOL:.0e}"
            + _at_sample(np.any(off <= COLLISION_TOL**2, axis=(-2, -1))))
    return c, dist2


def _check_membership(domain, p):
    inside = domain.contains(p)
    if not inside.all():
        raise DomainError("configuration has points outside the domain"
                          + _at_sample(~np.all(inside, axis=-1)))


def eval_H0(sys: VortexSystem, z):
    """Logarithmic pair interaction, summed over ordered pairs j != k."""
    dist2 = _separated_pairs(_as_points(z))[1]
    # log|c| = log(|c|^2)/2, and the unit diagonal contributes log 1 = 0
    logs = np.log(dist2 + _eye(sys.n))
    return -np.einsum("j,k,...jk->...", sys.gammas, sys.gammas, logs) / (4.0 * np.pi)


def grad_H0(sys: VortexSystem, z):
    """Gradient of ``eval_H0``; block k is -(G_k/pi) sum_j G_j/conj(z_k - z_j)."""
    z = np.asarray(z, dtype=float)
    return _grad_H0(sys, _as_points(z)).reshape(z.shape)


def _grad_H0(sys, p):
    """``grad_H0`` at checked points p of shape (..., N, 2), in that shape."""
    c, dist2 = _separated_pairs(p)
    # c/|c|^2 = conj(1/c); c_kk is exactly 0, so a unit |c_kk|^2 zeroes it
    return sys._h0_col * _planar((c / (dist2 + _eye(sys.n))) @ sys.gammas)


def grad_H0_increment(sys: VortexSystem, z, dz):
    """grad_H0(z + dz) - grad_H0(z) without cancellation.  Per pair, with
    c = z_k - z_j and e = dz_k - dz_j as complex numbers,

        conj(1/(c + e)) - conj(1/c) = -conj(e / (c (c + e))),

    which is O(|e|), so the increment keeps its digits relative to |e|
    where the difference of two grad_H0 calls loses them to the O(1) terms
    that cancel.  CollisionError unless z and z + dz are both separated;
    z and dz broadcast."""
    z, dz = np.broadcast_arrays(np.asarray(z, dtype=float),
                                np.asarray(dz, dtype=float))
    p, dp = _as_points(z), _as_points(dz)
    c = _separated_pairs(p)[0]
    ce = _separated_pairs(p + dp)[0]
    e = _pair_differences(dp)[0]
    # ce is c + e as the check on z + dz forms it; on the diagonal e is 0
    # and the unit keeps the quotient finite
    field = -np.conj(e / (c * ce + _eye(sys.n))) @ sys.gammas
    return (sys._h0_col * _planar(field)).reshape(z.shape)


def _assemble_pairs(off, diag):
    """Dense symmetric (..., 2N, 2N) matrix from 2x2 blocks: off[..., k, j]
    at (k, j) for k != j, and diag[..., k] at (k, k)."""
    n = diag.shape[-3]
    batch = diag.shape[:-3]
    idx = np.arange(n)
    H = np.zeros(batch + (n, 2, n, 2))
    # off has axes (..., k, j, a, b); interleave to (..., k, a, j, b)
    H[...] = np.moveaxis(off, -2, -3)
    H[..., idx, :, idx, :] = np.moveaxis(diag, -3, 0)
    full = H.reshape(batch + (2 * n, 2 * n))
    return 0.5 * (full + np.swapaxes(full, -1, -2))


def hess_H0(sys: VortexSystem, z):
    """Dense symmetric Hessian of ``eval_H0``, shape (..., 2N, 2N)."""
    c, dist2 = _separated_pairs(_as_points(z))
    # conj(1/c) is antiholomorphic in c with derivative conj(-1/c^2), so
    # the block (k, j) has the columns P and -iP, P = -conj(1/c)^2 G_k G_j/pi;
    # conj(1/c) = c/|c|^2 is 0 on the diagonal, as in _grad_H0
    w = c / (dist2 + _eye(sys.n))
    P = -(w * w) * (np.outer(sys.gammas, sys.gammas) / np.pi)
    off = _columns(P, -1j * P)
    # diagonal blocks are minus the row sums of the off-diagonal ones
    return _assemble_pairs(off, -off.sum(axis=-3))


def eval_F(sys: VortexSystem, domain: DomainModel, z):
    """Boundary interaction: full double sum of G_j G_k g(z_j, z_k)."""
    p = _as_points(z)
    _check_membership(domain, p)
    gvals = domain.g(p[..., :, None, :], p[..., None, :, :])
    return np.einsum("j,k,...jk->...", sys.gammas, sys.gammas, gvals)


def grad_F(sys: VortexSystem, domain: DomainModel, z):
    z = np.asarray(z, dtype=float)
    return _grad_F(sys, domain, _as_points(z)).reshape(z.shape)


def _grad_F(sys, domain, p):
    """``grad_F`` at checked points p of shape (..., N, 2), in that shape."""
    _check_membership(domain, p)
    gw = domain.g_w(p[..., :, None, :], p[..., None, :, :])
    return sys._f_col * np.einsum("k,...jkx->...jx", sys.gammas, gw)


def hess_F(sys: VortexSystem, domain: DomainModel, z):
    """Dense symmetric Hessian of ``eval_F``, shape (..., 2N, 2N)."""
    p = _as_points(z)
    _check_membership(domain, p)
    wp, zp = p[..., :, None, :], p[..., None, :, :]
    gwz = domain.g_wz(wp, zp)
    gg = np.outer(sys.gammas, sys.gammas)
    idx = np.arange(sys.n)
    # diagonal blocks: 2 G_k sum_j G_j g_ww(z_k, z_j) over every j, k
    # included, plus G_k^2 (g_wz + g_wz^T)(z_k, z_k)
    gwz_d = gwz[..., idx, idx, :, :]
    diag = (2.0 * np.einsum("jk,...jkab->...jab", gg, domain.g_ww(wp, zp))
            + (sys.gammas**2)[:, None, None]
            * (gwz_d + np.swapaxes(gwz_d, -1, -2)))
    return _assemble_pairs(2.0 * gg[..., None, None] * gwz, diag)


# ---------------------------------------------------------------------------
# Robin function
# ---------------------------------------------------------------------------


def _check_point(domain, p):
    p = np.asarray(p, dtype=float)
    gap = domain.boundary_gap(p)
    if not np.all(gap > 0.0):  # NaN is outside
        raise DomainError("point outside the domain")
    if np.any(gap < BOUNDARY_TOL):
        raise BoundaryError("point too close to the boundary")
    return p


_UNIT_VORTEX = VortexSystem(np.ones(1))


def eval_h(domain: DomainModel, p):
    """Robin function h(p) = g(p, p), the ``eval_F`` of a unit vortex at p."""
    return eval_F(_UNIT_VORTEX, domain, _check_point(domain, p))


def grad_h(domain: DomainModel, p):
    return grad_F(_UNIT_VORTEX, domain, _check_point(domain, p))


def hess_h(domain: DomainModel, p):
    return hess_F(_UNIT_VORTEX, domain, _check_point(domain, p))


# ---------------------------------------------------------------------------
# Blown-up Hamiltonian H_r and vector fields
# ---------------------------------------------------------------------------


# The input rules, one owner each; each is a single test on a valid value,
# as check_r runs in every vector field and operator assembly.

def check_r(r, name: str = "r") -> None:
    """The one rule for the scale parameter r, one value or each of a stack:
    finite and nonnegative."""
    lo, hi = (r, r) if np.isscalar(r) else (np.min(r), np.max(r))  # a NaN is both
    if not 0 <= lo <= hi < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {r}")


def check_positive(value: float, name: str) -> None:
    """The one rule for a size, a span or a tolerance: finite and positive."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_at_least(value, name: str, least) -> None:
    """The one rule for a floor on a tolerance, and the bound of a count."""
    if not value >= least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def check_count(value, name: str, least: int) -> None:
    """The one rule for a count: an integer (a numpy one too, not a bool)
    of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")
    check_at_least(value, name, least)


# |omega| within PERIOD_TOL of 1 is period-normalized.  The seed loop of
# loops.build_frame takes |omega| = 1, so an omega off by delta turns it
# 2 pi delta |z| off after a period: below the solvers' 1e-11 for |z| <= 1.
PERIOD_TOL = 1e-12


def check_period_normalized(omega: float) -> None:
    """The one rule for the seeds of the Floquet check and of the frame."""
    if not abs(abs(omega) - 1.0) <= PERIOD_TOL:
        raise DegenerateFrame(f"expects a period-normalized equilibrium, got "
                              f"omega = {omega}: call normalize_period first")


def eval_Hr(sys: VortexSystem, domain: DomainModel, r: float, u):
    """Rescaled Hamiltonian H_r(u) = H0(u) - F(ru), without the constant F(0)."""
    check_r(r)
    u = np.asarray(u, dtype=float)
    h0 = eval_H0(sys, u)
    if r == 0:
        return h0
    return h0 - eval_F(sys, domain, r * u)


def grad_Hr(sys: VortexSystem, domain: DomainModel, r, u):
    u = np.asarray(u, dtype=float)
    return _grad_Hr(sys, domain, r, _as_points(u)).reshape(u.shape)


def _grad_Hr(sys, domain, r, p):
    """``grad_Hr`` at checked points p of shape (..., N, 2), in that shape;
    a stack of r, an array, runs over the leading axes of p."""
    check_r(r)
    out = _grad_H0(sys, p)
    if np.isscalar(r):
        return out if r == 0 else out - r * _grad_F(sys, domain, r * p)
    live = np.asarray(r) != 0  # each r = 0 drops the F term, as one r does
    r = np.reshape(r, np.shape(r) + (1,) * (p.ndim - np.ndim(r)))[live]
    out[live] -= r * _grad_F(sys, domain, r * p[live])
    return out


def vortex_rhs(sys: VortexSystem, domain: DomainModel, z, r: float = 0.0):
    """Right-hand side (1/G_k) J grad_k H_r of the vortex equations: the
    physical field at r = 1, the plane field at r = 0."""
    z = np.asarray(z, dtype=float)
    p = _as_points(z)  # the one conversion and finiteness check
    grad = _grad_Hr(sys, domain, r, p)
    return ((grad @ J2.T) / sys.gammas[:, None]).reshape(z.shape)


# ---------------------------------------------------------------------------
# Robin critical points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)  # holds arrays: compares by identity
class CriticalPoint:
    point: np.ndarray
    hessian: np.ndarray
    nondegenerate: bool


def find_critical_point_h(domain: DomainModel, guess) -> CriticalPoint:
    """Newton iteration on grad h with step halving to stay inside the domain.

    A point where grad h is exactly 0 is returned at once.  Elsewhere the
    search steps, and stops at the point that a step of at most
    ``CRITICAL_STEP_TOL`` reaches, as FixedPoint stops: the last step
    polishes the point, where a small gradient would accept it unpolished.
    The critical point is nondegenerate when the condition number of h''
    is below 1 / ``CRITICAL_SV_RATIO``, the verdict `continue_path` reads
    on the a0 it finds here, so it does not depend on the scale of h; a
    zero Hessian (condition inf) is degenerate.  A guess that is not finite
    or not inside the domain, or an iterate where grad h or h'' overflows,
    raises ValueError.
    """
    p = np.asarray(guess, dtype=float).reshape(2)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"initial guess must be finite, got {p}")
    if not domain.contains(p):
        raise ValueError(f"initial guess {p} outside the domain")
    moved = np.inf  # the length of the step that reached p
    for _ in range(CRITICAL_MAX_ITER):
        at = f"at ({p[0]:g}, {p[1]:g}) overflows: point out of range"
        gh = finite(f"grad h {at}", lambda: grad_h(domain, p))
        hh = finite(f"h'' {at}", lambda: hess_h(domain, p))
        if moved <= CRITICAL_STEP_TOL or not gh.any():
            return CriticalPoint(point=p, hessian=hh, nondegenerate=bool(
                np.linalg.cond(hh) < 1 / CRITICAL_SV_RATIO))
        try:
            step = np.linalg.solve(hh, -gh)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular Robin Hessian in Newton step") from exc
        for _ in range(20):
            cand = p + step
            if domain.contains(cand):
                break
            step = 0.5 * step
        else:
            raise LeftDomain("Newton step left the domain despite damping")
        p, moved = cand, np.linalg.norm(step)
    raise NoConvergence(f"no critical point after {CRITICAL_MAX_ITER} iterations")
