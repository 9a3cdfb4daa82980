"""Point-vortex Hamiltonians and domain Green-function regular parts.

The interaction energy of N vortices with strengths ``gammas`` splits into a
free-plane logarithmic part ``H0`` and a boundary correction ``F`` built from
the regular part ``g(w, z)`` of the domain's Green function.  The Robin
function is ``h(p) = g(p, p)``.  Both sums run over *ordered* index pairs, so
every unordered pair contributes twice and ``F`` keeps its diagonal
``gamma_k**2 * h(z_k)`` terms.

All evaluation functions broadcast over leading axes: a configuration is an
array of shape ``(..., 2N)`` holding the stacked planar positions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryError,
    CollisionError,
    DomainError,
    LeftDomain,
    NoConvergence,
)

__all__ = [
    "J2",
    "COLLISION_TOL",
    "BOUNDARY_TOL",
    "VortexSystem",
    "DomainModel",
    "Plane",
    "UnitDisk",
    "HalfPlane",
    "SyntheticQuadratic",
    "TranslatedDomain",
    "domain_from_spec",
    "min_separation",
    "eval_H0",
    "grad_H0",
    "hess_H0",
    "eval_F",
    "grad_F",
    "hess_F",
    "eval_h",
    "grad_h",
    "hess_h",
    "eval_Hr",
    "grad_Hr",
    "vortex_rhs",
    "CriticalPoint",
    "find_critical_point_h",
]

# Standard symplectic 2x2 matrix, rows (0, 1), (-1, 0).
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

COLLISION_TOL = 1e-12
BOUNDARY_TOL = 1e-14


@dataclass(frozen=True)
class VortexSystem:
    """Vorticities and the derived constant matrices of an N-vortex system."""

    gammas: np.ndarray

    def __post_init__(self):
        g = np.array(self.gammas, dtype=float, ndmin=1)  # a private copy
        if g.ndim != 1 or g.size == 0:
            raise ValueError("gammas must be a nonempty vector")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"every vorticity must be finite, got {g}")
        if np.any(g == 0.0):
            raise ValueError("every vorticity must be nonzero")
        # gammas and the columns scaling grad_H0 and grad_F, all read-only
        for name, a in (("gammas", g), ("_h0_col", -(g[:, None] / np.pi)),
                        ("_f_col", 2.0 * g[:, None])):
            object.__setattr__(self, name, _read_only(a))

    @property
    def n(self) -> int:
        return self.gammas.size

    @property
    def gamma_total(self) -> float:
        return float(self.gammas.sum())

    def m_gamma_diag(self) -> np.ndarray:
        """Diagonal of M_Gamma: each vorticity repeated twice."""
        return np.repeat(self.gammas, 2)

    def m_gamma(self) -> np.ndarray:
        return np.diag(self.m_gamma_diag())

    def j_n(self) -> np.ndarray:
        """Block-diagonal symplectic matrix: N copies of J2 (read-only)."""
        return _j_n(self.n)

    def __eq__(self, other):  # value semantics on the read-only gammas
        return (np.array_equal(self.gammas, other.gammas)
                if isinstance(other, VortexSystem) else NotImplemented)

    def __hash__(self):
        return hash(self.gammas.tobytes())


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
    if not np.isfinite(z).all():
        raise ValueError("every configuration entry must be finite, got "
                         f"{z[~np.isfinite(z)][0]}")
    return z.reshape(z.shape[:-1] + (z.shape[-1] // 2, 2))


def _pair_differences(p):
    """d[..., k, j] = p_k - p_j and |d|^2 for points of shape (..., N, 2)."""
    d = p[..., :, None, :] - p[..., None, :, :]
    return d, np.einsum("...x,...x->...", d, d)


@functools.lru_cache
def _pair_indices(n: int):
    """Row and column indices of the pairs j < k of n points, as
    ``np.triu_indices(n, 1)``; built once per n and read-only."""
    return tuple(_read_only(a) for a in np.triu_indices(n, 1))


def _min_dist2(dist2):
    """Smallest off-diagonal entry of a (..., N, N) squared-distance array."""
    n = dist2.shape[-1]
    if n < 2:
        return np.inf
    i, j = _pair_indices(n)
    return dist2[..., i, j].min()


def min_separation(z) -> float:
    """Minimum pairwise distance over the (batched) configuration."""
    return float(np.sqrt(_min_dist2(_pair_differences(_as_points(z))[1])))


# ---------------------------------------------------------------------------
# Domain models
# ---------------------------------------------------------------------------


class DomainModel:
    """Regular part g of a hydrodynamic Green function and its derivatives.

    Subclasses provide ``g``, the gradient ``g_w`` in the first argument, the
    second derivatives ``g_ww`` and the mixed block ``g_wz`` with entries
    ``d^2 g / dw_a dz_b``.  All methods broadcast over leading axes of the
    two planar points ``w`` and ``z``.
    """

    variant = "abstract"

    def g(self, w, z):
        raise NotImplementedError

    def g_w(self, w, z):
        raise NotImplementedError

    def g_ww(self, w, z):
        raise NotImplementedError

    def g_wz(self, w, z):
        raise NotImplementedError

    def contains(self, p):
        """Membership predicate for points of shape (..., 2)."""
        raise NotImplementedError

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
        w = np.asarray(w, dtype=float)
        z = np.asarray(z, dtype=float)
        return np.zeros(np.broadcast_shapes(w.shape[:-1], z.shape[:-1]))

    def g_w(self, w, z):
        shape = np.broadcast_shapes(np.shape(w), np.shape(z))
        return np.zeros(shape)

    def g_ww(self, w, z):
        shape = np.broadcast_shapes(np.shape(w), np.shape(z))
        return np.zeros(shape + (2,))

    g_wz = g_ww

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        return np.ones(p.shape[:-1], dtype=bool)


class UnitDisk(DomainModel):
    """Open unit disk with the method-of-images regular part.

    g(w, z) = -(1/4pi) * log(|w|^2 |z|^2 - 2 w.z + 1), which is symmetric and
    gives the Robin function h(p) = -(1/2pi) * log(1 - |p|^2).
    """

    variant = "disk"

    @staticmethod
    def _q(w, z):
        """q = |w|^2 |z|^2 - 2 w.z + 1, returned with |w|^2 and |z|^2."""
        w = np.asarray(w, dtype=float)
        z = np.asarray(z, dtype=float)
        w2 = np.einsum("...x,...x->...", w, w)
        z2 = np.einsum("...x,...x->...", z, z)
        wz = np.einsum("...x,...x->...", w, z)
        return w2 * z2 - 2.0 * wz + 1.0, w2, z2

    def g(self, w, z):
        return -np.log(self._q(w, z)[0]) / (4.0 * np.pi)

    def g_w(self, w, z):
        w = np.asarray(w, dtype=float)
        z = np.asarray(z, dtype=float)
        q, _, z2 = self._q(w, z)
        q_w = 2.0 * z2[..., None] * w - 2.0 * z
        return -q_w / (4.0 * np.pi * q[..., None])

    def g_ww(self, w, z):
        w = np.asarray(w, dtype=float)
        z = np.asarray(z, dtype=float)
        q, _, z2 = self._q(w, z)
        q = q[..., None, None]
        q_w = 2.0 * z2[..., None] * w - 2.0 * z
        q_ww = 2.0 * z2[..., None, None] * np.eye(2)
        outer = q_w[..., :, None] * q_w[..., None, :]
        return -(q_ww / q - outer / q**2) / (4.0 * np.pi)

    def g_wz(self, w, z):
        w = np.asarray(w, dtype=float)
        z = np.asarray(z, dtype=float)
        q, w2, z2 = self._q(w, z)
        q = q[..., None, None]
        q_w = 2.0 * z2[..., None] * w - 2.0 * z
        q_z = 2.0 * w2[..., None] * z - 2.0 * w
        # d(q_w)_a / dz_b = 4 w_a z_b - 2 delta_ab
        q_wz = 4.0 * w[..., :, None] * z[..., None, :] - 2.0 * np.eye(2)
        outer = q_w[..., :, None] * q_z[..., None, :]
        return -(q_wz / q - outer / q**2) / (4.0 * np.pi)

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        return np.einsum("...x,...x->...", p, p) < 1.0

    def boundary_gap(self, p):
        p = np.asarray(p, dtype=float)
        return 1.0 - np.einsum("...x,...x->...", p, p)


class HalfPlane(DomainModel):
    """Open upper half-plane; the image vortex is the mirror across y = 0."""

    variant = "halfplane"

    _R = np.array([[1.0, 0.0], [0.0, -1.0]])
    _MIN_D2 = np.sqrt(np.finfo(float).tiny)  # 1/|d|^4 in g_ww stays finite

    def _d(self, w, z):
        """d = w - Rz and |d|^2; BoundaryError if g_ww would not be finite."""
        d = np.asarray(w, dtype=float) - np.asarray(z, dtype=float) @ self._R
        d2 = np.einsum("...x,...x->...", d, d)
        if d2.min() < self._MIN_D2:
            raise BoundaryError("points too close to the boundary y = 0")
        return d, d2

    def g(self, w, z):
        return -np.log(self._d(w, z)[1]) / (4.0 * np.pi)

    def g_w(self, w, z):
        d, d2 = self._d(w, z)
        return -d / (2.0 * np.pi * d2[..., None])

    def g_ww(self, w, z):
        d, d2 = self._d(w, z)
        d2 = d2[..., None, None]
        outer = d[..., :, None] * d[..., None, :]
        return -(np.eye(2) / d2 - 2.0 * outer / d2**2) / (2.0 * np.pi)

    def g_wz(self, w, z):
        # d depends on z through -R z, so the mixed block is -g_ww @ R.
        return -self.g_ww(w, z) @ self._R

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        return p[..., 1] > 0.0

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
        self.offset = np.asarray(offset, dtype=float).reshape(2)
        self.variant = base.variant + "+offset"

    def g(self, w, z):
        return self.base.g(np.asarray(w) + self.offset, np.asarray(z) + self.offset)

    def g_w(self, w, z):
        return self.base.g_w(np.asarray(w) + self.offset, np.asarray(z) + self.offset)

    def g_ww(self, w, z):
        return self.base.g_ww(np.asarray(w) + self.offset, np.asarray(z) + self.offset)

    def g_wz(self, w, z):
        return self.base.g_wz(np.asarray(w) + self.offset, np.asarray(z) + self.offset)

    def contains(self, p):
        return self.base.contains(np.asarray(p) + self.offset)

    def boundary_gap(self, p):
        return self.base.boundary_gap(np.asarray(p) + self.offset)

    def params(self) -> dict:
        d = dict(self.base.params())
        d["offset"] = self.offset.tolist()
        return d


def domain_from_spec(variant: str, params: dict | None = None) -> DomainModel:
    """Build a domain from its serialized (variant, params) description."""
    params = params or {}
    variant = variant.lower()
    if variant == "plane":
        return Plane()
    if variant in ("disk", "unitdisk"):
        return UnitDisk()
    if variant == "halfplane":
        return HalfPlane()
    if variant == "quadratic":
        return SyntheticQuadratic(params.get("a_matrix"))
    raise ValueError(f"unknown domain variant: {variant!r}")


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def _at_sample(bad):
    """Message suffix " at sample i", i the first True of a per-configuration
    mask (flat over the batch axes); empty for a single configuration."""
    return f" at sample {int(np.argmax(bad))}" if bad.ndim else ""


def _separated_pairs(p, tol=COLLISION_TOL):
    """``_pair_differences`` of points no two of which are within tol."""
    d, dist2 = _pair_differences(p)
    m = _min_dist2(dist2)
    if m <= tol * tol:
        off = dist2 + np.diag(np.full(p.shape[-2], np.inf))
        raise CollisionError(
            f"minimum separation {np.sqrt(m):.3e} <= {tol:.0e}"
            + _at_sample(np.any(off <= tol * tol, axis=(-2, -1))))
    return d, dist2


def _check_membership(domain, p):
    inside = domain.contains(p)
    if not inside.all():
        raise DomainError("configuration has points outside the domain"
                          + _at_sample(~np.all(inside, axis=-1)))


def eval_H0(sys: VortexSystem, z):
    """Logarithmic pair interaction, summed over ordered pairs j != k."""
    p = _as_points(z)
    d, dist2 = _separated_pairs(p)
    gg = np.outer(sys.gammas, sys.gammas)
    i, j = _pair_indices(sys.n)
    terms = gg[i, j] * np.log(dist2[..., i, j])
    # each unordered pair appears twice; log|d| = log(d^2)/2
    return -terms.sum(axis=-1) / (2.0 * np.pi)


def grad_H0(sys: VortexSystem, z):
    """Gradient of ``eval_H0``; block k is -(G_k/pi) sum_j G_j d_kj/|d_kj|^2."""
    z = np.asarray(z, dtype=float)
    return _grad_H0(sys, _as_points(z)).reshape(z.shape)


def _grad_H0(sys, p):
    """``grad_H0`` at checked points p of shape (..., N, 2), in that shape."""
    d, dist2 = _separated_pairs(p)
    # d_kk = p_k - p_k is exactly 0, so a unit |d_kk|^2 zeroes the k = j term
    field = np.einsum("j,...kjx->...kx", sys.gammas,
                      d / (dist2 + _eye(sys.n))[..., None])
    return sys._h0_col * field


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
    p = _as_points(z)
    d, dist2 = _separated_pairs(p)
    n = sys.n
    dist2 = dist2 + _eye(n)
    # K(d) = I/|d|^2 - 2 d d^T / |d|^4, the Jacobian of d/|d|^2
    K = np.eye(2) / dist2[..., None, None] - 2.0 * (
        d[..., :, None] * d[..., None, :]
    ) / (dist2**2)[..., None, None]
    off = (np.outer(sys.gammas, sys.gammas)[..., None, None] / np.pi) * K
    # diagonal blocks are minus the row sums of the off-diagonal ones
    diag = -np.einsum("...kjab,kj->...kab", off, 1.0 - _eye(n))
    return _assemble_pairs(off, diag)


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
    n = sys.n
    wp = p[..., :, None, :]
    zp = p[..., None, :, :]
    gww = domain.g_ww(wp, zp)
    gwz = domain.g_wz(wp, zp)
    gg = np.outer(sys.gammas, sys.gammas)
    idx = np.arange(n)

    # diagonal blocks: cross terms with the other vortices plus the Robin term
    cross = 2.0 * np.einsum("jk,...jkab->...jab", gg * (1.0 - _eye(n)), gww)
    gwz_d = gwz[..., idx, idx, :, :]
    gww_d = gww[..., idx, idx, :, :]
    hpp = 2.0 * (gww_d + 0.5 * (gwz_d + np.swapaxes(gwz_d, -1, -2)))
    diag = cross + (sys.gammas**2)[:, None, None] * hpp
    return _assemble_pairs(2.0 * gg[..., None, None] * gwz, diag)


# ---------------------------------------------------------------------------
# Robin function
# ---------------------------------------------------------------------------


def _check_point(domain, p):
    p = np.asarray(p, dtype=float)
    if not np.all(domain.contains(p)):
        raise DomainError("point outside the domain")
    gap = domain.boundary_gap(p)
    if np.any(gap < BOUNDARY_TOL):
        raise BoundaryError("point too close to the boundary")
    return p


def eval_h(domain: DomainModel, p):
    """Robin function h(p) = g(p, p)."""
    p = _check_point(domain, p)
    return domain.g(p, p)


def grad_h(domain: DomainModel, p):
    """Gradient of the Robin function: 2 g_w(p, p) by symmetry of g."""
    p = _check_point(domain, p)
    return 2.0 * domain.g_w(p, p)


def hess_h(domain: DomainModel, p):
    p = _check_point(domain, p)
    gwz = domain.g_wz(p, p)
    return 2.0 * (domain.g_ww(p, p) + 0.5 * (gwz + np.swapaxes(gwz, -1, -2)))


# ---------------------------------------------------------------------------
# Blown-up Hamiltonian H_r and vector fields
# ---------------------------------------------------------------------------


def eval_Hr(sys: VortexSystem, domain: DomainModel, r: float, u):
    """Rescaled Hamiltonian H_r(u) = H0(u) - F(ru) + F(0)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    u = np.asarray(u, dtype=float)
    h0 = eval_H0(sys, u)
    if r == 0:
        return h0
    return (h0 - eval_F(sys, domain, r * u)
            + eval_F(sys, domain, np.zeros_like(u)))


def grad_Hr(sys: VortexSystem, domain: DomainModel, r: float, u):
    u = np.asarray(u, dtype=float)
    return _grad_Hr(sys, domain, r, _as_points(u)).reshape(u.shape)


def _grad_Hr(sys, domain, r, p):
    """``grad_Hr`` at checked points p of shape (..., N, 2), in that shape."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    out = _grad_H0(sys, p)
    if r > 0:
        out = out - r * _grad_F(sys, domain, r * p)
    return out


def vortex_rhs(sys: VortexSystem, domain: DomainModel, z, r: float = 0.0,
               physical: bool = False):
    """Right-hand side of the vortex equations.

    ``physical=True`` evaluates the un-rescaled field (1/G_k) J grad_k (H0-F)
    at actual domain positions; otherwise ``r`` selects H0 (r=0) or H_r.
    """
    z = np.asarray(z, dtype=float)
    p = _as_points(z)  # the one conversion and finiteness check
    if physical:
        grad = _grad_H0(sys, p) - _grad_F(sys, domain, p)
    else:
        grad = _grad_Hr(sys, domain, r, p)
    return ((grad @ J2.T) / sys.gammas[:, None]).reshape(z.shape)


# ---------------------------------------------------------------------------
# Robin critical points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalPoint:
    point: np.ndarray
    hessian: np.ndarray
    nondegenerate: bool


def find_critical_point_h(domain: DomainModel, guess, tol: float = 1e-10,
                          max_iter: int = 50, deg_tol: float = 1e-10) -> CriticalPoint:
    """Newton iteration on grad h with step halving to stay inside the domain.

    The critical point is nondegenerate when the smaller singular value of
    h'' exceeds ``deg_tol`` times the larger one, so the verdict does not
    depend on the scale of h; a zero Hessian is degenerate.
    """
    p = np.asarray(guess, dtype=float).reshape(2)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"initial guess must be finite, got {p}")
    if not domain.contains(p):
        raise DomainError("initial guess outside the domain")
    for _ in range(max_iter):
        gh = grad_h(domain, p)
        if np.linalg.norm(gh) <= tol:
            hh = hess_h(domain, p)
            sv = np.linalg.svd(hh, compute_uv=False)
            nondeg = bool(sv[1] > deg_tol * sv[0])
            return CriticalPoint(point=p, hessian=hh, nondegenerate=nondeg)
        hh = hess_h(domain, p)
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
        p = cand
    raise NoConvergence(f"no critical point after {max_iter} iterations")
