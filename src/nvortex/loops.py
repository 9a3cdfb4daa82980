"""Truncated Fourier model of the loop space of 2*pi-periodic configurations.

A loop u(t) in R^{2N} is stored by its real Fourier coefficients

    u(t) = a_0 + sum_{k=1}^{M} (a_k cos kt + b_k sin kt),

each coefficient a 2N-vector.  The class provides the H^1 and L^2 inner
products, differentiation, the smoothing operator (id - Laplacian)^{-1},
time shifts, the geometric frame of the reduction solver and the
projection onto its translation subspace D, and a pseudo-spectral sampling
bridge for evaluating nonlinear maps.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AliasWarning, DegenerateFrame, DimensionMismatch


@dataclass(frozen=True, eq=False)
class Loop:
    """Band-limited loop: coeffs has shape (2M+1, 2N), rows a0,a1,b1,...,aM,bM.

    Loops compare by value (same shape and coefficients) and are not
    hashable: coeffs may share memory with a caller's writable array."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2 or c.shape[0] % 2 != 1 or c.shape[1] % 2 != 0:
            raise DimensionMismatch(f"bad coefficient array shape {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.shape[1] // 2

    @property
    def modes(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def a0(self) -> np.ndarray:
        return self.coeffs[0]

    def a(self, k: int) -> np.ndarray:
        return self.coeffs[0] if k == 0 else self.coeffs[2 * k - 1]

    def eval(self, t) -> np.ndarray:
        """Evaluate u(t); t may be a scalar or an array of times."""
        return _trig_table(t, self.modes) @ self.coeffs

    def pad(self, modes: int) -> "Loop":
        """Zero-pad (or truncate) to truncation order `modes`."""
        if modes == self.modes:
            return self
        c = np.zeros((2 * modes + 1, self.dim))
        rows = min(c.shape[0], self.coeffs.shape[0])
        c[:rows] = self.coeffs[:rows]
        return Loop(c)

    def __eq__(self, other):
        return (np.array_equal(self.coeffs, other.coeffs)
                if isinstance(other, Loop) else NotImplemented)

    def __add__(self, other: "Loop") -> "Loop":
        a, b = _aligned(self, other)
        return Loop(a.coeffs + b.coeffs)

    def __sub__(self, other: "Loop") -> "Loop":
        a, b = _aligned(self, other)
        return Loop(a.coeffs - b.coeffs)

    def __mul__(self, s: float) -> "Loop":
        return Loop(self.coeffs * float(s))

    __rmul__ = __mul__

    def __neg__(self) -> "Loop":
        return Loop(-self.coeffs)


def constant_loop(value: np.ndarray, modes: int) -> Loop:
    value = np.asarray(value, dtype=float)
    c = np.zeros((2 * modes + 1, value.size))
    c[0] = value
    return Loop(c)


def _aligned(u: Loop, v: Loop) -> tuple[Loop, Loop]:
    if u.dim != v.dim:
        raise DimensionMismatch(f"loop dimensions differ: {u.dim} vs {v.dim}")
    m = max(u.modes, v.modes)
    return u.pad(m), v.pad(m)


def _one_plus_k2(modes: int) -> np.ndarray:
    """1 + k^2 for the rows a0, a1, b1, ..., aM, bM, k the mode of the row."""
    return 1.0 + ((np.arange(2 * modes + 1) + 1) // 2) ** 2


def h1_weights(modes: int) -> np.ndarray:
    """Per-row weights w such that <u,v>_{H^1} = sum_rows w * (row_u . row_v)."""
    w = np.pi * _one_plus_k2(modes)
    w[0] = 2.0 * np.pi
    return w


def l2_weights(modes: int) -> np.ndarray:
    w = np.full(2 * modes + 1, np.pi)
    w[0] = 2.0 * np.pi
    return w


def h1_inner(u: Loop, v: Loop) -> float:
    u, v = _aligned(u, v)
    return float(np.sum(h1_weights(u.modes) * np.sum(u.coeffs * v.coeffs, axis=1)))


def l2_inner(u: Loop, v: Loop) -> float:
    u, v = _aligned(u, v)
    return float(np.sum(l2_weights(u.modes) * np.sum(u.coeffs * v.coeffs, axis=1)))


def h1_norm(u: Loop) -> float:
    return float(np.sqrt(max(h1_inner(u, u), 0.0)))


def differentiate(u: Loop) -> Loop:
    c = np.zeros_like(u.coeffs)
    k = np.arange(1, u.modes + 1)[:, None]
    c[1::2] = k * u.coeffs[2::2]
    c[2::2] = -k * u.coeffs[1::2]
    return Loop(c)


def id_minus_laplace(u: Loop) -> Loop:
    """Apply w -> w - w'' mode-wise: mode k scales by (1 + k^2)."""
    return Loop(u.coeffs * _one_plus_k2(u.modes)[:, None])


def inv_id_minus_laplace(u: Loop) -> Loop:
    return Loop(u.coeffs / _one_plus_k2(u.modes)[:, None])


def time_shift(theta: float, u: Loop) -> Loop:
    """(theta * u)(t) = u(t + theta); exact rotation of each Fourier mode."""
    c = u.coeffs.copy()
    k = np.arange(1, u.modes + 1)[:, None]
    ck, sk = np.cos(k * theta), np.sin(k * theta)
    a, b = u.coeffs[1::2], u.coeffs[2::2]
    c[1::2] = ck * a + sk * b
    c[2::2] = -sk * a + ck * b
    return Loop(c)


# ---------------------------------------------------------------------------
# sampling bridge

def sample_times(m: int) -> np.ndarray:
    return np.arange(m) * (2.0 * np.pi / m)


def sample(u: Loop, m: int) -> np.ndarray:
    """Values of u at m equispaced times; rows are time samples."""
    if m < 2 * u.modes + 1:
        warnings.warn(
            f"{m} samples cannot resolve {u.modes} modes without aliasing",
            AliasWarning,
        )
    return synthesis_matrix(u.modes, m) @ u.coeffs


def _trig_table(t, modes: int) -> np.ndarray:
    """Columns 1, cos t, sin t, ..., cos Mt, sin Mt at the times t, shape
    t.shape + (2M+1,); the table times a loop's coeffs is the loop at t."""
    t = np.asarray(t, dtype=float)
    kt = np.multiply.outer(t, np.arange(1, modes + 1))
    s = np.empty(t.shape + (2 * modes + 1,))
    s[..., 0] = 1.0
    s[..., 1::2] = np.cos(kt)
    s[..., 2::2] = np.sin(kt)
    return s


@functools.lru_cache
def synthesis_matrix(modes: int, m: int) -> np.ndarray:
    """Matrix S with S @ u.coeffs = sample(u, m) for loops of order `modes`,
    shape (m, 2M+1); built once per (modes, m) and read-only."""
    s = _trig_table(sample_times(m), modes)
    s.flags.writeable = False
    return s


def from_samples(values: np.ndarray, modes: int) -> Loop:
    """Least-aliased loop of order `modes` through equispaced samples (rFFT)."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    spec = np.fft.rfft(values, axis=0) / m
    c = np.zeros((2 * modes + 1, values.shape[1]))
    c[0] = spec[0].real
    kmax = min(modes, spec.shape[0] - 1)
    c[1 : 2 * kmax : 2] = 2.0 * spec[1 : kmax + 1].real
    c[2 : 2 * kmax + 1 : 2] = -2.0 * spec[1 : kmax + 1].imag
    return Loop(c)


def dealias_samples(modes: int) -> int:
    # standard margin for quadratic-and-worse nonlinearities
    return 4 * (2 * modes + 1)


# ---------------------------------------------------------------------------
# geometric frame and projections

@dataclass(frozen=True)
class LoopFrame:
    """Reference loop Z (one-mode rotation), its derivative, and the
    constant translation loops e1_hat, e2_hat spanning D."""

    Z: Loop
    Zdot: Loop
    e1: Loop
    e2: Loop

    @property
    def n(self) -> int:
        return self.Z.n

    @property
    def modes(self) -> int:
        return self.Z.modes


def loop_from_equilibrium(z: np.ndarray, omega: float, modes: int) -> Loop:
    """Z(t) with blocks e^{-J omega t} z_k as a one-mode loop."""
    z = np.asarray(z, dtype=float).reshape(-1, 2)
    c = np.zeros((2 * modes + 1, z.size))
    c[1] = z.ravel()
    # Z(t) = cos t z + sin t Zdot(0) for |omega| = 1, with Zdot(0) = -omega J z
    c[2] = np.stack([-omega * z[:, 1], omega * z[:, 0]], axis=1).ravel()
    return Loop(c)


def build_frame(z: np.ndarray, omega: float, n: int, modes: int) -> LoopFrame:
    if abs(abs(omega) - 1.0) > 1e-12:
        raise DegenerateFrame("frame requires a period-normalized equilibrium")
    Z = loop_from_equilibrium(z, omega, modes)
    Zdot = differentiate(Z)
    e1 = constant_loop(np.tile([1.0, 0.0], n), modes)
    e2 = constant_loop(np.tile([0.0, 1.0], n), modes)
    return LoopFrame(Z=Z, Zdot=Zdot, e1=e1, e2=e2)


def project_D(u: Loop) -> Loop:
    """H^1-orthogonal projection onto constant loops with equal 2-blocks."""
    mean = u.a0.reshape(-1, 2).mean(axis=0)
    c = np.zeros_like(u.coeffs)
    c[0] = np.tile(mean, u.n)
    return Loop(c)


# ---------------------------------------------------------------------------
# flattening helpers for linear algebra on loops

def flatten(u: Loop) -> np.ndarray:
    return u.coeffs.ravel()


def unflatten(vec: np.ndarray, n: int, modes: int) -> Loop:
    return Loop(np.asarray(vec, dtype=float).reshape(2 * modes + 1, 2 * n))


def h1_weight_vector(n: int, modes: int) -> np.ndarray:
    """Diagonal of the H^1 Gram matrix in flattened coordinates."""
    return np.repeat(h1_weights(modes), 2 * n)


def loop_to_dict(u: Loop) -> dict:
    return {"n": u.n, "modes": u.modes, "coeffs": u.coeffs.tolist()}


def loop_from_dict(d: dict) -> Loop:
    u = Loop(np.asarray(d["coeffs"], dtype=float))
    if u.n != d["n"] or u.modes != d["modes"]:
        raise DimensionMismatch("loop metadata disagrees with coefficient array")
    return u
