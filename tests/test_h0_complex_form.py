"""The free-plane pair kernels in complex form, checked against the
real-variable formulas they replaced, in every array layout; and the energy
over the full N x N grid against its sum over the pairs j < k."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from nvortex import core
from nvortex.core import VortexSystem

RTOL = 1e-14
# the grid sum of eval_H0 against the pair sum, relative to sum |terms|:
# at most 5.7e-16 over 3000 random cases of N = 2..6 at scales 1e-3, 1, 1e3
ENERGY_RTOL = 1e-15


# ---------------------------------------------------------------------------
# reference: the pair kernels in real variables, d = z_k - z_j, as H0 was
# evaluated before its complex form

def _pairs(z):
    p = np.asarray(z, dtype=float)
    p = p.reshape(p.shape[:-1] + (-1, 2))
    d = p[..., :, None, :] - p[..., None, :, :]
    return d, np.einsum("...x,...x->...", d, d)


def _scaled(gammas, field, shape):
    """Block k of -(G_k/pi) sum_j G_j field[..., k, j, :], in `shape`."""
    out = np.einsum("j,...kjx->...kx", gammas, field)
    return (-(gammas[:, None] / np.pi) * out).reshape(shape)


def ref_energy(gammas, z):
    """-sum_{j<k} G_j G_k log(|d|^2)/(2 pi), each unordered pair once, and
    the sum of the absolute terms."""
    dist2 = _pairs(z)[1]
    i, j = np.triu_indices(gammas.size, 1)
    terms = np.outer(gammas, gammas)[i, j] * np.log(dist2[..., i, j]) / (2.0 * np.pi)
    return -terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


def ref_grad(gammas, z):
    d, dist2 = _pairs(z)
    eye = np.eye(gammas.size)
    return _scaled(gammas, d / (dist2 + eye)[..., None], np.shape(z))


def ref_increment(gammas, z, dz):
    """(d + e)/|d + e|^2 - d/|d|^2 = (e |d|^2 - d (2 d.e + |e|^2))
    / (|d + e|^2 |d|^2) per pair, with e the pair differences of dz."""
    z, dz = np.broadcast_arrays(np.asarray(z, dtype=float),
                                np.asarray(dz, dtype=float))
    d, dist2 = _pairs(z)
    new2 = _pairs(z + dz)[1]
    e, e2 = _pairs(dz)
    de = np.einsum("...x,...x->...", d, e)
    num = e * dist2[..., None] - d * (2.0 * de + e2)[..., None]
    eye = np.eye(gammas.size)
    return _scaled(gammas, num / (new2 * dist2 + eye)[..., None], z.shape)


def ref_hess(gammas, z):
    """Off-diagonal blocks (G_k G_j/pi) K(d), K = I/|d|^2 - 2 d d^T/|d|^4
    the Jacobian of d/|d|^2, and diagonal blocks minus their row sums."""
    d, dist2 = _pairs(z)
    n = gammas.size
    eye = np.eye(n)[:, :, None, None]
    dist2 = (dist2 + np.eye(n))[..., None, None]
    K = np.eye(2) / dist2 - 2.0 * (d[..., :, None] * d[..., None, :]) / dist2**2
    off = (np.outer(gammas, gammas)[:, :, None, None] / np.pi) * K * (1 - eye)
    blocks = off - eye * off.sum(axis=-3)[..., :, None, :, :]
    return np.swapaxes(blocks, -3, -2).reshape(d.shape[:-3] + (2 * n, 2 * n))


def close(got, want):
    """Same shape, float, and max-norm agreement to RTOL of max |want|."""
    assert got.shape == want.shape and got.dtype == float
    return np.abs(got - want).max() <= RTOL * np.abs(want).max()


def agree(gammas, z, dz):
    sys = VortexSystem(gammas)
    energy, size = ref_energy(gammas, z)
    assert np.all(np.abs(core.eval_H0(sys, z) - energy) <= ENERGY_RTOL * size)
    assert close(core.grad_H0(sys, z), ref_grad(gammas, z))
    assert close(core.hess_H0(sys, z), ref_hess(gammas, z))
    assert close(core.grad_H0_increment(sys, z, dz), ref_increment(gammas, z, dz))


# ---------------------------------------------------------------------------

@st.composite
def cases(draw):
    """Vorticities and a batch of 3 configurations of N = 2..6 vortices in
    [-1, 1]^2, each pair at least 0.05 apart, and increments of size
    10^[-8, -1] that keep them so."""
    n = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
    z = rng.uniform(-1.0, 1.0, (3, 2 * n))
    dz = rng.normal(size=(3, 2 * n))
    dz *= 10.0 ** draw(st.floats(-8, -1)) / np.linalg.norm(dz, axis=-1)[:, None]
    assume(core.min_separation(z) >= 0.05 and core.min_separation(z + dz) >= 0.05)
    return gammas, z, dz


@settings(max_examples=60, deadline=None)
@given(cases())
def test_complex_kernels_match_real_formulas_in_every_layout(case):
    gammas, z, dz = case
    n = gammas.size
    agree(gammas, z[0], dz[0])  # a single configuration
    for scale in (1e-3, 1e3):
        agree(gammas, scale * z, scale * dz)
    agree(gammas, z, dz)  # a batch
    agree(gammas, z[0], dz)  # one z, a batch of increments
    agree(gammas, z[:, None, :], dz[None, :, :])  # a broadcast (3, 3) batch
    agree(gammas, np.asfortranarray(z), np.asfortranarray(dz))
    wide = np.zeros((3, 4 * n))  # a last axis with stride 2
    wide[:, ::2] = z
    assert wide[:, ::2].strides[-1] == 16
    agree(gammas, wide[:, ::2], dz)
    # integer points (2k, 2k + 1), and an integer step that keeps their
    # x coordinates increasing
    agree(gammas, np.arange(2 * n), np.kron(np.arange(n) % 2, [1, 0]))
