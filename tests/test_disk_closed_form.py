"""The unit disk's regular part in closed complex form, checked against the
real-variable formulas, against identities of g, and against the classical
image-vortex velocity."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from nvortex import core
from nvortex.core import UnitDisk, VortexSystem

RTOL = 1e-14
DISK = UnitDisk()


# ---------------------------------------------------------------------------
# reference: g = -(1/4pi) log q with q = |w|^2 |z|^2 - 2 w.z + 1, in real
# variables, as the disk was evaluated before its complex form

def _q(w, z):
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    w2 = np.einsum("...x,...x->...", w, w)
    z2 = np.einsum("...x,...x->...", z, z)
    wz = np.einsum("...x,...x->...", w, z)
    q_w = 2.0 * z2[..., None] * w - 2.0 * z  # gradient of q in w
    return w2 * z2 - 2.0 * wz + 1.0, q_w, w2, z2, w, z


def ref_g(w, z):
    return -np.log(_q(w, z)[0]) / (4.0 * np.pi)


def ref_g_w(w, z):
    q, q_w = _q(w, z)[:2]
    return -q_w / (4.0 * np.pi * q[..., None])


def ref_g_ww(w, z):
    q, q_w, _, z2 = _q(w, z)[:4]
    q = q[..., None, None]
    q_ww = 2.0 * z2[..., None, None] * np.eye(2)
    outer = q_w[..., :, None] * q_w[..., None, :]
    return -(q_ww / q - outer / q**2) / (4.0 * np.pi)


def ref_g_wz(w, z):
    q, q_w, w2, _, w, z = _q(w, z)
    q = q[..., None, None]
    q_z = 2.0 * w2[..., None] * z - 2.0 * w
    q_wz = 4.0 * w[..., :, None] * z[..., None, :] - 2.0 * np.eye(2)
    outer = q_w[..., :, None] * q_z[..., None, :]
    return -(q_wz / q - outer / q**2) / (4.0 * np.pi)


REFERENCES = {"g": ref_g, "g_w": ref_g_w, "g_ww": ref_g_ww, "g_wz": ref_g_wz}


def close(got, want, floor=0.0):
    """Max-norm agreement to RTOL relative to max(floor, max |want|)."""
    return np.abs(got - want).max() <= RTOL * max(floor, np.abs(want).max())


def agree(w, z):
    """Each closed form equals its real-variable reference, in the same
    shape.  g is near 0 where |f| is near 1, and known there only to the
    absolute roundoff of log q, so it is measured against max(1, |g|)."""
    for name, ref in REFERENCES.items():
        got, want = getattr(DISK, name)(w, z), ref(w, z)
        assert got.shape == want.shape and got.dtype == float, name
        assert close(got, want, floor=1.0 if name == "g" else 0.0), name


# points |p| <= 0.8, so q >= (1 - 0.64)^2 and the real formulas keep 1e-14
radius = st.just(0.0) | st.floats(1e-3, 0.8)
angle = st.floats(0.0, 2 * np.pi)


@st.composite
def disk_points(draw, n):
    rho = np.array([draw(radius) for _ in range(n)])
    theta = np.array([draw(angle) for _ in range(n)])
    return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: disk_points(2 * n)))
def test_closed_forms_match_real_formulas_in_every_layout(pts):
    n = len(pts) // 2
    w, z = pts[:n], pts[n:]
    agree(w[0], z[0])  # a single point
    agree(w, z)  # a batch
    agree(pts[:, None, :], pts[None, :, :])  # broadcast pairs, with w = z
    agree(np.asfortranarray(w), np.asfortranarray(z))
    agree(np.asfortranarray(pts[:, None, :]), pts[None, :, :])
    wide = np.zeros((n, 4))  # a last axis with stride 2
    wide[:, ::2] = w
    assert wide[:, ::2].strides[-1] == 16
    agree(wide[:, ::2], z)
    agree(z, wide[:, ::2])
    zero = np.zeros((n, 2), dtype=int)  # the only integer point inside
    agree(zero, z)
    agree(w, zero)
    agree(zero[0], zero[0])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: disk_points(2 * n)))
def test_identities_of_g(pts):
    n = len(pts) // 2
    w, z = pts[:n], pts[n:]
    assert close(DISK.g(w, z), DISK.g(z, w), floor=1.0)
    gww = DISK.g_ww(w, z)
    # symmetric, and trace 0 because g is harmonic in w
    assert close(gww, np.swapaxes(gww, -1, -2))
    assert np.abs(np.trace(gww, axis1=-2, axis2=-1)).max() <= RTOL * np.abs(gww).max()
    assert close(DISK.g_wz(w, z), np.swapaxes(DISK.g_wz(z, w), -1, -2))
    # h(p) = -(1/2pi) log(1 - s), s = |p|^2, has gradient p/(pi(1 - s))
    # and Hessian (I/(1 - s) + 2 p p^T/(1 - s)^2)/pi
    for p in w:
        s = p @ p
        want = (np.eye(2) / (1 - s) + 2 * np.outer(p, p) / (1 - s) ** 2) / np.pi
        assert close(core.hess_h(DISK, p), want)


@st.composite
def vortices(draw):
    """(system, configuration) of N = 1..6 vortices at |z| in [0.05, 0.9],
    each pair at least 0.05 apart."""
    n = draw(st.integers(1, 6))
    mag = st.floats(0.2, 2.0)
    gammas = [draw(mag) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(n)]
    rho = np.array([draw(st.floats(0.05, 0.9)) for _ in range(n)])
    theta = np.array([draw(angle) for _ in range(n)])
    z = (rho * np.exp(1j * theta)).view(float)
    assume(core.min_separation(z) >= 0.05)
    return VortexSystem(gammas), z


@settings(max_examples=80, deadline=None)
@given(vortices())
def test_disk_vector_field_is_the_image_vortex_velocity(case):
    """With H = H0 - F, H0 = -(1/2pi) sum_{j != k} G_j G_k log|z_j - z_k| and
    F = sum_{j,k} G_j G_k g(z_j, z_k), g = -(1/2pi) log|conj(z_j) z_k - 1|,
    the equations G_k dz_k/dt = J grad_k H read, with grad = d/dx + i d/dy
    and J (a, b) = (b, -a), dz_k/dt = -(i/G_k) grad_k H.  Since
    grad_k log|z_k - c| = 1/conj(z_k - c), the H0 term gives
    conj(dz_k/dt) = (1/(pi i)) sum_{j != k} G_j/(z_k - z_j), and the F term,
    through both orders of each pair, -(1/(pi i)) sum_j G_j/(z_k - 1/conj(z_j))
    (|conj(z_j) z_k - 1| = |z_j| |z_k - 1/conj(z_j)|): point vortices with
    an image of strength -G_j at 1/conj(z_j) for every j, k included, at
    twice the classical (1/2pi i) rate because H0 counts each pair twice."""
    sys_, z = case
    c = z.view(complex)
    g = sys_.gammas
    diff = c[:, None] - c[None, :]
    np.fill_diagonal(diff, np.inf)  # no self-interaction
    images = c[:, None] - 1 / np.conj(c)[None, :]
    conj_vel = ((g / diff).sum(axis=1) - (g / images).sum(axis=1)) / (np.pi * 1j)
    want = np.conj(conj_vel).view(float)
    got = core.vortex_rhs(sys_, DISK, z, r=1.0)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
