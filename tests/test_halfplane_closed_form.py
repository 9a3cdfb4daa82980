"""The half plane's regular part in closed complex form, checked against the
real-variable formulas in d = w - Rz, R the mirror across y = 0, and its
boundary guard against the guard on |d|^2."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvortex.core import HalfPlane
from nvortex.errors import BoundaryError

RTOL = 1e-14
HALF = HalfPlane()
MIN_D2 = np.sqrt(np.finfo(float).tiny)  # where 1/|d|^4 stops being finite


# ---------------------------------------------------------------------------
# reference: g = -(1/4pi) log|d|^2 with d = w - Rz, in real variables, as the
# half plane was evaluated before its complex form

R = np.array([[1.0, 0.0], [0.0, -1.0]])


def _d(w, z):
    d = np.asarray(w, dtype=float) - np.asarray(z, dtype=float) @ R
    return d, np.einsum("...x,...x->...", d, d)


def ref_g(w, z):
    return -np.log(_d(w, z)[1]) / (4.0 * np.pi)


def ref_g_w(w, z):
    d, d2 = _d(w, z)
    return -d / (2.0 * np.pi * d2[..., None])


def ref_g_ww(w, z):
    d, d2 = _d(w, z)
    d2 = d2[..., None, None]
    outer = d[..., :, None] * d[..., None, :]
    return -(np.eye(2) / d2 - 2.0 * outer / d2**2) / (2.0 * np.pi)


def ref_g_wz(w, z):
    # d depends on z through -Rz, so the mixed block is -g_ww R
    return -ref_g_ww(w, z) @ R


REFERENCES = {"g": ref_g, "g_w": ref_g_w, "g_ww": ref_g_ww, "g_wz": ref_g_wz}


def agree(w, z):
    """Each closed form equals its real-variable reference, in the same
    shape, to RTOL relative to the largest reference entry; g is near 0
    where |d| is near 1, so it is measured against max(1, |g|)."""
    for name, ref in REFERENCES.items():
        got, want = getattr(HALF, name)(w, z), ref(w, z)
        assert got.shape == want.shape and got.dtype == float, name
        scale = max(1.0 if name == "g" else 0.0, np.abs(want).max())
        assert np.abs(got - want).max() <= RTOL * scale, name


@st.composite
def upper_points(draw, n):
    """n points with x in [-2, 2] and y in [1e-3, 2]."""
    x = [draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    y = [draw(st.floats(1e-3, 2.0)) for _ in range(n)]
    return np.stack([x, y], axis=-1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: upper_points(2 * n)))
def test_closed_forms_match_real_formulas(pts):
    n = len(pts) // 2
    w, z = pts[:n], pts[n:]
    agree(w[0], z[0])  # a single point
    agree(w, z)  # a batch
    agree(pts[:, None, :], pts[None, :, :])  # broadcast pairs, with w = z
    wide = np.zeros((n, 4))  # a last axis with stride 2
    wide[:, ::2] = w
    agree(wide[:, ::2], z)
    agree(np.asfortranarray(z), wide[:, ::2])


# coordinates on the scale where |d|^2 crosses MIN_D2
_SCALE = np.sqrt(MIN_D2)


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-0.2, 0.2), st.floats(0.95, 1.05),
       st.floats(0.0, 1.0), st.booleans())
def test_boundary_error_fires_where_the_distance_guard_does(x, dx, height,
                                                            split, batch):
    """BoundaryError exactly where the reference |d|^2 < MIN_D2, for each
    function, alone or with a pair far from the boundary in the batch.
    The points are drawn so that |d|^2 / MIN_D2, about dx^2 + height^2,
    lies within about 10% of 1 on either side."""
    y1 = _SCALE * height * split
    w = np.array([x, y1])
    z = np.array([x + _SCALE * dx, _SCALE * height - y1])
    if batch:
        w, z = np.stack([[0.0, 1.0], w]), np.stack([[0.5, 1.0], z])
    fires = _d(w, z)[1].min() < MIN_D2
    for name in REFERENCES:
        if fires:
            with pytest.raises(BoundaryError, match="too close to the boundary"):
                getattr(HALF, name)(w, z)
        else:
            assert np.all(np.isfinite(getattr(HALF, name)(w, z))), name
