"""Direct integration, invariants, event guards, orbit validation."""

from types import SimpleNamespace

import numpy as np
import pytest

from nvortex import dynamics as dyn, equilibria as eq, loops as lp
from nvortex import reduction as rd
from nvortex.core import Plane, UnitDisk, VortexSystem
from nvortex.errors import BoundaryApproach, CollisionApproach, MinStepReached

M = 10


@pytest.fixture(scope="module")
def pair_orbit():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    frame = lp.build_frame(pair.z, pair.omega, 2, M)
    params = rd.SolverParams(modes=M)
    sol = rd.solve_reduced(sys2, UnitDisk(), 0.1, frame, params)
    return sys2, pair, sol


def test_trajectories_compare_by_identity():
    a, b = (dyn.Trajectory(np.arange(3.0), np.zeros((3, 2)), "plane")
            for _ in range(2))
    assert a == a and a != b and len({a, a, b}) == 2


def test_pair_closure_on_plane():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    traj = dyn.integrate(sys2, Plane(), "plane", pair.z.ravel(), pair.period,
                         rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(traj.final - traj.initial)) < 1e-8


def test_thomson_closure_on_plane():
    th = eq.normalize_period(eq.make_thomson(4, 1.0, 1.0))
    sys4 = VortexSystem([1.0] * 4)
    traj = dyn.integrate(sys4, Plane(), "plane", th.z.ravel(), th.period,
                         rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(traj.final - traj.initial)) < 1e-8


def test_dipole_translates_linearly():
    """A +1/-1 pair moves in a straight line at speed 1/(pi d) in the
    ordered-pair normalization used here."""
    sys2 = VortexSystem([1.0, -1.0])
    d = 0.5
    z0 = np.array([0.0, d / 2, 0.0, -d / 2])
    T = 3.0
    traj = dyn.integrate(sys2, Plane(), "plane", z0, T,
                         rtol=1e-12, atol=1e-12)
    speed = 1.0 / (np.pi * d)
    expect = z0 + T * np.array([speed, 0.0, speed, 0.0])
    assert np.max(np.abs(traj.final - expect)) < 1e-9
    inv = dyn.invariants_along(sys2, Plane(), traj)
    assert inv["energy_drift"] < 1e-10


def test_plane_invariants_conserved():
    sys3 = VortexSystem([1.0, 2.0, 0.5])
    z0 = np.array([1.0, 0.0, -0.5, 0.8, 0.2, -0.9])
    traj = dyn.integrate(sys3, Plane(), "plane", z0, 10.0,
                         rtol=1e-12, atol=1e-12)
    inv = dyn.invariants_along(sys3, Plane(), traj)
    assert inv["energy_drift"] < 1e-9
    assert inv["center_of_vorticity_drift"] < 1e-9
    assert inv["angular_impulse_drift"] < 1e-9


def test_disk_energy_conserved():
    sys2 = VortexSystem([1.0, 1.0])
    z0 = np.array([0.3, 0.0, -0.3, 0.0])
    traj = dyn.integrate(sys2, UnitDisk(), "physical", z0, 5.0,
                         rtol=1e-12, atol=1e-12)
    inv = dyn.invariants_along(sys2, UnitDisk(), traj)
    assert inv["energy_drift"] < 1e-9


def test_tolerance_halving_reduces_error():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    errs = []
    for tol in (1e-6, 1e-9, 1e-12):
        traj = dyn.integrate(sys2, Plane(), "plane", pair.z.ravel(),
                             pair.period, rtol=tol, atol=tol)
        errs.append(np.max(np.abs(traj.final - traj.initial)))
    assert errs[2] < errs[1] < errs[0]


def test_reversal_by_negating_vorticities():
    """Negating every vorticity negates the field, so integrating the
    flipped system from the endpoint retraces the path."""
    sys2 = VortexSystem([1.0, 2.0])
    z0 = np.array([0.7, 0.1, -0.4, -0.3])
    fwd = dyn.integrate(sys2, Plane(), "plane", z0, 4.0,
                        rtol=1e-12, atol=1e-12)
    flipped = VortexSystem([-1.0, -2.0])
    back = dyn.integrate(flipped, Plane(), "plane", fwd.final, 4.0,
                         rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(back.final - z0)) < 1e-8


def test_collision_guard_trips_immediately():
    sys2 = VortexSystem([1.0, 1.0])
    z0 = np.array([0.0, 0.0, 1e-10, 0.0])
    with pytest.raises(CollisionApproach) as info:
        dyn.integrate(sys2, Plane(), "plane", z0, 1.0)
    assert info.value.t == 0.0
    assert "within 1e-09 of collision" in str(info.value)


def test_boundary_guard_stops_dipole(monkeypatch):
    """A dipole aimed at the disk wall trips the boundary event."""
    sys2 = VortexSystem([1.0, -1.0])
    z0 = np.array([0.0, 0.1, 0.0, -0.1])
    monkeypatch.setattr(dyn, "BOUNDARY_GUARD", 0.25)
    with pytest.raises(BoundaryApproach) as info:
        dyn.integrate(sys2, UnitDisk(), "physical", z0, 50.0)
    assert info.value.t is not None and info.value.t > 0.0
    assert "within 0.25 of the boundary" in str(info.value)


def test_collision_guard_message_reports_given_guard(monkeypatch):
    """Self-similar collapse: Gamma = (2, 2, -1) has L = 0, and the sides
    satisfy 4 d12^2 = 2 d13^2 + 2 d23^2, so with this orientation the
    triangle shrinks to a point in finite time and crosses the guard."""
    sys3 = VortexSystem([2.0, 2.0, -1.0])
    d13, d23 = 1.2, np.sqrt(2.0 - 1.2**2)
    x = (d13**2 - d23**2 + 1.0) / 2.0
    z0 = np.array([0.0, 0.0, 1.0, 0.0, x, np.sqrt(d13**2 - x**2)])
    monkeypatch.setattr(dyn, "COLLISION_GUARD", 1e-3)
    with pytest.raises(CollisionApproach) as info:
        dyn.integrate(sys3, Plane(), "plane", z0, 20.0)
    assert info.value.t > 0.0
    assert "within 0.001 of collision" in str(info.value)


def test_initial_point_outside_guard_rejected():
    sys1 = VortexSystem([1.0])
    with pytest.raises(BoundaryApproach) as info:
        dyn.integrate(sys1, UnitDisk(), "physical",
                      np.array([0.9999999999, 0.0]), 1.0)
    assert info.value.t == 0.0
    assert "within 1e-09 of the boundary" in str(info.value)


def test_solver_failure_raises_min_step_reached(monkeypatch):
    """A solve_ivp result with status -1 (step size below the spacing of
    floats, say) raises MinStepReached at the last time reached."""
    import scipy.integrate

    def failed(fun, t_span, y0, **kwargs):
        return SimpleNamespace(
            t=np.array([0.0, 0.25]), y=np.stack([y0, y0], axis=1),
            t_events=[np.empty(0)], status=-1, success=False,
            message="Required step size is less than spacing between numbers.")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", failed)
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    with pytest.raises(MinStepReached, match="Required step size") as info:
        dyn.integrate(pair.sys, Plane(), "plane", pair.z, pair.period)
    assert info.value.t == 0.25


def test_single_vortex_plane_is_stationary():
    sys1 = VortexSystem([1.0])
    traj = dyn.integrate(sys1, Plane(), "plane", np.array([0.4, -0.2]), 5.0)
    assert np.max(np.abs(traj.states - traj.states[0])) < 1e-12


def test_min_separation_along_trajectory():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    traj = dyn.integrate(sys2, Plane(), "plane", pair.z.ravel(), pair.period,
                         rtol=1e-12, atol=1e-12)
    pts = pair.z.reshape(2, 2)
    sep = np.linalg.norm(pts[0] - pts[1])
    assert traj.min_separation() == pytest.approx(sep, rel=1e-6)


def test_validate_orbit_positive(pair_orbit):
    sys2, pair, sol = pair_orbit
    orbit = rd.unrescale(np.zeros(2), sol.r, sol.u, 128, domain=UnitDisk())
    report = dyn.validate_orbit(sys2, UnitDisk(), orbit, rtol=1e-12)
    assert report["closure_error"] < 1e-7
    assert report["max_pointwise_defect"] < 1e-6


def test_validate_orbit_negative_control(pair_orbit):
    """Perturbing the loop coefficients breaks the orbit, and more
    perturbation means a larger defect."""
    sys2, pair, sol = pair_orbit
    rng = np.random.default_rng(7)
    bump = rng.normal(size=sol.u.coeffs.shape)
    errs = []
    for size in (1e-4, 1e-3, 1e-2):
        bad = lp.Loop(sol.u.coeffs + size * bump)
        orbit = rd.unrescale(np.zeros(2), sol.r, bad, 128, domain=UnitDisk())
        report = dyn.validate_orbit(sys2, UnitDisk(), orbit, rtol=1e-12)
        errs.append(report["max_pointwise_defect"])
    assert errs[0] > 1e-6
    assert errs[0] < errs[1] < errs[2]


@pytest.mark.parametrize("T, kwargs, match", [
    (0.0, {}, "T must"),
    (-1.0, {}, "T must"),
    (np.inf, {}, "T must"),
    (np.nan, {}, "T must"),
    (1.0, {"t_eval": np.array([1.0])}, "t_eval"),
    (1.0, {"t_eval": np.array([])}, "t_eval"),
    (1.0, {"rtol": np.nan}, "rtol"),
    (1.0, {"rtol": -1.0}, "rtol"),
    (1.0, {"atol": 0.0}, "atol"),
])
def test_integrate_rejects_bad_span_and_tolerances(T, kwargs, match):
    """No fabricated end state: a span or t_eval with no interval to
    integrate over, or a tolerance that is not a positive number, is a
    ValueError."""
    with pytest.raises(ValueError, match=match):
        dyn.integrate(VortexSystem([1.0, 1.0]), Plane(), "plane",
                      np.array([0.3, 0.0, -0.3, 0.0]), T, **kwargs)


def test_trajectory_dense_sampling():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    t_eval = np.linspace(0.0, pair.period, 100)
    traj = dyn.integrate(sys2, Plane(), "plane", pair.z.ravel(), pair.period,
                         rtol=1e-12, atol=1e-12, t_eval=t_eval)
    assert traj.times.shape == (100,)
    assert traj.states.shape == (100, 4)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(pair.period)
