"""Direct integration, invariants, event guards, orbit validation."""

from types import SimpleNamespace

import numpy as np
import pytest

from nvortex import core, dynamics as dyn, equilibria as eq, loops as lp
from nvortex import reduction as rd
from nvortex.core import HalfPlane, Plane, UnitDisk, VortexSystem
from nvortex.errors import (BoundaryApproach, BoundaryError, CollisionApproach,
                            CollisionError, DomainError, MinStepReached)

M = 10


@pytest.fixture(scope="module")
def pair_orbit():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    basis = rd.build_x_basis(sys2, lp.build_frame(pair.z, pair.omega, M))
    sol = rd.solve_reduced(UnitDisk(), 0.1, basis, rd.SolverParams(modes=M))
    return sys2, pair, sol


def test_trajectories_compare_by_identity():
    a, b = (dyn.Trajectory(np.arange(3.0), np.zeros((3, 2)), 0.0)
            for _ in range(2))
    assert a == a and a != b and len({a, a, b}) == 2


@pytest.mark.parametrize("times, states", [
    (np.empty(0), np.empty((0, 2))),
    (np.arange(3.0), np.zeros((2, 2))),
], ids=["no samples", "states not one per time"])
def test_trajectory_rejects_samples_that_measure_nothing(times, states):
    """No drift is reported from a trajectory without samples, and no state
    is read at a time it does not belong to."""
    with pytest.raises(ValueError, match="one state per time"):
        dyn.Trajectory(times, states, 0.0)


def test_pair_closure_on_plane():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    traj = dyn.integrate(sys2, Plane(), 0.0, pair.z.ravel(), pair.period,
                         rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-8


def test_thomson_closure_on_plane():
    th = eq.normalize_period(eq.make_thomson(4, 1.0, 1.0))
    sys4 = VortexSystem([1.0] * 4)
    traj = dyn.integrate(sys4, Plane(), 0.0, th.z.ravel(), th.period,
                         rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-8


def test_dipole_translates_linearly():
    """A +1/-1 pair moves in a straight line at speed 1/(pi d) in the
    ordered-pair normalization used here."""
    sys2 = VortexSystem([1.0, -1.0])
    d = 0.5
    z0 = np.array([0.0, d / 2, 0.0, -d / 2])
    T = 3.0
    traj = dyn.integrate(sys2, Plane(), 0.0, z0, T,
                         rtol=1e-12, atol=1e-12)
    speed = 1.0 / (np.pi * d)
    expect = z0 + T * np.array([speed, 0.0, speed, 0.0])
    assert np.max(np.abs(traj.states[-1] - expect)) < 1e-9
    inv = dyn.invariants_along(sys2, Plane(), traj)
    assert inv["energy_drift"] < 1e-10


def test_plane_invariants_conserved():
    sys3 = VortexSystem([1.0, 2.0, 0.5])
    z0 = np.array([1.0, 0.0, -0.5, 0.8, 0.2, -0.9])
    traj = dyn.integrate(sys3, Plane(), 0.0, z0, 10.0,
                         rtol=1e-12, atol=1e-12)
    inv = dyn.invariants_along(sys3, Plane(), traj)
    assert inv["energy_drift"] < 1e-9
    assert inv["center_of_vorticity_drift"] < 1e-9
    assert inv["angular_impulse_drift"] < 1e-9


def test_disk_energy_conserved():
    sys2 = VortexSystem([1.0, 1.0])
    z0 = np.array([0.3, 0.0, -0.3, 0.0])
    traj = dyn.integrate(sys2, UnitDisk(), 1.0, z0, 5.0,
                         rtol=1e-12, atol=1e-12)
    inv = dyn.invariants_along(sys2, UnitDisk(), traj)
    assert inv["energy_drift"] < 1e-9


def test_tolerance_halving_reduces_error():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    errs = []
    for tol in (1e-6, 1e-9, 1e-12):
        traj = dyn.integrate(sys2, Plane(), 0.0, pair.z.ravel(),
                             pair.period, rtol=tol, atol=tol)
        errs.append(np.max(np.abs(traj.states[-1] - traj.states[0])))
    assert errs[2] < errs[1] < errs[0]


def test_reversal_by_negating_vorticities():
    """Negating every vorticity negates the field, so integrating the
    flipped system from the endpoint retraces the path."""
    sys2 = VortexSystem([1.0, 2.0])
    z0 = np.array([0.7, 0.1, -0.4, -0.3])
    fwd = dyn.integrate(sys2, Plane(), 0.0, z0, 4.0,
                        rtol=1e-12, atol=1e-12)
    flipped = VortexSystem([-1.0, -2.0])
    back = dyn.integrate(flipped, Plane(), 0.0, fwd.states[-1], 4.0,
                         rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(back.states[-1] - z0)) < 1e-8


def test_collision_guard_trips_immediately():
    sys2 = VortexSystem([1.0, 1.0])
    z0 = np.array([0.0, 0.0, 1e-10, 0.0])
    with pytest.raises(CollisionApproach) as info:
        dyn.integrate(sys2, Plane(), 0.0, z0, 1.0)
    assert info.value.t == 0.0
    assert "within 1e-09 of collision" in str(info.value)


def test_boundary_guard_stops_dipole(monkeypatch):
    """A dipole aimed at the disk wall trips the boundary event."""
    sys2 = VortexSystem([1.0, -1.0])
    z0 = np.array([0.0, 0.1, 0.0, -0.1])
    monkeypatch.setattr(dyn, "BOUNDARY_GUARD", 0.25)
    with pytest.raises(BoundaryApproach) as info:
        dyn.integrate(sys2, UnitDisk(), 1.0, z0, 50.0)
    assert info.value.t is not None and info.value.t > 0.0
    assert "within 0.25 of the boundary" in str(info.value)


@pytest.mark.parametrize("s", [0.5, 0.2])
def test_boundary_guard_stops_rescaled_dipole(s, monkeypatch):
    """The field of H_s at u is the physical field in other units: z = s u
    and t_phys = s^2 t.  With atol scaled by 1/s, DOP853's error norm and
    steps scale the same way, so the run from u0 = z0/s trips the guard on
    s u at s^2 t = t1, the physical trip time, up to the integration error.
    Each run places its trip within rtol * t1 of the exact time (checked on
    t1 against a run at rtol / 10), so the two differ by at most
    2 rtol * t1."""
    sys2 = VortexSystem([1.0, -1.0])
    z0 = np.array([0.0, 0.1, 0.0, -0.1])
    rtol, atol = 1e-12, 1e-14
    monkeypatch.setattr(dyn, "BOUNDARY_GUARD", 0.25)

    def trip_time(scale, rtol, atol):
        with pytest.raises(BoundaryApproach, match="within 0.25 of the "
                           "boundary") as info:
            dyn.integrate(sys2, UnitDisk(), scale, z0 / scale,
                          50.0 / scale**2, rtol=rtol, atol=atol / scale)
        return scale**2 * info.value.t

    t1 = trip_time(1.0, rtol, atol)
    assert abs(t1 - trip_time(1.0, rtol / 10, atol / 10)) <= rtol * t1
    assert abs(trip_time(s, rtol, atol) - t1) <= 2 * rtol * t1


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
        dyn.integrate(sys3, Plane(), 0.0, z0, 20.0)
    assert info.value.t > 0.0
    assert "within 0.001 of collision" in str(info.value)


def test_initial_point_outside_guard_rejected():
    sys1 = VortexSystem([1.0])
    with pytest.raises(BoundaryApproach) as info:
        dyn.integrate(sys1, UnitDisk(), 1.0,
                      np.array([0.9999999999, 0.0]), 1.0)
    assert info.value.t == 0.0
    assert "within 1e-09 of the boundary" in str(info.value)


@pytest.mark.parametrize("domain, u0", [
    pytest.param(UnitDisk(), [1.9999999996, 0.0], id="disk"),
    pytest.param(HalfPlane(), [0.0, 1e-9], id="halfplane"),
])
def test_rescaled_start_inside_boundary_guard_rejected(domain, u0):
    """The boundary guard of a rescaled run is taken on s u, in every domain
    with a boundary, the unbounded half plane included: at s = 0.5 both
    starts lie within 1e-9 of the wall in physical units."""
    with pytest.raises(BoundaryApproach) as info:
        dyn.integrate(VortexSystem([1.0]), domain, 0.5, np.array(u0), 1.0)
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
        dyn.integrate(pair.sys, Plane(), 0.0, pair.z, pair.period)
    assert info.value.t == 0.25


@pytest.mark.parametrize("raised, expected", [
    (CollisionError, CollisionApproach),
    (DomainError, BoundaryApproach),
    (BoundaryError, BoundaryApproach),
])
def test_field_error_mid_run_stops_at_the_time_of_that_call(
        raised, expected, monkeypatch):
    """An error the field raises after the start becomes the integration
    error of its kind, at the t of the field call that raised it."""
    field, make_field = core.vortex_rhs, dyn._field
    calls = []  # the t of each field call

    def failing_field(*args, **kwargs):
        if len(calls) == 20:
            raise raised("injected")
        return field(*args, **kwargs)

    def timed_field(*args):
        f = make_field(*args)

        def timed(t, z):
            calls.append(t)
            return f(t, z)
        return timed

    monkeypatch.setattr(core, "vortex_rhs", failing_field)
    monkeypatch.setattr(dyn, "_field", timed_field)
    with pytest.raises(expected, match="injected") as info:
        dyn.integrate(VortexSystem([1.0, 1.0]), UnitDisk(), 1.0,
                      np.array([0.3, 0.0, -0.3, 0.0]), 5.0)
    assert isinstance(info.value.__cause__, raised)
    assert len(calls) == 20 and info.value.t == calls[-1] > 0.0


def test_single_vortex_plane_is_stationary():
    sys1 = VortexSystem([1.0])
    traj = dyn.integrate(sys1, Plane(), 0.0, np.array([0.4, -0.2]), 5.0)
    assert np.max(np.abs(traj.states - traj.states[0])) < 1e-12


def test_min_separation_along_trajectory():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    traj = dyn.integrate(sys2, Plane(), 0.0, pair.z.ravel(), pair.period,
                         rtol=1e-12, atol=1e-12)
    pts = pair.z.reshape(2, 2)
    sep = np.linalg.norm(pts[0] - pts[1])
    assert core.min_separation(traj.states) == pytest.approx(sep, rel=1e-6)


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
        dyn.integrate(VortexSystem([1.0, 1.0]), Plane(), 0.0,
                      np.array([0.3, 0.0, -0.3, 0.0]), T, **kwargs)


def test_trajectory_dense_sampling():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    t_eval = np.linspace(0.0, pair.period, 100)
    traj = dyn.integrate(sys2, Plane(), 0.0, pair.z.ravel(), pair.period,
                         rtol=1e-12, atol=1e-12, t_eval=t_eval)
    assert traj.times.shape == (100,)
    assert traj.states.shape == (100, 4)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(pair.period)
