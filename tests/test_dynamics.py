"""Direct integration, invariants, event guards, orbit validation."""

import numpy as np
import pytest

from nvortex import core, dynamics as dyn, equilibria as eq, loops as lp
from nvortex import reduction as rd
from nvortex.core import HalfPlane, Plane, UnitDisk, VortexSystem
from nvortex.errors import (BoundaryApproach, BoundaryError, CollisionApproach,
                            CollisionError, DomainError, MinStepReached,
                            StepLimitReached)

M = 10


@pytest.fixture(scope="module")
def pair_orbit():
    sys2 = VortexSystem([1.0, 1.0])
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    basis = rd.build_x_basis(pair, M)
    sol = rd.solve_reduced(UnitDisk(), 0.1, basis, rd.SolverParams(modes=M))
    return sys2, pair, sol


def test_trajectories_compare_by_identity():
    a, b = (dyn.Trajectory(np.arange(3.0), np.zeros((3, 2)), 0.0)
            for _ in range(2))
    assert a == a and a != b and len({a, a, b}) == 2


@pytest.mark.parametrize("times, states", [
    (np.empty(0), np.empty((0, 2))),
    (np.arange(3.0), np.zeros((2, 2))),
    (np.array([0.0, 1.0, 1.0]), np.zeros((3, 2))),
], ids=["no samples", "states not one per time", "a repeated time"])
def test_trajectory_rejects_samples_that_measure_nothing(times, states):
    """No drift is reported from a trajectory without samples, no state
    is read at a time it does not belong to, and no two states claim one
    time."""
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
    """A dipole aimed at the disk wall trips the boundary guard.  A trip
    rejects the step as a field refusal does, so the run ends at the last
    t reached once a step shorter than 2 min_step (min_step = 10 float
    spacings of t) still trips: the run's gap 1 - |z_k|^2 reaches the
    guard within 2 min_step of t, and moves at a rate of at most
    2 max |z_k| |z_k'|.  A run to t takes the same steps until its last,
    cut to end at t, so its end state is the tripped run's state at t up
    to the two runs' error bounds over their n accepted steps (derived in
    `test_collocation_agrees_with_dop853`), which move the gap by at most
    2 max |z_k| times as much.  So the run to t completes, and its last
    gap lies above the guard by at most the sum of the two terms.  After
    a trip h does not grow, so the tripped run bisects its way to the
    guard: it makes at most 79 step attempts and 195 field calls, where
    growing 4x after each trip made 121 and 267."""
    sys2, disk = VortexSystem([1.0, -1.0]), UnitDisk()
    z0, rtol, atol = np.array([0.0, 0.1, 0.0, -0.1]), 1e-10, 1e-12
    make_field, starts, calls = dyn._field, set(), []
    solve_stages, attempts = dyn._solve_stages, []

    def timed_field(*args):
        f = make_field(*args)
        return lambda t, z: starts.add(t) or calls.append(t) or f(t, z)

    def counted(*args):
        attempts.append(1)
        return solve_stages(*args)

    monkeypatch.setattr(dyn, "BOUNDARY_GUARD", 0.25)
    monkeypatch.setattr(dyn, "_field", timed_field)
    monkeypatch.setattr(dyn, "_solve_stages", counted)
    with pytest.raises(BoundaryApproach) as info:
        dyn.integrate(sys2, disk, 1.0, z0, 50.0, rtol=rtol, atol=atol)
    t = info.value.t
    assert t == max(starts) > 0.0
    assert "within 0.25 of the boundary" in str(info.value)
    assert len(attempts) <= 79 and len(calls) <= 195

    run = dyn.integrate(sys2, disk, 1.0, z0, t, rtol=rtol, atol=atol)
    z = run.states.reshape(len(run.times), -1, 2)
    speed = np.linalg.norm(core.vortex_rhs(sys2, disk, run.states, r=1.0)
                           .reshape(z.shape), axis=-1)
    radius = np.linalg.norm(z, axis=-1)
    n = (len(starts) - 1) + (len(run.times) - 1)
    drift = n * np.sqrt(z0.size) * (atol + rtol * np.max(np.abs(run.states)))
    bound = (2 * np.max(radius * speed) * 2 * 10 * np.spacing(t)
             + 2 * np.max(radius) * drift)
    above = np.min(disk.boundary_gap(z[-1])) - 0.25
    assert run.times[-1] == t and 0.0 < above <= bound


@pytest.mark.parametrize("s", [0.5, 0.2])
def test_boundary_guard_stops_rescaled_dipole(s, monkeypatch):
    """The field of H_s at u is the physical field in other units: z = s u
    and t_phys = s^2 t.  With atol scaled by 1/s, the error norm
    atol + rtol |u| of the collocation defect and the steps scale the same
    way, so the run from u0 = z0/s trips the guard on s u at s^2 t = t1,
    the physical trip time, up to the integration error.
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
    """A field that turns non-finite from t = 0.25 on fails every step that
    starts there: the step halves until it falls below 10 float spacings of
    t, and MinStepReached reports the last time reached, the start of the
    failing steps."""
    make_field, starts = dyn._field, []

    def broken_field(*args):
        f = make_field(*args)

        def field(t, z):
            starts.append(t)
            return f(t, z) if t < 0.25 else np.full_like(z, np.nan)
        return field

    monkeypatch.setattr(dyn, "_field", broken_field)
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    with pytest.raises(MinStepReached, match="Required step size") as info:
        dyn.integrate(pair.sys, Plane(), 0.0, pair.z, pair.period)
    assert info.value.t == max(starts) >= 0.25


def test_stage_iteration_cap_retries_the_step_at_half(monkeypatch):
    """A step whose stages are still contracting after MAX_STAGE_ITER field
    calls is not taken: it is retried at h / 2 from the same t.  Capped at
    3 calls, the plane pair's run to T = 2 retries steps so (14 measured)
    and still reaches T, within the two runs' error bounds (derived in
    `test_collocation_agrees_with_dop853`) of the uncapped run.  Taking the
    unconverged stages would retry none."""
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    rtol, atol = 1e-10, 1e-12
    clean = dyn.integrate(pair.sys, Plane(), 0.0, pair.z, 2.0, rtol, atol)
    tried, solve_stages = [], dyn._solve_stages

    def recorded(rhs, gauss, t, y, h, *args):
        K = solve_stages(rhs, gauss, t, y, h, *args)
        tried.append((t, h, K is None))
        return K

    monkeypatch.setattr(dyn, "MAX_STAGE_ITER", 3)
    monkeypatch.setattr(dyn, "_solve_stages", recorded)
    capped = dyn.integrate(pair.sys, Plane(), 0.0, pair.z, 2.0, rtol, atol)
    stopped = [(t0, h0) for (t0, h0, none), (t1, h1, _) in zip(tried, tried[1:])
               if none and t1 == t0 and h1 == h0 / 2]
    assert stopped and len(stopped) == sum(none for *_, none in tried)
    n = (len(clean.times) - 1) + (len(capped.times) - 1)
    bound = n * np.sqrt(4) * (atol + rtol * np.max(np.abs(clean.states)))
    assert capped.times[-1] == 2.0
    assert np.max(np.abs(capped.states[-1] - clean.states[-1])) <= bound


def test_step_cap_stops_the_run_at_the_last_time_reached(monkeypatch):
    """A run that cannot reach T in MAX_STEPS steps raises StepLimitReached
    naming the cap, at the end of its last step: the same run to that time
    takes the same MAX_STEPS steps and ends there."""
    monkeypatch.setattr(dyn, "MAX_STEPS", 5)
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    with pytest.raises(StepLimitReached, match="step cap MAX_STEPS = 5 "
                       "reached at t = ") as info:
        dyn.integrate(pair.sys, Plane(), 0.0, pair.z, 1e300)
    traj = dyn.integrate(pair.sys, Plane(), 0.0, pair.z, info.value.t)
    assert len(traj.times) == 6 and traj.times[-1] == info.value.t > 0.0


def test_gauss_tableau_satisfies_the_simplifying_assumptions():
    """The s-stage Gauss method: nodes in (0, 1) symmetric about 1/2, b
    summing to 1, l_j(1) reproducing the polynomials of degree < s at 1,
    and B(s), C(s): A c^(k-1) = c^k / k for k <= s (Hairer, Lubich and
    Wanner, II.1.3).  A, b and l_j(1) are Legendre series whose absolute
    coefficients sum to at most 3.5 (l_j) and 0.5 (its integral) at
    s = 10, with |P_k| <= 1, so each entry carries a few eps of roundoff;
    a product with c^k adds s of them times numbers of size <= 1, within
    4 s eps.  The power series of the stage guess and the dense output
    have coefficient sums of at most 466 (l_j) and 36 (its integral), so
    slopes(c) is the identity to 500 eps and integrals(c) is A to 4 s eps."""
    gauss = dyn._collocation(dyn.STAGES)
    c, s, eps = gauss.c, dyn.STAGES, np.finfo(float).eps
    tol = 4 * s * eps
    assert np.all((0 < c) & (c < 1)) and np.all(np.diff(c) > 0)
    assert np.max(np.abs(c + c[::-1] - 1)) <= tol
    assert abs(gauss.b.sum() - 1) <= tol
    for k in range(1, s + 1):
        assert abs(gauss.end_slope @ c**(k - 1) - 1) <= tol
        assert np.max(np.abs(gauss.A @ c**(k - 1) - c**k / k)) <= tol
    assert np.max(np.abs(gauss.slopes(c) - np.eye(s))) <= 500 * eps
    assert np.max(np.abs(gauss.integrals(c) - gauss.A)) <= tol


def _disk_pair_orbit(r):
    """The equal pair's orbit in the disk at r, and its vorticities."""
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    sol = rd.solve_reduced(UnitDisk(), r, rd.build_x_basis(pair, M),
                           rd.SolverParams(modes=M))
    return pair.sys, rd.unrescale(np.zeros(2), sol.r, sol.u, 64,
                                  domain=UnitDisk())


def _disk_pair_run():
    sys, orbit = _disk_pair_orbit(0.2)
    return (sys, UnitDisk(), 1.0, orbit.samples[0], orbit.period,
            np.append(orbit.times, orbit.period))


def _thomson_run():
    ring = eq.normalize_period(eq.make_thomson(4, 1.0, 1.0))
    return (ring.sys, Plane(), 0.0, ring.z, ring.period,
            np.linspace(0.0, ring.period, 65))


@pytest.mark.parametrize("run", [_disk_pair_run, _thomson_run],
                         ids=["disk pair at r = 0.2", "plane Thomson ring"])
def test_collocation_agrees_with_dop853(run):
    """Oracle: scipy's DOP853 on the same run, both at rtol = atol = 1e-12.
    Each integrator holds the error of each of its n steps to
    atol + rtol |y| in the rms norm, so at most sqrt(2N) times that in any
    coordinate, and its error at a sample is at most the sum over its steps
    so far; two runs agree to the sum of the two bounds."""
    from scipy.integrate import solve_ivp
    sys, domain, s, z0, T, t_eval = run()
    rtol = atol = 1e-12
    ref = solve_ivp(lambda t, z: core.vortex_rhs(sys, domain, z, r=s),
                    (0.0, T), z0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True)
    steps = dyn.integrate(sys, domain, s, z0, T, rtol=rtol, atol=atol)
    traj = dyn.integrate(sys, domain, s, z0, T, rtol=rtol, atol=atol,
                         t_eval=t_eval)
    n = (len(ref.t) - 1) + (len(steps.times) - 1)
    bound = n * np.sqrt(np.size(z0)) * (
        atol + rtol * np.max(np.abs(traj.states)))
    assert np.max(np.abs(traj.states - ref.sol(t_eval).T)) <= bound


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("sys, domain, z0, T", [
    (VortexSystem([1.0, -1.0]), UnitDisk(), [0.0, 0.1, 0.0, -0.1], 3.0),
    (VortexSystem([1.0, 1.0]), UnitDisk(), [0.9, 0.0, -0.9, 0.0], 2.0),
    (VortexSystem([1.0, 1.0]), HalfPlane(), [0.1, 0.5, -0.1, 0.5], 1.0),
], ids=["disk dipole", "disk pair near the wall", "half-plane pair"])
def test_loose_tolerance_runs_near_a_wall_complete(sys, domain, z0, T, tol):
    """At loose tolerances the steps are long, and a stage iterate or the
    extrapolated stage guess can leave the domain; the field's refusal
    there shortens the step and the run completes.  It meets an
    rtol = atol = 1e-13 run within the sum of the two runs' bounds, as
    derived in `test_collocation_agrees_with_dop853`."""
    z0, t_eval = np.array(z0), np.linspace(0.0, T, 33)
    runs = []
    for rtol in (tol, 1e-13):
        steps = len(dyn.integrate(sys, domain, 1.0, z0, T, rtol=rtol,
                                  atol=rtol).times) - 1
        traj = dyn.integrate(sys, domain, 1.0, z0, T, rtol=rtol, atol=rtol,
                             t_eval=t_eval)
        runs.append((steps, rtol, traj.states))
    y_max = np.max(np.abs(runs[1][2]))
    bound = sum(n * np.sqrt(np.size(z0)) * rtol * (1 + y_max)
                for n, rtol, _ in runs)
    assert np.max(np.abs(runs[0][2] - runs[1][2])) <= bound


def test_first_step_is_the_whole_starting_rule():
    """The first step is that of scipy's `select_initial_step`: from
    h0 = 0.01 |y| / |f| and a probe at y + h0 f, min(100 h0, h1, T) with
    h1 = (0.01 / max(|f|, |f(y + h0 f) - f| / h0))^(1/(s+1)), norms in the
    error scale atol + rtol |y|.  A short-period orbit, the disk pair at
    r = 1e-3, opens with a step at least a quarter of its longest, where
    h0 alone was a hundredth of it.  h1 is not invariant under a change of
    time unit: on one period 2 pi of the plane pair it binds, at about a
    twentieth of the longest step, and the first step is the rule's."""
    rtol, atol = 1e-10, 1e-12
    sys, orbit = _disk_pair_orbit(1e-3)
    steps = np.diff(dyn.integrate(sys, UnitDisk(), 1.0, orbit.samples[0],
                                  orbit.period, rtol=rtol, atol=atol).times)
    assert steps[0] >= steps.max() / 4

    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    y, T = pair.z, pair.period
    steps = np.diff(dyn.integrate(pair.sys, Plane(), 0.0, y, T, rtol=rtol,
                                  atol=atol).times)
    scale = atol + rtol * np.abs(y)
    f = core.vortex_rhs(pair.sys, Plane(), y, r=0.0)
    d1 = np.sqrt(np.mean((f / scale)**2))
    h0 = 0.01 * np.sqrt(np.mean((y / scale)**2)) / d1
    f1 = core.vortex_rhs(pair.sys, Plane(), y + h0 * f, r=0.0)
    d2 = np.sqrt(np.mean(((f1 - f) / scale)**2)) / h0
    h1 = (0.01 / max(d1, d2)) ** (1 / (dyn.STAGES + 1))
    assert steps[0] == pytest.approx(min(100 * h0, h1, T), rel=1e-12)
    assert steps[0] > 1e-3 * T


@pytest.mark.parametrize("raised, expected", [
    (CollisionError, CollisionApproach),
    (DomainError, BoundaryApproach),
    (BoundaryError, BoundaryApproach),
])
def test_field_refusal_shortens_the_step(
        raised, expected, monkeypatch):
    """A refusal the field raises at a trial point rejects the step, which
    is retried at h / 2; a refused probe leaves the first step at h0.  A
    refusal at the first call, the field at the start, ends the run at
    t = 0 with the integration error of its kind.  One
    refusal, at the probe or mid-run, leaves the run to reach T, as
    close to the unperturbed run as the two runs' error bounds allow (the
    derivation of `test_collocation_agrees_with_dop853`).  A refusal at
    every call from t* on ends the run with the integration error of its
    kind, at the last t reached, with the field's error as its cause."""
    field, make_field = core.vortex_rhs, dyn._field
    calls, refuse = [], [None]  # the t of each field call; when to refuse

    def failing_field(*args, **kwargs):
        if refuse[0](len(calls), calls[-1]):
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
    run = (VortexSystem([1.0, 1.0]), UnitDisk(), 1.0,
           np.array([0.3, 0.0, -0.3, 0.0]), 5.0)
    rtol, atol = 1e-10, 1e-12
    refuse[0] = lambda n, t: False
    clean = dyn.integrate(*run, rtol=rtol, atol=atol)
    refuse[0] = lambda n, t: n == 1  # the field at the start
    calls.clear()
    with pytest.raises(expected, match="injected") as info:
        dyn.integrate(*run, rtol=rtol, atol=atol)
    assert info.value.t == 0.0 and isinstance(info.value.__cause__, raised)

    for shot in (2, 20):  # the first-step probe, a stage iterate
        refuse[0] = lambda n, t, shot=shot: n == shot
        calls.clear()
        perturbed = dyn.integrate(*run, rtol=rtol, atol=atol)
        assert len(calls) > shot
        assert perturbed.times[-1] == clean.times[-1] == 5.0
        n = (len(clean.times) - 1) + (len(perturbed.times) - 1)
        bound = n * np.sqrt(4) * (atol + rtol * np.max(np.abs(clean.states)))
        assert np.max(np.abs(perturbed.states[-1] - clean.states[-1])) <= bound

    t_star = 2.0
    refuse[0] = lambda n, t: t >= t_star
    calls.clear()
    with pytest.raises(expected, match="injected") as info:
        dyn.integrate(*run, rtol=rtol, atol=atol)
    assert isinstance(info.value.__cause__, raised)
    assert info.value.t == max(calls) >= t_star


def test_defect_rejection_shrinks_the_step_by_the_defect_rule(monkeypatch):
    """A step rejected by its end defect err > 1 is retried at
    h max(0.2, 0.9 err^(-1/(s+1))), one whose stages did not converge at
    h / 2: every retry at the same t lies within [0.2, 0.9) of the rejected
    h.  The default pair's orbit at r = 1e-3 (the default grid's r_min),
    re-integrated in the lab frame at rtol 2.3e-14 and atol rtol / 100 to
    its sample times, has its first step rejected by its defect (measured:
    err 1.17 at t = 0, retried at 0.888 h), so one retry lies strictly
    between 0.5 and 0.9, where only the defect rule puts it;
    0.9 / err^(-1/(s+1)) would put it above 0.9."""
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    basis = rd.build_x_basis(pair, rd.START_MODES)
    sol = rd.solve_reduced(UnitDisk(), 1e-3, basis, rd.SolverParams())
    orbit = rd.unrescale(np.zeros(2), sol.r, sol.u, 256, UnitDisk())
    tried, solve_stages = [], dyn._solve_stages

    def recorded(rhs, gauss, t, y, h, *args):
        tried.append((t, h))
        return solve_stages(rhs, gauss, t, y, h, *args)
    monkeypatch.setattr(dyn, "_solve_stages", recorded)
    rtol = 2.3e-14
    dyn.integrate(pair.sys, UnitDisk(), 1.0, orbit.samples[0], orbit.period,
                  rtol=rtol, atol=rtol * 1e-2,
                  t_eval=np.append(orbit.times, orbit.period))
    ratios = np.array([h1 / h0 for (t0, h0), (t1, h1) in zip(tried, tried[1:])
                       if t1 == t0])
    assert ratios.size and np.all((0.2 <= ratios) & (ratios < 0.9))
    assert np.any((0.5 < ratios) & (ratios < 0.9))


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
    # below 100 eps the stage iteration stops on shorter steps only
    (1.0, {"rtol": 1e-20}, "rtol must be at least 2.22"),
    (1.0, {"rtol": 5e-324, "atol": 5e-326}, "rtol must be at least 2.22"),
    (1.0, {"t_eval": np.array([0.0, 2.0])}, "t_eval must be strictly"),
    (1.0, {"t_eval": np.array([0.5, 0.5])}, "t_eval must be strictly"),
    (1.0, {"t_eval": np.array([-0.5, 0.5])}, "t_eval must be strictly"),
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


def _in_both_frames(sys, domain, z0, T, turns, t_eval, rtol=1e-10,
                    atol=1e-12):
    """The lab-frame run and the run in the frame turning `turns` times,
    both at t_eval, and the sum of their error bounds.  A run of n steps
    holds each step's error to atol + rtol |y| in the rms norm, so to
    sqrt(2N) (atol + rtol max|y|) in the 2-norm, and its error at a sample
    is at most the sum over its steps (the derivation of
    `test_collocation_agrees_with_dop853`).  Turning a state back is an
    isometry, and in the turning frame each coordinate is at most the
    largest distance from the centre, here the origin."""
    runs, n = [], 0
    for k in (0, turns):
        n += len(dyn.integrate(sys, domain, 1.0, z0, T, rtol, atol,
                               turns=k).times) - 1
        runs.append(dyn.integrate(sys, domain, 1.0, z0, T, rtol, atol,
                                  t_eval, turns=k).states)
    size = np.max(np.linalg.norm(runs[0].reshape(len(t_eval), -1, 2), axis=-1))
    return runs, n * np.sqrt(np.size(z0)) * (atol + rtol * size)


@pytest.fixture(scope="module")
def default_pair_path():
    pair = eq.normalize_period(eq.make_pair(1.0, 1.0, 2.0))
    return pair, rd.continue_path(pair, UnitDisk(), np.zeros(2),
                                  rd.SolverParams())


@pytest.mark.parametrize("r", [0.2, 1e-3])
@pytest.mark.parametrize("delta", [1e-6, 1e-3])
def test_a_scaled_orbit_closes_alike_in_both_frames(default_pair_path, r,
                                                    delta):
    """The turning frame hides no error: the default pair's orbit scaled by
    1 + delta is no orbit, and closes to about 7.09 r delta (1.418e-6 at
    r = 0.2 and delta = 1e-6), as `validate_orbit` reports it in the frame
    turning with the orbit and as the lab-frame run gives it, to within
    the sum of the two runs' error bounds; so does the largest defect at
    the samples."""
    pair, path = default_pair_path
    entry = next(e for e in path.entries if e.r == pytest.approx(r))
    orbit = rd.unrescale(path.a0, entry.r, (1 + delta) * entry.u, 64,
                         UnitDisk())
    t_eval = np.append(orbit.times, orbit.period)
    (lab, _), bound = _in_both_frames(pair.sys, UnitDisk(), orbit.samples[0],
                                      orbit.period, orbit.sense, t_eval)
    closure = np.linalg.norm(lab[-1] - orbit.samples[0])
    defect = np.max(np.linalg.norm(lab[:-1] - orbit.samples, axis=-1))
    report = dyn.validate_orbit(pair.sys, UnitDisk(), orbit)
    assert orbit.sense == 1 and 6 * r * delta < closure < 8 * r * delta
    assert abs(report["closure_error"] - closure) <= bound
    assert abs(report["max_pointwise_defect"] - defect) <= bound


@pytest.mark.parametrize("rtol", [1e-10, 1e-6])
def test_an_orbit_at_rest_in_its_turning_frame_takes_one_step(
        default_pair_path, rtol, monkeypatch):
    """In the frame turning with it the default r = 0.2 orbit is at rest,
    so its field is far below the error scale, and the starting rule's
    h0 = 0.01 |y| / |f| reaches the period: a fallback to 1e-6 T there
    would need about 8 steps of 4x growth.  Validation makes 4 field
    calls: the start, the probe, one stage iteration and the step end's
    defect."""
    pair, path = default_pair_path
    entry = next(e for e in path.entries if e.r == 0.2)
    orbit = rd.unrescale(path.a0, entry.r, entry.u, 256, UnitDisk())
    field, calls = core.vortex_rhs, []

    def counted(*args, **kwargs):
        calls.append(1)
        return field(*args, **kwargs)

    monkeypatch.setattr(core, "vortex_rhs", counted)
    report = dyn.validate_orbit(pair.sys, UnitDisk(), orbit, rtol=rtol)
    assert len(calls) == 4
    assert report["closure_error"] <= 1e-14


@pytest.mark.parametrize("gammas, z0, T, turns", [
    ([1.0, 1.0], [0.4, 0.1, -0.1, 0.2], 2.0, 1),
    ([1.0, -1.0], [0.0, 0.05, 0.0, -0.05], 0.1, -1),
], ids=["off-centre pair", "small dipole"])
def test_a_start_that_is_no_orbit_runs_alike_in_both_frames(gammas, z0, T,
                                                            turns):
    """Any run in the turning frame, turned back, is the lab-frame run: an
    off-centre pair in the disk, and a small dipole on its way towards
    the wall, agree at every sample to the sum of the two runs' error
    bounds."""
    t_eval = np.linspace(0.0, T, 17)
    (lab, turned), bound = _in_both_frames(
        VortexSystem(gammas), UnitDisk(), np.array(z0), T, turns, t_eval)
    assert np.max(np.linalg.norm(lab - turned, axis=-1)) <= bound
    assert np.max(np.abs(lab[-1] - lab[0])) > 0.1  # the run moved


def test_a_turning_frame_needs_a_declared_centre():
    """The half plane has no centre of rotation: a turning frame there is
    refused before any step, while the lab frame runs."""
    run = (VortexSystem([1.0, 1.0]), HalfPlane(), 1.0,
           np.array([0.1, 0.5, -0.1, 0.5]), 0.1)
    assert HalfPlane().centre is None
    with pytest.raises(ValueError, match="no centre"):
        dyn.integrate(*run, turns=1)
    assert dyn.integrate(*run).times[-1] == 0.1
