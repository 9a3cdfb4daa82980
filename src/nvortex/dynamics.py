"""Direct time integration of the vortex equations and orbit validation.

Integrates the field of H_s (physical at s = 1, plane at s = 0) with scipy's
adaptive Dormand-Prince integrators and per-step validity guards (collision
and boundary approach stop the run with the failure time), drift reports of
the conserved quantities, and a period-closure check that validates the
reduction solver's orbits independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import DomainModel, VortexSystem
from .errors import (BoundaryApproach, CollisionApproach, CollisionError,
                     DomainError, MinStepReached)
from .reduction import PhysicalOrbit

COLLISION_GUARD = 1e-9
BOUNDARY_GUARD = 1e-9
# solve_ivp raises an rtol below 100 eps to 100 eps with a warning; integrate
# refuses it, before atol, so validate_orbit's atol = rtol / 100 is >= eps
RTOL_FLOOR = 100 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)  # holds arrays: compares by identity
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), 2N)
    s: float  # the scale of the integrated field H_s

    def __post_init__(self):
        if (len(self.times) == 0 or len(self.states) != len(self.times)
                or np.any(np.diff(self.times) <= 0)):
            raise ValueError("a trajectory needs one state per time, and one "
                             "or more strictly increasing times")


def _field(sys: VortexSystem, domain: DomainModel, s: float):
    return lambda t, z: core.vortex_rhs(sys, domain, z, r=s)


def _guards(domain: DomainModel, s: float):
    """(event, error, message) for each guard.  Each event is a distance minus
    its guard, <= 0 where it trips; the boundary's is measured at s*z."""
    def collision(t, z):
        return core.min_separation(z) - COLLISION_GUARD

    guards = [(collision, CollisionApproach,
               f"vortices within {COLLISION_GUARD:g} of collision")]
    if s > 0 and np.isfinite(domain.boundary_gap(np.zeros(2))):
        def boundary(t, z):
            return float(domain.boundary_gap((s * z).reshape(-1, 2)).min()) \
                - BOUNDARY_GUARD

        guards.append((boundary, BoundaryApproach,
                       f"vortex within {BOUNDARY_GUARD:g} of the boundary"))
    for event, _, _ in guards:
        event.terminal = True
        event.direction = -1
    return guards


def integrate(sys: VortexSystem, domain: DomainModel, s: float, z0: np.ndarray,
              T: float, rtol: float = 1e-10, atol: float = 1e-12,
              t_eval: np.ndarray | None = None) -> Trajectory:
    """Integrate the field of H_s over [0, T]; ValueError unless s passes
    ``check_r``, T, rtol, atol are finite and > 0, rtol is at least
    RTOL_FLOOR, and t_eval has 2+ times."""
    core.check_r(s)
    core.check_positive(T, "T")
    core.check_positive(rtol, "rtol")
    core.check_at_least(rtol, "rtol", RTOL_FLOOR)
    core.check_positive(atol, "atol")
    if t_eval is not None:
        core.check_count(np.size(t_eval), "len(t_eval)", 2)
    from scipy.integrate import solve_ivp  # slow import; most commands never integrate
    z0 = np.asarray(z0, dtype=float).ravel()
    guards = _guards(domain, s)
    for event, error, message in guards:
        if event(0.0, z0) <= 0:
            raise error(message, t=0.0)
    field, last_t = _field(sys, domain, s), [0.0]

    def rhs(t, z):
        last_t[0] = t
        return field(t, z)

    try:
        sol = solve_ivp(rhs, (0.0, T), z0,
                        method="DOP853", rtol=rtol, atol=atol,
                        events=[event for event, _, _ in guards],
                        t_eval=t_eval, dense_output=False)
    except CollisionError as exc:
        raise CollisionApproach(str(exc), t=last_t[0]) from exc
    except DomainError as exc:
        raise BoundaryApproach(str(exc), t=last_t[0]) from exc
    if sol.status == 1:  # a terminal event fired
        which = next(i for i, te in enumerate(sol.t_events) if len(te))
        _, error, message = guards[which]
        raise error(message, t=float(sol.t_events[which][0]))
    if not sol.success:
        raise MinStepReached(sol.message, t=float(sol.t[-1]))
    return Trajectory(times=sol.t, states=sol.y.T, s=s)


def invariants_along(sys: VortexSystem, domain: DomainModel,
                     traj: Trajectory) -> dict:
    """Max drift of the conserved quantities along a trajectory: H_s, and in
    the plane (s = 0) also the centre of vorticity and angular impulse."""
    energy = core.eval_Hr(sys, domain, traj.s, traj.states)
    report = {"energy_drift": float(np.max(np.abs(energy - energy[0])))}
    if traj.s == 0:
        z = traj.states.reshape(len(traj.times), -1, 2)
        cov = np.einsum("k,tkx->tx", sys.gammas, z)
        imp = np.einsum("k,tk->t", sys.gammas, np.sum(z**2, axis=-1))
        report["center_of_vorticity_drift"] = float(
            np.max(np.linalg.norm(cov - cov[0], axis=-1)))
        report["angular_impulse_drift"] = float(np.max(np.abs(imp - imp[0])))
    return report


def validate_orbit(sys: VortexSystem, domain: DomainModel,
                   orbit: PhysicalOrbit, rtol: float = 1e-10) -> dict:
    """Re-integrate the physical system over one period from sample 0."""
    traj = integrate(sys, domain, 1.0, orbit.samples[0], orbit.period,
                     rtol=rtol, atol=rtol * 1e-2,
                     t_eval=np.append(orbit.times, orbit.period))
    closure = float(np.linalg.norm(traj.states[-1] - orbit.samples[0]))
    defect = float(np.max(np.linalg.norm(
        traj.states[: len(orbit.times)] - orbit.samples, axis=-1)))
    return {"closure_error": closure, "max_pointwise_defect": defect}
