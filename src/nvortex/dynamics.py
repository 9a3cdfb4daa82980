"""Direct time integration of the vortex equations and orbit validation.

Wraps scipy's adaptive Dormand-Prince integrators with per-step validity
guards (collision and boundary approach stop the run with the failure
time), conserved-quantity drift reports, and a period-closure check used
to validate output of the reduction solver independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import DomainModel, VortexSystem
from .errors import (BoundaryApproach, BoundaryError, CollisionApproach,
                     CollisionError, DomainError, MinStepReached)
from .reduction import PhysicalOrbit

COLLISION_GUARD = 1e-9
BOUNDARY_GUARD = 1e-9


@dataclass(frozen=True, eq=False)  # holds arrays: compares by identity
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), 2N)
    mode: str

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def initial(self) -> np.ndarray:
        return self.states[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def min_separation(self) -> float:
        return core.min_separation(self.states)


def _rhs(sys: VortexSystem, domain: DomainModel, mode: str, r: float):
    if mode == "physical":
        return lambda t, z: core.vortex_rhs(sys, domain, z, physical=True)
    if mode == "rescaled":
        return lambda t, z: core.vortex_rhs(sys, domain, z, r=r)
    if mode == "plane":
        return lambda t, z: core.vortex_rhs(sys, core.Plane(), z, r=0.0)
    raise ValueError(f"unknown integration mode {mode!r}")


def _guards(domain: DomainModel, mode: str):
    """(event, error, message) for each guard; the event is a distance minus
    its guard, so the guard trips where the event is <= 0."""
    def collision(t, z):
        return core.min_separation(z) - COLLISION_GUARD

    guards = [(collision, CollisionApproach,
               f"vortices within {COLLISION_GUARD:g} of collision")]
    if mode == "physical" and np.isfinite(domain.boundary_gap(np.zeros(2))):
        def boundary(t, z):
            return float(domain.boundary_gap(z.reshape(-1, 2)).min()) \
                - BOUNDARY_GUARD

        guards.append((boundary, BoundaryApproach,
                       f"vortex within {BOUNDARY_GUARD:g} of the boundary"))
    for event, _, _ in guards:
        event.terminal = True
        event.direction = -1
    return guards


def integrate(sys: VortexSystem, domain: DomainModel, mode: str,
              z0: np.ndarray, T: float, rtol: float = 1e-10,
              atol: float = 1e-12, r: float = 0.0,
              t_eval: np.ndarray | None = None) -> Trajectory:
    """Integrate one of the vortex systems over [0, T]; ValueError unless T,
    rtol and atol are finite and positive and t_eval has 2 or more times."""
    for name, value in (("T", T), ("rtol", rtol), ("atol", atol)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if t_eval is not None and np.size(t_eval) < 2:
        raise ValueError("t_eval must hold at least 2 times, got "
                         f"{np.size(t_eval)}")
    from scipy.integrate import solve_ivp  # slow import; most commands never integrate
    z0 = np.asarray(z0, dtype=float).ravel()
    guards = _guards(domain, mode)
    for event, error, message in guards:
        if event(0.0, z0) <= 0:
            raise error(message, t=0.0)
    last_t = [0.0]
    base_rhs = _rhs(sys, domain, mode, r)

    def rhs(t, z):
        last_t[0] = t
        return base_rhs(t, z)

    try:
        sol = solve_ivp(rhs, (0.0, T), z0,
                        method="DOP853", rtol=rtol, atol=atol,
                        events=[event for event, _, _ in guards],
                        t_eval=t_eval, dense_output=False)
    except CollisionError as exc:
        raise CollisionApproach(str(exc), t=last_t[0]) from exc
    except (DomainError, BoundaryError) as exc:
        raise BoundaryApproach(str(exc), t=last_t[0]) from exc
    if sol.status == 1:  # a terminal event fired
        which = next(i for i, te in enumerate(sol.t_events) if len(te))
        _, error, message = guards[which]
        raise error(message, t=float(sol.t_events[which][0]))
    if not sol.success:
        raise MinStepReached(sol.message, t=float(sol.t[-1]))
    return Trajectory(times=sol.t, states=sol.y.T, mode=mode)


def _energy(sys: VortexSystem, domain: DomainModel, mode: str, r: float,
            states: np.ndarray) -> np.ndarray:
    if mode == "physical":
        return core.eval_H0(sys, states) - core.eval_F(sys, domain, states)
    if mode == "rescaled":
        return core.eval_Hr(sys, domain, r, states)
    return core.eval_H0(sys, states)


def invariants_along(sys: VortexSystem, domain: DomainModel,
                     traj: Trajectory, r: float = 0.0) -> dict:
    """Max drift of the conserved quantities along a trajectory."""
    if len(traj.times) == 0:
        return {"energy_drift": 0.0}
    energy = _energy(sys, domain, traj.mode, r, traj.states)
    report = {"energy_drift": float(np.max(np.abs(energy - energy[0])))}
    if traj.mode == "plane":
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
    traj = integrate(sys, domain, "physical", orbit.samples[0], orbit.period,
                     rtol=rtol, atol=rtol * 1e-2,
                     t_eval=np.append(orbit.times, orbit.period))
    closure = float(np.linalg.norm(traj.states[-1] - orbit.samples[0]))
    defect = float(np.max(np.linalg.norm(
        traj.states[: len(orbit.times)] - orbit.samples, axis=-1)))
    return {"closure_error": closure, "max_pointwise_defect": defect}
