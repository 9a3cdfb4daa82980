"""Direct time integration of the vortex equations and orbit validation.

Integrates the field of H_s (physical at s = 1, plane at s = 0) by adaptive
s-stage Gauss-Legendre collocation (J. C. Butcher, Math. Comp. 18, 1964; E.
Hairer, C. Lubich and G. Wanner, Geometric Numerical Integration, II.1.3).
Each step solves its stages by fixed-point iteration, one batched field call
per iteration, and is accepted when its collocation polynomial's end defect
is within tolerance; that polynomial is the dense output.  The first step
is scipy's starting step, whose fallback for a small state or field is
kept only where one is 0.  A step is retried at h / 2, and h does not grow
on the next, when the field refuses a trial point or a stage point or the
step end trips a collision or boundary guard; the run ends on a refusal
once the step is too short to retry.  Drift reports of the conserved
quantities and a period-closure check validate the reduction solver's
orbits independently; in a domain that declares a centre the check runs in
the frame turning with the orbit about it, where a relative equilibrium is
at rest (P. K. Newton, The N-Vortex Problem, Springer 2001).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import core
from .core import DomainModel, VortexSystem
from .errors import (BoundaryApproach, CollisionApproach, CollisionError,
                     DomainError, MinStepReached, StepLimitReached)
from .reduction import PhysicalOrbit

COLLISION_GUARD = 1e-9
BOUNDARY_GUARD = 1e-9
# Gauss stages s: validating the 60 orbits of three seeded pair runs and
# the default run at rtol 1e-10 makes a median of 152 field calls at s = 6;
# from a first step of h0 alone, 90 at s = 8 and 71 at s = 10, and with
# `_first_step`'s whole rule 85 at s = 8 and 61.5 at s = 10.  The fixed
# tableau is summed from Legendre coefficients, within a few eps at s = 10
STAGES = 10
# the stage iteration stops once its last change of h K is within STAGE_TOL
# of the error scale atol + rtol |y|.  That change carries the roundoff of
# the field, about eps |h K|, so below rtol = eps / STAGE_TOL = 100 eps the
# stop is met only on shorter steps, which buy no accuracy: one period of
# the plane pair (atol = rtol / 100) closes to 2.4e-15 or better at every
# rtol from 1e-12 down, in 18 steps at 2.3e-14 and in 55 and 449 at 1e-15
# and 1e-16.
# integrate refuses an rtol below RTOL_FLOOR, before atol, so
# validate_orbit's atol = rtol / 100 is >= eps
STAGE_TOL = 1e-2
RTOL_FLOOR = 100 * np.finfo(float).eps
# at the steps the defect allows, each stage iteration gains about a digit
# and a step takes about 9 of them (7-11 on those 60 orbits at rtol 1e-10);
# 20 without reaching STAGE_TOL means h is too long for the iteration to
# contract, and the step is retried at h / 2
MAX_STAGE_ITER = 20
# the step budget, rejected steps included: validating one of those 60
# orbits takes 5-8 steps at rtol 1e-10 and 8-15 at RTOL_FLOOR, so the cap
# is over 1300 such periods; at about 0.7 ms a step for a pair (2 vCPU) it
# ends a run that cannot reach T, such as `simulate --z0=0.1,0,-0.1,0
# --time=1e300`, at t = 1700 after about 14 s (13.4 s and 13.9 s measured)
MAX_STEPS = 20_000
# the refusals of a configuration, which the field and the guards
# (`_guards`) raise alike: at a trial point they reject the step, since a
# shorter step may keep every stage inside
_REFUSALS = (CollisionError, DomainError)


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


class _Collocation:
    """The Gauss-Legendre collocation method with `stages` nodes c_j in
    (0, 1): A_ij = int_0^c_i l_j and b_j = int_0^1 l_j over the Lagrange
    basis l_j of the nodes.  In x = 2 theta - 1 the Legendre coefficients of
    l_j are (k + 1/2) w_j P_k(x_j), since the quadrature is exact on l_j P_k.
    A, b and l_j(1) are summed from those coefficients by Clenshaw's
    recurrence: their absolute values sum to at most 3.5 for l_j and 0.5
    for its integral at s = 10, and |P_k| <= 1 on [-1, 1], so each entry is
    within a few eps.  The stage guess and the dense output evaluate l_j
    and int_0^theta l_j as power series in x, one matrix product per call;
    their coefficients sum to at most 466 and 36 at s = 10."""

    def __init__(self, stages: int):
        from numpy.polynomial import legendre  # loaded by integrations only
        x, w = legendre.leggauss(stages)
        slope = (legendre.legvander(x, stages - 1) * w[:, None]
                 * (np.arange(stages) + 0.5)).T
        integral = legendre.legint(slope, lbnd=-1, scl=0.5)
        self.c = (x + 1) / 2
        self.A = legendre.legval(x, integral).T
        self.b = legendre.legval(1.0, integral)
        self.end_slope = legendre.legval(1.0, slope)
        self._slope = np.apply_along_axis(legendre.leg2poly, 0, slope)
        self._integral = np.apply_along_axis(legendre.leg2poly, 0, integral)

    @staticmethod
    def _powers(theta, n):
        return (2 * np.asarray(theta)[..., None] - 1) ** np.arange(n)

    def slopes(self, theta):
        """l_j(theta): (..., stages)."""
        return self._powers(theta, len(self._slope)) @ self._slope

    def integrals(self, theta):
        """int_0^theta l_j: (..., stages)."""
        return self._powers(theta, len(self._integral)) @ self._integral


@functools.cache
def _collocation(stages: int) -> _Collocation:
    return _Collocation(stages)


def _rms(x) -> float:
    return float(np.sqrt(np.vdot(x, x) / np.size(x)))


def _field(sys: VortexSystem, domain: DomainModel, s: float):
    return lambda t, z: core.vortex_rhs(sys, domain, z, r=s)


def _guards(domain: DomainModel, s: float):
    """trip(points): raises the refusal of the first guard that a stack of
    configurations trips, as the field raises its own: CollisionError for
    two vortices within COLLISION_GUARD and DomainError for one within
    BOUNDARY_GUARD of the boundary, measured at s*z."""
    bounded = s > 0 and np.isfinite(domain.boundary_gap(np.zeros(2)))

    def trip(points):
        if core.min_separation(points) <= COLLISION_GUARD:
            raise CollisionError(
                f"vortices within {COLLISION_GUARD:g} of collision")
        if bounded and domain.boundary_gap(
                (s * points).reshape(-1, 2)).min() <= BOUNDARY_GUARD:
            raise DomainError(
                f"vortex within {BOUNDARY_GUARD:g} of the boundary")
    return trip


def _solve_stages(rhs, gauss: _Collocation, t, y, h, K, scale):
    """The stage slopes K = f(y + h A K) of the step of length h from (t, y),
    by fixed-point iteration from the guess K, every stage in one field
    call; None when the iteration stops contracting first.  A refusal of
    the field propagates to the caller, which rejects the step."""
    last = np.inf
    for _ in range(MAX_STAGE_ITER):
        new = rhs(t, y + h * (gauss.A @ K))
        change = _rms(h * (new - K) / scale)
        K = new
        if change <= STAGE_TOL:
            return K
        if not change < last:  # diverging, stalled, or not finite
            return None
        last = change
    return None


def integrate(sys: VortexSystem, domain: DomainModel, s: float, z0: np.ndarray,
              T: float, rtol: float = 1e-10, atol: float = 1e-12,
              t_eval: np.ndarray | None = None, *,
              turns: float = 0) -> Trajectory:
    """Integrate the field of H_s over [0, T]; ValueError unless s passes
    ``check_r``, T, rtol, atol are finite and > 0, rtol is at least
    RTOL_FLOOR, and t_eval has 2+ strictly increasing times in [0, T].
    Without t_eval the trajectory holds every step's end.  A start that
    trips a guard or that the field refuses raises CollisionApproach or
    BoundaryApproach at t = 0, with the refusal as its __cause__.
    Once a step falls below 10 float spacings of t, the run ends at the
    last t reached: with that error when the field refused the step or a
    guard tripped in it, and with MinStepReached otherwise;
    StepLimitReached after MAX_STEPS steps, also at the last t reached.
    A nonzero `turns` integrates w = R(-Omega t)(z - c), Omega = 2 pi turns
    / T, about the domain's `centre` c (ValueError if None), by its field
    f(c + w) - Omega J w, and turns each state back by 2 pi (turns t/T mod 1)."""
    core.check_r(s)
    core.check_positive(T, "T")
    core.check_positive(rtol, "rtol")
    core.check_at_least(rtol, "rtol", RTOL_FLOOR)
    core.check_positive(atol, "atol")
    if t_eval is not None:
        core.check_count(np.size(t_eval), "len(t_eval)", 2)
        t_eval = np.asarray(t_eval, dtype=float).ravel()
        if not (0 <= t_eval[0] and t_eval[-1] <= T
                and np.all(np.diff(t_eval) > 0)):
            raise ValueError("t_eval must be strictly increasing times "
                             "within [0, T]")
    z0 = np.asarray(z0, dtype=float).ravel()
    rhs, trip = _field(sys, domain, s), _guards(domain, s)
    if not turns:
        return Trajectory(*_steps(rhs, trip, z0, T, rtol, atol, t_eval), s=s)
    if domain.centre is None:
        raise ValueError(f"the {domain.variant} domain has no centre to turn about")
    c = np.tile(domain.centre, z0.size // 2) / (s or 1.0)  # g is read at s z
    spin = 2j * np.pi * turns / T  # i Omega: J is i on complex points
    times, w = _steps(
        lambda t, w: rhs(t, c + w) - (spin * w.view(complex)).view(float),
        lambda w: trip(c + w), z0 - c, T, rtol, atol, t_eval)
    turned = np.exp(2j * np.pi * np.mod(turns * (times / T), 1))[:, None]
    return Trajectory(times, c + (w.view(complex) * turned).view(float), s=s)


def _approach(refusal: Exception, t: float):
    """The integration error that ends a run on a refusal at t, the
    field's or a guard's."""
    error = (CollisionApproach if isinstance(refusal, CollisionError)
             else BoundaryApproach)
    return error(str(refusal), t=t)


def _first_step(rhs, y, f, T, scale, order):
    """The starting-step rule of scipy's `select_initial_step` (E.
    Hairer, S. P. Norsett and G. Wanner, Solving ODEs I, II.4): from
    h0 = 0.01 |y| / |f| in the error norm, one probe call at y + h0 f
    estimates |f'| as d2, and the step is min(100 h0, h1, T) with
    h1 = (0.01 / max(|f|, d2))^(1/order); h0 = 1e-6 T only where |y| or |f|
    is 0 (scipy's threshold of 1e-5 stalled runs at rest in a turning
    frame).  A refused probe leaves h0, which the stepping loop shortens."""
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 * T if min(d0, d1) == 0 else min(0.01 * d0 / d1, T)
    try:
        d2 = _rms((rhs(0.0, y + h0 * f) - f) / scale) / h0
    except _REFUSALS:
        return h0
    d = max(d1, d2)
    h1 = (0.01 / d) ** (1 / order) if d > 0 else np.inf
    return min(100 * h0, h1, T) if h1 > 0 else h0


def _steps(rhs, trip, y, T, rtol, atol, t_eval):
    """The stepping loop of `integrate`: (times, states).  A start that
    `trip` or the field refuses ends the run at t = 0, before anything is
    built.  The first step is `_first_step`'s; after a step with end
    defect err (in scipy's mixed rms norm) the next is
    h * 0.9 err^(-1/(s+1)), at most 4 h (h if it followed a refusal, so
    a run ends on a guard by bisection), and a rejected one is retried at
    that, at least h / 5, or at h / 2 when its stages did not converge or
    it was refused: the field raised CollisionError or DomainError at a
    trial point (a stage iterate or the step-end defect call), or `trip`
    raised one for the converged stage points and the step end, which it
    tests before the defect call.  Once h falls below 10 float spacings of
    t, a refusal ends the run as CollisionApproach or BoundaryApproach at
    t, and any other rejection as MinStepReached.  Each step's stage guess
    is the last step's collocation polynomial, extrapolated.  Every field
    call of a step is handed the step's start time."""
    t = 0.0
    try:
        trip(y)
        f = rhs(t, y)
    except _REFUSALS as exc:
        raise _approach(exc, t) from exc
    gauss = _collocation(STAGES)
    order = STAGES + 1  # the end defect h (u'(1) - f(u(1))) is O(h^(s+1))
    if t_eval is None:
        times, states = [0.0], [y]
    else:
        times, states = t_eval, np.empty((len(t_eval), y.size))
        states[0] = y  # read only if t_eval[0] is 0
    done = int(t_eval is not None and t_eval[0] == 0)  # t_eval samples
    h = _first_step(rhs, y, f, T, atol + rtol * np.abs(y), order)
    K_last, h_last = np.broadcast_to(f, (STAGES, y.size)), None
    grow = 4.0
    for _ in range(MAX_STEPS):
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h, t1 = (T - t, T) if t + h >= T - min_step else (h, t + h)
        K = K_last if h_last is None \
            else gauss.slopes(1 + gauss.c * h / h_last) @ K_last
        err, refusal = np.nan, None
        try:
            K = _solve_stages(rhs, gauss, t, y, h, K, atol + rtol * np.abs(y))
            if K is not None:
                y1 = y + h * (gauss.b @ K)
                trip(np.vstack([y + h * (gauss.A @ K), y1]))
                scale = atol + rtol * np.maximum(np.abs(y), np.abs(y1))
                err = _rms(h * (gauss.end_slope @ K - rhs(t, y1)) / scale)
        except _REFUSALS as exc:
            refusal = exc
        if not err <= 1:
            h *= max(0.2, 0.9 * err ** (-1 / order)) if err > 1 else 0.5
            grow = 1.0 if refusal is not None else grow
            if h < min_step:
                if refusal is not None:
                    raise _approach(refusal, t) from refusal
                raise MinStepReached("Required step size is less than "
                                     "spacing between numbers.", t=t)
            continue
        if t_eval is None:
            times.append(t1)
            states.append(y1)
        else:
            stop = np.searchsorted(t_eval, t1, side="right")
            theta = (t_eval[done:stop] - t) / h
            states[done:stop] = y + h * (gauss.integrals(theta) @ K)
            if stop and t_eval[stop - 1] == t1:
                states[stop - 1] = y1
            done = stop
        if t1 == T:
            return np.asarray(times), np.asarray(states)
        t, y, K_last, h_last = t1, y1, K, h
        h *= min(grow, 0.9 * err ** (-1 / order)) if err > 0 else grow
        grow = 4.0
    raise StepLimitReached(f"step cap MAX_STEPS = {MAX_STEPS} reached at "
                           f"t = {t:.6g}, short of T = {T:.6g}", t=t)


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
                     t_eval=np.append(orbit.times, orbit.period),
                     turns=0 if domain.centre is None else orbit.sense)
    closure = float(np.linalg.norm(traj.states[-1] - orbit.samples[0]))
    defect = float(np.max(np.linalg.norm(
        traj.states[: len(orbit.times)] - orbit.samples, axis=-1)))
    return {"closure_error": closure, "max_pointwise_defect": defect}
