"""Planar point-vortex dynamics in bounded domains: relative equilibria,
Floquet nondegeneracy, and continuation of small periodic orbits around
interior equilibrium points of the hydrodynamic Green function."""

from . import core, dynamics, equilibria, errors, loops, reduction
from .core import (
    CriticalPoint,
    DomainModel,
    HalfPlane,
    Plane,
    SyntheticQuadratic,
    TranslatedDomain,
    UnitDisk,
    VortexSystem,
    domain_from_spec,
    find_critical_point_h,
)
from .equilibria import (
    MonodromyReport,
    RelativeEquilibrium,
    make_pair,
    make_thomson,
    make_triangle,
    monodromy,
    normalize_period,
    triangle_conditions,
)
from .loops import Loop, LoopFrame, build_frame
from .reduction import (
    ContinuationPath,
    PhysicalOrbit,
    ReducedSolution,
    SolverParams,
    continue_path,
    solve_reduced,
    unrescale,
)
from .dynamics import Trajectory, integrate, invariants_along, validate_orbit

__version__ = "0.1.0"
