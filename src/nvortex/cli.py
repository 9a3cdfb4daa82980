"""Command-line front end.

Subcommands: equilibrium, continue, simulate, validate, robin.  Runs are
configured by an INI file with sections [system], [domain], [solver],
[output]; command-line flags override file values.  Exit codes: 0 on
success, 1 on a domain-level failure (degenerate equilibrium, convergence
below quota, validation above threshold), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import os
import sys

import numpy as np

from . import core, dynamics, equilibria, reduction
from .errors import LeftDomain, NoConvergence, VortexError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# configuration

# the [solver] keys: one per SolverParams field, parsed by its default's type
SOLVER_FIELDS = dataclasses.fields(reduction.SolverParams)
DEFAULT_CONFIG = {
    "system": {"gammas": "1,1", "seed": "pair", "separation": "2.0",
               "side": "1.0", "radius": "1.0", "n": "2"},
    "domain": {"variant": "disk", "a0_guess": "0,0"},
    "solver": {f.name: str(f.default) for f in SOLVER_FIELDS},
    "output": {"dir": ".", "prefix": "orbit"},
}
# seed kind: (gamma count, its [system] size key, its `equilibrium` size flag)
SEEDS = {"pair": (2, "separation", "sep"), "triangle": (3, "side", "side"),
         "thomson": (1, "radius", "radius")}


def make_seed(kind: str, gammas, size: float,
              n: int | None) -> equilibria.RelativeEquilibrium:
    """A pair at separation `size`, a triangle of side `size` or an n-gon of
    radius `size`; ValueError unless `gammas` has 2, 3 or 1 entries respectively."""
    count = SEEDS[kind][0]
    if len(gammas) != count:
        raise ValueError(f"{kind} seed needs {count} gamma(s), got {len(gammas)}")
    if kind == "pair":
        return equilibria.make_pair(*gammas, size)
    if kind == "triangle":
        return equilibria.make_triangle(*gammas, size)
    return equilibria.make_thomson(n, gammas[0], size)


def _read(section, key, parse):
    """parse(section[key]), with a ValueError that names [section] key."""
    try:
        return parse(section[key])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"[{section.name}] {key}: {exc}") from exc


def float_list(text):
    """A comma-separated number list: an argparse `type` and a `_read` parse."""
    return np.array([float(x) for x in text.split(",")])


def _check_keys(parser: configparser.ConfigParser) -> None:
    """Reject sections and keys that no setting reads; `matrix` belongs to
    the quadratic domain only."""
    for section in parser.sections():
        if section not in DEFAULT_CONFIG:
            raise ValueError(f"unknown config section [{section}]")
        allowed = set(DEFAULT_CONFIG[section])
        if section == "domain" and parser[section]["variant"].lower() == "quadratic":
            allowed.add("matrix")
        unknown = sorted(set(parser[section]) - allowed)
        if unknown:
            raise ValueError(f"unknown key(s) in [{section}]: "
                             + ", ".join(unknown))


class RunConfig:
    """Parsed and validated configuration for a run."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        _check_keys(parser)
        sysal = parser["system"]
        self.gammas = _read(sysal, "gammas", float_list)
        self.seed = sysal["seed"].lower()
        if self.seed not in SEEDS:
            raise ValueError(f"[system] seed: unknown type {self.seed!r}")
        self.size = _read(sysal, SEEDS[self.seed][1], float)
        self.n = _read(sysal, "n", int)

        dom = parser["domain"]
        variant = dom["variant"].lower()
        params = {}
        if variant == "quadratic":
            params["a_matrix"] = _read(dom, "matrix", lambda text: [
                float_list(row) for row in text.split(";")])
        try:
            self.domain = core.domain_from_spec(variant, params)
        except ValueError as exc:
            raise ValueError(f"[domain]: {exc}") from exc
        self.a0_guess = _read(dom, "a0_guess",
                              lambda text: float_list(text).reshape(2))

        sol = parser["solver"]
        values = {f.name: _read(sol, f.name, type(f.default))
                  for f in SOLVER_FIELDS}
        try:
            self.params = reduction.SolverParams(**values)
        except ValueError as exc:
            raise ValueError(f"[solver]: {exc}") from exc
        sol["mode"] = self.params.mode  # dumped in its canonical spelling

        out = parser["output"]
        self.out_dir = out["dir"]
        self.prefix = out["prefix"]

    def vortex_system(self) -> core.VortexSystem:
        if self.seed == "thomson":  # checked by the seed's own rules
            return self.seed_equilibrium().sys
        return core.VortexSystem(self.gammas)

    def seed_equilibrium(self) -> equilibria.RelativeEquilibrium:
        return make_seed(self.seed, self.gammas, self.size, self.n)


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """The defaults, then the file at `path` read verbatim (`%` is literal),
    then the non-None `overrides`; an unreadable file's error names it."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(DEFAULT_CONFIG)
    if path is not None:
        if not os.path.exists(path):
            raise ValueError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                parser.read_file(fh)
            except (configparser.Error, UnicodeError) as exc:
                raise ValueError(f"config file {path}: {exc}") from exc
    for (section, key), value in (overrides or {}).items():
        if value is not None:
            parser[section][key] = str(value)
    return RunConfig(parser)


# ---------------------------------------------------------------------------
# output helpers

def trajectory_csv(times: np.ndarray, states: np.ndarray) -> str:
    n = states.shape[1] // 2
    header = "t," + ",".join(f"x{k+1},y{k+1}" for k in range(n))
    lines = [",".join(f"{v:.17g}" for v in np.concatenate([[t], row]))
             for t, row in zip(times, states)]
    return "\n".join([header, *lines]) + "\n"


def trajectory_svg(states: np.ndarray, domain: core.DomainModel) -> str:
    """Minimal SVG: one polyline per vortex plus the domain boundary."""
    size = 480  # pixels per side
    n = states.shape[1] // 2
    pts = states.reshape(len(states), n, 2)
    lo = pts.reshape(-1, 2).min(axis=0)
    hi = pts.reshape(-1, 2).max(axis=0)
    if domain.variant == "disk":
        lo = np.minimum(lo, [-1.0, -1.0])
        hi = np.maximum(hi, [1.0, 1.0])
    span = max(float(np.max(hi - lo)), 1e-9) * 1.1
    center = 0.5 * (lo + hi)

    def to_px(p):
        q = (p - center) / span + 0.5
        return q[0] * size, (1.0 - q[1]) * size

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b", "#e377c2", "#7f7f7f"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    if domain.variant == "disk":
        cx, cy = to_px(np.zeros(2))
        rx, _ = to_px(np.array([1.0, 0.0]))
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" '
                     f'r="{abs(rx - cx):.2f}" fill="none" stroke="black"/>')
    elif domain.variant == "halfplane":
        x0, y0 = to_px(np.array([center[0] - span, 0.0]))
        x1, y1 = to_px(np.array([center[0] + span, 0.0]))
        parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" '
                     f'y2="{y1:.2f}" stroke="black"/>')
    for k in range(n):
        path = " ".join("%.2f,%.2f" % to_px(p) for p in pts[:, k, :])
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{colors[k % len(colors)]}" stroke-width="1.2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_equilibrium(args) -> int:
    flags = [SEEDS[args.type][2]] + (["n"] if args.type == "thomson" else [])
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"{args.type} needs " + " and ".join(missing))
    eq = make_seed(args.type, args.gamma, getattr(args, flags[0]), args.n)

    residual = equilibria.residual_HS0(eq)
    print(f"z     = {np.array2string(eq.z, precision=12)}")
    print(f"omega = {eq.omega:.12g}")
    print(f"residual = {residual:.3e}")
    code = EXIT_OK if residual <= equilibria.residual_bound(eq.sys) else EXIT_FAIL
    if args.check:
        report = equilibria.monodromy(equilibria.normalize_period(eq))
        print("multipliers:")
        for mu in report.multipliers:
            print(f"  {mu.real:+.9f} {mu.imag:+.9f}i  (|mu| = {abs(mu):.9f})")
        print(f"kernel_dim = {report.kernel_dim}")
        verdict = report.nondegenerate
        if args.type == "triangle":
            # the algebraic conditions also catch degeneracy that appears
            # only in generalized eigenvectors of the monodromy
            cond = equilibria.triangle_conditions(eq.sys)
            print(f"triangle conditions: gamma_ok={cond.gamma_ok} "
                  f"L_ok={cond.L_ok} L_neq_sumsq={cond.L_neq_sumsq}")
            verdict = verdict and cond.predicted_nondegenerate
        print("verdict: " + ("nondegenerate" if verdict else "DEGENERATE"))
        if not verdict:
            code = EXIT_FAIL
    return code


def cmd_continue(args) -> int:
    overrides = {
        ("solver", "r_max"): args.r_max,
        ("solver", "r_min"): args.r_min,
        ("solver", "r_points"): args.r_steps,
        ("solver", "modes"): args.modes,
        ("solver", "mode"): args.mode,
        ("output", "dir"): args.out,
    }
    cfg = load_config(args.config, overrides)
    if args.dump_config:
        cfg.parser.write(sys.stdout)
        return EXIT_OK

    seed = equilibria.normalize_period(cfg.seed_equilibrium())
    path = reduction.continue_path(seed, cfg.domain, cfg.a0_guess, cfg.params)

    os.makedirs(cfg.out_dir, exist_ok=True)
    lines = [f"{'r':>12} {'vnorm':>13} {'residual':>13} {'phase':>13} "
             f"{'iters':>5}"]
    for entry in path.entries:
        fname = os.path.join(cfg.out_dir, f"{cfg.prefix}_r{entry.r:.6g}.json")
        reduction.save_orbit(fname, seed.sys, cfg.domain, path.a0, seed.omega,
                             entry)
        lines.append(f"{entry.r:12.6g} {entry.vnorm:13.6e} "
                     f"{entry.residual_grad:13.6e} {entry.phase_defect:13.6e} "
                     f"{entry.iterations:5d}")
    for r, msg in path.failures.items():
        lines.append(f"FAILED r={r:.6g}: {msg}")
    summary = "\n".join(lines) + "\n"
    reduction.atomic_write(
        os.path.join(cfg.out_dir, f"{cfg.prefix}_summary.txt"), summary)
    print(summary, end="")
    quota = 0.8 * cfg.params.r_points
    return EXIT_OK if len(path.entries) >= quota else EXIT_FAIL


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    vsys = cfg.vortex_system()
    if args.z0.size != 2 * vsys.n:
        raise ValueError(f"--z0 needs {2 * vsys.n} numbers, got {args.z0.size}")
    core.check_positive(args.time, "--time")
    core.check_count(args.samples, "--samples", 2)
    core.check_r(args.r, "--r")
    traj = dynamics.integrate(vsys, cfg.domain, args.r, args.z0, args.time,
                              t_eval=np.linspace(0.0, args.time, args.samples))
    reduction.atomic_write(args.csv, trajectory_csv(traj.times, traj.states))
    if args.svg:
        reduction.atomic_write(args.svg, trajectory_svg(traj.states, cfg.domain))
    inv = dynamics.invariants_along(vsys, cfg.domain, traj)
    for key, value in inv.items():
        print(f"{key} = {value:.3e}")
    return EXIT_OK


def cmd_validate(args) -> int:
    core.check_positive(args.tol, "--tol")
    try:
        vsys, domain, a0, r, u = reduction.load_orbit(args.orbit)
    except (VortexError, ValueError, OSError, RecursionError) as exc:
        print(f"cannot read orbit file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    orbit = reduction.unrescale(a0, r, u, args.samples, domain)
    report = dynamics.validate_orbit(vsys, domain, orbit, rtol=args.rtol)
    print(f"closure_error = {report['closure_error']:.6e}")
    print(f"max_pointwise_defect = {report['max_pointwise_defect']:.6e}")
    if args.csv:
        reduction.atomic_write(args.csv,
                               trajectory_csv(orbit.times, orbit.samples))
    if args.svg:
        reduction.atomic_write(args.svg, trajectory_svg(orbit.samples, domain))
    return EXIT_OK if report["closure_error"] <= args.tol else EXIT_FAIL


def cmd_robin(args) -> int:
    domain = core.domain_from_spec(args.domain)
    try:
        crit = core.find_critical_point_h(domain, args.guess)
    except (NoConvergence, LeftDomain) as exc:
        print(f"no critical point found: {exc}", file=sys.stderr)
        return EXIT_FAIL
    eigs = np.linalg.eigvalsh(crit.hessian)
    print(f"a0 = ({crit.point[0]:.12g}, {crit.point[1]:.12g})")
    print(f"h(a0) = {core.eval_h(domain, crit.point):.12g}")
    print("hessian =")
    for row in crit.hessian:
        print(f"  [{row[0]:+.12g}, {row[1]:+.12g}]")
    print(f"eigenvalues = {eigs[0]:.12g}, {eigs[1]:.12g}")
    print("verdict: " + ("nondegenerate" if crit.nondegenerate
                         else "DEGENERATE"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `nvortex` parser, built on the first call and shared after it;
    parsing never changes it, so every `main` call parses afresh."""
    parser = argparse.ArgumentParser(
        prog="nvortex",
        description="Point-vortex equilibria, periodic orbits near an "
                    "interior point of a bounded domain, and validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibrium", help="construct and check a "
                          "relative equilibrium")
    p_eq.add_argument("--type", required=True, choices=list(SEEDS))
    p_eq.add_argument("--gamma", type=float_list, required=True)
    p_eq.add_argument("--n", type=int)
    p_eq.add_argument("--sep", type=float)
    p_eq.add_argument("--side", type=float)
    p_eq.add_argument("--radius", type=float)
    p_eq.add_argument("--check", action="store_true")
    p_eq.set_defaults(func=cmd_equilibrium)

    p_ct = sub.add_parser("continue", help="continuation of periodic orbits "
                          "in the scale parameter r")
    p_ct.add_argument("--config")
    p_ct.add_argument("--r-max", type=float, dest="r_max")
    p_ct.add_argument("--r-min", type=float, dest="r_min")
    p_ct.add_argument("--r-steps", type=int, dest="r_steps")
    p_ct.add_argument("--modes", type=int)
    p_ct.add_argument("--mode", choices=["fixedpoint", "newton"])
    p_ct.add_argument("--out")
    p_ct.add_argument("--dump-config", action="store_true")
    p_ct.set_defaults(func=cmd_continue)

    p_sim = sub.add_parser("simulate", help="direct time integration")
    p_sim.add_argument("--config")
    p_sim.add_argument("--z0", type=float_list, required=True)
    p_sim.add_argument("--time", type=float, required=True)
    p_sim.add_argument("--r", type=float, default=1.0)  # the scale s of H_s
    p_sim.add_argument("--samples", type=int, default=512)
    p_sim.add_argument("--csv", default="trajectory.csv")
    p_sim.add_argument("--svg")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="re-integrate an orbit file and "
                           "check period closure")
    p_val.add_argument("--orbit", required=True)
    p_val.add_argument("--rtol", type=float, default=1e-10)
    p_val.add_argument("--tol", type=float, default=1e-6)
    p_val.add_argument("--samples", type=int, default=256)
    p_val.add_argument("--csv")
    p_val.add_argument("--svg")
    p_val.set_defaults(func=cmd_validate)

    p_rob = sub.add_parser("robin", help="critical point of the regular part")
    p_rob.add_argument("--domain", required=True,
                       choices=["disk", "halfplane"])
    p_rob.add_argument("--guess", type=float_list,
                       default="0.3,0.2")  # inside both domains
    p_rob.set_defaults(func=cmd_robin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ZeroTotalVorticity is a ValueError
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VortexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
