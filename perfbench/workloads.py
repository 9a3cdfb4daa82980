"""The four benchmark workloads, their seeded inputs and their correctness checks.

Every operation is one call of the public entry point ``nvortex.cli.main``,
made in-process by a single closed-loop client: the next call starts only
after the previous one has returned.  Inputs come from the run seed alone.

Continuation cases come from fixed pools (case ``k`` draws its vorticities
from ``numpy.random.default_rng(k)``), so that each case has reference
``vnorm`` values recorded in ``reference.json``; the run seed picks the order
in which a run visits the pool.  The triangle pool holds only three cases,
which every run visits: a Newton continuation costs between about 70 and 220
operator assemblies depending on the case (most of it in the upward probe
for r0 that fails), and a run has time for about three, so a run that drew
its cases from a larger pool would mostly measure which cases it drew.
Certifications are drawn afresh from the run seed, because their expected
verdict follows from algebra alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nvortex import cli

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

PAIR_POOL = 24
TRIANGLE_POOL = 3
R_POINTS_DEFAULT = 30
R_POINTS_NEWTON = 10
NEWTON_ARGS = ["--mode", "newton", "--modes", "16",
               "--r-steps", str(R_POINTS_NEWTON)]
FIXTURE_CASES = 3
FIXTURE_R_STEPS = 10

# correctness tolerances
RESIDUAL_MAX = 1e-9
# vnorm against the recorded reference: 10x the solver tolerance (fp_tol =
# newton_tol = 1e-11) absolute, plus a relative part for the larger norms
VNORM_ATOL = 1e-10
VNORM_RTOL = 1e-6
VALIDATE_TOL = 1e-6  # the `validate --tol` default, passed explicitly
# margin that draws keep from the degeneracy set of the triangle
MARGIN = 0.1


def fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def pair_gammas(k: int) -> np.ndarray:
    """Vorticities of pair case k: an equal-sign pair from [0.5, 2]."""
    return np.random.default_rng(k).uniform(0.5, 2.0, 2)


def triangle_invariants(g) -> tuple[float, float, float]:
    """Total vorticity, angular momentum L and sum of squares."""
    g1, g2, g3 = (float(x) for x in g)
    return g1 + g2 + g3, g1 * g2 + g1 * g3 + g2 * g3, g1**2 + g2**2 + g3**2


def triangle_gammas(k: int) -> np.ndarray:
    """Vorticities of triangle case k: from [0.5, 2], drawn again until
    Gamma, L and L - sum(g^2) all stay MARGIN away from zero."""
    rng = np.random.default_rng(k)
    while True:
        g = rng.uniform(0.5, 2.0, 3)
        total, L, sumsq = triangle_invariants(g)
        if min(abs(total), abs(L), abs(L - sumsq)) > MARGIN:
            return g


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


@dataclass
class CallResult:
    code: int | None
    seconds: float
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CallResult:
    """One in-process `nvortex` command; only cli.main is inside the clock.

    ``cli.main`` is looked up at call time, so a traced run times the
    wrapped entry point.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - an op that crashes is a failed op
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - t0
    return CallResult(code, seconds, out.getvalue(), err.getvalue())


@dataclass
class Outcome:
    """What one operation produced, after its correctness check."""

    seconds: float
    problems: list = field(default_factory=list)
    units: int = 1        # units of work attempted (r values, orbits, checks)
    good_units: int = 1   # units that gave a usable result
    fp_iters: int = 0     # sum of `iterations` over the orbit files written


def check_orbits(outdir: Path, reference: dict | None) -> tuple[list, int, int]:
    """Residual and vnorm checks on every orbit file a continuation wrote.

    Returns (problems, orbit files, summed iterations).  An r value that
    converged in the reference but not here is not a problem: it lowers
    yield_frac, where it stays visible.
    """
    problems, iters = [], 0
    files = sorted(outdir.glob("orbit_r*.json"))
    for path in files:
        doc = json.loads(path.read_text())
        diag = doc["diagnostics"]
        key = f"{float(doc['r']):.6g}"
        iters += int(diag["iterations"])
        if not diag["residual_grad"] <= RESIDUAL_MAX:
            problems.append(f"r={key}: residual_grad {diag['residual_grad']:.3e}")
        if reference is None:
            continue
        ref = reference.get(key)
        if ref is not None and not abs(diag["vnorm"] - ref) <= (
                VNORM_ATOL + VNORM_RTOL * abs(ref)):
            problems.append(f"r={key}: vnorm {diag['vnorm']!r} != reference {ref!r}")
    return problems, len(files), iters


class Workload:
    """A seeded stream of `nvortex` commands.

    ``write_inputs`` is the set-up that every run repeats in fresh
    interpreters to time it; ``prepare`` is further set-up done once;
    ``op(i)`` runs and checks operation i.

    ``scaled`` marks a workload whose operations run on one thread.  Other
    tenants of a shared host slow such an operation by up to a factor of two
    for tens of seconds at a time, and slow a fixed reference loop by about
    the same factor, so the benchmark times the loop beside each operation
    and scales the operation to the loop's nominal speed.  A continuation is
    not scaled: at the default BLAS thread count its BLAS workers keep the
    second core busy, so outside load hardly moves its wall time, while it
    still moves the reference loop.
    """

    name = ""
    scaled = False
    traced_ops = 1
    min_ops = 1  # an untraced run makes at least this many operations

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(seed)
        self.notes: dict = {}

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> list:
        """Set-up beyond the inputs; returns the Outcomes of any
        operations it makes, which count as attempted."""
        return []

    def op(self, i: int) -> Outcome:
        raise NotImplementedError


class ContinuationWorkload(Workload):
    pool = 0
    r_points = 0
    extra_args: list = []
    seed_type = ""

    def gammas(self, k: int) -> np.ndarray:
        raise NotImplementedError

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.order = self.rng.permutation(self.pool)
        self.reference = None

    def config_path(self, k: int) -> Path:
        return self.workdir / f"case{k}.ini"

    def write_inputs(self) -> None:
        super().write_inputs()
        for k in self.order:
            self.config_path(k).write_text(
                f"[system]\ngammas = {fmt(self.gammas(k))}\n"
                f"seed = {self.seed_type}\n")

    def prepare(self) -> list:
        self.reference = load_reference()[self.name]
        return []

    def run_case(self, k: int, outdir: Path) -> Outcome:
        outdir.mkdir(parents=True, exist_ok=True)
        res = call_cli(["continue", "--config", str(self.config_path(k)),
                        "--out", str(outdir), *self.extra_args])
        problems = []
        if res.code != 0:
            problems.append(f"case {k}: exit code {res.code}: {res.stderr.strip()}")
        ref = self.reference.get(str(k)) if self.reference is not None else None
        if self.reference is not None and ref is None:
            problems.append(f"case {k}: no reference values recorded")
        orbit_problems, files, iters = check_orbits(outdir, ref)
        problems += [f"case {k}: {p}" for p in orbit_problems]
        return Outcome(res.seconds, problems, units=self.r_points,
                       good_units=files, fp_iters=iters)

    def op(self, i: int) -> Outcome:
        k = int(self.order[i % self.pool])
        outdir = self.workdir / f"op{i}"
        outcome = self.run_case(k, outdir)
        shutil.rmtree(outdir)
        return outcome


class ContinuePair(ContinuationWorkload):
    """`nvortex continue` with every solver default on an equal-sign pair."""

    name = "continue_pair"
    pool = PAIR_POOL
    r_points = R_POINTS_DEFAULT
    seed_type = "pair"
    traced_ops = 2
    min_ops = 7

    def gammas(self, k):
        return pair_gammas(k)


class ContinueTriangleNewton(ContinuationWorkload):
    """`nvortex continue --mode newton --modes 16 --r-steps 10` on a triangle."""

    name = "continue_triangle_newton"
    pool = TRIANGLE_POOL
    r_points = R_POINTS_NEWTON
    extra_args = NEWTON_ARGS
    seed_type = "triangle"
    traced_ops = TRIANGLE_POOL
    min_ops = TRIANGLE_POOL

    def gammas(self, k):
        return triangle_gammas(k)


class ValidateOrbits(ContinuePair):
    """`nvortex validate` on every orbit file that set-up writes with
    continuations of FIXTURE_CASES seeded pairs, FIXTURE_R_STEPS r values
    each, so that every run checks the orbits of more than one pair."""

    name = "validate_orbits"
    scaled = True
    min_ops = 1
    extra_args = ["--r-steps", str(FIXTURE_R_STEPS)]
    r_points = FIXTURE_R_STEPS

    def prepare(self) -> list:
        self.reference = load_reference()[ContinuePair.name]
        fixtures, self.files = [], []
        for k in self.order[:FIXTURE_CASES]:
            outdir = self.workdir / f"fixture{k}"
            fixtures.append(self.run_case(int(k), outdir))
            self.files += sorted(outdir.glob("orbit_r*.json"))
        self.notes["fixture_cases"] = [int(k) for k in self.order[:FIXTURE_CASES]]
        self.notes["fixture_s"] = sum(f.seconds for f in fixtures)
        if not self.files:
            fixtures[0].problems.append("set-up continuations wrote no orbit files")
            self.files = [self.workdir / "missing.json"]
        self.file_order = self.rng.permutation(len(self.files))
        self.traced_ops = 2 * len(self.files)
        return fixtures

    def op(self, i: int) -> Outcome:
        path = self.files[self.file_order[i % len(self.files)]]
        res = call_cli(["validate", "--orbit", str(path),
                        "--tol", repr(VALIDATE_TOL)])
        problems = []
        m = re.search(r"^closure_error = (\S+)$", res.stdout, re.M)
        closure = float(m.group(1)) if m else float("nan")
        if not closure <= VALIDATE_TOL:
            problems.append(f"{path.name}: closure_error {closure:.3e}")
        if res.code != 0:
            problems.append(f"{path.name}: exit code {res.code}: {res.stderr.strip()}")
        ok = not problems
        return Outcome(res.seconds, problems, good_units=int(ok))


@dataclass(frozen=True)
class Certification:
    argv: tuple
    gammas: tuple
    expect_nondegenerate: bool


class CertifyEquilibria(Workload):
    """`nvortex equilibrium --check` on seeded triangles and pairs, and on the
    degenerate triple (1, 1, -1/2)."""

    name = "certify_equilibria"
    scaled = True
    traced_ops = 50
    # one block of ten calls: seven triangles, two pairs, the degenerate triple
    BLOCK = "tttpttptt" + "d"

    def draw(self, i: int) -> Certification:
        kind = self.BLOCK[i % len(self.BLOCK)]
        rng = self.rng
        if kind == "d":
            g = (1.0, 1.0, -0.5)
            return Certification(("--type", "triangle", "--gamma=" + fmt(g),
                                  "--side", "1.0"), g, False)
        if kind == "p":
            while True:
                g = rng.uniform(-2.0, 2.0, 2)
                if min(abs(g.sum()), *np.abs(g)) > MARGIN:
                    break
            sep = rng.uniform(0.5, 2.0)
            # a pair with nonzero total vorticity is always nondegenerate
            return Certification(("--type", "pair", "--gamma=" + fmt(g),
                                  "--sep", repr(float(sep))),
                                 tuple(map(float, g)), True)
        # the acceptance suite's criterion-2 rule: L > 0 and every quantity
        # of the algebraic conditions MARGIN away from zero
        while True:
            g = rng.uniform(-2.0, 2.0, 3)
            total, L, sumsq = triangle_invariants(g)
            if min(abs(total), L, abs(L - sumsq), *np.abs(g)) > MARGIN:
                break
        side = rng.uniform(0.5, 2.0)
        # Gamma != 0, L != 0 and L != sum(g^2) hold by the draw
        return Certification(("--type", "triangle", "--gamma=" + fmt(g),
                              "--side", repr(float(side))),
                             tuple(map(float, g)), True)

    def write_inputs(self) -> None:
        super().write_inputs()
        # draws are made in order, so they are materialised before timing
        self.calls = [self.draw(i) for i in range(1000)]

    def op(self, i: int) -> Outcome:
        cert = self.calls[i % len(self.calls)]
        res = call_cli(["equilibrium", *cert.argv, "--check"])
        m = re.search(r"^verdict: (\S+)$", res.stdout, re.M)
        verdict = m.group(1) if m else None
        want = "nondegenerate" if cert.expect_nondegenerate else "DEGENERATE"
        problems = []
        if verdict != want:
            problems.append(f"gammas {cert.gammas}: verdict {verdict}, expected {want}")
        if res.code != (0 if cert.expect_nondegenerate else 1):
            problems.append(f"gammas {cert.gammas}: exit code {res.code}")
        return Outcome(res.seconds, problems, good_units=int(not problems))


WORKLOADS = {w.name: w for w in (ContinuePair, ContinueTriangleNewton,
                                 ValidateOrbits, CertifyEquilibria)}
