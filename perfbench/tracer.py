"""Span tracer that wraps the public functions of each nvortex layer from
outside the program.

A target is a function reached as an attribute of an owner (a module, a
class or, for the two library calls, the library module).  Entering the
tracer replaces the function with a timing wrapper in its owner and in
every loaded ``nvortex`` module that binds the same object under any name,
so a function imported by name (``from .core import hess_H0``) is counted
too.  Leaving the tracer puts every original back.

Spans are kept in memory as tuples and aggregated when the run ends.  The
self time of a span is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from nvortex import cli, core, dynamics, equilibria, loops, reduction


@dataclass(frozen=True)
class Target:
    name: str    # metric prefix, "<layer>.<function>"
    owner: object
    attr: str


def _targets(layer: str, owner, attrs, prefix: str = "") -> list:
    return [Target(f"{layer}.{prefix}{a}", owner, a) for a in attrs]


# the layers are the package's modules; the two library calls are counted
# under reduction, their only caller
TARGETS = (
    _targets("cli", cli, ["main", "load_config"])
    + _targets("core", core, ["find_critical_point_h", "hess_H0", "hess_F",
                              "grad_H0", "grad_F", "vortex_rhs"])
    + _targets("core", core.VortexSystem, ["j_n"], "VortexSystem.")
    + _targets("loops", loops, ["build_frame", "sample"])
    + _targets("loops", loops.Loop, ["eval"], "Loop.")
    + _targets("loops", loops, ["from_samples", "inv_id_minus_laplace"])
    + _targets("reduction", reduction, [
        "continue_path", "solve_reduced", "assemble_L_r", "build_x_basis",
        "grad_J_r", "unrescale", "save_orbit", "load_orbit"])
    + [Target("reduction.lu_factor", scipy.linalg, "lu_factor"),
       Target("reduction.cond", np.linalg, "cond")]
    + _targets("equilibria", equilibria, ["normalize_period", "monodromy"])
    + _targets("dynamics", dynamics, ["integrate", "validate_orbit"])
)


def _program_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nvortex" or name.startswith("nvortex."))]


class Tracer:
    """Context manager that records one span per call of every target.

    ``op_id`` tags the spans of the operation in progress; spans of one
    operation share it.
    """

    def __init__(self):
        self.targets = TARGETS
        self.spans: list = []  # (span_id, parent_id, op_id, name, t0, t1, child_s, ok)
        self.op_id = 0
        self._stack: list = []  # [span_id, child seconds] of open spans
        self._patches: list = []  # (owner, attr, original)

    def __enter__(self):
        for target in self.targets:
            original = target.owner.__dict__[target.attr] if isinstance(
                target.owner, type) else getattr(target.owner, target.attr)
            wrapper = self._wrap(target.name, original)
            owners = [target.owner]
            if not isinstance(target.owner, type):
                owners += [m for m in _program_modules() if m is not target.owner]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                spans.append((span_id, parent[0] if parent else None,
                              self.op_id, name, t0, t1, frame[1], ok))

        traced.__traced__ = True
        return traced

    def summary(self) -> dict:
        """Per target: calls, ok calls, total and self seconds, durations."""
        out = {t.name: {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0,
                        "durations": []} for t in self.targets}
        for _, _, _, name, t0, t1, child, ok in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["ok"] += ok
            rec["total_s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child
            rec["durations"].append(t1 - t0)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, fp_iters: int) -> dict:
    """The per-layer metrics, each as (value, unit)."""
    metrics = {}
    for name, rec in summary.items():
        metrics[f"{name}.calls"] = (rec["calls"], "count")
        metrics[f"{name}.total_s"] = (rec["total_s"], "s")
        metrics[f"{name}.self_s"] = (rec["self_s"], "s")
    lu = summary["reduction.lu_factor"]["durations"]
    metrics["reduction.lu_factor.p50_ms"] = (
        1e3 * statistics.median(lu) if lu else 0.0, "ms")
    metrics["reduction.lu_factor.max_ms"] = (1e3 * max(lu) if lu else 0.0, "ms")
    solves = summary["reduction.solve_reduced"]
    metrics["reduction.assemble_per_solve"] = (
        _ratio(summary["reduction.assemble_L_r"]["calls"], solves["calls"]),
        "calls/solve")
    metrics["reduction.solve_ok_frac"] = (_ratio(solves["ok"], solves["calls"]),
                                          "frac")
    metrics["reduction.fp_iters"] = (fp_iters, "count")
    metrics["dynamics.rhs_per_validate"] = (
        _ratio(summary["core.vortex_rhs"]["calls"],
               summary["dynamics.validate_orbit"]["calls"]), "calls/validate")
    return metrics


def per_layer_names() -> list:
    """Names of every per-layer metric, in report order, with units."""
    empty = Tracer().summary()
    return [(name, unit) for name, (_, unit) in layer_metrics(empty, 0).items()]

