"""Tests of the benchmark itself: the tracer's counts are exact, every
binding it patches is restored, the correctness checks catch bad output,
and BENCHMARK.json names the metrics the benchmark prints.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nvortex  # noqa: E402
from nvortex import core, equilibria  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import TARGETS, Tracer, _program_modules, per_layer_names  # noqa: E402


def _ops(tmp_path: Path) -> None:
    """A small continuation, one validation and one certification."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    ini = tmp_path / "pair.ini"
    ini.write_text("[system]\ngammas = 1.0,1.5\nseed = pair\n")
    out = tmp_path / "out"
    res = wl.call_cli(["continue", "--config", str(ini), "--out", str(out),
                       "--modes", "8", "--r-steps", "3", "--r-max", "0.05"])
    assert res.code == 0, res.stderr
    orbit = sorted(out.glob("orbit_r*.json"))[0]
    assert wl.call_cli(["validate", "--orbit", str(orbit)]).code == 0
    assert wl.call_cli(["equilibrium", "--type", "pair", "--gamma=1,2",
                        "--sep", "1", "--check"]).code == 0


def _bindings() -> dict:
    """Every attribute of every nvortex module and target owner."""
    owners = _program_modules() + [t.owner for t in TARGETS]
    return {(id(o), a): v for o in owners for a, v in list(vars(o).items())}


def test_call_counts_repeat_exactly_and_reach_every_target(tmp_path):
    counts = []
    for run in range(2):
        with Tracer() as tracer:
            _ops(tmp_path / str(run))
        counts.append({k: v["calls"] for k, v in tracer.summary().items()})
    assert counts[0] == counts[1]
    assert [k for k, v in counts[0].items() if v == 0] == []


def test_name_bound_imports_are_wrapped():
    original = core.hess_H0
    with Tracer():
        assert getattr(equilibria.hess_H0, "__traced__", False)
        assert equilibria.hess_H0 is core.hess_H0
        assert nvortex.monodromy is equilibria.monodromy
    assert equilibria.hess_H0 is original is core.hess_H0


def test_untraced_run_after_traced_sees_originals(tmp_path):
    before = _bindings()
    with Tracer() as tracer:
        _ops(tmp_path / "traced")
    assert _bindings() == before
    spans = len(tracer.spans)
    _ops(tmp_path / "plain")
    assert len(tracer.spans) == spans
    assert not any(getattr(v, "__traced__", False) for v in _bindings().values())


def test_self_times_partition_the_root_spans(tmp_path):
    with Tracer() as tracer:
        _ops(tmp_path)
    roots = sum(t1 - t0 for _, parent, _, _, t0, t1, _, _ in tracer.spans
                if parent is None)
    summary = tracer.summary()
    assert sum(r["self_s"] for r in summary.values()) == pytest.approx(roots)
    assert all(0 <= r["self_s"] <= r["total_s"] + 1e-12 for r in summary.values())
    assert summary["cli.main"]["calls"] == 3


def _orbit(path: Path, r: float, vnorm: float, residual: float) -> None:
    path.write_text(json.dumps({"r": r, "diagnostics": {
        "residual_grad": residual, "vnorm": vnorm, "iterations": 2}}))


def test_orbit_checks_flag_residual_and_vnorm(tmp_path):
    _orbit(tmp_path / "orbit_r0.1.json", 0.1, 1e-3, 1e-12)
    _orbit(tmp_path / "orbit_r0.05.json", 0.05, 2e-4, 1e-8)
    problems, files, iters = wl.check_orbits(
        tmp_path, {"0.1": 1e-3 * (1 + 1e-3), "0.05": 2e-4})
    assert (files, iters) == (2, 4)
    assert len(problems) == 2
    assert "residual_grad" in problems[0] and "vnorm" in problems[1]
    assert wl.check_orbits(tmp_path, {"0.1": 1e-3})[0] == [problems[0]]


def test_certify_expectations_follow_the_algebra():
    bench = wl.CertifyEquilibria(5, Path("unused"))
    draws = [bench.draw(i) for i in range(40)]
    degenerate = [d for d in draws if not d.expect_nondegenerate]
    assert len(degenerate) == 4
    assert all(d.gammas == (1.0, 1.0, -0.5) for d in degenerate)
    for d in draws:
        if len(d.gammas) == 3 and d.expect_nondegenerate:
            total, L, sumsq = wl.triangle_invariants(d.gammas)
            assert min(abs(total), L, abs(L - sumsq)) > wl.MARGIN


def test_adjusted_times_follow_the_reference_loop():
    ops = [wl.Outcome(0.040), wl.Outcome(0.080)]
    nominal = run.CAL_NOMINAL_S
    # the second operation ran while the loop took twice its nominal time
    cal = [nominal, nominal, 2 * nominal]
    assert run.adjusted_ms(ops, cal) == pytest.approx([40.0, 80.0 / 1.5])
    assert run.adjusted_ms(ops, []) == pytest.approx([40.0, 80.0])
    assert wl.CertifyEquilibria.scaled and wl.ValidateOrbits.scaled
    assert not (wl.ContinuePair.scaled or wl.ContinueTriangleNewton.scaled)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # the Newton workload is left out of the gated set; see README.md
    assert [w["name"] for w in spec["workloads"]] == [
        n for n in wl.WORKLOADS if n != "continue_triangle_newton"]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "op_adj_ms.p50", "yield_frac", "setup_s", "peak_rss_mb"}
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layer == per_layer_names() + [("trace.ops", "count"),
                                         ("trace.op_ms.p50", "ms"),
                                         ("trace.op_adj_ms.p50", "ms")]
