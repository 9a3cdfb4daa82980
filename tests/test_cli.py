"""End-to-end command line interface tests via main(argv)."""

import configparser
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import nvortex
from nvortex import cli, core, dynamics, equilibria
from nvortex import loops as lp
from nvortex import reduction as rd
from nvortex.cli import main, load_config


CONT_CONFIG = """\
[system]
gammas = 1,1
seed = pair

[domain]
variant = disk
a0_guess = 0,0

[solver]
modes = 12
r_points = 6
r_max = 0.2
r_min = 0.01

[output]
dir = {out}
prefix = orb
"""


# a well-formed orbit file by hand: two vortices circling a0 = 0 at r = 0.1
ORBIT_DOC = {"schema_version": 1, "system": {"gammas": [1.0, 1.0]},
             "domain": {"variant": "disk", "params": {}}, "a0": [0.0, 0.0],
             "r": 0.1, "omega_seed": 1.0,
             "loop": {"n": 2, "modes": 1,
                      "coeffs": [[0, 0, 0, 0], [1, 0, -1, 0], [0, 1, 0, -1]]},
             "diagnostics": {}}


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def _mkdir(path):
    os.makedirs(path)
    return str(path)


def _scipy_modules_after(code):
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nvortex.__file__)))
    code += "\nprint([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded():
    """Importing the CLI loads no scipy module: `scipy.linalg`, for the
    LU, is imported at the first solve, and nothing else needs scipy."""
    assert _scipy_modules_after("import sys, nvortex.cli") == "[]"


def test_validate_and_simulate_load_no_scipy(cont_run, tmp_path):
    """The integrator is the package's own collocation method, so
    re-integrating a continued orbit and a short simulate need numpy
    alone."""
    _, out, _ = cont_run
    orbit = os.path.join(out, sorted(f for f in os.listdir(out)
                                     if f.endswith(".json"))[0])
    csv = str(tmp_path / "traj.csv")
    assert _scipy_modules_after(
        "import sys\nfrom nvortex.cli import main\n"
        f"assert main(['validate', '--orbit', {orbit!r}]) == 0\n"
        "assert main(['simulate', '--z0=0.3,0,-0.3,0.1', '--time', '0.5',"
        f" '--samples', '5', '--csv', {csv!r}]) == 0") == "[]"


def test_equilibrium_check_loads_no_scipy():
    """The Floquet verdict is read off the generator B with numpy alone."""
    assert _scipy_modules_after(
        "import sys\nfrom nvortex.cli import main\n"
        "assert main(['equilibrium', '--type', 'triangle', '--gamma', '1,2,3',"
        " '--side', '1', '--check']) == 0") == "[]"


# ---------------------------------------------------------------------------
# equilibrium

def test_equilibrium_pair_ok(capsys):
    assert main(["equilibrium", "--type", "pair", "--gamma", "1,1",
                 "--sep", "2.0", "--check"]) == 0
    out = capsys.readouterr().out
    assert "nondegenerate" in out
    assert "kernel_dim = 3" in out


def test_equilibrium_triangle_degenerate_L_zero(capsys):
    assert main(["equilibrium", "--type", "triangle",
                 "--gamma", "1,1,-0.5", "--side", "1.0", "--check"]) == 1
    out = capsys.readouterr().out
    assert "DEGENERATE" in out


def test_equilibrium_thomson_residual_ok():
    assert main(["equilibrium", "--type", "thomson", "--gamma", "1",
                 "--n", "4", "--radius", "1.0"]) == 0


def test_equilibrium_thomson_check_reports_degenerate(capsys):
    # ring configurations carry an internal mode with integer frequency,
    # so the monodromy kernel is larger than the symmetry count
    assert main(["equilibrium", "--type", "thomson", "--gamma", "1",
                 "--n", "4", "--radius", "1.0", "--check"]) == 1
    assert "DEGENERATE" in capsys.readouterr().out


@pytest.mark.parametrize("gammas, verdict", [
    ("1e-5,2e-5,3e-5", "nondegenerate"), ("1e5,2e5,3e5", "nondegenerate"),
    ("1e-5,1e-5,-0.5e-5", "DEGENERATE"), ("1e-5,1e-5,1e-5", "DEGENERATE"),
])
def test_equilibrium_triangle_verdict_is_free_of_scale(gammas, verdict,
                                                       capsys):
    """(1, 2, 3), (1, 1, -1/2) and (1, 1, 1) scaled by 1e-5 or 1e5 keep
    their verdicts: the triangle test compares L and sumsq - L with sumsq."""
    code = main(["equilibrium", "--type", "triangle", f"--gamma={gammas}",
                 "--side", "1", "--check"])
    assert code == (0 if verdict == "nondegenerate" else 1)
    assert f"verdict: {verdict}" in capsys.readouterr().out


@pytest.mark.parametrize("gammas", ["1,1,-1.2", "1,1,-1.5", "1,1,-1.8",
                                    "2,1,-2.5"])
def test_equilibrium_unstable_triangle_is_nondegenerate(gammas, capsys):
    """L < 0, so the shape modes grow like e^{2 pi lambda}, yet the triangle
    conditions hold: the kernel is the derived 3 (translations and phase)."""
    assert main(["equilibrium", "--type", "triangle", f"--gamma={gammas}",
                 "--side", "1.0", "--check"]) == 0
    out = capsys.readouterr().out
    assert "kernel_dim = 3" in out and "verdict: nondegenerate" in out


@pytest.mark.parametrize("argv, what", [
    (["--type", "pair", "--gamma=1e300,1e300", "--sep", "1"],
     "residual under- or"),
    (["--type", "pair", "--gamma=1e200,1e200", "--sep", "1", "--check"],
     "residual under- or"),
    (["--type", "triangle", "--gamma=1e-170,2e-170,3e-170", "--side", "1",
      "--check"], "residual under- or"),
    (["--type", "triangle", "--gamma=1e157,1,-2", "--side", "1e5", "--check"],
     "generator B"),
    (["--type", "pair", "--gamma=1,2", "--sep", "1e-200"], "angular velocity"),
], ids=["pair-1e300", "pair-1e200-check", "triangle-1e-170-check",
        "triangle-B", "pair-sep-1e-200"])
def test_equilibrium_overflow_exits_2(argv, what, capsys):
    """Each names what went out of range.  For the 1e-170 triangle grad H0
    underflows to 0, so the residual, relative to it, is 0/0."""
    assert main(["equilibrium", *argv]) == 2
    captured = capsys.readouterr()
    assert f"{what} overflows" in captured.err
    assert "multipliers" not in captured.out


@pytest.mark.parametrize("argv", [
    ["--gamma=1.9796693926436713,-0.7362258185291992,-1.2691504842937502",
     "--side", "2.676264927520988"],
    ["--gamma=4.804514059157343e-07,-2.5676726281675534e-07,"
     "-2.1871444823363987e-07", "--side", "67.18000813294154"],
], ids=["side-2.7", "gamma-1e-7"])
def test_equilibrium_multiplier_past_the_float_range_reads_inf(argv, capsys):
    """A shape pair lambda = +-117.4 puts e^{2 pi lambda} past the float
    range: that multiplier reads inf, with no warning, and the verdict read
    off B stands."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["equilibrium", "--type", "triangle", *argv,
                     "--check"]) == 0
    out = capsys.readouterr().out
    assert "verdict: nondegenerate" in out
    assert out.count("|mu| = inf)") == 1


def test_triangle_certification_builds_one_vortex_system(monkeypatch, capsys):
    """The triangle conditions read the seed's own VortexSystem."""
    built = []
    post_init = core.VortexSystem.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(core.VortexSystem, "__post_init__", counted)
    assert main(["equilibrium", "--type", "triangle", "--gamma=1,2,3",
                 "--side", "1", "--check"]) == 0
    assert "verdict: nondegenerate" in capsys.readouterr().out
    assert len(built) == 1


def test_equilibrium_huge_size_exits_2(capsys):
    """omega = Gamma / (pi sep^2) underflows to 0, which no equilibrium has."""
    assert main(["equilibrium", "--type", "pair", "--gamma=1,2",
                 "--sep", "1e200"]) == 2
    assert "angular velocity must be nonzero" in capsys.readouterr().err


def test_equilibrium_missing_args_usage(capsys):
    """A missing size (or ring count) is an input error naming its flag."""
    cases = [(["--type", "pair", "--gamma", "1,1"], "pair needs --sep"),
             (["--type", "triangle", "--gamma", "1,2,3"],
              "triangle needs --side"),
             (["--type", "thomson", "--gamma", "1", "--n", "3"],
              "thomson needs --radius"),
             (["--type", "thomson", "--gamma", "1", "--radius", "1"],
              "thomson needs --n"),
             (["--type", "thomson", "--gamma", "1"],
              "thomson needs --radius and --n")]
    for argv, named in cases:
        assert main(["equilibrium", *argv]) == 2
        out, err = capsys.readouterr()
        assert err == f"invalid input: {named}\n" and out == ""


@pytest.mark.parametrize("argv, flag", [
    (["equilibrium", "--type", "pair", "--gamma=x,1", "--sep", "1"],
     "--gamma"),
    (["simulate", "--z0=a,b,c,d", "--time", "1"], "--z0"),
    (["robin", "--domain", "disk", "--guess=x"], "--guess"),
], ids=["gamma", "z0", "guess"])
def test_number_list_that_fails_to_parse_names_its_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid float_list value" in err


@pytest.mark.parametrize("argv, bad", [
    (["--type", "pair", "--gamma", "nan,1", "--sep", "1"], "nan"),
    (["--type", "pair", "--gamma", "1,1", "--sep", "inf"], "inf"),
    (["--type", "triangle", "--gamma", "1,2,3", "--side", "nan"], "nan"),
    (["--type", "thomson", "--gamma", "1", "--n", "4", "--radius", "inf"],
     "inf"),
])
def test_equilibrium_non_finite_input_exits_2(argv, bad, capsys):
    assert main(["equilibrium", *argv, "--check"]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "finite" in err and bad in err


@pytest.mark.parametrize("argv, named", [
    (["--type", "pair", "--gamma", "1,-1", "--sep", "1"], "zero-sum"),
    (["--type", "triangle", "--gamma", "1,1,-2", "--side", "1"], "nonzero"),
    (["--type", "pair", "--gamma", "1,1,1", "--sep", "1"], "2 gamma"),
    (["--type", "thomson", "--gamma", "1,2", "--n", "3", "--radius", "1"],
     "1 gamma"),
    (["--type", "triangle", "--gamma=0.1,0.2,-0.3", "--side", "1"], "zero-sum"),
])
def test_equilibrium_bad_gammas_exit_2(argv, named, capsys):
    assert main(["equilibrium", *argv, "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input:") and named in captured.err
    assert captured.out == ""


def test_zero_total_is_refused_alike_by_equilibrium_and_continue(tmp_path,
                                                                 capsys):
    """0.1 + 0.2 - 0.3 is 5.6e-17, zero to rounding: both commands refuse
    the triangle with one message, before any number overflows."""
    cfgfile = _write(tmp_path / "t.ini",
                     "[system]\ngammas = 0.1,0.2,-0.3\nseed = triangle\n")
    errs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["equilibrium", "--type", "triangle", "--side", "1",
                      "--gamma=0.1,0.2,-0.3", "--check"],
                     ["continue", "--config", cfgfile,
                      "--out", str(tmp_path / "x")]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            errs.append(err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("invalid input: zero-sum vorticities: ")
    assert not (tmp_path / "x").exists()


def test_equilibrium_residual_is_free_of_scale(monkeypatch, capsys):
    """The (1e8, 2e8) pair's absolute residual is 1.0, roundoff on blocks
    of grad H0 near 6e15: relative to them it passes.  A pair whose omega
    is off by 1e-6 reads 1e-6 and fails."""
    assert main(["equilibrium", "--type", "pair", "--gamma=1e8,2e8",
                 "--sep", "1", "--check"]) == 0
    assert "verdict: nondegenerate" in capsys.readouterr().out
    pair = equilibria.make_pair(1.0, 2.0, 1.0)
    bent = equilibria.RelativeEquilibrium(pair.sys, pair.z,
                                          pair.omega * (1 + 1e-6))
    monkeypatch.setattr(cli, "make_seed", lambda *args: bent)
    assert main(["equilibrium", "--type", "pair", "--gamma=1,2",
                 "--sep", "1"]) == 1
    assert "residual = 1.000e-06" in capsys.readouterr().out


@pytest.mark.parametrize("side", ["0.3", "1", "2.7"])
@pytest.mark.parametrize("gamma3", ["-1.999999", "-1.9999999"])
def test_equilibrium_certifies_a_triangle_of_small_total(gamma3, side):
    """The equilateral triangle is an equilibrium for every gamma.  At
    (1, 1, -2 + delta), delta = 1e-6 or 1e-7, kappa is 4e6 or 4e7, and omega,
    made from Gamma = delta, carries its rounding: the residual reaches
    1.6e-9 (delta = 1e-7, side 0.3), above the old absolute 1e-10 but far
    below RESIDUAL_TOL kappa, so the triangle certifies."""
    assert main(["equilibrium", "--type", "triangle", f"--gamma=1,1,{gamma3}",
                 "--side", side]) == 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# one parser per process

PAIR_CHECK = ["equilibrium", "--type", "pair", "--gamma", "1,1",
              "--sep", "2.0", "--check"]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cached_parser_keeps_no_flag_from_an_earlier_call(capsys):
    assert main(["continue", "--dump-config", "--modes", "8"]) == 0
    assert "modes = 8\n" in capsys.readouterr().out
    assert main(["continue", "--dump-config"]) == 0
    assert "modes = 32\n" in capsys.readouterr().out

    assert main(PAIR_CHECK) == 0
    assert "verdict:" in capsys.readouterr().out
    assert main(PAIR_CHECK[:-1]) == 0
    assert "verdict:" not in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    (["equilibrium", "--type", "pair", "--sep", "2.0"], 2),  # no --gamma
    (["equilibrium", "--help"], 0),
])
def test_parser_exit_leaves_next_call_unchanged(argv, code, capsys):
    cli.build_parser.cache_clear()
    first = main(PAIR_CHECK), capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
    capsys.readouterr()
    assert (main(PAIR_CHECK), capsys.readouterr().out) == first


# ---------------------------------------------------------------------------
# continue

@pytest.fixture(scope="module")
def cont_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cont")
    out = base / "run"
    cfgfile = _write(base / "run.ini", CONT_CONFIG.format(out=out))
    code = main(["continue", "--config", cfgfile])
    return code, str(out), cfgfile


def test_continue_exit_and_files(cont_run):
    code, out, _ = cont_run
    assert code == 0
    files = sorted(os.listdir(out))
    orbits = [f for f in files if f.startswith("orb_r") and
              f.endswith(".json")]
    assert len(orbits) == 6
    assert "orb_summary.txt" in files


def test_continue_summary_contents(cont_run):
    _, out, _ = cont_run
    with open(os.path.join(out, "orb_summary.txt")) as fh:
        text = fh.read()
    header, *rows = text.splitlines()
    assert header.split() == ["r", "vnorm", "residual", "phase", "iters"]
    written = sorted(f"orb_r{float(row.split()[0]):.6g}.json" for row in rows)
    assert written == sorted(f for f in os.listdir(out)
                             if f.startswith("orb_r") and f.endswith(".json"))
    assert "r0" not in text
    assert "FAILED" not in text


def test_continue_orbit_file_schema(cont_run):
    _, out, _ = cont_run
    fname = sorted(f for f in os.listdir(out) if f.endswith(".json"))[0]
    with open(os.path.join(out, fname)) as fh:
        doc = json.load(fh)
    for key in ("schema_version", "system", "domain", "a0", "r",
                "omega_seed", "loop", "diagnostics"):
        assert key in doc
    assert doc["diagnostics"]["residual_grad"] < 1e-9


def test_continue_dump_config_roundtrips(cont_run, capsys, tmp_path):
    _, _, cfgfile = cont_run
    assert main(["continue", "--config", cfgfile, "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    echo = _write(tmp_path / "echo.ini", dumped)
    a = load_config(cfgfile)
    b = load_config(echo)
    assert np.array_equal(a.gammas, b.gammas)
    assert (a.seed, a.n) == (b.seed, b.n)
    assert a.params == b.params
    assert a.domain.variant == b.domain.variant


def test_continue_flag_overrides(capsys, tmp_path):
    out = tmp_path / "ovr"
    cfgfile = _write(tmp_path / "run.ini", CONT_CONFIG.format(out=out))
    assert main(["continue", "--config", cfgfile, "--r-steps", "3",
                 "--dump-config"]) == 0
    assert "r_points = 3" in capsys.readouterr().out


def test_continue_failed_grid_points_exit_1(tmp_path, capsys):
    """Continued from r = 1.5 the equal pair's orbit leaves the disk, and at
    r = 1.204 the contraction guard stops it: the summary ends with one
    FAILED line per failed r, and 4 orbits of 6 miss the quota."""
    out = tmp_path / "fail"
    assert main(["continue", "--modes", "10", "--r-max", "1.5", "--r-min",
                 "0.5", "--r-steps", "6", "--out", str(out)]) == 1
    text = capsys.readouterr().out
    *rows, failed_domain, failed_contraction = text.splitlines()[1:]
    assert len(rows) == 4 and len(list(out.glob("orbit_r*.json"))) == 4
    assert failed_domain == ("FAILED r=1.5: DomainError: configuration has "
                             "points outside the domain at sample 0")
    assert failed_contraction.startswith(
        "FAILED r=1.20411: ContractionFailure: contraction estimate ")
    assert (out / "orbit_summary.txt").read_text() == text


@pytest.mark.parametrize("gammas, args, failed, code", [
    (None, ["--modes", "8", "--r-max", "3", "--r-min", "0.1", "--r-steps", "5"],
     ["FAILED r=3: DomainError: configuration has points outside the domain "
      "at sample 0",
      "FAILED r=1.28186: DomainError: configuration has points outside the "
      "domain at sample 0"], 1),
    ("30,30", ["--modes", "8", "--r-steps", "3"],
     ["FAILED r=0.2: ContractionFailure: contraction estimate 6.480 exceeds "
      "guard 0.9 at r=0.2"], 1),
    (None, ["--mode", "newton", "--modes", "8", "--r-max", "1.5", "--r-min",
            "0.5", "--r-steps", "5"],
     ["FAILED r=1.5: NoConvergence: Newton line search failed at r=1.5: 8 "
      "halvings of the step did not lower the residual 5.884e-01"], 0),
], ids=["domain", "contraction", "line-search"])
def test_continue_mixed_grid_fails_each_r_alone(gammas, args, failed, code,
                                                tmp_path, capsys):
    """A grid solved as one batch fails exactly the r that fail alone, each
    with its own message, and writes the orbit of every other r: the
    DomainError of a kernel call, which names no r of the batch, splits it
    until each half holds the one r that failed, while the contraction
    guard and Newton's line search refuse their own r."""
    out = tmp_path / "mixed"
    config = []
    if gammas:
        _write(tmp_path / "pair.ini", f"[system]\ngammas = {gammas}\n")
        config = ["--config", str(tmp_path / "pair.ini")]
    assert main(["continue", *config, *args, "--out", str(out)]) == code
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines[-len(failed):] == failed
    orbits = len(lines) - len(failed)
    assert orbits == int(args[-1]) - len(failed)
    assert len(list(out.glob("orbit_r*.json"))) == orbits


def test_continue_with_no_converged_grid_point_exits_1(tmp_path, capsys):
    """No r converges: the summary still names each r and its reason, and
    the 80% quota sets the exit code."""
    out = tmp_path / "empty"
    assert main(["continue", "--modes", "8", "--r-max", "3", "--r-min", "2",
                 "--r-steps", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].split() == ["r", "vnorm", "residual", "phase", "iters"]
    assert [line.split(":")[0] for line in lines[1:]] == [
        "FAILED r=3", "FAILED r=2.44949", "FAILED r=2"]
    assert (out / "orbit_summary.txt").read_text() == captured.out
    assert sorted(os.listdir(out)) == ["orbit_summary.txt"]


@pytest.mark.parametrize("flags", [
    pytest.param(["--modes", "0"], id="modes-0"),
    pytest.param(["--r-steps", "1"], id="r-steps-1"),
    pytest.param(["--r-steps", "0"], id="r-steps-0"),
    pytest.param(["--r-max", "nan"], id="r-max-nan"),
    pytest.param(["--r-max", "inf"], id="r-max-inf"),
])
def test_continue_unrunnable_solver_setting_exits_2(flags, tmp_path, capsys):
    cfgfile = _write(tmp_path / "bad.ini",
                     CONT_CONFIG.format(out=tmp_path / "x"))
    assert main(["continue", "--config", cfgfile, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: [solver]") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_solver_mode_key_takes_the_flag_spelling(tmp_path, capsys):
    """[solver] mode takes the --mode spelling, in any case, and runs as the
    flag does, orbit files and summary byte for byte; a dumped config
    reloads to the same canonical mode."""
    small = CONT_CONFIG.replace("modes = 12\nr_points = 6",
                                "modes = 8\nr_points = 3")
    by_flag, by_key = tmp_path / "flag", tmp_path / "key"
    flag_ini = _write(tmp_path / "flag.ini", small.format(out=by_flag))
    key_ini = _write(tmp_path / "key.ini", small.format(out=by_key).replace(
        "[solver]\n", "[solver]\nmode = newton\n"))
    assert main(["continue", "--config", flag_ini, "--mode", "newton"]) == 0
    assert main(["continue", "--config", key_ini]) == 0
    names = sorted(os.listdir(by_flag))
    assert names == sorted(os.listdir(by_key)) and len(names) == 4
    for name in names:
        assert (by_flag / name).read_bytes() == (by_key / name).read_bytes()
    for spelling, mode in [("NEWTON", "Newton"), ("fixedPoint", "FixedPoint")]:
        assert rd.SolverParams(mode=spelling).mode == mode
    capsys.readouterr()
    assert main(["continue", "--mode", "newton", "--dump-config"]) == 0
    dumped = _write(tmp_path / "dumped.ini", capsys.readouterr().out)
    assert load_config(dumped).params == rd.SolverParams(mode="Newton")


@pytest.mark.parametrize("key", ["fp_tol", "newton_tol", "max_iter",
                                 "contraction_guard", "solve_tol"])
def test_removed_solver_key_exits_2(key, tmp_path, capsys):
    """The stops (solve_tol, max_iter, contraction_guard, and the former
    fp_tol and newton_tol) are constants in reduction, not keys: a config
    that sets one is rejected as unknown."""
    cfg = CONT_CONFIG.format(out=tmp_path / "x").replace(
        "[solver]\n", f"[solver]\n{key} = 1\n")
    cfgfile = _write(tmp_path / "old.ini", cfg)
    assert main(["continue", "--config", cfgfile]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invalid input: unknown key(s) in [solver]: {key}\n"
    assert not (tmp_path / "x").exists()


def test_default_config_is_the_library_default():
    assert load_config(None).params == rd.SolverParams()


@pytest.mark.parametrize("seed, flag", [
    ("pair", "sep"), ("triangle", "side"), ("thomson", "radius")],
    ids=["pair-separation", "triangle-side", "thomson-radius"])
def test_seed_reads_its_own_size_key(seed, flag, capsys):
    """Only `equilibrium` reads a seed's size, each kind from its own flag
    (`cli.SEEDS`), and prints the configuration at that size: the pair's
    separation, the triangle's sides and the ring's radius are 0.75."""
    gammas = {"pair": "1,1", "triangle": "1,2,3", "thomson": "1"}[seed]
    assert cli.SEEDS[seed][1] == flag
    assert main(["equilibrium", "--type", seed, "--gamma", gammas,
                 f"--{flag}", "0.75", "--n", "5"]) == 0
    out = capsys.readouterr().out
    text = out[out.index("[") + 1:out.index("]")]
    z = np.array(text.split(), dtype=float).reshape(-1, 2)
    assert len(z) == {"pair": 2, "triangle": 3, "thomson": 5}[seed]
    if seed == "thomson":
        sizes = np.hypot(*(z - z.mean(axis=0)).T)
    else:
        sizes = [np.hypot(*(a - b)) for i, a in enumerate(z) for b in z[i + 1:]]
    assert sizes == pytest.approx([0.75] * len(sizes), rel=1e-10)


@pytest.mark.parametrize("seed, key", [
    ("pair", "separation"), ("triangle", "side"), ("thomson", "radius")])
def test_seed_size_key_is_refused(seed, key, tmp_path, capsys):
    """`normalize_period` erases a seed's size, so no [system] key sets it:
    the size key of each seed kind, under its own seed or the default one,
    with a value that parses or one that does not, exits 2 as unknown and
    writes nothing."""
    gammas = {"pair": "1,1", "triangle": "1,2,3", "thomson": "1"}[seed]
    out = tmp_path / "x"
    for system in (f"gammas = {gammas}\nseed = {seed}\n", ""):
        for value in ("0.75", "abc"):
            cfgfile = _write(tmp_path / "s.ini", f"[system]\n{system}"
                             f"{key} = {value}\n[output]\ndir = {out}\n")
            assert main(["continue", "--config", cfgfile]) == 2
            assert capsys.readouterr() == (
                "", f"invalid input: unknown key(s) in [system]: {key}\n")
            assert not out.exists()


def test_dump_config_system_section_holds_no_size(capsys):
    assert main(["continue", "--dump-config"]) == 0
    dumped = configparser.ConfigParser(interpolation=None)
    dumped.read_string(capsys.readouterr().out)
    assert list(dumped["system"]) == ["gammas", "seed", "n"]
    assert sum(map(len, cli.DEFAULT_CONFIG.values())) == 12


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(cli.SEEDS)),
       gammas=st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
       n=st.integers(2, 9), exponent=st.floats(-3.0, 3.0),
       power=st.integers(-9, 9))
def test_seed_of_any_size_normalizes_to_the_size_one_seed(
        kind, gammas, signs, n, exponent, power):
    """`continue` seeds at size 1 and normalizes: any size gives the same
    period-normalized seed, bit for bit at a power-of-two size (the scale
    sqrt|omega| is then exact) and to 8 eps of its largest coordinate at
    any size in 10^[-3, 3]."""
    g = (np.array(gammas) * signs)[:cli.SEEDS[kind][0]]
    assume(abs(g.sum()) > 0.05)
    one = equilibria.normalize_period(cli.make_seed(kind, g, 1.0, n))
    assert equilibria.normalize_period(cli.make_seed(kind, g, 2.0**power, n)) == one
    other = equilibria.normalize_period(cli.make_seed(kind, g, 10.0**exponent, n))
    eps = np.finfo(float).eps
    assert other.omega == one.omega and other.sys == one.sys
    assert np.max(np.abs(other.z - one.z)) <= 8 * eps * np.max(np.abs(one.z))


def test_quadratic_domain_matrix_key(tmp_path):
    cfg = load_config(_write(tmp_path / "q.ini",
                             "[domain]\nvariant = quadratic\nmatrix = 3,0;0,5\n"))
    assert np.array_equal(cfg.domain.a_matrix, [[3.0, 0.0], [0.0, 5.0]])


def test_quadratic_domain_orbits_are_odd(tmp_path, capsys):
    """h(a) = a.A a/2 is even, so F and H_r are even about a0 = 0 and the
    seed turns to its negative after half a period: every orbit satisfies
    u(t + pi) = -u(t), and only odd Fourier modes carry mass."""
    out = tmp_path / "quad"
    cfgfile = _write(tmp_path / "q.ini",
                     "[system]\ngammas = 1,2\n"
                     "[domain]\nvariant = quadratic\nmatrix = 3,0;0,5\n"
                     f"[output]\ndir = {out}\n")
    assert main(["continue", "--config", cfgfile]) == 0
    capsys.readouterr()
    files = sorted(out.glob("orbit_r*.json"))
    assert len(files) == 30
    for path in files:
        u = rd.load_orbit(str(path))[-1]
        flip = u + lp.time_shift(np.pi, u)
        assert lp.h1_norm(flip) <= 1e-13 * lp.h1_norm(u)


def test_quadratic_domain_non_finite_matrix_exits_2(tmp_path, capsys):
    cfgfile = _write(tmp_path / "q.ini", "[domain]\nvariant = quadratic\n"
                                         "matrix = inf,0;0,1\n")
    assert main(["continue", "--config", cfgfile]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("[solver]\ntol = 1e-3\n", "tol"),
    ("[solver]\nmodez = 8\n", "modez"),
    ("[sytem]\ngammas = 1,1\n", "[sytem]"),
    ("[domain]\nvariant = disk\nmatrix = 3,0;0,5\n", "matrix"),
])
def test_continue_unknown_config_key_exits_2(text, named, tmp_path, capsys):
    cfgfile = _write(tmp_path / "unknown.ini", text)
    assert main(["continue", "--config", cfgfile, "--dump-config"]) == 2
    err = capsys.readouterr().err
    assert "unknown" in err and named in err


def test_continue_tiny_total_vorticity_exits_0(tmp_path, capsys):
    """(1e-15, 1e-15) sums to 2e-15, far above the rounding bound 4.4e-31
    of its sum: the pair rotates, and its orbits continue."""
    cfgfile = _write(tmp_path / "p.ini", "[system]\ngammas = 1e-15,1e-15\n")
    assert main(["continue", "--config", cfgfile, "--modes", "8",
                 "--r-steps", "3", "--out", str(tmp_path / "x")]) == 0
    assert len(list((tmp_path / "x").glob("orbit_r*.json"))) == 3
    assert "FAILED" not in capsys.readouterr().out


def test_continue_degenerate_a0_is_an_error(tmp_path, capsys):
    """h(p) = p.A p with A = diag(1, 1e-12) has a degenerate critical point
    at 0: continue refuses it through main's one error exit."""
    cfgfile = _write(tmp_path / "q.ini", "[domain]\nvariant = quadratic\n"
                                         "matrix = 1,0;0,1e-12\n")
    assert main(["continue", "--config", cfgfile,
                 "--out", str(tmp_path / "x")]) == 1
    out, err = capsys.readouterr()
    assert err == "error: critical point of the regular part is degenerate\n"
    assert out == "" and not (tmp_path / "x").exists()


def test_continue_searches_for_a0_once(tmp_path, monkeypatch):
    """One continue runs find_critical_point_h once, from a0_guess."""
    search, guesses = core.find_critical_point_h, []

    def counted(domain, guess):
        guesses.append(guess)
        return search(domain, guess)
    monkeypatch.setattr(core, "find_critical_point_h", counted)
    assert main(["continue", "--modes", "4", "--r-steps", "2",
                 "--out", str(tmp_path)]) == 0
    assert len(guesses) == 1


def test_continue_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "none.ini")
    assert main(["continue", "--config", missing]) == 2
    assert capsys.readouterr().err == (
        f"invalid input: config file not found: {missing}\n")


def test_continue_zero_vorticity_is_usage_error(tmp_path, capsys):
    cfg = CONT_CONFIG.format(out=tmp_path / "x").replace(
        "gammas = 1,1", "gammas = 1,-1")
    cfgfile = _write(tmp_path / "bad.ini", cfg)
    assert main(["continue", "--config", cfgfile]) == 2
    assert capsys.readouterr().err.startswith("invalid input:")


@pytest.mark.parametrize("seed, gammas", [
    ("thomson", "1,2"), ("pair", "1,1,1"), ("triangle", "1,1")])
def test_continue_seed_gamma_count_exits_2(seed, gammas, tmp_path, capsys):
    """Every seed kind takes its own number of gammas (thomson one, used for
    all n vortices); any other count is rejected before an orbit is written."""
    cfg = CONT_CONFIG.format(out=tmp_path / "x").replace(
        "gammas = 1,1\nseed = pair", f"gammas = {gammas}\nseed = {seed}\nn = 3")
    cfgfile = _write(tmp_path / "bad.ini", cfg)
    assert main(["continue", "--config", cfgfile]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {seed} seed needs")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text, named", [
    ("[domain]\na0_guess = 0,0,0\n", "[domain] a0_guess:"),
    ("[domain]\na0_guess = x\n", "[domain] a0_guess:"),
    # the seed sizes are no keys: their value is refused unparsed, by name
    ("[system]\nseparation = abc\n", "unknown key(s) in [system]: separation"),
    ("[system]\nseed = triangle\ngammas = 1,2,3\nside = abc\n",
     "unknown key(s) in [system]: side"),
    ("[system]\nseed = thomson\ngammas = 1\nradius = abc\n",
     "unknown key(s) in [system]: radius"),
    ("[system]\nn = x\n", "[system] n:"),
    ("[solver]\nmodes = abc\n", "[solver] modes:"),
    ("[system]\nseed = square\n", "[system] seed: unknown type 'square'"),
    ("[system]\ngammas = %(x)s\n", "[system] gammas:"),  # `%` is literal
], ids=["a0_guess-3", "a0_guess-x", "separation", "side", "radius", "n",
        "modes", "seed", "gammas-percent"])
def test_config_value_that_fails_to_parse_names_its_key(text, named,
                                                         tmp_path, capsys):
    cfgfile = _write(tmp_path / "bad.ini", text)
    assert main(["continue", "--config", cfgfile, "--dump-config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {named}")
    assert err.count(named.split()[0]) == 1  # the section is named once


def test_solver_section_is_derived_from_solver_params(capsys):
    fields = dataclasses.fields(rd.SolverParams)
    assert cli.DEFAULT_CONFIG["solver"] == {f.name: str(f.default)
                                            for f in fields}
    assert main(["continue", "--dump-config"]) == 0
    assert "r_min = 0.001\n" in capsys.readouterr().out


@pytest.mark.parametrize("r_min", ["1e-309", "1e-320"])
def test_continue_r_grid_ratio_that_overflows_exits_2(r_min, tmp_path, capsys):
    """r_max / r_min = inf has no finite grid ratio, and an r_min below about
    1e-308 is subnormal: the grid would not even end at it (np.geomspace
    ends at 9.99989e-321 for 1e-320)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["continue", f"--r-min={r_min}", "--modes", "4",
                     "--r-steps", "3", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: [solver]: r grid needs 0 < r_min "
                          "< r_max and a finite r_max / r_min, got r_max = 0.2")
    assert not (tmp_path / "x").exists()


def test_continue_r_grid_whose_period_underflows_exits_2(tmp_path, capsys):
    """At r_min = 1e-200 the period 2 pi r_min^2 underflows to 0, so the
    orbit could not be validated: the grid is refused before any solve and
    before the output directory is made."""
    assert main(["continue", "--r-min=1e-200", "--modes", "4",
                 "--r-steps", "3", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "invalid input: [solver]: the period 2 pi r_min^2 must be finite "
        "and positive, got 0.0\n")
    assert not (tmp_path / "x").exists()


def test_continue_grid_whose_r_share_a_file_name_exits_2(tmp_path, capsys,
                                                         monkeypatch):
    """An orbit file and its summary row show r to 6 digits, so the grid
    0.2, 0.19999995, 0.1999999 would write three orbits to one file,
    orbit_r0.2.json, and keep the last.  The grid is refused before any
    solve and before the output directory is made."""
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(rd, "continue_path", no_solve)
    out = tmp_path / "x"
    assert main(["continue", "--modes", "4", "--r-max", "0.2",
                 "--r-min", "0.1999999", "--r-steps", "3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "invalid input: two r of the grid share the file "
        "orbit_r0.2.json\n")
    assert not out.exists()


def test_continue_malformed_config_is_usage_error(tmp_path):
    cfgfile = _write(tmp_path / "bad.ini",
                     "[system]\ngammas = one,two\n")
    assert main(["continue", "--config", cfgfile]) == 2


@pytest.mark.parametrize("text", [
    "gammas = 1,1\n",
    "[system]\ngammas = 1,1\n[system]\nseed = pair\n",
    "[system]\ngammas = 1,1\ngammas = 1,2\n",
    "[system]\n  gammas\n",
    b"\xff\xfe\n[system]\n",  # no header in an encoding that decodes it
    None,
], ids=["no-header", "duplicate-section", "duplicate-key",
        "bad-continuation", "not-text", "directory"])
def test_config_file_that_cannot_be_read_exits_2(text, tmp_path, capsys):
    """A config file that cannot be opened or parsed is an input error that
    names the file; no run starts on the defaults."""
    cfgfile = tmp_path / "bad.ini"
    if text is None:
        cfgfile.mkdir()
    elif isinstance(text, bytes):
        cfgfile.write_bytes(text)
    else:
        cfgfile.write_text(text)
    assert main(["continue", "--config", str(cfgfile), "--modes", "4",
                 "--r-steps", "2", "--out", str(tmp_path / "x")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("invalid input:") and str(cfgfile) in err
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("prefix, out", [("run%1", "x"), ("orbit", "p%1")])
def test_percent_in_config_value_or_flag_is_literal(prefix, out, tmp_path,
                                                    capsys):
    cfgfile = _write(tmp_path / "p.ini", f"[output]\nprefix = {prefix}\n")
    assert main(["continue", "--config", cfgfile, "--modes", "4",
                 "--r-steps", "2", "--out", str(tmp_path / out)]) == 0
    files = sorted(os.listdir(tmp_path / out))
    assert f"{prefix}_summary.txt" in files
    assert sum(f.startswith(f"{prefix}_r") for f in files) == 2


# ---------------------------------------------------------------------------
# validate

def test_validate_produced_orbit(cont_run, capsys):
    _, out, _ = cont_run
    fname = sorted(os.path.join(out, f) for f in os.listdir(out)
                   if f.endswith(".json"))[0]
    assert main(["validate", "--orbit", fname, "--tol", "1e-6"]) == 0
    assert "closure_error" in capsys.readouterr().out


def test_validate_corrupted_file(tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", "{not json")
    assert main(["validate", "--orbit", bad]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["validate", "--orbit", missing]) == 2
    # nesting deeper than the JSON decoder's recursion limit
    deep = _write(tmp_path / "deep.json", "[" * 100_000 + "]" * 100_000)
    assert main(["validate", "--orbit", deep]) == 2
    # a well-formed orbit file validates; without diagnostics it is rejected
    doc = dict(ORBIT_DOC)
    orbit = _write(tmp_path / "orbit.json", json.dumps(doc))
    assert main(["validate", "--orbit", orbit, "--samples", "16"]) != 2
    del doc["diagnostics"]
    orbit = _write(tmp_path / "no_diag.json", json.dumps(doc))
    assert main(["validate", "--orbit", orbit, "--samples", "16"]) == 2
    assert "diagnostics" in capsys.readouterr().err


_NAN_COEFFS = [[0, 0, 0, 0], [1, 0, -1, float("nan")], [0, 1, 0, -1]]
_BOOL_COEFFS = [[0, 0, 0, 0], [1, 0, -1, 0], [0, 1, 0, True]]
_RAGGED_COEFFS = [[0, 0, 0, 0], [1, 0, -1], [0, 1, 0, -1]]


@pytest.mark.parametrize("changes, message", [
    *(pytest.param({"r": r}, "invalid input: r must be finite and positive",
                   id=str(r)) for r in (0.0, -0.1, float("nan"), float("inf"))),
    # 2 pi r^2 underflows to 0 or overflows: not a 0/0 or an OverflowError
    *(pytest.param({"r": r}, "invalid input: the period 2 pi r^2 must be "
                   "finite and positive", id=str(r)) for r in (1e-170, 1e-200, 1e160)),
    pytest.param({"r": [0.1]}, "cannot read orbit file: r must be a number",
                 id="r-list"),
    pytest.param({"r": None}, "cannot read orbit file: r must be a number",
                 id="r-null"),
    pytest.param({"r": True}, "cannot read orbit file: r must be a number",
                 id="r-true"),  # a bool is an int, but not an r
    pytest.param({"system": {"gammas": [1.0, 1.0, 1.0]}},
                 "cannot read orbit file: gammas has 3 entries for 2 vortices",
                 id="3-gammas"),
    pytest.param({"system": {"gammas": [1.0]}},
                 "cannot read orbit file: gammas has 1 entries for 2 vortices",
                 id="1-gamma"),
    pytest.param({"a0": [0.0, 0.0, 0.0]},
                 "cannot read orbit file: a0 must be one point", id="a0-len3"),
    pytest.param({"a0": {"x": 0.0}}, "cannot read orbit file", id="a0-dict"),
    pytest.param({"a0": [float("nan"), 0.0]},
                 "invalid input: a0 and the loop must be finite", id="a0-nan"),
    pytest.param({"loop": {**ORBIT_DOC["loop"], "coeffs": _NAN_COEFFS}},
                 "invalid input: a0 and the loop must be finite",
                 id="coeff-nan"),
    # a JSON true or false is not a number, a count or a schema version
    pytest.param({"a0": [False, False]}, "cannot read orbit file: a0 must be "
                 "a number", id="a0-bool"),
    pytest.param({"system": {"gammas": [True, True]}},
                 "cannot read orbit file: system.gammas must be a number",
                 id="gammas-bool"),
    pytest.param({"loop": {**ORBIT_DOC["loop"], "coeffs": _BOOL_COEFFS}},
                 "cannot read orbit file: loop.coeffs must be a number",
                 id="coeff-bool"),
    pytest.param({"loop": {**ORBIT_DOC["loop"], "modes": True}},
                 "cannot read orbit file: loop.modes must be of JSON type int",
                 id="modes-bool"),
    pytest.param({"schema_version": True}, "cannot read orbit file: "
                 "schema_version must be of JSON type int", id="schema-bool"),
    pytest.param({"domain": {"variant": 5, "params": {}}},
                 "cannot read orbit file: domain.variant must be of JSON type "
                 "str", id="variant-int"),
    pytest.param({"domain": {"variant": "disk", "params": []}},
                 "cannot read orbit file: domain.params must be of JSON type "
                 "dict", id="params-list"),
    pytest.param({"domain": {"variant": "quadratic",
                             "params": {"a_matrix": [[1, 0], [0, True]]}}},
                 "cannot read orbit file: a_matrix must be a number",
                 id="a-matrix-bool"),
    pytest.param({"domain": {"variant": "disk",
                             "params": {"offset": [0.5, 0.0]}}},
                 "cannot read orbit file: the disk domain reads no params "
                 "['offset']", id="disk-offset"),
    pytest.param([ORBIT_DOC], "cannot read orbit file: orbit file has no "
                 "field schema_version", id="top-level-list"),
    pytest.param({"r": 10**400}, "cannot read orbit file: r must be a number "
                 "in float range", id="r-huge-int"),
    pytest.param({"loop": {**ORBIT_DOC["loop"], "coeffs": _RAGGED_COEFFS}},
                 "cannot read orbit file: loop.coeffs must be a number",
                 id="coeffs-ragged"),
])
def test_validate_bad_orbit_r_exits_2(changes, message, tmp_path, capsys):
    """An orbit file whose r, gammas, a0, loop, domain or schema version is
    malformed or disagrees with the rest, or whose top level is not a JSON
    object, exits 2 with the field named, never 1 or a traceback."""
    doc = {**ORBIT_DOC, **changes} if isinstance(changes, dict) else changes
    orbit = _write(tmp_path / "orbit.json", json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--orbit", orbit, "--samples", "16"]) == 2
    assert message in capsys.readouterr().err


def _json_kind(value):
    """The JSON type of a value, with an int beyond float range apart."""
    if type(value) in (int, float):
        return "huge" if abs(value) > 1e308 else "number"
    return type(value).__name__


# the fields of ORBIT_DOC at the top level and one level down
_ORBIT_FIELDS = [(key,) for key in ORBIT_DOC] + [
    (key, sub) for key, value in ORBIT_DOC.items() if isinstance(value, dict)
    for sub in value] + [
    (key, i) for key, value in ORBIT_DOC.items() if isinstance(value, list)
    for i in range(len(value))]
_JSON_VALUES = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4),
    st.lists(st.integers(-2, 2) | st.booleans(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
    st.integers(10**309, 10**400))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(_ORBIT_FIELDS), value=_JSON_VALUES)
def test_validate_orbit_field_of_another_type_never_raises(field, value,
                                                           tmp_path, capsys):
    """Any field of a good orbit file, replaced by a value of another JSON
    type, gives exit 0, 1 or 2 with no warning or traceback; 2 says that
    the file cannot be read."""
    doc = json.loads(json.dumps(ORBIT_DOC))
    parent = doc if len(field) == 1 else doc[field[0]]
    assume(_json_kind(value) != _json_kind(parent[field[-1]]))
    parent[field[-1]] = value
    orbit = _write(tmp_path / "orbit.json", json.dumps(doc))
    capsys.readouterr()  # drop what earlier examples printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["validate", "--orbit", orbit, "--samples", "16"])
    assert code in (0, 1, 2)
    assert code != 2 or "cannot read orbit file" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--samples", "0"], "samples"),
    (["--samples", "-3"], "samples"),
    (["--rtol", "nan"], "rtol"),
    (["--rtol", "-1"], "rtol"),
    (["--tol", "nan"], "--tol"),
    (["--tol", "-1"], "--tol"),
    (["--rtol", "1e-20"], "rtol must be at least"),  # below RTOL_FLOOR, 2.2e-14
    (["--rtol", "5e-324"], "rtol must be at least"),  # not its atol, 0
])
def test_validate_bad_argument_exits_2(flags, named, cont_run, capsys):
    _, out, _ = cont_run
    fname = sorted(os.path.join(out, f) for f in os.listdir(out)
                   if f.endswith(".json"))[0]
    assert main(["validate", "--orbit", fname, *flags]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and named in err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_csv_and_svg(tmp_path, capsys):
    csv = str(tmp_path / "traj.csv")
    svg = str(tmp_path / "traj.svg")
    assert main(["simulate", "--z0", "0.3,0,-0.3,0", "--time", "2.0",
                 "--samples", "50",
                 "--csv", csv, "--svg", svg]) == 0
    with open(csv) as fh:
        header = fh.readline().strip()
        rows = fh.read().splitlines()
    assert header.startswith("t,")
    assert len(rows) == 50
    # values are written with enough digits to round-trip
    val = rows[0].split(",")[1]
    assert len(val.replace("-", "").replace(".", "").lstrip("0")) >= 16
    with open(svg) as fh:
        body = fh.read()
    assert body.startswith("<svg") and "polyline" in body
    assert "energy_drift" in capsys.readouterr().out


@pytest.mark.parametrize("flags, named", [
    (["--time", "1", "--samples", "1"], "--samples"),
    (["--time", "1", "--samples", "0"], "--samples"),
    (["--time", "0"], "--time"),
    (["--time", "inf"], "--time"),
    # a refused --r writes no file, with or without an SVG asked for
    *((["--time", "1", "--r", r, *svg], "--r")
      for r in ("nan", "inf", "-1") for svg in ([], ["--svg", "t.svg"])),
])
def test_simulate_bad_time_or_samples_exits_2(flags, named, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    csv = tmp_path / "t.csv"
    assert main(["simulate", "--z0", "0.3,0,-0.3,0", *flags,
                 "--csv", str(csv)]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and named in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    lambda tmp, orbit: ["simulate", "--z0", "0.3,0,-0.3,0", "--time", "1",
                        "--csv", f"{tmp}/nodir/t.csv"],
    lambda tmp, orbit: ["simulate", "--z0", "0.3,0,-0.3,0", "--time", "1",
                        "--csv", f"{tmp}/t.csv", "--svg", f"{tmp}/nodir/t.svg"],
    lambda tmp, orbit: ["validate", "--orbit", orbit,
                        "--csv", f"{tmp}/nodir/t.csv"],
    lambda tmp, orbit: ["validate", "--orbit", orbit,
                        "--svg", f"{tmp}/nodir/t.svg"],
    lambda tmp, orbit: ["continue", "--config", _write(
        f"{tmp}/p.ini", CONT_CONFIG.format(out=tmp).replace(
            "prefix = orb", "prefix = nodir/b/c"))],
    lambda tmp, orbit: ["simulate", "--z0", "0.3,0,-0.3,0", "--time", "1",
                        "--csv", _mkdir(f"{tmp}/nodir/isdir")],
], ids=["simulate-csv", "simulate-svg", "validate-csv", "validate-svg",
        "continue-prefix", "simulate-csv-is-a-directory"])
def test_unwritable_output_path_exits_2(argv, cont_run, tmp_path, capsys):
    """A file that cannot be written is an input error naming the path,
    not a traceback, and leaves no temporary file behind."""
    _, out, _ = cont_run
    orbit = sorted(os.path.join(out, f) for f in os.listdir(out)
                   if f.endswith(".json"))[0]
    assert main(argv(tmp_path, orbit)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: cannot write {tmp_path}/nodir/")
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("system, code", [
    ("seed = thomson\ngammas = 1,2\nn = 2\n", 2),
    ("seed = thomson\ngammas = 1\nn = 2\n", 0),
    ("seed = pair\ngammas = 1,2\n", 0),
    ("seed = triangle\ngammas = 1,2\n", 0),
], ids=["thomson-2-gammas", "thomson", "pair", "triangle-2-gammas"])
def test_simulate_thomson_config_needs_one_gamma(system, code, tmp_path,
                                                 capsys):
    """A thomson config takes one gamma for its n vortices; pair and
    triangle configs integrate their gammas as given."""
    cfgfile = _write(tmp_path / "s.ini", "[system]\n" + system)
    assert main(["simulate", "--config", cfgfile, "--z0", "0.3,0,-0.3,0",
                 "--time", "0.1", "--samples", "4",
                 "--csv", str(tmp_path / "t.csv")]) == code
    if code:
        assert capsys.readouterr().err.startswith(
            "invalid input: thomson seed needs 1 gamma(s), got 2")


def test_simulate_rescaled_at_r_zero(tmp_path, capsys):
    """At --r 0 simulate integrates H0, the plane, and reports its centre of
    vorticity and angular impulse besides the energy."""
    assert main(["simulate", "--z0", "0.3,0,-0.3,0", "--time", "1",
                 "--r", "0", "--csv", str(tmp_path / "t.csv")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" = ")[0] for line in out] == [
        "energy_drift", "center_of_vorticity_drift", "angular_impulse_drift"]


def test_simulate_modes_are_scales_of_one_family(tmp_path, capsys):
    """simulate integrates H_s at s = --r, the physical system s = 1 by
    default: with no --r it writes the --r 1 CSV byte for byte, and only
    s = 0 reports the plane's centre of vorticity and angular impulse."""
    def run(*scale):
        csv = tmp_path / "t.csv"
        assert main(["simulate", "--z0=0.3,0,-0.3,0.1", "--time", "2",
                     "--samples", "5", *scale, "--csv", str(csv)]) == 0
        return csv.read_bytes(), capsys.readouterr().out

    default_csv, default_out = run()
    assert run("--r", "1") == (default_csv, default_out)
    assert "angular_impulse_drift" not in default_out
    assert "angular_impulse_drift" in run("--r", "0")[1]


def test_simulate_at_a_scale_past_the_boundary_stops_at_its_guard(tmp_path,
                                                                  capsys):
    """--r 5 integrates H_5, whose boundary guard watches 5 z: a pair at
    0.3 from the centre lies outside the unit disk there, so the run stops
    at t = 0 with exit 1 and writes no CSV."""
    csv = tmp_path / "t.csv"
    assert main(["simulate", "--z0", "0.3,0,-0.3,0", "--time", "1",
                 "--r", "5", "--csv", str(csv)]) == 1
    assert capsys.readouterr().err == (
        "error: vortex within 1e-09 of the boundary\n")
    assert not csv.exists()


def test_simulate_rescaled_in_the_half_plane(tmp_path, capsys):
    """The rescaled energy H0(u) - F(ru) never evaluates F at the origin,
    which lies on the half plane's boundary."""
    cfgfile = _write(tmp_path / "hp.ini",
                     "[domain]\nvariant = halfplane\na0_guess = 0.3,0.5\n")
    assert main(["simulate", "--config", cfgfile, "--r", "0.1",
                 "--z0=0.1,0.5,-0.1,0.5", "--time", "0.1",
                 "--csv", str(tmp_path / "t.csv")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("energy_drift = ") and float(out.split()[-1]) < 1e-8


def test_svg_draws_the_half_plane_boundary():
    """The half plane's boundary y = 0 is one horizontal line."""
    states = np.array([[0.1, 0.5, -0.1, 0.5], [0.2, 0.6, -0.2, 0.4]])
    svg = cli.trajectory_svg(states, core.HalfPlane())
    lines = re.findall(r'<line x1="[-\d.]+" y1="([-\d.]+)" '
                       r'x2="[-\d.]+" y2="([-\d.]+)"', svg)
    assert len(lines) == 1 and lines[0][0] == lines[0][1]
    assert "<circle" not in svg


def test_simulate_collision_start_fails(tmp_path):
    assert main(["simulate", "--z0", "0,0,0,1e-12", "--time", "1.0",
                 "--r", "0",
                 "--csv", str(tmp_path / "t.csv")]) == 1


def test_simulate_past_the_step_cap_exits_1(tmp_path, capsys, monkeypatch):
    """A run that cannot reach --time within the step budget (here 3, where
    --time=1e300 needs about 1e300 steps) stops with exit 1, naming the cap
    and the time reached, and writes no CSV."""
    monkeypatch.setattr(dynamics, "MAX_STEPS", 3)
    csv = tmp_path / "t.csv"
    assert main(["simulate", "--z0=0.1,0,-0.1,0", "--time=1e300",
                 "--csv", str(csv)]) == 1
    assert re.fullmatch(r"error: step cap MAX_STEPS = 3 reached at t = \S+, "
                        r"short of T = 1e\+300\n", capsys.readouterr().err)
    assert not csv.exists()


def test_simulate_where_pair_distances_overflow_exits_2(tmp_path, capsys):
    """At (1e154, 0, -1e154, 0) |d|^2 = 4e308 overflows: refused, where the
    energy of log(inf) would print NaN drifts."""
    assert main(["simulate", "--r", "0", "--z0=1e154,0,-1e154,0", "--time",
                 "1", "--csv", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == (
        "invalid input: a squared pair distance overflows: configuration "
        "out of range\n")


def test_simulate_beyond_half_the_float_range_exits_2(tmp_path, capsys):
    """At (1e308, 0, -1e308, 0) the pair difference itself overflows: the
    start is refused, with no RuntimeWarning on the way."""
    assert main(["simulate", "--r", "0", "--z0=1e308,0,-1e308,0", "--time",
                 "1", "--csv", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        "invalid input: every configuration entry must be at most ")


def test_simulate_wrong_z0_length(tmp_path, capsys):
    assert main(["simulate", "--z0", "0.3,0", "--time", "1.0",
                 "--csv", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == (
        "invalid input: --z0 needs 4 numbers, got 2\n")


# ---------------------------------------------------------------------------
# robin

def test_robin_disk_center(capsys):
    assert main(["robin", "--domain", "disk", "--guess", "0.3,-0.2"]) == 0
    out = capsys.readouterr().out
    assert "a0 = (" in out
    assert "nondegenerate" in out


def test_robin_non_finite_guess_exits_2(capsys):
    assert main(["robin", "--domain", "disk", "--guess", "nan,0"]) == 2
    assert "finite" in capsys.readouterr().err


def test_robin_guess_where_h_overflows_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["robin", "--domain", "halfplane", "--guess=0,1e300"]) == 2
    assert capsys.readouterr().err.startswith(
        "invalid input: h'' at (0, 1e+300) overflows")


def test_robin_default_guess_lies_inside_each_domain(capsys):
    assert main(["robin", "--domain", "disk"]) == 0
    default = capsys.readouterr().out
    assert main(["robin", "--domain", "disk", "--guess", "0.3,-0.2"]) == 0
    assert capsys.readouterr().out == default
    # inside the half plane, the search runs and finds no critical point
    assert main(["robin", "--domain", "halfplane"]) == 1
    assert capsys.readouterr().err == (
        "error: no critical point after 50 iterations\n")


@pytest.mark.parametrize("domain, guess", [("halfplane", "0.3,-0.2"),
                                           ("disk", "2,0")])
def test_robin_guess_outside_domain_exits_2(domain, guess, capsys):
    assert main(["robin", "--domain", domain, "--guess", guess]) == 2
    assert "outside the domain" in capsys.readouterr().err


def test_robin_halfplane_has_no_critical_point(capsys):
    assert main(["robin", "--domain", "halfplane", "--guess", "0,1"]) == 1
