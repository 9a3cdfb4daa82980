"""End-to-end command line interface tests via main(argv)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nvortex
from nvortex import loops as lp
from nvortex.cli import main, load_config


CONT_CONFIG = """\
[system]
gammas = 1,1
seed = pair
separation = 2.0

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


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def test_cli_import_leaves_scipy_integrate_unloaded():
    """Only `simulate` and `validate` integrate; the other commands should
    not pay for importing scipy.integrate."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nvortex.__file__)))
    code = "import sys, nvortex.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


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


def test_equilibrium_missing_args_usage():
    assert main(["equilibrium", "--type", "pair", "--gamma", "1,1"]) == 2


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


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


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
    assert "empirical r0" in text
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
    assert a.params == b.params
    assert a.domain.variant == b.domain.variant


def test_continue_flag_overrides(capsys, tmp_path):
    out = tmp_path / "ovr"
    cfgfile = _write(tmp_path / "run.ini", CONT_CONFIG.format(out=out))
    assert main(["continue", "--config", cfgfile, "--r-steps", "3",
                 "--dump-config"]) == 0
    assert "r_points = 3" in capsys.readouterr().out


@pytest.mark.parametrize("flags, solver", [
    (["--modes", "0"], ""),
    (["--r-steps", "1"], ""),
    (["--r-steps", "0"], ""),
    ([], "max_iter = 0\n"),
    ([], "contraction_guard = 0\n"),
    ([], "contraction_guard = 1\n"),
    ([], "contraction_guard = 1.5\n"),
])
def test_continue_unrunnable_solver_setting_exits_2(flags, solver, tmp_path,
                                                     capsys):
    cfg = CONT_CONFIG.format(out=tmp_path / "x").replace(
        "[solver]\n", "[solver]\n" + solver)
    cfgfile = _write(tmp_path / "bad.ini", cfg)
    assert main(["continue", "--config", cfgfile, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: [solver]") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


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
        with open(path) as fh:
            u = lp.loop_from_dict(json.load(fh)["loop"])
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


def test_continue_zero_vorticity_is_usage_error(tmp_path, capsys):
    cfg = CONT_CONFIG.format(out=tmp_path / "x").replace(
        "gammas = 1,1", "gammas = 1,-1")
    cfgfile = _write(tmp_path / "bad.ini", cfg)
    assert main(["continue", "--config", cfgfile]) == 2


def test_continue_malformed_config_is_usage_error(tmp_path):
    cfgfile = _write(tmp_path / "bad.ini",
                     "[system]\ngammas = one,two\n")
    assert main(["continue", "--config", cfgfile]) == 2


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
    # a well-formed orbit file validates; without diagnostics it is rejected
    doc = {"schema_version": 1, "system": {"gammas": [1.0, 1.0]},
           "domain": {"variant": "disk", "params": {}}, "a0": [0.0, 0.0],
           "r": 0.1, "omega_seed": 1.0,
           "loop": {"n": 2, "modes": 1,
                    "coeffs": [[0, 0, 0, 0], [1, 0, -1, 0], [0, 1, 0, -1]]},
           "diagnostics": {}}
    orbit = _write(tmp_path / "orbit.json", json.dumps(doc))
    assert main(["validate", "--orbit", orbit, "--samples", "16"]) != 2
    del doc["diagnostics"]
    orbit = _write(tmp_path / "no_diag.json", json.dumps(doc))
    assert main(["validate", "--orbit", orbit, "--samples", "16"]) == 2
    assert "diagnostics" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_csv_and_svg(tmp_path, capsys):
    csv = str(tmp_path / "traj.csv")
    svg = str(tmp_path / "traj.svg")
    assert main(["simulate", "--z0", "0.3,0,-0.3,0", "--time", "2.0",
                 "--mode", "physical", "--samples", "50",
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


def test_simulate_collision_start_fails(tmp_path):
    assert main(["simulate", "--z0", "0,0,0,1e-12", "--time", "1.0",
                 "--mode", "plane",
                 "--csv", str(tmp_path / "t.csv")]) == 1


def test_simulate_wrong_z0_length(tmp_path):
    assert main(["simulate", "--z0", "0.3,0", "--time", "1.0",
                 "--csv", str(tmp_path / "t.csv")]) == 2


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


def test_robin_halfplane_has_no_critical_point(capsys):
    assert main(["robin", "--domain", "halfplane", "--guess", "0,1"]) == 1
