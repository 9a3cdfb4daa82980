"""End-to-end command line interface tests via main(argv)."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nvortex
from nvortex import cli
from nvortex import loops as lp
from nvortex import reduction as rd
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


def _scipy_modules_after(code):
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nvortex.__file__)))
    code += "\nprint([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded():
    """Importing the CLI loads no scipy module: the LU, the matrix
    exponential and the integrator are imported where they are used."""
    assert _scipy_modules_after("import sys, nvortex.cli") == "[]"


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
    (["--type", "pair", "--gamma=1e300,1e300", "--sep", "1"], "residual"),
    (["--type", "pair", "--gamma=1e200,1e200", "--sep", "1", "--check"],
     "residual"),
    (["--type", "triangle", "--gamma=1e157,1,-2", "--side", "1e5", "--check"],
     "generator B"),
    (["--type", "pair", "--gamma=1,2", "--sep", "1e-200"], "angular velocity"),
], ids=["pair-1e300", "pair-1e200-check", "triangle-B", "pair-sep-1e-200"])
def test_equilibrium_overflow_exits_2(argv, what, capsys):
    assert main(["equilibrium", *argv]) == 2
    captured = capsys.readouterr()
    assert f"{what} overflows" in captured.err
    assert "multipliers" not in captured.out


def test_equilibrium_huge_size_exits_2(capsys):
    """omega = Gamma / (pi sep^2) underflows to 0, which no equilibrium has."""
    assert main(["equilibrium", "--type", "pair", "--gamma=1,2",
                 "--sep", "1e200"]) == 2
    assert "angular velocity must be nonzero" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, named", [
    (["--type", "pair", "--gamma", "1,-1", "--sep", "1"], "zero-sum"),
    (["--type", "triangle", "--gamma", "1,1,-2", "--side", "1"], "nonzero"),
    (["--type", "pair", "--gamma", "1,1,1", "--sep", "1"], "2 gamma"),
    (["--type", "thomson", "--gamma", "1,2", "--n", "3", "--radius", "1"],
     "1 gamma"),
])
def test_equilibrium_bad_gammas_exit_2(argv, named, capsys):
    assert main(["equilibrium", *argv, "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input:") and named in captured.err
    assert captured.out == ""


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
    assert (a.seed, a.size, a.n) == (b.seed, b.size, b.n)
    assert a.params == b.params
    assert a.domain.variant == b.domain.variant


def test_continue_flag_overrides(capsys, tmp_path):
    out = tmp_path / "ovr"
    cfgfile = _write(tmp_path / "run.ini", CONT_CONFIG.format(out=out))
    assert main(["continue", "--config", cfgfile, "--r-steps", "3",
                 "--dump-config"]) == 0
    assert "r_points = 3" in capsys.readouterr().out


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


@pytest.mark.parametrize("key", ["fp_tol", "newton_tol", "max_iter",
                                 "contraction_guard"])
def test_removed_solver_key_exits_2(key, tmp_path, capsys):
    """fp_tol, newton_tol, max_iter and contraction_guard are constants in
    reduction, not keys: a config that sets one is rejected as unknown."""
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


@pytest.mark.parametrize("seed, key", [
    ("pair", "separation"), ("triangle", "side"), ("thomson", "radius")])
def test_seed_reads_its_own_size_key(seed, key, tmp_path):
    cfg = load_config(_write(tmp_path / "s.ini", f"[system]\ngammas = 1\n"
                             f"seed = {seed}\n{key} = 0.75\nn = 5\n"))
    assert (cfg.size, cfg.n) == (0.75, 5)


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
    ("[system]\nseparation = abc\n", "[system] separation:"),
    ("[system]\nseed = triangle\ngammas = 1,2,3\nside = abc\n",
     "[system] side:"),
    ("[system]\nseed = thomson\ngammas = 1\nradius = abc\n",
     "[system] radius:"),
    ("[system]\nn = x\n", "[system] n:"),
    ("[solver]\nmodes = abc\n", "[solver] modes:"),
], ids=["a0_guess-3", "a0_guess-x", "separation", "side", "radius", "n",
        "modes"])
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
    doc = dict(ORBIT_DOC)
    orbit = _write(tmp_path / "orbit.json", json.dumps(doc))
    assert main(["validate", "--orbit", orbit, "--samples", "16"]) != 2
    del doc["diagnostics"]
    orbit = _write(tmp_path / "no_diag.json", json.dumps(doc))
    assert main(["validate", "--orbit", orbit, "--samples", "16"]) == 2
    assert "diagnostics" in capsys.readouterr().err


_NAN_COEFFS = [[0, 0, 0, 0], [1, 0, -1, float("nan")], [0, 1, 0, -1]]


@pytest.mark.parametrize("changes, message", [
    *(pytest.param({"r": r}, "invalid input: r must be finite and positive",
                   id=str(r)) for r in (0.0, -0.1, float("nan"), float("inf"))),
    pytest.param({"r": [0.1]}, "cannot read orbit file: r must be a number",
                 id="r-list"),
    pytest.param({"r": None}, "cannot read orbit file: r must be a number",
                 id="r-null"),
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
])
def test_validate_bad_orbit_r_exits_2(changes, message, tmp_path, capsys):
    """An orbit file whose r, gammas, a0 or loop is malformed or disagrees
    with the rest exits 2 with the field named, never 1 or a traceback."""
    orbit = _write(tmp_path / "orbit.json", json.dumps({**ORBIT_DOC, **changes}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--orbit", orbit, "--samples", "16"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--samples", "0"], "samples"),
    (["--samples", "-3"], "samples"),
    (["--rtol", "nan"], "rtol"),
    (["--rtol", "-1"], "rtol"),
    (["--tol", "nan"], "--tol"),
    (["--tol", "-1"], "--tol"),
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


@pytest.mark.parametrize("flags, named", [
    (["--time", "1", "--samples", "1"], "--samples"),
    (["--time", "1", "--samples", "0"], "--samples"),
    (["--time", "0"], "--time"),
    (["--time", "inf"], "--time"),
    *((["--time", "1", "--mode", mode, "--r", r], "--r")
      for r in ("nan", "inf", "-1") for mode in ("physical", "rescaled")),
])
def test_simulate_bad_time_or_samples_exits_2(flags, named, tmp_path, capsys):
    csv = tmp_path / "t.csv"
    assert main(["simulate", "--z0", "0.3,0,-0.3,0", *flags,
                 "--csv", str(csv)]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and named in err
    assert not csv.exists()


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
], ids=["simulate-csv", "simulate-svg", "validate-csv", "validate-svg",
        "continue-prefix"])
def test_unwritable_output_path_exits_2(argv, cont_run, tmp_path, capsys):
    """A file that cannot be written is an input error naming the path,
    not a traceback."""
    _, out, _ = cont_run
    orbit = sorted(os.path.join(out, f) for f in os.listdir(out)
                   if f.endswith(".json"))[0]
    assert main(argv(tmp_path, orbit)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: cannot write {tmp_path}/nodir/")
    assert "Traceback" not in err


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


def test_simulate_rescaled_at_r_zero(tmp_path):
    assert main(["simulate", "--z0", "0.3,0,-0.3,0", "--time", "1",
                 "--mode", "rescaled", "--r", "0",
                 "--csv", str(tmp_path / "t.csv")]) == 0


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
    assert "no critical point found" in capsys.readouterr().err


@pytest.mark.parametrize("domain, guess", [("halfplane", "0.3,-0.2"),
                                           ("disk", "2,0")])
def test_robin_guess_outside_domain_exits_2(domain, guess, capsys):
    assert main(["robin", "--domain", domain, "--guess", guess]) == 2
    assert "outside the domain" in capsys.readouterr().err


def test_robin_halfplane_has_no_critical_point(capsys):
    assert main(["robin", "--domain", "halfplane", "--guess", "0,1"]) == 1
