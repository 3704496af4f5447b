"""The package surface: lazily resolved exports, and which modules each command loads."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmoscale
from lmoscale.cli import main
from lmoscale.grid import GridSpec

SRC = Path(__file__).resolve().parents[1] / "src"

# every public name `dir(lmoscale)` listed when `__init__` re-exported them by hand
EXPORTS = {
    "closed_form": [
        "BatchPathPlan", "CubicCoefficients", "FixedBatchOptimum", "FixedMomentumOptimum",
        "JointOptimum", "asymptotic_momentum", "asymptotic_momentum_terms", "batch_growth_plan",
        "batch_star_given_momentum", "bound_eta_minimized", "bound_eta_star",
        "capped_batch_noise_floor", "effective_constants", "momentum_cubic",
        "momentum_gap_ratio", "optimal_fixed_batch", "optimal_fixed_momentum_steps",
        "optimal_fixed_momentum_tokens", "optimal_joint", "solve_momentum_cubic",
        "tuned_risk_prefactor",
    ],
    "contours": ["ContourConstants", "LevelPoint", "LevelSet", "level_set", "tuned_bound"],
    "errors": ["BudgetTooSmallError", "DomainError", "InfeasibleError", "NumericalError"],
    "grid": [
        "Constraint", "FitResult", "GridSpec", "SweepRecord", "SweepResult", "detect_burn_in",
        "fit_power_law", "fit_sweep_exponents", "sweep",
    ],
    "proxy": [
        "BoundConstants", "Budget", "BudgetKind", "HyperParams", "bound_steps", "bound_tokens",
        "large_horizon_gap", "risk_large_horizon", "risk_steps", "risk_tokens",
    ],
    "schedules": [
        "AggressiveCeiling", "NoiseModel", "NoiseSensitivity", "PathAnalysis", "PathExponents",
        "PowerLawSchedule", "RateExponents", "TunedLaw", "aggressive_ceiling",
        "effective_eta_exponent", "noise_exponent_sensitivity", "rate_exponents",
    ],
    "sgd": ["SgdInputs", "SgdTunedResult", "sgd_risk", "sgd_tuned"],
    "sim": [
        "LmoConfig", "NormKind", "ObjectiveSpec", "SimPoint", "SimRun", "SimSweepResult",
        "dual_norm", "integer_batch", "lmo_direction", "momentum_update", "polar_factor", "run",
        "sweep_sim",
    ],
    "transfer": [
        "BatchChangeResult", "BatchChangeSetting", "TransferRegime", "TransferResult",
        "TunedConfig", "extrapolate", "extrapolate_with_batch_change",
    ],
}

NUMPY_MODULES = ("grid", "sim")

CLOSED_FORM_COMMANDS = [
    ["plan", "--regime", "joint", "--t", "1e6"],
    ["plan", "--regime", "fixed-momentum", "--t", "1e8"],
    ["plan", "--regime", "fixed-batch", "--t", "1e8", "--b", "64"],
    ["transfer", "--t0", "1e6", "--eta0", "0.01", "--t1", "1e8", "--regime", "A"],
    ["transfer", "--t0", "1e6", "--b0", "8", "--eta0", "0.01", "--t1", "1e8", "--b1", "64",
     "--setting", "lmo-tuned-momentum"],
    ["analyze", "--mode", "rate", "--b-exp", "0.5", "--eta-exp", "0.75"],
    ["analyze", "--mode", "ceiling", "--phi", "0.75"],
    ["analyze", "--mode", "noise", "--q", "0.5"],
    ["analyze", "--mode", "path", "--kappa", "0.5", "--lam", "0.5", "--p", "0.5"],
    ["compare-sgd", "--t", "1e6"],
]

NUMPY_COMMANDS = [
    ["verify", "--constraint", "fixed-alpha", "--value", "0.1", "--format", "csv"],
    ["contour", "--alpha", "0.5", "--target", "0.05", "--k-points", "5"],
    ["simulate", "--t", "1024", "--replicates", "2", "--eta", "0.01,0.1", "--format", "csv"],
]


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=False)


def test_closed_form_commands_and_names_load_no_numpy(tmp_path):
    code = (
        "import json, sys\n"
        "import lmoscale.cli\n"
        "loaded = ['numpy' in sys.modules]\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    codes.append(lmoscale.cli.main(argv + ['--out', sys.argv[2]]))\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "for name in json.loads(sys.argv[3]):\n"
        "    getattr(lmoscale, name)\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(json.dumps({'codes': codes, 'numpy': loaded}))\n"
    )
    names = [name for module, names in EXPORTS.items() if module not in NUMPY_MODULES
             for name in [module, *names]]
    res = _fresh_python(code, json.dumps(CLOSED_FORM_COMMANDS), str(tmp_path / "out.json"),
                        json.dumps(names))
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["codes"] == [0] * len(CLOSED_FORM_COMMANDS)
    assert report["numpy"] == [False] * (len(CLOSED_FORM_COMMANDS) + 2)


CONTOUR_CALLS = (
    "cc = lm.ContourConstants(lm.BoundConstants(1.0, 1.0, 1.0), 0.5)\n"
    "values = [cc.c_det, cc.c_burn, cc.c_floor, cc.k_min(2.0), cc.b_min(2.0),\n"
    "          lm.tuned_bound(cc, 4.0, 100.0), lm.tuned_bound(cc, 4.0, 100.0, 0.1)]\n"
    "for floor in (None, 0.1):\n"
    "    ls = lm.level_set(cc, 2.0, [10.0, 100.0, 1000.0], floor)\n"
    "    values += [ls.k_min, ls.k0, *(x for p in ls.points for x in (p.k, p.b))]\n"
)


def test_contour_names_and_calls_load_no_numpy():
    code = ("import json, sys\nimport lmoscale as lm\n" + CONTOUR_CALLS
            + "print(json.dumps({'values': values, 'numpy': 'numpy' in sys.modules}))\n")
    res = _fresh_python(code)
    assert res.returncode == 0, res.stderr
    here: dict = {"lm": lmoscale}
    exec(CONTOUR_CALLS, here)
    assert json.loads(res.stdout) == {"values": here["values"], "numpy": False}


@pytest.mark.parametrize("eta_floor", [None, 1e-3])
@pytest.mark.parametrize("k_lo, k_hi, n", [(1.0, 1e9, 50), (100.0, 1e6, 5), (3.0, 7e4, 17)])
def test_level_set_of_a_list_equals_that_of_its_logspace_array(k_lo, k_hi, n, eta_floor):
    cc = lmoscale.ContourConstants(lmoscale.BoundConstants(1.0, 1.0, 1.0), 0.5)
    k_grid = np.logspace(np.log10(k_lo), np.log10(k_hi), n)
    from_array = lmoscale.level_set(cc, 0.05, k_grid, eta_floor)
    from_list = lmoscale.level_set(cc, 0.05, k_grid.tolist(), eta_floor)
    for name in (f.name for f in dataclasses.fields(from_array)):
        assert getattr(from_list, name) == getattr(from_array, name), name
    assert all(type(p.k) is float for p in from_array.points)


@pytest.mark.parametrize("argv", NUMPY_COMMANDS, ids=[argv[0] for argv in NUMPY_COMMANDS])
def test_numpy_commands_run_in_a_fresh_interpreter(argv, capsys):
    res = _fresh_python("import sys\nfrom lmoscale.cli import main\nsys.exit(main(sys.argv[1:]))",
                        *argv)
    assert res.returncode == 0, res.stderr
    assert main(argv) == 0
    assert res.stdout == capsys.readouterr().out


CONTOUR = ["contour", "--alpha", "0.5", "--target", "0.05", "--k-points", "5"]
VERIFY = ["verify", "--constraint", "fixed-alpha", "--value", "0.1"]
SIMULATE = ["simulate", "--t", "1024", "--replicates", "2", "--eta", "0.01,0.1"]
CSV = ["--format", "csv"]

# argv, exit code, and the lmoscale modules that main(argv) adds to those of start-up
MODULE_SETS = [
    (["plan", "--regime", "joint", "--t", "1e6"], 0, ["closed_form", "proxy", "schedules"]),
    (["transfer", "--t0", "1e6", "--eta0", "0.01", "--t1", "1e8", "--regime", "A"], 0,
     ["schedules", "transfer"]),
    (["transfer", "--t0", "1e6", "--eta0", "0.01", "--t1", "1e8", "--b1", "64",
      "--setting", "sgd"], 0, ["schedules", "transfer"]),
    (["analyze", "--mode", "rate", "--b-exp", "0.5"], 0, ["schedules"]),
    (["compare-sgd", "--t", "1e6"], 0, ["closed_form", "proxy", "schedules", "sgd"]),
    (CONTOUR, 0, ["contours", "proxy"]),
    (CONTOUR + CSV, 0, ["contours", "proxy"]),
    (VERIFY, 0, ["grid", "proxy"]),
    (VERIFY + CSV, 0, ["grid", "proxy"]),
    (SIMULATE, 0, ["sim"]),
    (SIMULATE + CSV, 0, ["sim"]),
    (["plan", "--t", "1e6"], 2, []),
    (["simulate", "--no-such-option", "1"], 2, []),
]


@pytest.mark.parametrize("argv, code, added", MODULE_SETS, ids=[
    argv[0] + ("-csv" if "csv" in argv else "") + ("-reject" if code else "")
    for argv, code, _ in MODULE_SETS])
def test_each_command_loads_only_the_modules_it_runs(argv, code, added, tmp_path):
    script = (
        "import json, sys\n"
        "def ours():\n"
        "    return {name for name in sys.modules if name.split('.')[0] == 'lmoscale'}\n"
        "import lmoscale.cli\n"
        "start = ours()\n"
        "code = lmoscale.cli.main(json.loads(sys.argv[1]) + ['--out', sys.argv[2]])\n"
        "print(json.dumps({'code': code, 'start': sorted(start), 'added': sorted(ours() - start)}))\n"
    )
    res = _fresh_python(script, json.dumps(argv), str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {
        "code": code,
        "start": ["lmoscale", "lmoscale.cli", "lmoscale.errors", "lmoscale.serialize"],
        "added": [f"lmoscale.{name}" for name in added],
    }


def _names():
    return [(module, name) for module, names in EXPORTS.items() for name in names]


def test_the_old_exports_are_94_names():
    assert len(EXPORTS) + len(_names()) == 94


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_module_resolves_to_itself(module):
    assert getattr(lmoscale, module) is importlib.import_module(f"lmoscale.{module}")


@pytest.mark.parametrize("module, name", _names())
def test_each_export_resolves_to_its_module_object(module, name):
    assert getattr(lmoscale, name) is getattr(importlib.import_module(f"lmoscale.{module}"), name)
    assert vars(lmoscale)[name] is getattr(lmoscale, name)  # cached after the first lookup


def test_dir_and_star_import_list_every_export():
    names = [*EXPORTS, *(name for _, name in _names())]
    # in a fresh interpreter, where no name has been resolved yet
    res = _fresh_python("import json, lmoscale\nprint(json.dumps(dir(lmoscale)))")
    assert res.returncode == 0, res.stderr
    assert set(names) <= set(json.loads(res.stdout))
    star: dict = {}
    exec("from lmoscale import *", star)
    for name in names:
        assert star[name] is getattr(lmoscale, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lmoscale.no_such_name  # noqa: B018
    assert not hasattr(lmoscale, "no_such_name")


def test_a_private_name_raises_at_once_and_loads_no_module():
    code = (
        "import json, sys, lmoscale\n"
        "before = set(sys.modules)\n"
        "found = [hasattr(lmoscale, name) for name in ('__wrapped__', '_MISSING', '_require')]\n"
        "print(json.dumps({'found': found, 'numpy': 'numpy' in sys.modules,\n"
        "                  'loaded': sorted(set(sys.modules) - before)}))\n"
    )
    res = _fresh_python(code)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {"found": [False, False, False], "numpy": False, "loaded": []}


def _verify(capsys, *argv):
    assert main(["verify", "--constraint", "fixed-alpha", "--value", "0.1", *argv]) == 0
    return capsys.readouterr().out


def test_verify_range_defaults_are_grid_spec_defaults(capsys):
    spec = GridSpec()
    explicit = [f"--points={spec.points_per_axis}"]
    for axis in ("eta", "alpha", "b", "t"):
        lo, hi = getattr(spec, f"{axis}_range")
        explicit += [f"--{axis}-lo={lo!r}", f"--{axis}-hi={hi!r}"]
    assert _verify(capsys) == _verify(capsys, *explicit)


def test_a_null_range_end_in_the_config_keeps_the_default(tmp_path, capsys):
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"eta-lo": None, "t-hi": None, "points": None}))
    assert _verify(capsys, "--config", str(config)) == _verify(capsys)
    config.write_text(json.dumps({"eta-lo": None, "eta-hi": 1.0}))
    assert _verify(capsys, "--config", str(config)) == _verify(capsys, "--eta-hi", "1.0")
