"""Command-line surface: outputs, round trips, config handling, exit codes."""

import importlib.util
import json
import math
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from lmoscale import grid
from lmoscale.cli import MAX_K_POINTS, main, records_from_csv
from lmoscale.errors import BudgetTooSmallError, DomainError, InfeasibleError
from lmoscale.serialize import dumps_json, read_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_joint_reports_cubic_root(capsys):
    code, out, _ = run_cli(capsys, "plan", "--regime", "joint", "--t", "1e6")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha_star"] == pytest.approx(5.483e-3, rel=1e-3)
    assert doc["cubic_residual"] < 1e-12
    assert doc["objective"] == "bound_tokens"


def test_plan_fixed_momentum_example(capsys):
    code, out, _ = run_cli(capsys, "plan", "--regime", "fixed-momentum", "--t", "1e8")
    doc = json.loads(out)
    assert code == 0
    assert doc["b_star"] == pytest.approx(3535.5, rel=1e-4)
    assert doc["eta_star"] == pytest.approx(4.2045e-3, rel=1e-4)
    assert not doc["clamped"]
    assert doc["b_crossing_tokens"] == pytest.approx(8.0, rel=1e-12)


def test_plan_clamps_below_crossing(capsys):
    code, out, _ = run_cli(capsys, "plan", "--regime", "fixed-momentum", "--t", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["clamped"] and doc["b_star"] == 1.0


def test_transfer_regime_a_factor(capsys):
    code, out, _ = run_cli(
        capsys, "transfer", "--t0", "1", "--eta0", "1", "--t1", "100", "--regime", "A"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["eta1"] == 0.1


def test_transfer_batch_change(capsys):
    code, out, _ = run_cli(
        capsys, "transfer", "--t0", "1e8", "--b0", "37", "--eta0", "2.5e-3",
        "--alpha0", "0.1", "--t1", "4e8", "--b1", "148",
        "--setting", "lmo-fixed-momentum",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["eta1"] == 2.5e-3
    assert doc["calibrated_invariants"]["c_alpha"] is None


def test_analyze_path_identity(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--mode", "path", "--kappa", "0.25", "--lam", "0.75", "--p", "0.5"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["q_eff"] == -0.25


def test_contour_header_reports_minima(capsys, tmp_path):
    path = tmp_path / "contour.csv"
    code, _, _ = run_cli(
        capsys, "contour", "--alpha", "1", "--target", "0.5",
        "--delta0", "1", "--smoothness", "1", "--noise-scale", "1",
        "--k-lo", "100", "--k-hi", "1e6", "--k-points", "9",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0
    schema, meta, header, rows = read_csv(path.read_text())
    assert schema == "lmoscale/contour/v1"
    assert float(meta["k_min"]) == pytest.approx(88.0, rel=1e-12)
    assert float(meta["b_min"]) == pytest.approx(16.0, rel=1e-12)
    assert header[:3] == ["k", "b", "regime"]
    assert len(rows) == 9
    points = records_from_csv(path.read_text())
    assert len(points) == 9
    assert points[0].det_fraction + points[0].burn_fraction + points[0].floor_fraction == pytest.approx(1.0, rel=1e-12)


def test_verify_csv_round_trip(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "verify", "--constraint", "fixed-alpha", "--value", "1.0",
        "--t-lo", "1e6", "--t-hi", "1e10", "--t-points", "7", "--points", "40",
        "--fit-decades", "5", "--format", "csv", "--out", str(path),
    )
    assert code == 0
    text = path.read_text()
    records = records_from_csv(text)
    assert len(records) == 7
    # byte-identical rerun
    path2 = tmp_path / "sweep2.csv"
    run_cli(
        capsys, "verify", "--constraint", "fixed-alpha", "--value", "1.0",
        "--t-lo", "1e6", "--t-hi", "1e10", "--t-points", "7", "--points", "40",
        "--fit-decades", "5", "--format", "csv", "--out", str(path2),
    )
    assert path2.read_text() == text


def test_verify_threaded_output_is_byte_identical(capsys, tmp_path):
    args = [
        "verify", "--constraint", "fixed-alpha", "--value", "0.01",
        "--t-lo", "1e8", "--t-hi", "1e14", "--t-points", "10", "--points", "30",
        "--fit-decades", "6", "--format", "csv",
    ]
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--threads", "4", "--out", str(threaded)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == threaded.read_bytes()


def test_verify_threads_option_starts_no_thread(capsys):
    def refuse(self):
        raise AssertionError(f"verify started a thread: {self!r}")

    with mock.patch.object(threading.Thread, "start", refuse):
        code, out, err = run_cli(
            capsys, "verify", "--constraint", "fixed-alpha", "--value", "0.01",
            "--t-lo", "1e8", "--t-hi", "1e14", "--t-points", "10", "--points", "30",
            "--fit-decades", "6", "--threads", "2",
        )
    assert code == 0 and err == "" and json.loads(out)["records"]


def test_verify_json_contains_fits(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--constraint", "fixed-b", "--value", "1072",
        "--t-points", "40", "--fit-decades", "10",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fits"]["alpha"]["exponent"] == pytest.approx(-0.5, abs=0.06)
    assert doc["fits"]["eta"]["exponent"] == pytest.approx(-0.75, abs=0.06)


def test_simulate_summary(capsys, tmp_path):
    out_path = tmp_path / "sim.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--dim", "8", "--eta", "0.003,0.01", "--alpha", "0.5",
        "--b", "4", "--t", "2000", "--replicates", "2", "--format", "csv",
        "--out", str(out_path), "--seed", "7",
    )
    assert code == 0
    schema, meta, header, rows = read_csv(out_path.read_text())
    assert schema == "lmoscale/sim-summary/v1"
    assert meta["seed"] == "7"
    assert len(rows) == 1
    summary = records_from_csv(out_path.read_text())
    points = records_from_csv((tmp_path / "sim.csv.points.csv").read_text())
    assert len(points) == 2
    assert summary[0] in points  # the argmin row is one of the evaluated points


def test_compare_sgd(capsys):
    code, out, _ = run_cli(capsys, "compare-sgd", "--t", "1e4", "--b", "1,10,100")
    doc = json.loads(out)
    assert code == 0
    assert doc["sgd_value_relative_spread"] < 1e-12
    assert doc["sgd"][0]["value"] == pytest.approx(0.01, rel=1e-12)


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"regime": "fixed-momentum", "t": 1e8, "alpha": 1.0}))
    code, out, _ = run_cli(capsys, "plan", "--config", str(cfg), "--t", "1e4")
    doc = json.loads(out)
    assert code == 0
    assert doc["t"] == 1e4  # flag wins over config


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"regime": "joint", "t": 1e6, "bogus": 1}))
    code, _, err = run_cli(capsys, "plan", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_missing_required_is_invalid(capsys):
    code, _, err = run_cli(capsys, "plan", "--regime", "joint")
    assert code == 2
    assert "missing required" in err


def test_verify_with_too_few_fit_points_names_the_options_that_fix_it(capsys):
    # 20 budgets over 20 decades leave 2 in the default 2-decade fit window
    code, out, err = run_cli(capsys, "verify", "--points", "20")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    doc = json.loads(line)
    assert doc["exit_code"] == 2
    assert doc["error"].startswith("need at least 5 in-window points, got 2")
    assert "--fit-decades" in doc["error"] and "--t-points" in doc["error"]
    for fix in (["--fit-decades", "6"], ["--t-points", "100"]):
        assert run_cli(capsys, "verify", "--points", "20", *fix)[0] == 0


def test_verify_rejects_a_short_fit_window_before_it_sweeps(capsys, monkeypatch):
    # 20 budgets over the default 20 decades: 2 fit in any 2-decade window
    def no_sweep(*args, **kwargs):
        raise AssertionError("verify swept a grid whose fit window is too short")

    monkeypatch.setattr(grid, "sweep", no_sweep)
    code, out, err = run_cli(capsys, "verify", "--t-points", "20")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == (
        "need at least 5 in-window points, got 2; widen the fit window with --fit-decades "
        "or add budgets with --t-points")


@pytest.mark.parametrize("decades", ["-400", "-1", "-0.5"])
def test_verify_rejects_a_negative_fit_window_before_it_sweeps(capsys, monkeypatch, decades):
    monkeypatch.setattr(grid, "sweep", mock.Mock(side_effect=AssertionError("swept")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's divide-by-zero warning was a second line
        code, out, err = run_cli(capsys, "verify", "--points", "8", "--fit-decades", decades)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == (
        f"fit window decades must be >= 0, got {float(decades)}; widen the fit window with "
        "--fit-decades or add budgets with --t-points")


@pytest.mark.parametrize("decades", ["300", "400", "1e300"])
def test_verify_with_a_fit_window_past_the_float_range(capsys, decades):
    # 8 budgets over 20 decades: every budget is in the window, 4 of them off the grid edges
    code, out, err = run_cli(capsys, "verify", "--points", "8", "--fit-decades", decades)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("need at least 5 in-window points, got 4;")
    code, out, err = run_cli(capsys, "verify", "--fit-decades", decades)
    assert code == 0 and err == ""
    fits = json.loads(out)["fits"]
    assert {fit["window"][0] for fit in fits.values()} == {1e22 / 10.0**300 if decades == "300"
                                                           else 0.0}


@pytest.mark.parametrize("argv", [
    ["--points", "3000"],
    ["--t-points", "1000000"],
    ["--constraint", "fixed-b", "--value", "8", "--points", "1000"],
])
def test_verify_past_the_work_limit_is_invalid_before_any_axis(capsys, monkeypatch, argv):
    monkeypatch.setattr(np, "logspace", mock.Mock(side_effect=AssertionError("axis built")))
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert f"above the limit {grid.MAX_SWEEP_WORK:.0e}" in error
    assert error.endswith("lower --points or --t-points")


def test_contour_k_points_past_the_limit_is_invalid_before_the_grid(capsys, monkeypatch):
    monkeypatch.setattr(np, "logspace", mock.Mock(side_effect=AssertionError("grid built")))
    code, out, err = run_cli(capsys, "contour", "--alpha", "0.5", "--target", "0.05",
                             "--k-points", str(MAX_K_POINTS + 1))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"--k-points must be <= {MAX_K_POINTS}, "
                                        f"got {MAX_K_POINTS + 1}", "exit_code": 2}


def test_contour_at_the_k_points_limit_is_solved(capsys, monkeypatch):
    from lmoscale import contours

    sizes = []

    def count(cc, target, k_grid, eta_floor=None):
        sizes.append(len(k_grid))
        raise InfeasibleError("counted")

    monkeypatch.setattr(contours, "level_set", count)
    code, _, _ = run_cli(capsys, "contour", "--alpha", "0.5", "--target", "0.05",
                         "--k-points", str(MAX_K_POINTS))
    assert (code, sizes) == (3, [MAX_K_POINTS])


class _Reached(Exception):
    """Raised in place of a sweep or a contour solve once the command's checks have passed."""


def _benchmark_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_no_benchmark_request_exceeds_a_work_limit(capsys, monkeypatch):
    from lmoscale import contours

    workloads = _benchmark_workloads(monkeypatch)
    seen = {"verify": [], "contour": []}

    def swept_axes(spec, constraint):
        seen["verify"].append(grid._sweep_work(spec, constraint))
        raise _Reached

    def level_set(cc, target, k_grid, eta_floor=None):
        seen["contour"].append(len(k_grid))
        raise _Reached

    monkeypatch.setattr(grid, "_swept_axes", swept_axes)
    monkeypatch.setattr(contours, "level_set", level_set)
    for name in workloads.WORKLOADS:
        for scale in ("full", "tiny"):
            for seed in range(3):
                for block in workloads.generate(name, seed, scale):
                    for req in block:
                        if req.kind == "cli" and req.argv[0] in seen:
                            with pytest.raises(_Reached):
                                main(req.argv)
    assert capsys.readouterr() == ("", "")
    assert 0 < max(seen["verify"]) <= grid.MAX_SWEEP_WORK
    assert 0 < max(seen["contour"]) <= MAX_K_POINTS


def _simulate_load(argv):
    """(work, state, data) of a simulate argv; ``sim._sweep_plan`` raises if work or state is
    over its limit, and data counts the elements of a matrix-least-squares data matrix."""
    from lmoscale import sim
    from lmoscale.cli import _SPECS

    specs = {opt.name: opt for opt in _SPECS["simulate"]}
    v = {name: opt.default for name, opt in specs.items()}
    v.update((flag[2:], specs[flag[2:]].type(value)) for flag, value in zip(argv[1::2], argv[2::2])
             if flag[2:] in specs)
    size = v["dim"] if v["kind"] == "noisy-quadratic" else v["rows"] * v["cols"]
    etas, _, _, _, groups, steps = sim._sweep_plan(size, v["eta"], v["alpha"], v["b"], v["t"],
                                                   v["replicates"], v["seed"], v["update"],
                                                   v["init"])
    runs = etas.size * v["replicates"] * size
    data = 2 * v["rows"] ** 2 if v["kind"] == "matrix-least-squares" else 0
    return sum(steps) * runs, len(groups) * runs, data


def test_no_simulate_input_exceeds_a_simulator_limit(monkeypatch):
    import itertools

    import test_cli_contract
    from lmoscale import sim

    workloads = _benchmark_workloads(monkeypatch)
    loads = {"perfbench": [], "golden": [], "contract": []}
    for name in ("simulate-diagonal", "simulate-spectral"):
        for scale in ("full", "tiny"):
            for seed in [*range(40), *range(1800, 1810), *range(2000, 2010), *range(2200, 2210)]:
                for block in workloads.generate(name, seed, scale):
                    loads["perfbench"] += [_simulate_load(req.argv) for req in block]
    for case in json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text()):
        if case["argv"][0] == "simulate":
            loads["golden"].append(_simulate_load(case["argv"]))
    always = test_cli_contract.COMMANDS["simulate"][0]
    for kind in ("noisy-quadratic", "matrix-least-squares"):
        for values in itertools.product(*always.values()):
            argv = ["simulate", "--kind", kind]
            for name, value in zip(always, values):
                argv += [f"--{name}", value]
            try:
                loads["contract"].append(_simulate_load(argv))
            except BudgetTooSmallError:
                pass
    # criterion 11's three sweeps (test_acceptance), 50 coordinates and 32 replicates each
    sign = ",".join(str(10.0**e) for e in np.arange(-4.0, -1.9, 0.25))
    sgd = ",".join(str(10.0**e) for e in np.arange(-3.0, 0.01, 0.25))
    loads["criterion 11"] = [
        _simulate_load(["simulate", "--dim", "50", "--replicates", "32", "--eta", eta,
                        "--alpha", alpha, "--b", b, "--t", t])
        for eta, alpha, b, t in ((sign, "0.1", "32", "65536,1048576"),
                                 (sign, "0.1", "32,128,512", "1048576"),
                                 (sgd, "1", "32,128,512", "1048576"))]
    assert max(loads["criterion 11"]) == (894_566_400, 62_400, 0)
    for source, seen in loads.items():
        assert seen, source
        assert max(work for work, _, _ in seen) <= sim.MAX_WORK, source
        assert max(state for _, state, _ in seen) <= sim.MAX_STATE, source
        assert max(data for *_, data in seen) <= sim.MAX_STATE, source
    for source in ("perfbench", "contract"):  # both have matrix-least-squares inputs
        assert max(data for *_, data in loads[source]) > 0, source


def test_bad_flag_is_invalid(capsys):
    assert main(["plan", "--regime", "nonsense", "--t", "1e6"]) == 2
    capsys.readouterr()


def test_infeasible_contour_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "contour", "--alpha", "1", "--target", "1e9",
        "--delta0", "1", "--smoothness", "1", "--noise-scale", "1",
    )
    assert code == 3
    assert "unreachable" in err


def test_json_floats_round_trip_exactly(capsys):
    value = 0.1 + 0.2  # not representable prettily
    text = dumps_json({"x": value, "nested": [value, 3, True, None, "s"]})
    parsed = json.loads(text)
    assert parsed["x"] == value
    assert parsed["nested"][0] == value
    assert parsed["nested"][1:] == [3, True, None, "s"]


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["plan", "--regime", "joint", "--t", "inf"], None, "'t'"),
        (["plan", "--regime", "fixed-momentum", "--t", "inf"], None, "'t'"),
        (["simulate", "--eta", "0.01,nan"], None, "'eta'"),
        (["plan", "--bogus", "1"], None, "--bogus"),
        (["plan", "--regime", "nope", "--t", "1"], None, "--regime"),
        (["plan", "--regime", "joint", "--t", "abc"], None, "'t'"),
        (["verify"], {"points": "abc"}, "'points'"),
        (["plan"], {"regime": "joint", "t": float("inf")}, "'t'"),
        (["compare-sgd", "--t", "1e4"], {"b": []}, "'b'"),
        (["plan"], b"\xff\xfe{}", "cannot read config"),
        # config values that the flag would reject
        (["plan", "--regime", "joint"], {"t": True}, "'t'"),
        (["simulate", "--t", "64", "--b", "8", "--replicates", "1"], {"dim": 2.5}, "'dim'"),
        (["simulate", "--t", "64", "--b", "8", "--dim", "2"], {"replicates": True},
         "'replicates'"),
        (["simulate", "--t", "64", "--replicates", "1", "--dim", "2"], {"b": [8, False]}, "'b'"),
        (["plan"], {"out": True, "regime": "joint", "t": 1e6}, "'out'"),
        (["plan"], {"out": [1, 2], "regime": "joint", "t": 1e6}, "'out'"),
    ],
)
def test_bad_input_is_one_json_line_and_exit_2(capsys, monkeypatch, tmp_path, argv, config,
                                               named):
    monkeypatch.chdir(tmp_path)  # a relative --out would land here
    if config is not None:
        cfg = tmp_path / "run.json"
        if isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["exit_code"] == 2 and named in doc["error"]
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["run.json"])


def test_integral_config_numbers_keep_working(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"t": 64, "b": 8, "replicates": 2.0, "dim": 3, "seed": 7.0}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    flags = run_cli(capsys, "simulate", "--t", "64", "--b", "8", "--replicates", "2",
                    "--dim", "3", "--seed", "7")
    assert code == 0 and err == "" and (code, out, err) == flags


@pytest.mark.parametrize("make_out", [lambda tmp: tmp / "missing" / "out.json", lambda tmp: tmp],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_is_one_json_line_and_exit_2(capsys, tmp_path, make_out):
    out_path = make_out(tmp_path)
    code, out, err = run_cli(capsys, "plan", "--regime", "joint", "--t", "1e6",
                             "--out", str(out_path))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    doc = json.loads(line)
    assert doc["exit_code"] == 2 and doc["error"].startswith(f"cannot write output {out_path}: ")


def test_unwritable_points_file_is_one_json_line_and_exit_2(capsys, tmp_path):
    out_path = tmp_path / "sim.csv"
    (tmp_path / "sim.csv.points.csv").mkdir()  # the second file's path is a directory
    code, out, err = run_cli(capsys, "simulate", "--dim", "2", "--t", "64", "--b", "8",
                             "--replicates", "1", "--format", "csv", "--out", str(out_path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith(f"cannot write output {out_path}.points.csv: ")


def test_help_still_prints_usage(capsys):
    code, out, err = run_cli(capsys, "plan", "--help")
    assert code == 0 and out.startswith("usage:") and err == ""


def test_grid_overflow_leaves_stderr_empty(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would print to stderr
        code, out, err = run_cli(
            capsys, "verify", "--eta-lo", "1e-300", "--points", "40", "--t-points", "12",
            "--fit-decades", "20",
        )
    assert code == 0 and err == ""
    assert json.loads(out)["records"]


@pytest.mark.parametrize(
    "text, named",
    [
        ("# schema=lmoscale/plan/v1\nt,eta\n", "not a table document"),
        ("# schema=lmoscale/contour/v1\nk,b\n1,2\n", "columns"),
        ("# schema=lmoscale/sim-points/v1\nt,eta,alpha,b,steps,metric,replicates\n"
         "1,2,3,4.5,5,6,7\n", "bad row"),
        ("# schema=lmoscale/sim-points/v1\nt,eta,alpha,b,steps,metric,replicates\n1,2\n",
         "bad row"),
        ("t,eta\n", "schema"),
        ("# schema=lmoscale/sweep/v1\n", "column header"),
    ],
)
def test_records_from_csv_rejects_other_documents(text, named):
    with pytest.raises(DomainError, match=named):
        records_from_csv(text)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["plan", "--regime", "joint", "--t", "1e6", "--format", "csv"], "--format"),
        (["transfer", "--t0", "1", "--eta0", "1", "--t1", "10", "--regime", "A",
          "--format", "json"], "--format"),
        (["analyze", "--mode", "ceiling", "--phi", "0.75", "--format", "csv"], "--format"),
        (["compare-sgd", "--t", "1e4", "--format", "csv"], "--format"),
        (["contour", "--alpha", "1", "--target", "0.5", "--seed", "1"], "--seed"),
        (["plan", "--regime", "joint", "--t", "1e6", "--seed", "5"], "--seed"),
        (["simulate", "--threads", "2"], "--threads"),
        (["verify", "--threads", "0"], "threads"),
        (["verify", "--threads", "-1"], "threads"),
    ],
)
def test_options_a_command_does_not_take_are_rejected(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["exit_code"] == 2 and option in doc["error"]


@pytest.mark.parametrize(
    "command", ["plan", "verify", "transfer", "contour", "analyze", "simulate", "compare-sgd"]
)
def test_every_command_prints_help(capsys, command):
    code, out, err = run_cli(capsys, command, "--help")
    assert code == 0 and out.startswith(f"usage: lmoscale {command}") and err == ""


def test_top_level_help_and_command_errors(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0 and err == ""
    assert "{plan,verify,transfer,contour,analyze,simulate,compare-sgd}" in out
    for argv, named in (([], "required: command"), (["bogus"], "invalid choice: 'bogus'")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert named in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["plan", "--regime", "joint", "--t", "1e308", "--c1", "1e300"], "coefficient a3 = inf"),
        (["plan", "--regime", "joint", "--t", "1e300", "--c2", "1e-200"], "coefficient a1 = 0.0"),
        (["compare-sgd", "--t", "1e308", "--b", "1e300", "--noise-scale", "1e300"],
         "compare-sgd: arithmetic overflow"),
        (["plan", "--regime", "joint", "--t", "1", "--c1", "1e-320"], "ratio a0/a3 = inf"),
        (["plan", "--regime", "joint", "--t", "1e30", "--c2", "1e-150"], "ratio a0/a3 = 0.0"),
    ],
)
def test_float_limit_failures_name_their_cause(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["exit_code"] == 4 and named in doc["error"]


@pytest.mark.parametrize("c1", ["2e-309", "1e-300"])
def test_joint_plan_at_a_tiny_a3_reports_a_finite_residual(capsys, c1):
    code, out, err = run_cli(capsys, "plan", "--regime", "joint", "--t", "1", "--c1", c1)
    assert code == 0 and err == ""
    residual = json.loads(out)["cubic_residual"]
    assert math.isfinite(residual) and 0.0 <= residual <= 1e-15


def test_simulate_rejects_a_budget_beyond_the_step_limit(capsys):
    code, _, err = run_cli(capsys, "simulate", "--t", "1e300", "--b", "1", "--dim", "1",
                           "--replicates", "1", "--eta", "0.1", "--alpha", "1")
    assert code == 2
    assert "steps per run" in json.loads(err)["error"]


@pytest.mark.parametrize("argv, limit", [
    # 10^7 steps x 64 replicates x 10^5 coordinates: days of sign descent
    (["--norm", "max", "--dim", "100000", "--b", "1", "--t", "1e7", "--eta", "1e-3",
      "--alpha", "0.1", "--replicates", "64"], "sweep work"),
    # one step, but (1, 5, 1000, 10^6) float64 state buffers of 40 GB each
    (["--dim", "1000000", "--replicates", "1000", "--b", "32", "--t", "32"], "sweep state"),
    (["--kind", "matrix-least-squares", "--rows", "1000", "--cols", "1000", "--b", "32",
      "--t", "32"], "sweep state"),
    # one step on 2000 state elements, but a (4000, 2000) data matrix
    (["--kind", "matrix-least-squares", "--norm", "spectral", "--rows", "2000", "--cols", "1",
      "--replicates", "1", "--eta", "0.01", "--b", "1", "--t", "1"], "matrix-least-squares data"),
])
def test_simulate_past_the_work_or_state_limit_is_invalid_before_the_spectrum(
        capsys, monkeypatch, argv, limit):
    from lmoscale import sim

    monkeypatch.setattr(np, "geomspace", mock.Mock(side_effect=AssertionError("spectrum built")))
    monkeypatch.setattr(sim, "_Objective", mock.Mock(side_effect=AssertionError("data built")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "simulate", *argv)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"].startswith(limit)


def test_fixed_momentum_plan_below_the_batch_is_infeasible(capsys):
    code, out, err = run_cli(capsys, "plan", "--regime", "fixed-momentum", "--b", "1000",
                             "--t", "10")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["exit_code"] == 3 and "below batch size" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--points", "4", "--t-points", "2"],
        ["contour", "--alpha", "1", "--target", "0.5", "--k-points", "8"],
    ],
)
def test_memory_exhaustion_is_exit_4_naming_the_command(capsys, monkeypatch, argv):
    # both commands build their log-spaced axes first; no large array is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "logspace", exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["exit_code"] == 4 and doc["error"].startswith(f"{argv[0]}: out of memory")


@pytest.mark.parametrize(
    "argv, named",
    [
        ("--t0 1e-300 --eta0 1 --t1 1e300 --regime A", "eta1 = 0.0"),
        ("--t0 1e-300 --eta0 1 --t1 1e300 --b0 1 --b1 1e300 --setting sgd", "eta1 = 0.0"),
        ("--t0 1 --eta0 1e10 --t1 1 --b0 1 --b1 1e300 --setting sgd", "eta1 = inf"),
        ("--t0 1e-300 --eta0 1 --t1 1e300 --regime C --alpha0 0.5", "eta1 = nan"),
        ("--t0 1e300 --eta0 1e300 --t1 1e300 --b0 1 --b1 1 --setting sgd",
         "invariant c_eta = inf"),
    ],
)
def test_transfers_that_leave_the_float_range_exit_4(capsys, argv, named):
    code, out, err = run_cli(capsys, "transfer", *argv.split())
    assert code == 4 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["exit_code"] == 4 and f"transfer {named} leaves the float range" in doc["error"]


def test_transfer_batch_cap_below_one_is_invalid(capsys):
    code, out, err = run_cli(capsys, "transfer", "--t0", "1", "--eta0", "0.1", "--t1", "10",
                             "--regime", "A", "--b-max", "0.5")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "b_max must be >= 1, got 0.5"


def test_noise_mode_keeps_init_error_beside_tail_p(capsys):
    code, out, err = run_cli(capsys, "analyze", "--mode", "noise", "--tail-p", "1.5",
                             "--init-error", "0.3")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["init_error"] == 0.3 and doc["q"] == 1.0 - 1.0 / 1.5


@pytest.mark.parametrize("q, code", [("0.5", 0), ("0.25", 2)])
def test_noise_mode_q_beside_tail_p_must_agree(capsys, q, code):
    got, out, err = run_cli(capsys, "analyze", "--mode", "noise", "--tail-p", "2", "--q", q)
    assert got == code
    if code == 0:
        assert json.loads(out)["q"] == 0.5 and err == ""
    else:
        assert out == "" and json.loads(err) == {
            "error": "heavy_tail_p=2.0 requires q = 1 - 1/p = 0.5, got 0.25", "exit_code": 2}


@pytest.mark.parametrize("p", ["0", "1"])
def test_noise_mode_checks_tail_p_before_forming_q(capsys, p):
    code, out, err = run_cli(capsys, "analyze", "--mode", "noise", "--tail-p", p)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"heavy_tail_p must be in (1, 2], got {float(p)}",
                               "exit_code": 2}


@pytest.mark.parametrize("value, code", [("0", 0), ("1", 0), ("7", 2), ("-1", 2)])
def test_enforce_cap_is_zero_or_one(capsys, value, code):
    got, out, err = run_cli(capsys, "compare-sgd", "--t", "1e4", "--enforce-cap", value)
    assert got == code
    if code == 2:
        assert out == "" and json.loads(err)["error"] == \
            f"--enforce-cap must be one of (0, 1), got {value}"


def test_enforce_cap_help_lists_its_choices(capsys):
    code, out, _ = run_cli(capsys, "compare-sgd", "--help")
    assert code == 0 and "--enforce-cap {0,1}" in out
