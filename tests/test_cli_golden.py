"""CLI golden outputs: fixed invocations against a recorded fixture.

Each invocation's exit code, stdout, stderr and ``--out`` files must match
``tests/data/cli_golden.json``: everything but the numbers compares
exactly (keys, strings, structure, error text), and every number compares
to a relative 1e-9.  ``{out}`` in an argv stands for a fresh output path.

Regenerate the fixture (only for an intended output change) with
``PYTHONPATH=src python tests/test_cli_golden.py --write``.
"""

import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from lmoscale import contours, grid, sim
from lmoscale.cli import main, records_from_csv

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"

VERIFY = ["verify", "--points", "8", "--t-lo", "1e6", "--t-hi", "1e12", "--t-points", "6",
          "--fit-decades", "20"]
CONTOUR = ["contour", "--alpha", "1", "--target", "0.5", "--delta0", "1", "--smoothness", "1",
           "--noise-scale", "1", "--k-lo", "100", "--k-hi", "1e6", "--k-points", "5"]
SIMULATE = ["simulate", "--dim", "4", "--eta", "0.01,0.1", "--alpha", "0.5,1", "--b", "1,4",
            "--t", "16,64", "--replicates", "2", "--seed", "3"]

INVOCATIONS = [
    ["plan", "--regime", "fixed-momentum", "--t", "1e8"],
    ["plan", "--regime", "fixed-momentum", "--t", "1e8", "--b", "64", "--alpha", "0.1"],
    ["plan", "--regime", "fixed-batch", "--b", "64", "--t", "1e8"],
    ["plan", "--regime", "joint", "--t", "1e6", "--c1", "2", "--c2", "0.5"],
    ["transfer", "--t0", "1e6", "--eta0", "0.01", "--alpha0", "0.5", "--t1", "1e9",
     "--regime", "D"],
    ["transfer", "--t0", "1e8", "--b0", "37", "--eta0", "2.5e-3", "--alpha0", "0.1",
     "--t1", "4e8", "--b1", "148", "--setting", "lmo-tuned-momentum", "--b-max", "100"],
    ["analyze", "--mode", "rate", "--b-exp", "0.5", "--alpha-exp", "0.25", "--eta-exp", "0.5"],
    ["analyze", "--mode", "ceiling", "--phi", "0.75"],
    ["analyze", "--mode", "noise", "--q", "0.25", "--init-error", "2", "--b", "8"],
    ["analyze", "--mode", "noise", "--tail-p", "1.5"],
    ["analyze", "--mode", "path", "--kappa", "0.25", "--lam", "0.75", "--p", "0.5"],
    ["compare-sgd", "--t", "1e4", "--b", "1,10,100", "--enforce-cap", "1"],
    CONTOUR,
    CONTOUR + ["--format", "csv", "--out", "{out}"],
    VERIFY + ["--constraint", "fixed-alpha", "--value", "0.5"],
    VERIFY + ["--constraint", "fixed-alpha", "--value", "0.5", "--format", "csv",
              "--out", "{out}"],
    VERIFY + ["--constraint", "fixed-b", "--value", "64", "--threads", "2", "--format", "csv"],
    SIMULATE,
    SIMULATE + ["--format", "csv", "--out", "{out}"],
    SIMULATE + ["--norm", "euclidean", "--update", "sgd", "--format", "csv"],
    # the rejects of the benchmark's point queries, whose error text is compared
    ["plan", "--regime", "fixed-batch", "--t", "1e6"],
    ["plan", "--regime", "fixed-batch", "--b", "1000", "--t", "100"],
    ["transfer", "--t0", "1e6", "--eta0", "0.001", "--t1", "1e5", "--regime", "A"],
    ["analyze", "--mode", "ceiling"],
    ["verify", "--constraint", "capped-b", "--value", "50", "--b-lo", "500", "--b-hi", "5e4",
     "--points", "8"],
    ["plan", "--regime", "fixed-momentum", "--t", "1e6", "--alpha", "0"],
]


def run(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and the files written under ``{out}``."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([out_path if a == "{out}" else a for a in argv])
        files = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                files[name] = fh.read()
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def assert_same_text(got: str, want: str, where: str) -> None:
    """Everything but the numbers exactly, the numbers to rel 1e-9."""
    assert _NUMBER.split(got) == _NUMBER.split(want), where
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert math.isclose(float(g), float(w), rel_tol=1e-9) or g == w, (where, g, w)


@functools.cache
def _golden() -> list[dict]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(INVOCATIONS)),
                         ids=[" ".join(a[:3]) for a in INVOCATIONS])
def test_cli_output_matches_the_golden(index):
    want = _golden()[index]
    got = run(want["argv"])
    where = " ".join(want["argv"])
    assert got["exit"] == want["exit"], where
    assert sorted(got["files"]) == sorted(want["files"]), where
    for key in ("stdout", "stderr"):
        assert_same_text(got[key], want[key], f"{where}: {key}")
    for name, text in want["files"].items():
        assert_same_text(got["files"][name], text, f"{where}: {name}")


def test_golden_covers_every_invocation():
    assert [w["argv"] for w in _golden()] == INVOCATIONS


@pytest.mark.parametrize(
    "argv, cls, tables",
    [
        (CONTOUR, contours.LevelPoint, {"out": "points"}),
        (VERIFY + ["--constraint", "fixed-alpha", "--value", "0.5"], grid.SweepRecord,
         {"out": "records"}),
        (SIMULATE, sim.SimPoint, {"out": "best", "out.points.csv": "points"}),
    ],
    ids=["contour", "verify", "simulate"],
)
def test_csv_and_json_give_equal_records(argv, cls, tables):
    doc = json.loads(run(argv)["stdout"])
    files = run(argv + ["--format", "csv", "--out", "{out}"])["files"]
    for name, rows_key in tables.items():
        records = records_from_csv(files[name])
        assert [type(r) for r in records] == [cls] * len(doc[rows_key])
        # as text, so an int read back as a float shows
        assert [json.dumps(dataclasses.asdict(r)) for r in records] == \
            [json.dumps(row) for row in doc[rows_key]], (name, rows_key)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps([run(a) for a in INVOCATIONS], indent=1) + "\n",
                       encoding="utf-8")
