"""CLI exit-code contract under generated argv and config files.

Every input must end in exit 0 with an empty stderr, or in exit 2, 3 or 4
with exactly one JSON line on stderr whose ``exit_code`` matches; never a
traceback, a warning or usage text.  Each drawn command mixes valid values
with a few boundary, non-finite or garbage ones, and may move some options
into a ``--config`` file.  Runs stay cheap: grids of at most 8 points per
axis, contours of at most 16 step counts, simulations of at most 64 steps.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lmoscale.cli import main

EDGE = ("0", "-1", "1e-300", "1e300", "1e308", "5e-324", "inf", "-inf", "nan", "1e400",
        "abc", "", "1,2", "0x10", "--", " ")
LIST_EDGE = ("", ",", "0", "-1", "inf", "0.1,nan", "x")
INT_EDGE = ("0", "-1", "x", "1.5", "nan", "")

POS = ("1", "0.5", "2", "7")
ALPHA = ("1", "0.5", "0.01")
CONSTANTS = {name: POS for name in ("c1", "c2", "c3", "norm-equiv")}
FORMAT = {"format": ("json", "csv")}
# the output, seed and thread options each command takes besides --out
COMMON = {"verify": {**FORMAT, "threads": ("1", "2")}, "contour": FORMAT,
          "simulate": {**FORMAT, "seed": ("0", "7")}}

# command -> (options always passed, options that may be passed); each maps
# an option to its valid values.  The ones always passed bound the cost.
COMMANDS = {
    "plan": (
        {"regime": ("fixed-momentum", "fixed-batch", "joint"), "t": ("64", "1e4", "1e8"),
         "b": ("1", "64")},
        {**CONSTANTS, "alpha": ALPHA},
    ),
    "transfer": (
        {"t0": ("1e6",), "eta0": ("0.001", "0.1"), "t1": ("1e6", "1e9"),
         "regime": ("A", "B", "C", "D", "sgd"),
         "setting": ("lmo-fixed-momentum", "lmo-tuned-momentum", "sgd")},
        {"b0": ("1", "32"), "alpha0": ALPHA, "b1": ("1", "64"), "b-max": ("100", "1e4")},
    ),
    "analyze": (
        {"mode": ("rate", "ceiling", "noise", "path"), "phi": ("0.75",), "q": ("0.5", "0.25"),
         "kappa": ("0.5",), "lam": ("0.75",), "p": ("0.5", "1")},
        {"b-exp": ("0", "0.5"), "alpha-exp": ("0", "0.5"), "eta-exp": ("0.25", "0.75"),
         "tail-p": ("1.5", "2"), "init-error": POS, "b": ("1", "64"),
         "t": ("1e6",)},
    ),
    "compare-sgd": (
        {"t": ("1e4", "1e8")},
        {"delta0": POS, "smoothness": POS, "noise-scale": POS, "b": ("1,10", "100"),
         "alpha": ALPHA, "enforce-cap": ("0", "1")},
    ),
    "contour": (
        {"alpha": ALPHA, "target": ("1.05", "2", "10"), "k-points": ("1", "8", "16")},
        {**CONSTANTS, "k-lo": ("1", "10"), "k-hi": ("1e6", "1e9"), "eta-floor": ("1e-8", "0.1")},
    ),
    "verify": (
        {"points": ("4", "8"), "t-points": ("8", "16"), "fit-decades": ("20",),
         "constraint": ("fixed-alpha", "fixed-b", "free", "fixed-eta", "capped-b"),
         "value": ("1",)},
        {**CONSTANTS, "objective": ("risk_tokens", "bound_tokens"),
         "eta-lo": ("1e-300", "1e-8"), "eta-hi": ("1", "1e4"), "alpha-lo": ("1e-10", "1e-3"),
         "b-hi": ("1e6", "1e15"), "t-lo": ("1e2", "1e6"), "t-hi": ("1e12", "1e22")},
    ),
    "simulate": (
        {"dim": ("1", "3"), "rows": ("1", "3"), "cols": ("2", "3"), "replicates": ("1", "2"),
         "t": ("8", "64", "4,64"), "b": ("1", "4", "1,8", "64"), "eta": ("0.01", "0.01,0.1"),
         "alpha": ("1", "0.5,1")},
        {"kind": ("noisy-quadratic", "matrix-least-squares"),
         "norm": ("euclidean", "max", "spectral"), "update": ("lmo", "sgd"),
         "init": ("matched", "zero"), "noise-sigma": ("0", "1"), "x0-scale": ("1", "0.1"),
         "spectrum-lo": ("0.05", "1"), "spectrum-hi": ("1", "2"), "data-seed": ("0", "3")},
    ),
}
LIST_OPTIONS = {("simulate", name) for name in ("t", "b", "eta", "alpha")} | {("compare-sgd", "b")}
INT_OPTIONS = {"points", "t-points", "k-points", "dim", "rows", "cols", "replicates", "seed",
               "threads", "data-seed", "enforce-cap"}

# JSON values of a config file that no flag can spell
CONFIG_ODDITIES = st.one_of(
    st.sampled_from((None, True, 0, -1, 3, 1.5, 1e300, [], [1, "a"], {"a": 1})),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _edge_values(command, name):
    if (command, name) in LIST_OPTIONS:
        return LIST_EDGE + ("1e300",)
    if name in INT_OPTIONS:
        return INT_EDGE
    return EDGE


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    always, optional = COMMANDS[command]
    optional = {**optional, **COMMON.get(command, {})}
    names = list(always) + draw(
        st.lists(st.sampled_from(sorted(optional)), max_size=4, unique=True)
    )
    valid = {**always, **optional}
    chosen = {name: draw(st.sampled_from(valid[name])) for name in names}
    n_edge = draw(st.sampled_from((0, 0, 1, 2)))
    for name in draw(st.lists(st.sampled_from(names), min_size=n_edge, max_size=n_edge)):
        chosen[name] = draw(st.sampled_from(_edge_values(command, name)))
    config = {}
    if draw(st.booleans()):
        config = {name: chosen[name] for name in draw(st.sets(st.sampled_from(names)))}
        if draw(st.integers(0, 3)) == 0:
            config[draw(st.sampled_from(sorted(optional)))] = draw(CONFIG_ODDITIES)
    argv = [command]
    for name, value in chosen.items():
        if name not in config:
            argv += [f"--{name}", value]
    stray = draw(st.sampled_from((None,) * 7 + ("--bogus", "stray", "--t")))
    return argv + ([stray] if stray else []), config


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_input_follows_the_exit_code_contract(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if config:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = argv[:1] + ["--config", path] + argv[1:]
        out, err = io.StringIO(), io.StringIO()
        # a warning would reach stderr in a real process
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    assert not caught, (argv, config, [str(w.message) for w in caught])
    assert code in (0, 2, 3, 4), (argv, config)
    if code == 0:
        assert err.getvalue() == "", (argv, config)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, config, err.getvalue())
        assert json.loads(lines[0])["exit_code"] == code
