"""Each CLI call builds the options of the named command only.

``main`` must parse every argv as ``oracles.reference_parser``, which holds
all seven commands' options, does: the same namespace, the same error
message, the same help text.
"""

import argparse
import contextlib
import io
import json
import shutil
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from lmoscale import cli
from lmoscale.errors import DomainError
from oracles import reference_parser
from test_cli_contract import invocations


class _Parsed(Exception):
    """Stops ``main`` at the parsed namespace, before the command runs."""


def _stop(command, args):
    raise _Parsed(vars(args))


def _main_parse(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_merge_config", _stop), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except _Parsed as parsed:
            return "namespace", parsed.args[0]
    if code == cli.EXIT_OK:
        return "help", out.getvalue()
    assert code == cli.EXIT_INVALID and out.getvalue() == ""
    return "error", json.loads(err.getvalue())["error"]


def _reference_parse(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", vars(reference_parser().parse_args(list(argv)))
    except DomainError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        assert exc.code == 0
        return "help", out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_generated_argv_parses_as_with_every_command_built(invocation):
    argv, config = invocation
    if config:  # the file is only named, never read
        argv = argv[:1] + ["--config", "config.json"] + argv[1:]
    assert _main_parse(argv) == _reference_parse(argv), argv


JOINT = ["--regime", "joint", "--t", "1e6"]
EDGE_ARGV = [
    ["--help"], ["-h"], [], ["bogus"], ["bogus", "plan"], ["-h", "plan"], ["--out", "plan"],
    ["--", "plan", *JOINT], ["-5", "verify"], ["plan", "--reg", "joint", "--t", "1e6"],
    ["plan", *JOINT, "verify"], ["plan", "--out", "verify", *JOINT], ["verify", "plan"],
    ["simulate", "--kind", "plan"], ["plan", "--help", "verify"], ["plan", "--bogus"],
    ["plan", "--", "transfer"], ["compare-sgd", "--t", "1e4", "--enforce-cap", "2"],
    *([name, "--help"] for name in cli._SPECS),
]


# the help width is read once per call: COLUMNS unset and at three widths, 80 with the bare id
WIDTHS = (None, "40", "80", "200")


@pytest.mark.parametrize("argv, columns", [
    pytest.param(argv, columns, id=" ".join(argv) + {None: " COLUMNS unset", "80": ""}.get(columns, f" COLUMNS={columns}"))
    for argv in EDGE_ARGV for columns in WIDTHS])
def test_edge_argv_parses_and_helps_as_with_every_command_built(monkeypatch, argv, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert _main_parse(argv) == _reference_parse(argv)


def test_a_call_reads_the_terminal_once_and_helps_only_the_named_command(monkeypatch, capsys):
    queries, built = [], []
    get_terminal_size, build_parser = shutil.get_terminal_size, cli._build_parser

    def counting(*args, **kwargs):
        queries.append(args)
        return get_terminal_size(*args, **kwargs)

    def keeping(command):
        built.append(build_parser(command))
        return built[-1]

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    monkeypatch.setattr(cli, "_build_parser", keeping)
    assert cli.main(["plan", *JOINT]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "joint"
    assert len(queries) <= 1
    (parser,) = built
    (subs,) = (action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    helped = {name for name, sub in subs.choices.items()
              if any(isinstance(action, argparse._HelpAction) for action in sub._actions)}
    assert helped == {"plan"}


def test_a_call_adds_only_the_named_command_options(monkeypatch, capsys):
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        if args[:1] != ("-h",):  # every parser's own help option
            added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    assert cli.main(["plan", *JOINT]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "joint"
    assert len(added) <= len(cli._SPECS["plan"]) + 1  # its options and --config
