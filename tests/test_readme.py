"""README.md states what the code does: its library example runs as shown,
its verify table lists the suites, its artifact table lists the files the
commands write, and each constant it quotes as `NAME` = value has that
value."""
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import specpot
from specpot import cli, verify

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
QUOTED = re.compile(r"`((?:\w+\.)?[A-Z][A-Z0-9_]*)` = ([-+0-9.e]+)")


def _constant(name: str):
    """specpot.<module>.NAME for "module.NAME", else the one module defining NAME."""
    if "." in name:
        module, name = name.split(".")
        return getattr(importlib.import_module(f"specpot.{module}"), name)
    values = {getattr(m, name) for m in (importlib.import_module(f"specpot.{info.name}")
                                         for info in pkgutil.iter_modules(specpot.__path__))
              if name in vars(m)}
    assert len(values) == 1, f"{name} is defined with values {values}"
    return values.pop()


def test_library_example_prints_feasible(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "feasible\n"


def test_verify_table_lists_every_suite():
    table = README.split("### Verification suites")[1].split("\n\n")[2]
    suites = re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE)
    assert suites == verify.SUITE_ORDER + ["all"]


def test_quoted_constants_match_the_code():
    quoted = QUOTED.findall(README)
    names = {name for name, _ in quoted}
    assert {"CLUSTER_TOL_REL", "POLYAK_RELAXATION", "TARGET_TOL", "EXTRA_PAIRS",
            "EXTRA_PAIRS_1D", "MAX_NODES", "MAX_TORUS_NODES", "cli.MAX_PROBES",
            "optimize.MAX_BOUND"} <= names
    for name, value in quoted:
        assert _constant(name) == float(value), name


def test_artifact_table_lists_what_the_commands_write():
    # the files cli.py names to _artifact, directly or through
    # _write_certificate, are exactly those the per-command table names
    table = README.split("| command | artifacts besides `report.json` |")[1].split("\n\n")[0]
    named = set(re.findall(r"`(\w+\.(?:csv|json))`", table))
    written = {arg.value for call in ast.walk(ast.parse(inspect.getsource(cli)))
               if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) in ("_artifact", "_write_certificate")
               for arg in call.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    assert "iterates.csv" in written
    assert named == written
