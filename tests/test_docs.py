"""The names README.md quotes, held to the code: a table, command, config
key or constant that the code no longer has fails here, so the README
cannot keep a stale copy of a fact whose home is the code."""
from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

import floquet_hhg
from floquet_hhg import cli, config
from floquet_hhg.config import apply_overrides, from_dict, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
PARAGRAPHS = re.split(r"\n\s*\n", README)
(MINIMAL_TEXT,) = re.findall(r"```json\n(.*?)```", README, re.S)
MINIMAL = json.loads(MINIMAL_TEXT)


def _ticked(text: str) -> list[str]:
    """The backticked names of a text, a trailing ``()`` dropped."""
    names = (m.removesuffix("()") for m in re.findall(r"`([^`]+)`", text))
    return [name for name in names if name.isidentifier()]


def _paragraph(lead: str) -> str:
    (found,) = [p for p in PARAGRAPHS if p.startswith(lead)]
    return found


def _table(header: str) -> list[list[str]]:
    """The cells of each body row of the table whose header row starts
    with ``header``."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _module(name: str):
    # floquet_hhg.compare is the function; its module is reached by import
    return importlib.import_module(f"floquet_hhg.{name}")


def test_layout_names_every_module():
    package = Path(floquet_hhg.__file__).parent
    named = {row[0].strip("`") for row in _table("| module |")}
    assert named == {p.stem for p in package.glob("*.py")
                     if not p.stem.startswith("_")}


OBJECTS = _table("| object |")


def test_stored_and_derived_table_lists_the_five_objects():
    assert {row[0].strip("`") for row in OBJECTS} == {
        "solver.ResonanceState", "observables.ModeAmplitudes",
        "oracle.Trajectory", "oracle.DiscretizedSystem",
        "compare.CheckResult"}


@pytest.mark.parametrize("row", OBJECTS, ids=lambda row: row[0].strip("`"))
def test_stored_and_derived_match_the_class(row):
    # stored: the init fields; derived: the properties, the methods and
    # the fields built on construction
    module, name = row[0].strip("`").split(".")
    cls = getattr(_module(module), name)
    fields = dataclasses.fields(cls)
    derived = {attr for attr, value in vars(cls).items()
               if not attr.startswith("_")
               and (isinstance(value, property) or inspect.isfunction(value))}
    derived |= {f.name for f in fields if not f.init}
    assert set(_ticked(row[1])) == {f.name for f in fields if f.init}
    assert set(_ticked(row[2])) == derived


def test_cli_table_names_every_command():
    assert {row[0].strip("`") for row in _table("| command |")} \
        == set(cli._DISPATCH)


def test_config_keys_are_the_config_keys():
    assert set(_ticked(_paragraph("Config keys:"))) == set(config._KEYS)


def test_minimal_config_parses():
    assert parse_config(MINIMAL_TEXT).to_dict().items() >= MINIMAL.items()


def test_override_examples_apply():
    examples = re.findall(r"`(--override [^`]+)`", README)
    items = [item for example in examples
             for item in shlex.split(example) if item != "--override"]
    assert items
    # as the CLI does: overrides reach into the materialized config
    from_dict(apply_overrides(parse_config(MINIMAL_TEXT).to_dict(), items))


REJECTED = _ticked(_paragraph("Not config keys"))


def test_rejected_keys_are_listed():
    assert REJECTED


@pytest.mark.parametrize("key", REJECTED)
def test_rejected_key_is_unknown(key):
    with pytest.raises(ValueError,
                       match=rf"^unknown config keys: \['{key}'\]$"):
        parse_config(json.dumps(dict(MINIMAL, **{key: 1})))


# only the qualified form `module.NAME = value` is checked, and it is the
# only form a constant may be quoted in
CONSTANTS = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*) = ([^`]+)`", README)


def test_constants_are_quoted_with_their_module():
    assert {name for _, name, _ in CONSTANTS} >= {
        "LADDER_TOL", "SURVIVAL_WINDOW", "ROOT_TOL", "BLOCK"}
    assert not re.findall(r"`[A-Z][A-Z0-9_]* = ", README)


@pytest.mark.parametrize("module, name, value", CONSTANTS,
                         ids=[f"{m}.{n}" for m, n, _ in CONSTANTS])
def test_quoted_constant_is_the_code_value(module, name, value):
    assert getattr(_module(module), name) == ast.literal_eval(value)
