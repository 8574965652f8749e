"""The benchmark's tracer (udesbench/tracer.py) patches functions by name;
every (module, attribute path) it lists has to stay bound on udes."""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "udesbench" / "tracer.py"


def _traced() -> tuple:
    """The TRACED literal, read from the source without importing the tracer."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED assignment in the tracer")


@pytest.mark.parametrize("module,path", _traced())
def test_every_traced_name_is_bound(module, path):
    owner = importlib.import_module(f"udes.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
