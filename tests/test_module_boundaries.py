"""No module of udes imports a name that a sibling keeps private: what one
module shares with another has a name without a leading underscore."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "udes"


def private_imports(source: str) -> list:
    """(line, module, name) of every `from .module import _name`, and of
    every `from . import _module`, in a module's source."""
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_siblings_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_reads_every_form_of_a_relative_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as _np\n"
        "from .su2 import (\n"
        "    PAULI_BASIS,\n"
        "    _hidden,\n"
        ")\n"
        "from .twirl import UnitarySet, _kept as kept\n"
        "from . import _private, moments\n"
        "def f():\n"
        "    from .linalg import _local\n"
    )
    assert private_imports(source) == [
        (3, "su2", "_hidden"),
        (7, "twirl", "_kept"),
        (8, None, "_private"),
        (10, "linalg", "_local"),
    ]
