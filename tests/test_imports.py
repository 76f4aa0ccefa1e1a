"""Every name imported into an agentdesk module is used in that module."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "agentdesk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other line mentions as a
    whole word (string annotations count as a mention)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    rest = "\n".join(lines)
    return [name for name in imported if not re.search(rf"\b{re.escape(name)}\b", rest)]


def test_finds_an_unused_import():
    source = "from os import path, sep\nimport json as js\nprint(sep)\n"
    assert unused_imports(source) == ["path", "js"]


def test_modules_are_found():
    assert {"agents.py", "backtest.py", "datasynth.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text("utf-8")) == []
