"""Source hygiene: every name a module of the package imports is used there.

No linter ships with the project, so this walks the syntax trees itself. An
import inside a function must be used in that function; a module-level one
anywhere in the module. `sbp/__init__.py` only re-exports and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sbp"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    scope_of = {}
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, SCOPES))]:
        for node in ast.walk(scope):
            scope_of[node] = scope  # inner scopes are walked later and win
    used = {}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        scope = scope_of[node]
        if scope not in used:
            used[scope] = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used[scope]:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_checker_sees_unused_names():
    assert "models.py" in MODULES
    source = ("from dataclasses import dataclass, field\nimport numpy as np\n"
              "def f():\n    from math import pi, tau\n    return np.sqrt(pi)\n"
              "@dataclass\nclass A:\n    pass\n")
    assert unused_imports(source) == ["line 1: field", "line 4: tau"]
