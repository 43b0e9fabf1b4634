"""Source hygiene: every name a module of the package imports is used there,
the model nodes never decide by drop mode, and the training and analysis
entry points take a resolved selection map, not a drop mode, step and head
seed. Q, K and V are built in one place: the attention cache holds X, S and
A, and only the attention forward and backward call `mhsa_projections`.
Every public function and class of `layers.py` has a caller in the package,
so no kernel lives on that only the tests run, and each operator there has
one public backward.

No linter ships with the project, so this walks the syntax trees itself. An
import inside a function must be used in that function; a module-level one
anywhere in the module. `sbp/__init__.py` only re-exports and is skipped.
A node runs under the `Selection` the engine resolves for it, so `models.py`
holds no drop-mode string.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import sbp.engine
from sbp.analysis import (activation_memory_estimate, grad_similarity_experiment,
                          measure_step_peaks)
from sbp.config import SBP_MODES
from sbp.engine import backward, forward
from sbp.layers import MhsaCache

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


def drop_mode_uses(source: str) -> list[str]:
    """String constants naming a drop mode, and names, arguments and
    attributes called `mode` or `head_keep`. The first argument of a
    `ClassifierNode(...)` call is a node id, not a mode: the classifier's
    id is "head"."""
    tree = ast.parse(source)
    node_ids = {id(node.args[0]) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ClassifierNode"
                 and node.args}
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "arg", None) or getattr(node, "attr", None)
        if name in ("mode", "head_keep"):
            found.append(f"line {node.lineno}: {name}")
        elif (isinstance(node, ast.Constant) and node.value in SBP_MODES
              and id(node) not in node_ids):
            found.append(f"line {node.lineno}: {node.value!r}")
    return sorted(found)


def test_models_hold_no_drop_mode():
    assert drop_mode_uses((PACKAGE / "models.py").read_text()) == []


def test_checker_sees_drop_modes():
    source = ('ClassifierNode("head", 4, 2, rng)\n'
              'def f(rec, head_keep):\n    return rec.mode == "qkv" or head_keep\n')
    assert drop_mode_uses(source) == ["line 2: head_keep", "line 3: 'qkv'", "line 3: head_keep",
                                      "line 3: mode"]


@pytest.mark.parametrize("fn", [forward, backward, measure_step_peaks,
                                activation_memory_estimate, grad_similarity_experiment],
                         ids=lambda fn: fn.__name__)
def test_takes_a_selection_map(fn):
    """`engine.resolve` is the one place a plan, drop mode, step and head
    seed become selections; everything downstream takes its map."""
    assert not {"mode", "step", "head_seed"} & set(inspect.signature(fn).parameters)


def test_engine_has_no_per_node_context():
    assert not hasattr(sbp.engine, "sbp_context")
    assert callable(sbp.engine.resolve)


def callers_of(source: str, name: str) -> list[str]:
    """The functions of a module that call `name`, one entry per call."""
    tree = ast.parse(source)
    return sorted(scope.name for scope in ast.walk(tree) if isinstance(scope, SCOPES)
                  for node in ast.walk(scope)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name)


def test_only_the_attention_kernels_build_qkv():
    callers = {module: callers_of((PACKAGE / module).read_text(), "mhsa_projections")
               for module in MODULES}
    assert {m: c for m, c in callers.items() if c} == {
        "layers.py": ["mhsa_backward", "mhsa_forward"]}
    assert "mhsa_projections" not in (PACKAGE / "models.py").read_text()


def test_attention_cache_is_x_s_a():
    assert [f.name for f in dataclasses.fields(MhsaCache)] == ["x", "s", "a"]


def uncalled_public_defs(sources: dict[str, str], module: str) -> list[str]:
    """The public top-level functions and classes of `module` (one of the
    `sources`, by file name) that no source names outside their own
    definition. An import alone does not name it; a use does."""
    defs, named = [], set()
    for name, source in sources.items():
        for top in ast.parse(source).body:
            own = None
            if name == module and isinstance(top, (*SCOPES, ast.ClassDef)):
                own = top.name
                if not own.startswith("_"):
                    defs.append(own)
            named |= {getattr(n, "id", None) or getattr(n, "attr", None)
                      for n in ast.walk(top) if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    return [d for d in defs if d not in named]


def test_every_public_layer_has_a_caller():
    """A kernel in `layers.py` that only tests call cannot come back; the
    re-exports of `__init__.py` do not count as calls."""
    sources = {m: (PACKAGE / m).read_text() for m in MODULES}
    assert uncalled_public_defs(sources, "layers.py") == []


def test_checker_sees_uncalled_defs():
    sources = {"a.py": ("def f(x):\n    return f(x - 1)\ndef g():\n    return 1\n"
                        "class C:\n    pass\nclass D:\n    pass\ndef _h():\n    pass\n"),
               "b.py": "from .a import C, D, g\ny: D = g()\n"}
    assert uncalled_public_defs(sources, "a.py") == ["f", "C"]


def shared_backward_prefixes(source: str) -> dict[str, list[str]]:
    """The operator prefixes (a name's part before `_backward`) that two or
    more public top-level `*_backward*` functions of a module share, with
    those functions."""
    by_prefix = {}
    for top in ast.parse(source).body:
        if isinstance(top, SCOPES) and "_backward" in top.name and not top.name.startswith("_"):
            by_prefix.setdefault(top.name.split("_backward")[0], []).append(top.name)
    return {prefix: names for prefix, names in by_prefix.items() if len(names) > 1}


def test_one_backward_per_operator():
    """A masked variant of an operator's backward is the one backward run on
    less, never a second function the oracle would check it against."""
    assert shared_backward_prefixes((PACKAGE / "layers.py").read_text()) == {}


def test_checker_sees_shared_backward_prefixes():
    source = ("def conv2d_backward_full():\n    pass\ndef conv2d_backward_sbp():\n    pass\n"
              "def gelu_backward():\n    pass\ndef _gelu_backward_fast():\n    pass\n"
              "def linear_backward_kept():\n    pass\n")
    assert shared_backward_prefixes(source) == {
        "conv2d": ["conv2d_backward_full", "conv2d_backward_sbp"]}
