"""The package's public names, and what importing it loads."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import types

import congame

from . import mutants
from .conftest import REPO


def test_all_lists_resolvable_non_module_names():
    assert len(congame.__all__) == len(set(congame.__all__))
    for name in congame.__all__:
        assert not isinstance(getattr(congame, name), types.ModuleType), name


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from congame import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(congame.__all__)


def test_import_loads_no_code_generators():
    # every congame command pays for its imports at start-up; dataclasses
    # brings inspect, ast, dis and tokenize, statistics brings fractions and
    # decimal.  -S keeps the environment's site hooks from loading any first.
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "statistics"]
    code = "import sys, congame, congame.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code, *heavy],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


def _read_names(path, dotted: bool) -> tuple[set[str], set[str]]:
    """The functions, classes and methods that `path` defines, and the names
    and attributes that its code reads; with `dotted`, also the parts of each
    dotted string, such as the span name ``"adaptation.adapt_step"``."""
    defined, used = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif dotted and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"\w+(\.\w+)+", node.value):
            used.update(node.value.split("."))
    return defined, used


def test_every_definition_is_used_outside_the_tests():
    # a function, class or method that only the tests reach is dead weight:
    # each name must be read somewhere in the package (an import alone does
    # not count) or by the benchmark harness's code, not by its prose
    defined, used = set(), set()
    for path in sorted((REPO / "src" / "congame").glob("*.py")):
        names, reads = _read_names(path, dotted=False)
        defined |= names
        used |= reads
    for path in sorted((REPO / "perfbench").glob("*.py")):
        used |= _read_names(path, dotted=True)[1]
    unused = sorted(n for n in defined - used if not (n.startswith("__") and n.endswith("__")))
    assert not unused, f"defined but never used outside the tests: {', '.join(unused)}"


def test_every_mutant_text_occurs_once():
    # `python -m tests.mutants` rejects a row whose text is not found exactly
    # once; this finds a refactor that moves one without running the mutants
    assert {m.name: mutants.occurrences(m) for m in mutants.MUTANTS} == \
        {m.name: 1 for m in mutants.MUTANTS}
