"""The package's public names, and what importing it loads."""

from __future__ import annotations

import os
import subprocess
import sys
import types

import congame

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
