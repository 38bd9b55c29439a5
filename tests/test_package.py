"""The package's public names."""

from __future__ import annotations

import types

import congame


def test_all_lists_resolvable_non_module_names():
    assert len(congame.__all__) == len(set(congame.__all__))
    for name in congame.__all__:
        assert not isinstance(getattr(congame, name), types.ModuleType), name


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from congame import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(congame.__all__)
