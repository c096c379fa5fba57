"""Every exported name resolves, so removing a function cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import cvmeta

MODULES = ["cvmeta"] + [
    f"cvmeta.{info.name}" for info in pkgutil.iter_modules(cvmeta.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_modules_with_exports_are_checked():
    with_all = [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]
    assert {"cvmeta", "cvmeta.core", "cvmeta.intervals", "cvmeta.datasets"} <= set(with_all)


def test_top_level_all_has_no_duplicates():
    assert len(cvmeta.__all__) == len(set(cvmeta.__all__))
