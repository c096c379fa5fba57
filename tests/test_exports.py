"""Every exported name resolves, so removing a function cannot leave a dangling export."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import cvmeta
from cvmeta.cli import AnalysisReport
from cvmeta.numerics import RngState

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


def test_top_level_exports_each_module_all():
    modules = [cvmeta.core, cvmeta.errors, cvmeta.intervals, cvmeta.measures,
               cvmeta.simulator, cvmeta.datasets]
    assert cvmeta.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(cvmeta, name) is getattr(module, name), name


def test_names_the_benchmark_tracer_wraps_resolve():
    # bench/tracing.py wraps these names where the program imports them; a
    # missing one fails the traced benchmark run, so it fails here first
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(importlib.import_module(f"cvmeta.{m}"), attr) for m, attr, _ in tracing.WRAPPED]
    targets += [(RngState, "stream"), (AnalysisReport, "to_json")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if not hasattr(owner, attr)]
    assert missing == []
