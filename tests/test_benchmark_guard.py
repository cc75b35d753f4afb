"""The benchmark's tracer names real gaussum functions.

perfbench/tracing.py rebinds functions by name for `run.py --trace 1`; a
renamed or deleted function would silently drop out of the per-layer
report.  The tracer module is read from the checkout, never edited.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_tracing().TRACED


@pytest.mark.parametrize("short", sorted(TRACED))
def test_traced_functions_exist(short):
    module = importlib.import_module(f"gaussum.{short}")
    for name in TRACED[short]:
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"gaussum.{short}.{name} is not a function"
