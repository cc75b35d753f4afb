"""The benchmark's entry points exist in gaussum.

perfbench/tracing.py rebinds functions by name for `run.py --trace 1`; a
renamed or deleted function would silently drop out of the per-layer
report.  The tracer module is read from the checkout, never edited.
perfbench/run.py and perfbench/checks.py call circuit.simulate_approx with
the seed, workers and energy_override keywords and `gaussum simulate` with
--seed, --workers and --energy-bound; losing one would break every
benchmark run, so tier-1 checks them here.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from gaussum.circuit import simulate_approx
from gaussum.cli import build_parser

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


@pytest.mark.parametrize("keyword", ["seed", "workers", "energy_override"])
def test_simulate_approx_takes_benchmark_keywords(keyword):
    parameter = inspect.signature(simulate_approx).parameters.get(keyword)
    assert parameter is not None, f"simulate_approx lost its {keyword} keyword"
    assert parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)


@pytest.mark.parametrize("flag, value, dest", [
    ("--seed", "7", "seed"), ("--workers", "2", "workers"),
    ("--energy-bound", "2.5", "energy_bound")])
def test_simulate_command_takes_benchmark_flags(flag, value, dest):
    args = build_parser().parse_args(
        ["simulate", "--circuit", "c.json", "--method", "approx", flag, value])
    assert getattr(args, dest) == type(getattr(args, dest))(value)
