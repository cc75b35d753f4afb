"""The benchmark's entry points exist in gaussum.

perfbench/tracing.py rebinds functions by name for `run.py --trace 1`; a
renamed or deleted function would silently drop out of the per-layer
report.  perfbench/run.py and perfbench/checks.py call
circuit.simulate_approx with the seed, workers and energy_override keywords
and `gaussum simulate` with --seed, --workers and --energy-bound, and
checks.py calls the library and the number-basis oracle by name after the
timed loop; losing one would break every benchmark run, so tier-1 checks
them here.  The perfbench modules are read from the checkout, never edited.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gaussum
import gaussum.cli
from gaussum.circuit import simulate_approx
from gaussum.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load("tracing")
TRACED = TRACING.TRACED

# two terms, entangled and squeezed, every mode measured
ORACLE_REQUEST = json.dumps({
    "modes": 2,
    "state": {"type": "terms", "terms": [
        {"coeff": [1.0, 0.0], "alpha": [[0.4, 0.0], [0.0, 0.1]]},
        {"coeff": [0.6, 0.3], "alpha": [[-0.4, 0.0], [0.2, 0.0]]}]},
    "gates": [{"op": "beamsplitter", "modes": [1, 2], "omega": 0.5},
              {"op": "squeeze", "mode": 1, "z": 0.3}],
    "measure": {"k": 2, "beta": [[0.1, 0.2], [-0.1, 0.0]]}})


@pytest.mark.parametrize("short", sorted(TRACED))
def test_traced_functions_exist(short):
    module = importlib.import_module(f"gaussum.{short}")
    for name in TRACED[short]:
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"gaussum.{short}.{name} is not a function"


def test_tracer_sees_every_gate_layer():
    # apply_unitary must reach a squeeze through evolution.apply_squeeze, or
    # the benchmark's per-layer count of squeezes reads zero
    psi = gaussum.GaussianSuperposition(np.ones(2), tuple(
        gaussum.coherent_description([a, 0.2j]) for a in (0.7, -0.7)))
    tracer = TRACING.Tracer()
    tracer.install()
    try:
        gaussum.circuit.evolve(psi, [gaussum.Squeeze(0.4, 2), gaussum.Beamsplitter(0.5, 1, 2)])
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans()]
    assert names.count("evolution.apply_squeeze") == 1, f"spans {names}"
    assert names.count("evolution.apply_unitary") == 2, f"spans {names}"


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


def test_oracle_check_runs():
    request = SimpleNamespace(slot="guard", document=ORACLE_REQUEST)
    result = _load("checks").oracle_check(gaussum, request)
    assert result["ok"], f"oracle check failed: {result}"


@pytest.mark.parametrize("path", [
    "circuit.evolve", "circuit.parse_circuit", "circuit.simulate_exact",
    "superposition.measureprob_exact", "cat_state", "vacuum_description",
    "superposition_energy_exact", "fast_norm_parameters", "fast_norm", "cli.main"])
def test_checked_library_calls_exist(path):
    target = gaussum
    for name in path.split("."):
        target = getattr(target, name, None)
        assert target is not None, f"gaussum.{path} is missing"
    assert callable(target), f"gaussum.{path} is not callable"
