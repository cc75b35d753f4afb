"""Tests for the command-line interface.

The tests drive ``gaussum.cli.main`` in-process with an explicit argv and
capture stdout/stderr, checking the documented exit codes and the JSON
payloads printed on each stream.  The import guard runs in a fresh
interpreter, since this process has long since imported the oracle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gaussum.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from gaussum.circuit import evolve, parse_circuit
from gaussum.overlaps import overlap

SRC = Path(__file__).resolve().parent.parent / "src"

VACUUM_MEASURED = """
{
  "modes": 1,
  "state": {"type": "terms", "terms": [{"coeff": [1.0, 0.0]}]},
  "gates": [],
  "measure": {"k": 1, "beta": [[0.0, 0.0]]}
}
"""

CAT_MEASURED = """
{
  "modes": 1,
  "state": {"type": "cat", "alpha": [1.0, 0.0], "parity": "even"},
  "gates": [{"op": "squeeze", "mode": 1, "z": 0.3}],
  "measure": {"k": 1, "beta": [[0.2, -0.1]]}
}
"""

DISPLACED = """
{
  "modes": 1,
  "state": {"type": "terms", "terms": [{"coeff": [1.0, 0.0]}]},
  "gates": [{"op": "displacement", "alpha": [[1.0, 0.0]]}]
}
"""

TWO_MODE = """
{
  "modes": 2,
  "state": {"type": "terms", "terms": [{"coeff": [1.0, 0.0]}]},
  "gates": []
}
"""

BRIGHT_POINTER = """
{
  "modes": 2,
  "state": {"type": "appendixD", "p": 0.5, "r": 26.0, "z": 0.3},
  "gates": [],
  "measure": {"k": 1, "beta": [[26.0, 0.0]]}
}
"""

ODD_CAT = """
{
  "modes": 1,
  "state": {"type": "cat", "alpha": [0.7, 0.4], "parity": "odd"},
  "gates": [{"op": "phaseshift", "mode": 1, "phi": 0.9},
            {"op": "squeeze", "mode": 1, "z": -0.5},
            {"op": "displacement", "alpha": [[0.3, -0.2]]}]
}
"""

BAD_MEASURE = """
{
  "modes": 1,
  "state": {"type": "terms", "terms": [{"coeff": [1.0, 0.0]}]},
  "gates": [],
  "measure": {"k": 2, "beta": [[0.0, 0.0], [0.0, 0.0]]}
}
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    """The simulate subcommand in both methods."""

    def test_exact_vacuum_density(self, tmp_path, capsys):
        path = _write(tmp_path, "vac.json", VACUUM_MEASURED)
        code, out, err = _run(capsys, ["simulate", "--circuit", path])
        assert code == EXIT_OK
        assert err == ""
        payload = json.loads(out)
        assert payload["method"] == "exact"
        assert abs(payload["p"] - 1.0 / np.pi) < 1e-12, (
            f"vacuum density {payload['p']} is not 1/pi")

    def test_approx_seeded_runs_are_identical(self, tmp_path, capsys):
        path = _write(tmp_path, "vac.json", VACUUM_MEASURED)
        argv = ["simulate", "--circuit", path, "--method", "approx",
                "--seed", "7", "--epsilon", "0.4", "--p-fail", "0.2"]
        code1, out1, _ = _run(capsys, argv)
        code2, out2, _ = _run(capsys, argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2, "seeded approx runs must print identical JSON"
        payload = json.loads(out1)
        assert payload["method"] == "approx"
        assert payload["seed"] == 7

    def test_approx_worker_count_does_not_change_output(self, tmp_path, capsys):
        path = _write(tmp_path, "cat.json", CAT_MEASURED)
        base = ["simulate", "--circuit", path, "--method", "approx",
                "--seed", "11", "--epsilon", "0.5", "--p-fail", "0.25"]
        _, out1, _ = _run(capsys, base + ["--workers", "1"])
        _, out3, _ = _run(capsys, base + ["--workers", "3"])
        assert out1 == out3, "worker count must not alter the sampled density"

    def test_energy_bound_pins_radius_and_sample_count(self, tmp_path, capsys):
        path = _write(tmp_path, "vac.json", VACUUM_MEASURED)
        code, out, _ = _run(capsys, [
            "simulate", "--circuit", path, "--method", "approx",
            "--seed", "1", "--epsilon", "0.5", "--p-fail", "0.25",
            "--energy-bound", "2.0"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["energy_bound"] == 2.0
        assert payload["R"] == 2.0
        assert payload["L"] == 6

    def test_negligible_branch_dropped_silently(self, tmp_path, capsys):
        # At β = 26 the vacuum branch weighs e^{-338} of the bright one: it is
        # dropped, p is the closed form, and the schema stays {p, method}.
        path = _write(tmp_path, "bright.json", BRIGHT_POINTER)
        code, out, _ = _run(capsys, ["simulate", "--circuit", path])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {"p", "method"}
        expected = (np.exp(-26.0 ** 2) + 1.0) / (2.0 * np.pi)
        assert payload["p"] == pytest.approx(expected, rel=1e-12)

    def test_fresh_seed_is_reported_and_reusable(self, tmp_path, capsys):
        path = _write(tmp_path, "vac.json", VACUUM_MEASURED)
        code, out, _ = _run(capsys, [
            "simulate", "--circuit", path, "--method", "approx",
            "--epsilon", "0.5", "--p-fail", "0.25", "--energy-bound", "2.0"])
        assert code == EXIT_OK
        first = json.loads(out)
        _, out2, _ = _run(capsys, [
            "simulate", "--circuit", path, "--method", "approx",
            "--epsilon", "0.5", "--p-fail", "0.25", "--energy-bound", "2.0",
            "--seed", str(first["seed"])])
        assert json.loads(out2)["p"] == first["p"]


class TestNorm:
    """The norm subcommand in both methods."""

    def test_exact_norm_of_normalized_cat(self, tmp_path, capsys):
        path = _write(tmp_path, "cat.json", CAT_MEASURED)
        code, out, _ = _run(capsys, ["norm", "--circuit", path])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["method"] == "exact"
        assert abs(payload["norm"] - 1.0) < 1e-10
        assert abs(payload["norm_sq"] - 1.0) < 1e-10

    def test_approx_reports_parameters_and_seed(self, tmp_path, capsys):
        path = _write(tmp_path, "vac.json", VACUUM_MEASURED)
        code, out, _ = _run(capsys, [
            "norm", "--circuit", path, "--method", "approx",
            "--epsilon", "0.5", "--p-fail", "0.25", "--seed", "3"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["method"] == "approx"
        assert payload["epsilon"] == 0.5
        assert payload["p_fail"] == 0.25
        assert payload["seed"] == 3
        # Vacuum has exact energy bookkeeping value 2, derived when omitted.
        assert payload["energy_bound"] == 2.0
        assert payload["norm_sq"] >= 0.0
        assert abs(payload["norm"] - np.sqrt(payload["norm_sq"])) < 1e-12


class TestOverlap:
    """The overlap subcommand on pairs of circuit documents."""

    def test_displaced_vacuum_against_vacuum(self, tmp_path, capsys):
        path_a = _write(tmp_path, "a.json", VACUUM_MEASURED)
        path_b = _write(tmp_path, "b.json", DISPLACED)
        code, out, _ = _run(capsys, [
            "overlap", "--circuit-a", path_a, "--circuit-b", path_b])
        assert code == EXIT_OK
        payload = json.loads(out)
        re, im = payload["overlap"]
        assert abs(payload["magnitude"] - np.exp(-0.5)) < 1e-12, (
            "|<0|D(1)0>| must be e^{-1/2}")
        assert abs(abs(complex(re, im)) - payload["magnitude"]) < 1e-12

    def test_two_cats_match_branch_double_sum(self, tmp_path, capsys):
        path_a = _write(tmp_path, "a.json", CAT_MEASURED)
        path_b = _write(tmp_path, "b.json", ODD_CAT)
        code, out, _ = _run(capsys, [
            "overlap", "--circuit-a", path_a, "--circuit-b", path_b])
        assert code == EXIT_OK
        payload = json.loads(out)
        ev_a, ev_b = (evolve(psi, spec.gates) for psi, spec in
                      (parse_circuit(CAT_MEASURED), parse_circuit(ODD_CAT)))
        expected = sum(np.conj(ca) * cb * overlap(da, db)
                       for ca, da in ev_a.terms for cb, db in ev_b.terms)
        assert abs(complex(*payload["overlap"]) - expected) < 1e-12, (
            f"{payload['overlap']} vs double sum {expected}")
        assert abs(payload["magnitude"] - abs(expected)) < 1e-12

    def test_mode_count_mismatch_is_validation_error(self, tmp_path, capsys):
        path_a = _write(tmp_path, "a.json", VACUUM_MEASURED)
        path_b = _write(tmp_path, "b.json", TWO_MODE)
        code, out, err = _run(capsys, [
            "overlap", "--circuit-a", path_a, "--circuit-b", path_b])
        assert code == EXIT_VALIDATION
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "validation"
        assert "modes" in diag["message"]


class TestState:
    """The state subcommand canonicalizes documents."""

    def test_named_state_becomes_explicit_terms(self, tmp_path, capsys):
        path = _write(tmp_path, "cat.json", CAT_MEASURED)
        code, out, _ = _run(capsys, ["state", "--circuit", path])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["state"]["type"] == "terms"
        assert len(doc["state"]["terms"]) == 2
        assert doc["gates"] == [{"op": "squeeze", "mode": 1, "z": 0.3}]
        assert doc["measure"] == {"k": 1, "beta": [[0.2, -0.1]]}

    def test_canonical_form_is_a_fixed_point(self, tmp_path, capsys):
        path = _write(tmp_path, "cat.json", CAT_MEASURED)
        _, out1, _ = _run(capsys, ["state", "--circuit", path])
        path2 = _write(tmp_path, "canon.json", out1)
        _, out2, _ = _run(capsys, ["state", "--circuit", path2])
        assert out1 == out2, "canonicalizing twice must be idempotent"
        parse_circuit(out1)  # canonical output must itself parse


class TestOracleCheck:
    """The oracle-check subcommand compares against the number basis."""

    def test_cat_circuit_passes_oracle(self, tmp_path, capsys):
        path = _write(tmp_path, "cat.json", CAT_MEASURED)
        code, out, _ = _run(capsys, ["oracle-check", "--circuit", path])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["abs_diff"] <= payload["tol"]
        assert abs(payload["p"] - payload["p_oracle"]) == payload["abs_diff"]

    def test_unattainable_tolerance_fails_with_numeric_exit(self, tmp_path, capsys):
        # A stronger squeeze leaves a nonzero (but tiny) truncation residue,
        # so a zero tolerance must report a failed check.
        doc = json.loads(CAT_MEASURED)
        doc["state"] = {"type": "cat", "alpha": [1.4, 0.3], "parity": "odd"}
        doc["gates"] = [{"op": "squeeze", "mode": 1, "z": 0.8}]
        path = _write(tmp_path, "hard.json", json.dumps(doc))
        code, out, _ = _run(capsys, [
            "oracle-check", "--circuit", path, "--tol", "0"])
        assert code == EXIT_NUMERIC
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["abs_diff"] > 0.0


class TestErrorReporting:
    """Exit codes and stderr diagnostics for the failure paths."""

    def test_validation_error_from_bad_document(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.json", BAD_MEASURE)
        code, out, err = _run(capsys, ["simulate", "--circuit", path])
        assert code == EXIT_VALIDATION
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "validation"
        assert diag["message"]

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        path = str(tmp_path / "nonexistent.json")
        code, out, err = _run(capsys, ["simulate", "--circuit", path])
        assert code == EXIT_IO
        assert out == ""
        assert json.loads(err)["error"] == "io"

    def test_numeric_error_reports_kind(self, tmp_path, capsys):
        # A cat at α = 20 does not fit the oracle's number-basis cutoff; the
        # failure surfaces as a numeric diagnostics document naming its kind.
        doc = json.loads(CAT_MEASURED)
        doc["state"]["alpha"] = [20.0, 0.0]
        path = _write(tmp_path, "bright-cat.json", json.dumps(doc))
        code, out, err = _run(capsys, ["oracle-check", "--circuit", path])
        assert code == EXIT_NUMERIC
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "numeric"
        assert diag["kind"] == "TailMassError"

    def test_far_outcome_reads_zero(self, tmp_path, capsys):
        # A measurement far outside the state's support is no error: its
        # density lies below the double range and reads 0.0.
        doc = json.loads(VACUUM_MEASURED)
        doc["measure"]["beta"] = [[60.0, 0.0]]
        path = _write(tmp_path, "far.json", json.dumps(doc))
        code, out, _ = _run(capsys, ["simulate", "--circuit", path])
        assert code == EXIT_OK
        assert json.loads(out) == {"p": 0.0, "method": "exact"}

    def test_usage_error_exits_nonzero(self, capsys):
        code = main(["simulate"])  # missing required --circuit
        capsys.readouterr()
        assert code != EXIT_OK


class TestImportGuard:
    """Approximate runs with derived energy bounds need neither the
    number-basis oracle nor scipy."""

    def test_approx_paths_import_neither_oracle_nor_scipy(self, tmp_path):
        path = _write(tmp_path, "cat.json", CAT_MEASURED)
        script = textwrap.dedent(f"""
            import contextlib, io, sys
            from gaussum.circuit import parse_circuit, simulate_approx
            from gaussum.cli import main
            with open({path!r}, encoding="utf-8") as handle:
                psi, spec = parse_circuit(handle.read())
            simulate_approx(psi, spec, epsilon=0.5, p_fail=0.25, seed=1)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["norm", "--circuit", {path!r}, "--method", "approx",
                             "--epsilon", "0.5", "--p-fail", "0.25", "--seed", "1"])
            loaded = sorted(m for m in sys.modules
                            if m == "gaussum.fock" or m.split(".")[0] == "scipy")
            print(code, loaded)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{EXIT_OK} []", proc.stdout
