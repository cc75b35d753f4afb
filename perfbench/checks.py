"""Untimed checks that run once per invocation, after the timed loop.

* oracle_check: exact densities of a seeded subset of n ≤ 2 requests
  against the number-basis oracle (gaussum.fock); counts toward failures.
* worker_identity: an approx result must not change with the worker
  count; counts toward failures.
* cli_parity: one request through ``gaussum.cli.main(["simulate", ...])``
  must print the library's p bit for bit; counts toward failures.
* conditioning_sweep and estimator_audit: reported, never gating.  They
  show known defects of the program as they stand.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

#: Absolute tolerance of the oracle comparison (the oracle-check default).
ORACLE_TOL = 1e-6


def oracle_check(gaussum, request) -> dict:
    """Exact density of the request's document against the oracle."""
    from gaussum import fock

    psi, spec = gaussum.circuit.parse_circuit(request.document)
    evolved = gaussum.circuit.evolve(psi, spec.gates)
    p = gaussum.superposition.measureprob_exact(evolved, spec.measure.beta)
    p_oracle = fock.fock_heterodyne_density(
        fock.fock_from_superposition(evolved.terms), spec.measure.beta)
    diff = abs(p - p_oracle)
    return {"slot": request.slot, "p": p, "p_oracle": p_oracle,
            "abs_diff": diff, "ok": bool(diff <= ORACLE_TOL)}


def worker_identity(gaussum, request, epsilon, p_fail, p_timed: float,
                    workers: int) -> dict:
    """Re-run an approx request with another worker count; p must not change."""
    psi, spec = gaussum.circuit.parse_circuit(request.document)
    p_other = gaussum.circuit.simulate_approx(
        psi, spec, epsilon, p_fail, seed=request.seed, workers=workers,
        energy_override=request.energy_override).p
    return {"slot": request.slot, "workers": workers, "p": p_other,
            "p_timed": p_timed, "ok": p_other == p_timed}


def cli_parity(gaussum, request, expected: float, epsilon, p_fail, workers,
               out_dir: Path) -> dict:
    """Send one served request through the CLI in-process; its printed p
    must equal the p the timed loop got from the library."""
    path = out_dir / "cli-request.json"
    path.write_text(request.document, encoding="utf-8")
    argv = ["simulate", "--circuit", str(path), "--method", request.method]
    if request.method == "approx":
        argv += ["--epsilon", repr(epsilon), "--p-fail", repr(p_fail),
                 "--seed", str(request.seed), "--workers", str(workers)]
        if request.energy_override is not None:
            argv += ["--energy-bound", repr(request.energy_override)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gaussum.cli.main(argv)
    printed = json.loads(out.getvalue()) if code == 0 else {}
    return {"slot": request.slot, "exit_code": code, "p_cli": printed.get("p"),
            "p_library": expected, "ok": code == 0 and printed.get("p") == expected}


def _simulate_document(gaussum, doc: dict) -> str:
    """'ok' or the name of the exception an exact run raises."""
    try:
        psi, spec = gaussum.circuit.parse_circuit(json.dumps(doc))
        gaussum.circuit.simulate_exact(psi, spec)
    except (gaussum.NumericError, gaussum.ValidationError) as exc:
        return type(exc).__name__
    return "ok"


def conditioning_sweep(gaussum) -> dict:
    """Exact runs across the outcome-conditioning crash window.

    gkp combs (m=8, z=0.5, envelope width 2) at four tooth spacings and
    three outcomes, and appendixD(0.5, r, 0.3) measured at β = r.
    """
    cases = {}
    for step in (0.3, 0.5, 0.8, 1.5):
        for beta in (0.0, 1.0, 2.5):
            doc = {"modes": 1, "gates": [],
                   "state": {"type": "gkp", "z": 0.5, "m": 8, "step": step,
                             "envelope_width": 2.0},
                   "measure": {"k": 1, "beta": [[beta, 0.0]]}}
            cases[f"gkp step={step} beta={beta}"] = _simulate_document(gaussum, doc)
    for r in (4, 6, 8, 12, 20, 26):
        doc = {"modes": 2, "gates": [],
               "state": {"type": "appendixD", "p": 0.5, "r": float(r), "z": 0.3},
               "measure": {"k": 1, "beta": [[float(r), 0.0]]}}
        cases[f"appendixD r={r} beta={r}"] = _simulate_document(gaussum, doc)
    failures: dict = {}
    for outcome in cases.values():
        if outcome != "ok":
            failures[outcome] = failures.get(outcome, 0) + 1
    return {"cases": cases, "failed": sum(failures.values()),
            "failed_by_type": failures, "total": len(cases)}


#: (label, mode count, ε, p_fail); the estimator's own (R, L) at each.
AUDIT_CASES = (("cat n=1", 1, 0.2, 0.25),
               ("cat x vacuum n=2", 2, 0.5, 0.25),
               ("cat x vacuum n=2", 2, 0.2, 0.25))
AUDIT_TRIALS = 12


def estimator_audit(gaussum, seed: int) -> list:
    """Share of fast_norm estimates of a unit-norm state outside (1 ± ε).

    The sample count L = ⌈E/(4π·p_fail·ε³)⌉ does not depend on the mode
    count while the probe weight R²ⁿ/n! does, so the n=2 share is expected
    to exceed p_fail.
    """
    cat = gaussum.cat_state(1.0, "even")
    vac = gaussum.vacuum_description(1)
    two_mode = gaussum.GaussianSuperposition(
        cat.coeffs,
        tuple(gaussum.GaussianDescription(
            np.block([[d.gamma, np.zeros((2, 2))], [np.zeros((2, 2)), vac.gamma]]),
            np.concatenate([d.alpha, vac.alpha]), d.r * vac.r)
            for d in cat.descriptions))
    rows = []
    for label, n, eps, p_fail in AUDIT_CASES:
        psi = cat if n == 1 else two_mode
        energy = gaussum.superposition_energy_exact(psi)
        samples = gaussum.fast_norm_parameters(energy, eps, p_fail).samples
        outside = sum(
            abs(gaussum.fast_norm(psi, eps, p_fail, energy, seed * 1000 + t) - 1.0) > eps
            for t in range(AUDIT_TRIALS))
        rows.append({"case": label, "n": n, "epsilon": eps, "p_fail": p_fail,
                     "L": samples, "trials": AUDIT_TRIALS,
                     "share_outside": outside / AUDIT_TRIALS})
    return rows


def density_bounds_ok(method: str, p: float, k: int) -> bool:
    """Exact densities lie in [0, π⁻ᵏ]; approx estimates are finite and ≥ 0."""
    if not math.isfinite(p) or p < 0.0:
        return False
    return method != "exact" or p <= math.pi ** -k
