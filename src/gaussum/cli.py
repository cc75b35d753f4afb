"""Command-line interface.

Subcommands:
    simulate      outcome density of a measured circuit (exact or approx)
    norm          norm of the state after the gate list
    overlap       overlap between the evolved states of two circuits, each
                  cross Gram entry checked against the pair fidelity
    state         canonicalize a circuit document to explicit terms form
    oracle-check  compare the exact density against the number-basis oracle

Exit codes: 0 success, 2 validation error, 3 numeric failure (including a
failed oracle check), 4 I/O error.  Results are printed as JSON on stdout;
errors are printed as a JSON diagnostics document on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .core import NumericError, ValidationError
from .circuit import (
    emit_circuit,
    evolve,
    parse_circuit,
    simulate_approx,
    simulate_exact,
)
from .overlaps import GRAM_BLOCK
from .superposition import (_checked_gram, exact_norm, fast_norm,
                            superposition_energy_exact)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def cmd_simulate(args: argparse.Namespace) -> int:
    psi, spec = parse_circuit(_read(args.circuit))
    if args.method == "exact":
        result = simulate_exact(psi, spec)
    else:
        result = simulate_approx(
            psi, spec, epsilon=args.epsilon, p_fail=args.p_fail,
            seed=args.seed, workers=args.workers,
            energy_override=args.energy_bound)
    print(result.to_json())
    return EXIT_OK


def cmd_norm(args: argparse.Namespace) -> int:
    psi, spec = parse_circuit(_read(args.circuit))
    evolved = evolve(psi, spec.gates)
    if args.method == "exact":
        value = exact_norm(evolved)
        _emit({"norm": value, "norm_sq": value ** 2, "method": "exact"})
        return EXIT_OK
    energy_bound = args.energy_bound
    if energy_bound is None:
        energy_bound = superposition_energy_exact(evolved)
    seed = args.seed if args.seed is not None else int(np.random.SeedSequence().entropy)
    norm_sq = fast_norm(evolved, args.epsilon, args.p_fail, energy_bound, seed,
                        workers=args.workers)
    _emit({"norm": float(np.sqrt(max(norm_sq, 0.0))), "norm_sq": norm_sq,
           "method": "approx", "epsilon": args.epsilon, "p_fail": args.p_fail,
           "energy_bound": energy_bound, "seed": seed})
    return EXIT_OK


def cmd_overlap(args: argparse.Namespace) -> int:
    psi_a, spec_a = parse_circuit(_read(args.circuit_a))
    psi_b, spec_b = parse_circuit(_read(args.circuit_b))
    if spec_a.modes != spec_b.modes:
        raise ValidationError(
            f"circuits act on {spec_a.modes} and {spec_b.modes} modes")
    ev_a = evolve(psi_a, spec_a.gates)
    ev_b = evolve(psi_b, spec_b.gates)
    g = _checked_gram(ev_a.branches, ev_b.branches)
    total = np.conj(ev_a.coeffs) @ g @ ev_b.coeffs
    _emit({"overlap": [total.real, total.imag], "magnitude": abs(total)})
    return EXIT_OK


def cmd_state(args: argparse.Namespace) -> int:
    psi, spec = parse_circuit(_read(args.circuit))
    print(emit_circuit(psi, spec))
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    from . import fock  # oracle backend, loaded only for this command
    from .superposition import measureprob_exact

    psi, spec = parse_circuit(_read(args.circuit))
    if psi.n > 2:
        raise ValidationError("the oracle supports at most two modes")
    if spec.measure is None:
        raise ValidationError("circuit has no measurement to check")
    evolved = evolve(psi, spec.gates)
    p = measureprob_exact(evolved, spec.measure.beta)
    state = fock.fock_from_superposition(evolved.terms)
    p_oracle = fock.fock_heterodyne_density(state, spec.measure.beta)
    diff = abs(p - p_oracle)
    ok = diff <= args.tol
    _emit({"p": p, "p_oracle": p_oracle, "abs_diff": diff, "tol": args.tol,
           "ok": ok})
    return EXIT_OK if ok else EXIT_NUMERIC


def _add_approx_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epsilon", type=float, default=0.1,
                     help="relative accuracy of the estimator (default 0.1)")
    sub.add_argument("--p-fail", type=float, default=0.1, dest="p_fail",
                     help="failure probability the estimator targets, not yet "
                          "certified: measured miss rates exceed it (default 0.1)")
    sub.add_argument("--energy-bound", type=float, default=None, dest="energy_bound",
                     help="override the estimator's energy bound, pinning its "
                          "probe radius and sample count; the input must then be "
                          "normalized, which is not checked. If omitted the bound "
                          "is derived from the exact input energy, which costs an "
                          "O(chi^2) Gram matrix that also checks the input's norm")
    sub.add_argument("--seed", type=int, default=None,
                     help="estimator seed in [0, 2**128), fresh and reported if omitted")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker threads, at least 1 (default 1); each takes whole "
                          "blocks of %d samples" % GRAM_BLOCK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussum",
        description="Strong simulation of linear-optics circuits on "
                    "superpositions of pure Gaussian states.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="outcome density of a measured circuit")
    sim.add_argument("--circuit", required=True, help="path to a circuit JSON file")
    sim.add_argument("--method", choices=("exact", "approx"), default="exact")
    _add_approx_options(sim)
    sim.set_defaults(func=cmd_simulate)

    norm = subs.add_parser("norm", help="norm of the evolved superposition")
    norm.add_argument("--circuit", required=True, help="path to a circuit JSON file")
    norm.add_argument("--method", choices=("exact", "approx"), default="exact")
    _add_approx_options(norm)
    norm.set_defaults(func=cmd_norm)

    over = subs.add_parser("overlap", help="overlap of two evolved circuits")
    over.add_argument("--circuit-a", required=True, dest="circuit_a")
    over.add_argument("--circuit-b", required=True, dest="circuit_b")
    over.set_defaults(func=cmd_overlap)

    state = subs.add_parser("state", help="canonicalize a circuit document")
    state.add_argument("--circuit", required=True, help="path to a circuit JSON file")
    state.set_defaults(func=cmd_state)

    oracle = subs.add_parser("oracle-check",
                             help="compare the exact density to the oracle (n ≤ 2)")
    oracle.add_argument("--circuit", required=True, help="path to a circuit JSON file")
    oracle.add_argument("--tol", type=float, default=1e-6,
                        help="allowed absolute difference (default 1e-6)")
    oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(json.dumps({"error": "numeric", "kind": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
