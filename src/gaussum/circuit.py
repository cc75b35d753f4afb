"""Circuit-level driver: JSON circuits in, outcome densities out.

A circuit document is a JSON object with keys "modes", "state", "gates"
and optionally "measure".  Parsing is strict: unknown keys, duplicate
keys, malformed numbers, and out-of-range modes are rejected with errors
that name the offending path (e.g. "gates[2].omega").  Complex numbers
are written as [re, im] pairs throughout.

The exact driver evolves every branch, conditions on the heterodyne
outcome, and evaluates the outcome density through the full Gram norm.
The approximate driver replaces the Gram norm with the randomized
estimator, deriving its probe parameters from an energy bound that is
propagated through the gate list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    Beamsplitter,
    Displacement,
    GaussianDescription,
    Gate,
    PhaseShift,
    Squeeze,
    ValidationError,
    reference_overlap_magnitude,
    validate_description,
)
from .evolution import apply_unitary
from .states import appendix_d_state, cat_state, gkp_comb
from .superposition import (
    GaussianSuperposition,
    circuit_energy_bound,
    exact_norm,
    fast_norm_parameters,
    measureprob_approx,
    measureprob_exact,
    superposition_energy_exact,
    typical_parameters,
)


@dataclass(frozen=True)
class MeasureSpec:
    """Heterodyne measurement of the leading k modes at outcome β."""

    k: int
    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=complex).reshape(-1)
        if beta.size != self.k:
            raise ValidationError(
                f"measure lists {beta.size} outcomes for k={self.k} modes")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class CircuitSpec:
    """Gate sequence and optional measurement on a fixed mode count."""

    modes: int
    gates: tuple
    measure: Optional[MeasureSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))


@dataclass(frozen=True)
class SimulationResult:
    """Outcome density plus the parameters that produced it."""

    p: float
    method: str
    epsilon: Optional[float] = None
    p_fail: Optional[float] = None
    energy_bound: Optional[float] = None
    radius: Optional[float] = None
    samples: Optional[int] = None
    seed: Optional[int] = None

    def as_dict(self) -> dict:
        """JSON fields; parameters that do not apply are left out."""
        out = {"p": self.p, "method": self.method}
        for key, name in [("epsilon", "epsilon"), ("p_fail", "p_fail"),
                          ("energy_bound", "energy_bound"), ("radius", "R"),
                          ("samples", "L"), ("seed", "seed")]:
            value = getattr(self, key)
            if value is not None:
                out[name] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _no_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError(f"duplicate key {key!r} in the same object")
        out[key] = value
    return out


def _check_keys(obj: dict, allowed: set, path: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ValidationError(f"{path}: unknown keys {sorted(extra)}")


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"{path}: missing required key '{key}'")
    return obj[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{path}: non-finite number {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_complex(value, path: str) -> complex:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"{path}: expected a [re, im] pair, got {value!r}")
    return complex(_as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]"))


def _as_complex_vector(value, length: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != length:
        raise ValidationError(f"{path}: expected {length} [re, im] pairs")
    return np.array([_as_complex(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _as_real_matrix(value, size: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != size:
        raise ValidationError(f"{path}: expected a {size}×{size} row list")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != size:
            raise ValidationError(f"{path}[{i}]: expected {size} numbers")
        rows.append([_as_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows)


def _mode_in_range(mode: int, modes: int, path: str) -> int:
    if not 1 <= mode <= modes:
        raise ValidationError(f"{path}: mode {mode} out of range 1..{modes}")
    return mode


def _parse_term(obj: dict, modes: int, path: str):
    _check_keys(obj, {"coeff", "gamma", "alpha", "r"}, path)
    coeff = _as_complex(_get(obj, "coeff", path), f"{path}.coeff")
    gamma = (_as_real_matrix(obj["gamma"], 2 * modes, f"{path}.gamma")
             if "gamma" in obj else np.eye(2 * modes))
    alpha = (_as_complex_vector(obj["alpha"], modes, f"{path}.alpha")
             if "alpha" in obj else np.zeros(modes, dtype=complex))
    if "r" in obj:
        r = _as_complex(obj["r"], f"{path}.r")
    else:
        r = reference_overlap_magnitude(gamma)
    try:
        delta = GaussianDescription(gamma, alpha, r)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    report = validate_description(delta)
    if not report.ok:
        raise ValidationError(f"{path}: invalid description ({report})")
    return coeff, delta


def _parse_state(obj, modes: int, path: str) -> GaussianSuperposition:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object")
    kind = _get(obj, "type", path)
    if kind == "terms":
        _check_keys(obj, {"type", "terms"}, path)
        terms = _get(obj, "terms", path)
        if not isinstance(terms, list) or not terms:
            raise ValidationError(f"{path}.terms: expected a nonempty list")
        parsed = [_parse_term(t, modes, f"{path}.terms[{i}]")
                  for i, t in enumerate(terms)]
        return GaussianSuperposition(
            np.array([c for c, _ in parsed]), tuple(d for _, d in parsed))
    if kind == "cat":
        _check_keys(obj, {"type", "alpha", "parity"}, path)
        if modes != 1:
            raise ValidationError(f"{path}: cat states need modes=1, got {modes}")
        alpha = _as_complex(_get(obj, "alpha", path), f"{path}.alpha")
        parity = obj.get("parity", "even")
        if isinstance(parity, bool) or not isinstance(parity, (str, int)):
            raise ValidationError(
                f"{path}.parity: expected 'even' or 'odd', got {parity!r}")
        try:
            return cat_state(alpha, parity)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    if kind == "gkp":
        _check_keys(obj, {"type", "z", "m", "step", "envelope_width"}, path)
        if modes != 1:
            raise ValidationError(f"{path}: gkp states need modes=1, got {modes}")
        try:
            return gkp_comb(
                _as_number(_get(obj, "z", path), f"{path}.z"),
                _as_int(_get(obj, "m", path), f"{path}.m"),
                _as_number(_get(obj, "step", path), f"{path}.step"),
                _as_number(_get(obj, "envelope_width", path), f"{path}.envelope_width"))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    if kind == "appendixD":
        _check_keys(obj, {"type", "p", "r", "z"}, path)
        if modes != 2:
            raise ValidationError(f"{path}: appendixD states need modes=2, got {modes}")
        try:
            return appendix_d_state(
                _as_number(_get(obj, "p", path), f"{path}.p"),
                _as_number(_get(obj, "r", path), f"{path}.r"),
                _as_number(_get(obj, "z", path), f"{path}.z"))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    raise ValidationError(f"{path}.type: unknown state type {kind!r}")


def _parse_gate(obj, modes: int, path: str) -> Gate:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object")
    op = _get(obj, "op", path)
    try:
        if op == "displacement":
            _check_keys(obj, {"op", "alpha"}, path)
            return Displacement(
                _as_complex_vector(_get(obj, "alpha", path), modes, f"{path}.alpha"))
        if op == "phaseshift":
            _check_keys(obj, {"op", "mode", "phi"}, path)
            mode = _mode_in_range(_as_int(_get(obj, "mode", path), f"{path}.mode"),
                                  modes, f"{path}.mode")
            return PhaseShift(_as_number(_get(obj, "phi", path), f"{path}.phi"), mode)
        if op == "beamsplitter":
            _check_keys(obj, {"op", "modes", "omega"}, path)
            pair = _get(obj, "modes", path)
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(f"{path}.modes: expected [j, k]")
            j = _mode_in_range(_as_int(pair[0], f"{path}.modes[0]"), modes, f"{path}.modes[0]")
            k = _mode_in_range(_as_int(pair[1], f"{path}.modes[1]"), modes, f"{path}.modes[1]")
            return Beamsplitter(_as_number(_get(obj, "omega", path), f"{path}.omega"), j, k)
        if op == "squeeze":
            _check_keys(obj, {"op", "mode", "z"}, path)
            mode = _mode_in_range(_as_int(_get(obj, "mode", path), f"{path}.mode"),
                                  modes, f"{path}.mode")
            return Squeeze(_as_number(_get(obj, "z", path), f"{path}.z"), mode)
    except ValidationError as exc:
        if str(exc).startswith(path):
            raise
        raise ValidationError(f"{path}: {exc}") from exc
    raise ValidationError(f"{path}.op: unknown gate {op!r}")


def parse_circuit(text: str) -> tuple[GaussianSuperposition, CircuitSpec]:
    """Parse a JSON circuit document into its initial state and circuit.

    Raises:
        ValidationError: malformed JSON, duplicate keys, unknown keys or
            types, wrong shapes, out-of-range modes, or invalid
            descriptions; messages name the offending path.
    """
    def reject_constant(token: str):
        raise ValidationError(f"non-finite number {token!r} in document")

    try:
        obj = json.loads(text, object_pairs_hook=_no_duplicate_keys,
                         parse_constant=reject_constant)
    except ValidationError:
        raise
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError("top level: expected an object")
    _check_keys(obj, {"modes", "state", "gates", "measure"}, "top level")
    modes = _as_int(_get(obj, "modes", "top level"), "modes")
    if modes < 1:
        raise ValidationError(f"modes: need at least one mode, got {modes}")
    psi = _parse_state(_get(obj, "state", "top level"), modes, "state")
    gates_obj = obj.get("gates", [])
    if not isinstance(gates_obj, list):
        raise ValidationError("gates: expected a list")
    gates = tuple(_parse_gate(g, modes, f"gates[{i}]") for i, g in enumerate(gates_obj))
    measure = None
    if "measure" in obj:
        mobj = obj["measure"]
        if not isinstance(mobj, dict):
            raise ValidationError("measure: expected an object")
        _check_keys(mobj, {"k", "beta"}, "measure")
        k = _as_int(_get(mobj, "k", "measure"), "measure.k")
        if not 1 <= k <= modes:
            raise ValidationError(f"measure.k: need 1 ≤ k ≤ {modes}, got {k}")
        beta = _as_complex_vector(_get(mobj, "beta", "measure"), k, "measure.beta")
        measure = MeasureSpec(k, beta)
    return psi, CircuitSpec(modes, gates, measure)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def emit_circuit(psi: GaussianSuperposition, spec: CircuitSpec) -> str:
    """Serialize to canonical JSON with the state in explicit terms form.

    parse_circuit(emit_circuit(psi, spec)) reproduces the same document.
    """
    terms = []
    for c, d in psi.terms:
        terms.append({
            "coeff": _pair(c),
            "gamma": [[float(v) for v in row] for row in d.gamma],
            "alpha": [_pair(a) for a in d.alpha],
            "r": _pair(d.r),
        })
    doc: dict = {"modes": spec.modes, "state": {"type": "terms", "terms": terms}}
    gates = []
    for g in spec.gates:
        if isinstance(g, Displacement):
            gates.append({"op": "displacement", "alpha": [_pair(a) for a in g.alpha]})
        elif isinstance(g, PhaseShift):
            gates.append({"op": "phaseshift", "mode": g.mode, "phi": g.phi})
        elif isinstance(g, Beamsplitter):
            gates.append({"op": "beamsplitter", "modes": [g.mode1, g.mode2],
                          "omega": g.omega})
        elif isinstance(g, Squeeze):
            gates.append({"op": "squeeze", "mode": g.mode, "z": g.z})
        else:
            raise ValidationError(f"unsupported gate: {g!r}")
    doc["gates"] = gates
    if spec.measure is not None:
        doc["measure"] = {"k": spec.measure.k,
                          "beta": [_pair(b) for b in spec.measure.beta]}
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def evolve(psi: GaussianSuperposition, gates: Sequence[Gate]) -> GaussianSuperposition:
    """Apply a gate sequence branch-wise."""
    descriptions = list(psi.descriptions)
    for g in gates:
        descriptions = [apply_unitary(d, g) for d in descriptions]
    return GaussianSuperposition(psi.coeffs, tuple(descriptions))


def _require_measure(spec: CircuitSpec) -> MeasureSpec:
    if spec.measure is None:
        raise ValidationError("circuit has no measurement to simulate")
    return spec.measure


def simulate_exact(psi0: GaussianSuperposition, circuit: CircuitSpec) -> SimulationResult:
    """Evolve and evaluate the outcome density with the O(χ²) Gram norm.

    Raises:
        ValidationError: the input state is not normalized within 1e-6.
    """
    measure = _require_measure(circuit)
    norm = exact_norm(psi0)
    if abs(norm - 1.0) > 1e-6:
        raise ValidationError(
            f"initial state must be normalized, got ‖Ψ₀‖ = {norm:.9g}")
    p = measureprob_exact(evolve(psi0, circuit.gates), measure.beta)
    return SimulationResult(p=p, method="exact")


def simulate_approx(
    psi0: GaussianSuperposition,
    circuit: CircuitSpec,
    epsilon: float,
    p_fail: float,
    seed: Optional[int] = None,
    workers: int = 1,
    energy_override: Optional[float] = None,
) -> SimulationResult:
    """Evolve and estimate the outcome density with the O(χ) estimator.

    The probe parameters need a bound on ⟨H⟩ = Σ_j⟨Q_j² + P_j² + 1⟩ of the
    normalized post-measurement state.  It is derived in ⟨H⟩ throughout:
    the exact input energy (superposition_energy_exact), propagated through
    the gate list (circuit_energy_bound), then converted to a typical-outcome
    bound at failure budget δ = p_fail (typical_parameters) — the
    estimator's failure probability then covers both the atypical-outcome
    event and the sampling deviation.

    Args:
        psi0: initial superposition.
        circuit: gate list plus measurement.
        epsilon: relative accuracy of the density estimate.
        p_fail: failure budget (also used as the typicality budget δ).
        seed: estimator seed; a fresh one is drawn (and reported) if None.
        workers: worker threads for the sampling loop.
        energy_override: use this post-measurement energy bound directly
            instead of deriving one, pinning the probe radius and sample
            count for reproducibility.
    """
    measure = _require_measure(circuit)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    if energy_override is not None:
        e_tilde = float(energy_override)
    else:
        energy_bound = circuit_energy_bound(superposition_energy_exact(psi0), circuit.gates)
        e_tilde = typical_parameters(energy_bound, p_fail).e_tilde
    radius, samples = fast_norm_parameters(e_tilde, epsilon, p_fail)
    p = measureprob_approx(evolve(psi0, circuit.gates), measure.beta, epsilon, p_fail,
                           e_tilde, seed, workers=workers)
    return SimulationResult(p=p, method="approx", epsilon=epsilon, p_fail=p_fail,
                            energy_bound=e_tilde, radius=radius, samples=samples,
                            seed=seed)
