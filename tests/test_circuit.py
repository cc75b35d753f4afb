"""Unit tests for the circuit driver: parsing, emission, and simulation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import random_superposition

from gaussum import circuit
from gaussum.circuit import (
    CircuitSpec,
    MeasureSpec,
    emit_circuit,
    evolve,
    parse_circuit,
    simulate_approx,
    simulate_exact,
)
from gaussum.core import (
    Beamsplitter,
    Displacement,
    PhaseShift,
    Squeeze,
    ValidationError,
    random_pure_description,
    reference_overlap_magnitude,
)
from gaussum.fock import fock_apply_gate, fock_from_superposition, fock_overlap, fock_project
from gaussum.states import appendix_d_state
from gaussum.superposition import GaussianSuperposition, exact_norm, typical_parameters

VACUUM_DOC = """
{
  "modes": 1,
  "state": {"type": "terms", "terms": [{"coeff": [1, 0]}]},
  "gates": [],
  "measure": {"k": 1, "beta": [[0, 0]]}
}
"""

CAT_BS_DOC = """
{
  "modes": 2,
  "state": {"type": "terms", "terms": [
    {"coeff": [%(n)s, 0], "alpha": [[1, 0], [0, 0]]},
    {"coeff": [%(n)s, 0], "alpha": [[-1, 0], [0, 0]]}
  ]},
  "gates": [{"op": "beamsplitter", "modes": [1, 2], "omega": 0.7853981633974483}],
  "measure": {"k": 1, "beta": [[0.4, -0.1]]}
}
""" % {"n": 1.0 / np.sqrt(2.0 * (1.0 + np.exp(-2.0)))}


def _swap_modes_2(psi: GaussianSuperposition) -> GaussianSuperposition:
    perm = np.zeros((4, 4))
    perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
    swapped = []
    for d in psi.descriptions:
        swapped.append(type(d)(perm @ d.gamma @ perm.T, d.alpha[::-1].copy(), d.r))
    return GaussianSuperposition(psi.coeffs, tuple(swapped))


class TestParsing:
    """Strict JSON document parsing with path-annotated errors."""

    def test_minimal_vacuum_document(self):
        psi, spec = parse_circuit(VACUUM_DOC)
        assert psi.chi == 1 and psi.n == 1
        assert spec.modes == 1 and spec.gates == ()
        assert spec.measure is not None and spec.measure.k == 1

    def test_named_state_types(self):
        doc = json.dumps({"modes": 1,
                          "state": {"type": "cat", "alpha": [1, 0], "parity": "odd"},
                          "gates": []})
        psi, _ = parse_circuit(doc)
        assert psi.chi == 2 and psi.coeffs[1] == -psi.coeffs[0]
        doc = json.dumps({"modes": 1,
                          "state": {"type": "gkp", "z": 0.5, "m": 1, "step": 1.2,
                                    "envelope_width": 1.0},
                          "gates": []})
        psi, _ = parse_circuit(doc)
        assert psi.chi == 3
        doc = json.dumps({"modes": 2,
                          "state": {"type": "appendixD", "p": 0.3, "r": 1.0, "z": 0.5},
                          "gates": []})
        psi, _ = parse_circuit(doc)
        assert psi.chi == 2 and psi.n == 2

    def test_unknown_keys_and_ops(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            parse_circuit('{"modes": 1, "state": {"type": "terms", "terms": '
                          '[{"coeff": [1, 0]}]}, "gates": [], "extra": 1}')
        with pytest.raises(ValidationError, match=r"gates\[0\].op"):
            parse_circuit('{"modes": 1, "state": {"type": "terms", "terms": '
                          '[{"coeff": [1, 0]}]}, "gates": [{"op": "fuse"}]}')
        with pytest.raises(ValidationError, match="state.type"):
            parse_circuit('{"modes": 1, "state": {"type": "w"}, "gates": []}')

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match="duplicate key"):
            parse_circuit('{"modes": 1, "modes": 2, "state": {"type": "terms", '
                          '"terms": [{"coeff": [1, 0]}]}, "gates": []}')

    def test_mode_out_of_range_names_path(self):
        doc = json.dumps({"modes": 2,
                          "state": {"type": "appendixD", "p": 0.5, "r": 1.0, "z": 0.1},
                          "gates": [{"op": "squeeze", "mode": 0, "z": 0.5}]})
        with pytest.raises(ValidationError, match=r"gates\[0\].mode"):
            parse_circuit(doc)

    def test_non_finite_numbers_rejected(self):
        base = ('{"modes": 1, "state": {"type": "terms", "terms": '
                '[{"coeff": [1, 0]}]}, "gates": [{"op": "phaseshift", '
                '"mode": 1, "phi": %s}]}')
        with pytest.raises(ValidationError, match="non-finite"):
            parse_circuit(base % "Infinity")
        with pytest.raises(ValidationError, match="non-finite"):
            parse_circuit(base % "1e999")

    def test_measure_k_out_of_range(self):
        doc = json.dumps({"modes": 2,
                          "state": {"type": "appendixD", "p": 0.5, "r": 1.0, "z": 0.1},
                          "gates": [],
                          "measure": {"k": 3, "beta": [[0, 0], [0, 0], [0, 0]]}})
        with pytest.raises(ValidationError, match="measure.k"):
            parse_circuit(doc)

    def test_malformed_json(self):
        with pytest.raises(ValidationError, match="malformed JSON"):
            parse_circuit("{")

    @staticmethod
    def _terms_doc(terms: list) -> str:
        return json.dumps({"modes": 1, "state": {"type": "terms", "terms": terms},
                           "gates": []})

    def test_terms_validated_by_one_stacked_call(self, monkeypatch):
        calls = []
        check = circuit.validate_description

        def counted(stack, *args):
            calls.append(np.shape(stack.r))
            return check(stack, *args)

        monkeypatch.setattr(circuit, "validate_description", counted)
        terms = [{"coeff": [0.5, 0.0], "alpha": [[0.1 * j, -0.2]],
                  "gamma": [[np.exp(-0.4), 0.0], [0.0, np.exp(0.4)]]} for j in range(5)]
        terms[3]["r"] = [0.0, float(np.sqrt(2.0 / np.sqrt(2.0 + 2.0 * np.cosh(0.4))))]
        psi, _ = parse_circuit(self._terms_doc(terms))
        assert calls == [(5,)], f"validation calls {calls}"
        assert psi.chi == 5
        assert psi.descriptions[3].r == terms[3]["r"][1] * 1j
        expected = np.sqrt(2.0 / np.sqrt(2.0 + 2.0 * np.cosh(0.4)))
        assert psi.descriptions[0].r == pytest.approx(expected, rel=1e-15)

    def test_invalid_term_named_with_its_report(self):
        # The third term's r has the wrong magnitude; the stacked check must
        # still name that term and show its own ValidityReport.
        terms = [{"coeff": [0.5, 0.0], "alpha": [[0.3 * j, 0.0]]} for j in range(4)]
        terms[2]["r"] = [1.2, 0.0]
        with pytest.raises(ValidationError) as info:
            parse_circuit(self._terms_doc(terms))
        message = str(info.value)
        assert message.startswith("state.terms[2]: invalid description ("), message
        assert "ValidityReport(valid=True, pure=True, r_consistent=False" in message
        defect = float(message.rsplit("r_defect=", 1)[1].rstrip("))"))
        assert defect == pytest.approx(1.2 ** 2 - 1.0, rel=1e-12), message

    @pytest.mark.parametrize("r", [None, [1.0, 0.0]])
    def test_covariance_without_reference_magnitude_named(self, r):
        # det(I + Γ) < 0, so Γ fixes no |r|: the term is reported invalid
        # by index, whether or not it gives r.
        terms = [{"coeff": [1.0, 0.0]},
                 {"coeff": [0.0, 0.0], "gamma": [[-3.0, 0.0], [0.0, 1.0]]}]
        if r is not None:
            terms[1]["r"] = r
        with pytest.raises(ValidationError, match=r"^state\.terms\[1\]: invalid") as info:
            parse_circuit(self._terms_doc(terms))
        assert "valid=False" in str(info.value)


def _bits(array) -> tuple:
    array = np.ascontiguousarray(array)
    return array.shape, array.dtype, array.tobytes()


def _random_terms(rng, n: int, chi: int, shared: bool) -> list:
    """χ random terms on n modes, some entries written as integers or as
    -0.0: alpha and r given or left out per term; gamma one covariance
    given by every term (shared), or one per term, given or left out."""
    def number(x: float):
        roll = rng.random()
        if roll < 0.15:
            return int(round(3 * x))
        if roll < 0.25:
            return -0.0
        return float(x)

    common = random_pure_description(n, 0.8, rng).gamma
    terms = []
    for _ in range(chi):
        term = {"coeff": [number(rng.normal()), number(rng.normal())]}
        gamma = np.eye(2 * n)
        if shared or rng.random() < 0.6:
            gamma = common if shared else random_pure_description(n, 0.8, rng).gamma
            term["gamma"] = gamma.tolist()
        if rng.random() < 0.7:
            term["alpha"] = [[number(rng.normal()), number(rng.normal())] for _ in range(n)]
        if rng.random() < 0.4:
            r = reference_overlap_magnitude(gamma) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            term["r"] = [float(r.real), float(r.imag)]
        terms.append(term)
    return terms


class TestTermArrays:
    """A terms document is read as one array per field; the per-number
    walker runs only when an array check fails, to name the path."""

    @staticmethod
    def _doc(terms: list, modes: int = 1) -> str:
        return json.dumps({"modes": modes, "state": {"type": "terms", "terms": terms},
                           "gates": []})

    def test_arrays_match_the_walker_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(20261020)
        documents = [(n, self._doc(_random_terms(rng, n, int(rng.integers(1, 41)), shared),
                                   n))
                     for n in (1, 2, 3) for shared in (True, False) for _ in range(5)]
        documents.append((1, self._doc([{"coeff": [-0.0, 0]}, {"coeff": [0, -0.0]}])))
        arrays = [parse_circuit(doc)[0] for _, doc in documents]
        assert {len(psi.branches.gamma) == 1 for psi in arrays if psi.chi > 1} == {True, False}

        calls = []
        check = circuit._term_arrays

        def first_fails(terms, modes):
            calls.append(modes)
            return None if len(calls) % 2 else check(terms, modes)

        monkeypatch.setattr(circuit, "_term_arrays", first_fails)
        for (n, doc), fast in zip(documents, arrays):
            calls.clear()
            walked = parse_circuit(doc)[0]
            assert calls == [n, n], "the walker did not run"
            assert _bits(fast.coeffs) == _bits(walked.coeffs)
            for name, a, b in zip(fast.branches._fields, fast.branches, walked.branches):
                assert _bits(a) == _bits(b), f"{name} differs on {doc[:80]}"

    def test_integer_beyond_int64_is_read_as_its_double(self):
        psi, _ = parse_circuit(self._doc([{"coeff": [2 ** 70, 0]}]))
        assert psi.coeffs[0] == float(2 ** 70)

    def test_number_walker_idle_on_well_formed_terms(self, monkeypatch):
        def forbidden(value, path):
            raise AssertionError(f"_as_number called at {path}")

        monkeypatch.setattr(circuit, "_as_number", forbidden)
        terms = _random_terms(np.random.default_rng(5), 2, 12, shared=False)
        psi, _ = parse_circuit(self._doc(terms, 2))
        assert psi.chi == 12

    VALID = {"coeff": [1.0, 0.0]}
    CATALOG = [
        ([{"coeff": [1, True]}], "state.terms[0].coeff[1]: expected a number, got True"),
        ([{"coeff": [True, 1.5]}], "state.terms[0].coeff[0]: expected a number, got True"),
        ([VALID, {"coeff": ["0.5", 0.0]}],
         "state.terms[1].coeff[0]: expected a number, got '0.5'"),
        ([{"coeff": [1.0, 0.0], "gamma": [[1.0, 0.0], [0.0]]}],
         "state.terms[0].gamma[1]: expected 2 numbers"),
        ([{"coeff": [1.0, 0.0], "alpha": [[0.1, 10 ** 400]]}],
         "state.terms[0].alpha[0][1]: number outside the double range"),
        ([{"coeff": [1.0, 0.0], "r": None}],
         "state.terms[0].r: expected a [re, im] pair, got None"),
        ([{"coeff": [1.0, 0.0], "beta": 1}], "state.terms[0]: unknown keys ['beta']"),
        ([VALID, {"alpha": [[0.1, 0.0]]}], "state.terms[1]: missing required key 'coeff'"),
        ([VALID, [1.0, 0.0]], "state.terms[1]: expected an object"),
        ([VALID, 5], "state.terms[1]: expected an object"),
    ]

    @pytest.mark.parametrize("terms, message", CATALOG)
    def test_error_catalog(self, terms, message):
        with pytest.raises(ValidationError) as info:
            parse_circuit(self._doc(terms))
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ('{"modes": 1, "state": {"type": "terms", "terms": [{"coeff": [1e999, 0]}]}}',
         "state.terms[0].coeff[0]: non-finite number inf"),
        ('{"modes": 1, "state": {"type": "terms", "terms": '
         '[{"coeff": [1, 0], "coeff": [1, 0]}]}}',
         "duplicate key 'coeff' in the same object"),
    ])
    def test_error_catalog_raw_text(self, text, message):
        with pytest.raises(ValidationError) as info:
            parse_circuit(text)
        assert str(info.value) == message


class TestEmission:
    """Canonical serialization round-trips through the parser."""

    def test_roundtrip_identity(self):
        psi = random_superposition(777, n=2, chi=2, z_max=0.6, alpha_max=0.6,
                                   normalize=True)
        spec = CircuitSpec(2, (
            Displacement(np.array([0.1 + 0.2j, 0.0j])),
            PhaseShift(0.3, 2),
            Beamsplitter(0.5, 1, 2),
            Squeeze(-0.4, 1),
        ), MeasureSpec(1, np.array([0.2 - 0.1j])))
        first = emit_circuit(psi, spec)
        second = emit_circuit(*parse_circuit(first))
        assert first == second, "emit∘parse must be idempotent"

    def test_emitted_gates_survive(self):
        psi, spec = parse_circuit(CAT_BS_DOC)
        psi2, spec2 = parse_circuit(emit_circuit(psi, spec))
        assert spec2.gates == spec.gates
        assert np.array_equal(psi2.coeffs, psi.coeffs)


class TestSimulateExact:
    """Gram-norm densities for parsed circuits."""

    def test_vacuum_density(self):
        psi, spec = parse_circuit(VACUUM_DOC)
        result = simulate_exact(psi, spec)
        assert result.method == "exact"
        assert abs(result.p - 1.0 / np.pi) < 1e-12, f"p = {result.p}"

    def test_displaced_vacuum_peak(self):
        beta0 = 0.6 + 0.3j
        psi, _ = parse_circuit(VACUUM_DOC)
        spec = CircuitSpec(1, (Displacement(np.array([beta0])),),
                           MeasureSpec(1, np.array([-beta0])))
        result = simulate_exact(psi, spec)
        assert abs(result.p - 1.0 / np.pi) < 1e-12, f"p = {result.p}"

    def test_cat_beamsplitter_matches_oracle(self):
        psi, spec = parse_circuit(CAT_BS_DOC)
        result = simulate_exact(psi, spec)
        evolved = evolve(psi, spec.gates)
        state = fock_from_superposition(evolved.terms)
        _, norm_sq = fock_project(state, spec.measure.beta)
        expected = norm_sq / np.pi
        assert abs(result.p - expected) < 1e-6, f"{result.p} vs {expected}"

    def test_gate_order_matters(self):
        psi, _ = parse_circuit(VACUUM_DOC)
        measure = MeasureSpec(1, np.array([0.3 + 0.0j]))
        forward = CircuitSpec(1, (Displacement(np.array([1.0 + 0j])),
                                  Squeeze(0.5, 1)), measure)
        reverse = CircuitSpec(1, tuple(reversed(forward.gates)), measure)
        p1 = simulate_exact(psi, forward).p
        p2 = simulate_exact(psi, reverse).p
        assert abs(p1 - p2) > 1e-6, "swapped gate order must change the density"

    def test_deterministic(self):
        psi, spec = parse_circuit(CAT_BS_DOC)
        assert simulate_exact(psi, spec).p == simulate_exact(psi, spec).p

    def test_unnormalized_input_rejected(self):
        doc = ('{"modes": 1, "state": {"type": "terms", "terms": '
               '[{"coeff": [2, 0]}]}, "gates": [], '
               '"measure": {"k": 1, "beta": [[0, 0]]}}')
        psi, spec = parse_circuit(doc)
        with pytest.raises(ValidationError, match="normalized"):
            simulate_exact(psi, spec)

    def test_missing_measurement_rejected(self):
        psi, _ = parse_circuit(VACUUM_DOC)
        with pytest.raises(ValidationError, match="measurement"):
            simulate_exact(psi, CircuitSpec(1, ()))

    def test_mode_permutation_covariance(self):
        psi = random_superposition(901, n=2, chi=2, z_max=0.7, alpha_max=0.7,
                                   normalize=True)
        gates = (Squeeze(0.4, 1), Beamsplitter(0.6, 1, 2),
                 Displacement(np.array([0.2 - 0.1j, 0.1 + 0.3j])))
        beta = np.array([0.3 + 0.2j, -0.1 + 0.4j])
        spec = CircuitSpec(2, gates, MeasureSpec(2, beta))
        p = simulate_exact(psi, spec).p

        swapped_gates = (Squeeze(0.4, 2), Beamsplitter(0.6, 2, 1),
                         Displacement(np.array([0.1 + 0.3j, 0.2 - 0.1j])))
        swapped_spec = CircuitSpec(2, swapped_gates, MeasureSpec(2, beta[::-1]))
        p_swapped = simulate_exact(_swap_modes_2(psi), swapped_spec).p
        assert abs(p - p_swapped) < 1e-9, f"{p} vs {p_swapped}"


class TestEvolve:
    """Circuit evolution of the whole branch stack, one call per gate."""

    @pytest.mark.parametrize("chi", [2, 64])
    def test_one_apply_unitary_call_per_gate(self, monkeypatch, chi):
        calls = []
        kernel = circuit.apply_unitary

        def counted(state, gate):
            calls.append(np.shape(state.r))
            return kernel(state, gate)

        monkeypatch.setattr(circuit, "apply_unitary", counted)
        gates = [Displacement(np.array([0.2 + 0.1j, -0.3j])), PhaseShift(0.4, 2),
                 Beamsplitter(0.9, 1, 2), Squeeze(0.35, 1), Squeeze(-0.2, 2)]
        psi = random_superposition(900 + chi, n=2, chi=chi, z_max=0.7)
        out = evolve(psi, gates)
        assert calls == [(chi,)] * len(gates), f"apply_unitary calls at χ={chi}: {calls}"
        assert out.chi == chi

    def test_empty_circuit_is_identity(self):
        psi = random_superposition(911, n=1, chi=2, normalize=True)
        out = evolve(psi, [])
        assert np.array_equal(out.coeffs, psi.coeffs)
        for before, after in zip(psi.descriptions, out.descriptions):
            assert np.array_equal(before.gamma, after.gamma)
            assert before.r == after.r

    def test_superposition_beamsplitter_matches_oracle(self):
        psi, spec = parse_circuit(CAT_BS_DOC)
        evolved = evolve(psi, spec.gates)
        direct = fock_from_superposition(evolved.terms)
        via_gate = fock_apply_gate(fock_from_superposition(psi.terms),
                                   spec.gates[0])
        value = fock_overlap(direct, via_gate)
        assert abs(value - 1.0) < 1e-6, f"overlap {value}"


class TestSimulateApprox:
    """Randomized densities with propagated energy bounds."""

    def test_reports_parameters_and_reproduces(self):
        psi, spec = parse_circuit(CAT_BS_DOC)
        result = simulate_approx(psi, spec, epsilon=0.3, p_fail=0.25, seed=5)
        assert result.method == "approx"
        assert result.seed == 5
        assert result.radius > 0 and result.samples >= 1
        again = simulate_approx(psi, spec, epsilon=0.3, p_fail=0.25, seed=5)
        assert result.to_json() == again.to_json()

    def test_result_is_slotted(self):
        result = simulate_approx(*parse_circuit(VACUUM_DOC), epsilon=0.5, p_fail=0.25,
                                 seed=3, energy_override=2.0)
        assert not hasattr(result, "__dict__")
        assert json.loads(result.to_json()) == result.as_dict()
        assert list(result.as_dict()) == ["p", "method", "epsilon", "p_fail",
                                          "energy_bound", "R", "L", "seed"]

    def test_worker_count_invisible(self):
        psi, spec = parse_circuit(CAT_BS_DOC)
        base = simulate_approx(psi, spec, epsilon=0.3, p_fail=0.25, seed=9,
                               workers=1)
        split = simulate_approx(psi, spec, epsilon=0.3, p_fail=0.25, seed=9,
                                workers=4)
        assert base.to_json() == split.to_json()

    def test_energy_override_pins_probe_parameters(self):
        psi, spec = parse_circuit(VACUUM_DOC)
        result = simulate_approx(psi, spec, epsilon=0.5, p_fail=0.25, seed=3,
                                 energy_override=2.0)
        assert result.energy_bound == 2.0
        assert result.radius == pytest.approx(2.0, abs=1e-12)
        assert result.samples == 6

    def test_fresh_seed_drawn_and_reported(self):
        psi, spec = parse_circuit(VACUUM_DOC)
        result = simulate_approx(psi, spec, epsilon=0.5, p_fail=0.25,
                                 energy_override=2.0)
        assert result.seed is not None
        repeat = simulate_approx(psi, spec, epsilon=0.5, p_fail=0.25,
                                 seed=result.seed, energy_override=2.0)
        assert repeat.p == result.p

    def test_tracks_exact_on_vacuum(self):
        psi, spec = parse_circuit(VACUUM_DOC)
        exact = simulate_exact(psi, spec).p
        hits = 0
        for seed in range(60):
            value = simulate_approx(psi, spec, epsilon=0.3, p_fail=0.1,
                                    seed=seed, energy_override=2.0).p
            hits += abs(value - exact) <= 0.3 * exact
        assert hits >= 45, f"approx within ±30% of exact only {hits}/60 times"

    def test_derived_bound_covers_squeezed_vacuum(self):
        # Vacuum (⟨H⟩ = 2) squeezed by z = 0.8 has ⟨H⟩ = cosh(1.6) + 1 ≈ 3.58;
        # the derived bound must start from ⟨H⟩ ≥ that, i.e. 2·e^{1.6}.
        psi, _ = parse_circuit(VACUUM_DOC)
        spec = CircuitSpec(1, (Squeeze(0.8, 1),), MeasureSpec(1, np.array([0.2j])))
        result = simulate_approx(psi, spec, epsilon=0.5, p_fail=0.25, seed=1)
        expected = typical_parameters(2.0 * np.exp(1.6), 0.25).e_tilde
        assert result.energy_bound == pytest.approx(expected, rel=1e-12)


class TestDroppedWeight:
    """A branch the measurement drops weighs less than one ulp of the largest,
    so the density is unchanged and no dropped weight is reported."""

    SPEC = CircuitSpec(2, (), MeasureSpec(1, np.array([26.0 + 0j])))

    def test_exact_drops_vacuum_branch(self):
        # Measured at β = 26, the vacuum branch of appendixD(0.5, 26, 0.3) has
        # density e^{-676}/π: dropped, and p is the closed form 1/(2π).
        result = simulate_exact(appendix_d_state(0.5, 26.0, 0.3), self.SPEC)
        expected = (np.exp(-26.0 ** 2) + 1.0) / (2.0 * np.pi)
        assert result.p == pytest.approx(expected, rel=1e-12)
        assert set(result.as_dict()) == {"p", "method"}

    def test_approx_drops_vacuum_branch(self):
        # Bit-identical to the run on the bright branch alone.
        psi = appendix_d_state(0.5, 26.0, 0.3)
        bright = GaussianSuperposition(psi.coeffs[1:], psi.descriptions[1:])
        results = [simulate_approx(state, self.SPEC, epsilon=0.5, p_fail=0.25, seed=2,
                                   energy_override=2.0)
                   for state in (psi, bright)]
        assert results[0] == results[1]
        assert "dropped_weight" not in results[0].as_dict()

    def test_no_key_when_nothing_dropped(self):
        psi, spec = parse_circuit(VACUUM_DOC)
        result = simulate_exact(psi, spec)
        assert set(result.as_dict()) == {"p", "method"}
