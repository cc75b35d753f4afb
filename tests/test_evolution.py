"""Unit tests for branch evolution: gate actions on (Γ, α, r) descriptions."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_rel_close, phased_descriptions

from gaussum import evolution, overlaps
from gaussum.core import (
    Beamsplitter,
    Displacement,
    GaussianDescription,
    PhaseRecoveryError,
    PhaseShift,
    Squeeze,
    ValidationError,
    coherent_description,
    energy_of_gaussian,
    gate_symplectic,
    hat_d,
    random_pure_description,
    reference_overlap_magnitude,
    symplectic_form,
    vacuum_description,
    validate_description,
)
from gaussum.evolution import (
    apply_beamsplitter,
    apply_displacement,
    apply_phaseshift,
    apply_squeeze,
    apply_unitary,
)
from gaussum.fock import fock_apply_gate, fock_from_description, fock_overlap
from gaussum.overlaps import BranchStack, overlap, stack_branches


def _random_gate(rng: np.random.Generator, n: int):
    kind = rng.integers(0, 4)
    j = int(rng.integers(1, n + 1))
    if kind == 0:
        beta = np.zeros(n, dtype=complex)
        beta[j - 1] = complex(rng.normal(), rng.normal()) * 0.5
        return Displacement(beta)
    if kind == 1:
        return PhaseShift(float(rng.uniform(-np.pi, np.pi)), j)
    if kind == 2:
        return Squeeze(float(rng.uniform(0.2, 1.0)) * (1 if rng.random() < 0.5 else -1), j)
    k = int(rng.integers(1, n + 1))
    if k == j:
        k = j % n + 1
    if n == 1:
        return PhaseShift(float(rng.uniform(-np.pi, np.pi)), 1)
    return Beamsplitter(float(rng.uniform(-np.pi, np.pi)), j, k)


class TestGateFieldActions:
    """Frozen field-level conventions for each gate."""

    def test_beamsplitter_label_map(self):
        # α'_j = cos(ω)α_j - i·sin(ω)α_k and α'_k = cos(ω)α_k - i·sin(ω)α_j
        alpha = np.array([0.8 + 0.2j, -0.3 + 0.5j])
        omega = 0.7
        out = apply_beamsplitter(coherent_description(alpha), omega, 1, 2)
        c, s = np.cos(omega), np.sin(omega)
        expected = np.array([c * alpha[0] - 1j * s * alpha[1],
                             c * alpha[1] - 1j * s * alpha[0]])
        assert np.allclose(out.alpha, expected, atol=1e-12), f"{out.alpha}"
        assert np.allclose(out.gamma, np.eye(4), atol=1e-12), "coherent stays coherent"

    def test_phaseshift_label_map(self):
        alpha = np.array([0.6 - 0.4j])
        out = apply_phaseshift(coherent_description(alpha), 0.9, 1)
        assert np.allclose(out.alpha, np.exp(-0.9j) * alpha, atol=1e-13), f"{out.alpha}"

    def test_displacement_updates_label_and_phase(self):
        alpha = np.array([1.0 + 0.5j])
        beta = np.array([0.3 - 0.2j])
        out = apply_displacement(coherent_description(alpha), beta)
        assert np.allclose(out.alpha, alpha - beta, atol=1e-14)
        expected_r = np.exp(1j * np.imag(alpha @ np.conj(beta)))
        assert abs(out.r - expected_r) < 1e-14, f"r = {out.r}"
        assert np.allclose(out.gamma, np.eye(2), atol=1e-14)

    def test_squeeze_label_map(self):
        # α'_j = α_j·cosh z - ᾱ_j·sinh z; the other modes keep their labels
        alpha = np.array([0.4 - 0.7j, 0.2 + 0.1j])
        out = apply_squeeze(coherent_description(alpha), 0.6, 1)
        expected = np.array([alpha[0] * np.cosh(0.6) - np.conj(alpha[0]) * np.sinh(0.6),
                             alpha[1]])
        assert np.allclose(out.alpha, expected, atol=1e-13), f"{out.alpha}"

    def test_gate_symplectic_shift_is_the_center_move(self):
        # d → Sd + s: a displacement by β moves the label from α to α - β
        delta = phased_descriptions(17, 2, 1)[0]
        beta = np.array([0.3 - 0.2j, -0.1 + 0.4j])
        s, shift = gate_symplectic(Displacement(beta), 2)
        assert np.array_equal(s, np.eye(4))
        assert np.allclose(delta.d @ s.T + shift, hat_d(delta.alpha - beta), atol=1e-15)

    def test_squeeze_vacuum_frozen(self):
        out = apply_squeeze(vacuum_description(1), 1.0, 1)
        expected_gamma = np.diag([np.exp(-2.0), np.exp(2.0)])
        assert np.allclose(out.gamma, expected_gamma, atol=1e-12), f"{out.gamma}"
        assert abs(out.r - 1.0 / np.sqrt(np.cosh(1.0))) < 1e-9, f"r = {out.r}"


class TestOracleAgreement:
    """Each gate's full action, including the tracked phase, against the
    number-basis oracle: the evolved description must expand to the same
    vector as applying the gate in the truncated basis."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_displacement(self, n):
        rng = np.random.default_rng(41 + n)
        for _ in range(12):
            delta = random_pure_description(n, 0.8, rng, alpha_max=0.8)
            beta = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            evolved = apply_displacement(delta, beta)
            direct = fock_from_description(evolved)
            via_gate = fock_apply_gate(fock_from_description(delta), Displacement(beta))
            value = fock_overlap(direct, via_gate)
            assert abs(value - 1.0) < 1e-7, f"overlap {value}"

    @pytest.mark.parametrize("n", [1, 2])
    def test_phaseshift(self, n):
        rng = np.random.default_rng(47 + n)
        for _ in range(12):
            delta = random_pure_description(n, 0.8, rng, alpha_max=0.8)
            phi = float(rng.uniform(-np.pi, np.pi))
            j = int(rng.integers(1, n + 1))
            evolved = apply_phaseshift(delta, phi, j)
            direct = fock_from_description(evolved)
            via_gate = fock_apply_gate(fock_from_description(delta), PhaseShift(phi, j))
            value = fock_overlap(direct, via_gate)
            assert abs(value - 1.0) < 1e-7, f"overlap {value}"

    @pytest.mark.parametrize("n", [1, 2])
    def test_squeeze(self, n):
        # Generous shared cutoff: the gate route squeezes inside the initial
        # truncated basis, so tail mass must be negligible at the top.
        rng = np.random.default_rng(53 + n)
        cutoff = 96
        for _ in range(12):
            delta = random_pure_description(n, 0.5, rng, alpha_max=0.6)
            z = float(rng.uniform(0.2, 0.6)) * (1 if rng.random() < 0.5 else -1)
            j = int(rng.integers(1, n + 1))
            evolved = apply_squeeze(delta, z, j)
            direct = fock_from_description(evolved, n_max=cutoff, cap=cutoff)
            via_gate = fock_apply_gate(
                fock_from_description(delta, n_max=cutoff, cap=cutoff),
                Squeeze(z, j))
            value = fock_overlap(direct, via_gate)
            assert abs(value - 1.0) < 1e-7, f"overlap {value}"

    def test_beamsplitter(self):
        rng = np.random.default_rng(59)
        for _ in range(12):
            delta = random_pure_description(2, 0.7, rng, alpha_max=0.7)
            omega = float(rng.uniform(-np.pi, np.pi))
            evolved = apply_beamsplitter(delta, omega, 1, 2)
            direct = fock_from_description(evolved)
            via_gate = fock_apply_gate(fock_from_description(delta),
                                       Beamsplitter(omega, 1, 2))
            value = fock_overlap(direct, via_gate)
            assert abs(value - 1.0) < 1e-7, f"overlap {value}"


class TestInvariants:
    """Structural invariants preserved by every unitary gate."""

    def test_overlap_invariance(self):
        rng = np.random.default_rng(61)
        for case in range(100):
            n = 1 + case % 2
            d1 = random_pure_description(n, 1.0, rng, alpha_max=1.0)
            d2 = random_pure_description(n, 1.0, rng, alpha_max=1.0)
            gate = _random_gate(rng, n)
            before = overlap(d1, d2)
            after = overlap(apply_unitary(d1, gate), apply_unitary(d2, gate))
            assert abs(after - before) < 1e-9, (
                f"case {case} {gate}: {before} -> {after}")

    def test_reference_magnitude_invariant_through_chain(self):
        rng = np.random.default_rng(67)
        for case in range(25):
            n = 1 + case % 2
            delta = random_pure_description(n, 1.0, rng, alpha_max=1.0)
            for _ in range(6):
                delta = apply_unitary(delta, _random_gate(rng, n))
                expected = reference_overlap_magnitude(delta.gamma)
                # Squeeze phase recovery carries a few 1e-9 of float error
                # per gate, so a six-gate chain budget sits below 1e-7.
                assert abs(abs(delta.r) - expected) < 1e-7, (
                    f"case {case}: |r| = {abs(delta.r)} vs {expected}")

    def test_validity_and_purity_preserved(self):
        rng = np.random.default_rng(71)
        omega2 = symplectic_form(2)
        for case in range(25):
            delta = random_pure_description(2, 1.0, rng, alpha_max=1.0)
            for _ in range(5):
                delta = apply_unitary(delta, _random_gate(rng, 2))
            report = validate_description(delta)
            assert report.ok, f"case {case}: {report}"
            purity_defect = np.max(np.abs(delta.gamma @ omega2 @ delta.gamma - omega2))
            assert purity_defect < 1e-10, f"case {case}: purity defect {purity_defect}"

    def test_phaseshift_preserves_energy(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            delta = random_pure_description(1, 1.2, rng, alpha_max=1.2)
            before = energy_of_gaussian(delta.gamma, delta.d)
            evolved = apply_phaseshift(delta, float(rng.uniform(-np.pi, np.pi)), 1)
            after = energy_of_gaussian(evolved.gamma, evolved.d)
            assert abs(after - before) < 1e-10, f"{before} -> {after}"

    def test_apply_unitary_dispatch(self):
        delta = random_pure_description(2, 0.8, 79, alpha_max=0.8)
        beta = np.array([0.2 + 0.1j, 0.0j])
        pairs = [
            (Displacement(beta), apply_displacement(delta, beta)),
            (PhaseShift(0.4, 2), apply_phaseshift(delta, 0.4, 2)),
            (Beamsplitter(0.3, 1, 2), apply_beamsplitter(delta, 0.3, 1, 2)),
            (Squeeze(0.5, 1), apply_squeeze(delta, 0.5, 1)),
        ]
        for gate, direct in pairs:
            via_dispatch = apply_unitary(delta, gate)
            assert np.array_equal(via_dispatch.gamma, direct.gamma), f"{gate}"
            assert np.array_equal(via_dispatch.alpha, direct.alpha), f"{gate}"
            assert via_dispatch.r == direct.r, f"{gate}"


def _every_gate(n: int) -> list:
    """One gate of each kind, on the last mode where the kind allows."""
    gates = [Displacement(np.linspace(0.3 - 0.2j, -0.1 + 0.4j, n)),
             PhaseShift(0.7, n),
             Squeeze(0.45, 1),
             Squeeze(-0.3, n)]
    if n > 1:
        gates.append(Beamsplitter(-1.1, 2, 1))
    return gates


class TestStackedGates:
    """A gate applied to a BranchStack of χ branches in one call matches the
    gate applied to each description on its own, field by field."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_stack_matches_each_description(self, n):
        descriptions = phased_descriptions(2024 + n, n, 11, z_max=1.0)
        stack = stack_branches(descriptions)
        assert np.iscomplex(stack.r).all()
        for gate in _every_gate(n):
            out = apply_unitary(stack, gate)
            assert isinstance(out, BranchStack), f"{gate}"
            singles = [apply_unitary(d, gate) for d in descriptions]
            assert_rel_close(out.gamma, np.stack([d.gamma for d in singles]), 1e-14,
                             f"{gate} covariances")
            assert_rel_close(out.alpha, np.stack([d.alpha for d in singles]), 1e-14,
                             f"{gate} labels")
            assert np.array_equal(out.d, hat_d(out.alpha)), f"{gate} centers"
            for j, d in enumerate(singles):
                assert abs(out.r[j] - d.r) <= 1e-14 * abs(d.r), f"{gate} r of branch {j}"

    def test_description_in_description_out(self):
        delta = phased_descriptions(7, 2, 1)[0]
        for gate in _every_gate(2):
            out = apply_unitary(delta, gate)
            assert isinstance(out, GaussianDescription), f"{gate}"
            assert isinstance(out.r, complex), f"{gate}"

    def test_stacked_chain_keeps_descriptions_valid(self):
        stack = stack_branches(phased_descriptions(9, 2, 9))
        for gate in _every_gate(2) * 2:
            stack = apply_unitary(stack, gate)
        report = validate_description(stack)
        assert report.ok.shape == (9,) and report.ok.all(), f"{report}"

    def test_zero_reference_overlap_in_stack_raises(self):
        stack = stack_branches(phased_descriptions(13, 2, 5))
        stack = stack._replace(r=np.where(np.arange(5) == 3, 0.0, stack.r))
        with pytest.raises(PhaseRecoveryError):
            apply_squeeze(stack, 0.5, 2)

    def test_shared_chain_of_squeezes_solves_once_per_gate(self, monkeypatch):
        # each squeeze solves once for the one covariance and evaluates no
        # overlap: no covariance-pair stage runs
        sizes = []
        solve = evolution._solve_position

        def counted(gamma, rhs):
            sizes.append(int(np.prod(gamma.shape[:-2])))
            return solve(gamma, rhs)

        def no_stage(*args):
            raise AssertionError("a squeeze ran a covariance-pair stage")

        monkeypatch.setattr(evolution, "_solve_position", counted)
        monkeypatch.setattr(overlaps, "_seen", no_stage)
        rng = np.random.default_rng(19)
        delta = random_pure_description(2, 1.0, rng)
        stack = BranchStack(delta.gamma[None], rng.normal(size=(16, 2)) + 0j,
                            delta.r * np.exp(1j * rng.uniform(-np.pi, np.pi, 16)))
        for z, j in ((0.4, 1), (-0.7, 2), (1.1, 1)):
            stack = apply_squeeze(stack, z, j)
        assert sizes == [1, 1, 1], f"solve sizes {sizes}"
        assert stack.gamma.shape == (1, 4, 4)

    def test_wrong_displacement_size_rejected(self):
        stack = stack_branches(phased_descriptions(3, 2, 4))
        with pytest.raises(ValidationError):
            apply_displacement(stack, np.array([0.1j]))
