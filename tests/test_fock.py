"""Unit tests for the truncated number-basis oracle."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.sparse.linalg import expm_multiply

from conftest import complex_in_disc

from gaussum.core import (
    Beamsplitter,
    Displacement,
    GaussianDescription,
    PhaseShift,
    Squeeze,
    coherent_description,
    hat_d,
    random_pure_description,
    vacuum_description,
)
from gaussum import fock
from gaussum.evolution import apply_unitary
from gaussum.fock import (
    FockVector,
    TailMassError,
    fock_apply_gate,
    fock_coherent,
    fock_energy,
    fock_from_description,
    fock_gate,
    fock_heterodyne_density,
    fock_mean_photons,
    fock_moments,
    fock_norm,
    fock_overlap,
    fock_project,
    fock_squeezed_vacuum,
    fock_vacuum,
)
from gaussum.overlaps import coherent_overlap


class TestBasisStates:
    """Hand-checkable amplitude content of the builders."""

    def test_vacuum_is_unit_basis_vector(self):
        v = fock_vacuum([8])
        assert v.amps[0] == 1.0 and np.count_nonzero(v.amps) == 1

    def test_coherent_zero_label(self):
        v = fock_coherent(0.0, 12)
        assert np.array_equal(v.amps, fock_vacuum([12]).amps)

    def test_coherent_unit_label_frozen(self):
        v = fock_coherent(1.0, 30)
        assert abs(v.amps[0] - np.exp(-0.5)) < 1e-15, f"amp₀ = {v.amps[0]}"
        assert abs(fock_norm(v) - 1.0) < 1e-12, f"norm {fock_norm(v)}"

    def test_squeezed_vacuum_frozen(self):
        v = fock_squeezed_vacuum(1.0, 127)
        assert abs(v.amps[0] - 1.0 / np.sqrt(np.cosh(1.0))) < 1e-12, f"{v.amps[0]}"
        assert np.max(np.abs(v.amps[1::2])) == 0.0, "odd levels must vanish"

    def test_squeezed_vacuum_zero_is_vacuum(self):
        v = fock_squeezed_vacuum(0.0, 10)
        assert np.array_equal(v.amps, fock_vacuum([10]).amps)

    def test_coherent_tail_guard(self):
        # n̄ = 25 leaves substantial weight in the top slots at cutoff 30.
        with pytest.raises(TailMassError):
            fock_coherent(5.0, 30)


class TestGates:
    """Truncated gate unitaries and their label-level actions."""

    def test_phaseshift_zero_is_identity(self):
        u = fock_gate(PhaseShift(0.0, 1), 20)
        assert np.allclose(u, np.eye(21), atol=1e-14)

    def test_displacement_moves_vacuum(self):
        beta = 0.5 + 0.3j
        out = fock_apply_gate(fock_vacuum([32]), Displacement(np.array([beta])))
        target = fock_coherent(-beta, 31)
        assert abs(fock_overlap(out, target) - 1.0) < 1e-8, "D(β)|0⟩ = |-β⟩"

    def test_squeeze_matches_builder(self):
        out = fock_apply_gate(fock_vacuum([96]), Squeeze(0.8, 1))
        target = fock_squeezed_vacuum(0.8, 95)
        assert abs(fock_overlap(out, target) - 1.0) < 1e-8

    def test_single_mode_unitarity(self):
        rng = np.random.default_rng(107)
        n_max = 48
        gates = [Displacement(np.array([complex_in_disc(rng, 2.0)])),
                 PhaseShift(float(rng.uniform(-np.pi, np.pi)), 1),
                 Squeeze(float(rng.uniform(-1.5, 1.5)), 1)]
        for g in gates:
            u = fock_gate(g, n_max, n=1)
            half = (n_max + 1) // 2
            defect = np.max(np.abs((u.conj().T @ u - np.eye(n_max + 1))[:half, :half]))
            assert defect < 1e-8, f"{g}: unitarity defect {defect}"

    def test_beamsplitter_unitarity(self):
        u = fock_gate(Beamsplitter(0.6, 1, 2), 24, n=2)
        defect = np.max(np.abs(u.conj().T @ u - np.eye(25 ** 2)))
        assert defect < 1e-8, f"defect {defect}"

    def test_beamsplitter_label_map_no_phase(self):
        a, b = 0.6 + 0.2j, -0.3 + 0.4j
        omega = 0.8
        c, s = np.cos(omega), np.sin(omega)
        state = FockVector(np.multiply.outer(fock_coherent(a, 40).amps,
                                             fock_coherent(b, 40).amps))
        out = fock_apply_gate(state, Beamsplitter(omega, 1, 2))
        target = FockVector(np.multiply.outer(
            fock_coherent(c * a - 1j * s * b, 40).amps,
            fock_coherent(c * b - 1j * s * a, 40).amps))
        value = fock_overlap(target, out)
        assert abs(value - 1.0) < 1e-8, f"overlap {value}"


ALL_GATES = {
    1: [Displacement(np.array([0.9 - 0.7j])), PhaseShift(2.3, 1), Squeeze(0.7, 1)],
    2: [Displacement(np.array([0.9 - 0.7j, -0.4 + 0.3j])), PhaseShift(-1.1, 2),
        Squeeze(-0.6, 1), Squeeze(0.4, 2), Beamsplitter(0.7, 1, 2),
        Beamsplitter(-0.5, 2, 1)],
}


class TestOneGeneratorPerGate:
    """fock_gate and fock_apply_gate exponentiate the same generator."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_apply_matches_dense_unitary(self, n):
        rng = np.random.default_rng(137 + n)
        n_max = 12
        v = rng.normal(size=(n_max + 1,) * n) + 1j * rng.normal(size=(n_max + 1,) * n)
        for g in ALL_GATES[n]:
            got = fock_apply_gate(FockVector(v), g).amps.reshape(-1)
            want = fock_gate(g, n_max, n) @ v.reshape(-1)
            assert np.max(np.abs(got - want)) < 1e-12, f"{g}"

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_exponential_action_per_gate(self, n, monkeypatch):
        calls = []

        def counting(gen, vec):
            calls.append(gen.shape)
            return expm_multiply(gen, vec)

        monkeypatch.setattr(fock, "expm_multiply", counting)
        state = fock_vacuum([10] * n)
        for g in ALL_GATES[n]:
            fock_apply_gate(state, g)
        assert calls == [(11 ** n, 11 ** n)] * len(ALL_GATES[n])


class TestOverlapAndDensity:
    """Inner products and heterodyne densities in the truncated basis."""

    def test_coherent_pair_closed_form(self):
        rng = np.random.default_rng(109)
        for _ in range(30):
            a, b = complex_in_disc(rng, 1.5), complex_in_disc(rng, 1.5)
            value = fock_overlap(fock_coherent(a, 40), fock_coherent(b, 40))
            expected = coherent_overlap(np.array([a]), np.array([b]))
            assert abs(value - expected) < 1e-9, f"{value} vs {expected}"

    def test_vacuum_density(self):
        p = fock_heterodyne_density(fock_vacuum([16]), np.array([0.0j]))
        assert abs(p - 1.0 / np.pi) < 1e-12, f"p = {p}"

    def test_project_product_state(self):
        a, b, beta = 0.5 + 0.1j, -0.2 + 0.6j, 0.3 - 0.4j
        state = FockVector(np.multiply.outer(fock_coherent(a, 36).amps,
                                             fock_coherent(b, 36).amps))
        cond, norm_sq = fock_project(state, np.array([beta]))
        amp = coherent_overlap(np.array([beta]), np.array([a]))
        assert abs(norm_sq - abs(amp) ** 2) < 1e-10, f"norm² {norm_sq}"
        target = fock_coherent(b, 36).amps * amp
        assert np.max(np.abs(cond - target)) < 1e-10, "conditional amplitudes"


class TestEnergyAndMoments:
    """Photon-number functionals of truncated states."""

    def test_frozen_energies(self):
        assert abs(fock_energy(fock_vacuum([8])) - 2.0) < 1e-12
        assert abs(fock_energy(fock_coherent(1.0, 40)) - 4.0) < 1e-10
        z = 0.8
        e = fock_energy(fock_squeezed_vacuum(z, 95))
        assert abs(e - (np.cosh(2 * z) + 1.0)) < 1e-10, f"{e}"

    def test_mean_photons_coherent(self):
        nbar = fock_mean_photons(fock_coherent(1.2, 50))
        assert abs(nbar[0] - 1.44) < 1e-9, f"n̄ = {nbar}"

    def test_moments_match_description(self):
        rng = np.random.default_rng(113)
        for case in range(10):
            n = 1 + case % 2
            delta = random_pure_description(n, 0.8, rng, alpha_max=0.8)
            d, gamma = fock_moments(fock_from_description(delta))
            assert np.max(np.abs(d - delta.d)) < 1e-6, f"case {case} centers"
            assert np.max(np.abs(gamma - delta.gamma)) < 1e-6, f"case {case} covariance"


class TestFromDescription:
    """Expanding (Γ, α, r) descriptions into the truncated basis."""

    def test_vacuum_description(self):
        v = fock_from_description(vacuum_description(1))
        assert abs(v.amps[0] - 1.0) < 1e-12
        assert fock_norm(v) == pytest.approx(1.0, abs=1e-10)

    def test_coherent_description(self):
        alpha = 0.7 - 0.5j
        v = fock_from_description(coherent_description(np.array([alpha])))
        target = fock_coherent(alpha, v.dims[0] - 1)
        assert abs(fock_overlap(target, v) - 1.0) < 1e-10

    def test_reference_phase_contract(self):
        # ⟨α, ψ⟩ must reproduce the stored r, phase included.
        rng = np.random.default_rng(127)
        for case in range(12):
            n = 1 + case % 2
            delta = random_pure_description(n, 0.9, rng, alpha_max=0.9)
            state = fock_from_description(delta)
            bra = [fock_coherent(a, state.dims[j] - 1)
                   for j, a in enumerate(delta.alpha)]
            amps = bra[0].amps if n == 1 else np.multiply.outer(bra[0].amps,
                                                                bra[1].amps)
            value = fock_overlap(FockVector(amps), state)
            assert abs(value - delta.r) < 1e-7, f"case {case}: {value} vs {delta.r}"

    def test_two_mode_product_factorizes(self):
        rng = np.random.default_rng(131)
        d1 = random_pure_description(1, 0.8, rng, alpha_max=0.8)
        d2 = random_pure_description(1, 0.8, rng, alpha_max=0.8)
        product = GaussianDescription(
            block_diag(d1.gamma, d2.gamma),
            np.concatenate([d1.alpha, d2.alpha]),
            d1.r * d2.r)
        n_max = 48
        joint = fock_from_description(product, n_max=n_max, cap=n_max)
        single = np.multiply.outer(
            fock_from_description(d1, n_max=n_max, cap=n_max).amps,
            fock_from_description(d2, n_max=n_max, cap=n_max).amps)
        assert np.max(np.abs(joint.amps - single)) < 1e-9

    def test_tail_cap_raises(self):
        heavy = GaussianDescription(np.diag([np.exp(-6.0), np.exp(6.0)]),
                                    np.zeros(1, dtype=complex),
                                    1.0 / np.sqrt(np.cosh(3.0)))
        with pytest.raises(TailMassError):
            fock_from_description(heavy, cap=32)

    def test_two_mode_fill_satisfies_both_relations(self):
        # squeezed, entangled by a beamsplitter, then displaced
        delta = vacuum_description(2)
        for g in (Squeeze(0.7, 1), Squeeze(-0.4, 2), Beamsplitter(0.6, 1, 2),
                  Displacement(np.array([0.8 - 0.3j, -0.5 + 0.6j]))):
            delta = apply_unitary(delta, g)
        psi = fock_from_description(delta).amps
        mu, nu, c = fock._bogoliubov_rows(delta)
        r1 = np.sqrt(np.arange(psi.shape[0]))[:, None]
        r2 = np.sqrt(np.arange(psi.shape[1]))[None, :]
        # a_j and a_j† on the interior grid [1, dim-1) along both axes
        inner = psi[1:-1, 1:-1]
        a = (r1[2:] * psi[2:, 1:-1], r2[:, 2:] * psi[1:-1, 2:])
        a_dag = (r1[1:-1] * psi[:-2, 1:-1], r2[:, 1:-1] * psi[1:-1, :-2])
        for i in range(2):
            residual = (mu[i, 0] * a[0] + mu[i, 1] * a[1] + nu[i, 0] * a_dag[0]
                        + nu[i, 1] * a_dag[1] - c[i] * inner)
            defect = np.max(np.abs(residual)) / np.linalg.norm(psi)
            assert defect < 1e-12, f"relation {i}: defect {defect:.3e}"
