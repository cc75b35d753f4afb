"""Unit tests for phase-space primitives, gates, and description validity."""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from gaussum.core import (
    Beamsplitter,
    Displacement,
    GaussianDescription,
    NumericError,
    PhaseShift,
    Squeeze,
    ValidationError,
    coherent_description,
    energy_of_gaussian,
    gate_symplectic,
    hat_d,
    hat_d_inv,
    random_pure_description,
    reference_overlap_magnitude,
    symplectic_form,
    vacuum_description,
    validate_description,
)
from gaussum.overlaps import BranchStack
from gaussum.superposition import GaussianSuperposition

SQRT2 = np.sqrt(2.0)


class TestSymplecticForm:
    """The form Ω encoding the canonical commutators."""

    def test_single_mode_block(self):
        om = symplectic_form(1)
        assert np.array_equal(om, [[0.0, 1.0], [-1.0, 0.0]]), f"Ω block: {om}"

    def test_antisymmetric_and_squares_to_minus_identity(self):
        om = symplectic_form(3)
        assert np.array_equal(om.T, -om), "Ω must be antisymmetric"
        assert np.allclose(om @ om, -np.eye(6)), "Ω² must be -I"


class TestComplexParameterization:
    """d̂(α) interleaves √2·(Re α_j, Im α_j)."""

    def test_frozen_value(self):
        d = hat_d(np.array([1.0 + 2.0j]))
        assert np.allclose(d, [SQRT2, 2.0 * SQRT2], atol=1e-15), f"d̂(1+2i) = {d}"

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            back = hat_d_inv(hat_d(alpha))
            assert np.allclose(back, alpha, atol=1e-14), f"{back} != {alpha}"

    def test_accepts_strided_labels(self):
        alpha = np.array([1.0 + 2.0j, -0.5 + 0.5j])
        assert np.allclose(hat_d(alpha[::-1]), hat_d(alpha[::-1].copy()))


class TestGateSpecs:
    """Gate parameter validation and symplectic matrices."""

    def test_squeeze_zero_rejected(self):
        with pytest.raises(ValidationError):
            Squeeze(0.0, 1)

    def test_beamsplitter_same_mode_rejected(self):
        with pytest.raises(ValidationError):
            Beamsplitter(0.3, 2, 2)

    def test_all_gates_give_symplectic_matrices(self):
        om = symplectic_form(2)
        gates = [
            Displacement(np.array([0.3 + 0.1j, -0.2j])),
            PhaseShift(1.1, 1),
            PhaseShift(-0.4, 2),
            Beamsplitter(0.7, 1, 2),
            Beamsplitter(2.2, 2, 1),
            Squeeze(0.8, 1),
            Squeeze(-0.6, 2),
        ]
        for g in gates:
            s, _ = gate_symplectic(g, 2)
            defect = np.max(np.abs(s @ om @ s.T - om))
            assert defect <= 1e-12, f"{g}: symplectic defect {defect:.3e}"

    def test_beamsplitter_block_frozen(self):
        c, s = np.cos(0.5), np.sin(0.5)
        mat, _ = gate_symplectic(Beamsplitter(0.5, 1, 2), 2)
        expected = np.array([
            [c, 0.0, 0.0, s],
            [0.0, c, -s, 0.0],
            [0.0, s, c, 0.0],
            [-s, 0.0, 0.0, c],
        ])
        assert np.allclose(mat, expected, atol=1e-15), f"BS block:\n{mat}"

    def test_phaseshift_block_frozen(self):
        c, s = np.cos(0.9), np.sin(0.9)
        mat, _ = gate_symplectic(PhaseShift(0.9, 1), 1)
        assert np.allclose(mat, [[c, s], [-s, c]], atol=1e-15), f"PS block:\n{mat}"

    def test_squeeze_block_frozen(self):
        mat, _ = gate_symplectic(Squeeze(0.7, 1), 1)
        expected = np.diag([np.exp(-0.7), np.exp(0.7)])
        assert np.allclose(mat, expected, atol=1e-15), f"squeeze block:\n{mat}"

    def test_mode_out_of_range(self):
        with pytest.raises(ValidationError):
            gate_symplectic(PhaseShift(0.3, 3), 2)


class TestDescriptions:
    """Construction, validation, and the reference-overlap invariant."""

    def test_vacuum_is_valid_and_pure(self):
        report = validate_description(vacuum_description(2))
        assert report.ok, f"vacuum should validate: {report}"

    def test_coherent_description_fields(self):
        delta = coherent_description([0.5 - 0.25j])
        assert np.allclose(delta.gamma, np.eye(2)), "coherent Γ must be I"
        assert abs(delta.r - 1.0) < 1e-15, f"coherent r = {delta.r}"

    def test_reference_overlap_invariant_on_random_descriptions(self):
        for seed in range(30):
            n = 1 + seed % 2
            delta = random_pure_description(n, 1.2, seed, alpha_max=1.5)
            expected = 2.0 ** n / np.sqrt(np.linalg.det(np.eye(2 * n) + delta.gamma))
            assert abs(abs(delta.r) ** 2 - expected) < 1e-12, (
                f"seed {seed}: |r|²={abs(delta.r)**2} vs {expected}")
            assert validate_description(delta).ok, f"seed {seed} invalid"

    def test_random_descriptions_deterministic(self):
        a = random_pure_description(2, 1.0, 42)
        b = random_pure_description(2, 1.0, 42)
        assert np.array_equal(a.gamma, b.gamma), "same seed must reproduce Γ"
        assert np.array_equal(a.alpha, b.alpha), "same seed must reproduce α"

    def test_random_description_labels_pinned(self):
        # Seeded test inputs rest on these labels, so the one-label ball
        # draw must keep its stream use and rounding: SHA-256 digests of
        # the labels for seeds 0-49.
        pinned = {
            (1, 0.0): "0a15dea8515481632c57c6605c7e8a58e7cd5a13ed28872589b8f4938c06f563",
            (2, 0.8): "5949fb31197237f26e9b0a8de62e3413f460338eeea3b4c0c6fc3a361242d3f1",
            (3, 1.5): "62bbfee237f5eeabae211f9a6730ab6188bb4a391a740e1e092095422959c6c8",
        }
        for (n, z_max), digest in pinned.items():
            labels = np.stack([random_pure_description(n, z_max, seed).alpha
                               for seed in range(50)])
            assert hashlib.sha256(labels.tobytes()).hexdigest() == digest, (
                f"labels at n={n}, z_max={z_max} changed")

    def test_invalid_covariance_detected(self):
        bad = GaussianDescription(0.1 * np.eye(2), np.zeros(1, dtype=complex), 1.0)
        report = validate_description(bad)
        assert not report.ok, "Γ = 0.1·I violates the uncertainty bound"

    def test_report_over_shared_covariance_names_every_branch(self):
        psi = GaussianSuperposition(np.ones(3), [coherent_description([a])
                                                 for a in (0.5, -0.5j, 1.0)])
        assert psi.branches.gamma.shape == (1, 2, 2)
        report = validate_description(psi.branches)
        for field in fields(report):
            assert np.shape(getattr(report, field.name)) == (3,), field.name
        assert report.branch(2) == validate_description(psi.descriptions[2])
        bad = psi.branches._replace(r=np.array([1.0, 1.0, 1.5]))
        assert validate_description(bad).ok.tolist() == [True, True, False]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            GaussianDescription(np.eye(4), np.zeros(1, dtype=complex), 1.0)

    def test_reference_magnitude_needs_positive_definite_i_plus_gamma(self):
        # I + Γ = -2I has det 4 > 0 but no positive definite square root
        with pytest.raises(NumericError, match="positive definite"):
            reference_overlap_magnitude(-3.0 * np.eye(2))
        stack = np.stack([np.eye(2), -3.0 * np.eye(2), np.diag([4.0, 0.25])])
        with pytest.raises(NumericError):
            reference_overlap_magnitude(stack)
        good = reference_overlap_magnitude(stack[[0, 2]])
        expected = (2.0 / np.sqrt(np.linalg.det(np.eye(2) + stack[[0, 2]]))) ** 0.5
        assert np.allclose(good, expected, rtol=1e-14, atol=0.0), f"{good} vs {expected}"
        r = np.array([1.0, 1.0, good[1]])
        report = validate_description(BranchStack(stack, np.zeros((3, 1)), r))
        assert report.ok.tolist() == [True, False, True], f"{report}"
        assert np.isnan(report.r_defect[1]) and not np.isnan(report.r_defect[[0, 2]]).any()


class TestEnergy:
    """⟨H⟩ = ½·tr Γ + ‖d‖² + n with H = Σ_j (Q_j² + P_j² + 1)."""

    def test_vacuum_energy(self):
        assert abs(energy_of_gaussian(np.eye(2), np.zeros(2)) - 2.0) < 1e-15

    def test_coherent_energy(self):
        value = energy_of_gaussian(np.eye(2), hat_d(np.array([1.0 + 0.0j])))
        assert abs(value - 4.0) < 1e-14, f"coherent α=1 energy {value}"

    def test_squeezed_energy(self):
        z = 0.8
        gamma = np.diag([np.exp(-2 * z), np.exp(2 * z)])
        value = energy_of_gaussian(gamma, np.zeros(2))
        assert abs(value - (np.cosh(2 * z) + 1.0)) < 1e-12, f"{value}"
