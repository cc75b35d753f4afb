"""Unit tests for heterodyne outcome densities and conditioned descriptions."""

from __future__ import annotations

import numpy as np

from conftest import complex_in_disc

from gaussum.core import (
    coherent_description,
    random_pure_description,
    reference_overlap_magnitude,
    symplectic_form,
    vacuum_description,
    validate_description,
)
from gaussum.fock import (
    fock_coherent,
    fock_from_description,
    fock_heterodyne_density,
    fock_overlap,
    fock_project,
    FockVector,
)
from gaussum.measurement import heterodyne_density, postmeasure
from gaussum.overlaps import overlap


class TestHeterodyneDensity:
    """p(β) = |⟨β|ψ⟩|²/π^k for the leading measured modes."""

    def test_vacuum_at_origin(self):
        p = heterodyne_density(vacuum_description(1), np.array([0.0j]))
        assert abs(p - 1.0 / np.pi) < 1e-15, f"p(0) = {p}"

    def test_vacuum_off_origin(self):
        p = heterodyne_density(vacuum_description(1), np.array([1.0 + 0.0j]))
        assert abs(p - np.exp(-1.0) / np.pi) < 1e-15, f"p(1) = {p}"

    def test_coherent_peak(self):
        alpha = np.array([0.7 - 0.4j])
        p = heterodyne_density(coherent_description(alpha), alpha)
        assert abs(p - 1.0 / np.pi) < 1e-14, f"peak density {p}"

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(83)
        for case in range(25):
            n = 1 + case % 2
            delta = random_pure_description(n, 0.8, rng, alpha_max=0.8)
            beta = np.array([complex_in_disc(rng, 1.2) for _ in range(n)])
            p = heterodyne_density(delta, beta)
            expected = fock_heterodyne_density(fock_from_description(delta), beta)
            assert abs(p - expected) < 1e-8, f"case {case}: {p} vs {expected}"


class TestPostmeasure:
    """Conditioning (Γ, α, r) on a heterodyne outcome."""

    def test_two_mode_vacuum_at_origin(self):
        post, p = postmeasure(vacuum_description(2), np.array([0.0j]))
        assert abs(p - 1.0 / np.pi) < 1e-14, f"p = {p}"
        assert np.allclose(post.gamma, np.eye(4), atol=1e-12)
        assert np.allclose(post.alpha, 0.0, atol=1e-12)
        assert abs(post.r - 1.0) < 1e-12, f"r' = {post.r}"

    def test_full_measurement_leaves_outcome_state(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            delta = random_pure_description(1, 0.8, rng, alpha_max=0.8)
            beta = np.array([complex_in_disc(rng, 1.0)])
            post, p = postmeasure(delta, beta)
            assert np.allclose(post.gamma, np.eye(2), atol=1e-10)
            assert np.allclose(post.alpha, beta, atol=1e-10)
            assert p > 0

    def test_post_description_valid_and_pure(self):
        rng = np.random.default_rng(97)
        omega = symplectic_form(2)
        for case in range(20):
            delta = random_pure_description(2, 0.9, rng, alpha_max=0.9)
            beta = np.array([complex_in_disc(rng, 1.0)])
            post, _ = postmeasure(delta, beta)
            report = validate_description(post)
            assert report.ok, f"case {case}: {report}"
            defect = np.max(np.abs(post.gamma @ omega @ post.gamma - omega))
            assert defect < 1e-9, f"case {case}: purity defect {defect}"
            magnitude = reference_overlap_magnitude(post.gamma)
            assert abs(abs(post.r) - magnitude) < 1e-8, (
                f"case {case}: |r'| = {abs(post.r)} vs {magnitude}")

    def test_density_matches_oracle(self):
        rng = np.random.default_rng(101)
        for case in range(15):
            delta = random_pure_description(2, 0.8, rng, alpha_max=0.8)
            beta = np.array([complex_in_disc(rng, 1.0)])
            _, p = postmeasure(delta, beta)
            state = fock_from_description(delta)
            _, norm_sq = fock_project(state, beta)
            expected = norm_sq / np.pi
            assert abs(p - expected) < 1e-8, f"case {case}: {p} vs {expected}"

    def test_post_state_matches_oracle_including_phase(self):
        rng = np.random.default_rng(103)
        for case in range(15):
            delta = random_pure_description(2, 0.8, rng, alpha_max=0.8)
            beta = np.array([complex_in_disc(rng, 1.0)])
            post, _ = postmeasure(delta, beta)
            state = fock_from_description(delta)
            cond, norm_sq = fock_project(state, beta)
            dims = state.dims
            outcome_mode = fock_coherent(beta[0], dims[0]).amps
            oracle_amps = np.multiply.outer(outcome_mode, cond) / np.sqrt(norm_sq)
            value = fock_overlap(fock_from_description(post),
                                 FockVector(oracle_amps))
            assert abs(value - 1.0) < 1e-6, f"case {case}: overlap {value}"

    def test_far_outcome_underflows(self):
        # p = e^{-3600}/π lies below the double range and reads 0.0; the
        # conditioned description is still exact: the coherent state |60⟩.
        post, p = postmeasure(vacuum_description(1), np.array([60.0 + 0.0j]))
        assert p == 0.0
        assert validate_description(post).ok
        assert np.allclose(post.alpha, [60.0], atol=1e-12)
        assert abs(post.r - 1.0) < 1e-12, f"r' = {post.r}"
