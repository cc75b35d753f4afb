"""Unit tests for superpositions: exact and randomized norms, measurement
updates, and energy bookkeeping."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import phased_descriptions, random_superposition

from gaussum import overlaps, superposition

from gaussum.circuit import evolve, parse_circuit
from gaussum.core import (
    Beamsplitter,
    Displacement,
    GaussianDescription,
    NumericError,
    PhaseRecoveryError,
    PhaseShift,
    Squeeze,
    ValidationError,
    _uniform_complex_ball,
    coherent_description,
    energy_of_gaussian,
    hat_d,
    random_pure_description,
    vacuum_description,
    validate_description,
)
from gaussum.fock import (
    fock_energy,
    fock_from_superposition,
    fock_heterodyne_density,
    fock_norm,
)
from gaussum.overlaps import GRAM_BLOCK, BranchStack, gram, overlap, stack_branches
from gaussum.states import appendix_d_state, cat_state, gkp_comb
from gaussum.superposition import (
    GaussianSuperposition,
    circuit_energy_bound,
    exact_norm,
    fast_norm,
    fast_norm_parameters,
    measureprob_approx,
    measureprob_exact,
    post_measurement_superposition,
    superposition_energy_exact,
    typical_parameters,
)

CAT_NORM_SQ = 2.0 * (1.0 + np.exp(-2.0))


def _unnormalized_cat() -> GaussianSuperposition:
    return GaussianSuperposition(
        np.array([1.0 + 0.0j, 1.0 + 0.0j]),
        (coherent_description(np.array([1.0 + 0.0j])),
         coherent_description(np.array([-1.0 + 0.0j]))))


class TestContainer:
    """Construction-time validation of superpositions."""

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            GaussianSuperposition(np.array([1.0 + 0j]),
                                  (vacuum_description(1), vacuum_description(1)))

    def test_mixed_mode_counts(self):
        with pytest.raises(ValidationError):
            GaussianSuperposition(np.array([1.0 + 0j, 1.0 + 0j]),
                                  (vacuum_description(1), vacuum_description(2)))

    def test_stored_as_one_read_only_stack(self):
        descriptions = phased_descriptions(41, 2, 5)
        psi = GaussianSuperposition(np.ones(5), descriptions)
        assert isinstance(psi.branches, BranchStack)
        assert psi.branches.gamma.shape == (5, 4, 4) and psi.n == 2 and psi.chi == 5
        for array in psi.branches:
            assert not array.flags.writeable
        for view, original in zip(psi.descriptions, descriptions):
            assert np.array_equal(view.gamma, original.gamma)
            assert np.array_equal(view.alpha, original.alpha)
            assert view.r == original.r
        assert [c for c, _ in psi.terms] == list(psi.coeffs)

    def test_built_from_a_stack(self):
        stack = stack_branches(phased_descriptions(43, 1, 3))
        psi = GaussianSuperposition(np.ones(3), stack)
        for held, given in zip(psi.branches, stack):
            assert np.shares_memory(held, given) and np.array_equal(held, given)
            assert given.flags.writeable and not held.flags.writeable
        with pytest.raises(ValidationError):
            GaussianSuperposition(np.ones(2), stack)
        with pytest.raises(ValidationError):
            GaussianSuperposition(np.ones(1), stack.take(0))

    def test_equal_covariances_stored_once(self):
        # from descriptions, from a stack with one covariance per branch,
        # and from a parsed terms document: one covariance, decided here
        n, chi = 2, 4
        gamma = random_pure_description(n, 0.7, 44).gamma
        labels = np.linspace(-1.0, 1.0, chi)[:, None] * np.array([0.4 + 0.3j, -0.5j])
        descriptions = tuple(GaussianDescription(gamma, a, 0.8) for a in labels)
        stack = stack_branches(descriptions)
        assert stack.gamma.shape == (chi, 2 * n, 2 * n)
        doc = {"modes": n, "gates": [], "state": {"type": "terms", "terms": [
            {"coeff": [1.0, 0.0], "gamma": gamma.tolist(),
             "alpha": [[a.real, a.imag] for a in label]} for label in labels]}}
        for psi in (GaussianSuperposition(np.ones(chi), descriptions),
                    GaussianSuperposition(np.ones(chi), stack),
                    parse_circuit(json.dumps(doc))[0]):
            assert psi.branches.gamma.shape == (1, 2 * n, 2 * n)
            assert np.array_equal(psi.branches.gamma[0], gamma)
            assert len(psi.descriptions) == chi
            for view, label in zip(psi.descriptions, labels):
                assert view.gamma.shape == (2 * n, 2 * n)
                assert np.array_equal(view.gamma, gamma)
                assert np.array_equal(view.alpha, label)

    def test_non_finite_label_rejected(self):
        bad = GaussianDescription(np.eye(2), np.array([np.nan + 0j]), 1.0)
        with pytest.raises(ValidationError, match="non-finite"):
            GaussianSuperposition(np.ones(2), (vacuum_description(1), bad))
        with pytest.raises(ValidationError, match="non-finite"):
            GaussianSuperposition(np.ones(1), stack_branches([bad]))

    def test_norms_make_no_equality_test(self, monkeypatch):
        psi = cat_state(0.9 - 0.4j, "odd")
        calls = []
        for module in (overlaps, superposition):
            shared = getattr(module, "_shared", None)
            if shared is not None:
                monkeypatch.setattr(module, "_shared",
                                    lambda stack, f=shared: calls.append(1) or f(stack))
        exact_norm(psi)
        fast_norm(psi, 0.5, 0.25, 3.0, 5)
        assert not calls, f"{len(calls)} covariance equality tests"


class TestExactNorm:
    """Gram-sum norm ‖Ψ‖ over all χ² branch pairs."""

    def test_single_branch_normalized(self):
        psi = GaussianSuperposition(np.array([1.0 + 0j]), (vacuum_description(1),))
        assert abs(exact_norm(psi) - 1.0) < 1e-12

    def test_frozen_unnormalized_cat(self):
        value = exact_norm(_unnormalized_cat())
        assert abs(value - np.sqrt(CAT_NORM_SQ)) < 1e-10, f"‖Ψ‖ = {value}"

    def test_cancelling_pair_clamps_to_zero(self):
        d = vacuum_description(1)
        psi = GaussianSuperposition(np.array([1.0 + 0j, -1.0 + 0j]), (d, d))
        value = exact_norm(psi)
        assert value == 0.0 or value < 1e-8, f"‖Ψ‖ = {value}"

    def test_matches_oracle(self):
        for case in range(12):
            n = 1 + case % 2
            chi = 2 + case % 3
            psi = random_superposition(200 + case, n=n, chi=chi, z_max=0.8,
                                       alpha_max=0.8)
            value = exact_norm(psi)
            expected = fock_norm(fock_from_superposition(psi.terms))
            assert abs(value - expected) < 1e-7, f"case {case}: {value} vs {expected}"

    def test_gram_matrix_positive(self):
        for case in range(10):
            psi = random_superposition(300 + case, n=1 + case % 2, chi=4,
                                       z_max=0.9, alpha_max=0.9)
            low = np.linalg.eigvalsh(gram(psi.branches)).min()
            assert low >= -1e-8, f"case {case}: min Gram eigenvalue {low}"

    def test_wrong_reference_magnitude_raises(self):
        # |r| is fixed by Γ; scaling one branch's r by 1.1 breaks
        # |G_kj|² = pair_fidelity for every pair that branch is in.
        psi = random_superposition(310, n=1, chi=3, z_max=0.6, alpha_max=0.6)
        ds = list(psi.descriptions)
        bad = ds[1]
        ds[1] = GaussianDescription(bad.gamma, bad.alpha, 1.1 * bad.r)
        with pytest.raises(NumericError):
            exact_norm(GaussianSuperposition(psi.coeffs, tuple(ds)))


class TestFastNormParameters:
    """Closed forms for the estimator's radius and sample count."""

    def test_frozen_small(self):
        params = fast_norm_parameters(2.0, 0.5, 0.25)
        assert params.radius == pytest.approx(2.0, abs=1e-12)
        assert params.samples == 6, f"L = {params.samples}"

    def test_frozen_large(self):
        params = fast_norm_parameters(10.0, 0.1, 0.1)
        assert params.radius == pytest.approx(10.0, abs=1e-12)
        assert params.samples == 7958, f"L = {params.samples}"

    def test_domain_errors(self):
        for args in [(0.0, 0.5, 0.25), (2.0, 0.0, 0.25), (2.0, 0.5, 0.0),
                     (2.0, 0.5, 1.0)]:
            with pytest.raises(ValidationError):
                fast_norm_parameters(*args)

    @pytest.mark.parametrize("energy, epsilon", [
        (2.0, float("nan")), (2.0, float("inf")), (2.0, 1e-300),
        (float("nan"), 0.5), (float("inf"), 0.5)])
    def test_non_finite_parameters_rejected(self, energy, epsilon):
        # ε = 1e-300 is finite, but ε³ underflows and L would be infinite
        with pytest.raises(ValidationError):
            fast_norm_parameters(energy, epsilon, 0.25)


class TestFastNorm:
    """Randomized squared-norm estimates under the accuracy guarantee."""

    def test_vacuum_success_rate(self):
        psi = GaussianSuperposition(np.array([1.0 + 0j]), (vacuum_description(1),))
        hits = sum(abs(fast_norm(psi, 0.5, 0.25, 2.0, seed) - 1.0) <= 0.5
                   for seed in range(200))
        assert hits >= 150, f"success {hits}/200 below 75%"

    def test_unnormalized_cat_success_rate(self):
        psi = _unnormalized_cat()
        energy = superposition_energy_exact(psi)
        hits = 0
        for seed in range(100):
            value = fast_norm(psi, 0.2, 0.1, energy, seed)
            hits += 0.8 * CAT_NORM_SQ <= value <= 1.2 * CAT_NORM_SQ
        assert hits >= 75, f"success {hits}/100 below 75%"

    def test_two_mode_weight_unbiased(self):
        # The n=2 probe weight is R⁴/2; a wrong weight would shift the mean
        # far outside the tolerance band.
        d1 = coherent_description(np.array([0.5 + 0.2j, -0.3j]))
        d2 = coherent_description(np.array([-0.4 + 0.1j, 0.25 + 0j]))
        psi = GaussianSuperposition(np.array([0.8 + 0j, 0.6 + 0.1j]), (d1, d2))
        psi = GaussianSuperposition(psi.coeffs / exact_norm(psi), psi.descriptions)
        energy = superposition_energy_exact(psi)
        values = np.array([fast_norm(psi, 0.5, 0.03, energy, seed)
                           for seed in range(200)])
        hits = int(np.sum(np.abs(values - 1.0) <= 0.5))
        assert hits >= 150, f"success {hits}/200 below 75%"
        mean = float(values.mean())
        assert abs(mean - 1.0) < 0.15, f"estimator mean {mean} off unit norm"

    def test_worker_split_is_bitwise_identical(self, monkeypatch):
        # L = 141 is one stream block, which runs in the calling thread
        psi = _unnormalized_cat()
        energy = superposition_energy_exact(psi)
        assert fast_norm_parameters(energy, 0.2, 0.25).samples <= GRAM_BLOCK
        monkeypatch.setattr(superposition, "ThreadPoolExecutor", None)
        base = fast_norm(psi, 0.2, 0.25, energy, 11, workers=1)
        for workers in (2, 3, 4, 7):
            value = fast_norm(psi, 0.2, 0.25, energy, 11, workers=workers)
            assert value == base, f"workers={workers}: {value} != {base}"

    def test_worker_split_across_blocks_is_bitwise_identical(self):
        # L = 1274 spans three stream blocks, the last one partial
        psi = _unnormalized_cat()
        samples = fast_norm_parameters(4.0, 0.1, 0.25).samples
        assert 2 * GRAM_BLOCK < samples < 3 * GRAM_BLOCK
        base = fast_norm(psi, 0.1, 0.25, 4.0, 11, workers=1)
        for workers in (2, 3, 7):
            value = fast_norm(psi, 0.1, 0.25, 4.0, 11, workers=workers)
            assert value == base, f"workers={workers}: {value} != {base}"

    def test_seed_must_be_integer(self):
        # Philox keys are 128-bit; a bool is neither a seed nor a worker count
        psi = _unnormalized_cat()
        for seed in ("seed", 3.0, -1, 2 ** 128, True):
            with pytest.raises(ValidationError):
                fast_norm(psi, 0.2, 0.25, 4.0, seed)
        with pytest.raises(ValidationError):
            fast_norm(psi, 0.2, 0.25, 4.0, 1, workers=True)
        for seed in (0, 2 ** 128 - 1, np.uint64(2 ** 64 - 1)):
            assert np.isfinite(fast_norm(psi, 0.2, 0.25, 4.0, seed))

    @pytest.mark.parametrize("workers", [0, -3, 2.0])
    def test_worker_count_below_one_rejected(self, workers):
        psi = _unnormalized_cat()
        with pytest.raises(ValidationError):
            fast_norm(psi, 0.2, 0.25, 4.0, 1, workers=workers)

    def test_working_memory_bounded_at_large_chi(self, monkeypatch):
        # χ = 1024 > GRAM_BLOCK and L = 637 > GRAM_BLOCK: no kernel call holds
        # more than GRAM_BLOCK pairs, and no kernel output, the largest array
        # over pairs, more than max(GRAM_BLOCK, χ)
        chi = 1024
        x = np.random.default_rng(404).standard_normal((chi, 2))
        psi = GaussianSuperposition(
            np.full(chi, chi ** -0.5, dtype=complex),
            tuple(coherent_description(np.array([0.5 * complex(*row)])) for row in x))
        samples = fast_norm_parameters(2.0, 0.1, 0.25).samples
        assert samples > GRAM_BLOCK
        kernel_sizes = []
        kernel = superposition._log_coherent_overlaps

        def counted_kernel(alpha, ket):
            values = kernel(alpha, ket)
            kernel_sizes.append(np.size(values))
            return values

        monkeypatch.setattr(superposition, "_log_coherent_overlaps", counted_kernel)
        fast_norm(psi, 0.1, 0.25, 2.0, 7)
        assert sum(kernel_sizes) == samples * chi
        assert max(kernel_sizes) <= GRAM_BLOCK
        assert max(kernel_sizes) <= max(GRAM_BLOCK, chi)

    def test_block_probe_labels_match_per_sample_formula(self):
        # Block b draws all its normals, then all its uniforms, from
        # Philox(key=seed, counter=[0, 0, 0, b]); probe i is normal row i
        # scaled to length R·u_i^{1/2n}.  Checked on a full block and a
        # partial one.  The block's vectorized power and row norms may
        # round differently from the scalar ones, by an ulp or two.
        seed, radius, n = 2 ** 61 + 12345, 3.5, 2
        for block, size in ((0, GRAM_BLOCK), (3, 37)):
            gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, block]))
            x = gen.standard_normal((size, 2 * n)).tolist()
            u = gen.random(size).tolist()
            reference = []
            for row, u_i in zip(x, u):
                scale = radius * u_i ** (1.0 / (2 * n)) / math.sqrt(sum(v * v for v in row))
                reference.append([complex(row[2 * k] * scale, row[2 * k + 1] * scale)
                                  for k in range(n)])
            labels = superposition._probe_labels(n, seed, block, size, radius)
            assert labels.shape == (size, n)
            np.testing.assert_allclose(labels, reference, rtol=1e-15, atol=0.0)

    def test_stacked_probes_match_per_branch_loop(self):
        # n = 2, χ = 17 squeezed branches with complex reference overlaps and
        # L = 1274, so the samples span two full stream blocks and a partial
        # one of 250, and each block ends in a row slice shorter than the
        # 30 rows of the others.  The reference is the per-branch loop
        # Σ_j c_j·overlap(α_ℓ, ψ_j) over the same Philox draws.
        rng = np.random.default_rng(2718)
        base = random_superposition(rng, n=2, chi=17, z_max=1.0)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=base.chi))
        psi = GaussianSuperposition(base.coeffs, tuple(
            GaussianDescription(d.gamma, d.alpha, d.r * ph)
            for d, ph in zip(base.descriptions, phases)))
        epsilon, p_fail, energy, seed = 0.1, 0.25, 4.0, 31337
        radius, samples = fast_norm_parameters(energy, epsilon, p_fail)
        assert 2 * GRAM_BLOCK < samples < 3 * GRAM_BLOCK

        estimates = [fast_norm(psi, epsilon, p_fail, energy, seed, workers=w)
                     for w in (1, 2, 3)]
        assert estimates[0] == estimates[1] == estimates[2], (
            f"worker counts 1, 2, 3 gave {estimates}")

        weight = radius ** 4 / 2.0
        total = 0.0
        for block, lo in enumerate(range(0, samples, GRAM_BLOCK)):
            gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, block]))
            labels = _uniform_complex_ball(2, radius, gen, min(GRAM_BLOCK, samples - lo))
            for label in labels:
                probe = coherent_description(label)
                amp = sum(c * overlap(probe, d) for c, d in psi.terms)
                total += weight * abs(amp) ** 2
        reference = total / samples
        assert estimates[0] == pytest.approx(reference, rel=1e-12, abs=0.0)


class TestPostMeasurement:
    """Stacked conditioning and the relative rule for dropping branches."""

    @pytest.mark.parametrize("chi", [2, 64])
    def test_one_postmeasure_call_per_outcome(self, monkeypatch, chi):
        calls = []
        kernel = superposition.postmeasure

        def counted(state, outcome):
            calls.append(np.shape(state.r))
            return kernel(state, outcome)

        monkeypatch.setattr(superposition, "postmeasure", counted)
        psi = random_superposition(500 + chi, n=2, chi=chi, z_max=0.8, alpha_max=0.8)
        post = post_measurement_superposition(psi, np.array([0.1 + 0.2j]))
        assert calls == [(chi,)], f"postmeasure calls at χ={chi}: {calls}"
        assert post.chi == chi

    def test_two_mode_vacuum_at_origin(self):
        psi = GaussianSuperposition(np.array([1.0 + 0j]), (vacuum_description(2),))
        post = post_measurement_superposition(psi, np.array([0.0j]))
        assert post.chi == 1
        assert abs(post.coeffs[0] - 1.0) < 1e-12, f"c'₁ = {post.coeffs[0]}"
        assert np.allclose(post.descriptions[0].gamma, np.eye(4), atol=1e-12)

    def test_underflowing_branch_dropped(self):
        # The far branch's weight √(π·e^{-676}/π)/√2 ≈ 1e-147 is far below one
        # ulp of the vacuum branch's 1/√2: it is dropped, and p is unchanged.
        bright = coherent_description(np.array([26.0 + 0.0j]))
        psi = GaussianSuperposition(
            np.array([1.0 + 0j, 1.0 + 0j]) / np.sqrt(2.0),
            (vacuum_description(1), bright))
        post = post_measurement_superposition(psi, np.array([0.0j]))
        assert post.chi == 1, "far branch must be dropped"
        assert np.allclose(post.descriptions[0].alpha, [0.0], atol=1e-12)
        assert abs(post.coeffs[0] - 1.0 / np.sqrt(2.0)) < 1e-15

    def test_branch_within_an_ulp_kept(self):
        # At β = 5.8 the far branch's weight is e^{-(5.8)²/2} ≈ 5e-8 of the
        # near one's: small, but above one ulp, so it is kept.
        psi = GaussianSuperposition(
            np.array([1.0 + 0j, 1.0 + 0j]) / np.sqrt(2.0),
            (coherent_description(np.array([5.8 + 0.0j])), vacuum_description(1)))
        post = post_measurement_superposition(psi, np.array([5.8 + 0.0j]))
        assert post.chi == 2
        ratio = abs(post.coeffs[1]) / abs(post.coeffs[0])
        assert ratio == pytest.approx(np.exp(-0.5 * 5.8 ** 2), rel=1e-12)

    def test_all_branches_underflowing_read_zero(self):
        # Every branch's density at β = 60 lies below the double range: the
        # branches are conditioned exactly, weigh 0, and the density is 0.0.
        psi = GaussianSuperposition(
            np.array([1.0 + 0j, 1.0 + 0j]),
            (vacuum_description(1), coherent_description(np.array([-1.0 + 0.0j]))))
        beta = np.array([60.0 + 0.0j])
        post = post_measurement_superposition(psi, beta)
        assert np.all(post.coeffs == 0.0)
        for d in post.descriptions:
            assert validate_description(d).ok
            assert np.allclose(d.alpha, beta, atol=1e-12)
            assert abs(d.r - 1.0) < 1e-12, f"r' = {d.r}"
        assert measureprob_exact(psi, beta) == 0.0

    def test_weights_reproduce_density(self):
        for case in range(10):
            psi = random_superposition(400 + case, n=2, chi=3, z_max=0.8,
                                       alpha_max=0.8, normalize=True)
            beta = np.array([0.2 - 0.3j])
            post = post_measurement_superposition(psi, beta)
            lhs = exact_norm(post) ** 2 / np.pi
            rhs = measureprob_exact(psi, beta)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs)), (
                f"case {case}: {lhs} vs {rhs}")


class TestMeasureprob:
    """Exact and randomized heterodyne outcome densities."""

    def test_vacuum_frozen(self):
        psi = GaussianSuperposition(np.array([1.0 + 0j]), (vacuum_description(1),))
        p = measureprob_exact(psi, np.array([0.0j]))
        assert abs(p - 1.0 / np.pi) < 1e-15, f"p = {p}"

    def test_even_cat_matches_oracle(self):
        cat = cat_state(1.0, "even")
        p = measureprob_exact(cat, np.array([0.0j]))
        expected = fock_heterodyne_density(fock_from_superposition(cat.terms),
                                           np.array([0.0j]))
        assert abs(p - expected) < 1e-7, f"{p} vs {expected}"

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2)])
    def test_factored_density_matches_oracle(self, n, k):
        # random squeezed branches, then a squeeze, a beamsplitter (n = 2)
        # and a displacement: the density with the measured modes factored
        # out matches the oracle, and the full post-measurement Gram norm
        # to rounding
        rng = np.random.default_rng(700 + 10 * n + k)
        for case in range(4):
            psi = random_superposition(rng, n=n, chi=2 + case % 3, z_max=0.6,
                                       alpha_max=0.6, normalize=True)
            gates = [Squeeze(float(rng.uniform(-0.6, 0.6)), n),
                     Displacement(0.4 * (rng.random(n) - 0.5 + 1j * (rng.random(n) - 0.5)))]
            if n == 2:
                gates.insert(1, Beamsplitter(float(rng.uniform(0.0, np.pi)), 1, 2))
            evolved = evolve(psi, gates)
            beta = 0.6 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            p = measureprob_exact(evolved, beta)
            post = post_measurement_superposition(evolved, beta)
            assert p == pytest.approx(exact_norm(post) ** 2 / np.pi ** k, rel=1e-12, abs=0.0)
            expected = fock_heterodyne_density(fock_from_superposition(evolved.terms), beta)
            assert abs(p - expected) < 1e-8, f"case {case}: {p} vs oracle {expected}"

    @pytest.mark.parametrize("n, chi", [(1, 7), (2, 6), (1, GRAM_BLOCK + 3)])
    def test_every_mode_measured_is_one_row(self, monkeypatch, n, chi):
        # k = n: χ pairs of |β⟩ against the stack, and no conditioning
        pairs = []
        kernel = superposition._log_coherent_overlaps

        def counted(alpha, ket):
            values = kernel(alpha, ket)
            pairs.append(np.size(values))
            return values

        def refused(*args):
            raise AssertionError("postmeasure called with every mode measured")

        psi = random_superposition(720 + chi, n=n, chi=chi, z_max=0.6, alpha_max=0.8)
        monkeypatch.setattr(superposition, "_log_coherent_overlaps", counted)
        monkeypatch.setattr(superposition, "postmeasure", refused)
        measureprob_exact(psi, np.full(n, 0.3 - 0.2j))
        assert sum(pairs) == chi, f"{sum(pairs)} pairs at χ={chi}"

    def test_unmeasured_modes_are_normed_alone(self, monkeypatch):
        # n = 2, k = 1: the χ'(χ'-1)/2 pairs of the kept branches, each on the
        # 1×1 Bargmann B of the unmeasured mode
        shapes = []
        kernel = overlaps._pair_overlaps

        def counted(a, b):
            values = kernel(a, b)
            shapes.append((np.size(values), a.quad.shape[-1], b.quad.shape[-1]))
            return values

        psi = random_superposition(730, n=2, chi=9, z_max=0.6, alpha_max=0.8)
        beta = np.array([0.2 + 0.1j])
        kept = post_measurement_superposition(psi, beta).chi
        monkeypatch.setattr(overlaps, "_pair_overlaps", counted)
        measureprob_exact(psi, beta)
        assert sum(size for size, _, _ in shapes) == kept * (kept - 1) // 2
        assert {shape[1:] for shape in shapes} == {(1, 1)}

    @pytest.mark.parametrize("n", [1, 2])
    def test_row_rejects_wrong_reference_magnitude(self, n):
        # as in exact_norm: |r| is fixed by Γ, and scaling one branch's r
        # by 1.1 makes |⟨β, ψ_j⟩|² miss the pair fidelity
        psi = random_superposition(740 + n, n=n, chi=3, z_max=0.6, alpha_max=0.6)
        ds = list(psi.descriptions)
        bad = ds[1]
        ds[1] = GaussianDescription(bad.gamma, bad.alpha, 1.1 * bad.r)
        with pytest.raises(NumericError):
            measureprob_exact(GaussianSuperposition(psi.coeffs, tuple(ds)), bad.alpha)

    def test_row_rejects_covariance_sum_not_positive_definite(self):
        # Γ = diag(-2, 1) gives Γ + I = diag(-1, 2) against |β⟩: invalid
        # input, not a numeric failure of the kernel
        bad = GaussianDescription(np.diag([-2.0, 1.0]), np.array([0.1j]), 1.0)
        psi = GaussianSuperposition(np.ones(2), (coherent_description([0.3]), bad))
        with pytest.raises(ValidationError, match="positive definite"):
            measureprob_exact(psi, np.array([0.2 + 0.1j]))

    def test_row_rejects_covariance_sum_with_positive_determinant(self):
        # Γ = -2I gives Γ + I = -I against |β⟩: det = 1 > 0, yet not
        # positive definite, so still invalid input
        bad = GaussianDescription(-2.0 * np.eye(2), np.array([0.1j]), 1.0)
        psi = GaussianSuperposition(np.ones(2), (coherent_description([0.3]), bad))
        with pytest.raises(ValidationError, match="positive definite"):
            measureprob_exact(psi, np.array([0.2 + 0.1j]))

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (2, 1)])
    def test_zero_reference_overlap_raises(self, n, k):
        psi = random_superposition(750 + n, n=n, chi=3, z_max=0.6, alpha_max=0.6)
        ds = list(psi.descriptions)
        ds[2] = GaussianDescription(ds[2].gamma, ds[2].alpha, 0.0)
        with pytest.raises(PhaseRecoveryError):
            measureprob_exact(GaussianSuperposition(psi.coeffs, tuple(ds)),
                              np.full(k, 0.1 + 0.1j))

    @pytest.mark.parametrize("n", [1, 2])
    def test_outcome_mode_count_validated(self, n):
        psi = random_superposition(760 + n, n=n, chi=2, z_max=0.6, alpha_max=0.6)
        for k in (0, n + 1):
            with pytest.raises(ValidationError):
                measureprob_exact(psi, np.zeros(k, dtype=complex))

    @pytest.mark.parametrize("k", [1, 2])
    def test_far_two_mode_outcome_reads_zero(self, k):
        psi = random_superposition(770, n=2, chi=3, z_max=0.6, alpha_max=0.6)
        assert measureprob_exact(psi, np.full(k, 60.0 + 0.0j)) == 0.0

    def test_approx_vacuum_success_rate(self):
        psi = GaussianSuperposition(np.array([1.0 + 0j]), (vacuum_description(1),))
        beta = np.array([0.0j])
        hits = 0
        for seed in range(200):
            value = measureprob_approx(psi, beta, 0.3, 0.1, 2.0, seed)
            hits += abs(value * np.pi - 1.0) <= 0.3
        assert hits >= 150, f"success {hits}/200 below 75%"


class TestConditioningWindow:
    """Outcomes whose branch densities lie far below 1 but inside the double
    range are conditioned exactly (they once fell between two floors)."""

    @pytest.mark.parametrize("r", [4, 6, 8, 12, 20, 26, 38])
    @pytest.mark.parametrize("at", [1.0, 0.5])
    def test_appendix_d_closed_form(self, r, at):
        # √0.5·|0,0⟩ + i·√0.5·|r⟩⊗S(0.3)|0⟩ measured on mode 1 at real β: the
        # factor i cancels the cross term, so p = (e^{-β²} + e^{-(β-r)²})/(2π).
        beta = at * r
        p = measureprob_exact(appendix_d_state(0.5, float(r), 0.3),
                              np.array([beta + 0.0j]))
        expected = (np.exp(-beta ** 2) + np.exp(-(beta - r) ** 2)) / (2.0 * np.pi)
        assert p == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("step", [0.5, 0.8, 1.5])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.5])
    def test_gkp_comb_matches_oracle(self, step, beta):
        psi = gkp_comb(0.5, 8, step, 2.0)
        outcome = np.array([beta + 0.0j])
        p = measureprob_exact(psi, outcome)
        expected = fock_heterodyne_density(fock_from_superposition(psi.terms), outcome)
        assert abs(p - expected) < 1e-8, f"{p} vs oracle {expected}"


class TestTypicalParameters:
    """Outcome-ball radius and post-measurement energy bound."""

    def test_frozen_values(self):
        params = typical_parameters(10.0, 0.1)
        assert params.e_tilde == pytest.approx(220.0, abs=1e-12)
        assert params.radius == pytest.approx(10.0, abs=1e-12)
        params = typical_parameters(2.0, 0.5)
        assert params.e_tilde == pytest.approx(12.0, abs=1e-12)
        assert params.radius == pytest.approx(2.0, abs=1e-12)

    def test_delta_edge(self):
        params = typical_parameters(5.0, 1.0 - 1e-12)
        assert params.e_tilde == pytest.approx(12.0, rel=1e-9)
        assert params.radius == pytest.approx(np.sqrt(5.0), rel=1e-9)

    def test_domain_errors(self):
        for args in [(0.0, 0.5), (2.0, 0.0), (2.0, 1.0), (float("nan"), 0.5),
                     (float("inf"), 0.5), (2.0, float("nan"))]:
            with pytest.raises(ValidationError):
                typical_parameters(*args)


class TestEnergyBookkeeping:
    """⟨H⟩ bounds along a circuit and the exact superposition ⟨H⟩, both in
    the one energy unit H = Σ_j(Q_j² + P_j² + 1)."""

    def test_empty_circuit(self):
        assert circuit_energy_bound(3.0, []) == 3.0

    def test_squeeze_scaling(self):
        assert circuit_energy_bound(3.0, [Squeeze(1.0, 1)]) == pytest.approx(
            3.0 * np.e ** 2, rel=1e-12)
        assert circuit_energy_bound(3.0, [Squeeze(-0.7, 1)]) == pytest.approx(
            3.0 * np.exp(1.4), rel=1e-12)

    def test_passive_gates_leave_bound_unchanged(self):
        gates = [PhaseShift(0.3, 1), Beamsplitter(0.7, 1, 2), PhaseShift(-1.2, 2)]
        assert circuit_energy_bound(2.0, gates) == 2.0

    def test_displacement_fold(self):
        alpha = np.array([0.5 + 0.5j])
        gates = [Displacement(alpha)]
        width = float(np.linalg.norm(hat_d(alpha)))
        expected = (np.sqrt(4.0) + width) ** 2
        assert circuit_energy_bound(4.0, gates) == pytest.approx(expected, rel=1e-12)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValidationError):
            circuit_energy_bound(-0.1, [])

    def test_bound_covers_evolved_energy(self):
        # Seeded gate lists with every gate kind, |z| ≤ 1; the oracle's ⟨H⟩
        # after the gates must not exceed the bound from the input ⟨H⟩.
        rng = np.random.default_rng(20261018)
        cases = [(GaussianSuperposition(np.array([1.0 + 0j]), (vacuum_description(1),)),
                  [Squeeze(0.8, 1)])]
        for case in range(6):
            n = 1 + case % 2
            psi = random_superposition(rng, n=n, chi=2, z_max=0.4, alpha_max=0.6,
                                       normalize=True)
            gates = [Squeeze(rng.uniform(-1.0, 1.0), 1 + case % n),
                     PhaseShift(rng.uniform(0.0, 2.0 * np.pi), 1),
                     Displacement(0.4 * (rng.random(n) - 0.5 + 1j * (rng.random(n) - 0.5)))]
            if n == 2:
                gates.insert(1, Beamsplitter(rng.uniform(0.0, np.pi), 1, 2))
            rng.shuffle(gates)
            cases.append((psi, gates))
        for case, (psi, gates) in enumerate(cases):
            energy_in = fock_energy(fock_from_superposition(psi.terms))
            bound = circuit_energy_bound(energy_in, gates)
            energy_out = fock_energy(fock_from_superposition(evolve(psi, gates).terms))
            assert bound >= energy_out - 1e-9, (
                f"case {case}: bound {bound} below evolved ⟨H⟩ {energy_out}")

    def test_superposition_energy_frozen(self):
        vac = GaussianSuperposition(np.array([1.0 + 0j]), (vacuum_description(1),))
        assert abs(superposition_energy_exact(vac) - 2.0) < 1e-12
        coh = GaussianSuperposition(
            np.array([1.0 + 0j]), (coherent_description(np.array([1.0 + 0j])),))
        assert abs(superposition_energy_exact(coh) - 4.0) < 1e-9
        cat = cat_state(1.0, "even")
        expected = 2.0 * np.tanh(1.0) + 2.0
        assert abs(superposition_energy_exact(cat) - expected) < 1e-9

    def test_superposition_energy_matches_oracle(self):
        for case in range(10):
            n = 1 + case % 2
            chi = 2 + case // 2
            psi = random_superposition(400 + case, n=n, chi=chi, z_max=0.7,
                                       alpha_max=0.8)
            value = superposition_energy_exact(psi)
            expected = fock_energy(fock_from_superposition(psi.terms))
            assert abs(value - expected) < 1e-8, f"case {case}: {value} vs {expected}"

    def test_superposition_energy_three_mode_cat(self):
        # cat(1) ⊗ vacuum ⊗ vacuum: the cat's 2·tanh(1) + 2 plus 2 per vacuum.
        cat = cat_state(1.0, "even")
        vac = vacuum_description(2)
        psi = GaussianSuperposition(
            cat.coeffs,
            tuple(GaussianDescription(block_diag(d.gamma, vac.gamma),
                                      np.concatenate([d.alpha, vac.alpha]), d.r * vac.r)
                  for d in cat.descriptions))
        expected = 2.0 * np.tanh(1.0) + 6.0
        assert abs(superposition_energy_exact(psi) - expected) < 1e-12

    def test_superposition_energy_bright_cat(self):
        # 2·|α|²·tanh(|α|²) + 2 at α = 20, far beyond the oracle's cutoffs.
        value = superposition_energy_exact(cat_state(20.0, "even"))
        assert value == pytest.approx(802.0, rel=1e-12)

    def test_superposition_energy_many_modes(self):
        # The closed form covers every mode count; for χ=1 it is the
        # branch energy itself.
        delta = random_pure_description(3, 0.8, 7, alpha_max=0.8)
        psi = GaussianSuperposition(np.array([1.0 + 0j]), (delta,))
        expected = energy_of_gaussian(delta.gamma, delta.d)
        assert abs(superposition_energy_exact(psi) - expected) < 1e-9

    # seeds whose squeezed branch leaves the rounded ‖Ψ‖² a few ulps above 0
    @pytest.mark.parametrize("n, seed", [(1, 12), (2, 10)])
    def test_zero_superposition_has_no_energy(self, n, seed):
        for delta in (coherent_description(np.full(n, 0.3 + 0.1j)),
                      random_pure_description(n, 0.8, seed, alpha_max=0.8)):
            for coeffs in ([1.0, -1.0], [0.5j, 0.25j, -0.75j]):
                psi = GaussianSuperposition(np.array(coeffs), (delta,) * len(coeffs))
                with pytest.raises(ValidationError):
                    superposition_energy_exact(psi)

    def test_small_norm_keeps_its_energy(self):
        # odd cat at |α| = 10⁻³: ‖Ψ‖² is about 10⁻⁶ of Σ|c_k c_j G_kj|,
        # far above rounding; ⟨H⟩ = 2|α|²·coth|α|² + 2 → 4, one photon
        alpha = 1e-3
        value = superposition_energy_exact(cat_state(alpha, "odd"))
        assert value == pytest.approx(2.0 * alpha ** 2 / np.tanh(alpha ** 2) + 2.0, rel=1e-8)

    def test_superposition_energy_identical_branches(self):
        delta = random_pure_description(3, 0.8, 9, alpha_max=0.8)
        half = np.array([0.5 + 0j, 0.5 + 0j])
        psi = GaussianSuperposition(half, (delta, delta))
        expected = energy_of_gaussian(delta.gamma, delta.d)
        assert abs(superposition_energy_exact(psi) - expected) < 1e-8
