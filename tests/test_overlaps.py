"""Unit tests for overlaps: closed forms, branch-tracked roots, phase
recovery, and the stacked Gram kernel."""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    assert_rel_close,
    complex_in_disc,
    phased_descriptions,
    random_superposition,
)

from gaussum import overlaps
from gaussum.circuit import evolve
from gaussum.core import (
    Beamsplitter,
    BranchPathError,
    Displacement,
    GaussianDescription,
    NumericError,
    PhaseRecoveryError,
    PhaseShift,
    Squeeze,
    ValidationError,
    coherent_description,
    gate_symplectic,
    hat_d,
    random_pure_description,
    reference_overlap_magnitude,
    symplectic_form,
    vacuum_description,
)
from gaussum.evolution import apply_squeeze, apply_unitary
from gaussum.fock import (
    fock_apply_gate,
    fock_from_description,
    fock_overlap,
    fock_project,
    fock_vacuum,
)
from gaussum.measurement import postmeasure
from gaussum.overlaps import (
    GRAM_BLOCK,
    BranchStack,
    _dot,
    _mv,
    _quadratic,
    branched_sqrt_det,
    coherent_overlap,
    gram,
    gram_defect,
    overlap,
    overlaptriple,
    pair_fidelity,
    stack_branches,
    triple_overlap_product,
)
from gaussum.states import appendix_d_state, cat_state, gkp_comb
from gaussum.superposition import (
    GaussianSuperposition,
    _probe_labels,
    exact_norm,
    fast_norm,
    measureprob_exact,
    post_measurement_superposition,
)


class TestCoherentOverlap:
    """⟨a, b⟩ = exp(-‖a‖²/2 - ‖b‖²/2 + ā·b) for coherent labels."""

    def test_frozen_vacuum_one(self):
        value = coherent_overlap(np.array([0.0j]), np.array([1.0 + 0.0j]))
        assert abs(value - np.exp(-0.5)) < 1e-15, f"⟨0,1⟩ = {value}"

    def test_frozen_opposite_pair(self):
        value = coherent_overlap(np.array([1.0 + 0.0j]), np.array([-1.0 + 0.0j]))
        assert abs(value - np.exp(-2.0)) < 1e-15, f"⟨1,-1⟩ = {value}"

    def test_magnitude_law(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            mag = abs(coherent_overlap(a, b)) ** 2
            expected = np.exp(-np.linalg.norm(a - b) ** 2)
            assert abs(mag - expected) < 1e-12, f"|⟨a,b⟩|² = {mag} vs {expected}"

    def test_conjugate_symmetry(self):
        a = np.array([0.4 + 0.7j])
        b = np.array([-0.3 + 0.2j])
        assert abs(coherent_overlap(a, b) - np.conj(coherent_overlap(b, a))) < 1e-15


class TestPairFidelity:
    """|⟨ψ₁, ψ₂⟩|² from covariances and centers alone."""

    def test_frozen_coherent_pair(self):
        f = pair_fidelity(coherent_description([0.0j]), coherent_description([1.0 + 0j]))
        assert abs(f - np.exp(-1.0)) < 1e-14, f"fidelity {f} vs e⁻¹"

    def test_frozen_squeezed_versus_vacuum(self):
        squeezed = apply_squeeze(vacuum_description(1), 1.0, 1)
        f = pair_fidelity(vacuum_description(1), squeezed)
        assert abs(f - 1.0 / np.cosh(1.0)) < 1e-12, f"fidelity {f} vs 1/cosh 1"

    def test_range_and_self_fidelity(self):
        for seed in range(40):
            n = 1 + seed % 2
            d1 = random_pure_description(n, 1.0, seed)
            d2 = random_pure_description(n, 1.0, 1000 + seed)
            f = pair_fidelity(d1, d2)
            assert -1e-12 <= f <= 1.0 + 1e-12, f"seed {seed}: fidelity {f}"
            assert abs(pair_fidelity(d1, d1) - 1.0) < 1e-10, "self-fidelity"

    def test_covariance_sum_with_positive_determinant_rejected(self):
        # Γ = -2I against vacuum sums to -I: det(-I) = 1 > 0, yet the sum
        # is not positive definite, and the formula would read F = 3.30
        bad = GaussianDescription(-2.0 * np.eye(2), np.zeros(1), 1.0)
        with pytest.raises(ValidationError, match="positive definite"):
            pair_fidelity(bad, vacuum_description(1))


class TestBranchedSqrtDet:
    """Branch-tracked √det for complex symmetric matrices."""

    def test_frozen_positive_case(self):
        value = branched_sqrt_det(4.0 * np.eye(2))
        assert abs(value - 4.0) < 1e-14, f"√det(4I₂) = {value}"

    def test_identity(self):
        assert abs(branched_sqrt_det(np.eye(4)) - 1.0) < 1e-14

    def test_square_recovers_determinant(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            a = rng.standard_normal((4, 4))
            a = a @ a.T + 4.0 * np.eye(4)
            b = rng.standard_normal((4, 4))
            b = 0.5 * (b + b.T)
            m = a + 1j * b
            value = branched_sqrt_det(m)
            det = np.linalg.det(m)
            assert abs(value ** 2 - det) < 1e-8 * max(1.0, abs(det)), (
                f"(√det)² = {value**2} vs det = {det}")

    def test_continuity_along_rotation(self):
        # The imaginary part grows along the family; the tracked root must
        # move continuously instead of jumping between branches.
        a = np.diag([2.0, 0.5, 1.0, 1.0])
        b = np.diag([3.0, 3.0, -2.0, 1.0])
        previous = branched_sqrt_det(a)
        for t in np.linspace(0.05, 1.0, 20):
            current = branched_sqrt_det(a + 1j * t * b)
            assert abs(current - previous) < 1.5 * abs(previous), (
                f"jump at t={t}: {previous} -> {current}")
            previous = current

    def test_dense_path_tracks_branch_past_principal_root(self):
        # With B ≻ 0 and ‖B‖ ≫ ‖A‖ the phase of det(A + itB) grows past π;
        # the tracked root must stay continuous where the principal root of
        # det flips sign.
        rng = np.random.default_rng(41)
        x = rng.standard_normal((4, 4))
        a = x @ x.T / 4.0 + np.eye(4)
        y = rng.standard_normal((4, 4))
        b = 20.0 * (y @ y.T / 4.0 + np.eye(4))
        ts = np.linspace(0.0, 1.0, 4001)
        stack = a + 1j * ts[:, None, None] * b
        roots = branched_sqrt_det(stack)
        dets = np.linalg.det(stack)
        assert np.allclose(roots ** 2, dets, rtol=1e-10, atol=0.0), "root² ≠ det"
        steps = np.abs(np.diff(roots)) / np.abs(roots[:-1])
        assert steps.max() < 0.05, f"root jumps by {steps.max():.3f} of its size"
        flipped = np.abs(np.sqrt(dets) + roots) < 1e-8 * np.abs(roots)
        assert flipped.any(), "principal √det never left the tracked branch"
        for i in (0, 1234, 4000):
            single = branched_sqrt_det(stack[i])
            assert abs(single - roots[i]) < 1e-13 * abs(single), f"stacked ≠ single at t={ts[i]}"

    def test_real_part_not_positive_definite_raises(self):
        good = np.eye(2) + 0.5j * np.eye(2)
        bad = np.diag([1.0, -1.0]) + 0.5j * np.eye(2)
        with pytest.raises(BranchPathError):
            branched_sqrt_det(bad)
        with pytest.raises(BranchPathError):
            branched_sqrt_det(np.stack([good, bad, good]))


class TestTripleOverlapProduct:
    """⟨ψ₃, D(λ)ψ₁⟩·⟨ψ₁, ψ₂⟩·⟨ψ₂, ψ₃⟩ from covariance data alone."""

    def test_frozen_coherent_triple(self):
        eye = np.eye(2)
        value = triple_overlap_product(
            eye, hat_d(np.array([0.0j])),
            eye, hat_d(np.array([1.0 + 0.0j])),
            eye, hat_d(np.array([1.0j])),
            np.array([0.0j]))
        expected = np.exp(-2.0 + 1.0j)
        assert abs(value - expected) < 1e-14, f"triple {value} vs e^(-2+i)"

    def test_coherent_triples_match_closed_form(self):
        rng = np.random.default_rng(17)
        eye = np.eye(2)
        for _ in range(200):
            a, b, c, lam = (np.array([complex_in_disc(rng, 1.5)]) for _ in range(4))
            value = triple_overlap_product(eye, hat_d(a), eye, hat_d(b),
                                           eye, hat_d(c), lam)
            # D(λ)|a⟩ = e^{i·Im(aᵀλ̄)}|a-λ⟩
            displaced = np.exp(1j * np.imag(a @ np.conj(lam)))
            expected = (displaced * coherent_overlap(c, a - lam) *
                        coherent_overlap(a, b) * coherent_overlap(b, c))
            assert abs(value - expected) < 1e-12, f"{value} vs {expected}"

    def test_random_single_mode_triples_match_oracle(self):
        rng = np.random.default_rng(23)
        for case in range(25):
            deltas = [random_pure_description(1, 1.0, rng) for _ in range(3)]
            lam = np.array([complex_in_disc(rng, 1.0)])
            value = triple_overlap_product(
                deltas[0].gamma, deltas[0].d, deltas[1].gamma, deltas[1].d,
                deltas[2].gamma, deltas[2].d, lam)
            focks = [fock_from_description(d) for d in deltas]
            shifted = fock_apply_gate(focks[0], Displacement(lam))
            expected = (fock_overlap(focks[2], shifted)
                        * fock_overlap(focks[0], focks[1])
                        * fock_overlap(focks[1], focks[2]))
            assert abs(value - expected) < 1e-8, (
                f"case {case}: {value} vs oracle {expected}")


class TestPhaseRecovery:
    """Dividing the triple product by two known anchors."""

    def test_recovers_coherent_overlap(self):
        rng = np.random.default_rng(29)
        eye = np.eye(2)
        for _ in range(100):
            a, b, c, lam = (np.array([complex_in_disc(rng, 1.2)]) for _ in range(4))
            u = np.exp(1j * np.imag(a @ np.conj(lam))) * coherent_overlap(c, a - lam)
            v = coherent_overlap(a, b)
            value = overlaptriple(eye, hat_d(a), eye, hat_d(b), eye, hat_d(c),
                                  complex(u), complex(v), lam)
            expected = coherent_overlap(b, c)
            assert abs(value - expected) < 1e-11, f"{value} vs {expected}"

    def test_tiny_anchor_raises(self):
        eye = np.eye(2)
        zero = np.zeros(2)
        with pytest.raises(PhaseRecoveryError):
            overlaptriple(eye, zero, eye, zero, eye, zero, 0.0, 1.0,
                          np.array([0.0j]))


class TestOverlap:
    """Full phase-aware overlap between two descriptions."""

    def test_self_overlap_is_one(self):
        for seed in range(20):
            n = 1 + seed % 2
            d = random_pure_description(n, 1.2, seed, alpha_max=1.2)
            value = overlap(d, d)
            assert abs(value - 1.0) < 1e-9, f"seed {seed}: ⟨ψ,ψ⟩ = {value}"

    def test_conjugate_symmetry(self):
        for seed in range(20):
            n = 1 + seed % 2
            d1 = random_pure_description(n, 1.0, seed)
            d2 = random_pure_description(n, 1.0, 500 + seed)
            forward = overlap(d1, d2)
            backward = overlap(d2, d1)
            assert abs(forward - np.conj(backward)) < 1e-9, (
                f"seed {seed}: {forward} vs conj({backward})")

    def test_magnitude_matches_fidelity(self):
        for seed in range(50):
            n = 1 + seed % 2
            d1 = random_pure_description(n, 1.2, seed, alpha_max=1.2)
            d2 = random_pure_description(n, 1.2, 900 + seed, alpha_max=1.2)
            mag = abs(overlap(d1, d2)) ** 2
            fid = pair_fidelity(d1, d2)
            assert abs(mag - fid) < 1e-10, f"seed {seed}: {mag} vs {fid}"

    def test_frozen_vacuum_squeezed(self):
        squeezed = apply_squeeze(vacuum_description(1), 1.0, 1)
        value = overlap(vacuum_description(1), squeezed)
        expected = 1.0 / np.sqrt(np.cosh(1.0))
        assert abs(value - expected) < 1e-12, f"⟨0, S(1)0⟩ = {value}"

    def test_against_oracle_with_phases(self):
        rng = np.random.default_rng(31)
        for case in range(30):
            n = 1 + case % 2
            d1 = random_pure_description(n, 1.0, rng, alpha_max=1.0)
            d2 = random_pure_description(n, 1.0, rng, alpha_max=1.0)
            value = overlap(d1, d2)
            expected = fock_overlap(fock_from_description(d1),
                                    fock_from_description(d2))
            assert abs(value - expected) < 1e-7, (
                f"case {case} (n={n}): {value} vs oracle {expected}")


class TestGram:
    """The stacked pair-overlap kernel behind Gram and cross-circuit matrices."""

    def test_matches_pairwise_overlap_and_oracle(self):
        for case in range(6):
            n = 1 + case % 2
            psi = random_superposition(700 + case, n=n, chi=3 + case, z_max=0.6,
                                       alpha_max=0.8)
            g = gram(psi.branches)
            ds = psi.descriptions
            pairwise = np.array([[overlap(dk, dj) for dj in ds] for dk in ds])
            assert np.abs(g - pairwise).max() < 1e-12, f"case {case}: gram ≠ overlap"
            assert np.array_equal(g, g.conj().T), f"case {case}: not Hermitian"
            low = np.linalg.eigvalsh(g).min()
            assert low >= -1e-12, f"case {case}: min Gram eigenvalue {low}"
            focks = [fock_from_description(d) for d in ds]
            oracle = np.array([[fock_overlap(fk, fj) for fj in focks] for fk in focks])
            assert np.abs(g - oracle).max() < 1e-8, f"case {case}: gram ≠ oracle"
            assert gram_defect(psi.branches, g) < 1e-10

    def test_cross_form_matches_pairwise_overlap(self):
        for case in range(4):
            n = 1 + case % 2
            a = random_superposition(800 + case, n=n, chi=2 + case)
            b = random_superposition(900 + case, n=n, chi=5 - case)
            g = gram(a.branches, b.branches)
            pairwise = np.array([[overlap(da, db) for db in b.descriptions]
                                 for da in a.descriptions])
            assert g.shape == (a.chi, b.chi)
            assert np.abs(g - pairwise).max() < 1e-12, f"case {case}"

    def test_mode_count_mismatch(self):
        one = stack_branches([vacuum_description(1)])
        two = stack_branches([vacuum_description(2)])
        with pytest.raises(ValidationError):
            gram(one, two)
        with pytest.raises(ValidationError):
            stack_branches([vacuum_description(1), vacuum_description(2)])


def _triple_exponent(
    gamma1: np.ndarray, d1: np.ndarray,
    gamma2: np.ndarray, d2: np.ndarray,
    gamma3: np.ndarray, d3: np.ndarray,
) -> tuple:
    """Coefficients of the triple product as a function of ξ = Ωd̂(α).

    Returns (c, f0, g1p, s23, s14) such that

        T(ξ) = exp(c − ξᵀ(¼Γ₁ξ + i·d₁) − fᵀ s14⁻¹ f) / (√det(s23/2)·√det(s14/2))
        with f = f0 − ½i·g1p·ξ and g1p = Γ₁ + iΩ:

    a linear-plus-quadratic exponent in ξ over a denominator that does not
    depend on α.  s14 is complex symmetric.  Stacked arguments broadcast.
    """
    n = np.shape(gamma1)[-1] // 2
    iom = 1j * symplectic_form(n)
    g3p = gamma3 + iom
    s23 = gamma2 + gamma3
    x = np.linalg.inv(s23)
    s14 = gamma1 + gamma3 - g3p @ x @ (gamma3 - iom)
    dp2 = d2 - d3
    xdp2 = _mv(x, dp2)
    # With w = (Γ₁ + Γ₄)⁻¹ = s14⁻¹ and x symmetric, the quadratic terms in
    # (d₁ - d₃, d₂ - d₃, ξ) collapse into one form fᵀ w f.
    f0 = d1 - d3 - _mv(g3p, xdp2)
    return -_dot(dp2, xdp2), f0, gamma1 + iom, s23, s14


def _reference_overlap(a, b) -> complex:
    """⟨ψ_a, ψ_b⟩ for two unstacked BranchStacks, by the per-pair triple
    formula (_triple_exponent with Γ₁ = I, anchors divided out) and roots
    from Σ Log eigvals: the kernel the two-stage one replaced."""
    dim = a.d.size
    c, f0, g1p, s23, s14 = _triple_exponent(np.eye(dim), a.d, a.gamma, a.d, b.gamma, b.d)
    xi = symplectic_form(dim // 2) @ hat_d(a.alpha - b.alpha)
    f = f0 - 0.5j * g1p @ xi
    expo = c - xi @ (0.25 * xi + 1j * a.d) - f @ np.linalg.solve(s14, f)
    log_t = (expo - 0.5 * np.log(np.linalg.eigvals(s23 / 2).astype(complex)).sum()
             - 0.5 * np.log(np.linalg.eigvals(s14 / 2)).sum())
    u = np.exp(-1j * np.imag(a.alpha @ np.conj(b.alpha))) * np.conj(b.r)
    return complex(np.exp(log_t) / (u * a.r))


def _reference_log_triple(gamma1, d1, gamma2, d2, gamma3, d3, lam) -> np.ndarray:
    """log T of the triple product by _triple_exponent, roots from Σ Log
    eigvals; stacked arguments broadcast."""
    c, f0, g1p, s23, s14 = _triple_exponent(gamma1, d1, gamma2, d2, gamma3, d3)
    xi = hat_d(lam) @ symplectic_form(np.shape(gamma1)[-1] // 2).T
    f = f0 - 0.5j * _mv(g1p, xi)
    expo = (c - _dot(xi, 0.25 * _mv(gamma1, xi) + 1j * d1)
            - _dot(f, np.linalg.solve(s14, f[..., None])[..., 0]))
    return (expo - 0.5 * np.log(np.linalg.eigvals(s23 / 2).astype(complex)).sum(axis=-1)
            - 0.5 * np.log(np.linalg.eigvals(s14 / 2)).sum(axis=-1))


def _reference_squeezed_r(stack, z: float, j: int) -> np.ndarray:
    """r' of apply_squeeze by the anchored triple (S|α⟩, |α'⟩, Sψ) with no
    displacement, divided by its anchors ⟨Sψ, S|α⟩⟩ = r̄ and
    ⟨S|α⟩, |α'⟩⟩ = 1/√cosh z."""
    n = stack.alpha.shape[-1]
    s, _ = gate_symplectic(Squeeze(z, j), n)
    post = apply_squeeze(stack, z, j)
    log_t = _reference_log_triple(s @ s.T, post.d, np.eye(2 * n), post.d,
                                  post.gamma, post.d, np.zeros(n))
    return np.exp(log_t) * np.sqrt(np.cosh(z)) / np.conj(stack.r)


def _reference_conditioned_r(stack, beta) -> np.ndarray:
    """r' of postmeasure by the anchored triple (ψ, ψ', |α'⟩) displaced by
    α − α', divided by u = ⟨α', D(α − α')ψ⟩ and ⟨ψ, ψ'⟩ = (πᵏp)^{1/2}."""
    post, p = postmeasure(stack, beta)
    n = stack.alpha.shape[-1]
    log_u = 1j * np.imag(_dot(post.alpha, np.conj(stack.alpha))) + np.log(stack.r)
    log_t = _reference_log_triple(stack.gamma, stack.d, post.gamma, post.d,
                                  np.eye(2 * n), post.d, stack.alpha - post.alpha)
    return np.conj(np.exp(log_t - log_u - 0.5 * (beta.size * np.log(np.pi) + np.log(p))))


#: Bound on the relative error of a squeezed r′ against 40 digits.  The
#: anchored pair-overlap route that the closed form replaced read up to
#: 5.1e-15 on the random stacks of test_squeezed_r_against_40_digits and
#: 1.7e-12 on the aligned ones; the closed form reads at most 3.0e-15.
SQUEEZED_R_REL = 5e-15


def _assert_each_rel_close(got, want, rel: float, what: str) -> None:
    err = np.max(np.abs(got - want) / np.abs(want))
    assert err <= rel, f"{what}: relative error {err:.3e}"


def _reference_gram(stack_a, stack_b) -> np.ndarray:
    chi_a, chi_b = stack_a.r.size, stack_b.r.size
    gamma_a = np.broadcast_to(stack_a.gamma, (chi_a,) + stack_a.gamma.shape[-2:])
    gamma_b = np.broadcast_to(stack_b.gamma, (chi_b,) + stack_b.gamma.shape[-2:])
    return np.array([[_reference_overlap(
        BranchStack(gamma_a[k], stack_a.alpha[k], stack_a.r[k]),
        BranchStack(gamma_b[j], stack_b.alpha[j], stack_b.r[j]))
        for j in range(chi_b)] for k in range(chi_a)])


def _coherent_chain(n: int, chi: int, seed: int, condition: bool = True):
    """χ coherent branches along a random line, evolved by beamsplitter (for
    n = 2) and squeeze gates and, if condition, conditioned on a heterodyne
    outcome of mode 1: every branch keeps the same covariance."""
    rng = np.random.default_rng(seed)
    direction = np.exp(2j * np.pi * rng.random(n)) / np.sqrt(n)
    labels = np.linspace(-1.5, 1.5, chi)[:, None] * direction
    coeffs = rng.standard_normal(chi) + 1j * rng.standard_normal(chi)
    psi = GaussianSuperposition(coeffs, tuple(coherent_description(a) for a in labels))
    gates = [Squeeze(0.3, 1), PhaseShift(0.7, n)]
    if n == 2:
        gates = [Beamsplitter(0.6, 1, 2), Squeeze(-0.25, 2)] + gates
    psi = evolve(psi, gates)
    if not condition:
        return psi
    return post_measurement_superposition(psi, np.array([0.2 - 0.3j]))


@lru_cache(maxsize=None)
def _stage_constants(dim: int) -> tuple:
    """Read-only (I, iΩ, ½(I − iΩ), ¼I) of the covariance stage in 2n = dim."""
    eye = np.eye(dim)
    iom = 1j * symplectic_form(dim // 2)
    constants = (eye, iom, 0.5 * (eye - iom), 0.25 * eye)
    for array in constants:
        array.flags.writeable = False
    return constants


def _covariance_stage(gamma_a: np.ndarray, gamma_b: np.ndarray) -> tuple:
    """(Q, log-constant) of ⟨ψ_a, ψ_b⟩ for broadcast-compatible (Γ_a, Γ_b).

    Derivation: with χ the coherent state |α_a⟩ (covariance I) and
    λ = α_a − α_b, D(λ)χ is |α_b⟩ up to a Weyl phase, so the trace of
    three Gaussian projectors tr(D(λ)·|χ⟩⟨χ|·|ψ_a⟩⟨ψ_a|·|ψ_b⟩⟨ψ_b|) is
    r̄_b·r_a·⟨ψ_a, ψ_b⟩ times that phase.  The product |ψ_a⟩⟨ψ_a|ψ_b⟩⟨ψ_b|
    is a Gaussian operator of complex covariance Γ_b − (Γ_b+iΩ)x(Γ_b−iΩ)
    and weight 1/√det((Γ_a+Γ_b)/2), x = (Γ_a+Γ_b)⁻¹; its trace against the
    displaced coherent projector is a Gaussian integral over
    s14 = I + Γ_b − (Γ_b+iΩ)x(Γ_b−iΩ).  In the centers only δ = d_a − d_b
    enters, through ξ = Ωδ, and completing the square leaves the exponent
    −δᵀQδ plus the phase the center stage carries, with

        K = I − (Γ_b+iΩ)x − ½i(I+iΩ)Ω = ½(I − iΩ) − (Γ_b+iΩ)x,
        Q = x + ¼I + Kᵀs14⁻¹K,

    and the log-constant −log√det((Γ_a+Γ_b)/2) − log√det(s14/2), both
    roots on the branch of branched_sqrt_det.  Q is complex symmetric.
    The result is stacked over the broadcast leading axes of the two
    covariances, not over any centers.
    """
    dim = gamma_a.shape[-1]
    eye, iom, half_k, quarter = _stage_constants(dim)
    s23 = gamma_a + gamma_b
    x = np.linalg.inv(s23)
    gbx = (gamma_b + iom) @ x
    s14 = eye + gamma_b - gbx @ (gamma_b - iom)
    k = half_k - gbx
    q = x + quarter + np.swapaxes(k, -1, -2) @ np.linalg.solve(s14, k)
    return q, -overlaps._log_sqrt_det(s23 / 2) - overlaps._log_sqrt_det(s14 / 2)


def _two_stage_log_overlaps(a: BranchStack, b: BranchStack) -> np.ndarray:
    """log⟨ψ_a, ψ_b⟩ over two broadcast-compatible stacks by the 2n×2n
    kernel the Bargmann kernel replaced: the covariance stage on
    (a.gamma, b.gamma), then per pair

        log G = log-constant − δᵀQδ − i·Im(α_a·ᾱ_b) − log(r̄_b·r_a).

    The trace's phase −i·δᵀΩᵀd_a and the Weyl phase of D(λ)|α_a⟩,
    +i·Im(α_a·ᾱ_b), sum to −i·Im(α_a·ᾱ_b) since d = d̂(α).
    """
    q, log_c = _covariance_stage(a.gamma, b.gamma)
    delta = a.d - b.d
    return (log_c - _quadratic(q, delta)
            - 1j * (a.alpha * b.alpha.conj()).imag.sum(axis=-1)
            - np.log(np.conj(b.r) * a.r))


def _two_stage_energy_factors(a: BranchStack, b: BranchStack) -> np.ndarray:
    """⟨ψ_a|H|ψ_b⟩ / ⟨ψ_a, ψ_b⟩ over two broadcast-compatible stacks, from
    the 2n×2n kernel's Q.

    H = Σ_m (Q_m² + P_m² + 1) = n + RᵀR.  With D(β) = exp(iξᵀR), ξ = Ωd̂(β)
    up to sign, F(η) = ⟨ψ_a, D(β)ψ_b⟩ at η = d̂(β) has ⟨ψ_a|RᵀR|ψ_b⟩ =
    −tr ∇²F(0).  D(β)ψ_b is the description (Γ_b, α_b − β, r_b·e^{i·Im(α_b β̄)}),
    so by the center stage of _two_stage_log_overlaps F = G·e^φ with

        φ(η) = −2δᵀQη − ηᵀQη − ½i·(d_a + d_b)ᵀΩη,

    Q from the same covariance stage.  The factor n − tr ∇²φ − ∇φᵀ∇φ at
    η = 0 is then n + 2·tr Q − gᵀg with g = −2Qδ + ½i·Ω(d_a + d_b).
    """
    dim = a.gamma.shape[-1]
    q, _ = _covariance_stage(a.gamma, b.gamma)
    d_a, d_b = a.d, b.d
    g = -2.0 * _mv(q, d_a - d_b) + 0.5j * ((d_a + d_b) @ symplectic_form(dim // 2).T)
    return dim // 2 + 2.0 * np.trace(q, axis1=-2, axis2=-1) - _dot(g, g)


def _mp_half_log_det(m):
    """½·Σₖ Log pₖ over the pivots of unpivoted elimination on an mpmath matrix."""
    m = m.copy()
    total = 0
    for p in range(m.rows):
        total += mp.log(m[p, p])
        for i in range(p + 1, m.rows):
            factor = m[i, p] / m[p, p]
            for j in range(p + 1, m.cols):
                m[i, j] -= factor * m[p, j]
    return total / 2


def _mp_log_overlap(a: BranchStack, b: BranchStack, digits: int = 40) -> complex:
    """log⟨ψ_a, ψ_b⟩ of one pair by the 2n×2n formula of _covariance_stage
    in `digits`-digit arithmetic, the double inputs (Γ, α, r) taken as exact."""
    with mp.workdps(digits):
        ga, gb = (_mp_matrix(g) for g in (a.gamma, b.gamma))
        return complex(_mp_log_overlap_of(ga, a.alpha, mp.mpc(complex(a.r)),
                                          gb, b.alpha, mp.mpc(complex(b.r))))


def _mp_matrix(gamma: np.ndarray):
    """One covariance, possibly held as a stack of one, as an mpmath matrix."""
    return mp.matrix(np.reshape(gamma, gamma.shape[-2:]).tolist())


def _mp_log_overlap_of(ga, alpha_a, r_a, gb, alpha_b, r_b):
    """log⟨ψ_a, ψ_b⟩ by the formula of _mp_log_overlap in the working
    precision, from mpmath covariances and reference overlaps."""
    dim = ga.rows
    eye = mp.eye(dim)
    iom = mp.matrix(symplectic_form(dim // 2).tolist()) * 1j
    s23 = ga + gb
    x = mp.inverse(s23)
    gbx = (gb + iom) * x
    s14 = eye + gb - gbx * (gb - iom)
    k = (eye - iom) / 2 - gbx
    q = x + eye / 4 + k.T * mp.inverse(s14) * k
    alpha_a = [mp.mpc(complex(z)) for z in alpha_a]
    alpha_b = [mp.mpc(complex(z)) for z in alpha_b]
    delta = mp.matrix([mp.sqrt(2) * part for z_a, z_b in zip(alpha_a, alpha_b)
                       for part in ((z_a - z_b).real, (z_a - z_b).imag)])
    phase = sum((z_a * mp.conj(z_b)).imag for z_a, z_b in zip(alpha_a, alpha_b))
    return (-_mp_half_log_det(s23 / 2) - _mp_half_log_det(s14 / 2)
            - (delta.T * q * delta)[0] - 1j * phase - mp.log(mp.conj(r_b) * r_a))


def _mp_squeezed_r(branch: BranchStack, z: float, j: int, digits: int = 40) -> complex:
    """r′ = ⟨S†α′, ψ⟩ of apply_squeeze as the pair overlap of ψ with the
    anchor D(α)S†|0⟩ = (S⁻¹S⁻ᵀ, α, 1/√cosh z), in `digits`-digit arithmetic
    with the anchor built there and ψ's double (Γ, α, r) taken as exact."""
    with mp.workdps(digits):
        z = mp.mpf(z)
        anchor = mp.eye(2 * branch.alpha.size)
        anchor[2 * j - 2, 2 * j - 2] = mp.exp(2 * z)
        anchor[2 * j - 1, 2 * j - 1] = mp.exp(-2 * z)
        return complex(mp.exp(_mp_log_overlap_of(
            anchor, branch.alpha, 1 / mp.sqrt(mp.cosh(z)),
            _mp_matrix(branch.gamma), branch.alpha, mp.mpc(complex(branch.r)))))


def _hamilton_b(gamma: np.ndarray) -> np.ndarray:
    """B as the complex conjugate of the top-left n×n block of X(I − Q⁻¹),
    Q = ½(WΓWᴴ + I) in xxpp order (Hamilton et al., PRL 119, 170501, 2017)."""
    n = gamma.shape[-1] // 2
    order = np.r_[0:2 * n:2, 1:2 * n:2]
    eye, zero = np.eye(n), np.zeros((n, n))
    w = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)
    q = 0.5 * (w @ gamma[np.ix_(order, order)] @ w.conj().T + np.eye(2 * n))
    a = np.block([[zero, eye], [eye, zero]]) @ (np.eye(2 * n) - np.linalg.inv(q))
    return a[:n, :n].conj()


def _shared_stack(seed: int, n: int, chi: int, z_max: float) -> BranchStack:
    """χ branches on one random covariance, with labels drawn as
    random_pure_description draws them and random phases."""
    rng = np.random.default_rng(seed)
    delta = random_pure_description(n, z_max, rng)
    alpha = np.stack([random_pure_description(n, 0.0, rng).alpha for _ in range(chi)])
    r = abs(delta.r) * np.exp(1j * rng.uniform(-np.pi, np.pi, chi))
    return BranchStack(delta.gamma[None], alpha, r)


def _each_pair(stack: BranchStack) -> tuple:
    """The stack taken at the two ends of every pair k ≠ j."""
    chi = stack.r.size
    k, j = np.nonzero(~np.eye(chi, dtype=bool))
    return stack.take(k), stack.take(j)


def _bit_equal_rows(gamma: np.ndarray) -> bool:
    bits = np.ascontiguousarray(gamma).view(np.uint64)
    return bool((bits == bits[0]).all())


class TestTwoStageKernel:
    """The pair kernel's two stages, covariance pair and center, against
    the per-pair triple formula, the oracle, and the kernel's sharing
    rule."""

    def _certify(self, stack_a, stack_b=None, what=""):
        got = gram(stack_a, stack_b)
        want = _reference_gram(stack_a, stack_a if stack_b is None else stack_b)
        assert_rel_close(got, want, 1e-13, what)
        return got

    @pytest.mark.parametrize("n", [1, 2])
    def test_coherent_chain_after_gates_and_conditioning(self, n):
        evolved = _coherent_chain(n, 12, 50 + n, condition=False)
        assert not np.allclose(evolved.branches.gamma[0], np.eye(2 * n))
        self._certify(evolved.branches, what=f"evolved chain n={n}")
        psi = _coherent_chain(n, 12, 50 + n)
        g = self._certify(psi.branches, what=f"conditioned chain n={n}")
        focks = [fock_from_description(d) for d in psi.descriptions[:5]]
        oracle = np.array([[fock_overlap(fk, fj) for fj in focks] for fk in focks])
        assert np.abs(g[:5, :5] - oracle).max() < 1e-8, f"n={n}: gram ≠ oracle"

    def test_cat_and_gkp_comb(self):
        self._certify(cat_state(1.3 - 0.4j, "odd").branches, what="cat")
        comb = gkp_comb(0.6, 4, 1.1, 2.0)
        g = self._certify(comb.branches, what="gkp comb")
        focks = [fock_from_description(d) for d in comb.descriptions[3:6]]
        oracle = np.array([[fock_overlap(fk, fj) for fj in focks] for fk in focks])
        assert np.abs(g[3:6, 3:6] - oracle).max() < 1e-8, "gkp comb: gram ≠ oracle"

    def test_general_path(self):
        # two covariance classes, then one covariance per branch with
        # complex reference overlaps
        self._certify(appendix_d_state(0.4, 1.2, 0.5).branches, what="appendixD")
        for n, chi in ((1, 9), (2, 7)):
            stack = stack_branches(phased_descriptions(60 + n, n, chi, z_max=0.9))
            g = self._certify(stack, what=f"squeezed n={n}")
            focks = [fock_from_description(d)
                     for d in phased_descriptions(60 + n, n, chi, z_max=0.9)[:4]]
            oracle = np.array([[fock_overlap(fk, fj) for fj in focks] for fk in focks])
            assert np.abs(g[:4, :4] - oracle).max() < 1e-8, f"n={n}: gram ≠ oracle"

    def test_probes_and_cross_form(self):
        chain = _coherent_chain(1, 9, 70).branches
        squeezed = stack_branches(phased_descriptions(71, 1, 6))
        probes = BranchStack(np.eye(2)[None], _probe_labels(1, 1234, 0, 11, 2.5),
                             np.ones(11, dtype=complex))
        self._certify(probes, chain, "probes against a shared stack")
        self._certify(probes, squeezed, "probes against an unshared stack")
        self._certify(chain, squeezed, "cross form, χ_a ≠ χ_b")
        self._certify(squeezed, chain.take(np.arange(4)), "cross form, shared on the right")

    def test_overlap_returns_python_complex(self):
        d1 = random_pure_description(2, 0.8, 3)
        d2 = random_pure_description(2, 0.8, 4)
        value = overlap(d1, d2)
        assert type(value) is complex
        assert abs(value - _reference_overlap(d1, d2)) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pivot_root_matches_eigenvalue_root(self, n):
        rng = np.random.default_rng(80 + n)
        x = rng.standard_normal((50, 2 * n, 2 * n))
        a = x @ np.swapaxes(x, -1, -2) / (2 * n) + 0.2 * np.eye(2 * n)
        y = rng.standard_normal((50, 2 * n, 2 * n))
        b = 3.0 * (y + np.swapaxes(y, -1, -2))
        # a dominant positive definite B turns every eigenvalue towards +i,
        # which takes ½·Σ Arg λ past π for n ≥ 3
        b[25:] = 20.0 * (y[25:] @ np.swapaxes(y[25:], -1, -2) / (2 * n) + np.eye(2 * n))
        m = a + 1j * b
        # both log-sums continue log det A along A + itB, so they agree as
        # numbers, not only modulo 2πi
        got = overlaps._log_sqrt_det(m)
        want = 0.5 * np.log(np.linalg.eigvals(m)).sum(axis=-1)
        assert np.abs(got - want).max() < 1e-12, f"n={n}"
        assert np.abs(branched_sqrt_det(m) - np.exp(want)).max() < 1e-12 * np.abs(
            np.exp(want)).max()

    def _stage_sizes(self, monkeypatch):
        # the covariance-pair stage: M, M⁻¹ and log det M of each pair
        sizes = []
        stage = overlaps._seen

        def counted(bra_quad, ket):
            sizes.append(int(np.prod(np.broadcast_shapes(bra_quad.shape[:-2],
                                                         ket.quad.shape[:-2]))))
            return stage(bra_quad, ket)

        monkeypatch.setattr(overlaps, "_seen", counted)
        return sizes

    def test_shared_stack_runs_one_covariance_stage_per_call(self, monkeypatch):
        psi = _coherent_chain(2, 64, 90)
        assert psi.chi == 64
        sizes = self._stage_sizes(monkeypatch)
        exact_norm(psi)
        assert sizes == [1], f"stage sizes {sizes}: one stage of one pair per call"
        sizes.clear()
        # the probes are coherent bras: no covariance-pair stage at all
        fast_norm(psi, 0.5, 0.25, 2.0, 7)
        assert sizes == [], f"fast_norm stage sizes {sizes}"

    def test_unshared_stack_runs_one_covariance_stage_per_pair(self, monkeypatch):
        psi = GaussianSuperposition(np.ones(9), phased_descriptions(91, 2, 9))
        sizes = self._stage_sizes(monkeypatch)
        exact_norm(psi)
        assert sum(sizes) == 9 * 8 // 2, f"stage sizes {sizes}"

    def test_shared_chain_squeezes_and_conditions_with_one_covariance(self, monkeypatch):
        sizes = self._stage_sizes(monkeypatch)
        psi = _coherent_chain(2, 64, 90)
        assert psi.chi == 64
        # neither the two squeezes nor the outcome run a covariance-pair stage
        assert sizes == [], f"stage sizes {sizes}"

    def test_unshared_stack_squeezes_and_conditions_per_branch(self, monkeypatch):
        stack = stack_branches(phased_descriptions(92, 2, 9))
        sizes = self._stage_sizes(monkeypatch)
        apply_squeeze(stack, 0.4, 1)
        postmeasure(stack, np.array([0.3 - 0.2j]))
        assert sizes == [], f"stage sizes {sizes}"

    def test_coherent_bras_run_no_stage_and_no_gather(self, monkeypatch):
        # probes, the k = n outcome row and the conditioned label are read
        # off the branches' Bargmann functions, on shared and unshared stacks
        def refused(*args, **kwargs):
            raise AssertionError("a coherent bra reached the pair stage or the pair gather")

        monkeypatch.setattr(overlaps, "_seen", refused)
        monkeypatch.setattr(overlaps, "_blocked", refused)
        for psi in (_coherent_chain(2, 16, 97),
                    GaussianSuperposition(np.ones(9), phased_descriptions(98, 2, 9))):
            assert np.isfinite(fast_norm(psi, 0.5, 0.25, 2.0, 7))
            assert np.isfinite(measureprob_exact(psi, np.array([0.3 - 0.2j, 0.1j])))
            postmeasure(psi.branches, np.array([0.3 - 0.2j]))

    def test_gram_defect_is_blocked(self, monkeypatch):
        chi = 34
        stack = stack_branches(phased_descriptions(93, 1, chi))
        assert chi * (chi - 1) // 2 > GRAM_BLOCK
        g = gram(stack)
        k, j = np.triu_indices(chi, 1)
        unblocked = np.max(np.abs(np.abs(g[k, j]) ** 2
                                  - overlaps._fidelity(stack.take(k), stack.take(j))))
        sizes = []
        fidelity = overlaps._fidelity

        def counted(a, b):
            values = fidelity(a, b)
            sizes.append(values.size)
            return values

        monkeypatch.setattr(overlaps, "_fidelity", counted)
        assert gram_defect(stack, g) == unblocked
        assert max(sizes) <= GRAM_BLOCK and sum(sizes) == chi * (chi - 1) // 2, sizes

    def test_gates_and_conditioning_keep_equal_covariances_bit_equal(self):
        # on a stack with one covariance per branch, as stack_branches builds
        # it: the invariant that lets a superposition test for sharing once
        chi, n = 16, 2
        labels = np.linspace(-1.0, 1.0, chi)[:, None] * np.array([0.6 + 0.2j, -0.3j])
        stack = stack_branches([coherent_description(a) for a in labels])
        psi = GaussianSuperposition(np.ones(chi), stack)
        assert psi.branches.gamma.shape == (1, 2 * n, 2 * n)
        gates = [Squeeze(0.4, 1), Beamsplitter(0.9, 1, 2), PhaseShift(1.1, 2),
                 Displacement(np.array([0.2, -0.1j])), Squeeze(-0.3, 2)]
        for gate in gates:
            stack = apply_unitary(stack, gate)
        evolved = evolve(psi, gates)
        assert stack.gamma.shape == (chi, 2 * n, 2 * n)
        assert evolved.branches.gamma.shape == (1, 2 * n, 2 * n)
        assert _bit_equal_rows(np.concatenate([evolved.branches.gamma, stack.gamma])), (
            "gates split the covariances")
        beta = np.array([0.3 + 0.1j])
        post, _ = postmeasure(stack, beta)
        conditioned = post_measurement_superposition(evolved, beta)
        assert conditioned.chi > 1
        assert conditioned.branches.gamma.shape == (1, 2 * n, 2 * n)
        assert _bit_equal_rows(np.concatenate([conditioned.branches.gamma, post.gamma])), (
            "conditioning split the covariances")

    def test_every_mode_conditioned_holds_one_covariance(self):
        # k = n leaves every branch in |β⟩: χ identity covariances, one stored
        psi = GaussianSuperposition(np.ones(7), phased_descriptions(94, 2, 7))
        assert psi.branches.gamma.shape == (7, 4, 4)
        post = post_measurement_superposition(psi, np.array([0.2 - 0.1j, 0.4j]))
        assert post.chi > 1 and post.branches.gamma.shape == (1, 4, 4)
        assert np.array_equal(post.branches.gamma[0], np.eye(4))

    def test_centers_are_derived_from_labels(self):
        stack = stack_branches(phased_descriptions(96, 2, 5))
        new = stack.alpha + 0.25 - 0.5j
        assert BranchStack._fields == ("gamma", "alpha", "r")
        assert np.array_equal(stack._replace(alpha=new).d, hat_d(new))
        assert np.array_equal(stack.take([4, 1]).d, hat_d(stack.alpha[[4, 1]]))

    def test_wrong_magnitude_in_shared_stack_raises(self):
        psi = _coherent_chain(1, 8, 95)
        r = psi.branches.r.copy()
        r[3] *= 1.1
        bad = GaussianSuperposition(psi.coeffs, psi.branches._replace(r=r))
        with pytest.raises(NumericError):
            exact_norm(bad)


class TestBargmannKernel:
    """The n×n Bargmann pair kernel against the 2n×2n kernel it replaced, a
    40-digit evaluation of that kernel, an independent formula for B and
    oracle states built by gates."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("z_max", [0.5, 2.0])
    def test_matches_two_stage_kernel(self, n, z_max):
        for what, stack in (
                ("unshared", stack_branches(phased_descriptions(150 + n, n, 9, z_max=z_max))),
                ("shared", _shared_stack(160 + n, n, 9, z_max))):
            a, b = _each_pair(stack)
            off = ~np.eye(9, dtype=bool)
            want = np.exp(_two_stage_log_overlaps(a, b))
            _assert_each_rel_close(gram(stack)[off], want, 1e-13, f"{what} gram")
            g, h = overlaps.energy_gram(stack)
            _assert_each_rel_close(g[off], want, 1e-13, f"{what} energy_gram's G")
            assert_rel_close(h[off] / g[off], _two_stage_energy_factors(a, b), 1e-13,
                             f"{what} energy factors")

    # At z_max ≥ 4 the two double-precision kernels drift apart by up to a
    # few 1e-13 (z_max = 4) and 1e-11 (z_max = 6).  Against 40 digits each
    # is off by that much in turn, the Bargmann kernel less often: the
    # error is the pair's conditioning, not either formula.
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("z_max, bound", [(4.0, 5e-13), (6.0, 5e-11)])
    def test_high_squeezing_against_forty_digits(self, n, z_max, bound):
        for what, stack in (
                ("unshared", stack_branches(phased_descriptions(150 + n, n, 9, z_max=z_max))),
                ("shared", _shared_stack(160 + n, n, 9, z_max))):
            k, j = np.triu_indices(9, 1)
            a, b = stack.take(k), stack.take(j)
            exact = np.exp([_mp_log_overlap(a.take(i), b.take(i)) for i in range(k.size)])
            new = np.max(np.abs(gram(stack)[k, j] / exact - 1.0))
            old = np.max(np.abs(np.exp(_two_stage_log_overlaps(a, b)) / exact - 1.0))
            assert new <= bound, f"{what}: {new:.2e} from 40 digits"
            assert new <= 4.0 * max(old, 1e-14), f"{what}: {new:.2e} against 2n×2n {old:.2e}"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_b_matches_hamilton_form(self, n):
        for seed in range(20):
            delta = random_pure_description(n, 2.5, 170 + 10 * n + seed)
            quad = overlaps._bargmann(delta).quad
            assert np.abs(quad - _hamilton_b(delta.gamma)).max() < 1e-13, f"seed {seed}"
            assert np.abs(quad - quad.T).max() < 1e-15, f"seed {seed}: B not symmetric"
            assert np.linalg.norm(quad, 2) < 1.0, f"seed {seed}: ‖B‖₂ ≥ 1"

    @pytest.mark.parametrize("n", [1, 2])
    def test_triples_match_gate_built_oracle_states(self, n):
        # ⟨β, ψ⟩ = e^{−‖β‖²/2}·c·exp(½β̄ᵀBβ̄ + bᵀβ̄), phase included, with ψ
        # built from the vacuum by the oracle's own gates
        rng = np.random.default_rng(180 + n)
        gates = [Squeeze(0.5, 1), Displacement(0.4 * np.exp(1j * rng.uniform(0, 6, n))),
                 PhaseShift(0.9, n), Squeeze(-0.3, n)]
        if n == 2:
            gates.insert(2, Beamsplitter(0.7, 1, 2))
        delta, state = vacuum_description(n), fock_vacuum([40] * n)
        for gate in gates:
            delta, state = apply_unitary(delta, gate), fock_apply_gate(state, gate)
            form = overlaps._bargmann(delta)
            for beta in 0.8 * (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))):
                v = beta.conj()
                got = np.exp(-0.5 * np.vdot(beta, beta).real + form.log_c
                             + 0.5 * v @ form.quad @ v + form.lin @ v)
                want = complex(fock_project(state, beta)[0])
                assert abs(got - want) < 1e-9, f"after {gate}: {got} vs oracle {want}"

    @pytest.mark.parametrize("n", [1, 2])
    def test_coherent_rows_match_gram_of_coherent_stack(self, n):
        # ⟨α, ψ⟩ read off ψ's triple against gram with the coherent states as
        # a Γ = I bra stack: labels with |α| ≤ 3 against kets squeezed up to
        # z = 2, every label against every ket and each of nine against its own
        labels = _probe_labels(n, 200 + n, 0, 13, 3.0)
        coherent = BranchStack(np.eye(2 * n)[None], labels, np.ones(13, dtype=complex))
        for what, ket in (
                ("unshared", stack_branches(phased_descriptions(210 + n, n, 9, z_max=2.0))),
                ("shared", _shared_stack(220 + n, n, 9, 2.0))):
            form = overlaps._bargmann(ket)
            want = gram(coherent, ket)
            rows = np.exp(overlaps._log_coherent_overlaps(labels[:, None], form))
            _assert_each_rel_close(rows, want, 1e-15, f"{what} rows")
            own = np.exp(overlaps._log_coherent_overlaps(labels[:9], form))
            _assert_each_rel_close(own, np.diag(want[:9]), 1e-15, f"{what}, own labels")

    @pytest.mark.parametrize("n", [1, 2])
    def test_pairs_match_gate_built_oracle_states(self, n):
        rng = np.random.default_rng(190 + n)
        deltas, states = [], []
        for _ in range(4):
            delta, state = vacuum_description(n), fock_vacuum([40] * n)
            gates = [Squeeze(float(rng.uniform(-0.6, 0.6)), 1),
                     Displacement(0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))),
                     Squeeze(float(rng.uniform(-0.6, 0.6)), n)]
            if n == 2:
                gates.insert(1, Beamsplitter(float(rng.uniform(0.1, 1.4)), 1, 2))
            for gate in gates:
                delta, state = apply_unitary(delta, gate), fock_apply_gate(state, gate)
            deltas.append(delta)
            states.append(state)
        g = gram(stack_branches(deltas))
        oracle = np.array([[fock_overlap(a, b) for b in states] for a in states])
        assert np.abs(g - oracle).max() < 1e-9, f"n={n}: gram ≠ oracle"


class TestPhaseRoutes:
    """Squeezed and conditioned reference overlaps r', each one pair overlap
    of the kernel, against the anchored triple formula they replaced and
    against the oracle."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("z", [0.3, -1.2, 2.5])
    def test_squeezed_r_matches_triple_formula(self, n, z):
        stack = stack_branches(phased_descriptions(110 + n, n, 9))
        for j in range(1, n + 1):
            _assert_each_rel_close(apply_squeeze(stack, z, j).r,
                                   _reference_squeezed_r(stack, z, j), 1e-12,
                                   f"n={n} z={z} mode {j}")

    @pytest.mark.parametrize("n", [1, 2])
    def test_squeezed_r_against_40_digits(self, n):
        # inputs squeezed up to 4, one stack per branch covariance, one on a
        # shared random covariance and one squeezed along the gate's own axes
        aligned = np.diag(np.exp(8.0 * np.resize([-1.0, 1.0, 1.0, -1.0], 2 * n)))
        rng = np.random.default_rng(160 + n)
        stacks = {
            "unshared": stack_branches(phased_descriptions(140 + n, n, 6, z_max=4.0,
                                                           alpha_max=2.0)),
            "shared": _shared_stack(150 + n, n, 6, 4.0),
            "aligned": BranchStack(aligned[None],
                                   np.array([[complex_in_disc(rng, 2.0) for _ in range(n)]
                                             for _ in range(6)]),
                                   reference_overlap_magnitude(aligned)
                                   * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))),
        }
        for what, stack in stacks.items():
            for z in (0.3, -0.3, 2.5, -2.5, 6.0, -6.0):
                for j in range(1, n + 1):
                    want = np.array([_mp_squeezed_r(stack.take(i), z, j) for i in range(6)])
                    _assert_each_rel_close(apply_squeeze(stack, z, j).r, want,
                                           SQUEEZED_R_REL, f"{what} n={n} z={z} mode {j}")

    def test_squeeze_of_invalid_covariance_raises(self):
        # Re(1 − tanh z·B_11) < 0: B_11 = 2 for Γ = diag(−3, −1/3)
        delta = GaussianDescription(np.diag([-3.0, -1.0 / 3.0]), [0.2 + 0.1j], 1.0)
        with pytest.raises(BranchPathError):
            apply_squeeze(delta, 1.0, 1)

    # At z = 2.5 and |β| = 11 the triple formula itself is off by about
    # 2e-12 relative against a 60-digit evaluation of the same r', so the
    # squeezed stacks are conditioned at the smaller squeezes only.
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("z", [None, 0.3, -1.2])
    def test_conditioned_r_matches_triple_formula(self, n, z):
        stack = stack_branches(phased_descriptions(120 + n, n, 9))
        if z is not None:
            stack = apply_squeeze(stack, z, n)
        for k in range(1, n + 1):
            for size in (0.5, 3.0, 11.0):
                beta = size * np.exp(1j * np.arange(1, k + 1))
                _assert_each_rel_close(postmeasure(stack, beta)[0].r,
                                       _reference_conditioned_r(stack, beta), 1e-12,
                                       f"n={n} z={z} k={k} |β|={size}")

    @pytest.mark.parametrize("n", [1, 2])
    def test_routes_match_oracle(self, n):
        descriptions = phased_descriptions(130 + n, n, 3, z_max=0.5, alpha_max=0.7)
        stack = stack_branches(descriptions)
        beta = np.array([0.8 - 0.5j])
        for z in (0.3, -0.6):
            post = apply_squeeze(stack, z, n)
            for i, delta in enumerate(descriptions):
                squeezed = fock_apply_gate(fock_from_description(delta), Squeeze(z, n))
                want = complex(fock_project(squeezed, post.alpha[i])[0])
                assert abs(post.r[i] - want) < 1e-8, f"squeezed r' of branch {i}, z={z}"
        cond, _ = postmeasure(stack, beta)
        for i, delta in enumerate(descriptions):
            state = fock_from_description(delta)
            overlap_with_label = complex(fock_project(state, cond.alpha[i])[0])
            want = overlap_with_label / np.sqrt(fock_project(state, beta)[1])
            assert abs(cond.r[i] - want) < 1e-8, f"conditioned r' of branch {i}"
