"""Superpositions of pure Gaussian states and their norms and densities.

A superposition Ψ = Σ_j c_j ψ(Δ_j) is stored as coefficients plus one
description per branch.  Norms come in two flavors:

* exact_norm evaluates the full χ×χ Gram matrix of branch overlaps,
  phases included: O(χ²) overlap evaluations, assembled from the upper
  triangle by the stacked pair kernel.
* fast_norm is a randomized estimator: it samples coherent probes uniformly
  from a phase-space ball whose radius comes from an energy bound, and
  averages the heterodyne density of the probes against Ψ.  Each sample
  touches every branch once, so the cost is O(χ) per sample, and the
  estimate lands within (1±ε)·‖Ψ‖² with probability at least 1-p_fail.

Sampling uses one counter-based generator per sample index, so results are
bit-identical for a fixed seed no matter how samples are split across
workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    Displacement,
    Gate,
    NumericError,
    Squeeze,
    ValidationError,
    _uniform_complex_ball,
    coherent_description,
    hat_d,
)
from .measurement import postmeasure
from .overlaps import BranchStack, energy_gram, gram, gram_defect, overlap, stack_branches

#: Largest tolerated | |G_kj|² - pair_fidelity(ψ_k, ψ_j) | in a Gram matrix.
GRAM_FIDELITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GaussianSuperposition:
    """Ψ = Σ_j c_j ψ(Δ_j), not necessarily normalized.

    Attributes:
        coeffs: complex branch coefficients c_j.
        descriptions: one Gaussian description per branch, all on the same
            mode count.
    """

    coeffs: np.ndarray
    descriptions: tuple

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        descriptions = tuple(self.descriptions)
        if coeffs.size == 0 or coeffs.size != len(descriptions):
            raise ValidationError(
                f"need matching coefficients and descriptions, got "
                f"{coeffs.size} and {len(descriptions)}")
        n = descriptions[0].n
        for d in descriptions:
            if d.n != n:
                raise ValidationError("branches have different mode counts")
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "descriptions", descriptions)

    @property
    def n(self) -> int:
        return self.descriptions[0].n

    @property
    def chi(self) -> int:
        return self.coeffs.size

    @property
    def terms(self) -> list:
        return list(zip(self.coeffs, self.descriptions))

    @cached_property
    def branches(self) -> BranchStack:
        """The branch descriptions stacked for the overlap kernel."""
        return stack_branches(self.descriptions)


def _checked_gram(psi: GaussianSuperposition) -> np.ndarray:
    """gram(psi.branches), each computed entry checked as exact_norm says."""
    g = gram(psi.branches)
    defect = gram_defect(psi.branches, g)
    if defect > GRAM_FIDELITY_TOL:
        raise NumericError(
            f"Gram entry misses its pair fidelity by {defect:.3e} "
            f"(tolerance {GRAM_FIDELITY_TOL:.0e})")
    return g


def _quadratic_form(c: np.ndarray, m: np.ndarray) -> float:
    """Re Σ_kj c̄_k m_kj c_j for a Hermitian m."""
    # einsum rather than a threaded BLAS product: at large χ its worker
    # threads keep spinning and slow the small kernel calls that follow
    return float(np.einsum("k,kj,j->", np.conj(c), m, c).real)


def exact_norm(psi: GaussianSuperposition) -> float:
    """‖Ψ‖ from the full Gram matrix of branch overlaps.

    The Gram matrix G_kj = ⟨ψ_k, ψ_j⟩ is assembled from its upper triangle
    by the stacked pair kernel (see overlaps.gram), and the quadratic form
    Σ_jk c̄_k c_j G_kj is real by construction.  Every computed entry is
    checked against the phase-free pair fidelity |G_kj|².

    Raises:
        NumericError: some |G_kj|² misses the pair fidelity by more than
            GRAM_FIDELITY_TOL, which signals an inconsistent branch (for
            instance a reference overlap of the wrong magnitude).
    """
    return float(np.sqrt(max(_quadratic_form(psi.coeffs, _checked_gram(psi)), 0.0)))


class FastNormParameters(NamedTuple):
    """Probe-ball radius and sample count of the randomized norm estimator."""

    radius: float
    samples: int


def fast_norm_parameters(energy_bound: float, epsilon: float, p_fail: float) -> FastNormParameters:
    """R = √(E/ε) and L = ⌈E/(4π·p_fail·ε³)⌉ for the estimator's guarantee."""
    if energy_bound <= 0 or epsilon <= 0 or not 0 < p_fail < 1:
        raise ValidationError("need energy_bound > 0, epsilon > 0, 0 < p_fail < 1")
    radius = float(np.sqrt(energy_bound / epsilon))
    samples = int(math.ceil(energy_bound / (4.0 * np.pi * p_fail * epsilon ** 3)))
    return FastNormParameters(radius, samples)


def _probe_value(psi: GaussianSuperposition, seed: int, index: int,
                 radius: float, weight: float) -> float:
    """One estimator sample: X_ℓ = w · |⟨α_ℓ, Ψ⟩|² with α_ℓ uniform in B_R."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, index]))
    probe = coherent_description(_uniform_complex_ball(psi.n, radius, rng))
    amp = 0.0 + 0.0j
    # One kernel call per branch keeps the cost per sample proportional to
    # χ (acceptance criterion 10); a stacked 1×χ gram call is dominated by
    # its fixed cost at the χ ≤ 512 that criterion measures.
    for c, d in zip(psi.coeffs, psi.descriptions):
        amp += c * overlap(probe, d)
    return weight * float(abs(amp) ** 2)


def fast_norm(psi: GaussianSuperposition, epsilon: float, p_fail: float,
              energy_bound: float, seed: int, workers: int = 1) -> float:
    """Randomized estimate of ‖Ψ‖², within (1±ε)·‖Ψ‖² w.p. ≥ 1 - p_fail.

    Args:
        psi: the superposition; cost is O(χ) per sample.
        epsilon: relative accuracy target.
        p_fail: allowed failure probability of the accuracy guarantee.
        energy_bound: upper bound on ⟨H⟩ of the normalized state, with
            H = Σ_j(Q_j² + P_j² + 1); it fixes the probe-ball radius and
            the sample count.
        seed: integer key of the counter-based generator.  Sample ℓ draws
            from its own stream, so the result is bit-identical for any
            worker count.
        workers: threads filling disjoint sample ranges.

    Returns:
        The estimate of the squared norm (not the norm).
    """
    if not isinstance(seed, (int, np.integer)):
        raise ValidationError("fast_norm needs an integer seed")
    radius, samples = fast_norm_parameters(energy_bound, epsilon, p_fail)
    weight = radius ** (2 * psi.n) / math.factorial(psi.n)
    values = np.empty(samples, dtype=float)

    def fill(lo: int, hi: int) -> None:
        for ell in range(lo, hi):
            values[ell] = _probe_value(psi, int(seed), ell, radius, weight)

    workers = max(1, int(workers))
    if workers == 1 or samples < 2 * workers:
        fill(0, samples)
    else:
        bounds = np.linspace(0, samples, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fill, int(lo), int(hi))
                       for lo, hi in zip(bounds[:-1], bounds[1:])]
            for f in futures:
                f.result()
    # fixed-order reduction keeps the result independent of the worker split
    return float(np.sum(values) / samples)


def post_measurement_superposition(
    psi: GaussianSuperposition, outcome: np.ndarray
) -> GaussianSuperposition:
    """Unnormalized post-measurement superposition Σ_j c_j √(πᵏ p_j) ψ(Δ'_j).

    Branch weights are chosen so that ‖result‖²/πᵏ is the outcome density
    of Ψ.  Every branch is conditioned (exactly, for any outcome; see
    measurement.postmeasure); branch j is kept iff its new weight
    |c'_j| is at least one ulp of the largest, ε·max_k|c'_k| with ε the
    double-precision machine epsilon.  Each cross term a dropped branch
    leaves out is then at most 2ε·max_k|c'_k|², the size of the rounding
    of the Gram sum itself.  There is no absolute floor: when every p_j
    lies below the double range, all branches are kept with weight 0 and
    the density reads 0.0.
    """
    outcome = np.asarray(outcome, dtype=complex).reshape(-1)
    k = outcome.size
    conditioned = [postmeasure(d, outcome) for d in psi.descriptions]
    coeffs = np.array([c * np.sqrt(np.pi ** k * p)
                       for c, (_, p) in zip(psi.coeffs, conditioned)])
    magnitudes = np.abs(coeffs)
    keep = magnitudes >= np.finfo(float).eps * magnitudes.max()
    return GaussianSuperposition(
        coeffs[keep], tuple(d for (d, _), kept in zip(conditioned, keep) if kept))


def measureprob_exact(psi: GaussianSuperposition, outcome: np.ndarray) -> float:
    """Heterodyne outcome density of Ψ at the given outcome, exactly.

    p(β) = ‖Π_β Ψ‖² / πᵏ, evaluated through the post-measurement
    superposition and the exact Gram norm: O(χ²) overlaps.
    """
    outcome = np.asarray(outcome, dtype=complex).reshape(-1)
    post = post_measurement_superposition(psi, outcome)
    return float(exact_norm(post) ** 2 / np.pi ** outcome.size)


def measureprob_approx(psi: GaussianSuperposition, outcome: np.ndarray,
                       epsilon: float, p_fail: float, energy_bound: float,
                       seed: int, workers: int = 1) -> float:
    """Heterodyne outcome density of Ψ, by the randomized norm estimator.

    energy_bound must bound ⟨H⟩ of the normalized post-measurement state;
    see typical_parameters for deriving one from a pre-measurement bound.
    """
    outcome = np.asarray(outcome, dtype=complex).reshape(-1)
    post = post_measurement_superposition(psi, outcome)
    value = fast_norm(post, epsilon, p_fail, energy_bound, seed, workers=workers)
    return float(value / np.pi ** outcome.size)


class TypicalParameters(NamedTuple):
    """Post-measurement energy bound and outcome-ball radius."""

    e_tilde: float
    radius: float


def typical_parameters(energy_bound: float, delta: float) -> TypicalParameters:
    """Bounds that hold for all but a δ-fraction of heterodyne outcomes.

    With ⟨H⟩ ≤ E before measuring, all outcomes except a set of total
    probability δ satisfy: the outcome lies in a ball of radius √(E/δ),
    and the conditioned state has energy at most Ẽ = 2(E+1)/δ.
    """
    if energy_bound <= 0 or not 0 < delta < 1:
        raise ValidationError("need energy_bound > 0 and 0 < delta < 1")
    return TypicalParameters(2.0 * (energy_bound + 1.0) / delta,
                             float(np.sqrt(energy_bound / delta)))


def circuit_energy_bound(energy: float, gates: Sequence[Gate]) -> float:
    """Upper bound on ⟨H⟩ after a gate sequence, H = Σ_j(Q_j² + P_j² + 1).

    Each gate bounds the energy of its output by that of its input:

    * a squeeze S(z) maps H to at most e^{2|z|}·H (the squeezed mode's
      e^{2z}Q² + e^{-2z}P² + 1 ≤ e^{2|z|}(Q² + P² + 1)), so the bound is
      multiplied by e^{2|z|};
    * phase shifts and beamsplitters commute with H and leave it unchanged;
    * a displacement by d = d̂(α) gives ⟨H⟩ + 2dᵀ⟨R⟩ + ‖d‖² ≤ (√E + ‖d‖)²,
      since Σ_m⟨R_m⟩² ≤ E.

    Args:
        energy: ⟨H⟩ of the normalized input state, or a bound on it.
        gates: the gate sequence, in order.
    """
    if energy < 0:
        raise ValidationError("energy must be nonnegative")
    bound = float(energy)
    for g in gates:
        if isinstance(g, Squeeze):
            bound *= float(np.exp(2.0 * abs(g.z)))
        elif isinstance(g, Displacement):
            bound = (np.sqrt(bound) + float(np.linalg.norm(hat_d(g.alpha)))) ** 2
    return float(bound)


def superposition_energy_exact(psi: GaussianSuperposition) -> float:
    """⟨H⟩ of the normalized superposition, H = Σ_j(Q_j² + P_j² + 1).

    Exact for every mode count, in closed form: ⟨Ψ|H|Ψ⟩ = Σ_kj c̄_k c_j H_kj
    over the branch energy matrix (see overlaps.energy_gram), divided by
    ‖Ψ‖² = Σ_kj c̄_k c_j G_kj.  Each off-diagonal H_kj comes from the same
    stacked triple-product exponent as the Gram entry G_kj; the diagonal
    holds the branch energies ½·tr Γ + dᵀd + n.

    Raises:
        NumericError: a Gram entry misses its pair fidelity (see exact_norm).
    """
    g = _checked_gram(psi)
    return _quadratic_form(psi.coeffs, energy_gram(psi.branches, g)) / _quadratic_form(
        psi.coeffs, g)
