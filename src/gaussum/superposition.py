"""Superpositions of pure Gaussian states and their norms and densities.

A superposition Ψ = Σ_j c_j ψ(Δ_j) is stored as its coefficients plus one
BranchStack: the descriptions (Γ_j, α_j, r_j) of all χ branches as arrays
with one branch axis, one covariance standing for all when they are equal
(decided once, where the superposition is built).  Gates, conditioning and
the pair kernel act on the whole stack per call, so evolving, measuring
and norming cost one call per gate, per outcome and per kernel block, not
one per branch; the per-branch descriptions are a derived view.  Norms
come in two flavors:

* exact_norm evaluates the full χ×χ Gram matrix of branch overlaps,
  phases included: O(χ²) overlap evaluations, assembled from the upper
  triangle by the stacked pair kernel.
* fast_norm is a randomized estimator: it samples coherent probes uniformly
  from a phase-space ball whose radius comes from an energy bound, and
  averages the heterodyne density of the probes against Ψ.  Ψ's branches
  are converted to Bargmann form once per call, and a probe's overlaps
  with them are the branches' Bargmann functions at its conjugate label,
  read off with no covariance-pair stage, at most GRAM_BLOCK probe-branch
  pairs at a time.
  Each sample touches every branch once, so the cost is O(χ) per sample;
  the parameters target (1±ε)·‖Ψ‖² with probability at least 1-p_fail,
  which is not yet certified (see fast_norm_parameters).

Exact outcome densities factor the measured modes out of the norm, since
heterodyning leaves them in exactly |β⟩ in every branch (see
measureprob_exact): with every mode measured the density is one row of χ
overlaps against |β⟩, O(χ); with k < n modes measured it is exact_norm of
the conditioned branches' unmeasured blocks, a Gram matrix on
2(n−k)-dimensional covariances.

Sampling uses one counter-based Philox stream per block of GRAM_BLOCK
samples, and a block's probes are drawn and evaluated the same way
whichever worker takes it, so results are bit-identical for a fixed seed
and any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    Displacement,
    GaussianDescription,
    Gate,
    NumericError,
    Squeeze,
    ValidationError,
    _uniform_complex_ball,
    hat_d,
)
from .measurement import heterodyne_density, postmeasure
from .overlaps import (
    GRAM_BLOCK,
    BranchStack,
    _bargmann,
    _log_coherent_overlaps,
    energy_gram,
    gram,
    gram_defect,
    stack_branches,
)

#: Largest tolerated | |G_kj|² - pair_fidelity(ψ_k, ψ_j) | in a Gram matrix.
GRAM_FIDELITY_TOL = 1e-8

#: Largest tolerated |‖Ψ₀‖ - 1| of the input state of a simulation.
UNIT_NORM_TOL = 1e-6


def _shared(gamma: np.ndarray) -> np.ndarray:
    """The covariance axis gamma, cut to one covariance when they are all
    equal: an O(χ·4n²) test, run once per superposition built (and by the
    parser before it validates), since gates and conditioning keep equal
    covariances bit-equal."""
    if len(gamma) > 1 and (gamma == gamma[0]).all():
        return gamma[:1]
    return gamma


@dataclass(frozen=True, eq=False)
class GaussianSuperposition:
    """Ψ = Σ_j c_j ψ(Δ_j), not necessarily normalized.

    Constructed as GaussianSuperposition(coeffs, branches), where branches
    is a BranchStack with one branch axis (χ covariances or one) or a
    sequence of descriptions on one mode count, which is stacked once here.

    Attributes:
        coeffs: complex branch coefficients c_j, shape (χ,).
        branches: the branches as one BranchStack of χ entries, held as
            read-only views, with one covariance when all χ are equal.
    """

    coeffs: np.ndarray
    branches: BranchStack

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        branches = self.branches
        if not isinstance(branches, BranchStack):
            branches = stack_branches(branches)
        gamma, alpha, r = branches
        n = alpha.shape[-1]
        if (coeffs.size == 0 or r.shape != coeffs.shape or alpha.shape != (coeffs.size, n)
                or gamma.shape[1:] != (2 * n, 2 * n) or len(gamma) not in (1, coeffs.size)):
            raise ValidationError(
                f"need {coeffs.size} coefficients and a stack of as many branches, got "
                f"covariances {gamma.shape}, labels {alpha.shape}, overlaps {r.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("coefficients must be finite")
        if not np.all(np.isfinite(alpha)):
            raise ValidationError("displacement label has non-finite entries")
        # read-only views: the caller's own arrays stay writeable
        branches = BranchStack(_shared(gamma).view(), alpha.view(), r.view())
        coeffs.flags.writeable = False
        for array in branches:
            array.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "branches", branches)

    @property
    def n(self) -> int:
        return self.branches.alpha.shape[-1]

    @property
    def chi(self) -> int:
        return self.coeffs.size

    @cached_property
    def descriptions(self) -> tuple:
        """One GaussianDescription per branch, read off the stack, each with
        its own full covariance."""
        gamma, alpha, r = self.branches
        gamma = np.broadcast_to(gamma, (self.chi,) + gamma.shape[1:])
        return tuple(GaussianDescription(*branch) for branch in zip(gamma, alpha, r))

    @property
    def terms(self) -> list:
        return list(zip(self.coeffs, self.descriptions))


def _require_fidelity(defect: float) -> None:
    """Raise NumericError when a Gram entry misses its pair fidelity by more
    than GRAM_FIDELITY_TOL."""
    if defect > GRAM_FIDELITY_TOL:
        raise NumericError(
            f"Gram entry misses its pair fidelity by {defect:.3e} "
            f"(tolerance {GRAM_FIDELITY_TOL:.0e})")


def _checked_gram(psi_a: BranchStack, psi_b: Optional[BranchStack] = None) -> np.ndarray:
    """gram(psi_a, psi_b), each computed entry checked as exact_norm says."""
    g = gram(psi_a, psi_b)
    _require_fidelity(gram_defect(psi_a, g, psi_b))
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
    return float(np.sqrt(max(_quadratic_form(psi.coeffs, _checked_gram(psi.branches)), 0.0)))


class FastNormParameters(NamedTuple):
    """Probe-ball radius and sample count of the randomized norm estimator."""

    radius: float
    samples: int


def fast_norm_parameters(energy_bound: float, epsilon: float, p_fail: float) -> FastNormParameters:
    """R = √(E/ε) and L = ⌈E/(4π·p_fail·ε³)⌉, aimed at (1±ε) w.p. ≥ 1 − p_fail.

    That target is not yet certified: L leaves out n.  At ε = 0.2 and
    p_fail = 0.25 the measured share of estimates outside (1±ε) is 0.299
    for an even cat with α = 1 (n = 1) and 0.758 for it ⊗ vacuum (n = 2).

    Raises:
        ValidationError: E or ε is not finite and positive, p_fail is not
            in (0, 1), or E/(4π·p_fail·ε³) is not a finite positive number
            (ε³ underflows or overflows).
    """
    if not (math.isfinite(energy_bound) and math.isfinite(epsilon)):
        raise ValidationError(
            f"need a finite energy_bound and epsilon, got {energy_bound!r} and {epsilon!r}")
    if energy_bound <= 0 or epsilon <= 0 or not 0 < p_fail < 1:
        raise ValidationError("need energy_bound > 0, epsilon > 0, 0 < p_fail < 1")
    try:
        count = energy_bound / (4.0 * np.pi * p_fail * epsilon ** 3)
    except (OverflowError, ZeroDivisionError):
        count = math.nan
    if not (math.isfinite(count) and count > 0):
        raise ValidationError(
            f"sample count E/(4π·p_fail·ε³) is not a finite positive number at "
            f"E={energy_bound!r}, ε={epsilon!r}, p_fail={p_fail!r}")
    radius = float(np.sqrt(energy_bound / epsilon))
    return FastNormParameters(radius, int(math.ceil(count)))


def _probe_labels(n: int, seed: int, block: int, size: int, radius: float) -> np.ndarray:
    """The labels (size, n) of the size coherent probes of stream block
    `block`, uniform in B_R.

    The block draws all its labels at once from its own Philox stream (key
    seed, counter block in the top word).
    """
    draw = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, block]))
    return _uniform_complex_ball(n, radius, draw, size)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def fast_norm(psi: GaussianSuperposition, epsilon: float, p_fail: float,
              energy_bound: float, seed: int, workers: int = 1) -> float:
    """Randomized estimate of ‖Ψ‖², aimed at (1±ε)·‖Ψ‖² w.p. ≥ 1 - p_fail.

    Sample ℓ is X_ℓ = w·|Σ_j c_j ⟨α_ℓ, ψ_j⟩|² with α_ℓ uniform in the ball
    B_R and w = R²ⁿ/n!; the estimate is the mean of the L samples.  The
    samples come in stream blocks of GRAM_BLOCK: block b holds samples
    [b·GRAM_BLOCK, min((b+1)·GRAM_BLOCK, L)) and draws its probes at once
    from its own stream.  psi.branches are converted to Bargmann form once
    per call; the amplitudes ⟨α_ℓ, ψ_j⟩ of a block are Bargmann functions
    of the branches at ᾱ_ℓ, taken max(1, GRAM_BLOCK // χ) probes at a
    time against at most GRAM_BLOCK branches, the partial sums over
    branch blocks added up, so the kernel's working memory is
    O(GRAM_BLOCK + χ) whatever L and χ.

    Args:
        psi: the superposition; cost is O(χ) per sample.
        epsilon: relative accuracy target.
        p_fail: failure probability the accuracy target allows; the
            target is not certified (see fast_norm_parameters).
        energy_bound: upper bound on ⟨H⟩ of the normalized state, with
            H = Σ_j(Q_j² + P_j² + 1); it fixes the probe-ball radius and
            the sample count.
        seed: key of the counter-based generator, an integer in
            [0, 2¹²⁸).  Block b draws from Philox(key=seed) with b in the
            counter's top word, so the result is bit-identical for any
            worker count.
        workers: threads taking whole stream blocks, at least 1.  A run
            of at most GRAM_BLOCK samples is one block and runs in the
            calling thread.

    Returns:
        The estimate of the squared norm (not the norm).

    Raises:
        ValidationError: the seed is not an integer in [0, 2¹²⁸), or the
            worker count is not an integer of at least 1 (a bool is neither).
    """
    if not (_is_integer(seed) and 0 <= int(seed) < 2 ** 128):
        raise ValidationError(f"fast_norm needs an integer seed in [0, 2**128), got {seed!r}")
    if not (_is_integer(workers) and workers >= 1):
        raise ValidationError(f"need an integer worker count of at least 1, got {workers!r}")
    radius, samples = fast_norm_parameters(energy_bound, epsilon, p_fail)
    weight = radius ** (2 * psi.n) / math.factorial(psi.n)
    ket = _bargmann(psi.branches)
    columns = [(ket.take(slice(lo, lo + GRAM_BLOCK)), psi.coeffs[lo:lo + GRAM_BLOCK])
               for lo in range(0, psi.chi, GRAM_BLOCK)]
    rows = max(1, GRAM_BLOCK // psi.chi)
    amplitudes = np.empty(samples, dtype=complex)

    def fill(block: int) -> None:
        # one stream per block, not per row slice: a Philox set-up costs tens of µs
        lo = block * GRAM_BLOCK
        labels = _probe_labels(psi.n, int(seed), block, min(GRAM_BLOCK, samples - lo), radius)
        for start in range(0, len(labels), rows):
            row = labels[start:start + rows, None]
            amplitudes[lo + start:lo + start + len(row)] = sum(
                (np.exp(_log_coherent_overlaps(row, part)) * coeffs).sum(axis=1)
                for part, coeffs in columns)

    blocks = range(-(-samples // GRAM_BLOCK))
    workers = min(int(workers), len(blocks))
    if workers == 1:
        for block in blocks:
            fill(block)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, blocks))
    # fixed-order reduction keeps the result independent of the worker split
    return float(np.sum(weight * np.abs(amplitudes) ** 2) / samples)


def post_measurement_superposition(
    psi: GaussianSuperposition, outcome: np.ndarray
) -> GaussianSuperposition:
    """Unnormalized post-measurement superposition Σ_j c_j √(πᵏ p_j) ψ(Δ'_j).

    Branch weights are chosen so that ‖result‖²/πᵏ is the outcome density
    of Ψ.  The whole branch stack is conditioned in one postmeasure call
    (exactly, for any outcome); branch j is kept iff its new weight
    |c'_j| is at least one ulp of the largest, ε·max_k|c'_k| with ε the
    double-precision machine epsilon.  Each cross term a dropped branch
    leaves out is then at most 2ε·max_k|c'_k|², the size of the rounding
    of the Gram sum itself.  There is no absolute floor: when every p_j
    lies below the double range, all branches are kept with weight 0 and
    the density reads 0.0.
    """
    outcome = np.asarray(outcome, dtype=complex).reshape(-1)
    conditioned, p = postmeasure(psi.branches, outcome)
    coeffs = psi.coeffs * np.sqrt(np.pi ** outcome.size * p)
    magnitudes = np.abs(coeffs)
    keep = magnitudes >= np.finfo(float).eps * magnitudes.max()
    return GaussianSuperposition(coeffs[keep], conditioned.take(keep))


def _projected_norm_sq(psi: GaussianSuperposition, outcome: np.ndarray) -> float:
    """‖Π_β Ψ‖² with the k measured modes factored out of the norm.

    Heterodyning leaves the measured modes of every branch in exactly |β⟩,
    so Π_β Ψ = |β⟩ ⊗ Σ_j c'_j φ_j and ‖Π_β Ψ‖ = ‖Σ_j c'_j φ_j‖:

    * k = n: Π_β Ψ = |β⟩⟨β, Ψ⟩, and the norm is |Σ_j c_j ⟨β, ψ_j⟩|, one
      row of the branches' Bargmann functions at β̄, each |⟨β, ψ_j⟩|²
      checked against the phase-free pair fidelity πⁿ·p_j(β), the branch's
      heterodyne density from its covariance and center alone.
      There is no conditioning, no Gram matrix and no branch dropping.
    * k < n: φ_j is the unmeasured block of the conditioned branch j,
      (Γ_BB, α'_B, r'), with r' unchanged since ⟨β, β⟩ = 1; the sliced
      stack is normed by exact_norm on 2(n−k)-dimensional covariances.

    Raises:
        ValidationError: the outcome has no modes or more than the state.
        NumericError: a computed overlap misses its pair fidelity (see
            exact_norm).
    """
    n = psi.n
    if outcome.size == n:
        row = np.exp(_log_coherent_overlaps(outcome, _bargmann(psi.branches)))
        fidelity = np.pi ** n * heterodyne_density(psi.branches, outcome)
        _require_fidelity(float(np.max(np.abs(np.abs(row) ** 2 - fidelity))))
        return float(np.abs((psi.coeffs * row).sum()) ** 2)
    post = post_measurement_superposition(psi, outcome)
    k = outcome.size
    gamma, alpha, r = post.branches
    unmeasured = BranchStack(gamma[:, 2 * k:, 2 * k:], alpha[:, k:], r)
    return exact_norm(GaussianSuperposition(post.coeffs, unmeasured)) ** 2


def measureprob_exact(psi: GaussianSuperposition, outcome: np.ndarray) -> float:
    """Heterodyne outcome density of Ψ at the given outcome, exactly.

    p(β) = ‖Π_β Ψ‖² / πᵏ with the k measured modes factored out of the
    norm.  When every mode is measured (k = n), p(β) = |Σ_j c_j ⟨β, ψ_j⟩|²/πⁿ
    is one row of χ overlaps: O(χ).  When k < n, the branches are
    conditioned on β (see post_measurement_superposition) and their
    unmeasured blocks are normed by the Gram matrix of the χ' kept
    branches on 2(n−k)-dimensional covariances: O(χ'²).

    Raises:
        ValidationError: the outcome has no modes or more than the state.
        NumericError: a computed overlap misses its pair fidelity by more
            than GRAM_FIDELITY_TOL (see exact_norm).
        PhaseRecoveryError: a reference overlap is zero.
    """
    outcome = np.asarray(outcome, dtype=complex).reshape(-1)
    return float(_projected_norm_sq(psi, outcome) / np.pi ** outcome.size)


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
    if not math.isfinite(energy_bound):
        raise ValidationError(f"need a finite energy_bound, got {energy_bound!r}")
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


def _require_unit_norm(norm: float) -> None:
    """Raise ValidationError unless |‖Ψ‖ − 1| ≤ UNIT_NORM_TOL."""
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValidationError(
            f"initial state must be normalized, got ‖Ψ₀‖ = {norm:.9g}")


def superposition_energy_exact(psi: GaussianSuperposition, *,
                               unit_norm: bool = False) -> float:
    """⟨H⟩ of the normalized superposition, H = Σ_j(Q_j² + P_j² + 1).

    Exact for every mode count, in closed form: ⟨Ψ|H|Ψ⟩ = Σ_kj c̄_k c_j H_kj
    over the branch energy matrix (see overlaps.energy_gram), divided by
    ‖Ψ‖² = Σ_kj c̄_k c_j G_kj.  Each off-diagonal H_kj comes from the same
    M⁻¹ of the pair kernel as the Gram entry G_kj, in the same pass; the
    diagonal holds the branch energies ½·tr Γ + dᵀd + n.

    Args:
        psi: the superposition, not necessarily normalized.
        unit_norm: also require ‖Ψ‖ = 1 within UNIT_NORM_TOL, read off the
            same Gram matrix (see _require_unit_norm).

    Raises:
        ValidationError: ‖Ψ‖² does not exceed the rounding bound of its
            own χ²-term sum, 4χ²·ε·Σ_kj |c_k c_j G_kj| with ε the machine
            epsilon, so Ψ is zero to double precision and has no ⟨H⟩; or
            unit_norm is set and ‖Ψ‖ is not 1.
        NumericError: a Gram entry misses its pair fidelity (see exact_norm).
    """
    g, h = energy_gram(psi.branches)
    _require_fidelity(gram_defect(psi.branches, g))
    norm_sq = _quadratic_form(psi.coeffs, g)
    floor = 4 * psi.chi ** 2 * np.finfo(float).eps * _quadratic_form(
        np.abs(psi.coeffs), np.abs(g))
    if not norm_sq > floor:
        raise ValidationError(
            f"the superposition has ‖Ψ‖² = {norm_sq:.3e}, within the rounding "
            f"{floor:.1e} of its Gram sum: it is zero and has no energy")
    if unit_norm:
        _require_unit_norm(math.sqrt(norm_sq))
    return _quadratic_form(psi.coeffs, h) / norm_sq
