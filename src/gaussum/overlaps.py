"""Inner products between pure Gaussian states from their descriptions.

Every overlap between described states comes from one pair kernel
(coherent_overlap is the closed form for two coherent labels, kept as an
independent check), split in two stages.  In ⟨ψ_a, ψ_b⟩ everything but
the two centers depends on the covariance pair alone, so the covariance
stage (_covariance_stage) runs once per pair of covariances and returns
a complex symmetric Q and a log-constant; the center stage
(_log_pair_overlaps) runs per pair of branches:

    log⟨ψ_a, ψ_b⟩ = log-constant − δᵀQδ − i·Im(α_a·ᾱ_b) − log(r̄_b·r_a),
    δ = d_a − d_b.

gram, its cross form, estimator probes and energy_gram exponentiate it;
squeezing and conditioning read their new reference overlap r' off it as
one pair overlap each (see evolution.apply_squeeze and
measurement.postmeasure), and conditioning divides the outcome norm out in
log space, so no anchor is ever too small to divide by.

A stack holding one covariance (see BranchStack) broadcasts it over every
branch, so coherent chains, cats and probes pay for one covariance stage
per kernel call; a stack with one covariance per branch runs the same code
with one covariance stage per pair.

The product of the three overlaps around a triple of pure Gaussian states,
one of them displaced,

    T = ⟨ψ₃, D(λ)ψ₁⟩ · ⟨ψ₁, ψ₂⟩ · ⟨ψ₂, ψ₃⟩,

is computable from the covariance matrices and centers alone, because
every unknown global phase appears once as a bra and once as a ket and
cancels.  triple_overlap_product therefore takes each ψ_i in the positive
gauge r_i = |r_i| its covariance implies and sums three log pair overlaps.
Dividing T by two known anchor overlaps recovers the third overlap, phase
included (overlaptriple).

The stages, the triple product and the determinant root accept stacks of
inputs along leading axes, broadcast like numpy's batched linear algebra;
a single pair or triple is the unstacked case of the same code.

Complex square roots of determinants need a branch.  Every matrix whose
root is taken is complex symmetric, M = A + iB with A, B real and A ≻ 0,
so Re(xᴴMx) = xᴴAx > 0 for every x ≠ 0.  Unpivoted Gaussian elimination
keeps this property: the Schur complement S = M₂₂ − m₂₁m₁₂/m₁₁ satisfies
yᴴSy = xᴴMx for x = (−m₁₂y/m₁₁, y), so its Hermitian part is positive
definite too, and by induction every pivot has a positive real part.
The same holds at every point of the path M(t) = A + itB, t ∈ [0, 1]: the
pivots move continuously without crossing the cut of the principal
logarithm, and Σₖ Log pₖ is the continuous continuation of log det A.
The tracked root is therefore exp(½·Σₖ Log pₖ), in closed form (the
stability of elimination without pivoting for matrices with a positive
definite symmetric part is in Golub & Van Loan, Matrix Computations).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BranchPathError,
    GaussianDescription,
    PhaseRecoveryError,
    ValidationError,
    _log_reference_magnitude,
    energy_of_gaussian,
    hat_d,
    hat_d_inv,
    symplectic_form,
)

#: Pairs per stacked kernel call in gram; bounds its working memory
#: whatever the number of pairs (under a megabyte for n ≤ 2).
GRAM_BLOCK = 512


class BranchStack(NamedTuple):
    """Descriptions Δ = (Γ, α, r) stacked along leading axes; the input of
    the pair kernel.

    Attributes:
        gamma: covariances, shape (..., 2n, 2n); (1, 2n, 2n) holds one
            covariance shared by every branch.
        alpha: coherent labels of the centers, shape (..., n).
        r: reference overlaps, shape (...).

    A superposition stores its branches as one stack with one branch axis
    (see superposition.GaussianSuperposition); gates, conditioning and gram
    act on the whole stack per call.  A single description is the stack
    with no leading axis.
    """

    gamma: np.ndarray
    alpha: np.ndarray
    r: np.ndarray

    @property
    def d(self) -> np.ndarray:
        """Centers d̂(α), shape (..., 2n), derived from the labels."""
        return hat_d(self.alpha)

    def take(self, index) -> "BranchStack":
        """The stack indexed along its branch axis; a covariance axis of
        length 1 is shared by every entry and kept as it is."""
        gamma = self.gamma if len(self.gamma) == 1 else self.gamma[index]
        return BranchStack(gamma, self.alpha[index], self.r[index])


def _same_kind(state, stack: BranchStack):
    """stack as a GaussianDescription when state is one, else stack itself."""
    if isinstance(state, GaussianDescription):
        return GaussianDescription(stack.gamma, stack.alpha, stack.r)
    return stack


def stack_branches(descriptions: Sequence[GaussianDescription]) -> BranchStack:
    """Stack descriptions on one mode count into a BranchStack."""
    descriptions = tuple(descriptions)
    if not descriptions:
        raise ValidationError("need at least one description")
    if len({delta.n for delta in descriptions}) != 1:
        raise ValidationError("descriptions have different mode counts")
    return BranchStack(np.stack([delta.gamma for delta in descriptions]),
                       np.stack([delta.alpha for delta in descriptions]),
                       np.array([delta.r for delta in descriptions], dtype=complex))


@lru_cache(maxsize=8)
def _upper_triangle(chi: int) -> tuple:
    """Read-only index arrays (k, j) of the pairs k < j among χ branches."""
    k, j = np.triu_indices(chi, 1)
    k.flags.writeable = False
    j.flags.writeable = False
    return k, j


@lru_cache(maxsize=8)
def _cross_indices(chi_a: int, chi_b: int) -> tuple:
    """Read-only index arrays (k, j) of all χ_a·χ_b pairs, row by row."""
    k, j = np.indices((chi_a, chi_b)).reshape(2, -1)
    k.flags.writeable = False
    j.flags.writeable = False
    return k, j


def _scalar_or_array(x):
    """A Python scalar (complex or float) for an unstacked result, the
    array otherwise."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector product m·v."""
    return np.matmul(m, v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked bilinear (not sesquilinear) product uᵀv."""
    return (u * v).sum(axis=-1)


def _quadratic(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked quadratic form vᵀMv; a single M broadcasts over every v."""
    return np.einsum("...i,...ij,...j->...", v, m, v)


def coherent_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """⟨a, b⟩ for coherent states, antilinear in the first argument."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.size != b.size:
        raise ValidationError("coherent labels have different mode counts")
    return complex(np.exp(-0.5 * (a @ np.conj(a)).real - 0.5 * (b @ np.conj(b)).real
                          + np.conj(a) @ b))


def _log_det_positive(m: np.ndarray, what: str) -> np.ndarray:
    """Stacked log det M, read off a Cholesky factor of M.

    Raises:
        ValidationError: some M is not positive definite.  A determinant's
            sign cannot tell: an even number of negative eigenvalues leaves
            it positive.
    """
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValidationError(f"{what} is not positive definite") from None
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def _fidelity(a, b) -> np.ndarray:
    """Stacked 2ⁿ · exp(-δᵀ(Γ_a+Γ_b)⁻¹δ) / √det(Γ_a+Γ_b) with δ = d_a - d_b.

    Split like the pair kernel, with a stage of its own: Cholesky
    log-determinant and inverse of Γ_a+Γ_b once per covariance pair, then
    one quadratic form per pair of centers.  It shares no intermediate with
    the overlap, so it stays an independent check on it.
    """
    n = a.gamma.shape[-1] // 2
    total = a.gamma + b.gamma
    logdet = _log_det_positive(total, "covariance sum")
    return np.exp(n * np.log(2.0) - 0.5 * logdet
                  - _quadratic(np.linalg.inv(total), a.d - b.d))


def pair_fidelity(delta1: GaussianDescription, delta2: GaussianDescription) -> float:
    """|⟨ψ₁, ψ₂⟩|² from covariances and centers only.

    F = 2ⁿ · exp(-δᵀ(Γ₁+Γ₂)⁻¹δ) / √det(Γ₁+Γ₂) with δ = d₁ - d₂; no phase
    data is needed, which makes this an independent cross-check on the
    phase-tracking overlap.
    """
    if delta1.n != delta2.n:
        raise ValidationError("descriptions have different mode counts")
    return float(_fidelity(delta1, delta2))


def _log_sqrt_det(m: np.ndarray) -> np.ndarray:
    """½·log det M on the branch of branched_sqrt_det, as a complex array.

    Raises:
        BranchPathError: the real part of some matrix is not positive
            definite.
    """
    m = np.asarray(m)
    try:
        chol = np.linalg.cholesky(m.real)
    except np.linalg.LinAlgError:
        raise BranchPathError("real part of the matrix is not positive definite") from None
    if np.iscomplexobj(m) and m.imag.any():
        return 0.5 * _log_pivot_sum(m)
    return np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1).astype(complex)


def _log_pivot_sum(m: np.ndarray) -> np.ndarray:
    """Σₖ Log pₖ over the pivots of unpivoted elimination on a stack of M.

    For M with a positive definite Hermitian part every pivot has a
    positive real part (see the module docstring).
    """
    m = np.array(m, dtype=complex)
    total = np.zeros(m.shape[:-2], dtype=complex)
    for p in range(m.shape[-1]):
        pivot = m[..., p, p]
        total += np.log(pivot)
        m[..., p + 1:, p + 1:] -= m[..., p + 1:, p:p + 1] * (
            m[..., p:p + 1, p + 1:] / pivot[..., None, None])
    return total


def branched_sqrt_det(m: np.ndarray):
    """√det(M) on the branch reached continuously from the real part of M.

    For complex symmetric M = A + iB with A ≻ 0 every pivot of unpivoted
    elimination has a positive real part along the whole path A + itB (see
    the module docstring), so the root is exp(½·Σₖ Log pₖ); for real M it
    is the positive root, read off the Cholesky factor of A.

    Args:
        m: complex symmetric matrix whose real part is positive definite,
            or a stack of them along leading axes.

    Returns:
        A complex for one matrix, a complex array over the stack otherwise.

    Raises:
        BranchPathError: the real part of some matrix is not positive
            definite.
    """
    return _scalar_or_array(np.exp(_log_sqrt_det(m)))


def triple_overlap_product(
    gamma1: np.ndarray, d1: np.ndarray,
    gamma2: np.ndarray, d2: np.ndarray,
    gamma3: np.ndarray, d3: np.ndarray,
    alpha: np.ndarray,
):
    """⟨ψ₃, D(α)ψ₁⟩ · ⟨ψ₁, ψ₂⟩ · ⟨ψ₂, ψ₃⟩ for pure Gaussian ψ_i.

    Args:
        gamma1, d1: covariance and center of ψ₁ (likewise 2, 3).
        alpha: complex displacement label of length n.

    Every argument may carry leading stack axes; they broadcast against
    each other, and the result is a complex array over the broadcast
    stack, or a complex for unstacked arguments.  The result is
    independent of the global phases of the ψ_i, so it is the product of
    three pair overlaps with each ψ_i in the positive gauge
    r_i = |r_i| and D(α)ψ₁ = (Γ₁, α₁ − α, |r₁|·e^{i·Im(α₁·ᾱ)}), summed in
    log space.
    """
    psi1, psi2, psi3 = (
        BranchStack(gamma, hat_d_inv(d), np.exp(_log_reference_magnitude(gamma)))
        for gamma, d in ((gamma1, d1), (gamma2, d2), (gamma3, d3)))
    alpha = np.asarray(alpha, dtype=complex)
    displaced = BranchStack(gamma1, psi1.alpha - alpha, psi1.r * np.exp(
        1j * np.imag(_dot(psi1.alpha, np.conj(alpha)))))
    return _scalar_or_array(np.exp(_log_pair_overlaps(psi3, displaced)
                                   + _log_pair_overlaps(psi1, psi2)
                                   + _log_pair_overlaps(psi2, psi3)))


def overlaptriple(
    gamma1: np.ndarray, d1: np.ndarray,
    gamma2: np.ndarray, d2: np.ndarray,
    gamma3: np.ndarray, d3: np.ndarray,
    u, v,
    lam: np.ndarray,
):
    """Recover ⟨ψ₂, ψ₃⟩ from the triple product and two known anchors.

    Args:
        gamma1 .. d3: covariances and centers of the triple (ψ₁, ψ₂, ψ₃).
        u: the known overlap ⟨ψ₃, D(λ)ψ₁⟩.
        v: the known overlap ⟨ψ₁, ψ₂⟩.
        lam: displacement label λ.

    Stacked arguments broadcast as in triple_overlap_product.

    Raises:
        PhaseRecoveryError: the quotient is not finite (a zero anchor).
    """
    t = triple_overlap_product(gamma1, d1, gamma2, d2, gamma3, d3, lam)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = np.divide(t, np.multiply(u, v))
    if not np.all(np.isfinite(value)):
        raise PhaseRecoveryError("an anchor overlap is zero; no phase to recover")
    return _scalar_or_array(value)


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
    return q, -_log_sqrt_det(s23 / 2) - _log_sqrt_det(s14 / 2)


def _log_pair_overlaps(a: BranchStack, b: BranchStack) -> np.ndarray:
    """log⟨ψ_a, ψ_b⟩ over two broadcast-compatible stacks.

    The covariance stage runs on (a.gamma, b.gamma), once per covariance
    pair; the center stage is, per pair,

        log G = log-constant − δᵀQδ − i·Im(α_a·ᾱ_b) − log(r̄_b·r_a).

    The trace's phase −i·δᵀΩᵀd_a and the Weyl phase of D(λ)|α_a⟩,
    +i·Im(α_a·ᾱ_b), sum to −i·Im(α_a·ᾱ_b) since d = d̂(α).

    Raises:
        PhaseRecoveryError: a reference overlap is zero.
    """
    q, log_c = _covariance_stage(a.gamma, b.gamma)
    delta = a.d - b.d
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = (log_c - _quadratic(q, delta)
                 - 1j * (a.alpha * b.alpha.conj()).imag.sum(axis=-1)
                 - np.log(np.conj(b.r) * a.r))
    if not np.all(np.isfinite(log_g)):
        raise PhaseRecoveryError("a reference overlap is zero; no phase to recover")
    return log_g


def _pair_overlaps(a: BranchStack, b: BranchStack) -> np.ndarray:
    """⟨ψ_a, ψ_b⟩ over two broadcast-compatible stacks: the exponential of
    _log_pair_overlaps, and the entry point of gram and its cross form."""
    return np.exp(_log_pair_overlaps(a, b))


def _pair_energy_factors(a: BranchStack, b: BranchStack) -> np.ndarray:
    """⟨ψ_a|H|ψ_b⟩ / ⟨ψ_a, ψ_b⟩ over two broadcast-compatible stacks.

    H = Σ_m (Q_m² + P_m² + 1) = n + RᵀR.  With D(β) = exp(iξᵀR), ξ = Ωd̂(β)
    up to sign, F(η) = ⟨ψ_a, D(β)ψ_b⟩ at η = d̂(β) has ⟨ψ_a|RᵀR|ψ_b⟩ =
    −tr ∇²F(0).  D(β)ψ_b is the description (Γ_b, α_b − β, r_b·e^{i·Im(α_b β̄)}),
    so by the center stage of _log_pair_overlaps F = G·e^φ with

        φ(η) = −2δᵀQη − ηᵀQη − ½i·(d_a + d_b)ᵀΩη,

    Q from the same covariance stage.  The factor n − tr ∇²φ − ∇φᵀ∇φ at
    η = 0 is then n + 2·tr Q − gᵀg with g = −2Qδ + ½i·Ω(d_a + d_b).
    """
    dim = a.gamma.shape[-1]
    q, _ = _covariance_stage(a.gamma, b.gamma)
    d_a, d_b = a.d, b.d
    g = -2.0 * _mv(q, d_a - d_b) + 0.5j * ((d_a + d_b) @ symplectic_form(dim // 2).T)
    return dim // 2 + 2.0 * np.trace(q, axis1=-2, axis2=-1) - _dot(g, g)


def _blocked(kernel, a: BranchStack, k: np.ndarray,
             b: BranchStack, j: np.ndarray) -> np.ndarray:
    """kernel(ψ_a,k, ψ_b,j) for index arrays k, j, GRAM_BLOCK pairs per call."""
    values = np.empty(k.size, dtype=complex)
    for lo in range(0, k.size, GRAM_BLOCK):
        block = slice(lo, lo + GRAM_BLOCK)
        values[block] = kernel(a.take(k[block]), b.take(j[block]))
    return values


def gram(psi_a: BranchStack, psi_b: Optional[BranchStack] = None) -> np.ndarray:
    """Matrix of branch overlaps G_kj = ⟨ψ_a,k, ψ_b,j⟩, phases included.

    The pairs are evaluated by the two-stage pair kernel, GRAM_BLOCK pairs
    per call.  A stack holding one covariance runs the covariance stage once
    per call; one with a covariance per branch (such as a stack_branches
    stack never wrapped in a superposition) runs it once per pair, even if
    its covariances are equal.  Without psi_b
    this is the Gram matrix of psi_a: only the upper triangle k < j is
    evaluated, the lower triangle is its conjugate and the diagonal is 1,
    since every branch state is normalized.

    Raises:
        ValidationError: the two stacks have different mode counts.
        PhaseRecoveryError: a reference overlap is zero.
    """
    chi_a = psi_a.r.size
    if psi_b is None:
        k, j = _upper_triangle(chi_a)
        g = np.eye(chi_a, dtype=complex)
        g[k, j] = _blocked(_pair_overlaps, psi_a, k, psi_a, j)
        g[j, k] = np.conj(g[k, j])
        return g
    if psi_a.gamma.shape[-1] != psi_b.gamma.shape[-1]:
        raise ValidationError("descriptions have different mode counts")
    k, j = _cross_indices(chi_a, psi_b.r.size)
    return _blocked(_pair_overlaps, psi_a, k, psi_b, j).reshape(chi_a, psi_b.r.size)


def energy_gram(psi: BranchStack, g: np.ndarray) -> np.ndarray:
    """Matrix H_kj = ⟨ψ_k|H|ψ_j⟩ of H = Σ_m(Q_m² + P_m² + 1) over psi's branches.

    g is gram(psi).  The pairs k < j are g_kj times a closed-form factor
    read off the pair kernel's covariance stage (see _pair_energy_factors),
    GRAM_BLOCK pairs per call, with covariances held as in gram; the
    lower triangle is their conjugate and the diagonal holds the branch
    energies ½·tr Γ + dᵀd + n.
    """
    k, j = _upper_triangle(psi.r.size)
    h = np.diag(energy_of_gaussian(psi.gamma, psi.d)).astype(complex)
    h[k, j] = g[k, j] * _blocked(_pair_energy_factors, psi, k, psi, j)
    h[j, k] = np.conj(h[k, j])
    return h


def gram_defect(psi: BranchStack, g: np.ndarray) -> float:
    """Largest | |G_kj|² - pair_fidelity(ψ_k, ψ_j) | over the pairs k < j.

    The fidelity needs no phase data, so this checks every overlap gram
    computed for psi against an independent closed form.  The pairs are
    evaluated GRAM_BLOCK per call with covariances held as in gram, so a
    stack holding one covariance takes one Cholesky factor and one inverse per
    block.
    """
    k, j = _upper_triangle(psi.r.size)
    f = _blocked(_fidelity, psi, k, psi, j).real
    return float(np.max(np.abs(np.abs(g[k, j]) ** 2 - f), initial=0.0))


def overlap(delta1: GaussianDescription, delta2: GaussianDescription) -> complex:
    """⟨ψ(Δ₁), ψ(Δ₂)⟩, phase included: the one-pair case of gram's kernel."""
    if delta1.n != delta2.n:
        raise ValidationError("descriptions have different mode counts")
    return _scalar_or_array(_pair_overlaps(delta1, delta2))
