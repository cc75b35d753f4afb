"""Inner products between pure Gaussian states from their descriptions.

The centerpiece is a closed form for the product of the three overlaps
around a triple of pure Gaussian states, one of them displaced:

    T = ⟨ψ₃, D(α)ψ₁⟩ · ⟨ψ₁, ψ₂⟩ · ⟨ψ₂, ψ₃⟩

T is computable from the covariance matrices and centers alone, because
every unknown global phase appears once as a bra and once as a ket and
cancels.  Dividing T by two known anchor overlaps then recovers the third
overlap, phase included; this is how descriptions propagate their
reference overlap r = ⟨α, ψ⟩ through squeezing and measurement, and how
pairwise superposition overlaps are evaluated.

The triple product and the determinant root accept stacks of inputs along
leading axes, broadcast like numpy's batched linear algebra, so a whole
Gram matrix or a cross-circuit overlap matrix comes from a few stacked
calls (see gram); a single pair or triple is the unstacked case of the
same code.

Complex square roots of determinants need a branch.  Every matrix whose
root is taken is complex symmetric, M = A + iB with A, B real and A ≻ 0.
For an eigenpair Mx = λx, xᴴMx = xᴴAx + i·xᴴBx with both quadratic forms
real, so Re λ = xᴴAx/‖x‖² > 0.  The same holds at every point of the path
M(t) = A + itB, t ∈ [0, 1]: no eigenvalue crosses the cut of the principal
logarithm, and Σᵢ Log λᵢ is the continuous continuation of log det A.
The tracked root is therefore exp(½·Σᵢ Log λᵢ), in closed form.

The kernel itself works in log space (_log_triple_product): the triple
product's exponent minus the two log-roots.  Public values exponentiate it,
and measurement divides anchors out of it before exponentiating, so no
anchor is ever too small to divide by.
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
    energy_of_gaussian,
    hat_d,
    symplectic_form,
)

#: Pairs per stacked kernel call in gram; bounds its working memory
#: whatever the number of pairs (under a megabyte for n ≤ 2).
GRAM_BLOCK = 512


class BranchStack(NamedTuple):
    """Descriptions stacked along leading axes; the input of the pair kernel.

    Attributes:
        gamma: covariances, shape (..., 2n, 2n).
        d: centers d̂(α), shape (..., 2n).
        alpha: coherent labels of the centers, shape (..., n).
        r: reference overlaps, shape (...).

    gram takes stacks with one branch axis; a single description is the
    stack with no leading axis.
    """

    gamma: np.ndarray
    d: np.ndarray
    alpha: np.ndarray
    r: np.ndarray

    def take(self, index) -> "BranchStack":
        """The stack indexed along its branch axis."""
        return BranchStack(self.gamma[index], self.d[index], self.alpha[index],
                           self.r[index])


def stack_branches(descriptions: Sequence[GaussianDescription]) -> BranchStack:
    """Stack descriptions on one mode count into a BranchStack."""
    descriptions = tuple(descriptions)
    if not descriptions:
        raise ValidationError("need at least one description")
    if len({delta.n for delta in descriptions}) != 1:
        raise ValidationError("descriptions have different mode counts")
    alpha = np.stack([delta.alpha for delta in descriptions])
    return BranchStack(np.stack([delta.gamma for delta in descriptions]),
                       hat_d(alpha), alpha,
                       np.array([delta.r for delta in descriptions], dtype=complex))


@lru_cache(maxsize=8)
def _upper_triangle(chi: int) -> tuple:
    """Read-only index arrays (k, j) of the pairs k < j among χ branches."""
    k, j = np.triu_indices(chi, 1)
    k.flags.writeable = False
    j.flags.writeable = False
    return k, j


def _scalar_or_array(x):
    """A Python complex for an unstacked result, the array otherwise."""
    return complex(x) if np.ndim(x) == 0 else x


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector product m·v."""
    return np.matmul(m, v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked bilinear (not sesquilinear) product uᵀv."""
    return (u * v).sum(axis=-1)


def coherent_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """⟨a, b⟩ for coherent states, antilinear in the first argument."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.size != b.size:
        raise ValidationError("coherent labels have different mode counts")
    return complex(np.exp(-0.5 * (a @ np.conj(a)).real - 0.5 * (b @ np.conj(b)).real
                          + np.conj(a) @ b))


def _fidelity(gamma1: np.ndarray, d1: np.ndarray,
              gamma2: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Stacked 2ⁿ · exp(-δᵀ(Γ₁+Γ₂)⁻¹δ) / √det(Γ₁+Γ₂) with δ = d₁ - d₂."""
    n = np.shape(gamma1)[-1] // 2
    total = gamma1 + gamma2
    diff = d1 - d2
    sign, logdet = np.linalg.slogdet(total)
    if np.any(sign <= 0):
        raise ValidationError("covariance sum is not positive definite")
    expo = n * np.log(2.0) - _dot(diff, np.linalg.solve(total, diff[..., None])[..., 0])
    return np.exp(expo - 0.5 * logdet)


def pair_fidelity(delta1: GaussianDescription, delta2: GaussianDescription) -> float:
    """|⟨ψ₁, ψ₂⟩|² from covariances and centers only.

    F = 2ⁿ · exp(-δᵀ(Γ₁+Γ₂)⁻¹δ) / √det(Γ₁+Γ₂) with δ = d₁ - d₂; no phase
    data is needed, which makes this an independent cross-check on the
    phase-tracking overlap.
    """
    if delta1.n != delta2.n:
        raise ValidationError("descriptions have different mode counts")
    return float(_fidelity(delta1.gamma, delta1.d, delta2.gamma, delta2.d))


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
        return 0.5 * np.log(np.linalg.eigvals(m)).sum(axis=-1)
    return np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1).astype(complex)


def branched_sqrt_det(m: np.ndarray):
    """√det(M) on the branch reached continuously from the real part of M.

    For complex symmetric M = A + iB with A ≻ 0 every eigenvalue has a
    positive real part along the whole path A + itB (see the module
    docstring), so the root is exp(½·Σᵢ Log λᵢ); for real M it is the
    positive root, read off the Cholesky factor of A.

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
    independent of the global phases of the ψ_i.
    """
    return _scalar_or_array(np.exp(
        _log_triple_product(gamma1, d1, gamma2, d2, gamma3, d3, alpha)))


def _log_triple_product(
    gamma1: np.ndarray, d1: np.ndarray,
    gamma2: np.ndarray, d2: np.ndarray,
    gamma3: np.ndarray, d3: np.ndarray,
    alpha: np.ndarray,
) -> np.ndarray:
    """log T of triple_overlap_product, on the branch of its two roots.

    The exponent minus log√det(s23/2) and log√det(s14/2) (see
    _triple_exponent); finite however small T is.  Stacked arguments
    broadcast.
    """
    c, f0, g1p, s23, s14 = _triple_exponent(gamma1, d1, gamma2, d2, gamma3, d3)
    xi = hat_d(alpha) @ symplectic_form(np.shape(gamma1)[-1] // 2).T
    f = f0 - 0.5j * _mv(g1p, xi)
    expo = (c - _dot(xi, 0.25 * _mv(gamma1, xi) + 1j * d1)
            - _dot(f, np.linalg.solve(s14, f[..., None])[..., 0]))
    return expo - _log_sqrt_det(s23 / 2) - _log_sqrt_det(s14 / 2)


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


def _pair_overlaps(a: BranchStack, b: BranchStack) -> np.ndarray:
    """⟨ψ_a, ψ_b⟩ over two broadcast-compatible stacks.

    Uses the triple (|α_a⟩, ψ_a, ψ_b) with displacement λ = α_a - α_b:
    both anchor overlaps are then known from the reference overlaps r_a,
    r_b and a Weyl phase, and the remaining factor is the wanted one.
    """
    u = np.exp(-1j * (a.alpha * b.alpha.conj()).imag.sum(axis=-1)) * np.conj(b.r)
    return overlaptriple(np.eye(a.gamma.shape[-1]), a.d, a.gamma, a.d, b.gamma, b.d,
                         u, a.r, a.alpha - b.alpha)


def _pair_energy_factors(a: BranchStack, b: BranchStack) -> np.ndarray:
    """⟨ψ_a|H|ψ_b⟩ / ⟨ψ_a, ψ_b⟩ over two broadcast-compatible stacks.

    H = Σ_m (Q_m² + P_m² + 1).  With ξ = Ωd̂(λ), D(λ) = exp(iξᵀR), so
    F(ξ) = ⟨ψ_a, D(λ)ψ_b⟩ has ⟨ψ_a|Σ_m R_m²|ψ_b⟩ = −tr ∇²F(0).  F is the
    triple product of (ψ_b, ψ_b, ψ_a) divided by ⟨ψ_b, ψ_a⟩, a constant, so
    F = G·e^φ with G = ⟨ψ_a, ψ_b⟩ and φ(ξ) the triple exponent minus its
    value at 0.  The factor n − tr ∇²φ − ∇φᵀ∇φ at ξ = 0 then reads off the
    exponent's coefficients (see _triple_exponent) as

        n + ½·tr Γ_b − ½·tr(g1pᵀ s14⁻¹ g1p) + eᵀe,  e = d_b − g1pᵀ s14⁻¹ f0.
    """
    n = a.gamma.shape[-1] // 2
    _, f0, g1p, _, s14 = _triple_exponent(b.gamma, b.d, b.gamma, b.d, a.gamma, a.d)
    w = np.linalg.solve(s14, np.concatenate([g1p, f0[..., None]], axis=-1))
    e = b.d - _mv(np.swapaxes(g1p, -1, -2), w[..., -1])
    return (n + 0.5 * np.trace(b.gamma, axis1=-2, axis2=-1)
            - 0.5 * (g1p * w[..., :-1]).sum(axis=(-2, -1)) + _dot(e, e))


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

    The pairs are evaluated by the stacked triple product, GRAM_BLOCK
    pairs per call.  Without psi_b this is the Gram matrix of psi_a: only
    the upper triangle k < j is evaluated, the lower triangle is its
    conjugate and the diagonal is 1, since every branch state is
    normalized.

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
    k, j = np.indices((chi_a, psi_b.r.size)).reshape(2, -1)
    return _blocked(_pair_overlaps, psi_a, k, psi_b, j).reshape(chi_a, psi_b.r.size)


def energy_gram(psi: BranchStack, g: np.ndarray) -> np.ndarray:
    """Matrix H_kj = ⟨ψ_k|H|ψ_j⟩ of H = Σ_m(Q_m² + P_m² + 1) over psi's branches.

    g is gram(psi).  The pairs k < j are g_kj times a closed-form factor
    read off the triple product's exponent (see _pair_energy_factors),
    GRAM_BLOCK pairs per call; the lower triangle is their conjugate and
    the diagonal holds the branch energies ½·tr Γ + dᵀd + n.
    """
    k, j = _upper_triangle(psi.r.size)
    h = np.diag(energy_of_gaussian(psi.gamma, psi.d)).astype(complex)
    h[k, j] = g[k, j] * _blocked(_pair_energy_factors, psi, k, psi, j)
    h[j, k] = np.conj(h[k, j])
    return h


def gram_defect(psi: BranchStack, g: np.ndarray) -> float:
    """Largest | |G_kj|² - pair_fidelity(ψ_k, ψ_j) | over the pairs k < j.

    The fidelity needs no phase data, so this checks every overlap gram
    computed for psi against an independent closed form.
    """
    k, j = _upper_triangle(psi.r.size)
    f = _fidelity(psi.gamma[k], psi.d[k], psi.gamma[j], psi.d[j])
    return float(np.max(np.abs(np.abs(g[k, j]) ** 2 - f), initial=0.0))


def overlap(delta1: GaussianDescription, delta2: GaussianDescription) -> complex:
    """⟨ψ(Δ₁), ψ(Δ₂)⟩, phase included: the one-pair case of gram's kernel."""
    if delta1.n != delta2.n:
        raise ValidationError("descriptions have different mode counts")
    return _pair_overlaps(BranchStack(delta1.gamma, delta1.d, delta1.alpha, delta1.r),
                          BranchStack(delta2.gamma, delta2.d, delta2.alpha, delta2.r))
