"""Inner products between pure Gaussian states from their descriptions.

Every overlap between described states comes from one pair kernel on the
states' Bargmann functions (coherent_overlap is the closed form for two
coherent labels, kept as an independent check).  A pure Gaussian state ψ
on n modes has

    F_ψ(z) = c·exp(½zᵀBz + bᵀz),    ⟨β, ψ⟩ = e^{−‖β‖²/2}·F_ψ(β̄),

with B complex symmetric n×n (Bargmann, Comm. Pure Appl. Math. 14, 1961;
the (A, b, c) form of Miatto & Quesada, Quantum 4, 366, 2020).

Conversion (_bargmann), once per stack per call site.  About its center,
ψ's position wave function is exp(−½xᵀZx) with Z = Γ_xx⁻¹(I − iΓ_xp),
where Γ_xx = Γ[0::2, 0::2] and Γ_xp = Γ[0::2, 1::2] in the (Q₁, P₁, …)
order, and the Bargmann transform of that Gaussian is

    B = 2(I + Z)⁻¹ − I = 2(Γ_xx + I − iΓ_xp)⁻¹Γ_xx − I.

Displacing by α maps F(z) to e^{−‖α‖²/2 + αᵀz}·F(z − ᾱ), and ⟨α, ψ⟩ = r, so

    b = α − Bᾱ,    log c = log r − ½‖α‖² + ½ᾱᵀBᾱ.

The pair.  With M = I − B̄_a·B_b, u = b_b and v = b̄_a, the Gaussian
integral ⟨ψ_a, ψ_b⟩ = ∫ conj(F_a)·F_b·e^{−‖z‖²} d²ⁿz/πⁿ is

    log⟨ψ_a, ψ_b⟩ = log c̄_a + log c_b − ½ log det M
                    + ½[vᵀu + (u + B_b v)ᵀM⁻¹(v + B̄_a u)].

Since M⁻¹B̄_a = B̄_aM⁻ᵀ, the bracket is uᵀM⁻¹v + ½uᵀM⁻¹B̄_a u + ½vᵀB_bM⁻¹v,
and the pair reads

    log⟨ψ_a, ψ_b⟩ = log c̄_a + log c′ + b′ᵀv + ½vᵀB′v,
    B′ = B_bM⁻¹,  b′ = M⁻ᵀu,  log c′ = log c_b − ½ log det M + ½b′ᵀB̄_a u:

(B′, b′, c′) is the Bargmann triple of e^{½aᵀB̄_a a}ψ_b, the ket as the bra's
covariance sees it (_seen), and the pair is its Bargmann function at v.
M, M⁻¹ and log det M depend on the covariance pair alone, so they are
computed once per covariance pair per call: once per call when the bra
stack holds one covariance (see BranchStack), once per pair when it holds
one per branch.  The center stage (_log_pair_overlaps) is then one dot
product and one n×n quadratic form per pair of branches.  A coherent bra
|α⟩ is the triple (0, α, −½‖α‖²): B_a = 0 makes M = I and v = ᾱ, so
⟨α, ψ⟩ = e^{−‖α‖²/2}·F_ψ(ᾱ) is read off ψ's own triple with no
covariance-pair stage (_log_coherent_overlaps).  That serves the
estimator's probes, the outcome |β⟩ of a fully measured state and the
conditioned label |α′⟩ of postmeasure.

Energy factors.  H = Σ_m (Q_m² + P_m² + 1) = 2N + 2n, and e^{sN} maps
(B_b, b_b, c_b) to (e^{2s}B_b, e^{s}b_b, c_b), so ⟨ψ_a|H|ψ_b⟩/⟨ψ_a, ψ_b⟩ is
2n + 2·∂_s log⟨ψ_a, e^{sN}ψ_b⟩ at s = 0.  There dM/ds = 2(M − I), so
∂_s(−½ log det M) = tr M⁻¹ − n and ∂_sM⁻¹ = 2(M⁻² − M⁻¹); differentiating the
bracket and writing x = M⁻¹v, y = b′ leaves

    ⟨ψ_a|H|ψ_b⟩/⟨ψ_a, ψ_b⟩ = 2·tr M⁻¹ + 2[yᵀ(2x − v + B̄_a y) + xᵀB′v],

read off the same M⁻¹ as the overlap (_pair_energy_factors).

Branch of det M^{−½}.  A normalizable state has ‖B‖₂ < 1 (B = U·diag(tanh ρ_k)·Uᵀ
by Takagi's factorization, ρ_k its squeezing parameters), so ‖B̄_aB_b‖₂ < 1,
and every M(t) = I − t·B̄_aB_b with t ∈ [0, 1] has a positive definite
Hermitian part: Re xᴴM(t)x ≥ (1 − t·‖B_a‖₂‖B_b‖₂)·‖x‖² > 0.  Unpivoted
Gaussian elimination keeps that property: the Schur complement
S = M₂₂ − m₂₁m₁₂/m₁₁ satisfies yᴴSy = xᴴMx for x = (−m₁₂y/m₁₁, y), so its
Hermitian part is positive definite too, and by induction every pivot has a
positive real part.  Along the path the pivots therefore move continuously
without crossing the cut of the principal logarithm, and Σₖ Log pₖ is the
continuous continuation of log det M(0) = 0: the branch of the integral,
which is analytic in B̄_a from B̄_a = 0.  The kernel checks the Hermitian part
of M(1) with a Cholesky factor (BranchPathError otherwise); it is linear in
t and I at t = 0, so that covers the whole path.  The same argument gives
branched_sqrt_det's root of a complex symmetric A + iB with A ≻ 0, whose
Hermitian part is A, along A + itB (the stability of elimination without
pivoting for matrices with a positive definite Hermitian part is in Golub &
Van Loan, Matrix Computations).

The product of the three overlaps around a triple of pure Gaussian states,
one of them displaced,

    T = ⟨ψ₃, D(λ)ψ₁⟩ · ⟨ψ₁, ψ₂⟩ · ⟨ψ₂, ψ₃⟩,

is computable from the covariance matrices and centers alone, because
every unknown global phase appears once as a bra and once as a ket and
cancels.  triple_overlap_product therefore takes each ψ_i in the positive
gauge r_i = |r_i| its covariance implies and sums three log pair overlaps.
Dividing T by two known anchor overlaps recovers the third overlap, phase
included (overlaptriple).

The kernel, the triple product and the determinant root accept stacks of
inputs along leading axes, broadcast like numpy's batched linear algebra;
a single pair or triple is the unstacked case of the same code.
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


class _Bargmann(NamedTuple):
    """Bargmann triples (B, b, log c) of F_ψ(z) = c·exp(½zᵀBz + bᵀz), stacked.

    quad: B, shape (..., n, n); (1, n, n) holds one B shared by every entry,
        as the covariance axis of a BranchStack does.
    lin: b, shape (..., n).
    log_c: log c, shape (...).
    """

    quad: np.ndarray
    lin: np.ndarray
    log_c: np.ndarray

    def take(self, index) -> "_Bargmann":
        """The stack indexed along its branch axis, B kept when shared."""
        quad = self.quad if len(self.quad) == 1 else self.quad[index]
        return _Bargmann(quad, self.lin[index], self.log_c[index])


class _Seen(NamedTuple):
    """A ket stack's Bargmann triples (B′, b′, log c′) as a bra covariance
    sees them, with the M⁻¹ of each covariance pair (see the module
    docstring); a quad or minv axis of length 1 is shared."""

    quad: np.ndarray
    lin: np.ndarray
    log_c: np.ndarray
    minv: np.ndarray

    def take(self, index) -> "_Seen":
        """The stack indexed along its branch axis, B′ and M⁻¹ kept when shared."""
        quad, minv = (m if len(m) == 1 else m[index] for m in (self.quad, self.minv))
        return _Seen(quad, self.lin[index], self.log_c[index], minv)


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

    Cholesky log-determinant and inverse of Γ_a+Γ_b once per covariance
    pair, then one quadratic form per pair of centers.  It shares no
    intermediate with the overlap, so it stays an independent check on it.
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


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """Read-only n×n identity."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _solve_position(gamma: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G⁻¹·rhs, G = Γ_xx + I − iΓ_xp per covariance: the solve behind B and a
    squeeze's phase factor; ValidationError if some G is singular."""
    eye = _eye(gamma.shape[-1] // 2)
    try:
        return np.linalg.solve(gamma[..., 0::2, 0::2] + eye - 1j * gamma[..., 0::2, 1::2], rhs)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance has no Bargmann form; it is not valid") from None


def _checked_r(r) -> np.ndarray:
    """r as a complex array; PhaseRecoveryError if some r is zero or not finite."""
    r = np.asarray(r, dtype=complex)
    if not (r.all() and np.isfinite(r).all()):
        raise PhaseRecoveryError("a reference overlap is zero or not finite; "
                                 "no phase to recover")
    return r


def _bargmann(stack) -> _Bargmann:
    """The Bargmann triples of a BranchStack or description (see the module
    docstring), stacked like it; one covariance gives one B.

    log c = log r − ½‖α‖² + ½ᾱᵀBᾱ is computed as log r − ½ᾱᵀb.

    Raises:
        ValidationError: some Γ_xx + I − iΓ_xp is singular.
        PhaseRecoveryError: a reference overlap is zero or not finite.
    """
    gxx = stack.gamma[..., 0::2, 0::2]
    quad = 2.0 * _solve_position(stack.gamma, gxx) - _eye(gxx.shape[-1])
    r = _checked_r(stack.r)
    alpha_bar = np.conj(stack.alpha)
    lin = stack.alpha - _mv(quad, alpha_bar)
    return _Bargmann(quad, lin, np.log(r) - 0.5 * _dot(alpha_bar, lin))


def _seen(bra_quad: np.ndarray, ket: _Bargmann) -> _Seen:
    """The ket triples as a bra with B = bra_quad sees them, with M⁻¹; the
    covariance-pair stage, over the broadcast leading axes of bra_quad and
    ket.quad (see the module docstring).

    Raises:
        BranchPathError: some M = I − B̄_a·B_b has no positive definite
            Hermitian part, which no pair of normalizable states has.
    """
    if not bra_quad.any():
        # B_a = 0 makes M = I: the seen triples are the ket's own
        eye = _eye(ket.quad.shape[-1])
        return _Seen(*ket, eye if ket.quad.ndim == 2 else eye[None])
    bra_bar = bra_quad.conj()
    m = _eye(ket.quad.shape[-1]) - bra_bar @ ket.quad
    try:
        np.linalg.cholesky(m + np.swapaxes(m, -1, -2).conj())
    except np.linalg.LinAlgError:
        raise BranchPathError("I − B̄_a·B_b has no positive definite Hermitian part; "
                              "some state is not normalizable") from None
    minv = np.linalg.inv(m)
    lin = _mv(np.swapaxes(minv, -1, -2), ket.lin)
    log_c = ket.log_c + 0.5 * (_dot(lin, _mv(bra_bar, ket.lin)) - _log_pivot_sum(m))
    return _Seen(ket.quad @ minv, lin, log_c, minv)


def _log_pair_overlaps(bra: _Bargmann, ket: _Seen) -> np.ndarray:
    """log⟨ψ_a, ψ_b⟩ = log c̄_a + log c′ + b′ᵀv + ½vᵀB′v with v = b̄_a, over
    a bra stack and a ket stack seen by its covariances (see _seen), their
    leading axes broadcast."""
    v = bra.lin.conj()
    return (bra.log_c.conj() + ket.log_c + _dot(ket.lin, v)
            + 0.5 * _quadratic(ket.quad, v))


def _pair_overlaps(bra: _Bargmann, ket: _Seen) -> np.ndarray:
    """⟨ψ_a, ψ_b⟩, the exponential of _log_pair_overlaps: the entry point of
    gram and its cross form, at most GRAM_BLOCK pairs per call there."""
    return np.exp(_log_pair_overlaps(bra, ket))


def _log_coherent_overlaps(alpha: np.ndarray, ket: _Bargmann) -> np.ndarray:
    """log⟨α, ψ⟩ = −½‖α‖² + log c + bᵀᾱ + ½ᾱᵀBᾱ: the ket stack's Bargmann
    functions at ᾱ, the pair kernel at B_a = 0.  The leading axes of the
    labels (..., n) broadcast against the stack's."""
    v = alpha.conj()
    return (-0.5 * _dot(alpha, v) + ket.log_c + _dot(ket.lin, v)
            + 0.5 * _quadratic(ket.quad, v))


def _log_overlaps(a: _Bargmann, b: _Bargmann) -> np.ndarray:
    """log⟨ψ_a, ψ_b⟩ over two broadcast-compatible Bargmann stacks, the ket
    seen by every covariance pair in one call."""
    return _log_pair_overlaps(a, _seen(a.quad, b))


def _pair_energy_factors(bra: _Bargmann, ket: _Seen) -> np.ndarray:
    """⟨ψ_a|H|ψ_b⟩ / ⟨ψ_a, ψ_b⟩ = 2·tr M⁻¹ + 2[yᵀ(2x − v + B̄_a y) + xᵀB′v],
    with v = b̄_a, x = M⁻¹v and y = b′, over stacks as in _log_pair_overlaps
    (derived in the module docstring)."""
    v = bra.lin.conj()
    x = _mv(ket.minv, v)
    y = ket.lin
    return 2.0 * (np.trace(ket.minv, axis1=-2, axis2=-1)
                  + _dot(y, 2.0 * x - v + _mv(bra.quad.conj(), y))
                  + _dot(x, _mv(ket.quad, v)))


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
    form1, form2, form3 = (_bargmann(psi) for psi in (psi1, psi2, psi3))
    return _scalar_or_array(np.exp(_log_overlaps(form3, _bargmann(displaced))
                                   + _log_overlaps(form1, form2)
                                   + _log_overlaps(form2, form3)))


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


def _blocked(kernel, a, k: np.ndarray, b, j: np.ndarray, width: tuple = ()) -> np.ndarray:
    """kernel(a_k, b_j) for index arrays k, j, GRAM_BLOCK pairs per call; a
    kernel returning `width` values per pair fills a (*width, pairs) array."""
    values = np.empty(width + k.shape, dtype=complex)
    for lo in range(0, k.size, GRAM_BLOCK):
        block = slice(lo, lo + GRAM_BLOCK)
        values[..., block] = kernel(a.take(k[block]), b.take(j[block]))
    return values


def _pairs(kernel, a: _Bargmann, k: np.ndarray, b: _Bargmann, j: np.ndarray,
           width: tuple = ()) -> np.ndarray:
    """_blocked kernel(bra a_k, ket b_j as a_k sees it).  A bra stack holding
    one B sees the ket stack once per call; one with a B per branch, once
    per pair."""
    if len(a.quad) == 1:
        return _blocked(kernel, a, k, _seen(a.quad, b), j, width)
    return _blocked(lambda bra, ket: kernel(bra, _seen(bra.quad, ket)), a, k, b, j, width)


def gram(psi_a: BranchStack, psi_b: Optional[BranchStack] = None) -> np.ndarray:
    """Matrix of branch overlaps G_kj = ⟨ψ_a,k, ψ_b,j⟩, phases included.

    Each stack is converted to Bargmann form once per call, and the pairs
    are evaluated by the pair kernel, GRAM_BLOCK pairs per call.  A psi_a
    holding one covariance runs the covariance-pair stage once per call;
    one with a covariance per branch (such as a stack_branches stack never
    wrapped in a superposition) runs it once per pair, even if its
    covariances are equal.  Without psi_b this is the Gram matrix of psi_a:
    only the upper triangle k < j is evaluated, the lower triangle is its
    conjugate and the diagonal is 1, since every branch state is normalized.

    Raises:
        ValidationError: the two stacks have different mode counts.
        PhaseRecoveryError: a reference overlap is zero.
    """
    chi_a = psi_a.r.size
    a = _bargmann(psi_a)
    if psi_b is None:
        k, j = _upper_triangle(chi_a)
        g = np.eye(chi_a, dtype=complex)
        values = _pairs(_pair_overlaps, a, k, a, j)
        g[k, j] = values
        g[j, k] = np.conj(values)
        return g
    if psi_a.gamma.shape[-1] != psi_b.gamma.shape[-1]:
        raise ValidationError("descriptions have different mode counts")
    chi_b = psi_b.r.size
    k, j = _cross_indices(chi_a, chi_b)
    return _pairs(_pair_overlaps, a, k, _bargmann(psi_b), j).reshape(chi_a, chi_b)


def _overlaps_and_energies(bra: _Bargmann, ket: _Seen) -> np.ndarray:
    """⟨ψ_a, ψ_b⟩ and ⟨ψ_a|H|ψ_b⟩ stacked, from one seen ket."""
    g = _pair_overlaps(bra, ket)
    return np.stack([g, g * _pair_energy_factors(bra, ket)])


def energy_gram(psi: BranchStack) -> tuple:
    """(G, H): gram(psi) and H_kj = ⟨ψ_k|H|ψ_j⟩ of H = Σ_m(Q_m² + P_m² + 1).

    The pairs k < j of both come from one conversion of psi and one
    covariance-pair stage per call or per pair, as in gram: H_kj is G_kj
    times a closed-form factor read off the same M⁻¹ (see
    _pair_energy_factors).  The lower triangles are the conjugates; the
    diagonals are 1 and the branch energies ½·tr Γ + dᵀd + n.
    """
    chi = psi.r.size
    k, j = _upper_triangle(chi)
    a = _bargmann(psi)
    g = np.eye(chi, dtype=complex)
    h = np.diag(energy_of_gaussian(psi.gamma, psi.d)).astype(complex)
    g[k, j], h[k, j] = _pairs(_overlaps_and_energies, a, k, a, j, (2,))
    g[j, k] = np.conj(g[k, j])
    h[j, k] = np.conj(h[k, j])
    return g, h


def gram_defect(psi_a: BranchStack, g: np.ndarray,
                psi_b: Optional[BranchStack] = None) -> float:
    """Largest | |G_kj|² - pair_fidelity(ψ_a,k, ψ_b,j) | over the pairs gram
    computed: k < j for g = gram(psi_a), every pair for g = gram(psi_a, psi_b).

    The fidelity needs no phase data, so this checks every overlap gram
    computed against an independent closed form.  The pairs are evaluated
    GRAM_BLOCK per call with covariances held as in gram, so a stack
    holding one covariance takes one Cholesky factor and one inverse per
    block.
    """
    if psi_b is None:
        k, j = _upper_triangle(psi_a.r.size)
        psi_b, values = psi_a, g[k, j]
    else:
        k, j = _cross_indices(psi_a.r.size, psi_b.r.size)
        values = g.reshape(-1)
    f = _blocked(_fidelity, psi_a, k, psi_b, j).real
    return float(np.max(np.abs(np.abs(values) ** 2 - f), initial=0.0))


def overlap(delta1: GaussianDescription, delta2: GaussianDescription) -> complex:
    """⟨ψ(Δ₁), ψ(Δ₂)⟩, phase included: the one-pair case of gram's kernel."""
    if delta1.n != delta2.n:
        raise ValidationError("descriptions have different mode counts")
    return _scalar_or_array(np.exp(_log_overlaps(_bargmann(delta1), _bargmann(delta2))))
