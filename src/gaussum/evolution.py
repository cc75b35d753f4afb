"""Gate action on Gaussian descriptions, including the reference phase.

One update serves every gate.  With (S, s) = core.gate_symplectic(gate),
Γ → SΓSᵀ and d → Sd + s, so α′ = d̂⁻¹(Sd + s), and r = ⟨α, ψ⟩ is multiplied
by one closed-form factor:

- displacement D(β): the Weyl phase e^{i·Im(αᵀβ̄)};
- passive gates: 1 (they map coherent states to coherent states);
- squeeze S = S_j(z): (cosh z − sinh z·B_jj)^{−½}, B the Bargmann B of ψ's
  pre-gate covariance (see overlaps).

The squeeze factor.  r′ = ⟨α′, Sψ⟩ = ⟨S†α′, ψ⟩, and S†|α′⟩ = D(α)S†|0⟩ on
ψ's own pre-gate label α.  Shifted by D(α)†, both are centered (b = 0):
S†|0⟩ has the triple (tanh z·e_j e_jᵀ, 0, 1/√cosh z) and ψ has (B, 0, r).
At b = 0 the pair kernel of overlaps is c̄_a·c_b·det(I − B̄_a·B_b)^{−½}, and
the anchor's rank-one B makes det M = 1 − tanh z·B_jj, so

    r′ = r·(cosh z)^{−½}·(1 − tanh z·B_jj)^{−½} = r·(cosh z − sinh z·B_jj)^{−½}.

No overlap is evaluated.  With G = Γ_xx + I − iΓ_xp and B = 2G⁻¹Γ_xx − I,
cosh z − sinh z·B = G⁻¹[e^{z}(I − iΓ_xp) + e^{−z}Γ_xx]: one solve against
one column per covariance, which keeps the digits cosh z − sinh z·B_jj
loses to cancellation when ψ is already squeezed along the gate's axis.

Branch of the root.  A valid B has ‖B‖₂ < 1, so for t ∈ [0, 1] Re(cosh tz −
sinh tz·B_jj) > cosh tz − |sinh tz| = e^{−t|z|} > 0: from z = 0, where the
factor is 1, the argument never meets the cut, and the principal root is the
continuous branch.  Re ≤ 0 means ψ's covariance is not valid (BranchPathError).

Every gate acts on a whole BranchStack per call; a stack holding one
covariance keeps one, and a GaussianDescription comes back as one.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Beamsplitter,
    BranchPathError,
    Displacement,
    Gate,
    PhaseShift,
    Squeeze,
    ValidationError,
    gate_symplectic,
    hat_d_inv,
)
from .overlaps import BranchStack, _checked_r, _same_kind, _solve_position


def _congruence(s: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """SΓSᵀ, symmetrized, for a stack of covariances Γ."""
    g = s @ gamma @ s.T
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _update(delta, gate: Gate, factor=None):
    """Γ → SΓSᵀ and d → Sd + s with (S, s) = gate_symplectic(gate), and
    r → r·factor(), called once gate_symplectic has checked the gate.  A
    displacement has S = I and keeps Γ as it is."""
    s, shift = gate_symplectic(gate, delta.alpha.shape[-1])
    r = delta.r if factor is None else delta.r * factor()
    alpha = hat_d_inv(delta.d @ s.T + shift)
    gamma = delta.gamma if isinstance(gate, Displacement) else _congruence(s, delta.gamma)
    return _same_kind(delta, BranchStack(gamma, alpha, r))


def apply_displacement(delta, beta: np.ndarray):
    """D(β): α → α - β and r picks up the Weyl phase e^{i·Im(αᵀβ̄)}."""
    gate = Displacement(beta)
    return _update(delta, gate,
                   lambda: np.exp(1j * np.imag(delta.alpha @ np.conj(gate.alpha))))


def apply_phaseshift(delta, phi: float, j: int):
    """Phase shift on mode j: α_j → e^{-iφ}α_j; r is unchanged."""
    return _update(delta, PhaseShift(float(phi), j))


def apply_beamsplitter(delta, omega: float, j: int, k: int):
    """Beamsplitter on modes (j, k): α_j → α_j·cos ω - i·α_k·sin ω; r is unchanged."""
    return _update(delta, Beamsplitter(float(omega), j, k))


def _squeeze_factor(delta, z: float, j: int) -> np.ndarray:
    """(cosh z − sinh z·B_jj)^{−½} on the principal branch; PhaseRecoveryError
    for a zero or non-finite r, BranchPathError for Re(cosh z − sinh z·B_jj) ≤ 0."""
    _checked_r(delta.r)
    gamma = delta.gamma
    q, p = 2 * (j - 1), 2 * j - 1
    column = np.exp(-z) * gamma[..., 0::2, q] - 1j * np.exp(z) * gamma[..., 0::2, p]
    column[..., j - 1] += np.exp(z)
    w = _solve_position(gamma, column[..., None])[..., j - 1, 0]
    if not (w.real > 0.0).all():
        raise BranchPathError("cosh z − sinh z·B_jj has no positive real part; "
                              "the covariance is not valid")
    return 1.0 / np.sqrt(w)


def apply_squeeze(delta, z: float, j: int):
    """Squeeze mode j by log-factor z: α_j → α_j·cosh z - ᾱ_j·sinh z."""
    gate = Squeeze(float(z), j)
    return _update(delta, gate, lambda: _squeeze_factor(delta, gate.z, j))


def apply_unitary(delta, g: Gate):
    """Apply any supported gate to a description or to a whole BranchStack."""
    if isinstance(g, Displacement):
        return apply_displacement(delta, g.alpha)
    if isinstance(g, PhaseShift):
        return apply_phaseshift(delta, g.phi, g.mode)
    if isinstance(g, Beamsplitter):
        return apply_beamsplitter(delta, g.omega, g.mode1, g.mode2)
    if isinstance(g, Squeeze):
        return apply_squeeze(delta, g.z, g.mode)
    raise ValidationError(f"unsupported gate: {g!r}")
