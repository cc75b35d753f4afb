"""Gate action on Gaussian descriptions, including the reference phase.

Covariances transform as Γ → SΓSᵀ under the gate's symplectic matrix and
coherent labels follow the gate's closed-form label map.  The reference
overlap r = ⟨α, ψ⟩ needs no recomputation for displacements (a Weyl phase)
or passive gates (they map coherent states to coherent states with no
extra phase), but squeezing changes it nontrivially.  There
r' = ⟨α', Sψ⟩ = ⟨S†α', ψ⟩, and S†|α'⟩ is the displaced squeezed vacuum
(S⁻¹S⁻ᵀ, α, 1/√cosh z) on ψ's own pre-gate label α, so r' is one pair
overlap of the overlaps kernel between the Bargmann forms of that anchor
and of ψ.

Every gate acts on a whole BranchStack per call: the branches of a
superposition are updated together, with the gate's S and label map
broadcast over the stack's leading axes; a stack holding one covariance
keeps one.  A GaussianDescription is the stack with no leading axis and
runs the same code; it comes back as a GaussianDescription.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Beamsplitter,
    Displacement,
    Gate,
    PhaseShift,
    Squeeze,
    ValidationError,
    gate_symplectic,
)
from .overlaps import BranchStack, _bargmann, _log_overlaps, _same_kind


def _congruence(s: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """SΓSᵀ, symmetrized, for a stack of covariances Γ."""
    g = s @ gamma @ s.T
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def apply_displacement(delta, beta: np.ndarray):
    """D(β): Γ is unchanged, α → α - β, and r picks up the Weyl phase.

    r' = ⟨α - β, D(β)ψ⟩ = e^{i·Im(αᵀβ̄)} · r.  delta is a description or a
    BranchStack; the result is of the same kind.
    """
    n = delta.alpha.shape[-1]
    beta = np.asarray(beta, dtype=complex).reshape(-1)
    if beta.size != n:
        raise ValidationError(
            f"displacement label has {beta.size} modes, state has {n}")
    phase = np.exp(1j * np.imag(delta.alpha @ np.conj(beta)))
    return _same_kind(delta, BranchStack(delta.gamma, delta.alpha - beta, delta.r * phase))


def apply_phaseshift(delta, phi: float, j: int):
    """Phase shift on mode j: α_j → e^{-iφ}α_j; r is unchanged."""
    gate = PhaseShift(float(phi), j)
    s, _ = gate_symplectic(gate, delta.alpha.shape[-1])
    alpha = delta.alpha.copy()
    alpha[..., j - 1] *= np.exp(-1j * gate.phi)
    return _same_kind(delta, BranchStack(_congruence(s, delta.gamma), alpha, delta.r))


def apply_beamsplitter(delta, omega: float, j: int, k: int):
    """Beamsplitter on modes (j, k): labels mix as α_j → α_j·cos ω - i·α_k·sin ω.

    The coherent-to-coherent label map carries no extra phase, so r is
    unchanged.
    """
    gate = Beamsplitter(float(omega), j, k)
    s, _ = gate_symplectic(gate, delta.alpha.shape[-1])
    c, sn = np.cos(gate.omega), np.sin(gate.omega)
    aj, ak = delta.alpha[..., j - 1], delta.alpha[..., k - 1]
    alpha = delta.alpha.copy()
    alpha[..., j - 1] = c * aj - 1j * sn * ak
    alpha[..., k - 1] = c * ak - 1j * sn * aj
    return _same_kind(delta, BranchStack(_congruence(s, delta.gamma), alpha, delta.r))


def apply_squeeze(delta, z: float, j: int):
    """Squeeze mode j by log-factor z: α_j → α_j·cosh z - ᾱ_j·sinh z.

    The new reference overlap is r' = ⟨α', Sψ⟩ = ⟨S†α', ψ⟩ with S = S_j(z).
    S†|α'⟩ = D(α)S†|0⟩ is the description (S⁻¹S⁻ᵀ, α, 1/√cosh z), α being
    ψ's own pre-gate label (the anchor of states._squeezed_description), so
    r' is one pair overlap.  S⁻¹S⁻ᵀ is the same for every branch, so the
    anchor converts to one Bargmann B, and a stack holding one covariance
    runs one covariance-pair stage per gate.
    """
    gate = Squeeze(float(z), j)
    s, _ = gate_symplectic(gate, delta.alpha.shape[-1])
    # S is diagonal, so S⁻¹S⁻ᵀ is diag(S)⁻², exactly symmetric
    anchor = BranchStack(np.diag(np.diag(s) ** -2.0), delta.alpha,
                         1.0 / np.sqrt(np.cosh(gate.z)))
    r_new = np.exp(_log_overlaps(_bargmann(anchor), _bargmann(delta)))
    aj = delta.alpha[..., j - 1]
    alpha = delta.alpha.copy()
    alpha[..., j - 1] = aj * np.cosh(gate.z) - np.conj(aj) * np.sinh(gate.z)
    return _same_kind(delta, BranchStack(_congruence(s, delta.gamma), alpha, r_new))


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
