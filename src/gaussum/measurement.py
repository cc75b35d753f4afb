"""Heterodyne measurement of the leading modes of a Gaussian description.

Measuring modes 1..k of an n-mode pure Gaussian state against the coherent
outcome |β⟩ has the Gaussian outcome density

    p(β) = exp(-(d̂(β) - s_A)ᵀ (Γ_A + I)⁻¹ (d̂(β) - s_A)) / (πᵏ √det((Γ_A+I)/2))

where Γ_A, s_A are the measured block of the covariance and center.  The
conditioned state is again a pure Gaussian: the measured modes collapse to
|β⟩ and the remaining block picks up the Schur complement of Γ_A + I.  Its
reference overlap needs no anchor beyond the outcome norm: with
Π_β = |β⟩⟨β| ⊗ I and the conditioned label α' = (β, α'_B),

    r' = ⟨α', Π_βψ⟩ / ‖Π_βψ‖ = ⟨α', ψ⟩ / (πᵏp)^{1/2},

with ⟨α', ψ⟩ = e^{−‖α'‖²/2}·F_ψ(ᾱ'), ψ's Bargmann function at ᾱ', read
off ψ's triple with no covariance-pair stage (see overlaps).

Conditioning works in log space: the overlap, the norm (πᵏp)^{1/2}
and the density itself are carried as logs and exponentiated once, so the
conditioned description is exact for every outcome, and a density below
the double range reads 0.0 instead of failing.

Every function here takes a GaussianDescription or a whole BranchStack.
A stack is conditioned on one outcome in one call, its blocks, Schur
complements and overlaps stacked along its leading axes; a stack
holding one covariance is conditioned into one.  A description is the
stack with no leading axis and runs the same code.
"""

from __future__ import annotations

import numpy as np

from .core import ValidationError, hat_d, hat_d_inv
from .overlaps import (
    BranchStack,
    _bargmann,
    _dot,
    _log_coherent_overlaps,
    _log_det_positive,
    _mv,
    _same_kind,
    _scalar_or_array,
)


def _measured_blocks(stack, outcome: np.ndarray):
    """(outcome, k, (Γ_A + I)⁻¹, log p) for heterodyning the leading k modes,
    the inverse and log p stacked over the stack's leading axes."""
    n = stack.alpha.shape[-1]
    outcome = np.asarray(outcome, dtype=complex).reshape(-1)
    k = outcome.size
    if not 1 <= k <= n:
        raise ValidationError(
            f"outcome has {k} modes, state has {n}; need 1 ≤ k ≤ n")
    m = stack.gamma[..., : 2 * k, : 2 * k] + np.eye(2 * k)
    logdet = _log_det_positive(m / 2, "measured covariance block")
    minv = np.linalg.inv(m)
    diff = hat_d(outcome) - stack.d[..., : 2 * k]
    log_p = -_dot(diff, _mv(minv, diff)) - 0.5 * logdet - k * np.log(np.pi)
    return outcome, k, minv, log_p


def heterodyne_density(delta, outcome: np.ndarray):
    """Outcome density for heterodyning the leading len(outcome) modes.

    A float for a description, an array over the stack for a BranchStack.
    """
    return _scalar_or_array(np.exp(_measured_blocks(delta, outcome)[3]))


def postmeasure(delta, outcome: np.ndarray):
    """Condition the state on a heterodyne outcome for the leading modes.

    Args:
        delta: the pre-measurement description, or a BranchStack of them.
        outcome: coherent outcome labels β for modes 1..k.

    Returns:
        (post-measurement state, outcome density p): a GaussianDescription
        and a float for a description, a BranchStack and an array of
        densities over the stack for a BranchStack.  The measured modes are
        left in |β⟩; the full mode count is preserved.  The state is exact
        for every outcome; p is 0.0 when it lies below the double range.

    The new reference overlap is r' = ⟨α', Π_βψ⟩/‖Π_βψ‖ = ⟨α', ψ⟩/(πᵏp)^{1/2}
    with Π_β = |β⟩⟨β| ⊗ I and α' = (β, α'_B): each branch's Bargmann
    function at its own ᾱ', log⟨α', ψ⟩ = −½‖α'‖² + log F_ψ(ᾱ'), minus
    ½(k·log π + log p).

    Raises:
        ValidationError: the outcome has no modes or more than the state,
            or some measured block Γ_A + I is not positive definite.
        PhaseRecoveryError: a reference overlap of the input is zero.
    """
    outcome, k, minv, log_p = _measured_blocks(delta, outcome)
    n = delta.alpha.shape[-1]
    gamma = delta.gamma
    gab = gamma[..., : 2 * k, 2 * k:]
    gba_minv = np.swapaxes(gab, -1, -2) @ minv
    sa, sb = np.split(delta.d, [2 * k], axis=-1)
    schur = gamma[..., 2 * k:, 2 * k:] - gba_minv @ gab
    gamma_new = np.broadcast_to(np.eye(2 * n), gamma.shape).copy()
    gamma_new[..., 2 * k:, 2 * k:] = 0.5 * (schur + np.swapaxes(schur, -1, -2))
    db = hat_d(outcome)
    d_new = np.concatenate([np.broadcast_to(db, sa.shape), sb + _mv(gba_minv, db - sa)],
                           axis=-1)
    alpha_new = hat_d_inv(d_new)
    log_r = _log_coherent_overlaps(alpha_new, _bargmann(delta))
    r_new = np.exp(log_r - 0.5 * (k * np.log(np.pi) + log_p))
    post = BranchStack(gamma_new, alpha_new, r_new)
    return _same_kind(delta, post), _scalar_or_array(np.exp(log_p))
