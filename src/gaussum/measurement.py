"""Heterodyne measurement of the leading modes of a Gaussian description.

Measuring modes 1..k of an n-mode pure Gaussian state against the coherent
outcome |β⟩ has the Gaussian outcome density

    p(β) = exp(-(d̂(β) - s_A)ᵀ (Γ_A + I)⁻¹ (d̂(β) - s_A)) / (πᵏ √det((Γ_A+I)/2))

where Γ_A, s_A are the measured block of the covariance and center.  The
conditioned state is again a pure Gaussian: the measured modes collapse to
|β⟩ and the remaining block picks up the Schur complement of Γ_A + I.  Its
reference phase is recovered through the anchored triple-overlap identity,
using the original state and the outcome's coherent state as anchors.

Conditioning works in log space: the triple product, the anchor
(πᵏp)^{1/2} and the density itself are carried as logs and exponentiated
once, so the conditioned description is exact for every outcome, and a
density below the double range reads 0.0 instead of failing.
"""

from __future__ import annotations

import numpy as np

from .core import GaussianDescription, ValidationError, hat_d, hat_d_inv
from .overlaps import _log_triple_product


def _measured_blocks(delta: GaussianDescription, outcome: np.ndarray):
    """(outcome, k, (Γ_A + I)⁻¹, log p) for heterodyning the leading k modes."""
    outcome = np.asarray(outcome, dtype=complex).reshape(-1)
    k = outcome.size
    if not 1 <= k <= delta.n:
        raise ValidationError(
            f"outcome has {k} modes, state has {delta.n}; need 1 ≤ k ≤ n")
    m = delta.gamma[: 2 * k, : 2 * k] + np.eye(2 * k)
    minv = np.linalg.inv(m)
    sign, logdet = np.linalg.slogdet(m / 2)
    if sign <= 0:
        raise ValidationError("measured covariance block is not positive definite")
    diff = hat_d(outcome) - delta.d[: 2 * k]
    log_p = -(diff @ minv @ diff) - 0.5 * logdet - k * np.log(np.pi)
    return outcome, k, minv, float(log_p)


def heterodyne_density(delta: GaussianDescription, outcome: np.ndarray) -> float:
    """Outcome density for heterodyning the leading len(outcome) modes."""
    return float(np.exp(_measured_blocks(delta, outcome)[3]))


def postmeasure(
    delta: GaussianDescription, outcome: np.ndarray
) -> tuple[GaussianDescription, float]:
    """Condition the state on a heterodyne outcome for the leading modes.

    Args:
        delta: the pre-measurement description.
        outcome: coherent outcome labels β for modes 1..k.

    Returns:
        (post-measurement description, outcome density p).  The measured
        modes are left in |β⟩; the full mode count is preserved.  The
        description is exact for every outcome; p is 0.0 when it lies
        below the double range.
    """
    outcome, k, minv, log_p = _measured_blocks(delta, outcome)
    n = delta.n
    gab = delta.gamma[: 2 * k, 2 * k:]
    gb = delta.gamma[2 * k:, 2 * k:]
    sa, sb = delta.d[: 2 * k], delta.d[2 * k:]
    gamma_new = np.eye(2 * n)
    schur = gb - gab.T @ minv @ gab
    gamma_new[2 * k:, 2 * k:] = 0.5 * (schur + schur.T)
    db = hat_d(outcome)
    d_new = np.concatenate([db, sb + gab.T @ minv @ (db - sa)])
    alpha_new = hat_d_inv(d_new)
    # anchors: u = ⟨α', D(α - α')ψ⟩ via the Weyl phase on r, and
    # v = ⟨ψ, ψ'⟩ = ‖Π_β ψ‖ = (πᵏ p)^{1/2} since Π_β is a projector;
    # r' = conj(T/(u·v)), divided in log space
    log_u = 1j * np.imag(alpha_new @ np.conj(delta.alpha)) + np.log(complex(delta.r))
    log_t = _log_triple_product(
        delta.gamma, delta.d,
        gamma_new, d_new,
        np.eye(2 * n), d_new,
        delta.alpha - alpha_new)
    r_new = np.conj(np.exp(log_t - log_u - 0.5 * (k * np.log(np.pi) + log_p)))
    return GaussianDescription(gamma_new, alpha_new, complex(r_new)), float(np.exp(log_p))
