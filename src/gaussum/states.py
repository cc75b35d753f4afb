"""Library of named superposition states used in examples and tests.

All constructors return normalized superpositions; branches are pure one-
or two-mode Gaussian descriptions in the positive-real reference-phase
gauge except where a relative factor of i is part of the construction.
"""

from __future__ import annotations

import numpy as np

from .core import (
    GaussianDescription,
    ValidationError,
    coherent_description,
    vacuum_description,
)
from .evolution import apply_displacement
from .superposition import GaussianSuperposition, exact_norm


def _squeezed_description(z: float) -> GaussianDescription:
    """Centered squeezed state S(z)|0⟩; z > 0 narrows the position quadrature.

    The reference overlap of the centered squeezed state is 1/√cosh z.
    """
    gamma = np.diag([np.exp(-2.0 * z), np.exp(2.0 * z)])
    return GaussianDescription(
        gamma, np.zeros(1, dtype=complex), 1.0 / np.sqrt(np.cosh(z)))


def cat_state(alpha: complex, parity: str = "even") -> GaussianSuperposition:
    """Normalized cat state N±·(|α⟩ ± |-α⟩) on one mode.

    The closed-form normalization is N± = (2(1 ± e^{-2|α|²}))^{-1/2}, from
    the coherent-pair overlap ⟨α, -α⟩ = e^{-2|α|²}.

    Args:
        alpha: coherent amplitude of the two branches.
        parity: "even" (or +1) for the + sign, "odd" (or -1) for the - sign.

    Raises:
        ValidationError: odd parity with α = 0, which is the zero vector.
    """
    if parity in ("even", 1):
        sign = 1.0
    elif parity in ("odd", -1):
        sign = -1.0
    else:
        raise ValidationError(f"parity must be 'even' or 'odd', got {parity!r}")
    alpha = complex(alpha)
    if sign < 0 and alpha == 0:
        raise ValidationError("odd cat at α=0 is the zero vector")
    norm_const = 1.0 / np.sqrt(2.0 * (1.0 + sign * np.exp(-2.0 * abs(alpha) ** 2)))
    return GaussianSuperposition(
        np.array([norm_const, sign * norm_const], dtype=complex),
        (coherent_description([alpha]), coherent_description([-alpha])),
    )


def gkp_comb(z: float, m: int, step: float, envelope_width: float) -> GaussianSuperposition:
    """Normalized finite comb of 2m+1 displaced squeezed states on one mode.

    Tooth t ∈ {-m, …, m} is the squeezed vacuum S(z)|0⟩ displaced by the
    coherent label t·step and weighted by the index-space Gaussian envelope
    exp(-t²/(2·envelope_width²)); the superposition is renormalized at the
    end.  m = 0 degenerates to a single squeezed vacuum.  The envelope
    shape is a modeling choice of this library, not canon.

    Args:
        z: squeeze log-factor of every tooth, positive (narrows position).
        m: comb half-width; the superposition has χ = 2m+1 branches.
        step: coherent-label spacing of neighboring teeth.
        envelope_width: width of the index-space Gaussian envelope.
    """
    if m != int(m) or m < 0:
        raise ValidationError(f"comb half-width must be an integer ≥ 0, got {m!r}")
    if z <= 0:
        raise ValidationError(f"tooth squeeze must be positive, got {z}")
    if envelope_width <= 0:
        raise ValidationError("envelope width must be positive")
    indices = np.arange(-int(m), int(m) + 1)
    coeffs = np.exp(-indices.astype(float) ** 2
                    / (2.0 * envelope_width ** 2)).astype(complex)
    tooth = _squeezed_description(z)
    descriptions = tuple(apply_displacement(tooth, [t * step]) for t in indices)
    norm = exact_norm(GaussianSuperposition(coeffs, descriptions))
    return GaussianSuperposition(coeffs / norm, descriptions)


def appendix_d_state(p: float, r: float, z: float) -> GaussianSuperposition:
    """Two-mode, two-branch state √(1-p)·|0,0⟩ + i·√p·|r⟩⊗S(z)|0⟩.

    The factor i makes the real part of the branch overlap vanish, so the
    state is normalized for every p.  A small vacuum admixture of a bright
    coherent-times-squeezed product: measuring mode 1 near the coherent
    amplitude r makes the vacuum branch's weight negligible for large r,
    exercising the branch-dropping rule of post-measurement superpositions.

    Args:
        p: weight of the bright branch, in [0, 1]; the boundary values
            return single-branch states.
        r: coherent amplitude of mode 1 in the bright branch, real.
        z: squeeze log-factor of mode 2 in the bright branch, real.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"branch weight must be in [0, 1], got {p}")
    gamma_bright = np.eye(4)
    gamma_bright[2, 2] = np.exp(-2.0 * z)
    gamma_bright[3, 3] = np.exp(2.0 * z)
    bright = GaussianDescription(
        gamma_bright, np.array([r, 0.0], dtype=complex), 1.0 / np.sqrt(np.cosh(z)))
    if p == 0.0:
        return GaussianSuperposition(np.array([1.0], dtype=complex),
                                     (vacuum_description(2),))
    if p == 1.0:
        return GaussianSuperposition(np.array([1.0j], dtype=complex), (bright,))
    return GaussianSuperposition(
        np.array([np.sqrt(1.0 - p), 1.0j * np.sqrt(p)], dtype=complex),
        (vacuum_description(2), bright),
    )
