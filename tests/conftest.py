"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from gaussum.core import GaussianDescription, random_pure_description
from gaussum.superposition import GaussianSuperposition, exact_norm


def complex_in_disc(rng: np.random.Generator, radius: float) -> complex:
    """One complex number uniform (Lebesgue) in the disc |z| ≤ radius."""
    r = radius * np.sqrt(rng.random())
    phi = 2.0 * np.pi * rng.random()
    return r * np.exp(1j * phi)


def random_superposition(
    seed,
    n: int = 1,
    chi: int = 2,
    z_max: float = 1.0,
    alpha_max: float = 1.0,
    normalize: bool = False,
) -> GaussianSuperposition:
    """Random superposition with seeded coefficients and pure branches."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    coeffs = (rng.standard_normal(chi) + 1j * rng.standard_normal(chi)) / np.sqrt(chi)
    descriptions = tuple(
        random_pure_description(n, z_max, rng, alpha_max=alpha_max)
        for _ in range(chi))
    psi = GaussianSuperposition(coeffs, descriptions)
    if normalize:
        psi = GaussianSuperposition(coeffs / exact_norm(psi), descriptions)
    return psi


def phased_descriptions(seed, n: int, chi: int, z_max: float = 1.0,
                        alpha_max: float = 1.0) -> tuple:
    """χ random squeezed descriptions whose reference overlaps r carry
    random phases, so r is complex rather than positive real."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    out = []
    for _ in range(chi):
        d = random_pure_description(n, z_max, rng, alpha_max=alpha_max)
        out.append(GaussianDescription(
            d.gamma, d.alpha, d.r * np.exp(1j * rng.uniform(-np.pi, np.pi))))
    return tuple(out)


def assert_rel_close(got, want, rel: float, what: str = "") -> None:
    """max |got - want| ≤ rel · max |want| over the arrays."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, f"{what}: shape {got.shape} vs {want.shape}"
    err = float(np.max(np.abs(got - want)))
    scale = float(np.max(np.abs(want)))
    assert err <= rel * scale, f"{what}: error {err:.3e} against scale {scale:.3e}"
