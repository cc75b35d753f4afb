"""Truncated number-basis brute force for systems of at most two modes.

This is the differential-testing oracle: states are explicit amplitude
arrays over photon occupations, and every quantity (overlap, density,
moments, energy) is evaluated by direct linear algebra.  Tests certify the
covariance-based engine against this backend.  Within the package only the
`oracle-check` subcommand loads it, by a lazy import; every other path,
the closed-form superposition energy included, runs without it or scipy.

Each gate is written once, as the sparse generator G of its truncated
quadratures on the state's full truncated space, and applied as one
sparse exponential-times-vector product exp(G)·ψ.

States are built from a description without any gate compilation: a pure
Gaussian state is the unique (up to phase) solution of n linear
annihilation relations, which translate into a stable occupation-basis
recurrence seeded at the all-zero occupation; a two-mode grid fills row by
row, each amplitude once.  The global phase is then fixed by matching the
description's reference overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .core import (
    Beamsplitter,
    Displacement,
    GaussianDescription,
    Gate,
    NumericError,
    PhaseShift,
    Squeeze,
    SQRT2,
    ValidationError,
    hat_d,
)

#: Default bound on the occupation-tail mass of any oracle state.
TAIL_TOL = 1e-10

#: Default cutoff caps (max occupation per mode) keyed by mode count.
CUTOFF_CAP = {1: 256, 2: 128}

# The beamsplitter generator sign is fixed so that the induced map on
# coherent labels is α_j → α_j·cos ω - i·α_k·sin ω, matching the label
# update used by the covariance engine.
_BS_GENERATOR_SIGN = -1.0


class TailMassError(NumericError):
    """Occupation cutoff too small: the state leaks past the retained block."""


@dataclass(frozen=True, eq=False)
class FockVector:
    """Amplitudes over photon occupations, one array axis per mode."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        if a.ndim not in (1, 2):
            raise ValidationError(f"oracle supports 1 or 2 modes, got {a.ndim} axes")
        a.flags.writeable = False
        object.__setattr__(self, "amps", a)

    @property
    def n(self) -> int:
        return self.amps.ndim

    @property
    def dims(self) -> tuple:
        return self.amps.shape


def tail_mass(amps: np.ndarray) -> float:
    """Probability weight sitting in the top 10% of occupations of any mode."""
    amps = np.asarray(amps)
    mask = np.zeros(amps.shape, dtype=bool)
    for axis, size in enumerate(amps.shape):
        start = int(np.ceil(0.9 * (size - 1)))
        index = [slice(None)] * amps.ndim
        index[axis] = slice(start, None)
        mask[tuple(index)] = True
    return float(np.sum(np.abs(amps[mask]) ** 2))


def check_tail(amps: np.ndarray, tail_tol: float = TAIL_TOL) -> None:
    mass = tail_mass(amps)
    if mass > tail_tol:
        raise TailMassError(
            f"tail mass {mass:.3e} exceeds {tail_tol:.3e} at dims {np.shape(amps)}")


def _quadratures(dim: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Sparse truncated (Q, P) of one mode."""
    a = sp.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csr", dtype=complex)
    return (a + a.T) / SQRT2, (a - a.T) / (1j * SQRT2)


def quadrature_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated (Q, P) matrices with [Q, P] = i away from the cutoff."""
    q, p = _quadratures(dim)
    return q.toarray(), p.toarray()

def fock_vacuum(dims: Sequence[int]) -> FockVector:
    amps = np.zeros(tuple(d + 1 for d in dims), dtype=complex)
    amps[(0,) * len(dims)] = 1.0
    return FockVector(amps)


def fock_coherent(alpha: complex, n_max: int, tail_tol: float = TAIL_TOL) -> FockVector:
    """Single-mode coherent state amplitudes e^{-|α|²/2}·αʲ/√j!."""
    j = np.arange(n_max + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, n_max + 1)))))
    alpha = complex(alpha)
    if alpha == 0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
    else:
        amps = np.exp(-0.5 * abs(alpha) ** 2 + j * np.log(complex(alpha)) - 0.5 * log_fact)
    check_tail(amps, tail_tol)
    return FockVector(amps)


def fock_squeezed_vacuum(z: float, n_max: int, tail_tol: float = TAIL_TOL) -> FockVector:
    """Squeezed vacuum amplitudes (1/√cosh z)·(-tanh z)ᵏ·√((2k)!)/(2ᵏk!) at 2k."""
    amps = np.zeros(n_max + 1, dtype=complex)
    k_max = n_max // 2
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, n_max + 1)))))
    for k in range(k_max + 1):
        log_mag = 0.5 * log_fact[2 * k] - k * np.log(2.0) - log_fact[k]
        amps[2 * k] = (-np.tanh(z)) ** k * np.exp(log_mag)
    amps /= np.sqrt(np.cosh(z))
    check_tail(amps, tail_tol)
    return FockVector(amps)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def _gate_modes(g: Gate) -> int:
    if isinstance(g, Displacement):
        return g.alpha.size
    if isinstance(g, Beamsplitter):
        return max(g.mode1, g.mode2)
    return g.mode


def _generator(g: Gate, dims: tuple) -> sp.csr_matrix:
    """Sparse anti-Hermitian generator G of a gate on the full truncated
    space of the given per-mode dimensions, with U = exp(G).

    Occupations are flattened in row-major order (mode-1 index major).
    Q₁Q₂ + P₁P₂ is symmetric under swapping the modes, so the order of
    (mode1, mode2) in a beamsplitter does not matter.
    """
    n = len(dims)

    def quadratures(mode: int):
        if not 1 <= mode <= n:
            raise ValidationError(f"gate mode {mode} out of range for n={n}")
        ops = _quadratures(dims[mode - 1])
        if n == 1:
            return ops
        eye = sp.identity(dims[2 - mode], format="csr")
        return tuple(sp.kron(op, eye, "csr") if mode == 1 else sp.kron(eye, op, "csr")
                     for op in ops)

    if isinstance(g, Displacement):
        if g.alpha.size != n:
            raise ValidationError("displacement label does not match mode count")
        return sum(1j * SQRT2 * (aj.real * p - aj.imag * q)
                   for aj, (q, p) in zip(g.alpha, map(quadratures, range(1, n + 1))))
    if isinstance(g, Beamsplitter):
        if n != 2:
            raise ValidationError("beamsplitter needs two modes")
        (q1, p1), (q2, p2) = quadratures(g.mode1), quadratures(g.mode2)
        return _BS_GENERATOR_SIGN * 1j * g.omega * (q1 @ q2 + p1 @ p2)
    q, p = quadratures(g.mode)
    if isinstance(g, PhaseShift):
        return -0.5j * g.phi * (q @ q + p @ p - sp.identity(q.shape[0], format="csr"))
    if isinstance(g, Squeeze):
        return 0.5j * g.z * (q @ p + p @ q)
    raise ValidationError(f"unknown gate: {g!r}")


def fock_gate(g: Gate, n_max: int, n: Optional[int] = None) -> np.ndarray:
    """Dense unitary exp(G) of a gate on the truncated n-mode space.

    G is the gate's generator, the same one fock_apply_gate exponentiates
    against a vector.  Feasible sizes: any n_max ≤ 256 for one mode; keep
    n_max small (≤ 31) for two modes, where the matrix lives on the
    (n_max+1)²-dimensional product space.  Occupations are flattened in
    row-major order (mode-1 index major).
    """
    n = n or _gate_modes(g)
    if n not in (1, 2):
        raise ValidationError(f"oracle supports 1 or 2 modes, got n={n}")
    return expm(_generator(g, (n_max + 1,) * n).toarray())


def _apply_along_axis(amps: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, amps, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def fock_apply_gate(state: FockVector, g: Gate) -> FockVector:
    """Apply a gate to an oracle state without forming the full unitary.

    Every gate kind is one sparse exponential-times-vector product
    exp(G)·ψ of its generator on the state's full truncated space
    (Al-Mohy & Higham's method, scipy's expm_multiply).
    """
    out = expm_multiply(_generator(g, state.dims), state.amps.reshape(-1))
    return FockVector(out.reshape(state.dims))


# ---------------------------------------------------------------------------
# States from descriptions
# ---------------------------------------------------------------------------

def _bogoliubov_rows(delta: GaussianDescription) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation relations (μ·a + ν·a† - c)ψ = 0 of the described state.

    The centered state is annihilated by the rows of E·Γ^{-1/2}·R, where E
    maps quadratures to mode operators (a_j = (Q_j + iP_j)/√2); displacing
    by the center adds the constant c = E·Γ^{-1/2}·d̂(α).
    """
    n = delta.n
    w, v = np.linalg.eigh(delta.gamma)
    if w[0] <= 0:
        raise ValidationError("covariance matrix is not positive definite")
    gamma_inv_sqrt = (v / np.sqrt(w)) @ v.T
    e_rows = np.zeros((n, 2 * n), dtype=complex)
    for j in range(n):
        e_rows[j, 2 * j] = 1.0 / SQRT2
        e_rows[j, 2 * j + 1] = 1j / SQRT2
    f = e_rows @ gamma_inv_sqrt
    mu = (f[:, 0::2] - 1j * f[:, 1::2]) / SQRT2
    nu = (f[:, 0::2] + 1j * f[:, 1::2]) / SQRT2
    const = f @ hat_d(delta.alpha)
    return mu, nu, const


def _recurrence_1mode(mu: complex, nu: complex, c: complex, dim: int) -> np.ndarray:
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    roots = np.sqrt(np.arange(dim, dtype=float))
    for m in range(dim - 1):
        prev = amps[m - 1] if m >= 1 else 0.0
        amps[m + 1] = (c * amps[m] - nu * roots[m] * prev) / (mu * roots[m + 1])
    return amps


def _recurrence_2mode(mu: np.ndarray, nu: np.ndarray, c: np.ndarray, dims: tuple) -> np.ndarray:
    """Fill the occupation grid row by row.

    Solved for the annihilation parts, the two relations read
    (a₁ψ, a₂ψ) = μ⁻¹(c·ψ - ν·(a₁†ψ, a₂†ψ)).  The first component gives row
    m₂ = 0 from the origin along m₁; the second gives row m₂+1 from rows m₂
    and m₂-1 for all m₁ at once.  Each amplitude is computed once.
    """
    n1, n2 = dims
    if abs(np.linalg.det(mu)) < 1e-12:
        raise NumericError("degenerate annihilation relations")
    c, nu = np.linalg.solve(mu, c), np.linalg.solve(mu, nu)
    amps = np.zeros((n1 + 1, n2 + 1), dtype=complex)
    amps[:, 0] = _recurrence_1mode(1.0, nu[0, 0], c[0], n1 + 1)
    r1 = np.sqrt(np.arange(1.0, n1 + 1))
    for m in range(n2):
        row = c[1] * amps[:, m]
        row[1:] -= nu[1, 0] * r1 * amps[:-1, m]
        if m:
            row -= nu[1, 1] * np.sqrt(m) * amps[:, m - 1]
        amps[:, m + 1] = row / np.sqrt(m + 1)
    return amps


def _auto_initial_cutoffs(delta: GaussianDescription) -> list:
    cutoffs = []
    for j in range(delta.n):
        block = delta.gamma[2 * j: 2 * j + 2, 2 * j: 2 * j + 2]
        mean_photon = max(0.0, 0.25 * np.trace(block) - 0.5 + abs(delta.alpha[j]) ** 2)
        cutoffs.append(int(16 + 10 * mean_photon + 12 * np.sqrt(mean_photon + 1.0)))
    return cutoffs


def fock_from_description(
    delta: GaussianDescription,
    n_max: Optional[int] = None,
    tail_tol: float = TAIL_TOL,
    cap: Optional[int] = None,
) -> FockVector:
    """Amplitudes of the described state, phases included.

    The occupation recurrence produces the state up to a global factor; the
    factor is then fixed by matching the reference overlap ⟨α, ψ⟩ = r.

    Args:
        delta: description with n ≤ 2.
        n_max: per-mode cutoff; None selects one automatically and retries
            with doubled cutoffs until the tail test passes or the cap is hit.
        tail_tol: bound on the occupation-tail mass.
        cap: per-mode cutoff ceiling (defaults: 256 one mode, 128 two modes).

    Raises:
        TailMassError: no cutoff within the cap meets tail_tol.
    """
    n = delta.n
    if n not in (1, 2):
        raise ValidationError(f"oracle supports 1 or 2 modes, got n={n}")
    cap = cap or CUTOFF_CAP[n]
    mu, nu, const = _bogoliubov_rows(delta)
    cutoffs = [min(n_max, cap)] * n if n_max else [min(c, cap) for c in _auto_initial_cutoffs(delta)]
    while True:
        if n == 1:
            amps = _recurrence_1mode(mu[0, 0], nu[0, 0], const[0], cutoffs[0] + 1)
        else:
            amps = _recurrence_2mode(mu, nu, const, tuple(cutoffs))
        amps = amps / np.linalg.norm(amps)
        mass = tail_mass(amps)
        if mass <= tail_tol:
            break
        if all(c >= cap for c in cutoffs):
            raise TailMassError(
                f"tail mass {mass:.3e} exceeds {tail_tol:.3e} at the cutoff cap {cap}")
        cutoffs = [min(2 * c, cap) for c in cutoffs]
    # fix the global phase (and absorb the truncation-level magnitude slack)
    ref = _coherent_bra_contract(amps, delta.alpha)
    if abs(ref) < 1e-12:
        raise NumericError("reference overlap too small to fix the phase")
    amps = amps * (delta.r / ref)
    return FockVector(amps)


def _coherent_bra_contract(amps: np.ndarray, beta: np.ndarray, k: Optional[int] = None) -> np.ndarray:
    """Contract ⟨β| onto the leading k modes; full contraction by default."""
    beta = np.asarray(beta, dtype=complex).reshape(-1)
    k = beta.size if k is None else k
    out = amps
    for bj in beta[:k]:
        bra = np.conj(fock_coherent(bj, out.shape[0] - 1, tail_tol=np.inf).amps)
        out = np.tensordot(bra, out, axes=([0], [0]))
    return out


# ---------------------------------------------------------------------------
# Inner products, measurement, moments
# ---------------------------------------------------------------------------

def _pad_to_common(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if a.shape == b.shape:
        return a, b
    shape = tuple(max(sa, sb) for sa, sb in zip(a.shape, b.shape))

    def pad(x):
        out = np.zeros(shape, dtype=complex)
        out[tuple(slice(0, s) for s in x.shape)] = x
        return out

    return pad(a), pad(b)


def fock_overlap(v: FockVector, w: FockVector) -> complex:
    """⟨v, w⟩ (antilinear in the first argument); cutoffs may differ."""
    if v.n != w.n:
        raise ValidationError("mode counts differ")
    a, b = _pad_to_common(v.amps, w.amps)
    return complex(np.vdot(a, b))


def fock_norm(v: FockVector) -> float:
    return float(np.linalg.norm(v.amps))


def fock_project(state: FockVector, beta: np.ndarray) -> tuple[np.ndarray, float]:
    """Project the leading len(beta) modes onto the coherent outcome |β⟩.

    Returns:
        (conditional amplitudes on the unmeasured modes, ‖Π_β ψ‖²).
        The conditional array is unnormalized (its squared norm is the
        second element); it is 0-dimensional when every mode is measured.
    """
    beta = np.asarray(beta, dtype=complex).reshape(-1)
    if beta.size > state.n:
        raise ValidationError("more outcomes than modes")
    cond = _coherent_bra_contract(state.amps, beta)
    norm_sq = float(np.sum(np.abs(cond) ** 2))
    return cond, norm_sq


def fock_heterodyne_density(state: FockVector, beta: np.ndarray) -> float:
    """Outcome density ‖Π_β ψ‖² / πᵏ for measuring the leading k modes."""
    beta = np.asarray(beta, dtype=complex).reshape(-1)
    _, norm_sq = fock_project(state, beta)
    return norm_sq / np.pi ** beta.size


def fock_moments(state: FockVector) -> tuple[np.ndarray, np.ndarray]:
    """First moments and covariance (d, Γ) of an oracle state.

    Γ is normalized so the vacuum gives the identity, matching the
    covariance convention of the production engine.
    """
    amps = state.amps / np.linalg.norm(state.amps)
    n = state.n
    quad_vecs = []
    for j in range(n):
        q, p = quadrature_matrices(state.dims[j])
        quad_vecs.append(_apply_along_axis(amps, q, j).reshape(-1))
        quad_vecs.append(_apply_along_axis(amps, p, j).reshape(-1))
    w = np.array(quad_vecs)
    flat = amps.reshape(-1)
    d = np.real(w @ np.conj(flat))
    second = np.real(np.conj(w) @ w.T)
    second = 0.5 * (second + second.T)
    gamma = 2.0 * (second - np.outer(d, d))
    return d, gamma


def fock_mean_photons(state: FockVector) -> np.ndarray:
    """Mean photon number of each mode."""
    prob = np.abs(state.amps) ** 2
    prob = prob / prob.sum()
    out = []
    for j in range(state.n):
        occ = np.arange(state.dims[j], dtype=float)
        axes = tuple(ax for ax in range(state.n) if ax != j)
        marginal = prob.sum(axis=axes) if axes else prob
        out.append(float(occ @ marginal))
    return np.array(out)


def fock_energy(state: FockVector) -> float:
    """⟨H⟩ = 2·Σ_j⟨n̂_j⟩ + 2n on the truncated space."""
    return 2.0 * float(np.sum(fock_mean_photons(state))) + 2.0 * state.n


def fock_from_superposition(terms, n_max: Optional[int] = None,
                            tail_tol: float = TAIL_TOL,
                            cap: Optional[int] = None) -> FockVector:
    """Σ c_j · ψ(Δ_j) as one amplitude array (cutoffs unified by padding)."""
    built = [(c, fock_from_description(d, n_max=n_max, tail_tol=tail_tol, cap=cap))
             for c, d in terms]
    shape = tuple(max(f.amps.shape[ax] for _, f in built) for ax in range(built[0][1].n))
    total = np.zeros(shape, dtype=complex)
    for c, f in built:
        total[tuple(slice(0, s) for s in f.amps.shape)] += c * f.amps
    return FockVector(total)
