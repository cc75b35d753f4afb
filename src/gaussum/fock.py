"""Truncated number-basis brute force for systems of at most two modes.

This is the differential-testing oracle: states are explicit amplitude
arrays over photon occupations, gates are matrix exponentials of truncated
quadrature generators, and every quantity (overlap, density, moments,
energy) is evaluated by direct linear algebra.  Tests certify the
covariance-based engine against this backend.  Within the package only the
`oracle-check` subcommand loads it, by a lazy import; every other path,
the closed-form superposition energy included, runs without it or scipy.

States are built from a description without any gate compilation: a pure
Gaussian state is the unique (up to phase) solution of n linear
annihilation relations, which translate into a stable occupation-basis
recurrence seeded at the all-zero occupation.  The global phase is then
fixed by matching the description's reference overlap.
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


def _annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def quadrature_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated (Q, P) matrices with [Q, P] = i away from the cutoff."""
    a = _annihilation(dim)
    q = (a + a.T) / SQRT2
    p = (a - a.T) / (1j * SQRT2)
    return q.astype(complex), p

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


def _single_mode_gate_matrix(g: Gate, dim: int) -> np.ndarray:
    """Dense unitary of a single-mode gate on one truncated mode."""
    q, p = quadrature_matrices(dim)
    if isinstance(g, PhaseShift):
        gen = -0.5j * g.phi * (q @ q + p @ p - np.eye(dim))
    elif isinstance(g, Squeeze):
        gen = 0.5j * g.z * (q @ p + p @ q)
    else:
        raise ValidationError(f"not a single-mode gate: {g!r}")
    return expm(gen)


def _displacement_matrix(alpha_j: complex, dim: int) -> np.ndarray:
    """Dense unitary of e^{i·d̂(α)ᵀΩR} on one truncated mode."""
    q, p = quadrature_matrices(dim)
    x, y = alpha_j.real, alpha_j.imag
    gen = 1j * SQRT2 * (x * p - y * q)
    return expm(gen)


def _beamsplitter_generator(g: Beamsplitter, dims: tuple) -> sp.spmatrix:
    """Sparse generator of the beamsplitter on the full two-mode space.

    Q₁Q₂ + P₁P₂ is symmetric under swapping the modes, so the order of
    (mode1, mode2) in the gate does not matter.
    """
    q1, p1 = quadrature_matrices(dims[0])
    q2, p2 = quadrature_matrices(dims[1])
    qq = sp.kron(sp.csr_matrix(q1), sp.csr_matrix(q2), format="csr")
    pp = sp.kron(sp.csr_matrix(p1), sp.csr_matrix(p2), format="csr")
    return _BS_GENERATOR_SIGN * 1j * g.omega * (qq + pp)


def fock_gate(g: Gate, n_max: int, n: Optional[int] = None) -> np.ndarray:
    """Dense unitary of a gate on the truncated n-mode space.

    Feasible sizes: any n_max ≤ 256 for one mode; keep n_max small (≤ 31)
    for two modes, where the matrix lives on the (n_max+1)²-dimensional
    product space.  Occupations are flattened in row-major order
    (mode-1 index major).
    """
    n = n or _gate_modes(g)
    if n not in (1, 2):
        raise ValidationError(f"oracle supports 1 or 2 modes, got n={n}")
    dim = n_max + 1
    q, p = quadrature_matrices(dim)
    eye = np.eye(dim)

    def embed(op: np.ndarray, mode: int) -> np.ndarray:
        if n == 1:
            return op
        return np.kron(op, eye) if mode == 1 else np.kron(eye, op)

    if isinstance(g, Displacement):
        gen = np.zeros((dim ** n, dim ** n), dtype=complex)
        for j, aj in enumerate(g.alpha, start=1):
            gen += embed(1j * SQRT2 * (aj.real * p - aj.imag * q), j)
        return expm(gen)
    if isinstance(g, Beamsplitter):
        if n != 2:
            raise ValidationError("beamsplitter needs two modes")
        qj, pj = embed(q, g.mode1), embed(p, g.mode1)
        qk, pk = embed(q, g.mode2), embed(p, g.mode2)
        gen = _BS_GENERATOR_SIGN * 1j * g.omega * (qj @ qk + pj @ pk)
        return expm(gen)
    return embed(_single_mode_gate_matrix(g, dim), getattr(g, "mode", 1))


def _apply_along_axis(amps: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, amps, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def fock_apply_gate(state: FockVector, g: Gate) -> FockVector:
    """Apply a gate to an oracle state without forming the full unitary.

    Single-mode gates act by a dense per-mode matrix; the beamsplitter acts
    through a sparse-generator exponential-times-vector product.
    """
    amps = state.amps
    if isinstance(g, Displacement):
        if g.alpha.size != state.n:
            raise ValidationError("displacement label does not match mode count")
        for j, aj in enumerate(g.alpha):
            if aj != 0:
                amps = _apply_along_axis(amps, _displacement_matrix(aj, state.dims[j]), j)
        return FockVector(amps)
    if isinstance(g, Beamsplitter):
        if state.n != 2:
            raise ValidationError("beamsplitter needs a two-mode state")
        gen = _beamsplitter_generator(g, state.dims)
        out = expm_multiply(gen, amps.reshape(-1))
        return FockVector(out.reshape(state.dims))
    axis = g.mode - 1
    if not 0 <= axis < state.n:
        raise ValidationError(f"gate mode {g.mode} out of range for n={state.n}")
    mat = _single_mode_gate_matrix(g, state.dims[axis])
    return FockVector(_apply_along_axis(amps, mat, axis))


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
    """Fill the occupation grid by anti-diagonals.

    At each grid point the two annihilation relations are a 2×2 linear
    system for the east (m₁+1) and north (m₂+1) neighbors given the west
    and south ones; interior points are produced twice and averaged.  A
    one-cell rim buffers the walk so every kept point comes from a full
    2×2 solve.
    """
    n1, n2 = dims
    buf = np.zeros((n1 + 2, n2 + 2), dtype=complex)
    buf[0, 0] = 1.0
    det_mu = mu[0, 0] * mu[1, 1] - mu[0, 1] * mu[1, 0]
    if abs(det_mu) < 1e-12:
        raise NumericError("degenerate annihilation relations")
    r1 = np.sqrt(np.arange(n1 + 2, dtype=float))
    r2 = np.sqrt(np.arange(n2 + 2, dtype=float))
    for t in range(n1 + n2 + 1):
        i = np.arange(max(0, t - n2), min(t, n1) + 1)
        j = t - i
        cur = buf[i, j]
        west = np.where(i >= 1, buf[i - 1, j], 0.0)
        south = np.where(j >= 1, buf[i, j - 1], 0.0)
        b1 = c[0] * cur - nu[0, 0] * r1[i] * west - nu[0, 1] * r2[j] * south
        b2 = c[1] * cur - nu[1, 0] * r1[i] * west - nu[1, 1] * r2[j] * south
        scale_e = r1[i + 1]
        scale_n = r2[j + 1]
        east = (mu[1, 1] * b1 - mu[0, 1] * b2) / (det_mu * scale_e)
        north = (-mu[1, 0] * b1 + mu[0, 0] * b2) / (det_mu * scale_n)
        # scatter with averaging: (i+1, j) gets an east value, (i, j+1) a
        # north value; interior points of the next diagonal receive both.
        acc = np.zeros(i.size + 1, dtype=complex)
        cnt = np.zeros(i.size + 1)
        # targets on diagonal t+1, indexed by their m1 coordinate
        lo = i[0]
        acc[i - lo + 1] += east
        cnt[i - lo + 1] += 1.0
        acc[i - lo] += north
        cnt[i - lo] += 1.0
        ti = np.arange(lo, lo + i.size + 1)
        tj = (t + 1) - ti
        keep = (ti <= n1 + 1) & (tj >= 0) & (tj <= n2 + 1) & (cnt > 0)
        buf[ti[keep], tj[keep]] = acc[keep] / cnt[keep]
    return buf[: n1 + 1, : n2 + 1]


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
