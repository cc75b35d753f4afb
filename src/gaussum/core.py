"""Phase-space primitives for pure Gaussian states.

Conventions shared by every module in this package:

- An n-mode system has 2n real quadratures ordered R = (Q₁, P₁, …, Qₙ, Pₙ).
- The symplectic form Ω is block diagonal with n copies of [[0, 1], [-1, 0]].
- Covariance matrices are dimensionless with vacuum Γ = I; the per-quadrature
  variance of a state is Γ_mm / 2.
- A coherent state |α⟩ with label α ∈ ℂⁿ is the displaced vacuum centered at
  d̂(α) = √2·(Re α₁, Im α₁, …, Re αₙ, Im αₙ).
- A pure Gaussian state ψ is described by the triple Δ = (Γ, α, r): covariance
  matrix, coherent label of the center, and the reference overlap r = ⟨α, ψ⟩
  which pins the global phase of ψ.  The magnitude of r is determined by Γ
  alone: |r|² = 2ⁿ / √det(I + Γ).
- Energy means ⟨H⟩ for H = Σ_j (Q_j² + P_j² + 1), which is twice the mean
  photon number plus 2n; the n-mode vacuum has energy 2n.

Mode indices in public signatures are 1-based; they are converted to row
indices at this module's boundary and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

SQRT2 = np.sqrt(2.0)

#: Default tolerance for validity / purity / reference-overlap checks.
DEFAULT_TOL = 1e-8


class ValidationError(ValueError):
    """Malformed input: bad shapes, bad mode indices, inconsistent data."""


class NumericError(ArithmeticError):
    """A numerically ill-posed step (zero overlap, lost branch, failed check)."""


class BranchPathError(NumericError):
    """A determinant square root has no tracked branch: the real part of
    the matrix is not positive definite."""


class PhaseRecoveryError(NumericError):
    """A reference or anchor overlap is zero, so no phase can be recovered."""


# ---------------------------------------------------------------------------
# Symplectic structure and displacement encoding
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n×2n symplectic form Ω = ⊕ₙ [[0, 1], [-1, 0]].

    The result is cached per n and read-only; copy it before writing.
    """
    if n < 1:
        raise ValidationError(f"mode count must be >= 1, got {n}")
    om = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    om.flags.writeable = False
    return om


def hat_d(alpha: np.ndarray) -> np.ndarray:
    """Map a complex label α ∈ ℂⁿ to its phase-space center d̂(α) ∈ ℝ²ⁿ.

    d̂(α) = √2·(Re α₁, Im α₁, …, Re αₙ, Im αₙ), so ‖d̂(α)‖² = 2·‖α‖².
    A scalar or 1-D label maps to a 1-D center; a stack of labels
    (..., n) maps to a stack of centers (..., 2n).
    """
    alpha = np.ascontiguousarray(alpha, dtype=complex)
    if alpha.ndim < 2:
        alpha = alpha.reshape(-1)
    if not np.isfinite(alpha).all():
        raise ValidationError("displacement label has non-finite entries")
    # a complex array viewed as floats interleaves (Re, Im) along its last axis
    return SQRT2 * alpha.view(float)


def hat_d_inv(d: np.ndarray) -> np.ndarray:
    """Invert hat_d: recover the complex label of a phase-space point.

    A 1-D center maps to a 1-D label; a stack of centers (..., 2n) maps to
    a stack of labels (..., n).
    """
    d = np.asarray(d, dtype=float)
    if d.ndim < 2:
        d = d.reshape(-1)
    if d.shape[-1] % 2:
        raise ValidationError(f"phase-space vector length {d.shape[-1]} is odd")
    return (d[..., 0::2] + 1j * d[..., 1::2]) / SQRT2


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Displacement:
    """Displacement gate; shifts the center of a state by -d̂(alpha).

    The label convention matches coherent states: the gate maps the coherent
    state labeled α to the one labeled α - alpha (up to a tracked phase).
    """

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=complex).reshape(-1)
        if not np.isfinite(a).all():
            raise ValidationError("displacement gate label has non-finite entries")
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class PhaseShift:
    """Single-mode phase-space rotation by angle phi at 1-based index mode."""

    phi: float
    mode: int


@dataclass(frozen=True)
class Beamsplitter:
    """Two-mode beamsplitter of angle omega between distinct modes."""

    omega: float
    mode1: int
    mode2: int

    def __post_init__(self):
        if self.mode1 == self.mode2:
            raise ValidationError("beamsplitter modes must differ")


@dataclass(frozen=True)
class Squeeze:
    """Single-mode squeeze of strength z ≠ 0 at 1-based index mode.

    z = 0 is rejected as a degenerate no-op; negative z squeezes the
    conjugate quadrature (every update formula is analytic in z).
    """

    z: float
    mode: int

    def __post_init__(self):
        if not np.isfinite(self.z) or self.z == 0.0:
            raise ValidationError(f"squeeze strength must be finite and nonzero, got {self.z}")


Gate = Union[Displacement, PhaseShift, Beamsplitter, Squeeze]


def _mode_index(j: int, n: int) -> int:
    """Convert a 1-based mode index to the row of its Q quadrature."""
    if not isinstance(j, (int, np.integer)) or isinstance(j, bool):
        raise ValidationError(f"mode index must be an integer, got {j!r}")
    if not 1 <= j <= n:
        raise ValidationError(f"mode index {j} out of range [1, {n}]")
    return 2 * (j - 1)


def gate_symplectic(g: Gate, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the symplectic matrix S and shift vector s of a gate.

    Every gate moves a state's covariance as Γ → SΓSᵀ and its center as
    d → Sd + s.  Only a displacement has a shift: s = -d̂(alpha), the
    label moving from α to α - alpha.

    Args:
        g: gate specification with 1-based mode indices.
        n: total mode count.

    Returns:
        (S, s): real 2n×2n symplectic matrix and real 2n vector.
    """
    S = np.eye(2 * n)
    s = np.zeros(2 * n)
    if isinstance(g, Displacement):
        if g.alpha.size != n:
            raise ValidationError(
                f"displacement label has {g.alpha.size} modes, expected {n}")
        s = -hat_d(g.alpha)
    elif isinstance(g, PhaseShift):
        jj = _mode_index(g.mode, n)
        c, sn = np.cos(g.phi), np.sin(g.phi)
        S[jj:jj + 2, jj:jj + 2] = [[c, sn], [-sn, c]]
    elif isinstance(g, Beamsplitter):
        jj = _mode_index(g.mode1, n)
        kk = _mode_index(g.mode2, n)
        c, sn = np.cos(g.omega), np.sin(g.omega)
        S[jj, jj] = c
        S[jj, kk + 1] = sn
        S[jj + 1, jj + 1] = c
        S[jj + 1, kk] = -sn
        S[kk, jj + 1] = sn
        S[kk, kk] = c
        S[kk + 1, jj] = -sn
        S[kk + 1, kk + 1] = c
    elif isinstance(g, Squeeze):
        jj = _mode_index(g.mode, n)
        S[jj, jj] = np.exp(-g.z)
        S[jj + 1, jj + 1] = np.exp(g.z)
    else:
        raise ValidationError(f"unknown gate {g!r}")
    return S, s


# ---------------------------------------------------------------------------
# Descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GaussianDescription:
    """A pure Gaussian state with tracked global phase.

    Attributes:
        gamma: real symmetric 2n×2n covariance matrix (vacuum = I).
        alpha: complex n-vector; the coherent label of the state's center,
            so the center is d̂(alpha).
        r: complex reference overlap ⟨alpha, ψ⟩; fixes the global phase.
    """

    gamma: np.ndarray
    alpha: np.ndarray
    r: complex

    def __post_init__(self):
        gamma = np.array(self.gamma, dtype=float)
        alpha = np.array(self.alpha, dtype=complex).reshape(-1)
        if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
            raise ValidationError(f"covariance matrix has shape {gamma.shape}")
        if gamma.shape[0] != 2 * alpha.size or alpha.size < 1:
            raise ValidationError(
                f"covariance is {gamma.shape[0]}-dimensional but the label has "
                f"{alpha.size} modes")
        gamma.flags.writeable = False
        alpha.flags.writeable = False
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "r", complex(self.r))

    @property
    def n(self) -> int:
        """Mode count."""
        return self.alpha.size

    @cached_property
    def d(self) -> np.ndarray:
        """Phase-space center d̂(alpha), computed once and read-only."""
        d = hat_d(self.alpha)
        d.flags.writeable = False
        return d


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the three description checks, with defect magnitudes.

    The report of a stack of descriptions holds arrays over its leading
    axes; branch(j) is the report of branch j alone.
    """

    valid: bool
    pure: bool
    r_consistent: bool
    min_eigenvalue: float
    purity_defect: float
    r_defect: float

    @property
    def ok(self):
        return self.valid & self.pure & self.r_consistent

    def branch(self, index) -> "ValidityReport":
        """The report of branch index of a stacked report, in Python
        scalars; index () converts an unstacked report."""
        return ValidityReport(*(np.asarray(getattr(self, f.name))[index].item()
                                for f in fields(self)))


def _log_reference_magnitude(gamma: np.ndarray) -> np.ndarray:
    """log |r| = ½·(n·log 2 - ½·log det(I+Γ)), stacked, from the eigenvalues
    of each I+Γ; NaN for an entry whose I+Γ is not positive definite, which
    no valid covariance has.  The sign of det(I+Γ) cannot tell: an even
    number of negative eigenvalues leaves it positive."""
    n = gamma.shape[-1] // 2
    eigenvalues = np.linalg.eigvalsh(np.eye(2 * n) + gamma)
    positive = eigenvalues[..., 0] > 0
    logdet = np.log(np.where(positive[..., None], eigenvalues, 1.0)).sum(axis=-1)
    return np.where(positive, 0.5 * (n * np.log(2.0) - 0.5 * logdet), np.nan)


def reference_overlap_magnitude(gamma: np.ndarray):
    """Return |r| implied by the covariance: (2ⁿ/√det(I+Γ))^{1/2}.

    A stack of covariances (..., 2n, 2n) gives an array of magnitudes.

    Raises:
        NumericError: some I + Γ is not positive definite.
    """
    log_magnitude = _log_reference_magnitude(np.asarray(gamma, dtype=float))
    if np.isnan(log_magnitude).any():
        raise NumericError("I + Γ must be positive definite for a valid covariance")
    magnitude = np.exp(log_magnitude)
    return float(magnitude) if magnitude.ndim == 0 else magnitude


def validate_description(delta, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Check validity, purity and reference-overlap consistency of Δ.

    Args:
        delta: description to check, or a stack of them (anything with
            stacked gamma, alpha and r fields, such as a BranchStack).
        tol: tolerance for all three checks.

    Returns:
        ValidityReport with booleans (validity: Γ + iΩ ⪰ -tol; purity:
        ‖ΓΩΓ - Ω‖_max ≤ tol; reference overlap: | |r|² - 2ⁿ/√det(I+Γ) | ≤ tol)
        and the measured defects.  For a stack every field is an array
        over its leading axes, from one stacked evaluation; a covariance
        shared by the whole stack (a covariance axis of length 1) is
        checked once and its results are broadcast to every branch.  A
        covariance whose I+Γ is not positive definite is reported invalid,
        with a NaN r_defect.
    """
    gamma = np.asarray(delta.gamma, dtype=float)
    n = np.shape(delta.alpha)[-1]
    if gamma.shape[-2:] != (2 * n, 2 * n):
        raise ValidationError(f"covariance shape {gamma.shape} does not match n={n}")
    omega = symplectic_form(n)
    herm = gamma + 1j * omega
    herm = 0.5 * (herm + np.conj(np.swapaxes(herm, -1, -2)))
    r_defect = np.abs(np.abs(delta.r) ** 2 - np.exp(_log_reference_magnitude(gamma)) ** 2)
    min_eig = np.broadcast_to(np.linalg.eigvalsh(herm)[..., 0], r_defect.shape)
    purity_defect = np.broadcast_to(
        np.max(np.abs(gamma @ omega @ gamma - omega), axis=(-2, -1)), r_defect.shape)
    report = ValidityReport(
        valid=min_eig >= -tol,
        pure=purity_defect <= tol,
        r_consistent=r_defect <= tol,
        min_eigenvalue=min_eig,
        purity_defect=purity_defect,
        r_defect=r_defect,
    )
    return report.branch(()) if np.ndim(min_eig) == 0 else report


def coherent_description(alpha: np.ndarray) -> GaussianDescription:
    """Description (I, α, 1) of the coherent state |α⟩."""
    alpha = np.asarray(alpha, dtype=complex).reshape(-1)
    return GaussianDescription(np.eye(2 * alpha.size), alpha, 1.0 + 0.0j)


def vacuum_description(n: int) -> GaussianDescription:
    """Description of the n-mode vacuum."""
    return coherent_description(np.zeros(n, dtype=complex))


def energy_of_gaussian(gamma: np.ndarray, d: np.ndarray):
    """Energy ⟨H⟩ = ½·tr(Γ) + dᵀd + n of a Gaussian state.

    H = Σ_j (Q_j² + P_j² + 1); the value is twice the mean photon number
    plus 2n.  Stacks of covariances (..., 2n, 2n) and centers (..., 2n)
    give an array of energies; one state gives a float.
    """
    gamma = np.asarray(gamma, dtype=float)
    d = np.asarray(d, dtype=float)
    n = gamma.shape[-1] // 2
    energy = 0.5 * np.trace(gamma, axis1=-2, axis2=-1) + (d * d).sum(axis=-1) + n
    return float(energy) if np.ndim(energy) == 0 else energy


def random_symplectic_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-like random matrix in Sp(2n) ∩ O(2n).

    The intersection is isomorphic to U(n): a Haar unitary u maps to the real
    2n×2n matrix with 2×2 blocks [[Re u_jk, -Im u_jk], [Im u_jk, Re u_jk]].
    Acting on phase space this is exactly the passive transformation sending
    coherent labels α → uα.
    """
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, upper = np.linalg.qr(z)
    phases = np.diagonal(upper).copy()
    q = q * (phases / np.abs(phases))
    K = np.zeros((2 * n, 2 * n))
    K[0::2, 0::2] = q.real
    K[0::2, 1::2] = -q.imag
    K[1::2, 0::2] = q.imag
    K[1::2, 1::2] = q.real
    return K


def _uniform_complex_ball(n: int, radius: float, rng: np.random.Generator,
                          size: Optional[int] = None) -> np.ndarray:
    """Sample α uniformly (Lebesgue) from the ball ‖α‖ ≤ radius in ℂⁿ.

    With a size, draws size labels, shape (size, n): first all the normal
    directions, then all the uniform radius factors.  The unsized ‖x‖ stays
    the dot product √(x·x), so seeded labels keep their last bits.
    """
    x = rng.standard_normal((2 * n,) if size is None else (size, 2 * n))
    norm = np.linalg.norm(x, axis=None if size is None else -1, keepdims=True)
    u = rng.random(None if size is None else (size, 1))
    # a zero direction stays the center
    x *= radius * u ** (1.0 / (2 * n)) / np.where(norm > 0.0, norm, 1.0)
    return x[..., 0::2] + 1j * x[..., 1::2]


def random_pure_description(
    n: int,
    z_max: float,
    seed: Union[int, np.random.Generator],
    alpha_max: float = 1.0,
) -> GaussianDescription:
    """Draw a random pure Gaussian description for tests.

    The covariance is Γ = K Z Kᵀ with K a random symplectic-orthogonal matrix
    and Z = ⊕_j diag(e^{-z_j}, e^{z_j}) with the log-factors z_j uniform in
    [-z_max, z_max].  The label α is uniform in the complex ball of radius
    alpha_max; r is the positive real value fixed by |r|² = 2ⁿ/√det(I+Γ)
    (reference-phase gauge).

    Deterministic for a fixed integer seed.

    Args:
        n: mode count.
        z_max: bound on the per-mode log squeeze factor of Z (z_max = 0
            forces Γ = I).
        seed: integer seed or a Generator to draw from.
        alpha_max: radius of the ball the label is drawn from.

    Returns:
        A valid, pure, phase-gauged GaussianDescription.
    """
    if z_max < 0:
        raise ValidationError(f"z_max must be >= 0, got {z_max}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    zs = rng.uniform(-z_max, z_max, size=n)
    Z = np.zeros((2 * n, 2 * n))
    Z[0::2, 0::2] = np.diag(np.exp(-zs))
    Z[1::2, 1::2] = np.diag(np.exp(zs))
    K = random_symplectic_orthogonal(n, rng)
    gamma = K @ Z @ K.T
    gamma = 0.5 * (gamma + gamma.T)
    alpha = _uniform_complex_ball(n, alpha_max, rng)
    r = reference_overlap_magnitude(gamma)
    return GaussianDescription(gamma, alpha, complex(r))
