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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

SQRT2 = np.sqrt(2.0)

#: Default tolerance for validity / purity / reference-overlap checks.
DEFAULT_TOL = 1e-8


class ValidationError(ValueError):
    """Malformed input: bad shapes, bad mode indices, inconsistent data."""


class NumericError(ArithmeticError):
    """A numerically ill-posed step (zero anchor, lost branch, failed check)."""


class BranchPathError(NumericError):
    """A determinant square root has no tracked branch: the real part of
    the matrix is not positive definite."""


class PhaseRecoveryError(NumericError):
    """An anchor overlap is zero, so no phase can be divided out of it."""


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
    """Invert hat_d: recover the complex label of a phase-space point."""
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.size % 2:
        raise ValidationError(f"phase-space vector length {d.size} is odd")
    return (d[0::2] + 1j * d[1::2]) / SQRT2


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
        if not np.all(np.isfinite(a.real) & np.isfinite(a.imag)):
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

    S acts on covariance matrices as Γ → SΓSᵀ.  For the non-displacement
    gates the center updates as d → Sd.  For a displacement the returned
    shift is s = d̂(alpha), the generator-convention vector; the center of a
    state actually moves by -d̂(alpha) (see evolution.apply_displacement).

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
        s = hat_d(g.alpha)
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
    """Outcome of the three description checks, with defect magnitudes."""

    valid: bool
    pure: bool
    r_consistent: bool
    min_eigenvalue: float
    purity_defect: float
    r_defect: float

    @property
    def ok(self) -> bool:
        return self.valid and self.pure and self.r_consistent


def reference_overlap_magnitude(gamma: np.ndarray) -> float:
    """Return |r| implied by the covariance: (2ⁿ/√det(I+Γ))^{1/2}."""
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0] // 2
    sign, logdet = np.linalg.slogdet(np.eye(2 * n) + gamma)
    if sign <= 0:
        raise NumericError("det(I + Γ) must be positive for a valid covariance")
    return np.exp(0.5 * (n * np.log(2.0) - 0.5 * logdet))


def validate_description(delta: GaussianDescription, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Check validity, purity and reference-overlap consistency of Δ.

    Args:
        delta: description to check.
        tol: tolerance for all three checks.

    Returns:
        ValidityReport with booleans (validity: Γ + iΩ ⪰ -tol; purity:
        ‖ΓΩΓ - Ω‖_max ≤ tol; reference overlap: | |r|² - 2ⁿ/√det(I+Γ) | ≤ tol)
        and the measured defects.
    """
    gamma = delta.gamma
    n = delta.n
    if gamma.shape != (2 * n, 2 * n):
        raise ValidationError(f"covariance shape {gamma.shape} does not match n={n}")
    omega = symplectic_form(n)
    herm = gamma + 1j * omega
    herm = 0.5 * (herm + herm.conj().T)
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    purity_defect = float(np.max(np.abs(gamma @ omega @ gamma - omega)))
    r_defect = float(abs(abs(delta.r) ** 2 - reference_overlap_magnitude(gamma) ** 2))
    return ValidityReport(
        valid=min_eig >= -tol,
        pure=purity_defect <= tol,
        r_consistent=r_defect <= tol,
        min_eigenvalue=min_eig,
        purity_defect=purity_defect,
        r_defect=r_defect,
    )


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


def _uniform_complex_ball(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Sample α uniformly (Lebesgue) from the ball ‖α‖ ≤ radius in ℂⁿ."""
    x = rng.standard_normal(2 * n)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return np.zeros(n, dtype=complex)
    u = rng.random()
    x *= radius * u ** (1.0 / (2 * n)) / norm
    return x[0::2] + 1j * x[1::2]


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
