"""Seeded circuit documents for the benchmark workloads.

This module uses numpy only and never imports gaussum, so the inputs a
seed produces do not depend on the code under test.

Each workload is a fixed list of request *slots*.  A slot fixes everything
that sets a request's cost (route, mode count, branch count χ, branch kind,
gate kinds and magnitudes, estimator sample count); the seed draws the rest
(rotations, coefficients, centers, outcomes).  The benchmark serves whole
blocks of slots in a seeded order, so every run serves the same mix and its
latency quantiles compare across seeds and commits.

Branches are pure Gaussian descriptions in the positive-real reference
gauge, r = (2ⁿ/√det(I+Γ))^{1/2}.  Each state is normalized here through a
closed-form Gram matrix (position-representation Gaussian integrals), not
through the program.  Outcomes are drawn from Σ_j |c_j|² p_j(β) / Σ_j |c_j|²,
the mixture of the evolved branches' heterodyne densities: the state's own
outcome distribution without its interference terms.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Gaussian branches and their closed-form Gram matrix
# ---------------------------------------------------------------------------

def random_covariance(n: int, z_max: float, rng: np.random.Generator) -> np.ndarray:
    """Γ = K Z Kᵀ with K passive (Haar unitary) and per-mode squeezes ≤ z_max."""
    zs = rng.uniform(-z_max, z_max, size=n)
    zdiag = np.zeros(2 * n)
    zdiag[0::2] = np.exp(-zs)
    zdiag[1::2] = np.exp(zs)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, upper = np.linalg.qr(g)
    d = np.diagonal(upper)
    q = q * (d / np.abs(d))
    k = np.zeros((2 * n, 2 * n))
    k[0::2, 0::2] = q.real
    k[0::2, 1::2] = -q.imag
    k[1::2, 0::2] = q.imag
    k[1::2, 1::2] = q.real
    gamma = k @ np.diag(zdiag) @ k.T
    return 0.5 * (gamma + gamma.T)


def _log_sqrt_det(m: np.ndarray) -> np.ndarray:
    """log √det(M) on the continuous branch, for stacked M with Re M ≻ 0.

    Every eigenvalue of A + itB (A ≻ 0, A and B real symmetric) has positive
    real part for all t, so the sum of principal logs is the branch reached
    continuously from the positive root at t = 0.
    """
    return 0.5 * np.log(np.linalg.eigvals(m)).sum(axis=-1)


def gram_matrix(gammas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Matrix of ⟨ψ_j, ψ_k⟩ for branches in the positive-real reference gauge.

    Each branch is written in position representation as
    ψ_j = (r_j / r̃_j) ψ̃_j with ψ̃_j(x) = exp(-½(x-q)ᵀZ(x-q) + i pᵀ(x-q)),
    Z = Γ_qq⁻¹(I - iΓ_qp), and r̃_j = ⟨α_j, ψ̃_j⟩; every factor is a Gaussian
    integral.  Works in logs so that far-apart branches do not overflow.
    """
    chi, dim, _ = gammas.shape
    n = dim // 2
    eye = np.eye(n)
    g_qq = gammas[:, 0::2, 0::2]
    g_qp = gammas[:, 0::2, 1::2]
    z = np.linalg.solve(g_qq, eye - 1j * g_qp)
    z = 0.5 * (z + np.swapaxes(z, 1, 2))
    q = SQRT2 * alphas.real
    p = SQRT2 * alphas.imag
    _, logdet_ig = np.linalg.slogdet(np.eye(dim) + gammas)
    log_r = 0.5 * (n * math.log(2.0) - 0.5 * logdet_ig)
    log_rt = (-0.25 * n * math.log(math.pi) + 0.5 * n * math.log(2 * math.pi)
              - 0.5j * np.einsum("ji,ji->j", p, q) - _log_sqrt_det(eye + z))
    log_w = log_r - log_rt                     # ψ_j = exp(log_w) ψ̃_j

    zc = z.conj()
    m = zc[:, None] + z[None, :]
    b = (np.einsum("jab,jb->ja", zc, q)[:, None]
         + np.einsum("kab,kb->ka", z, q)[None, :]
         + 1j * (p[None, :] - p[:, None]))
    c_j = -0.5 * np.einsum("ja,jab,jb->j", q, zc, q) + 1j * np.einsum("ja,ja->j", p, q)
    c_k = -0.5 * np.einsum("ka,kab,kb->k", q, z, q) - 1j * np.einsum("ka,ka->k", p, q)
    quad = 0.5 * np.einsum("jka,jka->jk", b, np.linalg.solve(m, b[..., None])[..., 0])
    log_tt = 0.5 * n * math.log(2 * math.pi) - _log_sqrt_det(m) + quad
    log_tt = log_tt + c_j[:, None] + c_k[None, :]
    return np.exp(log_w.conj()[:, None] + log_w[None, :] + log_tt)


def normalized(coeffs: np.ndarray, gammas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Scale the coefficients so that the superposition has unit norm."""
    norm_sq = float(np.real(coeffs.conj() @ gram_matrix(gammas, alphas) @ coeffs))
    return coeffs / math.sqrt(norm_sq)


# ---------------------------------------------------------------------------
# Gates (the program's conventions) and outcome sampling
# ---------------------------------------------------------------------------

def _gate_action(gate: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, shift) with Γ → SΓSᵀ and d → Sd + shift."""
    s = np.eye(2 * n)
    shift = np.zeros(2 * n)
    op = gate["op"]
    if op == "displacement":
        beta = np.array([complex(*a) for a in gate["alpha"]])
        shift[0::2] = -SQRT2 * beta.real
        shift[1::2] = -SQRT2 * beta.imag
    elif op == "phaseshift":
        j = 2 * (gate["mode"] - 1)
        c, sn = math.cos(gate["phi"]), math.sin(gate["phi"])
        s[j:j + 2, j:j + 2] = [[c, sn], [-sn, c]]
    elif op == "beamsplitter":
        j, k = (2 * (m - 1) for m in gate["modes"])
        c, sn = math.cos(gate["omega"]), math.sin(gate["omega"])
        s[j, j] = s[j + 1, j + 1] = s[k, k] = s[k + 1, k + 1] = c
        s[j, k + 1] = s[k, j + 1] = sn
        s[j + 1, k] = s[k + 1, j] = -sn
    elif op == "squeeze":
        j = 2 * (gate["mode"] - 1)
        s[j, j] = math.exp(-gate["z"])
        s[j + 1, j + 1] = math.exp(gate["z"])
    else:
        raise ValueError(f"unknown gate {op!r}")
    return s, shift


def sample_outcome(coeffs, gammas, alphas, gates, k, rng) -> np.ndarray:
    """β from the mixture of the evolved branches' heterodyne densities."""
    n = alphas.shape[1]
    weights = np.abs(coeffs) ** 2
    j = int(rng.choice(coeffs.size, p=weights / weights.sum()))
    gamma = gammas[j]
    d = np.empty(2 * n)
    d[0::2] = SQRT2 * alphas[j].real
    d[1::2] = SQRT2 * alphas[j].imag
    for gate in gates:
        s, shift = _gate_action(gate, n)
        gamma = s @ gamma @ s.T
        d = s @ d + shift
    cov = 0.5 * (gamma[:2 * k, :2 * k] + np.eye(2 * k))
    x = rng.multivariate_normal(d[:2 * k], cov)
    return (x[0::2] + 1j * x[1::2]) / SQRT2


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _terms_state(coeffs, gammas, alphas) -> dict:
    eye = np.eye(gammas.shape[1])
    terms = []
    for c, g, a in zip(coeffs, gammas, alphas):
        term = {"coeff": _pair(c), "alpha": [_pair(x) for x in a]}
        if not np.array_equal(g, eye):
            term["gamma"] = g.tolist()
        terms.append(term)
    return {"type": "terms", "terms": terms}


def _document(modes: int, state: dict, gates: list, beta: np.ndarray) -> str:
    return json.dumps({
        "modes": modes,
        "state": state,
        "gates": gates,
        "measure": {"k": int(beta.size), "beta": [_pair(b) for b in beta]},
    })


@dataclass(frozen=True)
class Request:
    """One generated request: a circuit document plus how to simulate it."""

    slot: str
    document: str
    method: str                      # "exact" or "approx"
    modes: int
    k: int
    energy_override: Optional[float] = None
    seed: Optional[int] = None       # estimator seed of approx requests


def _unit_phase(rng) -> complex:
    return complex(np.exp(2j * math.pi * rng.random()))


def _random_gate(kind: str, n: int, z_abs: float, rng) -> dict:
    if kind == "squeeze":
        return {"op": "squeeze", "mode": int(rng.integers(1, n + 1)),
                "z": float(z_abs * rng.choice([-1.0, 1.0]))}
    if kind == "phaseshift":
        return {"op": "phaseshift", "mode": int(rng.integers(1, n + 1)),
                "phi": float(rng.uniform(-math.pi, math.pi))}
    if kind == "beamsplitter":
        j, k = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        return {"op": "beamsplitter", "modes": [int(j), int(k)],
                "omega": float(rng.uniform(0.1, 1.4))}
    if kind == "displacement":
        return {"op": "displacement",
                "alpha": [_pair(0.3 * _unit_phase(rng)) for _ in range(n)]}
    raise ValueError(kind)


# gram: (modes, χ, branch kind, gate kinds), k = modes.  χ² pairs dominate.
#
# Slot lists are ordered by cost and weighted so that, over whole blocks,
# the median falls among many copies of equal-cost slots and the tail
# percentile among many copies of the next dearer ones.  A quantile drawn
# from many requests spread over the run follows the machine's average
# speed; one drawn from a few copies of one slot jumps with its speed swings.
GRAM_SLOTS = [
    (1, 16, "coherent", ("phaseshift", "displacement")),
    (2, 16, "squeezed", ("beamsplitter", "squeeze")),
    (1, 20, "squeezed", ("squeeze",)),
    (2, 24, "coherent", ("beamsplitter", "displacement", "phaseshift")),
    (1, 20, "squeezed", ("squeeze",)),
    (2, 24, "coherent", ("beamsplitter", "displacement", "phaseshift")),
    (1, 32, "coherent", ("squeeze", "phaseshift")),
    (1, 28, "squeezed", ("displacement", "squeeze", "phaseshift")),
    (1, 32, "coherent", ("squeeze", "phaseshift")),
    (2, 64, "coherent", ("beamsplitter", "squeeze")),
]


def gram_request(slot: int, rng) -> Request:
    n, chi, kind, gate_kinds = GRAM_SLOTS[slot]
    if kind == "coherent":
        # a chain of coherent states along a random direction, radius ≤ 1.5
        direction = np.array([_unit_phase(rng) for _ in range(n)]) / math.sqrt(n)
        steps = np.linspace(-1.5, 1.5, chi)
        alphas = steps[:, None] * direction[None, :]
        gammas = np.broadcast_to(np.eye(2 * n), (chi, 2 * n, 2 * n)).copy()
    else:
        gammas = np.stack([random_covariance(n, 0.5, rng) for _ in range(chi)])
        alphas = np.stack([_ball(n, 1.2, rng) for _ in range(chi)])
    coeffs = rng.normal(size=chi) + 1j * rng.normal(size=chi)
    coeffs = normalized(coeffs, gammas, alphas)
    gates = [_random_gate(g, n, 0.3, rng) for g in gate_kinds]
    beta = sample_outcome(coeffs, gammas, alphas, gates, n, rng)
    document = _document(n, _terms_state(coeffs, gammas, alphas), gates, beta)
    return Request(f"gram-n{n}-chi{chi}-{kind}", document, "exact", n, n)


def _ball(n: int, radius: float, rng) -> np.ndarray:
    x = rng.standard_normal(2 * n)
    x *= radius * rng.random() ** (1.0 / (2 * n)) / np.linalg.norm(x)
    return x[0::2] + 1j * x[1::2]


# probe: one-mode approx requests at fixed ε and p_fail.
# (state kind, χ, size, gate kinds, pinned energy bound or None to derive it).
# Cats go through the document's "cat" type.  Chains have a fixed coefficient
# profile; the seed rotates the whole state and gates keep fixed magnitudes,
# so the derived energy bound, and with it L, is the same for every seed.
PROBE_EPSILON = 0.5
PROBE_P_FAIL = 0.25
PROBE_SLOTS = [
    ("cat-odd", 2, 1.0, ("squeeze",), None),
    ("cat-even", 2, 1.5, ("phaseshift",), 60.0),
    ("chain", 5, 1.0, ("displacement",), None),
    ("chain", 13, 1.0, ("phaseshift",), None),
    ("chain", 11, 1.0, ("displacement",), 48.0),
    ("chain", 13, 1.0, ("phaseshift",), None),
    ("chain", 11, 1.0, ("displacement",), 48.0),
    ("chain", 7, 1.5, ("squeeze", "displacement"), None),
    ("chain", 9, 1.2, ("squeeze", "phaseshift"), 80.0),
    ("chain", 17, 1.0, (), 45.0),
]


def probe_request(slot: int, rng) -> Request:
    kind, chi, size, gate_kinds, pinned = PROBE_SLOTS[slot]
    phase = _unit_phase(rng)
    gammas = np.broadcast_to(np.eye(2), (chi, 2, 2)).copy()
    if kind.startswith("cat"):
        sign = 1.0 if kind == "cat-even" else -1.0
        alphas = np.array([[size * phase], [-size * phase]])
        coeffs = normalized(np.array([1.0, sign], dtype=complex), gammas, alphas)
        state = {"type": "cat", "alpha": _pair(size * phase), "parity": kind[4:]}
    else:
        t = np.linspace(-1.0, 1.0, chi)
        alphas = (size * t * phase)[:, None]
        coeffs = normalized(np.exp(-2.0 * t ** 2 + 2j * t), gammas, alphas)
        state = _terms_state(coeffs, gammas, alphas)
    gates = [_random_gate(g, 1, 0.3, rng) for g in gate_kinds]
    beta = sample_outcome(coeffs, gammas, alphas, gates, 1, rng)
    return Request(f"probe-{kind}{chi}-{'pinned' if pinned else 'derived'}",
                   _document(1, state, gates, beta), "approx", 1, 1, energy_override=pinned,
                   seed=int(rng.integers(2 ** 62)))


SLOTS = {"gram": (GRAM_SLOTS, gram_request),
         "probe": (PROBE_SLOTS, probe_request)}


def block(workload: str, seed: int, index: int) -> list:
    """Block `index` of a workload's request stream: every slot once, in a
    seeded order.  Block contents depend only on (workload, seed, index)."""
    slots, make = SLOTS[workload]
    rng = np.random.default_rng([seed, index, zlib.crc32(workload.encode())])
    order = rng.permutation(len(slots))
    return [make(int(s), rng) for s in order]


def warmup_request(workload: str, seed: int) -> Request:
    """A request of the workload's first slot, outside every block.

    The first slot is a cheap one; for probe it derives its energy bound,
    so the warm-up also loads the number-basis module that derivation uses.
    """
    _, make = SLOTS[workload]
    return make(0, np.random.default_rng([seed, zlib.crc32(b"warm-up")]))
