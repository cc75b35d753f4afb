"""Acceptance suite: one test (one pass/fail line under pytest) per shipped
guarantee of the engine.

Every tolerance below is fixed; timed criteria measure wall time with
time.perf_counter.  Expected values come from closed forms or from the
independent number-basis oracle, never from the code under test.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.linalg import block_diag

from gaussum import overlaps, superposition
from gaussum.circuit import CircuitSpec, MeasureSpec, simulate_approx
from gaussum.core import (
    Beamsplitter,
    Displacement,
    GaussianDescription,
    PhaseShift,
    Squeeze,
    coherent_description,
    hat_d,
    random_pure_description,
    vacuum_description,
)
from gaussum.evolution import apply_unitary
from gaussum.fock import (
    FockVector,
    fock_apply_gate,
    fock_coherent,
    fock_energy,
    fock_from_description,
    fock_from_superposition,
    fock_overlap,
    fock_project,
)
from gaussum.measurement import postmeasure
from gaussum.overlaps import overlap, pair_fidelity, triple_overlap_product
from gaussum.states import appendix_d_state, cat_state, gkp_comb
from gaussum.superposition import (
    GaussianSuperposition,
    circuit_energy_bound,
    exact_norm,
    fast_norm,
    fast_norm_parameters,
    measureprob_exact,
    post_measurement_superposition,
    superposition_energy_exact,
)


def _ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Uniform draw from the complex n-ball ‖α‖ ≤ radius."""
    x = rng.standard_normal(2 * n)
    u = rng.random()
    x *= radius * u ** (1.0 / (2 * n)) / max(np.linalg.norm(x), 1e-300)
    return x[0::2] + 1j * x[1::2]


def _random_gate(rng: np.random.Generator, n: int):
    kind = rng.integers(0, 4 if n > 1 else 3)
    if kind == 0:
        return Displacement(_ball(rng, n, 1.0))
    if kind == 1:
        return PhaseShift(float(rng.uniform(-np.pi, np.pi)),
                          int(rng.integers(1, n + 1)))
    if kind == 2:
        return Squeeze(float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])),
                       int(rng.integers(1, n + 1)))
    j, k = rng.permutation(np.arange(1, n + 1))[:2]
    return Beamsplitter(float(rng.uniform(-np.pi, np.pi)), int(j), int(k))


def _oracle_cutoff(descriptions) -> int:
    """Occupation cutoff with a 2x margin over the per-mode photon scale."""
    worst = 0.0
    for d in descriptions:
        n = d.gamma.shape[0] // 2
        for j in range(n):
            block = d.gamma[2 * j: 2 * j + 2, 2 * j: 2 * j + 2]
            mean = max(0.0, 0.25 * np.trace(block) - 0.5 + abs(d.alpha[j]) ** 2)
            worst = max(worst, 16 + 10 * mean + 12 * np.sqrt(mean + 1.0))
    return min(2 * int(worst) + 8, 256)


def _reference_defect(delta: GaussianDescription) -> float:
    """|r|² minus the closed-form vacuum-overlap square 2ⁿ/√det(I+Γ)."""
    two_n = delta.gamma.shape[0]
    det = np.linalg.det(np.eye(two_n) + delta.gamma)
    return abs(abs(delta.r) ** 2 - 2.0 ** (two_n // 2) / np.sqrt(det))


def test_criterion_01_triple_overlap_certification():
    """Closed-form displaced triple products match the oracle on 600 seeded
    random triples (500 one-mode, 100 two-mode) to 1e-6 in under 60 s."""
    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    worst = 0.0
    for case in range(600):
        n = 1 if case < 500 else 2
        ds = tuple(random_pure_description(n, 1.5, rng, alpha_max=1.5)
                   for _ in range(3))
        lam = _ball(rng, n, 1.0)
        got = triple_overlap_product(
            ds[0].gamma, hat_d(ds[0].alpha),
            ds[1].gamma, hat_d(ds[1].alpha),
            ds[2].gamma, hat_d(ds[2].alpha), lam)
        cutoff = _oracle_cutoff(ds)
        f1, f2, f3 = (fock_from_description(d, n_max=cutoff, cap=256)
                      for d in ds)
        shifted = fock_apply_gate(f1, Displacement(lam))
        want = (fock_overlap(f3, shifted) * fock_overlap(f1, f2)
                * fock_overlap(f2, f3))
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"worst triple-product error {worst:.3e} > 1e-6"
    assert elapsed < 60.0, f"triple certification took {elapsed:.1f}s >= 60s"


def test_criterion_02_phase_tracking_unitarity():
    """Overlaps of description pairs are invariant under every gate type,
    to 1e-8 over 1000 seeded random cases."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for case in range(1000):
        n = 1 if case % 2 == 0 else 2
        d1 = random_pure_description(n, 1.5, rng, alpha_max=1.5)
        d2 = random_pure_description(n, 1.5, rng, alpha_max=1.5)
        g = _random_gate(rng, n)
        before = overlap(d1, d2)
        after = overlap(apply_unitary(d1, g), apply_unitary(d2, g))
        worst = max(worst, abs(after - before))
    assert worst <= 1e-8, f"worst overlap drift {worst:.3e} > 1e-8"


def test_criterion_03_magnitude_consistency():
    """|overlap|² agrees with the two-Gaussian trace fidelity to 1e-8 on
    1000 seeded random pairs."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for case in range(1000):
        n = 1 if case % 2 == 0 else 2
        d1 = random_pure_description(n, 1.5, rng, alpha_max=1.5)
        d2 = random_pure_description(n, 1.5, rng, alpha_max=1.5)
        worst = max(worst, abs(abs(overlap(d1, d2)) ** 2
                               - pair_fidelity(d1, d2)))
    assert worst <= 1e-8, f"worst magnitude defect {worst:.3e} > 1e-8"


def test_criterion_04_description_invariant():
    """Every evolved and measured description keeps |r|² = 2ⁿ/√det(I+Γ)
    within 1e-7."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for case in range(150):
        n = 1 + case % 2
        d = random_pure_description(n, 1.2, rng, alpha_max=1.0)
        for _ in range(6):
            d = apply_unitary(d, _random_gate(rng, n))
            worst = max(worst, _reference_defect(d))
        beta = d.alpha[0] + _ball(rng, 1, 0.5)[0]
        post, _ = postmeasure(d, np.array([beta]))
        worst = max(worst, _reference_defect(post))
    assert worst <= 1e-7, f"worst |r|² invariant defect {worst:.3e} > 1e-7"


def test_criterion_05_cat_norm_closed_form():
    """exact_norm of the unnormalized two-branch state |1⟩ + |-1⟩ equals
    √(2(1+e⁻²)) ≈ 1.50688 within 1e-10."""
    psi = GaussianSuperposition(
        np.array([1.0 + 0j, 1.0 + 0j]),
        (coherent_description(np.array([1.0 + 0j])),
         coherent_description(np.array([-1.0 + 0j]))))
    expected = np.sqrt(2.0 * (1.0 + np.exp(-2.0)))
    assert abs(exact_norm(psi) - expected) <= 1e-10, (
        f"exact_norm {exact_norm(psi)!r} != {expected!r}")


def test_criterion_06_fast_norm_statistics():
    """With the estimator's own (R, L) at (ε, p_fail) = (0.2, 0.25), the
    empirical failure fraction of the norm estimate over 200 seeded trials
    on the normalized even cat (α=1) stays within 0.25 + 0.09."""
    cat = cat_state(1.0, "even")
    energy = superposition_energy_exact(cat)
    params = fast_norm_parameters(energy, 0.2, 0.25)
    assert abs(params.radius - np.sqrt(energy / 0.2)) <= 1e-12
    assert params.samples == 141
    failures = sum(
        1 for seed in range(200)
        if abs(fast_norm(cat, 0.2, 0.25, energy, seed) - 1.0) > 0.2)
    assert failures <= int((0.25 + 0.09) * 200), (
        f"{failures}/200 trials missed the ±20% band, above the 0.34 budget")


def test_criterion_07_heterodyne_density():
    """The vacuum outcome density at β = 0 is 1/π to 1e-12, and the one-mode
    density grid-integrates to 1 ± 1e-3 for three fixture states."""
    vac = GaussianSuperposition(np.array([1.0 + 0j]), (vacuum_description(1),))
    p0 = measureprob_exact(vac, np.array([0.0j]))
    assert abs(p0 - 1.0 / np.pi) <= 1e-12, f"vacuum density {p0!r} != 1/pi"

    fixtures = [
        GaussianSuperposition(np.array([1.0 + 0j]),
                              (coherent_description(np.array([0.4 - 0.3j])),)),
        cat_state(1.0, "even"),
        gkp_comb(0.5, 1, 1.0, 1.5),
    ]
    h = 0.2
    centers = np.arange(-5.0 + h / 2, 5.0, h)
    for psi in fixtures:
        total = h * h * sum(measureprob_exact(psi, np.array([x + 1j * y]))
                            for x in centers for y in centers)
        assert abs(total - 1.0) <= 1e-3, (
            f"density integrates to {total!r}, off by {abs(total-1):.2e}")


def test_criterion_08_post_measurement_oracle():
    """Measured descriptions of 50 seeded two-mode circuits (one squeeze,
    one beamsplitter, one displacement) match the oracle's conditioned state
    with |overlap| ≥ 1 - 1e-6."""
    rng = np.random.default_rng(8)
    worst = 1.0
    for case in range(50):
        gates = [Squeeze(float(rng.uniform(0.3, 0.9) * rng.choice([-1.0, 1.0])),
                         int(rng.integers(1, 3))),
                 Beamsplitter(float(rng.uniform(-np.pi, np.pi)), 1, 2),
                 Displacement(_ball(rng, 2, 0.7))]
        rng.shuffle(gates)
        d = vacuum_description(2)
        for g in gates:
            d = apply_unitary(d, g)
        beta = d.alpha[0] + _ball(rng, 1, 0.5)[0]
        post, _ = postmeasure(d, np.array([beta]))

        f = fock_from_description(d, n_max=96, cap=96)
        cond, norm_sq = fock_project(f, np.array([beta]))
        bra = fock_coherent(beta, f.amps.shape[0] - 1)
        oracle = FockVector(np.multiply.outer(bra.amps, cond / np.sqrt(norm_sq)))
        mine = fock_from_description(post, n_max=96, cap=96)
        worst = min(worst, abs(fock_overlap(oracle, mine)))
    assert worst >= 1.0 - 1e-6, (
        f"worst post-measurement oracle overlap {worst!r} < 1 - 1e-6")


def test_criterion_09_bright_branch_variance_limit():
    """Measuring appendix_d_state(1e-4, 1e4, 1) at β = 1e4 collapses onto the
    bright squeezed branch; the unmeasured mode's outcome-variance sum is
    1 + cosh 2 ≈ 4.76220 within 1e-2."""
    psi = appendix_d_state(1e-4, 1e4, 1.0)
    post = post_measurement_superposition(psi, np.array([1e4 + 0.0j]))
    assert len(post.coeffs) == 1, "vacuum branch should underflow and drop"
    block = post.descriptions[0].gamma[2:, 2:]
    var_sum = float(np.sum((np.diag(block) + 1.0) / 2.0))
    assert abs(var_sum - (1.0 + np.cosh(2.0))) <= 1e-2, (
        f"variance sum {var_sum!r} != 1 + cosh 2")


def test_criterion_10_runtime_scaling(monkeypatch):
    """Runtime of exact_norm scales as χ² (log-log slope 2.0 ± 0.3) over
    χ ∈ {32, ..., 1024} and of fast_norm at fixed (ε, p_fail, E) as χ
    (slope 1.0 ± 0.3) over χ ∈ {256, ..., 8192}, all within a 5-minute
    budget.  Each range starts where the pair evaluations, not the fixed
    cost per call, dominate: fast_norm runs at E = 50, which draws L = 128
    probes (E = 2 draws 6, and its χ = 256 call times the fixed cost).
    Counted exactly, exact_norm evaluates χ(χ-1)/2 pairs and fast_norm
    L·χ."""
    def chain(chi: int, seed: int) -> GaussianSuperposition:
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((chi, 2))
        labels = (x[:, 0] + 1j * x[:, 1]) * 0.5
        coeffs = np.full(chi, 1.0 / np.sqrt(chi), dtype=complex)
        return GaussianSuperposition(
            coeffs, tuple(coherent_description(np.array([a])) for a in labels))

    start = time.perf_counter()
    exact_chis = [32, 64, 128, 256, 512, 1024]
    fast_chis = [256, 512, 1024, 2048, 4096, 8192]
    states = {chi: chain(chi, 100 + chi) for chi in sorted(set(exact_chis + fast_chis))}
    energy = 50.0
    samples = fast_norm_parameters(energy, 0.5, 0.25).samples

    exact_times = []
    for chi in exact_chis:
        reps = []
        for _ in range(2 if chi <= 128 else 1):
            t0 = time.perf_counter()
            exact_norm(states[chi])
            reps.append(time.perf_counter() - t0)
        exact_times.append(min(reps))
    slope_exact = np.polyfit(np.log(exact_chis), np.log(exact_times), 1)[0]

    fast_times = []
    for chi in fast_chis:
        reps = []
        for _ in range(3):
            t0 = time.perf_counter()
            fast_norm(states[chi], 0.5, 0.25, energy, 12345)
            reps.append(time.perf_counter() - t0)
        fast_times.append(min(reps))
    slope_fast = np.polyfit(np.log(fast_chis), np.log(fast_times), 1)[0]

    pairs = []

    def counted(kernel):
        def wrapped(a, b):
            values = kernel(a, b)
            pairs.append(np.size(values))
            return values
        return wrapped

    # Gram pairs go through the pair kernel, probe pairs through the
    # coherent-bra rows
    monkeypatch.setattr(overlaps, "_pair_overlaps", counted(overlaps._pair_overlaps))
    monkeypatch.setattr(superposition, "_log_coherent_overlaps",
                        counted(superposition._log_coherent_overlaps))
    for chi in (exact_chis[0], exact_chis[-1]):
        pairs.clear()
        exact_norm(states[chi])
        assert sum(pairs) == chi * (chi - 1) // 2, (
            f"exact_norm evaluated {sum(pairs)} pairs at χ={chi}")
    for chi in (fast_chis[0], fast_chis[-1]):
        pairs.clear()
        fast_norm(states[chi], 0.5, 0.25, energy, 12345)
        assert sum(pairs) == samples * chi, (
            f"fast_norm evaluated {sum(pairs)} pairs at χ={chi}, L={samples}")

    elapsed = time.perf_counter() - start
    assert 1.7 <= slope_exact <= 2.3, f"exact_norm slope {slope_exact:.3f}"
    assert 0.7 <= slope_fast <= 1.3, f"fast_norm slope {slope_fast:.3f}"
    assert elapsed < 300.0, f"scaling benchmark took {elapsed:.0f}s >= 300s"


def test_criterion_11_energy_bookkeeping():
    """The heterodyne measure-and-reprepare channel adds exactly 2 to the
    oracle's ⟨H⟩ (within 1e-3), and the circuit energy bound of a
    squeeze-only gate list is the input bound times e^{2·Σ|z|}."""
    cat = cat_state(1.0, "even")
    energy_in = fock_energy(fock_from_superposition(cat.terms))
    h = 0.2
    centers = np.arange(-5.0 + h / 2, 5.0, h)
    energy_out = h * h * sum(
        measureprob_exact(cat, np.array([x + 1j * y])) * (2.0 * (x * x + y * y) + 2.0)
        for x in centers for y in centers)
    assert abs(energy_out - (energy_in + 2.0)) <= 1e-3, (
        f"channel output energy {energy_out!r}, input {energy_in!r}")

    bound = circuit_energy_bound(
        3.7, [Squeeze(0.4, 1), Squeeze(1.1, 1), Squeeze(0.25, 1)])
    expected = 3.7 * np.exp(2.0 * (0.4 + 1.1 + 0.25))
    assert abs(bound - expected) <= 1e-12 * expected, (
        f"squeeze-only bound {bound!r} != {expected!r}")


def test_criterion_12_worker_determinism():
    """Approximate runs with the same seed are bit-identical for any worker
    count, both through the circuit driver and the bare estimator."""
    cat = cat_state(1.0, "even")
    vac = vacuum_description(1)
    two_mode = GaussianSuperposition(
        cat.coeffs,
        tuple(GaussianDescription(block_diag(d.gamma, vac.gamma),
                                  np.concatenate([d.alpha, vac.alpha]),
                                  d.r * vac.r)
              for d in cat.descriptions))
    circuit = CircuitSpec(
        2,
        (Beamsplitter(np.pi / 4, 1, 2), Squeeze(0.4, 2),
         Displacement(np.array([0.1 + 0.2j, -0.3j]))),
        MeasureSpec(1, np.array([0.4 - 0.1j])))

    results = [simulate_approx(two_mode, circuit, epsilon=0.4, p_fail=0.2,
                               seed=20260815, workers=w).to_json()
               for w in (1, 4, 7)]
    assert results[0] == results[1] == results[2], (
        "simulate_approx output changed with the worker count")

    estimates = [fast_norm(cat, 0.3, 0.1, superposition_energy_exact(cat),
                           99, workers=w)
                 for w in (1, 2, 5)]
    assert estimates[0] == estimates[1] == estimates[2], (
        "fast_norm estimate changed with the worker count")
