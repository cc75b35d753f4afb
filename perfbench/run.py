"""Benchmark of gaussum's exact and randomized heterodyne densities.

Run from the repository root:

    python3 perfbench/run.py --workload gram --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Workloads (see workloads.py for the request slots):
  gram   exact route, 1-2 modes, χ 16-64: the two χ² Gram sums dominate
         and no probe runs.
  probe  approx route, one mode, χ 2-17: coherent-probe overlaps inside
         fast_norm dominate and exact_norm never runs; half the slots
         derive L from an energy bound, half pin it.  Timed with one
         worker: on a 2-core machine shared with other jobs, workers=2
         spread the median latency by 26% (IQR/median over 10 seeds)
         against 14-15% for one worker.  Every run checks that workers=2
         gives bit-identical results.

One process drives gaussum in-process as a closed loop with one client: it
parses each generated document and calls simulate_exact or simulate_approx,
as `gaussum simulate` does, and sends the next request when the previous
one returns.  The timed loop serves whole blocks of requests until both
--seconds have passed and the latency sample is complete.  The latency
sample is a fixed number of blocks, ⌈seconds / NOMINAL_BLOCK_S⌉, so every
commit is timed on the same requests and the tail percentile is the same
one.  A failed request counts as +∞ in the latency quantiles.

--trace 0 prints the end-to-end metrics; failed_share is printed with them
but left out of the JSON metrics, which carry the failures as "attempted"
and "failed".  --trace 1 replays the latency sample untraced and then
traced (spans around every traced gaussum function, see tracing.py) and
prints the per-layer metrics.  Every run also checks outputs (checks.py)
and runs the untimed conditioning sweep and estimator audit.  The last
stdout line is one JSON object; a full report, and the spans of a traced
run, go to .perfbench_out/.
"""

from __future__ import annotations

import os

# Every matrix is at most 16×16: pin BLAS to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("gram", "probe")
#: Seconds one block took on the reference machine (2-core x86-64 VM,
#: Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).  They fix the
#: size of the latency sample, not the time a run measures.
NOMINAL_BLOCK_S = {"gram": 6.3, "probe": 3.2}
PROBE_WORKERS = 1
#: Worker count that the bit-identity check compares with PROBE_WORKERS.
CHECK_WORKERS = 2
#: After this long the timed loop serves nothing more; the rest of the
#: latency sample counts as failed.
LOOP_LIMIT_S = 120.0
SETUP_PROBES = 3
ORACLE_SUBSET = 2

END_TO_END_UNITS = {"latency_p50_s": "s", "latency_tail_s": "s", "densities_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def import_gaussum():
    """Import gaussum from src/ of this checkout, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "gaussum" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gaussum sources under {src}")
    sys.path.insert(0, str(src))
    import gaussum
    import gaussum.cli  # noqa: F401  (bound as gaussum.cli for the parity check)

    if not Path(gaussum.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported gaussum from {gaussum.__file__}, not {src}")
    return gaussum


def latency_blocks(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / NOMINAL_BLOCK_S[workload]))


def simulate(gaussum, request, workers: int = PROBE_WORKERS):
    """One request, through the calls `gaussum simulate` makes."""
    psi, spec = gaussum.circuit.parse_circuit(request.document)
    if request.method == "exact":
        return gaussum.circuit.simulate_exact(psi, spec)
    return gaussum.circuit.simulate_approx(
        psi, spec, workloads.PROBE_EPSILON, workloads.PROBE_P_FAIL,
        seed=request.seed, workers=workers, energy_override=request.energy_override)


def set_up(workload: str, seed: int, seconds: float):
    """Import gaussum, generate the latency sample, serve one warm-up request."""
    gaussum = import_gaussum()
    blocks = [workloads.block(workload, seed, i)
              for i in range(latency_blocks(workload, seconds))]
    simulate(gaussum, workloads.warmup_request(workload, seed))
    return gaussum, blocks


def serve(gaussum, blocks: list, seconds: float) -> tuple[list, list, float]:
    """Closed loop over whole blocks; returns (latency sample, all records, wall).

    A record is (request, latency_s or inf, error name or None, result or None).
    """
    records = []
    sample_size = sum(len(b) for b in blocks)
    start = perf_counter()
    index = 0
    while True:
        for request in blocks[index % len(blocks)]:
            if perf_counter() - start > LOOP_LIMIT_S:
                records.append((request, math.inf, "LoopLimitExceeded", None))
                continue
            t0 = perf_counter()
            try:
                result = simulate(gaussum, request)
            except Exception as exc:  # a failed request is recorded, never dropped
                records.append((request, math.inf, type(exc).__name__, None))
                continue
            latency = perf_counter() - t0
            ok = checks.density_bounds_ok(request.method, result.p, request.k)
            records.append((request, latency if ok else math.inf,
                            None if ok else "DensityOutOfRange", result))
        index += 1
        if index >= len(blocks) and perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    return records[:sample_size], records, wall


def latency_stats(sample: list) -> dict:
    """Median and the highest percentile with at least 10 requests beyond it
    (the maximum when the sample has no such percentile)."""
    lat = sorted(r[1] for r in sample)
    n = len(lat)
    tail_index = n - 11 if n > 10 else n - 1
    finite = sys.float_info.max
    return {
        "latency_p50_s": min(statistics.median(lat), finite),
        "latency_tail_s": min(lat[tail_index], finite),
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "requests_beyond_tail": n - tail_index - 1,
        "sample_requests": n,
    }


def densities_per_s(records: list, wall: float) -> float:
    return sum(1 for r in records if r[2] is None) / wall


def failures_by_type(records: list) -> dict:
    return dict(Counter(r[2] for r in records if r[2] is not None))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: str, seed: int, seconds: float) -> list:
    """Wall time of fresh processes that only set up, SETUP_PROBES times.

    No timeout: with one, subprocess polls the child and rounds the wall
    time up to its 50 ms polling step."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(seed: int, seconds: float) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads(),
            "machine": platform.machine(), "seed": seed, "seconds": seconds}


def output_checks(gaussum, seed: int, sample: list) -> dict:
    """Oracle subset, worker bit-identity and CLI parity on the latency sample."""
    rng = np.random.default_rng([seed, 7])
    served = [r for r in sample if r[2] is None]
    small = [r for r in served if r[0].modes <= 2]
    picks = [small[i] for i in rng.choice(len(small), size=min(ORACLE_SUBSET, len(small)),
                                          replace=False)]
    oracle = []
    for request, _, _, result in picks:
        p = result.p
        row = checks.oracle_check(gaussum, request)
        if request.method == "exact":
            row["ok"] = row["ok"] and row["p"] == p
        else:
            row["p_approx"] = p
        oracle.append(row)
    identity = [checks.worker_identity(gaussum, r[0], workloads.PROBE_EPSILON,
                                       workloads.PROBE_P_FAIL, r[3].p, CHECK_WORKERS)
                for r in picks if r[0].method == "approx"]
    if served:
        request, _, _, result = min(served, key=lambda r: r[1])
        cli = checks.cli_parity(gaussum, request, result.p, workloads.PROBE_EPSILON,
                                workloads.PROBE_P_FAIL, PROBE_WORKERS, OUT)
    else:
        cli = {"ok": False, "reason": "no request was served"}
    return {"oracle": oracle, "worker_identity": identity, "cli_parity": cli}


def layer_metrics(summary: dict, densities: int, samples: int) -> dict:
    names, under = summary["names"], summary["under"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    m: dict = {}
    for name in ("overlaps.overlap", "overlaps.overlaptriple",
                 "overlaps.triple_overlap_product", "overlaps.branched_sqrt_det",
                 "superposition.exact_norm", "superposition.fast_norm",
                 "evolution.apply_unitary", "evolution.apply_squeeze",
                 "measurement.postmeasure", "circuit.parse_circuit",
                 "core.validate_description"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("overlaps.overlap", "superposition.exact_norm", "superposition.fast_norm",
                 "evolution.apply_squeeze", "circuit.evolve"):
        m[f"{name}.total_s"] = (get(name, "total_s"), "s")
    calls = get("overlaps.overlap", "calls")
    m["overlaps.overlap.us_per_call"] = (
        1e6 * get("overlaps.overlap", "total_s") / calls if calls else 0.0, "us")
    m["overlaps.errors"] = (summary["phase_errors"], "count")
    gram_pairs = under.get(("superposition.exact_norm", "overlaps.overlap"), [0, 0.0])
    m["superposition.exact_norm.pairs_per_density"] = (gram_pairs[0] / densities, "count")
    probes = under.get(("superposition.fast_norm", "overlaps.overlap"), [0, 0.0])
    m["superposition.fast_norm.samples"] = (samples, "count")
    m["superposition.fast_norm.branch_probes"] = (probes[0], "count")
    m["superposition.fast_norm.us_per_branch_probe"] = (
        1e6 * probes[1] / probes[0] if probes[0] else 0.0, "us")
    for name in ("superposition.superposition_energy_exact",
                 "superposition.post_measurement_superposition", "circuit.evolve"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    m["fock.self_s"] = (summary["modules"].get("fock", 0.0), "s")
    m["states.self_s"] = (summary["modules"].get("states", 0.0), "s")
    m["measurement.dropped_branches"] = (summary["dropped_branches"], "count")
    m["trace.densities"] = (densities, "count")
    return m


def traced_replay(gaussum, blocks: list) -> tuple[dict, dict]:
    """Replay the latency sample untraced, then traced; per-layer metrics."""
    _, untraced, wall_u = serve(gaussum, blocks, 0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced, wall_t = serve(gaussum, blocks, 0.0)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    summary = tracing.summarize(spans)
    summary["dropped_branches"] = tracer.dropped_branches
    densities = sum(1 for r in traced if r[2] is None)
    samples = sum(r[3].samples or 0 for r in traced if r[2] is None)
    metrics = layer_metrics(summary, max(densities, 1), samples)
    rate_u = densities_per_s(untraced, wall_u)
    rate_t = densities_per_s(traced, wall_t)
    metrics["trace.densities_per_s"] = (rate_t, "1/s")
    metrics["trace.untraced_densities_per_s"] = (rate_u, "1/s")
    metrics["trace.overhead"] = (rate_u / rate_t if rate_t else 0.0, "ratio")
    extra = {"failures_traced": failures_by_type(traced),
             "failures_untraced": failures_by_type(untraced),
             "spans": spans, "records": traced}
    return metrics, extra


def write_spans(path: Path, spans: list) -> None:
    """Spans as gzip'd JSON rows; names and errors index the tables, times
    are microseconds from the first span."""
    names = sorted({s[1] for s in spans} | {s[5] for s in spans if s[5]})
    index = {name: i for i, name in enumerate(names)}
    t0 = min((s[2] for s in spans), default=0.0)
    rows = [[sid, index[name], round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1),
             parent, index[error] if error else None]
            for sid, name, start, end, parent, error in spans]
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"names": names, "fields": ["id", "name", "start_us", "end_us",
                                              "parent", "error"], "spans": rows}, handle)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(args) -> dict:
    t0 = perf_counter()
    gaussum, blocks = set_up(args.workload, args.seed, args.seconds)
    setup_here = perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines = [f"perfbench {name}: latency sample of {len(blocks)} blocks x "
             f"{len(blocks[0])} requests, closed loop, one client"]
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "latency_blocks": len(blocks),
                    "setup_in_process_s": setup_here}
    if args.trace:
        layer, extra = traced_replay(gaussum, blocks)
        records = sample = extra["records"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz", extra["spans"])
        report["failures_untraced"] = extra["failures_untraced"]
        lines += [f"  {k:52s} {_fmt(v['value'])} {v['unit']}" for k, v in metrics.items()]
    else:
        sample, records, wall = serve(gaussum, blocks, args.seconds)
        rss = peak_rss_mb()
        stats = latency_stats(sample)
        report.update(stats, timed_wall_s=wall, served=len(records))
        metrics = {
            "latency_p50_s": stats["latency_p50_s"],
            "latency_tail_s": stats["latency_tail_s"],
            "densities_per_s": densities_per_s(records, wall),
            "peak_rss_mb": rss,
        }
    failures = failures_by_type(records)
    t_checks = perf_counter()
    out_checks = output_checks(gaussum, args.seed, sample)
    oracle_failed = sum(1 for row in out_checks["oracle"] if not row["ok"])
    failures.update({"OracleMismatch": oracle_failed} if oracle_failed else {})
    attempted = len(records)
    failed = sum(failures.values())
    correct = (failures.get("DensityOutOfRange", 0) == 0 and oracle_failed == 0
               and all(row["ok"] for row in out_checks["worker_identity"])
               and out_checks["cli_parity"]["ok"])
    t0 = perf_counter()
    sweep = checks.conditioning_sweep(gaussum)
    t1 = perf_counter()
    audit = checks.estimator_audit(gaussum, args.seed)
    t2 = perf_counter()
    report["untimed_s"] = {"checks": t0 - t_checks, "conditioning_sweep": t1 - t0,
                           "estimator_audit": t2 - t1}
    if not args.trace:
        setups = setup_seconds(args.workload, args.seed, args.seconds)
        report["setup_probes_s"] = setups
        metrics["setup_s"] = statistics.median(setups)
        lines += [
            f"  latency_p50_s    {_fmt(metrics['latency_p50_s'])} s",
            f"  latency_tail_s   {_fmt(metrics['latency_tail_s'])} s  "
            f"(p{report['tail_percentile']:.1f}: {report['requests_beyond_tail']} of "
            f"{report['sample_requests']} requests beyond it)",
            f"  densities_per_s  {_fmt(metrics['densities_per_s'])} 1/s  "
            f"({report['served']} requests in {report['timed_wall_s']:.2f} s)",
            f"  failed_share     {_fmt(failed / attempted)}  ({failed} of {attempted}: {failures})",
            f"  setup_s          {_fmt(metrics['setup_s'])} s  (median of {len(setups)} fresh processes)",
            f"  peak_rss_mb      {_fmt(metrics['peak_rss_mb'])} MB",
        ]
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    report.update(metrics=metrics, attempted=attempted, failed=failed, failures=failures,
                  correct=correct, checks=out_checks, conditioning_sweep=sweep,
                  estimator_audit=audit, machine=machine_facts(args.seed, args.seconds),
                  requests=[{"slot": r[0].slot, "latency_s": r[1], "error": r[2],
                             "p": None if r[3] is None else r[3].p} for r in records])
    oracle_diff = max((row["abs_diff"] for row in out_checks["oracle"]), default=0.0)
    lines += [
        f"checks: oracle {sum(r['ok'] for r in out_checks['oracle'])}/{len(out_checks['oracle'])}"
        f" within {checks.ORACLE_TOL:g} (max |dp| {oracle_diff:.2e}); worker bit-identity "
        f"{sum(r['ok'] for r in out_checks['worker_identity'])}/"
        f"{len(out_checks['worker_identity'])}; CLI parity "
        f"{'ok' if out_checks['cli_parity']['ok'] else 'FAILED'}",
        f"conditioning sweep (not gating): {sweep['failed']} of {sweep['total']} cases fail "
        f"{sweep['failed_by_type']}: "
        + ", ".join(k for k, v in sweep["cases"].items() if v != "ok"),
    ]
    lines += [f"estimator audit (not gating): {row['case']} eps={row['epsilon']} L={row['L']}: "
              f"{row['share_outside']:.2f} of {row['trials']} estimates outside (1+-eps), "
              f"p_fail {row['p_fail']}" for row in audit]
    lines.append("machine: " + json.dumps(report["machine"]))
    (OUT / f"{name}.json").write_text(json.dumps(report, default=str), encoding="utf-8")
    print("\n".join(lines), flush=True)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process; metrics are prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=True, timeout=900, stdout=subprocess.PIPE, text=True)
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_only:
        set_up(args.workload, args.seed, args.seconds)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
