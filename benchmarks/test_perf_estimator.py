"""Perf tracking: scalar vs vectorized Eq. (4) estimator on the Fig. 9 suite.

Times both estimator engines on every compiled Fig. 9 benchmark plus a
36-qubit grid stress benchmark, asserts the vectorized engine's speedup
target on the stress case, and (under ``--write-bench``) writes
``BENCH_estimator.json`` at the repo root so the performance trajectory is
tracked from PR to PR.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchlib import frozen_heap, run_once

from repro.analysis import format_table
from repro.analysis.experiments import _make_compiler, build_device_for
from repro.noise import NoiseModel, estimate_success
from repro.workloads import benchmark_circuit, fig09_benchmarks

#: 6x6 grid benchmark backing the headline >= 5x speedup target.
STRESS_BENCHMARK = "xeb(36,15)"
SPEEDUP_TARGET = 5.0

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_estimator.json"


def _time_engines(program, model, repeats: int):
    """Best-of-``repeats`` wall times (seconds) of the scalar and vectorized engines.

    The two engines alternate within each repeat, so a slow stretch of a
    shared machine lands on both sides of the ratio instead of on one.
    """
    best = {False: float("inf"), True: float("inf")}
    for _ in range(repeats):
        for vectorized in (False, True):
            start = time.perf_counter()
            estimate_success(program, model, vectorized=vectorized)
            best[vectorized] = min(best[vectorized], time.perf_counter() - start)
    return best[False], best[True]


def _run_perf_suite():
    model = NoiseModel()
    suite = list(fig09_benchmarks()) + [STRESS_BENCHMARK]
    per_benchmark = {}
    scalar_total = 0.0
    vectorized_total = 0.0
    for name in suite:
        device = build_device_for(name)
        circuit = benchmark_circuit(name, seed=2020)
        program = _make_compiler("ColorDynamic", device).compile(circuit).program
        estimate_success(program, model)  # warm the geometry cache
        repeats = 5 if name == STRESS_BENCHMARK else 3
        scalar_s, vector_s = _time_engines(program, model, repeats)
        scalar_total += scalar_s
        vectorized_total += vector_s
        per_benchmark[name] = {
            "scalar_ms": scalar_s * 1e3,
            "vectorized_ms": vector_s * 1e3,
            "speedup": scalar_s / vector_s if vector_s > 0 else float("inf"),
        }
    return {
        "suite": "fig09 + stress",
        "stress_benchmark": STRESS_BENCHMARK,
        "speedup_target": SPEEDUP_TARGET,
        "scalar_total_ms": scalar_total * 1e3,
        "vectorized_total_ms": vectorized_total * 1e3,
        "overall_speedup": scalar_total / vectorized_total,
        "stress_speedup": per_benchmark[STRESS_BENCHMARK]["speedup"],
        "per_benchmark": per_benchmark,
    }


def test_perf_estimator(benchmark, write_bench):
    with frozen_heap():
        results = run_once(benchmark, _run_perf_suite)

    rows = [
        [name, row["scalar_ms"], row["vectorized_ms"], row["speedup"]]
        for name, row in results["per_benchmark"].items()
    ]
    print()
    print(
        format_table(
            ["benchmark", "scalar (ms)", "vectorized (ms)", "speedup"],
            rows,
            float_format="{:.3g}",
            title="Eq. (4) estimator — scalar vs vectorized",
        )
    )
    print(
        f"overall: {results['overall_speedup']:.1f}x, "
        f"stress ({STRESS_BENCHMARK}): {results['stress_speedup']:.1f}x "
        f"(target >= {SPEEDUP_TARGET:.0f}x)"
    )

    if write_bench:
        _RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")

    assert results["stress_speedup"] >= SPEEDUP_TARGET, (
        f"vectorized estimator only {results['stress_speedup']:.1f}x faster on "
        f"{STRESS_BENCHMARK}; target is {SPEEDUP_TARGET:.0f}x"
    )
    assert results["overall_speedup"] >= 2.0
