"""Cache correctness of the indexed cold-compile plane (PR 3).

Two contracts:

* **Key sensitivity** — the ``indexed_kernels`` knob is part of every
  strategy's ``cache_signature()``, so fast-plane and reference-plane
  compilations key separate store entries and can never shadow each other.
* **Content compatibility** — a cached entry (codec round trip) estimated
  with :func:`~repro.noise.estimate_success` stays bit-identical to
  estimating the freshly compiled program, for every strategy.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import STRATEGIES
from repro.core.compiler import CompilationResult
from repro.noise import estimate_success
from repro.service import CompileService, CompileJob, cache_key, make_compiler
from repro.service.compile_service import build_device_for
from repro.workloads import benchmark_circuit

BENCH = "xeb(9,2)"
SEED = 2020


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cache_signature_changes_with_indexed_knob(strategy):
    device = build_device_for(BENCH)
    fast = make_compiler(strategy, device, indexed_kernels=True)
    reference = make_compiler(strategy, device, indexed_kernels=False)
    assert fast.cache_signature() != reference.cache_signature()
    assert fast.cache_signature()["indexed_kernels"] is True
    assert reference.cache_signature()["indexed_kernels"] is False

    circuit = benchmark_circuit(BENCH, seed=SEED)
    assert cache_key(fast, circuit) != cache_key(reference, circuit)


def test_service_knob_keys_disjoint_store_entries(tmp_path):
    """Fast and reference services sharing one store never collide."""
    job = CompileJob(benchmark=BENCH, strategy="ColorDynamic", seed=SEED)
    fast_service = CompileService(cache_dir=str(tmp_path), indexed_kernels=True)
    ref_service = CompileService(cache_dir=str(tmp_path), indexed_kernels=False)
    assert fast_service.job_key(job) != ref_service.job_key(job)

    fast_service.compile(job)
    # The reference service cannot be served by the fast entry: it misses.
    ref_service.compile(job)
    assert fast_service.stats.misses == 1
    assert ref_service.stats.misses == 1
    assert ref_service.stats.hits == 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_codec_round_trip_estimate_is_bit_exact(strategy):
    """Cached entries estimate bit-identically to the fresh program.

    fresh program --codec--> restored program --estimate_success--> report
    must equal estimate_success(fresh program) float for float.
    """
    device = build_device_for(BENCH)
    compiler = make_compiler(strategy, device)
    result = compiler.compile(benchmark_circuit(BENCH, seed=SEED))

    # Bit-exact JSON round trip, exactly what the program store persists.
    payload = json.loads(json.dumps(result.to_dict()))
    restored = CompilationResult.from_dict(payload)

    fresh_report = estimate_success(result.program)
    restored_report = estimate_success(restored.program)
    assert restored_report.success_rate == fresh_report.success_rate
    assert (
        restored_report.crosstalk_fidelity_product
        == fresh_report.crosstalk_fidelity_product
    )
    assert (
        restored_report.decoherence_fidelity_product
        == fresh_report.decoherence_fidelity_product
    )
    assert (
        restored_report.decoherence_error_per_qubit
        == fresh_report.decoherence_error_per_qubit
    )
    assert restored_report.worst_spectator_error == fresh_report.worst_spectator_error
    assert restored_report.duration_ns == fresh_report.duration_ns


def test_warm_hit_estimate_matches_cold(tmp_path):
    """End to end through the service: cold compile and warm load estimate
    bit-identically."""
    service = CompileService(cache_dir=str(tmp_path))
    job = CompileJob(benchmark=BENCH, strategy="ColorDynamic", seed=SEED)
    cold = service.compile(job)

    warm_service = CompileService(cache_dir=str(tmp_path))
    warm = warm_service.compile(job)
    assert warm.cache_hit

    cold_rate = estimate_success(cold.program).success_rate
    assert estimate_success(warm.program).success_rate == cold_rate
