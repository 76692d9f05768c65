"""CompileService: hit/miss accounting, batch dedup, fan-out, overrides,
and the cyclic-GC pause around each entry point."""

import concurrent.futures
import gc
import threading

import pytest

from repro import Device, benchmark_circuit, estimate_success
from repro.analysis import figure_compile_jobs
from repro.core import ColorDynamic
from repro.service import (
    CompileJob,
    CompileService,
    ProgramStore,
    get_service,
    service_override,
)

JOB = CompileJob(benchmark="bv(4)", strategy="ColorDynamic")


class CannedRemote:
    """Stands in for the remote compile client: every job gets *payload*."""

    def __init__(self, payload):
        self.payload = payload

    def compile_jobs(self, jobs):
        return [self.payload for _ in jobs]


class TestSingleCompile:
    def test_miss_then_hit(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        cold = service.compile(JOB)
        warm = service.compile(JOB)
        assert cold.cache_hit is False
        assert warm.cache_hit is True
        assert service.stats.hits == 1
        assert service.stats.misses == 1
        assert service.stats.hit_rate == 0.5

    def test_hit_preserves_cold_compile_time(self, tmp_path):
        """Cache-hit loads are never reported as compile time."""
        service = CompileService(cache_dir=tmp_path)
        cold = service.compile(JOB)
        warm = CompileService(cache_dir=tmp_path).compile(JOB)
        assert warm.cache_hit is True
        assert warm.compile_time_s == cold.compile_time_s
        assert warm.compile_time == warm.compile_time_s
        assert warm.load_time_s > 0.0

    def test_hit_is_bit_identical(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        cold = estimate_success(service.compile(JOB).program)
        warm = estimate_success(service.compile(JOB).program)
        assert warm.success_rate == cold.success_rate
        assert warm.crosstalk_fidelity_product == cold.crosstalk_fidelity_product

    def test_hit_interns_live_device(self, tmp_path):
        """Warm loads share the compiler's Device (and its geometry caches)."""
        service = CompileService(cache_dir=tmp_path)
        service.compile(JOB)
        warm = service.compile(JOB)
        assert warm.cache_hit is True
        assert warm.program.device is service._compiler_for(JOB).device

    def test_cache_survives_service_instances(self, tmp_path):
        CompileService(cache_dir=tmp_path).compile(JOB)
        second = CompileService(cache_dir=tmp_path)
        assert second.compile(JOB).cache_hit is True
        assert second.stats.misses == 0

    def test_disabled_service_always_compiles(self, tmp_path):
        service = CompileService(cache_dir=tmp_path, enabled=False)
        assert service.store is None
        first = service.compile(JOB)
        second = service.compile(JOB)
        assert first.cache_hit is False and second.cache_hit is False
        assert service.stats.misses == 2
        assert ProgramStore(tmp_path).stats()["entries"] == 0

    def test_compile_circuit_direct(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        device = Device.grid(4, seed=5)
        circuit = benchmark_circuit("bv(4)", seed=5)
        cold = service.compile_circuit(ColorDynamic(device), circuit)
        warm = service.compile_circuit(ColorDynamic(device), circuit)
        assert cold.cache_hit is False and warm.cache_hit is True

    def test_hit_honours_requested_name(self, tmp_path):
        """A hit applies the caller's name, exactly like the miss path would."""
        service = CompileService(cache_dir=tmp_path)
        device = Device.grid(4, seed=5)
        circuit = benchmark_circuit("bv(4)", seed=5)
        cold = service.compile_circuit(ColorDynamic(device), circuit, name="first")
        assert cold.program.name == "first"
        warm = service.compile_circuit(ColorDynamic(device), circuit, name="second")
        assert warm.cache_hit is True
        assert warm.program.name == "second"
        default = service.compile_circuit(ColorDynamic(device), circuit)
        assert default.program.name == circuit.name

    @pytest.mark.parametrize("source", ["store", "remote"])
    @pytest.mark.parametrize(
        "payload", [{}, {"program": []}, {"program": "x"}], ids=["empty", "list", "str"]
    )
    def test_undecodable_entry_recompiles(self, tmp_path, source, payload):
        """A payload of the wrong shape degrades to a miss, not a crash.

        Stored (bit rot, hand-edited cache, foreign file) or served by a
        remote compile server alike.
        """
        if source == "store":
            CompileService(cache_dir=tmp_path).compile(JOB)
            service = CompileService(cache_dir=tmp_path)
            service.store.put(service.job_key(JOB), payload)
        else:
            service = CompileService(cache_dir=tmp_path, remote_compile="http://127.0.0.1:9")
            service._remote_client_instance = CannedRemote(payload)
        result = service.compile(JOB)
        assert result.cache_hit is False
        assert service.stats.misses == 1
        assert service.stats.remote_compiles == 0
        # The recompile repaired the entry.
        assert service.compile(JOB).cache_hit is True


class TestBatch:
    GRID = [
        CompileJob(benchmark="bv(4)", strategy="ColorDynamic"),
        CompileJob(benchmark="bv(4)", strategy="Baseline U"),
        CompileJob(benchmark="bv(4)", strategy="ColorDynamic"),  # duplicate
        CompileJob(benchmark="xeb(4,2)", strategy="ColorDynamic"),
    ]

    def test_in_batch_dedup(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        results = service.compile_batch(self.GRID)
        assert len(results) == len(self.GRID)
        assert service.stats.misses == 3
        assert service.stats.deduplicated == 1
        # Duplicate jobs share one result object.
        assert results[0] is results[2]

    def test_warm_batch_is_all_hits(self, tmp_path):
        CompileService(cache_dir=tmp_path).compile_batch(self.GRID)
        warm = CompileService(cache_dir=tmp_path)
        results = warm.compile_batch(self.GRID)
        assert warm.stats.misses == 0
        assert warm.stats.hits == 3
        assert all(r.cache_hit for r in results)

    def test_results_in_job_order(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        results = service.compile_batch(self.GRID)
        for job, result in zip(self.GRID, results):
            assert result.program.strategy == (
                "ColorDynamic" if job.strategy == "ColorDynamic" else job.strategy
            )
            assert result.program.name == job.benchmark

    def test_process_fanout_matches_serial(self, tmp_path):
        serial = CompileService(cache_dir=tmp_path / "serial").compile_batch(self.GRID)
        fanned = CompileService(cache_dir=tmp_path / "fanned").compile_batch(
            self.GRID, max_workers=2
        )
        for a, b in zip(serial, fanned):
            assert (
                estimate_success(a.program).success_rate
                == estimate_success(b.program).success_rate
            )
            assert a.program.depth == b.program.depth

    def test_fanout_persists_results(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        service.compile_batch(self.GRID, max_workers=2)
        warm = CompileService(cache_dir=tmp_path)
        warm.compile_batch(self.GRID)
        assert warm.stats.misses == 0


class TestServiceOverride:
    def test_override_installs_and_restores(self, tmp_path):
        original = get_service()
        with service_override(cache_dir=tmp_path) as scoped:
            assert get_service() is scoped
            assert scoped is not original
        assert get_service() is original

    def test_unknown_strategy_rejected(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        with pytest.raises(ValueError, match="unknown strategy"):
            service.compile(CompileJob(benchmark="bv(4)", strategy="Magic"))


class _ProbePool(concurrent.futures.ProcessPoolExecutor):
    """Records, before any job, whether a worker's cyclic GC is enabled."""

    worker_gc = []

    def map(self, fn, *iterables, **kwargs):
        _ProbePool.worker_gc.append(self.submit(gc.isenabled).result(timeout=60))
        return super().map(fn, *iterables, **kwargs)


@pytest.fixture()
def gc_enabled_after():
    """Leave the collector enabled whatever the test did to it."""
    yield
    gc.enable()


class TestGCDeferral:
    """Every entry point runs with the cyclic GC paused, then restores it."""

    GRID = [JOB, CompileJob(benchmark="xeb(4,2)", strategy="Baseline U")]

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
    def test_paused_inside_and_caller_state_restored(
        self, tmp_path, monkeypatch, gc_enabled_after, caller_enabled
    ):
        seen = []
        real_try_load = CompileService._try_load

        def probe(service, *args, **kwargs):
            seen.append(gc.isenabled())
            return real_try_load(service, *args, **kwargs)

        monkeypatch.setattr(CompileService, "_try_load", probe)
        service = CompileService(cache_dir=tmp_path)
        device = Device.grid(4, seed=5)
        circuit = benchmark_circuit("bv(4)", seed=5)
        if not caller_enabled:
            gc.disable()
        after = []
        for call in (
            lambda: service.compile(JOB),
            lambda: service.compile_circuit(ColorDynamic(device), circuit),
            lambda: service.compile_batch(self.GRID),
        ):
            call()
            after.append(gc.isenabled())
        assert len(seen) == 4 and not any(seen)
        assert after == [caller_enabled] * 3

    def test_state_restored_when_the_call_raises(self, tmp_path, gc_enabled_after):
        service = CompileService(cache_dir=tmp_path)
        with pytest.raises(ValueError, match="unknown strategy"):
            service.compile(CompileJob(benchmark="bv(4)", strategy="Magic"))
        assert gc.isenabled()
        with pytest.raises(ValueError, match="unknown strategy"):
            service.compile_batch([CompileJob(benchmark="bv(4)", strategy="Magic")])
        assert gc.isenabled()

    def test_overlapping_threads_leave_gc_enabled(
        self, tmp_path, monkeypatch, gc_enabled_after
    ):
        entered = {name: threading.Event() for name in ("a", "b")}
        release = {name: threading.Event() for name in ("a", "b")}

        def parked_try_load(service, key, device=None, name=None):
            entered[name].set()
            assert release[name].wait(timeout=60)
            return None

        monkeypatch.setattr(CompileService, "_try_load", parked_try_load)
        service = CompileService(cache_dir=tmp_path)
        threads = {
            name: threading.Thread(target=service.compile, args=(JOB,), kwargs={"name": name})
            for name in ("a", "b")
        }
        for name in ("a", "b"):
            threads[name].start()
            assert entered[name].wait(timeout=60)
        try:
            assert not gc.isenabled()
            release["a"].set()
            threads["a"].join(timeout=60)
            assert not threads["a"].is_alive()
            assert not gc.isenabled()  # "b" is still inside
        finally:
            release["a"].set()
            release["b"].set()
            threads["b"].join(timeout=60)
        assert not threads["b"].is_alive()
        assert gc.isenabled()

    def test_pool_workers_start_with_the_callers_gc_state(self, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ProbePool)
        monkeypatch.setattr(_ProbePool, "worker_gc", [])
        results = CompileService(cache_dir=tmp_path).compile_batch(self.GRID, max_workers=2)
        assert len(results) == len(self.GRID)
        assert _ProbePool.worker_gc == [True]
        assert gc.isenabled()

    def test_no_collection_starts_inside_compile_on_a_warm_fig09_pass(self, tmp_path):
        jobs = figure_compile_jobs("fig09")
        CompileService(cache_dir=tmp_path).compile_batch(jobs)
        service = CompileService(cache_dir=tmp_path)
        inside = [False]
        started = []

        def probe(phase, info):
            if phase == "start" and inside[0]:
                started.append(info["generation"])

        gc.callbacks.append(probe)
        try:
            for job in jobs:
                inside[0] = True
                try:
                    result = service.compile(job)
                finally:
                    inside[0] = False
                # The pass scores each point, as a sweep does; the call's
                # deferred collection runs at the first allocation after it
                # returns, so in here.
                assert result.cache_hit
                estimate_success(result.program)
        finally:
            gc.callbacks.remove(probe)
        assert started == []
