#!/usr/bin/env python3
"""End-to-end benchmark of the Fig. 9 grid: 22 benchmarks x 5 strategies.

Run from the repository root::

    python3 perfbench/run.py --workload fig09_warm --seed 2020 --seconds 15 --trace 0

Each workload times a real CLI command as a subprocess (``wall_s``,
``peak_rss_mb``) and an in-process library pass over the same
``figure_compile_jobs("fig09", seed)`` grid: ``CompileService.compile(job)``
then ``estimate_success`` per point, as ``SweepRunner``'s serial path does
(``points_per_s``, ``point_ms_p50``/``p90``).  One client, serial, closed
loop.  ``--trace 1`` runs the per-layer breakdown instead: spans around each
layer's public entry point (``perfbench/spans.py``), a self-time table on
stdout and a Chrome trace under ``perfbench/out/``.

Every grid point is checked: success rate, depth, duration, color count and
a sha256 of the compiled program must equal ``expected_fig09_seed2020.json``
(seed 2020) or the reference compile path (``indexed_kernels=False``, other
seeds).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a mismatch exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected_fig09_seed2020.json"
EXPECTED_SEED = 2020
# The fixture is built this often so setup_s rests on a median; the traced
# run builds it once.
SETUP_REPEATS = 3
# Fewest timed repeats per run, whatever --seconds says.
MIN_REPEATS = 3
IMPORT_PROBES = 5

Point = Tuple[str, str]


def point_of(job) -> Point:
    return (job.benchmark, job.strategy)


def program_sha256(result) -> str:
    """sha256 of the program codec, minus its one volatile field (compile time)."""
    program = result.to_dict()["program"]
    program["metadata"].pop("compile_time_s", None)
    return hashlib.sha256(
        json.dumps(program, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def point_record(result, success: Optional[float], full: bool = True) -> dict:
    """The checked outputs of one grid point.

    The program hash costs about as much as the pass it checks, so only
    the first kept repeat of a run is checked *full*; later repeats check
    the cheap fields (the success rate is a bit-exact function of the whole
    program).  ``success=None`` leaves the success rate unchecked.
    """
    record = {
        "depth": result.program.depth,
        "duration_ns": result.program.total_duration_ns,
        "max_colors": result.max_colors_used,
    }
    if success is not None:
        record["success_rate"] = success
    if full:
        record["program_sha256"] = program_sha256(result)
    return record


def reference_records(jobs) -> Dict[Point, dict]:
    """Outputs of the reference compile path (networkx/scalar kernels)."""
    from repro.noise import NoiseModel, estimate_success
    from repro.service import CompileService

    service = CompileService(enabled=False, indexed_kernels=False, remote_compile="")
    model = NoiseModel()
    records = {}
    for job in jobs:
        result = service.compile(job)
        success = estimate_success(result.program, model).success_rate
        records[point_of(job)] = point_record(result, success)
    return records


def load_expected() -> Dict[Point, dict]:
    rows = json.loads(EXPECTED.read_text())
    return {(row.pop("benchmark"), row.pop("strategy")): row for row in rows}


def cd_vs_u_geomean(records: Dict[Point, dict]) -> float:
    """Geometric mean over benchmarks of ColorDynamic / Baseline U success."""
    benchmarks = sorted({b for b, _ in records})
    logs = [
        math.log(records[(b, "ColorDynamic")]["success_rate"])
        - math.log(records[(b, "Baseline U")]["success_rate"])
        for b in benchmarks
    ]
    return math.exp(sum(logs) / len(logs))


# ---------------------------------------------------------------------------
# subprocesses: the CLI under test and the cache server
# ---------------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """The environment with every REPRO_* knob removed and src/ importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_cli(args: List[str], env: Dict[str, str]) -> Tuple[float, float, int, str]:
    """Run ``python -m repro ARGS``: (wall s, peak RSS MB, exit code, stdout)."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=out, stderr=err, env=env, cwd=ROOT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode()
        if code != 0:
            sys.stderr.write(f"repro {' '.join(args)} exited {code}:\n{err.read().decode()}")
    return wall, usage.ru_maxrss / 1024.0, code, stdout


def parse_prometheus(text: str) -> Dict[Tuple[str, frozenset], float]:
    series = {}
    for line in text.splitlines():
        match = re.match(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$", line)
        if match:
            labels = frozenset(re.findall(r'(\w+)="([^"]*)"', match.group(2) or ""))
            series[(match.group(1), labels)] = float(match.group(3))
    return series


class ServerProcess:
    """``python -m repro cache serve`` on a free loopback port."""

    def __init__(self, root: Path, env: Dict[str, str]) -> None:
        self.log = root.parent / f"{root.name}.log"
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", "cache", "serve",
                 "--cache-dir", str(root), "--port", "0"],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            )
        try:
            self.url = self._await_url()
        except BaseException:
            self.close()
            raise

    def _await_url(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(r" at (http://\S+)", self.log.read_text())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"cache server did not start:\n{self.log.read_text()}")

    def counters(self) -> Dict[str, float]:
        """Request counts per route class and compile outcomes, cumulative."""
        with urllib.request.urlopen(self.url + "/metrics", timeout=30) as response:
            series = parse_prometheus(response.read().decode())
        out = {"compile": 0.0, "store": 0.0, "hit": 0.0, "compiled": 0.0,
               "deduplicated": 0.0, "throttled": 0.0}
        for (name, labels), value in series.items():
            labels = dict(labels)
            if name == "repro_server_request_seconds_count":
                route = labels.get("route")
                if route == "compile":
                    out["compile"] += value
                elif route in ("entry", "batch", "list"):
                    out["store"] += value
            elif name == "repro_server_compile_jobs_total":
                if labels.get("outcome") in out:
                    out[labels["outcome"]] += value
            elif name == "repro_server_compile_throttled_total":
                out["throttled"] += value
        return out

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
class Context:
    """Per-run state: seed, grid, scratch directory, fixtures."""

    def __init__(self, seed: int, work: Path) -> None:
        from repro.analysis import figure_compile_jobs

        self.seed = seed
        self.work = work
        self.env = child_env()
        self.jobs = figure_compile_jobs("fig09", seed=seed)
        self.server: Optional[ServerProcess] = None
        self.template: Optional[Path] = None
        self._dirs = 0

    def fresh_dir(self, tag: str) -> Path:
        self._dirs += 1
        return self.work / f"{tag}-{self._dirs}"


class Workload:
    """One set of inputs; subclasses name the CLI command and the store."""

    #: Whether the library pass runs the Eq. (4) estimate per point.
    estimates = True
    #: Whether every point must come from the store or the server (a local
    #: compile in the timed repeats is then a failure).
    all_served = False

    def setup(self, ctx: Context) -> None:
        """Build the fixture the timed repeats need (part of ``setup_s``)."""

    def teardown(self, ctx: Context) -> None:
        """Release the fixture."""

    def repeat_store(self, ctx: Context) -> Optional[Path]:
        """A fresh store directory for one repeat (``None``: no store)."""
        return ctx.fresh_dir("store")

    def cli_args(self, ctx: Context, store: Optional[Path]) -> List[str]:
        return ["figure", "fig09", "--seed", str(ctx.seed), "--cache-dir", str(store)]

    def service_args(self, ctx: Context, store: Optional[Path]) -> dict:
        """``CompileService`` arguments (``SweepRunner`` takes the same knobs)."""
        return {"cache_dir": str(store), "enabled": True, "remote_cache": "",
                "remote_compile": ""}


class NoCache(Workload):
    def repeat_store(self, ctx):
        return None

    def cli_args(self, ctx, store):
        return ["figure", "fig09", "--seed", str(ctx.seed), "--no-cache"]

    def service_args(self, ctx, store):
        return {"enabled": False, "remote_compile": ""}


class Warm(Workload):
    all_served = True

    def setup(self, ctx):
        from repro.service import CompileService

        ctx.template = ctx.fresh_dir("template")
        CompileService(**super().service_args(ctx, ctx.template)).compile_batch(ctx.jobs)

    def teardown(self, ctx):
        if ctx.template is not None:
            shutil.rmtree(ctx.template, ignore_errors=True)
            ctx.template = None

    def repeat_store(self, ctx):
        store = ctx.fresh_dir("store")
        shutil.copytree(ctx.template, store)
        return store


class Fill(Workload):
    estimates = False

    def cli_args(self, ctx, store):
        return ["cache", "warm", "fig09", "--seed", str(ctx.seed), "--cache-dir", str(store)]


class Remote(Workload):
    all_served = True

    def setup(self, ctx):
        from repro.service.remote_compile import RemoteCompileClient

        ctx.server = ServerProcess(ctx.fresh_dir("server"), ctx.env)
        # Warm it the way a first client would: the server compiles the grid.
        if RemoteCompileClient(ctx.server.url).compile_jobs(ctx.jobs) is None:
            raise RuntimeError(f"warming the cache server failed:\n{ctx.server.log.read_text()}")

    def teardown(self, ctx):
        if ctx.server is not None:
            ctx.server.close()
            ctx.server = None

    def cli_args(self, ctx, store):
        return super().cli_args(ctx, store) + ["--remote-compile", ctx.server.url]

    def service_args(self, ctx, store):
        return dict(super().service_args(ctx, store), remote_compile=ctx.server.url)


WORKLOADS = {
    "fig09_nocache": NoCache(),
    "fig09_warm": Warm(),
    "fig09_fill": Fill(),
    "fig09_remote": Remote(),
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
class Run:
    """Everything one benchmark run measured, plus the outputs to check."""

    def __init__(self, workload: Workload, ctx: Context) -> None:
        self.workload = workload
        self.ctx = ctx
        self.cli_walls: List[float] = []
        self.cli_rss: List[float] = []
        self.latencies_ms: List[float] = []
        self.record_sets: List[Tuple[str, Dict[Point, dict]]] = []
        self.figure_outputs: List[Tuple[str, str]] = []
        self.sweeps: List[dict] = []
        self.reference: Dict[Point, dict] = {}
        self.failed = 0  # failures known before the output comparison
        self.attempted = 0
        self.cli_kept = 0
        self.passes_kept = 0
        self._keys: Optional[Dict[Point, str]] = None

    # -- helpers -----------------------------------------------------------
    def _server_counters(self) -> Optional[Dict[str, float]]:
        server = self.ctx.server
        return server.counters() if server is not None else None

    def _server_delta(self, before) -> Dict[str, float]:
        if before is None:
            return {}
        after = self._server_counters()
        return {k: after[k] - before[k] for k in before}

    def _check_store(self, store: Path, full: bool, source: str) -> None:
        """Check a filled store: every entry decoded and scored when *full*,
        else only the entry count."""
        from repro.service import ProgramStore

        if full:
            self.record_sets.append((source, self._stored_records(store)))
        else:
            missing = len(self.ctx.jobs) - ProgramStore(store).stats()["entries"]
            if missing:
                sys.stderr.write(f"{source}: {missing} entr(ies) missing\n")
                self.failed += abs(missing)

    def _stored_records(self, store: Path) -> Dict[Point, dict]:
        """Decode every stored entry of the grid and score it."""
        from repro.core.compiler import CompilationResult
        from repro.noise import NoiseModel, estimate_success
        from repro.service import CompileService, ProgramStore

        if self._keys is None:
            keyer = CompileService(enabled=False, remote_compile="")
            self._keys = {point_of(job): keyer.job_key(job) for job in self.ctx.jobs}
        programs = ProgramStore(store)
        model = NoiseModel()
        records = {}
        for point, key in self._keys.items():
            payload = programs.get(key)
            if payload is not None:
                result = CompilationResult.from_dict(payload)
                success = estimate_success(result.program, model).success_rate
                records[point] = point_record(result, success)
        return records

    # -- the two measured commands -------------------------------------------
    def cli(self, keep: bool = True) -> None:
        store = self.workload.repeat_store(self.ctx)
        args = self.workload.cli_args(self.ctx, store)
        before = self._server_counters()
        wall, rss, code, stdout = run_cli(args, self.ctx.env)
        if keep:
            # The server was warmed during set-up: any compile now is a failure.
            self.failed += int(self._server_delta(before).get("compiled", 0))
            self.cli_walls.append(wall)
            self.cli_rss.append(rss)
            self.attempted += len(self.ctx.jobs)
            if code != 0:
                self.failed += len(self.ctx.jobs)
            elif args[0] == "figure":
                self.figure_outputs.append((" ".join(args[:2]), stdout))
            else:
                expected = f"{len(self.ctx.jobs)} job(s) -> {len(self.ctx.jobs)} compiled, 0 already cached"
                if expected not in stdout:
                    sys.stderr.write(f"unexpected `cache warm` output:\n{stdout}")
                    self.failed += len(self.ctx.jobs)
                else:
                    self._check_store(store, self.cli_kept == 0, "cli store")
            self.cli_kept += 1
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)

    def library_pass(self, recorder=None, keep: bool = True) -> dict:
        """One pass over the grid; returns its wall time, stats and counters."""
        from repro.noise import NoiseModel, estimate_success
        from repro.service import CompileService

        store = self.workload.repeat_store(self.ctx)
        service = CompileService(**self.workload.service_args(self.ctx, store))
        model = NoiseModel()
        estimates = self.workload.estimates
        span = recorder.span if recorder is not None else (lambda name: contextlib.nullcontext())
        tracing = recorder.patched() if recorder is not None else contextlib.nullcontext()
        outcomes = []
        before = self._server_counters()
        gc.collect()
        with tracing:
            start = time.perf_counter()
            for job in self.ctx.jobs:
                t0 = time.perf_counter()
                success = None
                try:
                    result = service.compile(job)
                    if estimates:
                        with span("noise.estimate"):
                            success = estimate_success(result.program, model).success_rate
                except Exception:
                    traceback.print_exc()
                    result = None
                outcomes.append((job, result, success, (time.perf_counter() - t0) * 1e3))
            wall = time.perf_counter() - start
        delta = self._server_delta(before)
        if not keep:
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)
            return {"wall": wall}
        full = self.passes_kept == 0
        self.passes_kept += 1
        self.attempted += len(outcomes)
        self.failed += int(delta.get("compiled", 0))
        stats = service.stats
        if self.workload.all_served:
            self.failed += stats.misses
        if estimates or not full:
            records = {point_of(j): point_record(r, s, full) for j, r, s, _ in outcomes
                       if r is not None}
            self.record_sets.append(("library pass", records))
        if not estimates:
            self._check_store(store, full, "library pass store")
        self.latencies_ms.extend(ms for *_, ms in outcomes)
        depth_total = sum(r.program.depth for _, r, _, _ in outcomes if r is not None)
        store_stats = service.store.stats() if service.store is not None else {}
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
        return {
            "wall": wall,
            "stats": stats.snapshot(),
            "server": delta,
            "depth_total": depth_total,
            "store_bytes": store_stats.get("total_bytes", 0),
            "store_entries": store_stats.get("entries", 0),
        }

    def sweep(self) -> float:
        """``fig09_success_rates`` through a serial ``SweepRunner``."""
        from repro.analysis import SweepRunner, clear_sweep_caches, fig09_success_rates

        store = self.workload.repeat_store(self.ctx)
        knobs = self.workload.service_args(self.ctx, store)
        runner = SweepRunner(
            max_workers=1,
            cache_dir=knobs.get("cache_dir"),
            use_cache=knobs["enabled"],
            remote_cache=knobs.get("remote_cache"),
            remote_compile=knobs["remote_compile"],
        )
        clear_sweep_caches()
        gc.collect()
        start = time.perf_counter()
        results = fig09_success_rates(seed=self.ctx.seed, runner=runner)
        wall = time.perf_counter() - start
        outcomes = {(b, s): o for b, row in results.items() for s, o in row.items()}
        self.sweeps.append(outcomes)
        self.attempted += len(outcomes)
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
        return wall

    # -- output check ----------------------------------------------------------
    def check(self) -> int:
        """Compare every recorded output with the reference; returns failures."""
        jobs = self.ctx.jobs
        if self.ctx.seed == EXPECTED_SEED:
            reference = load_expected()
        else:
            reference = reference_records(jobs)
        failed = self.failed
        for source, records in self.record_sets:
            bad = []
            for point in map(point_of, jobs):
                record = records.get(point)
                if record is None or any(reference[point][k] != v for k, v in record.items()):
                    bad.append(point)
            failed += len(bad)
            if bad:
                sys.stderr.write(f"{source}: {len(bad)} point(s) differ, e.g. {bad[0]}\n")
        self.reference = reference
        for source, stdout in self.figure_outputs:
            failed += check_figure_stdout(stdout, reference, source)
        fields = ("success_rate", "depth", "duration_ns", "max_colors")
        for outcomes in self.sweeps:
            for job in jobs:
                outcome = outcomes.get(point_of(job))
                expect = reference[point_of(job)]
                got = outcome and (outcome.success_rate, outcome.depth,
                                   outcome.duration_ns, outcome.max_colors)
                if got != tuple(expect[f] for f in fields):
                    failed += 1
        return failed


def check_figure_stdout(stdout: str, reference: Dict[Point, dict], source: str) -> int:
    """Failures in ``figure fig09`` output: table cells and the headline."""
    from repro.analysis import STRATEGIES

    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 1 + len(STRATEGIES):
            rows[parts[0]] = parts[1:]
    failed = 0
    for (benchmark, strategy), record in reference.items():
        cells = rows.get(benchmark)
        expect = format(record["success_rate"], ".3g")
        if cells is None or cells[STRATEGIES.index(strategy)] != expect:
            failed += 1
    benchmarks = sorted({b for b, _ in reference})
    ratios = [
        reference[(b, "ColorDynamic")]["success_rate"] / reference[(b, "Baseline U")]["success_rate"]
        for b in benchmarks
    ]
    headline = f"ColorDynamic vs Baseline U: {sum(ratios) / len(ratios):.1f}x mean"
    if headline not in stdout:
        failed += len(reference)
    if failed:
        sys.stderr.write(f"{source}: {failed} point(s) differ from the reference\n")
    return failed


def measure(workload: Workload, ctx: Context, seconds: float) -> Tuple[Run, dict, dict]:
    """The untraced run: end-to-end metrics."""
    run = Run(workload, ctx)
    # setup_s: the median fixture build (store pre-fill, server start and
    # warm-up) plus the discarded first CLI run and library pass, which
    # warm the OS and interpreter caches once.
    fixtures = []
    for index in range(SETUP_REPEATS):
        if index:
            workload.teardown(ctx)
        start = time.perf_counter()
        workload.setup(ctx)
        fixtures.append(time.perf_counter() - start)
    start = time.perf_counter()
    run.cli(keep=False)
    run.library_pass(keep=False)
    setup_s = statistics.median(fixtures) + time.perf_counter() - start
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
        run.cli()
        walls.append(run.library_pass()["wall"])
    failed = run.check()
    # The paper's headline, from the last fully scored outputs of this run
    # (the decoded stored entries on fig09_fill, which runs no estimate).
    scored = [records for _, records in run.record_sets
              if len(records) == len(ctx.jobs)
              and all("success_rate" in r for r in records.values())]
    deciles = statistics.quantiles(run.latencies_ms, n=10, method="inclusive")
    metrics = {
        "wall_s": (statistics.median(run.cli_walls), "s"),
        "points_per_s": (statistics.median(len(ctx.jobs) / w for w in walls), "1/s"),
        "point_ms_p50": (deciles[4], "ms"),
        "point_ms_p90": (deciles[8], "ms"),
        "peak_rss_mb": (statistics.median(run.cli_rss), "MB"),
        "setup_s": (setup_s, "s"),
        "cd_vs_u_geomean": (cd_vs_u_geomean(scored[-1] if scored else run.reference), "ratio"),
    }
    info = {
        "cli_runs": len(run.cli_walls),
        "library_passes": len(walls),
        "latency_samples": len(run.latencies_ms),
        "fixture_builds": len(fixtures),
    }
    return run, metrics, {"failed": failed, **info}


def layer_metrics(workload_name: str, workload: Workload, ctx: Context,
                  seconds: float) -> Tuple[Run, dict, dict]:
    """The traced run: per-layer metrics, self-time table and Chrome trace."""
    from repro.service import CompileService
    from repro.workloads import benchmark_circuit
    from spans import Recorder, self_time_table

    run = Run(workload, ctx)
    workload.setup(ctx)
    run.library_pass(keep=False)
    imports = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], env=ctx.env, cwd=ROOT,
                       check=True)
        imports.append(time.perf_counter() - start)
    recorder = Recorder(workload_name)
    untraced, traced_passes, key_ms, sweeps, covered = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_passes) < MIN_REPEATS or time.perf_counter() < deadline:
        # Alternate which pass goes first, so neither always follows the sweep.
        first_untraced = len(traced_passes) % 2 == 0
        if first_untraced:
            untraced.append(run.library_pass()["wall"])
        recorder.repeat = len(traced_passes)
        traced_passes.append(run.library_pass(recorder))
        if not first_untraced:
            untraced.append(run.library_pass()["wall"])
        wall_ms = traced_passes[-1]["wall"] * 1e3
        covered.append(recorder.root_ms(recorder.repeat) / wall_ms)
        keyer = CompileService(enabled=False, remote_compile="")
        start = time.perf_counter()
        for job in ctx.jobs:
            keyer.job_key(job)
        key_ms.append((time.perf_counter() - start) * 1e3)
        sweeps.append(run.sweep())
    failed = run.check()
    trace_path = OUT / f"trace-{workload_name}-seed{ctx.seed}.json"
    recorder.write_chrome(trace_path)

    traced = [p["wall"] for p in traced_passes]
    per_repeat = [recorder.layer_times(i) for i in range(len(traced))]

    def layer_ms(name: str) -> float:
        return statistics.median(rows.get(name, {}).get("total_ms", 0.0) for rows in per_repeat)

    def pass_median(get) -> float:
        return statistics.median(get(p) for p in traced_passes)

    server = {k: pass_median(lambda p, k=k: p["server"].get(k, 0.0))
              for k in ("compile", "store", "hit", "compiled", "deduplicated", "throttled")}
    gates = sum(len(benchmark_circuit(b, seed=ctx.seed).gates)
                for b in dict.fromkeys(job.benchmark for job in ctx.jobs))
    stats = {k: pass_median(lambda p, k=k: p["stats"][k])
             for k in ("hits", "misses", "remote_compiles", "hit_rate",
                       "load_time_s", "compile_time_s")}
    entries = pass_median(lambda p: p["store_entries"])
    store_bytes = pass_median(lambda p: p["store_bytes"])
    metrics = {
        "import.repro_s": (statistics.median(imports), "s"),
        "analysis.sweep_s": (statistics.median(sweeps), "s"),
        "workloads.circuit_ms": (layer_ms("workloads.circuit"), "ms"),
        "workloads.gates": (gates, "count"),
        "devices.build_ms": (layer_ms("devices.build"), "ms"),
        "compilers.construct_ms": (layer_ms("compilers.construct"), "ms"),
        "core.compile_ms": (layer_ms("core.compile"), "ms"),
        "baselines.compile_ms": (layer_ms("baselines.compile"), "ms"),
        "program.depth_total": (pass_median(lambda p: p["depth_total"]), "count"),
        "noise.estimate_ms": (layer_ms("noise.estimate"), "ms"),
        "service.job_key_ms": (statistics.median(key_ms), "ms"),
        "service.cache_key_ms": (layer_ms("service.cache_key"), "ms"),
        "store.get_ms": (layer_ms("store.get"), "ms"),
        "program.from_dict_ms": (layer_ms("program.from_dict"), "ms"),
        "program.to_dict_ms": (layer_ms("program.to_dict"), "ms"),
        "store.put_ms": (layer_ms("store.put"), "ms"),
        "store.bytes": (store_bytes, "bytes"),
        "program.entry_bytes_mean": (store_bytes / entries if entries else 0.0, "bytes"),
        "service.hits": (stats["hits"], "count"),
        "service.misses": (stats["misses"], "count"),
        "service.remote_compiles": (stats["remote_compiles"], "count"),
        "service.hit_ratio": (stats["hit_rate"], "ratio"),
        "service.load_time_s": (stats["load_time_s"], "s"),
        "service.compile_time_s": (stats["compile_time_s"], "s"),
        "net.requests.compile": (server["compile"], "count"),
        "net.requests.store": (server["store"], "count"),
        "net.round_trips": (server["compile"] + server["store"], "count"),
        "net.compile_call_ms": (layer_ms("net.compile_call"), "ms"),
        "server.compile_hits": (server["hit"], "count"),
        "server.compile_compiled": (server["compiled"], "count"),
        "server.compile_deduplicated": (server["deduplicated"], "count"),
        "server.throttled": (server["throttled"], "count"),
        "trace.coverage": (statistics.median(covered), "ratio"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced), "ratio"),
    }
    mean_rows: Dict[str, Dict[str, float]] = {}
    for rows in per_repeat:
        for name, row in rows.items():
            acc = mean_rows.setdefault(name, {"calls": 0.0, "total_ms": 0.0, "self_ms": 0.0})
            for field, value in row.items():
                acc[field] += value / len(per_repeat)
    print(f"per-layer self time, {workload_name}, seed {ctx.seed}, "
          f"mean of {len(traced)} traced passes (ms per grid):")
    print(self_time_table(mean_rows, statistics.mean(traced) * 1e3))
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    info = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
    }
    return run, metrics, {"failed": failed, **info}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected", action="store_true",
        help=f"rewrite {EXPECTED.name} from the reference compile path and exit",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_expected:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    if args.write_expected:
        return write_expected()
    signal.signal(signal.SIGTERM, _terminate)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    workload = WORKLOADS[args.workload]
    ctx = None
    try:
        ctx = Context(args.seed, work)
        if args.trace:
            run, metrics, info = layer_metrics(args.workload, workload, ctx, args.seconds)
        else:
            run, metrics, info = measure(workload, ctx, args.seconds)
    finally:
        if ctx is not None:
            workload.teardown(ctx)
        shutil.rmtree(work, ignore_errors=True)
    failed = info.pop("failed")
    print(f"{args.workload} seed {args.seed}: "
          + ", ".join(f"{k}={v:g}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    # Reported here and as failed/attempted below, not as an end-to-end
    # metric: it is 0 on every correct run, and those must never read 0.
    print(f"  {'failed_ratio':<28} {failed / run.attempted:>14.6g} ratio"
          f" ({failed} of {run.attempted} points)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def write_expected() -> int:
    """Regenerate the committed seed-2020 outputs from the reference path."""
    from repro.analysis import figure_compile_jobs

    jobs = figure_compile_jobs("fig09", seed=EXPECTED_SEED)
    records = reference_records(jobs)
    rows = [{"benchmark": b, "strategy": s, **records[(b, s)]} for b, s in map(point_of, jobs)]
    EXPECTED.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
