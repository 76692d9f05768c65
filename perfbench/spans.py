"""Layer spans for the benchmark's traced run, kept in memory.

Spans are recorded only from this file: :meth:`Recorder.patched` wraps the
public entry point of each layer (listed in :data:`LAYER_PATCHES`) for the
duration of one traced pass and restores the originals afterwards, so the
traced pass runs exactly the code the untraced pass runs.  Each span keeps
its name, start, end, parent span and repeat id; :meth:`Recorder.write_chrome`
writes them as Chrome ``trace_event`` JSON (loadable in Perfetto, like the
traces ``repro.obs`` writes).
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List


def layer_patches() -> List[tuple]:
    """``(owner, attribute, span name, skip-under)`` per traced layer entry.

    *skip-under* names a parent span under which the wrapper records
    nothing: Baseline S compiles through a wrapped ColorDynamic, and that
    time belongs to ``baselines.compile``, not ``core.compile``.
    """
    from repro.baselines.base import BaselineCompiler
    from repro.baselines.static import BaselineStatic
    from repro.core.compiler import ColorDynamic, CompilationResult
    from repro.service import compile_service, remote_compile, store

    service_cls = compile_service.CompileService
    return [
        (compile_service, "benchmark_circuit", "workloads.circuit", None),
        (compile_service, "build_device_for", "devices.build", None),
        (compile_service, "make_compiler", "compilers.construct", None),
        (compile_service, "compiler_digest", "service.cache_key", None),
        (compile_service, "circuit_digest", "service.cache_key", None),
        (compile_service, "cache_key", "service.cache_key", None),
        (service_cls, "compile", "service.compile", None),
        (service_cls, "job_key", "service.job_key", None),
        (store.ProgramStore, "get", "store.get", None),
        (store.ProgramStore, "put", "store.put", None),
        (store.ProgramStore, "put_local", "store.put", None),
        (CompilationResult, "to_dict", "program.to_dict", None),
        (CompilationResult, "from_dict", "program.from_dict", None),
        (ColorDynamic, "compile", "core.compile", "baselines.compile"),
        (BaselineCompiler, "compile", "baselines.compile", None),
        (BaselineStatic, "compile", "baselines.compile", None),
        (remote_compile.RemoteCompileClient, "compile_jobs", "net.compile_call", None),
    ]


class Recorder:
    """Nested spans of one workload's traced passes.

    A span is the list ``[name, start_ns, end_ns, parent_index, repeat]``;
    ``parent_index`` is ``-1`` for a root span.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.repeat = 0
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.repeat])
        self._stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, name: str, func: Callable, skip_under) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if skip_under and self._stack and self.spans[self._stack[-1]][0] == skip_under:
                return func(*args, **kwargs)
            index = self._begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._end(index)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Record a span around every layer entry point inside the block."""
        saved = []
        try:
            for owner, attribute, name, skip_under in layer_patches():
                raw = vars(owner)[attribute]
                saved.append((owner, attribute, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, skip_under))
                else:
                    wrapped = self._wrap(name, raw, skip_under)
                setattr(owner, attribute, wrapped)
            yield self
        finally:
            for owner, attribute, raw in reversed(saved):
                setattr(owner, attribute, raw)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def layer_times(self, repeat: int) -> Dict[str, Dict[str, float]]:
        """Per span name in *repeat*: ``calls``, inclusive ``total_ms``, ``self_ms``.

        Self time is a span's duration minus the time its child spans
        cover; inclusive totals skip spans nested in a same-name span.
        """
        child_ns: Dict[int, int] = defaultdict(int)
        for name, start, end, parent, rep in self.spans:
            if rep == repeat and parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        for index, (name, start, end, parent, rep) in enumerate(self.spans):
            if rep != repeat:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_ms"] += (end - start - child_ns[index]) / 1e6
            if not self._has_ancestor_named(index, name):
                row["total_ms"] += (end - start) / 1e6
        return dict(out)

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def root_ms(self, repeat: int) -> float:
        """Time the root spans of *repeat* cover (they never overlap)."""
        return sum(
            (end - start) / 1e6
            for _, start, end, parent, rep in self.spans
            if rep == repeat and parent < 0
        )

    def write_chrome(self, path: Path) -> None:
        """Write every span as a Chrome ``trace_event`` complete event."""
        origin = min((span[1] for span in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": rep,
                "args": {
                    "id": index,
                    "parent": parent,
                    "workload": self.workload,
                    "repeat": rep,
                },
            }
            for index, (name, start, end, parent, rep) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def self_time_table(rows: Dict[str, Dict[str, float]], pass_ms: float) -> str:
    """Text table of per-layer calls, inclusive and self ms, self share."""
    lines = [
        f"{'layer':<22}{'calls':>8}{'total ms':>11}{'self ms':>10}{'self %':>8}"
    ]
    for name, row in sorted(rows.items(), key=lambda item: -item[1]["self_ms"]):
        share = 100.0 * row["self_ms"] / pass_ms if pass_ms else 0.0
        lines.append(
            f"{name:<22}{row['calls']:>8.0f}{row['total_ms']:>11.2f}"
            f"{row['self_ms']:>10.2f}{share:>7.1f}%"
        )
    return "\n".join(lines)
