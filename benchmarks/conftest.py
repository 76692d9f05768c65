"""Shared helpers for the figure-reproduction benchmark harness.

Every benchmark in this directory regenerates one table or figure of the
paper and prints the corresponding rows/series, while pytest-benchmark
records how long the experiment takes.  Experiments are executed once per
benchmark (``pedantic`` mode) because they are deterministic and some of the
larger sweeps take seconds.

The ``test_perf_*`` modules (the ones asserting speedup targets) carry the
``perf`` marker and honour the ``REPRO_SKIP_PERF=1`` environment knob, so
developers off-CI can run the figure benchmarks without paying for the perf
gates: ``REPRO_SKIP_PERF=1 pytest benchmarks``.

A plain ``pytest`` run leaves the tree untouched: the perf modules rewrite
the tracked ``BENCH_compile.json``, ``BENCH_estimator.json`` and
``BENCH_obs.json`` at the repo root only when asked to, with
``pytest benchmarks --write-bench``.  Their assertions run either way.
"""

from __future__ import annotations

import os

import pytest

from repro.service.testing import hermetic_cache_env


def pytest_addoption(parser):
    parser.addoption(
        "--write-bench",
        action="store_true",
        default=False,
        help="let the test_perf_* benchmarks rewrite the tracked BENCH_*.json files",
    )


@pytest.fixture()
def write_bench(request) -> bool:
    """Whether this run may rewrite the tracked ``BENCH_*.json`` files."""
    return request.config.getoption("--write-bench")


def pytest_collection_modifyitems(config, items):
    skip_perf = os.environ.get("REPRO_SKIP_PERF", "").strip() not in ("", "0", "false")
    marker = pytest.mark.skip(reason="perf benchmarks disabled via REPRO_SKIP_PERF")
    for item in items:
        if os.path.basename(item.fspath.strpath).startswith("test_perf_"):
            item.add_marker(pytest.mark.perf)
            if skip_perf:
                item.add_marker(marker)


@pytest.fixture(scope="session", autouse=True)
def _isolated_program_cache(tmp_path_factory):
    """Keep benchmark timings hermetic: temp program store, pinned cache env."""
    with hermetic_cache_env(str(tmp_path_factory.mktemp("program-cache"))):
        yield


