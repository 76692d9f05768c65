"""Helpers shared by the benchmark modules.

Lives in a uniquely named module (not ``conftest``) so plain imports cannot
collide with the test tree's conftest modules in ``sys.modules``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Time a block with the pre-existing heap frozen out of the collector.

    In a full pytest session a perf suite runs after ~1700 tests whose
    surviving objects make every collection expensive, and the path that
    allocates more short-lived objects pays for those collections while the
    other barely triggers any — skewing a ratio by context rather than by
    code.  Collecting and then freezing the heap first makes standalone and
    in-suite runs measure the same thing.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
