"""Baseline S: static (program-independent) frequency-aware compilation.

The full crosstalk graph of the device is colored once — eight colors on a
2-D mesh — and the resulting interaction frequencies are reused for every
program and every time step (the approach of most prior crosstalk-aware
optimizers, including the surface-code assignment of Versluis et al. and the
static Sycamore calibration).  Because the whole graph must be colorable at
once, the per-color frequency separation is much smaller than what
ColorDynamic achieves on the (far sparser) active subgraph of a single time
step — which is exactly why the dynamic strategy wins in Fig. 9.
"""

from __future__ import annotations

from typing import Optional

from ..core.compiler import ColorDynamic, CompilationResult
from ..core.partition import FrequencyPartition
from ..devices import Device

__all__ = ["BaselineStatic"]


class BaselineStatic:
    """Program-independent crosstalk-aware compilation (Baseline S of Table I)."""

    name = "Baseline S"

    def __init__(
        self,
        device: Device,
        *,
        decomposition: str = "hybrid",
        partition: Optional[FrequencyPartition] = None,
        crosstalk_distance: int = 1,
        use_routing: bool = True,
        indexed_kernels: bool = True,
    ) -> None:
        # Baseline S shares ColorDynamic's machinery but with dynamic
        # re-coloring disabled and without parallelism throttling (the static
        # assignment is safe for fully parallel execution by construction).
        self._compiler = ColorDynamic(
            device,
            crosstalk_distance=crosstalk_distance,
            max_colors=None,
            conflict_threshold=None,
            decomposition=decomposition,
            partition=partition,
            dynamic=False,
            use_routing=use_routing,
            indexed_kernels=indexed_kernels,
        )
        self.device = self._compiler.device
        self.indexed_kernels = indexed_kernels

    def cache_signature(self) -> dict:
        """Delegate to the wrapped ColorDynamic instance, tagged with this class.

        The wrapped compiler already runs with ``dynamic=False``, so its
        signature differs from a true ColorDynamic one; the explicit class
        tag keeps the two namespaces disjoint regardless.
        """
        signature = self._compiler.cache_signature()
        signature["class"] = type(self).__name__
        return signature

    def compile(self, circuit, name: Optional[str] = None) -> CompilationResult:
        """Compile *circuit* using the static full-graph frequency assignment."""
        result = self._compiler.compile(circuit, name=name)
        result.program.strategy = self.name
        return result
