"""Shared machinery for the baseline compilation strategies of Table I.

Every baseline shares the same pipeline shape as ColorDynamic — route,
decompose, schedule, annotate frequencies — but differs in how it schedules
and which frequencies it assigns.  :class:`BaselineCompiler` implements the
pipeline once and exposes four hooks:

* :meth:`_make_scheduler` — which scheduler (plain ASAP, serializing,
  tiling, ...) slices the circuit,
* :meth:`_idle_frequencies` — where idle qubits park,
* :meth:`_interaction_frequency` — which interaction frequency each active
  coupling uses in a given step,
* :meth:`_active_couplers` — which couplers are switched on (gmon only).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuits import Circuit
from ..core.coloring import GraphIndex
from ..core.compiler import CompilationResult, prepare_native_circuit
from ..core.crosstalk_graph import build_crosstalk_graph
from ..core.frequencies import StepFrequencyAssigner, step_frequencies
from ..core.partition import FrequencyPartition, default_partition
from ..core.scheduler import NoiseAwareScheduler, ScheduledStep
from ..devices import Device
from ..noise.flux import tuning_overhead_ns
from ..obs import span as _span
from ..program import CompiledProgram, Interaction, TimeStep

__all__ = ["BaselineCompiler"]

Coupling = Tuple[int, int]


class BaselineCompiler(ABC):
    """Template for the Table I baselines (N, G, U); S reuses ColorDynamic."""

    name = "Baseline"

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
        self.device = device
        self.decomposition = decomposition
        self.partition = partition or default_partition(device)
        self.crosstalk_distance = crosstalk_distance
        self.use_routing = use_routing
        self.indexed_kernels = indexed_kernels
        self.crosstalk_graph = build_crosstalk_graph(device.graph, crosstalk_distance)
        # Built on demand by the subclasses whose schedulers consult the
        # crosstalk graph (Baseline U); N and G schedule without one.
        self.crosstalk_index: Optional[GraphIndex] = None

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------
    @abstractmethod
    def _make_scheduler(self) -> NoiseAwareScheduler:
        """Return the scheduler implementing this baseline's policy."""

    @abstractmethod
    def _idle_frequencies(self) -> Dict[int, float]:
        """Idle/parking frequency of every qubit (GHz)."""

    @abstractmethod
    def _interaction_frequency(
        self, coupling: Coupling, step_couplings: Sequence[Coupling]
    ) -> float:
        """Interaction frequency for *coupling* given the step's other couplings."""

    def _active_couplers(self, step: ScheduledStep) -> Optional[Set[Coupling]]:
        """Couplers switched on during *step*; ``None`` means fixed couplers."""
        return None

    def _signature_extras(self) -> Dict[str, object]:
        """Subclass-specific knobs folded into :meth:`cache_signature`."""
        return {}

    # ------------------------------------------------------------------
    # cache identity
    # ------------------------------------------------------------------
    def cache_signature(self) -> Dict[str, object]:
        """Everything that determines this baseline's output for a circuit.

        Mirrors :meth:`repro.core.ColorDynamic.cache_signature`: the
        :mod:`repro.service` cache key hashes this dict together with the
        circuit being compiled.
        """
        p = self.partition
        signature: Dict[str, object] = {
            "class": type(self).__name__,
            "device": self.device.to_dict(),
            "crosstalk_distance": self.crosstalk_distance,
            "decomposition": self.decomposition,
            "partition": [
                p.parking_low,
                p.parking_high,
                p.exclusion_low,
                p.exclusion_high,
                p.interaction_low,
                p.interaction_high,
            ],
            "use_routing": self.use_routing,
            "indexed_kernels": self.indexed_kernels,
        }
        signature.update(self._signature_extras())
        return signature

    # ------------------------------------------------------------------
    # shared pipeline
    # ------------------------------------------------------------------
    def _needs_routing(self, circuit: Circuit) -> bool:
        if circuit.num_qubits > self.device.num_qubits:
            return True
        return any(not self.device.has_edge(*pair) for pair in circuit.couplings())

    def _prepare_circuit(self, circuit: Circuit) -> Circuit:
        return prepare_native_circuit(
            self.device,
            circuit,
            self.decomposition,
            self.use_routing,
            memoize=self.indexed_kernels,
        )

    def compile(self, circuit: Circuit, name: Optional[str] = None) -> CompilationResult:
        """Compile *circuit* with this baseline's scheduling and frequency policy."""
        start = time.perf_counter()
        # Paired manually, as in ColorDynamic.compile: a failed compile
        # abandons the span unrecorded.
        compile_span = _span(
            "compile",
            circuit=circuit.name,
            strategy=self.name,
            qubits=self.device.num_qubits,
        )
        compile_span.__enter__()
        with _span("prepare"):
            native = self._prepare_circuit(circuit)
        scheduler = self._make_scheduler()
        idle = self._idle_frequencies()
        assigner = (
            StepFrequencyAssigner(self.device, idle) if self.indexed_kernels else None
        )

        steps: List[TimeStep] = []
        colors_per_step: List[int] = []
        previous: Optional[Dict[int, float]] = None
        settle = self.device.qubits[0].params.flux_tuning_time_ns

        make_interaction = (
            Interaction.presorted
            if self.indexed_kernels
            else lambda pair, name, freq: Interaction(
                pair=pair, gate_name=name, frequency=freq
            )
        )

        def emit(sched_step: ScheduledStep) -> None:
            """Frequency-annotate one finalized step and append it."""
            nonlocal previous
            interactions = [
                make_interaction(
                    coupling,
                    gate.name,
                    self._interaction_frequency(coupling, sched_step.couplings),
                )
                for gate, coupling in zip(
                    sched_step.interaction_gates, sched_step.couplings
                )
            ]
            if assigner is not None:
                frequencies = assigner(interactions)
            else:
                frequencies = step_frequencies(self.device, idle, interactions)
            duration = sched_step.base_duration_ns
            duration += tuning_overhead_ns(previous, frequencies, settle_time_ns=settle)
            step = TimeStep(
                gates=sched_step.gates,
                frequencies=frequencies,
                interactions=interactions,
                duration_ns=duration,
                active_couplers=self._active_couplers(sched_step),
            )
            steps.append(step)
            colors_per_step.append(
                len({round(i.frequency, 6) for i in step.interactions})
            )
            previous = step.frequencies

        with _span("schedule"):
            scheduler.schedule(native, on_step=emit)

        elapsed = time.perf_counter() - start
        compile_span.__exit__(None, None, None)
        program = CompiledProgram(
            device=self.device,
            steps=steps,
            name=name or circuit.name,
            strategy=self.name,
            idle_frequencies=dict(idle),
            metadata={
                "decomposition": self.decomposition,
                "compile_time_s": elapsed,
            },
        )
        return CompilationResult(
            program=program,
            compile_time_s=elapsed,
            max_colors_used=max(colors_per_step, default=0),
            colors_per_step=colors_per_step,
            separations=[],
        )
