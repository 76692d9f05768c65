"""ColorDynamic: program-specific frequency-aware compilation (Algorithm 1).

The compiler ties the whole toolchain together:

1. route the program onto the device (SWAP insertion when a two-qubit gate
   spans non-adjacent qubits),
2. decompose every entangling gate into hardware-native gates using the
   hybrid strategy (CNOT → CZ, SWAP → sqrt-iSWAP family),
3. color the device connectivity graph once to obtain parking (idle)
   frequencies,
4. build the distance-``d`` crosstalk graph once,
5. slice the program into time steps with the noise-aware queueing
   scheduler (criticality ordering + ``noise_conflict`` throttling),
6. for every step: color the active subgraph of the crosstalk graph, run the
   max-separation frequency solver over the interaction region, and record
   the resulting per-qubit frequencies, and
7. emit a :class:`~repro.program.CompiledProgram` annotated with the number
   of colors used, the achieved frequency separations and the compile time.

The same class doubles as the "static" variant (Baseline S) when
``dynamic=False``: the full crosstalk graph is colored once and every step
reuses that program-independent assignment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits import Circuit, decompose_circuit, route_circuit
from ..devices import Device
from ..devices.device import PREPARED_CACHE_ATTR
from ..noise.flux import tuning_overhead_ns
from ..obs import span as _span
from ..program import CompiledProgram, Interaction, TimeStep
from .coloring import GraphIndex, welsh_powell_coloring, num_colors
from .crosstalk_graph import active_subgraph, build_crosstalk_graph
from .frequencies import (
    IdleAssignment,
    StepFrequencyAssigner,
    assign_idle_frequencies,
    step_frequencies,
)
from .partition import FrequencyPartition, default_partition
from .scheduler import NoiseAwareScheduler, ScheduledStep
from .solver import assign_color_frequencies

__all__ = ["ColorDynamic", "CompilationResult", "prepare_native_circuit"]

Coupling = Tuple[int, int]



def _circuit_needs_routing(device: Device, circuit: Circuit) -> bool:
    if circuit.num_qubits > device.num_qubits:
        return True
    return any(not device.has_edge(*pair) for pair in circuit.couplings())


def prepare_native_circuit(
    device: Device,
    circuit: Circuit,
    decomposition: str,
    use_routing: bool,
    memoize: bool = False,
) -> Circuit:
    """Route/remap *circuit* onto *device* and decompose it into native gates.

    The shared front half of every compile (ColorDynamic and all baselines).
    With ``memoize=True`` the result is cached on the device instance, keyed
    by the circuit's content (gates, width, name) and the preparation knobs —
    in a sweep, every strategy sharing a device prepares each benchmark
    exactly once.  The cached circuit is shared, so callers must treat it as
    read-only (the compile pipelines only read it; the gates they copy into
    time steps are immutable).  Mutating ``device.graph`` in place without
    rebuilding the device requires
    :func:`repro.noise.clear_spectator_cache`, which also drops this memo.
    """
    cache: Optional[Dict] = None
    key = None
    if memoize:
        cache = getattr(device, PREPARED_CACHE_ATTR, None)
        if cache is None:
            cache = {}
            setattr(device, PREPARED_CACHE_ATTR, cache)
        key = (
            tuple(circuit.gates),
            circuit.num_qubits,
            circuit.name,
            decomposition,
            use_routing,
        )
        hit = cache.get(key)
        if hit is not None:
            return hit
    prepared = circuit
    if use_routing and _circuit_needs_routing(device, circuit):
        prepared = route_circuit(circuit, device.graph).circuit
    elif prepared.num_qubits < device.num_qubits:
        prepared = prepared.remap(
            {q: q for q in range(prepared.num_qubits)},
            num_qubits=device.num_qubits,
        )
    native = decompose_circuit(prepared, decomposition)
    if cache is not None:
        cache[key] = native
    return native


@dataclass
class CompilationResult:
    """A compiled program plus compile-time statistics (Fig. 13 top panels).

    ``compile_time_s`` is measured with the monotonic ``time.perf_counter``
    clock and always reports the *cold* compilation cost: when a result is
    served from the :mod:`repro.service` program store, the service restores
    the originally measured compile time and reports the (much smaller)
    deserialization latency separately in ``load_time_s`` with
    ``cache_hit=True``, so cache-hit loads are never mistaken for compile
    work in Fig. 13-style compile-time plots.
    """

    program: CompiledProgram
    compile_time_s: float
    max_colors_used: int
    colors_per_step: List[int]
    separations: List[float]
    cache_hit: bool = False  # repro-lint: noncodec(provenance of this process, not of the artifact)
    load_time_s: float = 0.0  # repro-lint: noncodec(measured at load time, never stored)

    @property
    def depth(self) -> int:
        return self.program.depth

    @property
    def compile_time(self) -> float:
        """Alias for ``compile_time_s`` (seconds, ``time.perf_counter`` based)."""
        return self.compile_time_s

    def to_dict(self) -> Dict[str, object]:
        """Versioned plain-dict form (piggybacks on the program codec).

        ``cache_hit``/``load_time_s`` are deliberately not stored: they
        describe how *this* result object was obtained, not the compilation
        itself, and are filled in by the service on load.
        """
        return {
            "program": self.program.to_dict(),
            "compile_time_s": self.compile_time_s,
            "max_colors_used": self.max_colors_used,
            "colors_per_step": list(self.colors_per_step),
            "separations": list(self.separations),
        }

    @classmethod
    def from_dict(
        cls, payload: Dict[str, object], device: Optional["Device"] = None
    ) -> "CompilationResult":
        """Inverse of :meth:`to_dict`.

        *device* is forwarded to :meth:`CompiledProgram.from_dict` to skip
        decoding the stored device when a content-identical live instance is
        available (the program store's cache-hit path).
        """
        return cls(
            program=CompiledProgram.from_dict(payload["program"], device=device),
            compile_time_s=float(payload["compile_time_s"]),
            max_colors_used=int(payload["max_colors_used"]),
            colors_per_step=[int(c) for c in payload["colors_per_step"]],
            separations=[float(s) for s in payload["separations"]],
        )


class ColorDynamic:
    """Program-specific frequency-aware compiler (the paper's main contribution).

    Parameters
    ----------
    device:
        Target device (topology + transmon parameters).
    crosstalk_distance:
        Distance ``d`` used to build the crosstalk graph (default 1).
    max_colors:
        Optional cap on simultaneous interaction frequencies (the tunability
        knob of Fig. 11).  ``None`` leaves the scheduler free.
    conflict_threshold:
        ``noise_conflict`` crowding threshold passed to the scheduler.
    decomposition:
        Native-gate decomposition strategy (``"hybrid"``, ``"cz"`` or
        ``"iswap"``).
    partition:
        Frequency partition; derived from the device when omitted.
    dynamic:
        ``True`` (default) re-colors the active subgraph every step
        (ColorDynamic); ``False`` colors the full crosstalk graph once and
        reuses the static assignment (Baseline S behaviour).
    use_routing:
        Route the circuit onto the device when it contains two-qubit gates on
        non-adjacent qubits.
    indexed_kernels:
        ``True`` (default) runs the cold compile path through the
        integer-indexed data plane: bitset coloring kernels over a
        :class:`~repro.core.coloring.GraphIndex` built once per compiler,
        the memoized vectorized max-separation solver, and a per-compiler
        memo of step frequency assignments keyed by the active coupling
        set.  ``False`` compiles through the original networkx/scalar
        reference paths.  The two paths emit bit-identical programs
        (enforced by ``tests/differential``).
    """

    name = "ColorDynamic"

    def __init__(
        self,
        device: Device,
        *,
        crosstalk_distance: int = 1,
        max_colors: Optional[int] = None,
        conflict_threshold: Optional[int] = 3,
        decomposition: str = "hybrid",
        partition: Optional[FrequencyPartition] = None,
        dynamic: bool = True,
        use_routing: bool = True,
        indexed_kernels: bool = True,
    ) -> None:
        self.device = device
        self.crosstalk_distance = crosstalk_distance
        self.max_colors = max_colors
        self.conflict_threshold = conflict_threshold
        self.decomposition = decomposition
        self.partition = partition or default_partition(device)
        self.dynamic = dynamic
        self.use_routing = use_routing
        self.indexed_kernels = indexed_kernels

        self.crosstalk_graph = build_crosstalk_graph(device.graph, crosstalk_distance)
        self.crosstalk_index: Optional[GraphIndex] = (
            GraphIndex(self.crosstalk_graph) if indexed_kernels else None
        )
        # Step assignments are pure functions of the active coupling set;
        # layered circuits (XEB, QAOA) repeat the same sets step after step.
        self._step_memo: Dict[
            Tuple[Coupling, ...], Tuple[Dict[Coupling, float], int, float]
        ] = {}
        self.idle_assignment: IdleAssignment = assign_idle_frequencies(
            device, self.partition
        )
        self._assign_step_frequencies: Optional[StepFrequencyAssigner] = (
            StepFrequencyAssigner(device, self.idle_assignment.qubit_frequencies)
            if indexed_kernels
            else None
        )
        self._static_coloring: Optional[Dict[Coupling, int]] = None
        self._static_frequencies: Optional[Dict[int, float]] = None
        if not dynamic:
            if self.crosstalk_index is not None:
                self._static_coloring = self.crosstalk_index.welsh_powell()
            else:
                self._static_coloring = welsh_powell_coloring(self.crosstalk_graph)
            freq_by_color, _ = assign_color_frequencies(
                self._static_coloring,
                self.partition.interaction_low,
                self.partition.interaction_high,
                anharmonicity=device.qubits[0].params.anharmonicity,
                vectorized=indexed_kernels,
            )
            self._static_frequencies = freq_by_color

    # ------------------------------------------------------------------
    # cache identity
    # ------------------------------------------------------------------
    def cache_signature(self) -> Dict[str, object]:
        """Everything that determines this compiler's output for a circuit.

        The :mod:`repro.service` cache key hashes this dict together with the
        circuit, so any change to the device physics (couplings, qubit
        parameters, topology) or to a compiler knob produces a different key.
        """
        p = self.partition
        return {
            "class": type(self).__name__,
            "device": self.device.to_dict(),
            "crosstalk_distance": self.crosstalk_distance,
            "max_colors": self.max_colors,
            "conflict_threshold": self.conflict_threshold,
            "decomposition": self.decomposition,
            "partition": [
                p.parking_low,
                p.parking_high,
                p.exclusion_low,
                p.exclusion_high,
                p.interaction_low,
                p.interaction_high,
            ],
            "dynamic": self.dynamic,
            "use_routing": self.use_routing,
            "indexed_kernels": self.indexed_kernels,
        }

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def _prepare_circuit(self, circuit: Circuit) -> Circuit:
        """Route onto the device (if needed) and decompose into native gates."""
        return prepare_native_circuit(
            self.device,
            circuit,
            self.decomposition,
            self.use_routing,
            memoize=self.indexed_kernels,
        )

    def _needs_routing(self, circuit: Circuit) -> bool:
        return _circuit_needs_routing(self.device, circuit)

    def _build_scheduler(self) -> NoiseAwareScheduler:
        return NoiseAwareScheduler(
            crosstalk_graph=self.crosstalk_graph,
            max_colors=self.max_colors,
            conflict_threshold=self.conflict_threshold,
            indexed=self.indexed_kernels,
            crosstalk_index=self.crosstalk_index,
        )

    def _interaction_frequencies(
        self, couplings: Sequence[Coupling]
    ) -> Tuple[Dict[Coupling, float], int, float]:
        """Assign an interaction frequency to every active coupling of a step.

        Returns ``(frequency by coupling, number of colors, separation)``.

        On the indexed fast path the whole assignment is memoized per active
        coupling set: layered benchmarks revisit the same sets constantly,
        and the assignment is a pure function of the set given this
        compiler's frozen graph and partition.
        """
        if not couplings:
            return {}, 0, float("inf")
        memo_key: Optional[Tuple[Coupling, ...]] = None
        if self.indexed_kernels and self.dynamic:
            memo_key = tuple(sorted(tuple(sorted(c)) for c in couplings))
            cached = self._step_memo.get(memo_key)
            if cached is not None:
                return cached
        alpha = self.device.qubits[0].params.anharmonicity
        if self.dynamic:
            with _span("coloring"):
                if self.crosstalk_index is not None:
                    coloring = self.crosstalk_index.welsh_powell(couplings)
                else:
                    subgraph = active_subgraph(self.crosstalk_graph, couplings)
                    coloring = welsh_powell_coloring(subgraph)
            with _span("solver"):
                freq_by_color, solution = assign_color_frequencies(
                    coloring,
                    self.partition.interaction_low,
                    self.partition.interaction_high,
                    anharmonicity=alpha,
                    vectorized=self.indexed_kernels,
                )
            separation = solution.separation
        else:
            assert self._static_coloring is not None
            assert self._static_frequencies is not None
            coloring = {
                tuple(sorted(c)): self._static_coloring[tuple(sorted(c))]
                for c in couplings
            }
            freq_by_color = self._static_frequencies
            separation = float("nan")
        frequencies = {
            tuple(sorted(c)): freq_by_color[coloring[tuple(sorted(c))]]
            for c in couplings
        }
        result = frequencies, num_colors(coloring), separation
        if memo_key is not None:
            self._step_memo[memo_key] = result
        return result

    def _step_duration(
        self,
        base: float,
        previous: Optional[Dict[int, float]],
        current: Dict[int, float],
    ) -> float:
        settle = self.device.qubits[0].params.flux_tuning_time_ns
        return base + tuning_overhead_ns(previous, current, settle_time_ns=settle)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compile(self, circuit: Circuit, name: Optional[str] = None) -> CompilationResult:
        """Compile *circuit* for this device; see the module docstring for stages."""
        start = time.perf_counter()
        # Manually paired (__enter__ here, __exit__ after the schedule loop)
        # so the method body keeps its indentation; if the compile raises,
        # the span is abandoned unrecorded along with the failed compile.
        compile_span = _span(
            "compile",
            circuit=circuit.name,
            strategy=self.name if self.dynamic else "Baseline S",
            qubits=self.device.num_qubits,
        )
        compile_span.__enter__()
        with _span("prepare"):
            native = self._prepare_circuit(circuit)
        scheduler = self._build_scheduler()

        steps: List[TimeStep] = []
        colors_per_step: List[int] = []
        separations: List[float] = []
        previous_freqs: Optional[Dict[int, float]] = None

        make_interaction = (
            Interaction.presorted
            if self.indexed_kernels
            else lambda pair, name, freq: Interaction(
                pair=pair, gate_name=name, frequency=freq
            )
        )

        def emit(sched_step: ScheduledStep) -> None:
            """Frequency-annotate one finalized step and append it."""
            nonlocal previous_freqs
            freq_by_coupling, n_colors, separation = self._interaction_frequencies(
                sched_step.couplings
            )
            interactions = [
                make_interaction(coupling, gate.name, freq_by_coupling[coupling])
                for gate, coupling in zip(
                    sched_step.interaction_gates, sched_step.couplings
                )
            ]
            if self._assign_step_frequencies is not None:
                frequencies = self._assign_step_frequencies(interactions)
            else:
                frequencies = step_frequencies(
                    self.device, self.idle_assignment.qubit_frequencies, interactions
                )
            duration = self._step_duration(
                sched_step.base_duration_ns, previous_freqs, frequencies
            )
            step = TimeStep(
                gates=sched_step.gates,
                frequencies=frequencies,
                interactions=interactions,
                duration_ns=duration,
                active_couplers=None,
            )
            steps.append(step)
            colors_per_step.append(n_colors)
            if sched_step.couplings:
                separations.append(separation)
            previous_freqs = step.frequencies

        with _span("schedule"):
            scheduler.schedule(native, on_step=emit)

        elapsed = time.perf_counter() - start
        compile_span.__exit__(None, None, None)
        program = CompiledProgram(
            device=self.device,
            steps=steps,
            name=name or circuit.name,
            strategy=self.name if self.dynamic else "Baseline S",
            idle_frequencies=dict(self.idle_assignment.qubit_frequencies),
            metadata={
                "decomposition": self.decomposition,
                "crosstalk_distance": self.crosstalk_distance,
                "max_colors": self.max_colors,
                "compile_time_s": elapsed,
                "dynamic": self.dynamic,
            },
        )
        return CompilationResult(
            program=program,
            compile_time_s=elapsed,
            max_colors_used=max(colors_per_step, default=0),
            colors_per_step=colors_per_step,
            separations=separations,
        )
