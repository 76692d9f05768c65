"""Noise-aware queueing scheduler (Section V-B6, lines 9-16 of Algorithm 1).

The scheduler consumes a native-gate circuit and emits time steps (lists of
gates).  It differs from a plain ASAP scheduler in two ways:

* gates are considered in order of decreasing *criticality* (remaining
  critical-path length), so that when serialization is necessary it is the
  least critical gates that wait, keeping the program depth close to optimal;
* before admitting a two-qubit gate into the current step, the
  ``noise_conflict`` predicate checks whether the gate's coupling would be
  crowded by the couplings already admitted — either because too many of its
  crosstalk-graph neighbours are active, or because admitting it would push
  the number of required interaction-frequency colors beyond the budget
  (``max_colors``, the tunability knob studied in Fig. 11).

Gates that conflict are postponed to a later step: this is the controlled
trade of parallelism for crosstalk described in the paper.

Two decision-identical data planes implement the loop: the original
networkx path (``indexed=False``) and the integer-indexed bitset path
(``indexed=True``, the default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..circuits import Circuit, Gate, build_dag, criticality, gate_dependencies
from ..circuits.dag import criticality_scores
from .coloring import GraphIndex, bounded_coloring
from .crosstalk_graph import active_subgraph

__all__ = ["NoiseAwareScheduler", "ScheduledStep"]

Coupling = Tuple[int, int]


@dataclass
class ScheduledStep:
    """One scheduler cycle before frequency assignment.

    ``base_duration_ns`` is the longest gate duration of the step (the
    step's duration before flux-retuning overhead); the scheduler computes
    it while admitting gates so the compilers need not walk the gate list
    again.
    """

    gates: List[Gate] = field(default_factory=list)
    couplings: List[Coupling] = field(default_factory=list)
    indices: List[int] = field(default_factory=list)
    base_duration_ns: float = 0.0
    #: The two-qubit gate behind each entry of ``couplings``, in the same
    #: order, so frequency annotation never re-derives which gates interact.
    interaction_gates: List[Gate] = field(default_factory=list)


class NoiseAwareScheduler:
    """Queueing scheduler that throttles parallelism to avoid crosstalk.

    Parameters
    ----------
    crosstalk_graph:
        The device's crosstalk graph (vertices are couplings).  ``None``
        disables conflict checks entirely (the behaviour of the naive
        baseline scheduler).
    max_colors:
        Maximum number of interaction-frequency colors allowed per step.
        ``None`` means unbounded (the scheduler still avoids *direct*
        conflicts through ``conflict_threshold``).
    conflict_threshold:
        Maximum number of already-admitted crosstalk-graph neighbours a new
        two-qubit gate may have.  The paper postpones a gate when "too many"
        neighbours are active; the default of 3 keeps the per-step coloring
        small without over-serialising.
    allowed_couplings:
        Optional whitelist of couplings permitted per step index (used by the
        gmon tiling scheduler); a callable mapping the step index to a set of
        couplings.
    max_parallel_interactions:
        Hard cap on simultaneous two-qubit gates per step.  ``1`` gives the
        fully serial scheduler of Baseline U; ``None`` (default) leaves
        parallelism to the conflict checks.
    indexed:
        ``True`` (default) runs the conflict checks of the inner loop
        through integer-indexed kernels: the crosstalk graph is flattened
        into a :class:`~repro.core.coloring.GraphIndex` once, the step's
        active couplings are maintained as a bitset that is *updated* (not
        rebuilt) per admitted gate, crowding is a popcount and the
        ``max_colors`` probe a bitset coloring.  ``False`` keeps the
        original networkx path as the reference; both make identical
        scheduling decisions (see ``tests/differential``).
    crosstalk_index:
        Pre-built :class:`GraphIndex` of ``crosstalk_graph`` (compilers
        build it once and share it across compiles); derived on demand when
        omitted.
    """

    def __init__(
        self,
        crosstalk_graph: Optional[nx.Graph] = None,
        max_colors: Optional[int] = None,
        conflict_threshold: Optional[int] = 3,
        allowed_couplings=None,
        max_parallel_interactions: Optional[int] = None,
        indexed: bool = True,
        crosstalk_index: Optional[GraphIndex] = None,
    ) -> None:
        if max_colors is not None and max_colors < 1:
            raise ValueError("max_colors must be at least 1")
        if conflict_threshold is not None and conflict_threshold < 1:
            raise ValueError("conflict_threshold must be at least 1")
        if max_parallel_interactions is not None and max_parallel_interactions < 1:
            raise ValueError("max_parallel_interactions must be at least 1")
        self.crosstalk_graph = crosstalk_graph
        self.max_colors = max_colors
        self.conflict_threshold = conflict_threshold
        self.allowed_couplings = allowed_couplings
        self.max_parallel_interactions = max_parallel_interactions
        self.indexed = indexed
        if indexed and crosstalk_graph is not None and crosstalk_index is None:
            crosstalk_index = GraphIndex(crosstalk_graph)
        self.crosstalk_index = crosstalk_index if indexed else None

    # ------------------------------------------------------------------
    def noise_conflict(self, coupling: Coupling, active: Sequence[Coupling]) -> bool:
        """Predict whether admitting *coupling* alongside *active* risks crosstalk."""
        if self.crosstalk_graph is None:
            return False
        key = tuple(sorted(coupling))
        active_keys = [tuple(sorted(c)) for c in active]

        if self.conflict_threshold is not None:
            neighbours = (
                set(self.crosstalk_graph.neighbors(key))
                if key in self.crosstalk_graph
                else set()
            )
            crowded = sum(1 for c in active_keys if c in neighbours)
            if crowded >= self.conflict_threshold:
                return True

        if self.max_colors is not None:
            subgraph = active_subgraph(self.crosstalk_graph, active_keys + [key])
            _, deferred = bounded_coloring(subgraph, self.max_colors)
            if deferred:
                return True
        return False

    # ------------------------------------------------------------------
    def schedule(
        self,
        circuit: Circuit,
        on_step: Optional[Callable[[ScheduledStep], None]] = None,
    ) -> List[ScheduledStep]:
        """Slice *circuit* into crosstalk-aware time steps.

        Parameters
        ----------
        circuit:
            The program to schedule.  It must already be decomposed into
            native gates and mapped onto physical qubits; the scheduler
            preserves the dependency order of the input program.
        on_step:
            Invoked with each step the moment it is finalized — before the
            next scheduling cycle begins — so callers (the compilers) can
            annotate frequencies one step at a time instead of re-deriving
            whole-program state afterwards.

        Returns
        -------
        list[ScheduledStep]
            The finalized steps, in execution order.

        Raises
        ------
        RuntimeError
            If a scheduling cycle admits no gate while no tiling pattern is
            in play (a circular conflict; cannot happen for well-formed
            circuits).
        """
        if self.indexed:
            return self._schedule_indexed(circuit, on_step)
        return self._schedule_reference(circuit, on_step)

    def _schedule_reference(
        self,
        circuit: Circuit,
        on_step: Optional[Callable[[ScheduledStep], None]] = None,
    ) -> List[ScheduledStep]:
        """The original networkx scheduling loop, kept as the reference path."""
        dag = build_dag(circuit)
        scores = criticality(circuit, weighted=True, indexed=False)

        indegree: Dict[int, int] = {
            node: dag.graph.in_degree(node) for node in dag.graph.nodes
        }
        ready: Set[int] = {node for node, deg in indegree.items() if deg == 0}
        steps: List[ScheduledStep] = []
        step_index = 0

        while ready:
            ordered = sorted(ready, key=lambda idx: (-scores[idx], idx))
            step = ScheduledStep()
            busy_qubits: Set[int] = set()
            allowed = (
                self.allowed_couplings(step_index)
                if self.allowed_couplings is not None
                else None
            )

            for index in ordered:
                gate = circuit.gates[index]
                if set(gate.qubits) & busy_qubits:
                    continue
                if gate.is_two_qubit:
                    coupling = tuple(sorted(gate.qubits))
                    if allowed is not None and coupling not in allowed:
                        continue
                    if (
                        self.max_parallel_interactions is not None
                        and len(step.couplings) >= self.max_parallel_interactions
                    ):
                        continue
                    if self.noise_conflict(coupling, step.couplings):
                        continue
                    step.couplings.append(coupling)
                    step.interaction_gates.append(gate)
                step.gates.append(gate)
                step.indices.append(index)
                busy_qubits.update(gate.qubits)

            if not step.gates:
                # Nothing admitted this cycle (e.g. the tiling pattern blocks
                # every ready gate); advance the pattern instead of looping
                # forever, but only when a pattern is in play.
                if allowed is None:
                    raise RuntimeError("scheduler made no progress; circular conflict")
                step_index += 1
                continue

            step.base_duration_ns = max(
                (g.duration_ns for g in step.gates), default=0.0
            )
            steps.append(step)
            if on_step is not None:
                on_step(step)
            for index in step.indices:
                ready.discard(index)
                for successor in dag.graph.successors(index):
                    indegree[successor] -= 1
                    if indegree[successor] == 0:
                        ready.add(successor)
            step_index += 1

        return steps

    def _schedule_indexed(
        self,
        circuit: Circuit,
        on_step: Optional[Callable[[ScheduledStep], None]] = None,
    ) -> List[ScheduledStep]:
        """Indexed data plane of the scheduling loop (decision-identical).

        Differences from the reference are purely representational: flat
        successor lists and one criticality sweep replace the two networkx
        DAG builds; per-gate metadata (sorted coupling, qubits) is resolved
        once instead of per readiness probe; the ready queue is a sorted
        list maintained incrementally under the static ``(-score, index)``
        key instead of being re-sorted every cycle; and the crosstalk
        conflict checks run on the step's active-coupling bitset.
        """
        gates = circuit.gates
        n = len(gates)
        successor_lists, indegree = gate_dependencies(circuit)
        scores = criticality_scores(successor_lists, gates, weighted=True)
        qubits_of = [gate.qubits for gate in gates]
        specs = [gate.spec for gate in gates]
        duration_of = [spec.duration_ns for spec in specs]
        coupling_of = [
            tuple(sorted(gate.qubits)) if spec.num_qubits == 2 else None
            for gate, spec in zip(gates, specs)
        ]
        sort_keys = [(-scores[i], i) for i in range(n)]

        index = self.crosstalk_index
        use_conflict = index is not None and self.crosstalk_graph is not None
        adjacency = index.adjacency if use_conflict else None
        if use_conflict:
            vertex_id = index.vertex_id
            coupling_id_of = [
                vertex_id.get(coupling) if coupling is not None else None
                for coupling in coupling_of
            ]
        else:
            coupling_id_of = None
        threshold = self.conflict_threshold
        max_colors = self.max_colors
        max_parallel = self.max_parallel_interactions
        allowed_fn = self.allowed_couplings

        # The ready queue holds the (-score, index) key tuples themselves:
        # tuples sort at C speed without a key function, and the queue is
        # maintained incrementally (filter admitted + merge newly ready)
        # instead of being rebuilt and re-sorted from a set every cycle.
        ready_list = sorted(sort_keys[i] for i in range(n) if indegree[i] == 0)
        steps: List[ScheduledStep] = []
        step_index = 0

        while ready_list:
            step = ScheduledStep()
            step_couplings = step.couplings
            busy_qubits: Set[int] = set()
            active_mask = 0
            base_duration = 0.0
            allowed = allowed_fn(step_index) if allowed_fn is not None else None

            for entry in ready_list:
                candidate = entry[1]
                qubits = qubits_of[candidate]
                if qubits[0] in busy_qubits or qubits[-1] in busy_qubits:
                    continue
                coupling = coupling_of[candidate]
                if coupling is not None:
                    if allowed is not None and coupling not in allowed:
                        continue
                    if max_parallel is not None and len(step_couplings) >= max_parallel:
                        continue
                    if use_conflict:
                        coupling_id = coupling_id_of[candidate]
                        if (
                            threshold is not None
                            and coupling_id is not None
                            and (adjacency[coupling_id] & active_mask).bit_count()
                            >= threshold
                        ):
                            continue
                        if max_colors is not None:
                            if coupling_id is None:
                                # Mirror active_subgraph(): a coupling that is
                                # not an edge of the device is an error.
                                raise KeyError(
                                    f"coupling {coupling} is not an edge of the device"
                                )
                            # A set of <= max_colors vertices always colors
                            # within the budget (each vertex sees fewer
                            # colored neighbours than colors), so the probe
                            # only runs when a deferral is possible at all.
                            if len(step_couplings) + 1 > max_colors:
                                _, deferred = index.bounded(
                                    max_colors, step_couplings + [coupling]
                                )
                                if deferred:
                                    continue
                        if coupling_id is not None:
                            active_mask |= 1 << coupling_id
                    step_couplings.append(coupling)
                    step.interaction_gates.append(gates[candidate])
                step.gates.append(gates[candidate])
                step.indices.append(candidate)
                duration = duration_of[candidate]
                if duration > base_duration:
                    base_duration = duration
                busy_qubits.update(qubits)

            if not step.gates:
                # Nothing admitted this cycle (e.g. the tiling pattern blocks
                # every ready gate); advance the pattern instead of looping
                # forever, but only when a pattern is in play.
                if allowed is None:
                    raise RuntimeError("scheduler made no progress; circular conflict")
                step_index += 1
                continue

            step.base_duration_ns = base_duration
            steps.append(step)
            if on_step is not None:
                on_step(step)

            admitted = set(step.indices)
            newly_ready: List[Tuple[float, int]] = []
            for admitted_index in step.indices:
                for successor in successor_lists[admitted_index]:
                    remaining = indegree[successor] - 1
                    indegree[successor] = remaining
                    if remaining == 0:
                        newly_ready.append(sort_keys[successor])
            remaining_ready = [e for e in ready_list if e[1] not in admitted]
            if newly_ready:
                newly_ready.sort()
                remaining_ready += newly_ready
                # Two sorted runs: timsort merges them in one C-level pass.
                remaining_ready.sort()
            ready_list = remaining_ready
            step_index += 1

        return steps
