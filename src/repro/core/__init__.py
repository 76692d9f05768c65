"""Core contribution: the ColorDynamic frequency-aware compilation algorithm."""

from .crosstalk_graph import (
    build_crosstalk_graph,
    active_subgraph,
    crosstalk_neighbours,
    mesh_crosstalk_chromatic_bound,
)
from .coloring import (
    GraphIndex,
    welsh_powell_coloring,
    greedy_coloring,
    bounded_coloring,
    num_colors,
    validate_coloring,
    color_classes,
)
from .partition import FrequencyPartition, default_partition
from .solver import (
    FrequencySolution,
    solve_max_separation,
    solve_max_separation_cached,
    assign_color_frequencies,
)
from .frequencies import (
    IdleAssignment,
    assign_idle_frequencies,
    step_frequencies,
    clamp_to_range,
)
from .scheduler import NoiseAwareScheduler, ScheduledStep
from .compiler import ColorDynamic, CompilationResult

__all__ = [
    "build_crosstalk_graph",
    "active_subgraph",
    "crosstalk_neighbours",
    "mesh_crosstalk_chromatic_bound",
    "GraphIndex",
    "welsh_powell_coloring",
    "greedy_coloring",
    "bounded_coloring",
    "num_colors",
    "validate_coloring",
    "color_classes",
    "FrequencyPartition",
    "default_partition",
    "FrequencySolution",
    "solve_max_separation",
    "solve_max_separation_cached",
    "assign_color_frequencies",
    "IdleAssignment",
    "assign_idle_frequencies",
    "step_frequencies",
    "clamp_to_range",
    "NoiseAwareScheduler",
    "ScheduledStep",
    "ColorDynamic",
    "CompilationResult",
]
