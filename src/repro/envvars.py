"""The single source of truth for every ``REPRO_*`` environment variable.

The CLI builds its ``--help`` epilogs from this table (``python -m repro
--help`` lists every knob; each subcommand lists the ones it reads) and the
docs embed its rendered form — ``docs/cache-operations.md`` contains the
output of :func:`env_table_markdown` and :func:`precedence_markdown`
verbatim, and ``tests/test_docs_snippets.py`` asserts they stay in sync.

Precedence is always *explicit flag over environment*, with ``--no-cache``
as the global kill switch; the matrix is pinned behaviorally by
``tests/service/test_cache_knobs.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "ENV_VARS",
    "EnvVar",
    "env_vars_for",
    "format_epilog",
    "env_table_markdown",
    "precedence_markdown",
    "read_env",
    "read_env_int",
]


@dataclass(frozen=True)
class EnvVar:
    """One ``REPRO_*`` environment variable.

    ``commands`` names the CLI subcommands whose behavior the variable
    changes (``"*"`` marks a variable read outside the CLI, e.g. by the
    benchmark harness).
    """

    name: str
    summary: str
    default: str
    overridden_by: str
    commands: Tuple[str, ...]


#: Every environment variable the toolchain reads, in display order.
ENV_VARS: Tuple[EnvVar, ...] = (
    EnvVar(
        name="REPRO_CACHE_DIR",
        summary="root directory of the compiled-program store",
        default="~/.cache/repro/programs (XDG)",
        overridden_by="--cache-dir",
        commands=("figure", "cache"),
    ),
    EnvVar(
        name="REPRO_CACHE",
        summary="0 disables the program store (every compile runs cold)",
        default="1 (enabled)",
        overridden_by="--cache-dir/--remote-cache re-enable; --no-cache disables",
        commands=("figure", "cache"),
    ),
    EnvVar(
        name="REPRO_REMOTE_CACHE",
        summary="shared cache-server URL; tiers the store local -> remote",
        default="unset (local-only)",
        overridden_by="--remote-cache",
        commands=("figure", "cache"),
    ),
    EnvVar(
        name="REPRO_REMOTE_COMPILE",
        summary="remote compile-server URL; cold misses are compiled server-side",
        default="unset (cold misses compile locally)",
        overridden_by="--remote-compile",
        commands=("figure", "cache"),
    ),
    EnvVar(
        name="REPRO_CACHE_TOKEN",
        summary="shared-secret bearer token sent to (and enforced by) the cache server",
        default="unset (no Authorization header; server accepts anonymous writes)",
        overridden_by="--token (cache serve)",
        commands=("figure", "cache"),
    ),
    EnvVar(
        name="REPRO_CACHE_MAX_BYTES",
        summary="LRU byte budget for the local store tier, enforced per write",
        default="unset (unbounded); invalid values are ignored",
        overridden_by="--max-bytes",
        commands=("figure", "cache"),
    ),
    EnvVar(
        name="REPRO_SWEEP_WORKERS",
        summary="parallel sweep processes for figure grids",
        default="1 (serial)",
        overridden_by="--workers",
        commands=("figure", "cache"),
    ),
    EnvVar(
        name="REPRO_TRACE",
        summary="1 enables span tracing (Chrome trace JSON written after the run)",
        default="unset (tracing off; instrumented sites cost one attribute check)",
        overridden_by="--trace PATH (forces tracing on for that run)",
        commands=("compile", "figure"),
    ),
    EnvVar(
        name="REPRO_TRACE_DIR",
        summary="directory for trace files when REPRO_TRACE is set without --trace",
        default="current directory (file: repro-trace-<command>.json)",
        overridden_by="--trace PATH",
        commands=("compile", "figure"),
    ),
    EnvVar(
        name="REPRO_SKIP_PERF",
        summary="1 skips the test_perf_* benchmarks and their perf gates",
        default="unset (benchmarks run)",
        overridden_by="(no flag; benchmark harness only)",
        commands=("*",),
    ),
)


_REGISTERED = frozenset(v.name for v in ENV_VARS)


def read_env(name: str, default: Optional[str] = None) -> Optional[str]:
    """Read a *registered* environment variable.

    Every runtime ``REPRO_*`` read must go through here (``repro lint``
    rule RPL004 and ``tests/devtools`` enforce it statically and at
    runtime): a variable read anywhere else would be a knob missing from
    the ``--help`` epilogs and the docs' environment tables.  Reading an
    unregistered name is a programming error, not a user error, hence
    ``KeyError``.
    """
    if name not in _REGISTERED:
        raise KeyError(
            f"{name} is not declared in repro.envvars.ENV_VARS; register it "
            "there so --help and the docs stay truthful"
        )
    return os.environ.get(name, default)


def read_env_int(name: str, default: int) -> int:
    """Like :func:`read_env` but parsed as a positive integer.

    Invalid values (empty, non-integer, < 1) fall back to *default* — the
    same forgiving contract ``REPRO_CACHE_MAX_BYTES`` already has, so a
    typo in a shell profile degrades behavior instead of crashing a sweep.
    """
    raw = read_env(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value >= 1 else default


def env_vars_for(command: Optional[str] = None) -> List[EnvVar]:
    """The variables relevant to one CLI subcommand (all of them for ``None``)."""
    if command is None:
        return list(ENV_VARS)
    return [v for v in ENV_VARS if command in v.commands]


def format_epilog(command: Optional[str] = None) -> Optional[str]:
    """Plain-text epilog block for ``--help`` output.

    Returns ``None`` when *command* reads no environment variable, so the
    parser omits the block entirely.
    """
    variables = env_vars_for(command)
    if not variables:
        return None
    width = max(len(v.name) for v in variables)
    lines = ["environment variables:"]
    for v in variables:
        lines.append(f"  {v.name.ljust(width)}  {v.summary} (default: {v.default})")
    lines.append(
        "explicit flags beat the environment; --no-cache beats everything "
        "(see docs/cache-operations.md)"
    )
    return "\n".join(lines)


def env_table_markdown() -> str:
    """The environment-variable table as Markdown (embedded in the docs)."""
    lines = [
        "| variable | meaning | default | overridden by |",
        "|---|---|---|---|",
    ]
    for v in ENV_VARS:
        lines.append(
            f"| `{v.name}` | {v.summary} | {v.default} | {v.overridden_by} |"
        )
    return "\n".join(lines) + "\n"


def precedence_markdown() -> str:
    """The flag/environment precedence matrix as Markdown.

    One row per combination pinned by ``tests/service/test_cache_knobs.py``
    (class ``TestCLIPrecedence`` and the service-level env resolution).
    """
    rows = [
        ("`--no-cache`", "anything else", "store disabled — beats every flag and variable"),
        ("`--cache-dir DIR`", "`REPRO_CACHE=0`", "store *enabled* at DIR (an explicit flag requests caching)"),
        ("`--remote-cache URL`", "`REPRO_CACHE=0`", "store enabled, tiered local -> URL"),
        ("`--cache-dir DIR`", "`REPRO_CACHE_DIR=OTHER`", "DIR wins; OTHER is untouched"),
        ("`--remote-cache ''`", "`REPRO_REMOTE_CACHE=URL`", "explicit empty URL forces local-only"),
        ("`--max-bytes N`", "`REPRO_CACHE_MAX_BYTES=M`", "N wins; eviction runs after every write"),
        ("`--remote-compile URL`", "`REPRO_REMOTE_COMPILE=OTHER`", "URL wins; cold misses are compiled by URL's server"),
        ("`--remote-compile ''`", "`REPRO_REMOTE_COMPILE=URL`", "explicit empty URL forces local cold compiles"),
        ("(no flag)", "`REPRO_CACHE_TOKEN=SECRET`", "clients send `Authorization: Bearer SECRET`; `cache serve` requires it on mutating/compile routes"),
        ("`--workers N`", "`REPRO_SWEEP_WORKERS=M`", "N wins; results identical at any worker count"),
        ("(no flag)", "`REPRO_CACHE=0`", "store disabled"),
        ("(no flag)", "`REPRO_CACHE_DIR=DIR`", "store rooted at DIR"),
        ("(no flag)", "`REPRO_CACHE_MAX_BYTES=junk`", "invalid values (empty, non-integer, negative) are ignored"),
        ("(no flag)", "`REPRO_SWEEP_WORKERS=junk`", "invalid values (empty, non-integer, < 1) fall back to 1 (serial)"),
        ("`--trace PATH`", "`REPRO_TRACE` unset", "tracing on for this run; trace written to PATH"),
        ("(no flag)", "`REPRO_TRACE=1`", "tracing on; trace written to `$REPRO_TRACE_DIR/repro-trace-<command>.json`"),
        ("`cache warm`", "`REPRO_CACHE=0`", "warming force-enables the store (its whole point is to fill it)"),
    ]
    lines = [
        "| CLI flag | environment | effective behavior |",
        "|---|---|---|",
    ]
    for flag, env, outcome in rows:
        lines.append(f"| {flag} | {env} | {outcome} |")
    return "\n".join(lines) + "\n"
