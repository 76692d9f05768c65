"""Runtime twin of lint rule RPL004: the ``REPRO_*`` registry is complete.

The static rule catches reads the AST can see; this scan catches any
``REPRO_*`` string literal under ``src/`` however it is used (logged,
formatted into an error message, handed to ``subprocess`` environments...),
so a knob cannot exist in the code without appearing in ``--help`` and the
docs' environment tables.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.envvars import ENV_VARS, read_env, read_env_int

SRC = Path(__file__).resolve().parents[2] / "src"
_LITERAL = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")


def _source_literals():
    names = {}
    for path in sorted(SRC.rglob("*.py")):
        for match in _LITERAL.finditer(path.read_text()):
            names.setdefault(match.group(1), path.relative_to(SRC))
    return names


def test_every_repro_literal_is_registered():
    registered = {variable.name for variable in ENV_VARS}
    unregistered = {
        name: str(path)
        for name, path in _source_literals().items()
        if name not in registered
    }
    assert not unregistered, (
        f"REPRO_* literals missing from envvars.ENV_VARS: {unregistered}; "
        "register them so --help epilogs and docs stay truthful"
    )


def test_registry_has_no_dead_entries():
    """Every registered variable is actually referenced somewhere in src/."""
    used = set(_source_literals())
    for variable in ENV_VARS:
        assert variable.name in used, f"{variable.name} is registered but never read"


def _cli_subcommands():
    import argparse

    from repro.cli import build_parser

    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("repro.cli parser has no subcommands")


def test_registry_names_only_real_subcommands():
    """Every ``EnvVar.commands`` entry is a ``repro`` subcommand (or ``"*"``,
    a variable read outside the CLI), so no epilog is keyed to a command
    that no longer exists."""
    subcommands = _cli_subcommands()
    stale = {
        variable.name: command
        for variable in ENV_VARS
        for command in variable.commands
        if command != "*" and command not in subcommands
    }
    assert not stale, f"EnvVar.commands names unknown subcommands: {stale}"


class TestReadEnv:
    def test_reads_registered_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert read_env("REPRO_CACHE_DIR") == "/tmp/somewhere"

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert read_env("REPRO_CACHE_DIR") is None
        assert read_env("REPRO_CACHE_DIR", "fallback") == "fallback"

    def test_unregistered_name_is_a_programming_error(self):
        with pytest.raises(KeyError, match="REPRO_TYPO"):
            read_env("REPRO_TYPO")

    @pytest.mark.parametrize("raw", ["junk", "", "0", "-2", "1.5"])
    def test_int_parsing_falls_back_on_invalid(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", raw)
        assert read_env_int("REPRO_SWEEP_WORKERS", 1) == 1

    def test_int_parsing_accepts_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "6")
        assert read_env_int("REPRO_SWEEP_WORKERS", 1) == 6

    def test_int_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert read_env_int("REPRO_SWEEP_WORKERS", 3) == 3
