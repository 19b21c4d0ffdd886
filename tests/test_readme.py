"""The README's commands and imports still work: a renamed or deleted flag
or export fails here, not in a reader's shell."""
import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from rcpolicy.cli import _resolve_config, build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def _commands() -> list[str]:
    """Every `rcpolicy ...` line of the shell blocks, continuations joined."""
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("rcpolicy "):
                lines.append(line)
    return lines


def test_readme_has_the_commands_and_the_library_snippet():
    assert {cmd.split()[1] for cmd in _commands()} == {
        "simulate", "fit-rule", "evaluate", "msm", "icer", "subgroups", "plot-data"}
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("command", _commands(),
                         ids=[f"{i}-{cmd.split()[1]}" for i, cmd in enumerate(_commands())])
def test_readme_command_parses(command, monkeypatch):
    monkeypatch.delenv("RC_POLICY_SEED", raising=False)
    args = build_parser().parse_args(shlex.split(command)[1:])
    _resolve_config(args)  # flag values resolve into a valid config


def test_readme_library_imports_resolve():
    (snippet,) = _blocks("python")
    names = []
    for node in ast.walk(ast.parse(snippet)):
        if isinstance(node, ast.ImportFrom):
            names += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [(alias.name, None) for alias in node.names]
    assert ("rcpolicy", "evaluate_grid") in names
    for module, name in names:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), (module, name)
