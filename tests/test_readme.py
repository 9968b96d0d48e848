"""The README's library example runs as written, its command lines parse
and name only real flags, and the package exports every name it lists."""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import orthomask
from orthomask import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library use)", "exec"), {})
    # first line: the trained layer's test loss, then the oracle loss
    test_loss, oracle_loss = map(float, capsys.readouterr().out.splitlines()[0].split())
    assert test_loss <= 1.5 * oracle_loss

    missing = [name for name in orthomask.__all__ if not hasattr(orthomask, name)]
    assert not missing


def test_pipeline_commands_parse():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command-line pipeline"):]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("orthomask ")
    ]
    assert len(commands) == 8
    for argv in commands:
        args = cli.build_parser().parse_args(argv[1:])
        assert args.command == argv[1]


def test_pipeline_section_names_only_real_flags():
    # prose included: a flag the parser no longer has must leave the README too
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command-line pipeline\n(.*?)^## ", text, re.S | re.M).group(1)
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    known = {
        flag
        for parser in subparsers.choices.values()
        for action in parser._actions
        for flag in action.option_strings
    }
    assert named
    assert sorted(named - known) == []


def test_console_script_resolves():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^orthomask = "([\w.]+):(\w+)"$', pyproject, re.M)
    module, attr = target.groups()
    assert getattr(importlib.import_module(module), attr) is cli.console_main
