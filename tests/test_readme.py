"""The README's library example runs as written, and the package exports
every name it lists."""

import re
from pathlib import Path

import orthomask

README = Path(__file__).resolve().parents[1] / "README.md"


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
