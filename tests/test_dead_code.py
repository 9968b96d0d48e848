"""Every private module-level function or class, and every private method,
of a package module is referenced somewhere in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orthomask"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """``sources`` maps a module's name to its text; returns ``module:line:
    name`` for each private definition that no module names, as a bare
    name or an attribute, outside the definition itself."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, used = {}, set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in (node, *members):
                if isinstance(item, defs) and _private(item.name):
                    defined[item.name] = f"{module}:{item.lineno}: {item.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [where for name, where in defined.items() if name not in used]


def test_no_unreferenced_private_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_guard_finds_unreferenced_definitions():
    a = (
        "def _used():\n    pass\n"
        "def _helper():\n    pass\n"
        "class _Box:\n"
        "    def _open(self):\n        pass\n"
        "    def _shut(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
    )
    b = "from a import _used, _Box\n_used()\n_Box()._open()\n"
    assert unreferenced_private_defs({"a.py": a, "b.py": b}) == [
        "a.py:3: _helper",
        "a.py:8: _shut",
    ]
