"""No package definition is dead code. Every private module-level function
or class, and every private method, of a package module is referenced
somewhere in the package; every public one is named somewhere outside its
own definition: in a package module other than ``__init__.py``, in
README.md or in a file under ``orthobench/``. A re-export from
``__init__.py`` or ``orthomask.__all__`` is not a use. So no function is
kept for tests alone."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orthomask"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree):
    """A module's module-level functions and classes, and their methods."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        yield from (item for item in (node, *members) if isinstance(item, DEFS))


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """``sources`` maps a module's name to its text; returns ``module:line:
    name`` for each private definition that no module names, as a bare
    name or an attribute, outside the definition itself."""
    defined, used = {}, set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for item in _definitions(tree):
            if _private(item.name):
                defined[item.name] = f"{module}:{item.lineno}: {item.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [where for name, where in defined.items() if name not in used]


def _names_outside_own_definition(tree) -> set[str]:
    """The bare names, attributes and imported names of a module, each
    but where it lies inside a definition of that name."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, DEFS):
            enclosing = enclosing | {node.name}
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in enclosing:
            used.add(name)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def unnamed_public_defs(sources: dict[str, str], texts=()) -> list[str]:
    """``module:line: name`` for each public definition of ``sources`` (as
    for :func:`unreferenced_private_defs`) that no module but
    ``__init__.py``, whose imports and ``__all__`` only re-export, names
    outside the definition itself, and that no text of ``texts`` holds as
    a word. Dunders are exempt."""
    defined, used = {}, set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for item in _definitions(tree):
            if not item.name.startswith("_"):
                defined.setdefault(item.name, f"{module}:{item.lineno}: {item.name}")
        if module != "__init__.py":
            used |= _names_outside_own_definition(tree)
    for text in texts:
        used.update(re.findall(r"\w+", text))
    return [where for name, where in defined.items() if name not in used]


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def source_texts(directory: Path) -> list[str]:
    """The text of each Python source file under ``directory``. Only
    sources are read: bytecode that importing a module leaves in
    ``__pycache__`` is not UTF-8 text."""
    return [path.read_text(encoding="utf-8") for path in sorted(directory.rglob("*.py"))]


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_defs(_package_sources()) == []


def test_no_public_definition_only_tests_name():
    texts = [(ROOT / "README.md").read_text(encoding="utf-8"), *source_texts(ROOT / "orthobench")]
    assert unnamed_public_defs(_package_sources(), texts) == []


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


def test_guard_finds_unnamed_public_definitions():
    a = (
        "def imported():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def exported():\n    pass\n"
        "def documented():\n    pass\n"
        "class Box:\n"
        "    def open(self):\n        pass\n"
        "    def shut(self):\n        return self.shut()\n"
        "    def __len__(self):\n        return 0\n"
    )
    b = "from a import imported, Box\nBox().open()\n"
    found = unnamed_public_defs({"a.py": a, "b.py": b}, ["call documented(x)"])
    assert found == ["a.py:3: recursive", "a.py:5: exported", "a.py:12: shut"]


def test_guard_does_not_count_re_exports():
    a = "def exported():\n    pass\ndef called():\n    pass\n"
    init = "from .a import called, exported\n__all__ = ['called', 'exported']\n"
    b = "from .a import called\ncalled()\n"
    assert unnamed_public_defs({"__init__.py": init, "a.py": a, "b.py": b}) == ["a.py:1: exported"]


def test_guard_reads_sources_beside_bytecode(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "bench.cpython-311.pyc").write_bytes(b"\xa7\r\r\n\x00\x00\xe3\x00")
    (tmp_path / "bench.py").write_text("from orthomask import documented\n", encoding="utf-8")
    texts = source_texts(tmp_path)
    assert texts == ["from orthomask import documented\n"]
    a = "def documented():\n    pass\ndef hidden():\n    pass\n"
    assert unnamed_public_defs({"a.py": a}, texts) == ["a.py:3: hidden"]
