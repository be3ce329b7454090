"""Every public module-level name of the library is reached from code outside
the tests: from the package itself, from ``scripts/`` or from ``perfbench/``.

A function, class or constant that only tests use belongs in ``tests/`` (the
reference helpers live in ``tests/oracles.py``), and one that nothing uses is
dead. A use is a read of the name, or of an attribute of that name, anywhere
outside the name's own definition. Imports are not uses, so a name that is
only imported somewhere, never read there, is unreached.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "empers"
REACHING = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions(tree: ast.Module):
    """(name, defining statement) for each module-level function, class and
    assigned constant whose name does not start with an underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _uses(tree: ast.AST) -> Counter:
    """How often each name is read, as a name or as an attribute."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def unreached_names() -> list[str]:
    uses = Counter()
    for directory in REACHING:
        for path in sorted(directory.rglob("*.py")):
            uses += _uses(_parse(path))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in _public_definitions(_parse(path)):
            if uses[name] - _uses(definition)[name] == 0:
                unreached.append(f"{path.stem}.{name}")
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached_names() == []


def test_the_guard_sees_definitions_and_uses():
    tree = ast.parse("A = 1\ndef f():\n    return f()\nclass C:\n    x = A\n")
    assert [name for name, _ in _public_definitions(tree)] == ["A", "f", "C"]
    assert _uses(tree) == Counter({"f": 1, "A": 1})
