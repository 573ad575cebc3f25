"""Every function, class and method under ``src/talab`` has a caller there.

A top-level function or class, or a non-dunder method, must be referenced as a
name or an attribute somewhere in ``src/talab`` outside its own definition, or
in ``perfbench/``. Listing a name in ``__all__`` or importing it is not a use.
Code whose only caller is a test belongs in ``tests/``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _uses(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree: ast.Module):
    """The top-level functions and classes, and the non-dunder methods of the classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, defs)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_src_has_no_test_only_members():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted((ROOT / "src/talab").glob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    bench = sum((_uses(ast.parse(p.read_text())) for p in (ROOT / "perfbench").glob("*.py")),
                Counter())
    unused = [f"{file}: {qualname}" for file, tree in trees.items()
              for qualname, node in _definitions(tree)
              if not bench[node.name] and uses[node.name] <= _uses(node)[node.name]]
    assert not unused, "defined under src/talab but used only by tests:\n" + "\n".join(unused)
