"""Every function, class and method under ``src/talab`` has a caller there, and
every default a parameter there carries can be overridden by one.

A top-level function or class, or a non-dunder method, must be referenced as a
name or an attribute somewhere in ``src/talab`` outside its own definition, or
in ``perfbench/``. Listing a name in ``__all__`` or importing it is not a use.
Code whose only caller is a test belongs in ``tests/``.

A parameter with a default (of a function, method or ``__init__``) must be
set, by keyword or by position, in some call in ``src/talab`` or
``perfbench/``; an option only tests set is a constant. Calls are matched by
bare name, a class's ``__init__`` by the class's name or a subclass's, and a
call that passes the function itself as an argument, as in
``_config_rule(paths, fn, *args)``, counts as a call of it with the arguments
after it. Dataclass fields are not parameters here.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(directory: str) -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted((ROOT / directory).glob("*.py"))}


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
    trees = _trees("src/talab")
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    bench = sum((_uses(tree) for tree in _trees("perfbench").values()), Counter())
    unused = [f"{file}: {qualname}" for file, tree in trees.items()
              for qualname, node in _definitions(tree)
              if not bench[node.name] and uses[node.name] <= _uses(node)[node.name]]
    assert not unused, "defined under src/talab but used only by tests:\n" + "\n".join(unused)


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(trees):
    """(callee name, positional arguments, keyword names) of every call, plus one
    entry per argument that names a function, with the arguments after it."""
    for tree in trees:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            keywords = {k.arg for k in call.keywords}
            yield _name(call.func), call.args, keywords
            for i, arg in enumerate(call.args):
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    yield _name(arg), call.args[i + 1 :], keywords


def test_src_defaults_have_a_caller_that_sets_them():
    trees = _trees("src/talab")
    classes = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    subclasses = {c.name: {_name(b) for b in c.bases} for c in classes}

    def names(cls: str) -> set[str]:     # cls and every class derived from it
        out = {cls}
        for sub, bases in subclasses.items():
            if cls in bases and sub not in out:
                out |= names(sub)
        return out

    owner = {id(m): c for c in classes for m in c.body}
    calls = list(_calls([*trees.values(), *_trees("perfbench").values()]))
    unset = []
    for file, tree in trees.items():
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            cls = owner.get(id(fn))
            if cls is not None and not any(_name(d) == "staticmethod" for d in fn.decorator_list):
                positional = positional[1:]                     # self or cls
            callees = names(cls.name) if cls is not None and fn.name == "__init__" else {fn.name}
            site = [(args, kw) for name, args, kw in calls if name in callees]
            unset += [f"{file}: {fn.name}({p})" for p in defaulted
                      if not any(p in kw or p in positional[:len(args)] for args, kw in site)]
    assert not unset, "defaults no call under src/talab or perfbench sets:\n" + "\n".join(unset)
