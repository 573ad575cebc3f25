"""Every function, class and method under ``src/talab`` has a caller there, and
every default a parameter there carries can be overridden by one.

A top-level function or class, or a non-dunder method, must be referenced
somewhere in ``src/talab`` outside its own definition, or in ``perfbench/``. A
top-level member is referenced as a name or an attribute (``f``, ``dist.f``); a
method only as an attribute of something other than a module alias (``x.m``,
not ``m`` nor ``dist.m``), so a method that shares its name with a variable or
with a function of another module is not taken as used. Listing a name in
``__all__`` or importing it is not a use. Code whose only caller is a test
belongs in ``tests/``.

A parameter with a default (of a function, method or ``__init__``) must be
set, by keyword or by position, in some call in ``src/talab`` or
``perfbench/``; an option only tests set is a constant. Calls are matched by
bare name, a class's ``__init__`` by the class's name or a subclass's, and a
call that passes the function itself as an argument, as in
``domain(paths, fn, *args)``, counts as a call of it with the arguments
after it. Dataclass fields are not parameters here.

Every law is built by ``dist.mixture``: no other code under ``src/talab`` calls
``DistributionSpec(...)``.

A module under ``src/talab`` imports only the standard library, its own
package and numpy, the one run-time dependency ``pyproject.toml`` lists (scipy
is a test dependency), at module level or inside a function.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _trees(directory: str) -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted((ROOT / directory).glob("*.py"))}


MODULES = {p.stem for d in ("src/talab", "perfbench") for p in (ROOT / d).glob("*.py")}


def _module_aliases(tree: ast.Module) -> set[str]:
    """Names a module binds to modules: ``import x [as y]`` and ``from . import
    dist``, ``from talab import equilibrium as eq`` for modules of this repo."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            out |= {a.asname or a.name for a in node.names if a.name in MODULES}
    return out


def _uses(node: ast.AST, aliases: set[str]) -> tuple[Counter, Counter]:
    """(uses as a top-level member, uses as a method) of each name under node."""
    top, method = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            top[n.id] += 1
        elif isinstance(n, ast.Attribute):
            top[n.attr] += 1
            if not (isinstance(n.value, ast.Name) and n.value.id in aliases):
                method[n.attr] += 1
    return top, method


def _definitions(tree: ast.Module):
    """The top-level functions and classes, and the non-dunder methods of the classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, defs)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _test_only(trees: dict[str, ast.Module], bench: dict[str, ast.Module]) -> list[str]:
    """'file: qualname' of each member of trees with no use in trees outside its
    own definition and none in bench."""
    def total(group):
        top, method = Counter(), Counter()
        for tree in group.values():
            t, m = _uses(tree, _module_aliases(tree))
            top, method = top + t, method + m
        return top, method

    uses, bench_uses = total(trees), total(bench)
    unused = []
    for file, tree in trees.items():
        aliases = _module_aliases(tree)
        for qualname, node in _definitions(tree):
            kind = "." in qualname            # 0: top-level member, 1: method
            own = _uses(node, aliases)[kind][node.name]
            if not bench_uses[kind][node.name] and uses[kind][node.name] <= own:
                unused.append(f"{file}: {qualname}")
    return unused


def test_src_has_no_test_only_members():
    unused = _test_only(_trees("src/talab"), _trees("perfbench"))
    assert not unused, "defined under src/talab but used only by tests:\n" + "\n".join(unused)


# two test-only methods the rule once missed, put back: BidFunction.from_json_dict
# shares its name with dist.from_json_dict, a component's params with a variable
_FIXTURE = {
    "dist.py": """
def from_json_dict(obj):
    params = obj["params"]
    return _Uniform(params)

class _Uniform:
    def __init__(self, params):
        self.lo = params[0]

    @property
    def params(self):
        return (self.lo,)
""",
    "equilibrium.py": """
from . import dist

class BidFunction:
    @staticmethod
    def from_json_dict(obj):
        return BidFunction()

def load(obj):
    return dist.from_json_dict(obj), BidFunction()
""",
}
_BENCH = {"workloads.py": "from talab import equilibrium as eq\neq.load({})\n"}


def test_methods_count_only_attribute_uses_off_module_aliases():
    trees = {name: ast.parse(src) for name, src in _FIXTURE.items()}
    bench = {name: ast.parse(src) for name, src in _BENCH.items()}
    assert sorted(_test_only(trees, bench)) == ["dist.py: _Uniform.params",
                                                "equilibrium.py: BidFunction.from_json_dict"]
    bench["use.py"] = ast.parse("part.params\nbid.from_json_dict({})\n")
    assert _test_only(trees, bench) == []


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


def _spec_builds_outside_mixture(trees: dict[str, ast.Module]) -> list[str]:
    """'file:line' of each ``DistributionSpec(...)`` call outside the body of
    ``dist.mixture``, the one constructor every law is built by."""
    inside = {id(n) for node in trees["dist.py"].body
              if isinstance(node, ast.FunctionDef) and node.name == "mixture"
              for n in ast.walk(node)}
    return [f"{file}:{n.lineno}" for file, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, ast.Call) and _name(n.func) == "DistributionSpec"
            and id(n) not in inside]


def test_only_mixture_builds_a_distribution_spec():
    outside = _spec_builds_outside_mixture(_trees("src/talab"))
    assert not outside, "DistributionSpec built outside dist.mixture:\n" + "\n".join(outside)
    # a direct build in another function of dist.py or another module is seen
    trees = {"dist.py": ast.parse("def mixture(c, s):\n    return DistributionSpec(s, c, c)\n\n"
                                  "def uniform(lo, hi):\n    return DistributionSpec(lo, hi, 1)\n"),
             "sequences.py": ast.parse("from . import dist\nx = dist.DistributionSpec(1, 2, 3)\n")}
    assert _spec_builds_outside_mixture(trees) == ["dist.py:5", "sequences.py:2"]


def _foreign_imports(trees: dict[str, ast.Module], allowed: set[str]) -> list[str]:
    """'file: module' of each import, at any depth, of a module that is neither
    in the standard library, nor relative, nor a top-level package in allowed."""
    out = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            out += [f"{file}: {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names | allowed]
    return out


def test_src_imports_only_the_standard_library_and_numpy():
    # the runtime dependencies pyproject.toml promises are numpy's alone
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    foreign = _foreign_imports(_trees("src/talab"), {"numpy", "talab"})
    assert not foreign, "imports beyond the standard library and numpy:\n" + "\n".join(foreign)
    # a lazy import inside a function is one too
    lazy = ast.parse("import math\nfrom . import dist\n\ndef f():\n"
                     "    from scipy.special import betainc\n    import numpy.linalg\n")
    assert _foreign_imports({"dist.py": lazy}, {"numpy"}) == ["dist.py: scipy.special"]
