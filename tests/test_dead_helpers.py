"""Every function, class and method of the package has a use in it.

A top-level function or class of ``src/ncpoint``, or a method of such a
class, must be named somewhere in ``src/ncpoint`` outside its own
definition, or in ``perfbench/tracer.py``, which names its trace targets
as strings; a word in a string of the package, such as a report line,
is not a use.  A name met only in the tests is a helper the program no
longer runs: it belongs in the tests, beside the oracle that uses it.
Dunder methods are called by Python itself and are not checked.

A defaulted parameter must be overridden, by position or by keyword, in
some call in ``src/ncpoint``; a default that every call keeps is a
constant in disguise.  ``cli.main(argv)`` is exempt: its callers are the
console and the tests.

Module-level names must be read as well.  A private name, or a name an
import binds, must be read in its own module; the re-exports of
``__init__.py`` are its public interface and are exempt.  A public
assignment must be read somewhere in ``src/ncpoint`` or in the tracer.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ncpoint"
TRACER = ROOT / "perfbench" / "tracer.py"

ALLOWED = {
    "serialize_algebra",  # the .alg parser's round-trip tests
}


def definitions(tree):
    """(qualified name, node) of each top-level function and class, and of
    each method of a top-level class other than its dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def names(node, strings=False) -> Counter:
    """How often each identifier is named under node, as a variable or an
    attribute, and when `strings`, as a word of a string."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(re.findall(r"\w+", n.value))
    return out


def dead_helpers(sources):
    """The qualified names defined in `sources` (name -> source text of a
    package module) that nothing else there nor the tracer names."""
    trees = [ast.parse(text) for text in sources.values()]
    used = names(ast.parse(TRACER.read_text()), strings=True)
    for tree in trees:
        used += names(tree)
    dead = []
    for tree in trees:
        for qualname, node in definitions(tree):
            short = qualname.rpartition(".")[2]
            if used[short] - names(node)[short] <= 0:
                dead.append(qualname)
    return sorted(dead)


def test_detects_a_dead_helper():
    source = ('def used():\n    return 1\n\n\n'
              'def dead():\n'
              '    return dead() + used()\n\n\n'
              'class Box:\n    def __init__(self):\n        self.size = used()\n\n'
              '    def shown(self):\n        return self\n\n'
              '    def hidden(self):\n        return self.shown()\n\n\n'
              'MESSAGE = "hidden"\n')
    # a word of a string in the package is not a use; a string of the tracer is
    assert dead_helpers({"mod.py": source}) == ["Box", "Box.hidden", "dead"]


def test_every_package_helper_has_a_use():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources and dead_helpers(sources) == sorted(ALLOWED)


def reads(tree) -> Counter:
    """How often each identifier is read under tree, as a variable or an
    attribute."""
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def module_bindings(tree, exempt_imports=False):
    """(name, is_public_assignment) of each name bound at module level by an
    assignment, a private def or class, or an import; dunder names and
    `from __future__` imports are left out."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, not n.id.startswith("_")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                yield node.name, False
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not exempt_imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).partition(".")[0], False


def unread_names(sources):
    """The `module.name` of each module-level name in `sources` (name ->
    source text of a package module) that is not read where it must be."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = names(ast.parse(TRACER.read_text()), strings=True)
    for tree in trees.values():
        used += reads(tree)
    unread = []
    for module, tree in trees.items():
        own = reads(tree)
        for name, public in module_bindings(tree, exempt_imports=module == "__init__.py"):
            if name.startswith("__"):
                continue
            if not (used[name] if public else own[name]):
                unread.append(f"{module.removesuffix('.py')}.{name}")
    return sorted(set(unread))


def test_detects_an_unread_module_name():
    source = ('from fractions import Fraction\n'
              'import re\n'
              '_HIDDEN = 1\n'
              '_KEPT = 2\n'
              'SHOWN = _KEPT\n'
              'LOST = "SHOWN"\n\n\n'
              'def _helper():\n    return re\n')
    # a word of a string in the package is not a read; a string of the tracer is
    assert unread_names({"mod.py": source}) == \
        ["mod.Fraction", "mod.LOST", "mod.SHOWN", "mod._HIDDEN", "mod._helper"]
    assert unread_names({"__init__.py": "from .mod import Box\n"}) == []


def test_every_module_level_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources and unread_names(sources) == []


EXEMPT_DEFAULTS = {"main(argv)"}


def defaulted_parameters(tree):
    """(call name, offset, parameter name, position) of each defaulted
    parameter of a function, method or constructor under tree.  A method
    or constructor (called by its class name) has offset 1: a call's first
    argument fills its second parameter.  The position of a keyword-only
    parameter is None."""
    owner = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        name = owner[id(node)] if node.name == "__init__" else node.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        offset = 1 if id(node) in owner and not static else 0
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for pos in range(first, len(positional)):
            yield name, offset, positional[pos].arg, pos
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, offset, arg.arg, None


def unused_defaults(sources):
    """`name(parameter)` of each defaulted parameter defined in `sources`
    (name -> source text of a package module) that no call there passes."""
    trees = [ast.parse(text) for text in sources.values()]
    calls = {}
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                callee = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                calls.setdefault(callee, []).append(n)

    def passes(call, offset, param, pos):
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if pos is None:
            return False
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or offset + len(call.args) > pos)

    unused = []
    for tree in trees:
        for name, offset, param, pos in defaulted_parameters(tree):
            if not any(passes(c, offset, param, pos) for c in calls.get(name, [])):
                unused.append(f"{name}({param})")
    return sorted(set(unused) - EXEMPT_DEFAULTS)


def test_detects_an_unused_default():
    source = ('def f(a, b=1, *, c=2, d=3):\n    return a\n\n\n'
              'class Box:\n    def __init__(self, size=0, kind="a"):\n        self.size = size\n\n'
              '    def grow(self, by=1):\n        return f(by, c=5)\n\n\n'
              'def use():\n    return Box(3).grow(), f(1, **{})\n')
    assert unused_defaults({"mod.py": source}) == ["Box(kind)", "grow(by)"]


def test_every_default_is_overridden():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources and unused_defaults(sources) == []
