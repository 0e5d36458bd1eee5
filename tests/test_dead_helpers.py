"""Every function, class and method of the package has a use in it.

A top-level function or class of ``src/ncpoint``, or a method of such a
class, must be named somewhere in ``src/ncpoint`` outside its own
definition, or in ``perfbench/tracer.py``, which names its trace targets
as strings; a word in a string of the package, such as a report line,
is not a use.  A name met only in the tests is a helper the program no
longer runs: it belongs in the tests, beside the oracle that uses it.
Dunder methods are called by Python itself and are not checked.
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
    "serialize_colorlie",  # the .cl parser's round-trip tests
    "NCPoly.homogeneous_parts",  # the span oracle, tests/span_quotient.py
    "Matrix.identity",  # the dense reference, in tests/test_linalg.py and test_normal.py
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
