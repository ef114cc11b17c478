"""The float layer and the exact layer never import each other.

`numeric` is the float layer and imports no `hciz` module but `errors`.
The exact layer (`scalars`, `exactpoly`, `symfn`, `invariant`) imports
neither numpy nor `numeric`, at any scope: a function-level import counts,
since one lazy import is enough to tie the layers together again.  The
check reads each module's source with `ast`, so it sees every import
statement whether or not it ever runs.
"""

import ast
import os

import pytest

import hciz

PACKAGE = os.path.dirname(os.path.abspath(hciz.__file__))
EXACT_LAYER = ("scalars", "exactpoly", "symfn", "invariant")


def imports_of(source: str) -> set:
    """Every module an import statement in `source` may load, at any scope.

    `from m import a` gives both m and m.a, since a may be a submodule, and
    relative imports resolve inside `hciz` (`from . import suites` gives
    `hciz` and `hciz.suites`).
    """
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["hciz" if node.level else None, node.module]))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def hciz_modules(names: set) -> set:
    """The `hciz` submodules that `names` reach: `hciz.symfn.Partition` reaches `symfn`."""
    return {m.split(".")[1] for m in names if m.startswith("hciz.")}


def module_imports(name: str) -> set:
    with open(os.path.join(PACKAGE, f"{name}.py")) as fh:
        return imports_of(fh.read())


def test_the_reader_sees_imports_at_every_scope():
    source = (
        "from __future__ import annotations\n"
        "from .errors import E\n"
        "def f():\n"
        "    import numpy.linalg as la\n"
        "    from . import numeric\n"
        "    class C:\n"
        "        def g(self):\n"
        "            from .symfn import Partition\n"
    )
    got = imports_of(source)
    assert {m for m in got if m.startswith("numpy")} == {"numpy.linalg"}
    assert hciz_modules(got) == {"errors", "numeric", "symfn"}
    assert hciz_modules(imports_of("from hciz import numeric")) == {"numeric"}


def test_numeric_imports_no_hciz_module_but_errors():
    assert hciz_modules(module_imports("numeric")) == {"errors"}


@pytest.mark.parametrize("name", EXACT_LAYER)
def test_exact_layer_imports_neither_numpy_nor_numeric(name):
    got = module_imports(name)
    assert not {m for m in got if m.split(".")[0] == "numpy"}
    assert "numeric" not in hciz_modules(got)
