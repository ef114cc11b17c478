"""The float layer and the exact layer never import each other.

`numeric` is the float layer and imports no `hciz` module but `errors`.
The exact layer (`scalars`, `exactpoly`, `symfn`, `invariant`) imports
neither numpy nor `numeric`, at any scope: a function-level import counts,
since one lazy import is enough to tie the layers together again.  The
check reads each module's source with `ast`, so it sees every import
statement whether or not it ever runs.

The same reading keeps random streams in two places: a numpy bit generator
is built only in `numeric._substream` (the Monte Carlo workers) and in
`cli.spectrum_rng` (the `r` spectra).
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


# numpy's bit generators and the calls that build one; `Generator` only wraps one
BIT_GENERATORS = {"Philox", "SFC64", "PCG64", "PCG64DXSM", "MT19937", "default_rng",
                  "RandomState"}


def bit_generator_uses(source: str) -> set:
    """(function, name) for each mention of a bit generator in `source`, at
    any scope: a call, an attribute, a bare name or an import.  `function`
    is the innermost enclosing def, '' at module level; a lambda or class
    body counts as the def around it."""
    out = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.alias):
                name = child.name.rsplit(".", 1)[-1]
            else:
                name = None
            if name in BIT_GENERATORS:
                out.add((func, name))
            visit(child, func)

    visit(ast.parse(source), "")
    return out


def test_the_generator_reader_sees_every_form():
    source = (
        "from numpy.random import SFC64 as S\n"
        "import numpy as np\n"
        "def f(seed):\n"
        "    g = lambda: np.random.Generator(np.random.Philox(seed))\n"
        "    class C:\n"
        "        def h(self):\n"
        "            make = np.random.default_rng\n"
        "    return g\n"
    )
    assert bit_generator_uses(source) == {("", "SFC64"), ("f", "Philox"), ("h", "default_rng")}


def test_bit_generators_are_built_in_two_places():
    # Monte Carlo workers draw from `numeric._substream`, `r` spectra from
    # `cli.spectrum_rng`; a third generator would be a stream nothing documents
    found = set()
    for file in sorted(os.listdir(PACKAGE)):
        if file.endswith(".py"):
            with open(os.path.join(PACKAGE, file)) as fh:
                found |= {(file[:-3], func) for func, _ in bit_generator_uses(fh.read())}
    assert found == {("numeric", "_substream"), ("cli", "spectrum_rng")}
