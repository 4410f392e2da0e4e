"""Every module-level import of the package and of the tests is read,
every function the package defines is named by the package or the bench,
and private numpy API enters the package through ``treesdp.linalg`` only.

No linter is installed, so this is the check for unused imports: each
module is parsed with ``ast``, and a name bound by a module-level import
must occur as a name somewhere in the module.  ``__future__`` imports and
names listed in ``__all__`` (re-exports) are exempt.

A ``def`` in ``src/treesdp`` that only the tests name belongs in the
tests: every non-dunder function or method must be named in ``src/`` or
``bench/`` on some line other than a ``def`` of that name, or be listed in
``treesdp.__all__``.

Private numpy modules (``numpy._core``, ``numpy.linalg._umath_linalg``)
can change in any numpy release.  Keeping their imports in one module
keeps one place to mend, and ``tests/test_linalg.py`` checks each private
callable against its public counterpart."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "treesdp").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted(
    (ROOT / "bench").rglob("*.py")
)


def unused_imports(source: str) -> list:
    """The names bound by module-level imports of ``source`` that the
    module never reads."""
    tree = ast.parse(source)
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names} - {"*"}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - exported)


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\n"
        "from itertools import chain, combinations\n"
        "from .x import kept\n__all__ = ['kept']\n"
        "def f():\n    import sys\n    return np.zeros(os.sep)\n"
    )
    assert unused_imports(source) == ["chain", "combinations"]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unnamed_defs(sources: list, readers: list, exported=()) -> list:
    """The names of the non-dunder functions and methods defined in
    ``sources`` that no line of ``readers`` names, other than a ``def`` of
    that name, and that ``exported`` does not list."""
    defined = {
        node.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    named = set()
    for text in readers:
        for line in text.splitlines():
            words = re.findall(r"\w+", line)
            own = re.match(r"\s*(?:async\s+)?def\s+(\w+)", line)
            if own:
                words.remove(own.group(1))
            named.update(words)
    return sorted(defined - named - set(exported))


def test_the_scan_finds_an_unnamed_def():
    source = (
        "def used():\n    return 1\n"
        "class A:\n    def __init__(self):\n        self.run = self.helper\n"
        "    def helper(self):\n        return used()\n"
        "    def orphan(self):\n        pass\n"
        "def exported_only():\n    pass\n"
    )
    # a second def of a name does not name it; a string does
    other = "class B:\n    def orphan(self):\n        pass\n"
    reader = "SPANS = {'A.orphan': 'layer'}\n"
    mods = [source, other]
    assert unnamed_defs(mods, mods) == ["exported_only", "orphan"]
    assert unnamed_defs(mods, mods, ["exported_only"]) == ["orphan"]
    assert unnamed_defs(mods, mods + [reader], ["exported_only"]) == []


def test_every_package_def_is_named_outside_the_tests():
    init = ast.parse((ROOT / "src" / "treesdp" / "__init__.py").read_text())
    exported = next(
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    sources = [path.read_text() for path in PACKAGE]
    readers = [path.read_text() for path in READERS]
    assert unnamed_defs(sources, readers, exported) == []


def _private_numpy(path: str) -> bool:
    parts = path.split(".")
    return parts[0] == "numpy" and any(p.startswith("_") for p in parts[1:])


def private_numpy_imports(source: str) -> list:
    """The private numpy modules and names that ``source`` imports, at any
    level: dotted paths under ``numpy`` with a part that starts with an
    underscore."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names if _private_numpy(a.name)}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if _private_numpy(node.module):
                found.add(node.module)
                continue
            paths = (f"{node.module}.{a.name}" for a in node.names)
            found |= {path for path in paths if _private_numpy(path)}
    return sorted(found)


def test_the_scan_finds_private_numpy_imports():
    source = (
        "import numpy as np\nimport numpy.linalg\n"
        "from numpy.linalg import LinAlgError\n"
        "from numpy._core.einsumfunc import bmm_einsum\n"
        "import numpy._core as core\n"
        "from numpy.linalg import _umath_linalg, norm\n"
        "from . import _private\n"
        "def f():\n    from numpy.linalg._linalg import eigh\n"
    )
    assert private_numpy_imports(source) == [
        "numpy._core",
        "numpy._core.einsumfunc",
        "numpy.linalg._linalg",
        "numpy.linalg._umath_linalg",
    ]


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE]
)
def test_private_numpy_api_is_imported_in_linalg_only(path):
    found = private_numpy_imports(path.read_text())
    if path.name == "linalg.py":
        assert found  # the scan sees the imports it allows
    else:
        assert found == []
