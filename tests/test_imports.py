"""Every module-level import of the package and of the tests is read.

No linter is installed, so this is the check for unused imports: each
module is parsed with ``ast``, and a name bound by a module-level import
must occur as a name somewhere in the module.  ``__future__`` imports and
names listed in ``__all__`` (re-exports) are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "treesdp").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
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
