"""The package's public surface."""
import ast
import re
from pathlib import Path

import erunion

SRC = Path(erunion.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_star_import_resolves_every_export():
    # a stale name in __all__ makes the star import itself raise
    namespace = {}
    exec("from erunion import *", namespace)
    assert set(erunion.__all__) <= namespace.keys()


def _names_read_in_package():
    """Every name the package's modules read, as a variable or an attribute;
    imports, assignments and def/class lines do not count."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_definitions():
    """Every public top-level def and class of the package's modules."""
    return {node.name for path in SRC.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_every_export_is_used_by_the_package_or_the_benchmark():
    # every export and every public def or class: a name only tests use
    # belongs in tests/reference.py; the benchmark names its traced functions
    # in strings, so its files are searched as text
    read = _names_read_in_package()
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    public = (set(erunion.__all__) - {"__version__"}) | _public_definitions()
    unused = [name for name in sorted(public)
              if name not in read and not re.search(rf"\b{name}\b", bench)]
    assert unused == []
