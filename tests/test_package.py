"""The package's public surface."""
import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import erunion

SRC = Path(erunion.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# perfbench/workloads.py, imported by path: perfbench is not a package
_spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


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


def _reads_numpy_linalg(node) -> bool:
    """``np.linalg`` or ``numpy.linalg`` read as an attribute, or imported."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "linalg" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.linalg") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.linalg") or (
            node.module == "numpy" and any(alias.name == "linalg" for alias in node.names))
    return False


def test_spectral_is_the_one_door_to_lapack():
    # only spectral.py calls numpy.linalg, and no module finds the BLAS by
    # reading the process's memory map
    readers, maps = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _reads_numpy_linalg(node):
                readers.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Constant) and node.value == "/proc/self/maps":
                maps.append(f"{path.name}:{node.lineno}")
    assert readers and all(where.startswith("spectral.py:") for where in readers), readers
    assert maps == []


def test_src_imports_only_stdlib_and_numpy():
    # the package depends on numpy alone, as pyproject.toml says; a relative
    # import (level > 0) is the package itself
    allowed = set(sys.stdlib_module_names) | {"numpy", "erunion"}
    imports, foreign = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                imports.append(module)
                if module.split(".")[0] not in allowed:
                    foreign.append(f"{path.name}:{node.lineno} {module}")
    assert "numpy" in imports and foreign == [], foreign


def _calls(names) -> list[str]:
    """file:line of each call, in the package's modules, of a function or
    attribute with one of the given names."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    callers.append(f"{path.name}:{node.lineno}")
    return callers


def test_one_route_from_seed_to_graph():
    # only run_mc and mc --dump-graphs turn a trial's seed into its graph, and
    # both through the same two calls
    callers = _calls(("rare_pairs", "trial_seeds_np"))
    assert {where.split(":")[0] for where in callers} == {"montecarlo.py", "cli.py"}, callers


def test_one_place_starts_threads():
    # run_mc's helper pool is the package's only source of threads
    starts = _calls(("ThreadPoolExecutor", "Thread"))
    assert len(starts) == 1 and starts[0].startswith("montecarlo.py:"), starts


def test_one_place_sets_the_blas_thread_count():
    # eigenvalue_at holds one BLAS thread for its own solves; no caller of it
    # sets the count around them
    holds = _calls(("one_blas_thread",))
    assert holds and {where.split(":")[0] for where in holds} == {"spectral.py"}, holds


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_benchmark_workload_runs_an_operation(name):
    # set-up and two operations of each workload: for exact-sweep, the tables
    # pass and one grid point; a name the benchmark calls that the package
    # lost fails here
    workload = workloads.make(name, 1)
    workload.setup()
    for _ in range(2):
        _, op = workload.next_op()
        op()
