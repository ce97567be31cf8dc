"""Host and provenance block recorded with every result."""
from __future__ import annotations

import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(repo: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = repo / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines(repo: Path) -> dict:
    files = sorted((repo / "src" / "erunion").glob("*.py")) + \
        sorted((repo / "src" / "erunion").glob("*.pyx"))
    lines = 0
    for f in files:
        with open(f, "rb") as fp:
            lines += sum(1 for _ in fp)
    return {"files": len(files), "lines": lines}


def host_block(repo: Path) -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints and has no dict mode
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    try:
        import erunion
        backend = erunion.active_backend() if hasattr(erunion, "active_backend") else None
    except ImportError:
        backend = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "erunion_backend": backend,
        "git_commit": _git_commit(repo),
        "src_erunion": _src_lines(repo),
    }
