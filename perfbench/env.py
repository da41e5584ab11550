"""Where the benchmark runs: paths, a clean environment, provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, span files and server logs, one directory per
#: run so that runs never share state; removed after the run.
WORK_ROOT = ROOT / ".perfbench-work"
WORK = WORK_ROOT / str(os.getpid())


class NotACheckout(RuntimeError):
    """The benchmark was started outside a full checkout of the repository."""


def bootstrap() -> dict:
    """Make ``repro`` importable from the checkout and scrub ``REPRO_*``.

    Every ``REPRO_*`` variable is removed from this process's environment,
    which the server inherits, so the numbers measure the defaults.
    Returns the scrubbed variables (name -> value) for the provenance block.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise NotACheckout(f"no repro package under {SRC}")
    scrubbed = {name: os.environ.pop(name) for name in sorted(os.environ)
                if name.startswith("REPRO_")}
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    return scrubbed


def source_digest() -> str:
    """sha256 over every file of ``src/repro`` (the checkout is not a git
    repository, so this stands in for the commit when git cannot tell)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    """The checkout's git commit; None when the checkout is not a git
    repository (as when only the committed files are copied out)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, scrubbed: dict) -> dict:
    import numpy

    from repro.anf import backend, cnative

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "term_backend": backend.get_backend().name,
        "cnative_available": cnative.available(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_digest": source_digest(),
        "scrubbed_env": scrubbed,
    }
