"""Host fingerprint stamped on every result: results are comparable only
between runs whose fingerprints match."""

from __future__ import annotations

import os
import platform
import subprocess


def _first_line(cmd: list[str], cwd: str | None = None) -> str | None:
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.strip().splitlines()
    return lines[0].strip() if proc.returncode == 0 and lines else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def git_sha(root: str) -> str:
    """HEAD of ``root`` when it is itself a git checkout, else ``unknown``
    (a parent directory's repository must not be mistaken for this one)."""
    top = _first_line(["git", "rev-parse", "--show-toplevel"], cwd=root)
    if top is None or os.path.realpath(top) != os.path.realpath(root):
        return "unknown"
    return _first_line(["git", "rev-parse", "HEAD"], cwd=root) or "unknown"


def fingerprint(root: str, seed: int, omp_threads: int) -> dict:
    import numpy

    return {
        "cpu": cpu_model(),
        "nproc": nproc(),
        "cc": _first_line(["cc", "--version"]) or "unavailable",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "omp_num_threads": omp_threads,
        "seed": seed,
    }
