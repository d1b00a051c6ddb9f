"""Machine and build record carried by every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

STREAM_REPEATS = 5


def _cache_bytes(level: int) -> int:
    name = "SC_LEVEL1_DCACHE_SIZE" if level == 1 else f"SC_LEVEL{level}_CACHE_SIZE"
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        value = 0
    if value > 0:
        return value
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if int((index / "level").read_text()) == level and (index / "type").read_text().strip() != "Instruction":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            continue
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable: git failed"
    return out.stdout.strip() or "unavailable: git failed"


def cpu_times() -> list:
    """The aggregate `cpu` line of /proc/stat, in clock ticks (empty if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_frac(before: list, after: list):
    """Share of CPU time the hypervisor gave to other guests between two readings."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def src_files(root: Path) -> list:
    return sorted((root / "src" / "starkdtc").glob("*.py"))


def src_lines(root: Path) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in src_files(root))


def record(root: Path) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in src_files(root):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "cache_bytes": {"L1d": _cache_bytes(1), "L2": _cache_bytes(2), "L3": _cache_bytes(3)},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines(root),
    }


def stream_triad(l3_bytes: int) -> dict:
    """Sustained memory bandwidth of a numpy triad a = b + s*c, one thread.

    Each array is at least four times the last-level cache.  numpy makes the
    triad two passes (a = s*c, then a += b), which move five array lengths;
    the best of several repeats is reported, as STREAM does.
    """
    import numpy as np

    n = max(4 * l3_bytes, 64 << 20) // 8
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(STREAM_REPEATS):
        start = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - start)
    if a[n // 2] != 7.0:
        raise RuntimeError("stream triad produced a wrong value")
    return {"gbps": 5 * 8 * n / best / 1e9, "array_bytes": 8 * n, "l3_bytes": l3_bytes}
