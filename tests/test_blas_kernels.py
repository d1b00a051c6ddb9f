"""A point's bits must not depend on its block under any OpenBLAS kernel.

numpy's OpenBLAS is built for several CPU families at once, and
`OPENBLAS_CORETYPE` picks the kernels of one of them per process.  Each
case reruns the bit-equality checks of `_blas_kernel_check.py` in a child
process under one kernel family, from a temporary directory and without
bytecode files, so nothing is written into the checkout.  A kernel the CPU
cannot run is skipped.  A case checks the kernels its `OPENBLAS_CORETYPE`
selects, which the failure message names by the core the BLAS reports, and
these need not be the family's own: under `OPENBLAS_CORETYPE=Zen`, numpy's
OpenBLAS 0.3.31 runs its Haswell kernels, so there `[Zen]` repeats the
Haswell check and is no Zen coverage.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# the instruction sets each kernel family needs, by /proc/cpuinfo flag
REQUIRED_FLAGS = {
    "Haswell": {"avx2", "fma"},
    "Zen": {"avx2", "fma"},
    "SandyBridge": {"avx"},
    "SkylakeX": {"avx512f"},
}


def cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def run_check(kernel: str, cwd):
    """`_blas_kernel_check.py` in a child process under `kernel`."""
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": kernel,
        "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    return subprocess.run(
        [sys.executable, str(TESTS / "_blas_kernel_check.py")],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("kernel", sorted(REQUIRED_FLAGS))
def test_block_bits_independent_of_blas_kernel(kernel, tmp_path):
    missing = REQUIRED_FLAGS[kernel] - cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {sorted(missing)} for the {kernel} kernels")
    proc = run_check(kernel, cwd=tmp_path)
    assert proc.stdout, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["mismatches"] == [], (
        f"under OPENBLAS_CORETYPE={kernel}, which runs the {report['core']} kernels"
    )
    assert proc.returncode == 0, proc.stderr
