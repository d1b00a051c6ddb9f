"""Bit-equality checks of the block evolution, run in a child process.

Run as a script under a chosen `OPENBLAS_CORETYPE` (see
test_blas_kernels.py).  It checks that each column of `_block_series` has
the bits of the same point evolved alone, at several L, block widths and
positions (among them a known falsifying example of F-order products under
the Haswell and Zen kernels: L=3, width 5, off from cycle 2), and that the
grids of `test_sweep.py::test_sweep_point_independence` give every point
the same bits with other points removed.  Prints one JSON line,
{"core": <OpenBLAS core name or null>, "mismatches": [...]}, and exits 1
on any mismatch.  With `--core` it only prints the core name (`none` if it
cannot be read), so a caller can skip a kernel the BLAS does not switch to.
"""

import ctypes
import json
import sys

import numpy as np

from starkdtc import SimulationParams, SweepAxis, SweepSpec, run_sweep
from starkdtc.hilbert import sigma_z_stack
from starkdtc.sweep import PropagatorFactory, _block_series

CYCLES = 30
CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def openblas_core():
    """The kernel family numpy's OpenBLAS runs with, or None if it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in CORENAME_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def block_cases():
    """(L, epsilon, F*T2 values, basis indices) of the blocks to check."""
    yield 3, 0.0, (0.32, 0.13, 0.02, 0.01, 0.41), (5, 7, 4, 4, 7)
    rng = np.random.default_rng(2024)
    for L in (2, 4, 6, 8, 10):
        # one stage-1 key per L: each new key builds U1 again
        epsilon = round(float(rng.uniform(0.0, 0.5)), 3)
        for width in (2, 3, 5, 8, 9):
            f_values = tuple(rng.uniform(0.0, 0.5, width).round(3))
            starts = tuple(int(s) for s in rng.integers(0, 1 << L, width))
            yield L, epsilon, f_values, starts


def block_mismatches():
    factory = PropagatorFactory()
    for L, epsilon, f_values, starts in block_cases():
        base = SimulationParams(L=L, omega=np.pi / 2, epsilon=epsilon, v=0.1)
        # the blocks as the sweep assembles them, once per stage-1 key
        u1 = factory.stage1(base).assemble()
        sz = sigma_z_stack(base.basis)
        columns = [(base.with_f_t2(float(f)), start) for f, start in zip(f_values, starts)]
        block, _ = _block_series(u1, columns, sz, CYCLES)
        for position, column in enumerate(columns):
            alone, _ = _block_series(u1, [column], sz, CYCLES)
            differ = np.flatnonzero(block[:, position] != alone[:, 0])
            if differ.size:
                cycle = int(differ[0])
                yield (
                    f"block L={L} width={len(columns)} position={position}: cycle {cycle} "
                    f"off by {abs(block[cycle, position] - alone[cycle, 0]):.1e}"
                )


def sweep_mismatches():
    base = SimulationParams(L=4, omega=np.pi / 2, epsilon=0.2, v=0.1, t1=1.0, t2=10.0)

    def a_pi(epsilons, f_values):
        axes = (SweepAxis("epsilon", epsilons), SweepAxis("F_T2", f_values))
        result = run_sweep(SweepSpec(axes=axes, base=base, observable="a_pi", n_cycles=20))
        return {(c["epsilon"], c["F_T2"]): v["a_pi"] for c, v in zip(result.coords, result.values)}

    for full, reduced in (
        (((0.0, 0.1, 0.2), (0.0, 0.25)), ((0.0, 0.2), (0.0, 0.25))),
        (((0.0, 0.1), (0.0, 0.1, 0.25)), ((0.0, 0.1), (0.0, 0.25))),
    ):
        kept = a_pi(*full)
        for point, value in a_pi(*reduced).items():
            if value != kept[point]:
                yield f"sweep point {point}: a_pi {value!r} alone, {kept[point]!r} in the full grid"


def main():
    if sys.argv[1:] == ["--core"]:
        print(openblas_core() or "none")
        return 0
    mismatches = list(block_mismatches()) + list(sweep_mismatches())
    print(json.dumps({"core": openblas_core(), "mismatches": mismatches}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
