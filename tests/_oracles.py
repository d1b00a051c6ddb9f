"""Independent reference implementations used as test oracles.

Everything here is built from first principles (explicit loops over basis
integers, Kronecker products of 2x2 blocks, Strang-split product formulas,
scipy's expm_multiply on a sparse H1) and deliberately shares no code with
the package paths it checks.
"""

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply


def occupation(b: int, j: int) -> int:
    """Occupation of site j (1-based) in basis integer b, by string inspection."""
    return (b >> (j - 1)) & 1


def interaction_energy(b: int, L: int, v: float, max_distance) -> float:
    """Pairwise vdW energy of one basis state by explicit double loop."""
    total = 0.0
    for i in range(1, L + 1):
        for j in range(i + 1, L + 1):
            d = j - i
            if max_distance is not None and d > max_distance:
                continue
            total += v / d**6 * occupation(b, i) * occupation(b, j)
    return total


def stark_energy(b: int, L: int, f: float) -> float:
    return f * sum(j * occupation(b, j) for j in range(1, L + 1))


def kernel_max_distance(kernel: str):
    return {"NN": 1, "NNN": 2, "NNNN": 3, "ALL": None}[kernel]


def h2_diagonal(L: int, v: float, f: float, kernel: str = "NN") -> np.ndarray:
    md = kernel_max_distance(kernel)
    return np.array(
        [interaction_energy(b, L, v, md) + stark_energy(b, L, f) for b in range(1 << L)]
    )


def x_rotation_product(L: int, angle: float) -> np.ndarray:
    """exp(-i angle sum_j sigma^x_j) as a Kronecker product of 2x2 rotations.

    Site j occupies bit j-1, so site 1 is the *last* Kronecker factor.
    """
    r = np.array(
        [[np.cos(angle), -1j * np.sin(angle)], [-1j * np.sin(angle), np.cos(angle)]]
    )
    out = np.array([[1.0 + 0j]])
    for _ in range(L):
        out = np.kron(out, r)
    return out


def trotter_floquet(L, omega, epsilon, v, f, t1, t2, kernel="NN", n_steps=100_000):
    """Second-order Strang product for U_F with total step count ~ n_steps.

    Stage 1 alternates analytic x-rotation half steps with interaction phase
    steps; stage 2 is diagonal and hence exact.  Never calls an eigensolver.
    """
    dim = 1 << L
    period = t1 + t2
    dt = period / n_steps
    n1 = max(1, int(np.ceil(t1 / dt)))
    dt1 = t1 / n1

    md = kernel_max_distance(kernel)
    int_diag = np.array([interaction_energy(b, L, v, md) for b in range(dim)])
    w_half = x_rotation_product(L, (omega + epsilon) * dt1 / 2.0)
    phase_int = np.exp(-1j * int_diag * dt1)
    step = w_half @ (phase_int[:, None] * w_half)
    u1 = np.linalg.matrix_power(step, n1)

    h2 = int_diag + np.array([stark_energy(b, L, f) for b in range(dim)])
    return np.exp(-1j * h2 * t2)[:, None] * u1


def expm_multiply_series(L, omega, epsilon, v, f, t1, t2, bits, n_cycles, kernel="NN"):
    """C(n) of a z-product state, stage 1 propagated by `expm_multiply`.

    H1 = sum_j (omega + epsilon) sigma^x_j + H_int is assembled as a sparse
    matrix from bit flips and the loop-built interaction diagonal, and each
    period applies exp(-i H1 t1) to the state with the Al-Mohy & Higham
    (2011) algorithm, then the diagonal stage-2 phase.  Never forms a dense
    propagator or calls an eigensolver.
    """
    dim = 1 << L
    md = kernel_max_distance(kernel)
    basis = np.arange(dim)
    flips = [basis ^ (1 << (j - 1)) for j in range(1, L + 1)]
    int_diag = np.array([interaction_energy(b, L, v, md) for b in range(dim)])
    h1 = scipy.sparse.csr_matrix(
        (
            np.concatenate([np.full(dim * L, omega + epsilon), int_diag]),
            (np.concatenate(flips + [basis]), np.tile(basis, L + 1)),
        ),
        shape=(dim, dim),
    )
    generator = (-1j * t1 * h1).tocsr()
    phase2 = np.exp(-1j * h2_diagonal(L, v, f, kernel) * t2)

    start = sum(1 << (j - 1) for j, ch in enumerate(bits, start=1) if ch == "1")
    z = np.array([[2.0 * occupation(b, j) - 1.0 for b in range(dim)] for j in range(1, L + 1)])
    signs = z[:, start]
    psi = np.zeros(dim, dtype=complex)
    psi[start] = 1.0
    values = [1.0]
    for _ in range(n_cycles):
        psi = phase2 * expm_multiply(generator, psi)
        values.append(float(signs @ (z @ np.abs(psi) ** 2)) / L)
    return np.array(values)


def dft_magnitudes(values: np.ndarray) -> np.ndarray:
    """|X(omega_k)|/N from C[1..N] by the direct double loop."""
    n_cycles = len(values) - 1
    out = np.empty(n_cycles)
    for k in range(n_cycles):
        acc = 0.0 + 0j
        for n in range(1, n_cycles + 1):
            acc += values[n] * np.exp(-2j * np.pi * k * n / n_cycles)
        out[k] = abs(acc) / n_cycles
    return out
