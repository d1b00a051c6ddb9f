"""Independent reference implementations used as test oracles.

Everything here is built from first principles (explicit loops over basis
integers, Kronecker products of 2x2 blocks, Strang-split product formulas,
scipy's expm_multiply on a sparse H1) and deliberately shares no code with
the package paths it checks.  Two helpers step with the package's public
one-period `FloquetPropagator.apply` instead, which multiplies by U1's
assembled sector blocks, the product every command's evolution runs:
`coevolution_series` checks the evolution loop and readout of
`autocorrelator_series`, and `dense_u_f` gives the dense U_F that the
package never forms, so that product is checked against the independent
expm and Trotter propagators here.
"""

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply


def occupation(b: int, j: int) -> int:
    """Occupation of site j (1-based) in basis integer b, by string inspection."""
    return (b >> (j - 1)) & 1


def bits_of(b: int, L: int) -> str:
    """Bit string of basis integer b, leftmost character = site 1."""
    return "".join(str(occupation(b, j)) for j in range(1, L + 1))


def product_vector(bits: str) -> np.ndarray:
    """z-basis amplitudes of the z-product state `bits` (site j on bit j-1)."""
    psi = np.zeros(1 << len(bits), dtype=complex)
    psi[sum(1 << (j - 1) for j, ch in enumerate(bits, start=1) if ch == "1")] = 1.0
    return psi


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


def kernel_class_diagonal(L: int, v: float, kernel: str) -> np.ndarray:
    """The interaction diagonal as an `InteractionKernel` object once built
    it: V_ij = 0 beyond the kernel's reach, else V / |i-j|^6, and every
    nonzero pair added to a zero vector as V_ij n_i n_j, i < j ascending.
    The same float operations in the same order, so the same bits."""
    md = kernel_max_distance(kernel)
    occ = ((np.arange(1 << L)[None, :] >> np.arange(L)[:, None]) & 1).astype(float)
    diag = np.zeros(1 << L)
    for i in range(1, L + 1):
        for j in range(i + 1, L + 1):
            d = abs(i - j)
            coupling = 0.0 if md is not None and d > md else v / d**6
            if coupling != 0.0:
                diag += coupling * occ[i - 1] * occ[j - 1]
    return diag


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


def sigma_z_rows(L: int) -> np.ndarray:
    """(L, 2^L) sigma^z_j diagonals, by per-bit inspection."""
    return np.array([[2.0 * occupation(b, j) - 1.0 for b in range(1 << L)] for j in range(1, L + 1)])


def _expm_stages(L, omega, epsilon, v, f, t1, t2, kernel):
    """The generator -i T1 H1 as a sparse matrix and the stage-2 phase vector.

    H1 = sum_j (omega + epsilon) sigma^x_j + H_int is assembled from bit
    flips and the loop-built interaction diagonal.
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
    return (-1j * t1 * h1).tocsr(), np.exp(-1j * h2_diagonal(L, v, f, kernel) * t2)


def expm_multiply_series(L, omega, epsilon, v, f, t1, t2, bits, n_cycles, kernel="NN"):
    """C(n) of a z-product state, stage 1 propagated by `expm_multiply`.

    Each period applies exp(-i H1 t1) to the state with the Al-Mohy &
    Higham (2011) algorithm, then the diagonal stage-2 phase.  Never forms
    a dense propagator or calls an eigensolver.
    """
    generator, phase2 = _expm_stages(L, omega, epsilon, v, f, t1, t2, kernel)
    start = sum(1 << (j - 1) for j, ch in enumerate(bits, start=1) if ch == "1")
    z = sigma_z_rows(L)
    signs = z[:, start]
    psi = np.zeros(1 << L, dtype=complex)
    psi[start] = 1.0
    values = [1.0]
    for _ in range(n_cycles):
        psi = phase2 * expm_multiply(generator, psi)
        values.append(float(signs @ (z @ np.abs(psi) ** 2)) / L)
    return np.array(values)


def expm_multiply_coevolution(L, omega, epsilon, v, f, t1, t2, amplitudes, n_cycles, kernel="NN"):
    """Complex C(n) of any state from its z-basis amplitudes, by `expm_multiply`.

    psi = U_F^n psi0 and chi_j = U_F^n sigma^z_j psi0 are propagated as the
    columns of one block, as in `expm_multiply_series`, and C(n) = (1/L)
    sum_j <chi_j| sigma^z_j psi>.
    """
    generator, phase2 = _expm_stages(L, omega, epsilon, v, f, t1, t2, kernel)
    z = sigma_z_rows(L)
    psi0 = np.asarray(amplitudes, dtype=complex)
    block = np.column_stack([psi0] + [row * psi0 for row in z])
    values = [1.0 + 0j]
    for _ in range(n_cycles):
        block = phase2[:, None] * expm_multiply(generator, block)
        values.append(np.sum(block[:, 1:].conj() * (z.T * block[:, :1])) / L)
    return np.array(values)


def dense_u_f(prop) -> np.ndarray:
    """The dense U_F of a `FloquetPropagator`: one period applied to the identity."""
    return prop.apply(np.eye(prop.dimension, dtype=complex))


def coevolution_series(prop, amplitudes, n_cycles):
    """Complex C(n) from two `prop.apply` calls per cycle.

    psi = U_F^n psi0 and the columns chi_j = U_F^n sigma^z_j psi0 are
    advanced separately, and C(n) = (1/L) sum_j <chi_j| sigma^z_j psi>,
    for any initial state given by its z-basis amplitudes.
    """
    z = sigma_z_rows(prop.params.L)
    psi = np.array(amplitudes, dtype=complex)
    chi = (z * psi).T.copy()
    values = [1.0 + 0j]
    for _ in range(n_cycles):
        psi = prop.apply(psi)
        chi = prop.apply(chi)
        values.append(np.einsum("jb,bj->", z, chi.conj() * psi[:, None]) / z.shape[0])
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
