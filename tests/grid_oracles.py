"""The lattice Hamiltonian and the reduced density matrices of an N-body
state on its M^N grid amplitudes psi: the oracles that the coefficient
kernels of `husimilab.manybody` are held to.

The state of amplitudes psi has the coefficients
a_K = fftn(psi)[K] sqrt(N! dx^N / M^N) on the sorted tuples K of
`manybody._sorted_tuples` (`from_grid`); `ManyBodyState.to_grid` is the
way back.  `gamma2_partial_diag` assembles the y-diagonal blocks of
gamma2 read off the coefficients into the whole array the oracles give.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial

import numpy as np

from husimilab import manybody as mb


def antisymmetrized(psi: np.ndarray) -> np.ndarray:
    """sum over sigma of sign(sigma) psi(x_sigma)."""
    return sum(mb._perm_sign(p) * np.transpose(psi, p)
               for p in permutations(range(psi.ndim)))


def from_grid(grid, psi: np.ndarray, time: float = 0.0) -> mb.ManyBodyState:
    """The state of antisymmetric lattice amplitudes psi."""
    scale = np.sqrt(factorial(grid.N) * grid.dx ** grid.N / grid.M ** grid.N)
    psi_hat = np.fft.fftn(psi, axes=range(grid.N))
    return mb.ManyBodyState(
        grid, psi_hat[tuple(mb._sorted_tuples(grid.M, grid.N))] * scale, time)


def pair_potential_table(grid, potential) -> np.ndarray:
    """W(x_1..x_N) = (1/2N) sum_{i/=j} V(x_i - x_j) on the N-body lattice."""
    N, M = grid.N, grid.M
    idx = np.arange(M)
    vtab = potential.evaluate(idx * grid.dx)  # V at lattice differences
    W = np.zeros((M,) * N)
    for i, j in combinations(range(N), 2):
        diff = (idx.reshape([-1 if a == i else 1 for a in range(N)])
                - idx.reshape([-1 if a == j else 1 for a in range(N)])) % M
        W = W + vtab[diff] / N
    return W


def axis_k2(grid) -> list[np.ndarray]:
    """|k|^2 of each N-body axis (FFT order), shaped to broadcast on the
    amplitudes; their sum is the N-body k^2 table."""
    k2 = grid.wavenumbers() ** 2
    return [k2.reshape([grid.M if b == a else 1 for b in range(grid.N)])
            for a in range(grid.N)]


def time_derivative(grid, psi: np.ndarray, potential) -> np.ndarray:
    """dpsi/dt = H psi / (i hbar) with H = -(hbar^2 / 2) Laplacian
    (spectral) + W (`pair_potential_table`), exact on the lattice."""
    kinetic = np.fft.ifftn(0.5 * grid.hbar ** 2 * sum(axis_k2(grid))
                           * np.fft.fftn(psi))
    W = pair_potential_table(grid, potential)
    return (kinetic + W * psi) / (1j * grid.hbar)


def kinetic_energy(grid, psi: np.ndarray) -> float:
    """(hbar^2 / 2) sum_j ||grad_j psi||^2 under the lattice quadrature."""
    power = np.abs(np.fft.fftn(psi)) ** 2
    # Parseval: sum |psi_hat|^2 / M^N * dx^N = ||psi||^2
    return float(0.5 * grid.hbar ** 2 * np.sum(sum(axis_k2(grid)) * power)
                 * grid.dx ** grid.N / grid.M ** grid.N)


def gamma1(grid, psi: np.ndarray) -> np.ndarray:
    """N sum_r psi(u, r) conj psi(w, r) dx^(N-1)."""
    mat = psi.reshape(grid.M, -1)
    return grid.N * (mat @ mat.conj().T) * grid.dx ** (grid.N - 1)


def partial_diag(grid, psi: np.ndarray) -> np.ndarray:
    """A[u, w, y] = N (N-1) sum_r psi(u, y, r) conj psi(w, y, r)
    dx^(N-2)."""
    M = grid.M
    flat = psi.reshape((M, M, -1))
    A = np.empty((M, M, M), dtype=complex)
    for y in range(M):
        A[:, :, y] = flat[:, y, :] @ flat[:, y, :].conj().T
    return grid.N * (grid.N - 1) * grid.dx ** (grid.N - 2) * A


def gamma2_partial_diag(state: mb.ManyBodyState) -> np.ndarray:
    """A[u1, w1, y] = gamma2(u1, y; w1, y) whole, O(M^3) memory: the blocks
    of `manybody.gamma2_diag_blocks` stored as [y, u, w], as a transposed
    view.  The run contracts the blocks one at a time and never forms A."""
    M = state.grid.M
    A = np.empty((M,) * 3, dtype=complex)
    for ys, P in mb.gamma2_diag_blocks(state):
        A[ys] = P
    return A.transpose(1, 2, 0)
