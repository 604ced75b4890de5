"""N-body wavefunctions: Slater initial data, split-step propagation,
reduced density matrices, and kinetic-energy diagnostics.

Amplitudes are stored as an (M,)*N complex array in coordinate order
(x_1, ..., x_N) on the shared periodic grid (d = 1 for N >= 2; the
propagator itself is dimension-generic for a single particle).  The
propagator is Strang splitting: half potential, full kinetic, half
potential, with the two half kicks that meet between steps merged into
one full kick.  The kinetic step is the lattice operator
F^-1 diag(exp(-i dt hbar k^2 / 2)) F written as one dense symmetric
circulant M x M matrix, applied along each coordinate axis in turn by a
matrix product.  Antisymmetry is monitored, never re-imposed; the exact
flow commutes with permutations, so drift flags a solver bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial

import numpy as np

from husimilab.grid import GridError, GridSpec, Potential


class PropagationError(RuntimeError):
    pass


@dataclass
class ManyBodyState:
    grid: GridSpec
    psi: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        expected = (self.grid.M,) * (self.grid.d * self.grid.N)
        if self.psi.shape != expected:
            raise GridError(f"amplitude shape {self.psi.shape} != {expected}")

    def norm(self) -> float:
        w = self.grid.weight ** self.grid.N
        return float(np.sqrt(np.sum(np.abs(self.psi) ** 2) * w))

    def copy(self) -> "ManyBodyState":
        return ManyBodyState(self.grid, self.psi.copy(), self.time)


def antisymmetry_defect(state: ManyBodyState) -> float:
    """Max violation of psi(swap pair) = -psi over all coordinate pairs."""
    if state.grid.N == 1:
        return 0.0
    if state.grid.d != 1:
        raise GridError("antisymmetry check implemented for d = 1")
    worst = 0.0
    for i, j in combinations(range(state.grid.N), 2):
        swapped = np.swapaxes(state.psi, i, j)
        worst = max(worst, float(np.max(np.abs(swapped + state.psi))))
    return worst


def build_slater(grid: GridSpec, orbitals, tol: float = 1e-10) -> ManyBodyState:
    """Antisymmetrized product of N orthonormal orbitals, normalized.

    psi(x_1..x_N) = det[e_j(x_i)] / sqrt(N!).  Orbitals must be orthonormal
    under the lattice quadrature; the Gram defect is reported on failure.
    """
    orbitals = [np.asarray(e, dtype=complex) for e in orbitals]
    if len(orbitals) != grid.N:
        raise GridError(f"need {grid.N} orbitals, got {len(orbitals)}")
    if grid.N > 1 and grid.d != 1:
        raise GridError("N-body Slater construction implemented for d = 1")
    E = np.stack(orbitals)  # (N, M)
    gram = (E.conj() @ E.T) * grid.weight
    defect = np.max(np.abs(gram - np.eye(grid.N)))
    if defect > tol:
        raise GridError(f"orbitals not orthonormal: Gram defect {defect:.3e}")
    N = grid.N
    if N == 1:
        psi = orbitals[0].copy()
    else:
        psi = np.zeros((grid.M,) * N, dtype=complex)
        for perm in permutations(range(N)):
            sign = _perm_sign(perm)
            term = orbitals[perm[0]]
            for i in range(1, N):
                term = np.multiply.outer(term, orbitals[perm[i]])
            psi += sign * term
        psi /= np.sqrt(factorial(N))
    state = ManyBodyState(grid, psi, 0.0)
    n = state.norm()
    state.psi /= n
    return state


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def pair_potential_table(grid: GridSpec, potential: Potential) -> np.ndarray:
    """W(x_1..x_N) = (1/2N) sum_{i/=j} V(x_i - x_j) on the N-body lattice."""
    N, M = grid.N, grid.M
    if N == 1:
        return np.zeros((M,) * grid.d)
    vtab = potential.centered_values()  # V at lattice differences
    idx = np.arange(M)
    W = np.zeros((M,) * N)
    for i, j in combinations(range(N), 2):
        diff = (idx.reshape([-1 if a == i else 1 for a in range(N)])
                - idx.reshape([-1 if a == j else 1 for a in range(N)])) % M
        W = W + vtab[diff] / N
    return W


def _axis_k2(grid: GridSpec) -> list[np.ndarray]:
    """|k|^2 of each N-body axis (FFT order), shaped to broadcast on the
    amplitudes; their sum is the N-body k^2 table."""
    k2 = grid.wavenumbers() ** 2
    naxes = grid.d * grid.N
    return [k2.reshape([grid.M if b == a else 1 for b in range(naxes)])
            for a in range(naxes)]


def _kinetic_matrix(grid: GridSpec, dt: float) -> np.ndarray:
    """The one-axis free flow F^-1 diag(exp(-i dt hbar k^2 / 2)) F as a
    dense M x M circulant, K[i, j] = c[(i - j) mod M].

    c = ifft(phase) is even in exact arithmetic; averaging c_r with c_-r
    makes K symmetric bit for bit, so `psi @ K` on the last axis is the
    same operator as `K @ psi` on the others, and every axis gets the
    same rounding, which keeps antisymmetric amplitudes antisymmetric.
    """
    M = grid.M
    c = np.fft.ifft(np.exp(-0.5j * dt * grid.hbar * grid.wavenumbers() ** 2))
    c = 0.5 * (c + np.roll(c[::-1], 1))
    idx = np.arange(M)
    return c[(idx[:, None] - idx[None, :]) % M]


def cfl_hint(grid: GridSpec, dt: float) -> dict:
    """Report-only sanity: dt against dx^2/hbar (not enforced)."""
    bound = grid.dx ** 2 / grid.hbar
    return {"dt": dt, "dx2_over_hbar": bound, "within": dt <= bound}


def propagate(state: ManyBodyState, potential: Potential, dt: float,
              steps: int) -> ManyBodyState:
    """Strang-split unitary propagation over `steps` steps of size dt.

    A half kick exp(-i dt W / 2 hbar) opens the first step and closes the
    last; between steps the two half kicks are one full kick
    exp(-i dt W / hbar).  The kinetic step applies `_kinetic_matrix`
    along each axis, alternating between two preallocated buffers.  The
    amplitudes are checked for non-finite values every 16 steps and after
    the last one.
    """
    if steps < 0:
        raise GridError(f"steps must be >= 0, got {steps}; to propagate "
                        "backward in time pass a negative dt")
    if steps == 0:
        return state.copy()
    g = state.grid
    W = pair_potential_table(g, potential)
    half_v = np.exp(-0.5j * dt * W / g.hbar)
    full_v = half_v * half_v
    K = _kinetic_matrix(g, dt)
    M, naxes = g.M, g.d * g.N
    psi = state.psi * half_v
    out = np.empty_like(psi)
    for n in range(steps):
        for a in range(naxes - 1):
            shape = (M ** a, M, M ** (naxes - 1 - a))
            np.matmul(K, psi.reshape(shape), out=out.reshape(shape))
            psi, out = out, psi
        np.matmul(psi.reshape(-1, M), K, out=out.reshape(-1, M))
        psi, out = out, psi
        psi *= full_v if n + 1 < steps else half_v
        if (n + 1) % 16 == 0 or n + 1 == steps:
            if not np.all(np.isfinite(psi)):
                raise PropagationError(f"non-finite amplitudes at step {n + 1}")
    return ManyBodyState(g, psi, state.time + dt * steps)


def time_derivative(state: ManyBodyState,
                    potential: Potential) -> np.ndarray:
    """dpsi/dt = H psi / (i hbar), the generator of `propagate`.

    H = -(hbar^2 / 2) Laplacian (spectral) + W (`pair_potential_table`),
    so the result is exact on the lattice, not a difference quotient.
    """
    g = state.grid
    kinetic = np.fft.ifftn(0.5 * g.hbar ** 2 * sum(_axis_k2(g))
                           * np.fft.fftn(state.psi))
    W = pair_potential_table(g, potential)
    return (kinetic + W * state.psi) / (1j * g.hbar)


def propagate_trajectory(state: ManyBodyState, potential: Potential,
                         dt: float, steps: int, store_every: int):
    """Propagate and collect snapshots every `store_every` steps."""
    if store_every < 1:
        raise GridError(f"store_every must be >= 1, got {store_every}")
    traj = [state.copy()]
    cur = state
    done = 0
    while done < steps:
        chunk = min(store_every, steps - done)
        cur = propagate(cur, potential, dt, chunk)
        traj.append(cur)
        done += chunk
    return traj


# ---------------------------------------------------------------------------
# reduced density matrices
# ---------------------------------------------------------------------------

@dataclass
class OneBodyKernel:
    """gamma(x; y) as a dense matrix, operator action (Kf)(x)=sum_y K f dy."""

    matrix: np.ndarray
    grid: GridSpec
    trace_target: float

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)) * self.grid.weight)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def occupations(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix * self.grid.weight)


def gamma1(state: ManyBodyState) -> OneBodyKernel:
    """One-particle reduced density matrix, trace N."""
    g = state.grid
    mat = state.psi.reshape(g.M ** g.d, -1)
    kernel = g.N * (mat @ mat.conj().T) * g.weight ** (g.N - 1)
    return OneBodyKernel(kernel, g, float(g.N))


class Gamma2View:
    """Lazy access to gamma2 contractions; dense storage only when safe.

    gamma2(u1,u2; w1,w2) = N(N-1) * integral over the remaining N-2
    coordinates of psi(u1,u2,r) conj(psi)(w1,w2,r).
    """

    def __init__(self, state: ManyBodyState):
        if state.grid.N < 2:
            raise GridError("gamma2 requires N >= 2")
        if state.grid.d != 1:
            raise GridError("gamma2 contractions implemented for d = 1")
        self.state = state
        g = state.grid
        self._pref = g.N * (g.N - 1) * g.weight ** (g.N - 2)

    def probe(self, u1, u2, w1, w2) -> np.ndarray:
        """gamma2 at arbitrary index tuples (vectorized over probes)."""
        psi = self.state.psi
        g = self.state.grid
        if g.N == 2:
            return self._pref * psi[u1, u2] * np.conj(psi[w1, w2])
        left = psi[u1, u2].reshape(len(np.atleast_1d(u1)), -1)
        right = np.conj(psi[w1, w2]).reshape(left.shape)
        return self._pref * np.sum(left * right, axis=1)

    def partial_diag(self) -> np.ndarray:
        """A[u1, w1, y] = gamma2(u1, y; w1, y), the kernel of every residue
        contraction; O(M^3) memory."""
        psi = self.state.psi
        g = self.state.grid
        M = g.M
        if g.N == 2:
            return self._pref * np.einsum("uy,wy->uwy", psi, np.conj(psi))
        A = np.empty((M, M, M), dtype=complex)
        flat = psi.reshape((M, M, -1))
        for y in range(M):
            block = flat[:, y, :]
            A[:, :, y] = block @ block.conj().T
        return self._pref * A

    def dense(self, force: bool = False) -> np.ndarray:
        """Full gamma2 tensor [u1,u2,w1,w2]; refused for large grids."""
        g = self.state.grid
        size = g.M ** 4 * 16
        if g.M > 16 and not force:
            raise MemoryError(
                f"dense gamma2 needs {size / 2 ** 20:.0f} MiB at M={g.M}; "
                "pass force=True to override")
        psi = self.state.psi
        if g.N == 2:
            return self._pref * np.einsum("ab,cd->abcd", psi, np.conj(psi))
        flat = psi.reshape((g.M, g.M, -1))
        return self._pref * np.einsum("abr,cdr->abcd", flat, np.conj(flat))

    def partial_trace_matrix(self) -> np.ndarray:
        """sum_y gamma2(u1,y; w1,y) dy = (N-1) gamma1(u1; w1)."""
        A = self.partial_diag()
        return np.sum(A, axis=2) * self.state.grid.weight


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def kinetic_energy(state: ManyBodyState) -> float:
    """(hbar^2 / 2) sum_j ||grad_j psi||^2 under the lattice quadrature."""
    g = state.grid
    power = np.abs(np.fft.fftn(state.psi)) ** 2
    # Parseval: sum |psi_hat|^2 / M^(naxes) * weight^N = ||psi||^2
    norm_factor = g.weight ** g.N / g.M ** (g.d * g.N)
    return float(0.5 * g.hbar ** 2
                 * np.sum(sum(_axis_k2(g)) * power) * norm_factor)


def interaction_energy(state: ManyBodyState, potential: Potential) -> float:
    W = pair_potential_table(state.grid, potential)
    w = state.grid.weight ** state.grid.N
    return float(np.sum(W * np.abs(state.psi) ** 2) * w)


def total_energy(state: ManyBodyState, potential: Potential) -> float:
    return kinetic_energy(state) + interaction_energy(state, potential)


def momentum_first_moment(state: ManyBodyState) -> float:
    """(1/N) sum_j hbar ||grad_j psi||, a per-particle momentum scale."""
    g = state.grid
    power = np.abs(np.fft.fftn(state.psi)) ** 2
    norm_factor = g.weight ** g.N / g.M ** (g.d * g.N)
    total = sum(g.hbar * np.sqrt(np.sum(k2 * power) * norm_factor)
                for k2 in _axis_k2(g))
    return total / g.N


def kinetic_bound_check(trajectory, potential: Potential) -> dict:
    """Quadratic-in-time kinetic growth bound along a trajectory.

    Uses K := 2 * kinetic_energy (the convention without the 1/2) and
    reports <K/N>(t) together with the smallest C such that
    <K/N>(t) <= <K/N>(0) + C t^2 over the sampled times.
    """
    times = [s.time for s in trajectory]
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise GridError("trajectory times must be strictly increasing")
    N = trajectory[0].grid.N
    k_over_n = [2.0 * kinetic_energy(s) / N for s in trajectory]
    p1 = [momentum_first_moment(s) for s in trajectory]
    base = k_over_n[0]
    t0 = times[0]
    cs = [(k - base) / (t - t0) ** 2
          for k, t in zip(k_over_n[1:], times[1:])]
    fitted = max(cs) if cs else 0.0
    return {
        "times": times,
        "k_over_n": k_over_n,
        "fitted_C": max(fitted, 0.0),
        "p1_max": max(p1),
        "grad_v_sup": potential.grad_sup(),
    }


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def gaussian_orbital(grid: GridSpec, width: float, x0: float = 0.0,
                     p0: float = 0.0) -> np.ndarray:
    """Normalized Gaussian (pi a)^(-1/4) exp(-(x-x0)^2/2a + i p0 (x-x0)/hbar)."""
    x = grid.axis_points()
    psi = (np.pi * width) ** -0.25 * np.exp(
        -((x - x0) ** 2) / (2.0 * width)
        + 1j * p0 * (x - x0) / grid.hbar)
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)


def free_gaussian_evolution(grid: GridSpec, width: float, x0: float,
                            p0: float, t: float) -> np.ndarray:
    """Closed-form free evolution of the Gaussian packet (no FFT involved).

    With b = a + i hbar t and k0 = p0/hbar,
    psi_t(x) = (pi a)^(-1/4) sqrt(a/b) exp(beta^2/(2b) - a k0^2/2),
    beta = a k0 + i (x - x0).
    """
    a = width
    x = grid.axis_points()
    k0 = p0 / grid.hbar
    b = a + 1j * grid.hbar * t
    beta = a * k0 + 1j * (x - x0)
    return ((np.pi * a) ** -0.25 * np.sqrt(a / b)
            * np.exp(beta ** 2 / (2.0 * b) - 0.5 * a * k0 ** 2))
