"""N-body wavefunctions: Slater initial data, exact propagation,
reduced density matrices, and kinetic-energy diagnostics.

Amplitudes are stored as an (M,)*N complex array in coordinate order
(x_1, ..., x_N) on the shared periodic grid (d = 1 for N >= 2; a single
particle may live in any d).  The propagator is the exact flow
exp(-i t H / hbar) of the lattice Hamiltonian of `time_derivative`.  For
N >= 2 it runs on the antisymmetric sector in the sorted plane-wave
Slater basis, with H a sparse real symmetric matrix and the exponential
a Chebyshev series; for N = 1 it is the FFT phase flow.  Antisymmetry is
checked on input, and the flow keeps it exactly in the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np
from scipy import sparse, special

from husimilab.grid import GridError, GridSpec, Potential, _active_budget


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
    return _swap_defect(state, combinations(range(state.grid.N), 2))


def _swap_defect(state: ManyBodyState, pairs) -> float:
    """max |psi(swap i, j) + psi| over the coordinate pairs (i, j)."""
    if state.grid.d != 1:
        raise GridError("antisymmetry check implemented for d = 1")
    psi = state.psi
    return max(float(np.max(np.abs(np.swapaxes(psi, i, j) + psi)))
               for i, j in pairs)


def build_slater(grid: GridSpec, orbitals) -> ManyBodyState:
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
    if defect > 1e-10:
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


def _check_propagation_input(state: ManyBodyState, steps: int) -> None:
    """Refuse what the exact flow cannot take, before anything is built."""
    if steps < 0:
        raise GridError(f"steps must be >= 0, got {steps}; to propagate "
                        "backward in time pass a negative dt")
    bad = int(np.count_nonzero(~np.isfinite(state.psi)))
    if bad:
        raise PropagationError(f"non-finite input amplitudes: {bad} of "
                               f"{state.psi.size}")
    if state.grid.N > 1:
        # the N - 1 adjacent transpositions generate S_N, so they decide
        # antisymmetry; the defect of any other swap (i, j) is at most
        # 2 |i - j| - 1 times theirs
        defect = _swap_defect(state, [(i, i + 1)
                                      for i in range(state.grid.N - 1)])
        scale = float(np.max(np.abs(state.psi)))
        if defect > 1e-10 * scale:
            raise GridError(
                f"input state is not antisymmetric: max |psi(swap) + psi| = "
                f"{defect:.3e} against max |psi| = {scale:.3e}; the exact "
                "flow holds only the antisymmetric sector, so antisymmetrize "
                "the state first")


def _sorted_tuples(M: int, N: int) -> np.ndarray:
    """Every momentum-index tuple k_1 < ... < k_N of range(M), as an
    (N, C(M, N)) array in colex order: column r holds the tuple of rank
    r = sum_i C(k_i, i).

    The tuples below t, in colex order, are a prefix of those below M, so
    each size-n block is the size-(n-1) prefix of C(t, n-1) columns with
    t appended.
    """
    K = np.arange(M)[None, :]
    for n in range(2, N + 1):
        K = np.concatenate([
            np.vstack([K[:, :comb(t, n - 1)], np.full(comb(t, n - 1), t)])
            for t in range(n - 1, M)], axis=1)
    return K


class _SlaterFlow:
    """exp(-i t H / hbar) of the lattice Hamiltonian of `time_derivative`,
    on the antisymmetric sector, in the sorted plane-wave Slater basis.

    A state is stored as c_K = fftn(psi)[K] over the sorted tuples K; the
    other N! - 1 orderings of K hold c_K times the sign of the ordering.
    In this basis H has hbar^2 k^2 / 2 summed on the diagonal; each pair
    of particles and each nonzero DFT mode v_m of V moves (k_i, k_j) to
    (k_i - m, k_j + m) with weight v_m / N and the fermionic sign.  V is
    even (`Potential` refuses an odd one), so v_m is real and H is real
    symmetric.  It is stored as CSR with a fixed row width, one slot per
    (pair, mode); a Pauli-blocked slot holds 0 and points at the diagonal.

    The flow is a Chebyshev series in H scaled onto [-1, 1] by the
    Gershgorin bounds of its rows (Tal-Ezer & Kosloff, J. Chem. Phys. 81
    (1984) 3967).  H stays real: a complex coefficient vector is
    multiplied through its real and imaginary parts.
    """

    def __init__(self, grid: GridSpec, potential: Potential):
        if grid.d != 1:
            raise GridError("the exact N-body flow is implemented for d = 1")
        N, M = grid.N, grid.M
        vhat = potential.centered_spectrum.real / M
        modes = [m for m in range(1, M) if abs(vhat[m]) > 1e-15]
        pairs = list(combinations(range(N), 2))
        _check_hamiltonian_budget(M, N, len(modes))
        self.grid = grid
        self.K = _sorted_tuples(M, N)
        n, width = self.K.shape[1], 1 + len(pairs) * len(modes)
        binom = np.array([[comb(k, i) for i in range(N + 1)]
                          for k in range(M)], dtype=np.int64)
        # sign of each ordering, indexed by sum_a pos_a N^a; 0 for a
        # position vector that is no permutation, which is what a tuple
        # with a repeated momentum (Pauli-blocked) produces
        perms = list(permutations(range(N)))
        signs = np.zeros(N ** N, dtype=np.int8)
        signs[np.array(perms) @ N ** np.arange(N)] = [_perm_sign(p)
                                                      for p in perms]
        rows = np.arange(n, dtype=np.int32)
        data = np.empty((n, width))
        cols = np.empty((n, width), dtype=np.int32)
        cols[:, 0] = rows
        data[:, 0] = (0.5 * grid.hbar ** 2 * grid.wavenumbers()[self.K] ** 2
                      ).sum(axis=0) + len(pairs) * vhat[0] / N
        radius = np.zeros(n)
        slot = 1
        for i, j in pairs:
            for m in modes:
                moved = list(self.K)
                moved[i] = (self.K[i] - m) % M
                moved[j] = (self.K[j] + m) % M
                # position of each entry in the sorted tuple
                pos = [sum(x < y for x in moved) for y in moved]
                sign = signs[sum(p * N ** a for a, p in enumerate(pos))]
                rank = sum(binom[x, p + 1] for x, p in zip(moved, pos))
                cols[:, slot] = np.where(sign != 0, rank, rows)
                data[:, slot] = sign * (vhat[m] / N)
                radius += np.abs(data[:, slot])
                slot += 1
        self.bounds = (float(np.min(data[:, 0] - radius)),
                       float(np.max(data[:, 0] + radius)))
        self.H = sparse.csr_matrix(
            (data.ravel(), cols.ravel(),
             np.arange(0, n * width + 1, width, dtype=np.int32)),
            shape=(n, n))

    def to_basis(self, psi: np.ndarray) -> np.ndarray:
        psi_hat = np.fft.fftn(psi, out=np.empty(psi.shape, dtype=complex))
        return psi_hat[tuple(self.K)]

    def to_grid(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The amplitudes of coefficients c, written into `out`."""
        out[...] = 0.0
        for perm in permutations(range(self.grid.N)):
            out[tuple(self.K[list(perm)])] = _perm_sign(perm) * c
        return np.fft.ifftn(out, out=out)

    def evolve(self, c: np.ndarray, times) -> list[np.ndarray]:
        """exp(-i t H / hbar) c for each t in `times`, all from one
        Chebyshev recurrence of the series of `_jacobi_anger`.

        The real and imaginary parts are the two rows of one real array;
        each is multiplied by H on its own, which measured faster than
        one two-column product and gives the same bits.
        """
        times = np.asarray(times, dtype=float)
        centre, a, J = _jacobi_anger(*self.bounds, times, self.grid.hbar)

        def step(v, prev):
            """T_k+1 = a (H - centre) T_k - T_k-1, in place where it can."""
            out = np.stack([self.H @ v[0], self.H @ v[1]])
            out -= centre * v
            out *= a
            out -= prev
            return out

        # rows 0 and 1 of out[s] are the real and imaginary parts at times[s]
        out = np.zeros((len(times), 2, len(c)))
        prev, cur = None, np.stack([c.real, c.imag])
        for k in range(len(J)):
            if k == 1:
                prev, cur = cur, 0.5 * step(cur, 0.0)
            elif k > 1:
                prev, cur = cur, step(cur, prev)
            # (-i)^k times w, with w real
            w = (2.0 - (k == 0)) * (-1) ** (k // 2) * J[k]
            for out_s, w_s in zip(out, w):
                if k % 2 == 0:
                    out_s += w_s * cur
                else:
                    out_s[0] += w_s * cur[1]
                    out_s[1] -= w_s * cur[0]
        phases = np.exp(-1j * times * centre / self.grid.hbar)
        return [phase * (o[0] + 1j * o[1]) for phase, o in zip(phases, out)]


def _jacobi_anger(lo: float, hi: float, times, hbar: float):
    """Coefficients of exp(-i t H / hbar) as a Chebyshev series, for a
    Hermitian H with spectrum in [lo, hi] (Gershgorin bounds):

        exp(-i t H / hbar) = e^{-i t c / hbar}
            (J_0(R) + 2 sum_{k>=1} (-i)^k J_k(R) T_k((H - c) / h)),

    with c = (hi + lo) / 2, h = (hi - lo) / 2 and R = t h / hbar.  Returns
    c, the recurrence factor a = 2 / h (0 for a point spectrum) and the
    table J[k, s] = J_k(R_s), cut after the last row with an entry above
    1e-18.
    """
    centre, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    R = np.asarray(times, dtype=float) * half / hbar
    J = special.jv(np.arange(int(2 * np.max(np.abs(R))) + 40)[:, None], R)
    terms = int(np.flatnonzero(np.max(np.abs(J), axis=1) > 1e-18)[-1]) + 1
    return centre, (2.0 / half if half > 0 else 0.0), J[:terms]


def _check_hamiltonian_budget(M: int, N: int, modes: int) -> None:
    """Refuse an H whose stored entries C(M,N) (1 + C(N,2) modes) pass the
    amplitude budget of `make_grid`; name a power-of-two M that fits."""
    def entries(m: int) -> int:
        return comb(m, N) * (1 + comb(N, 2) * min(modes, m - 1))

    limit = _active_budget(None)
    if entries(M) <= limit:
        return
    smaller = M // 2
    while smaller > 2 and entries(smaller) > limit:
        smaller //= 2
    raise GridError(
        f"the N-body Hamiltonian needs {entries(M)} stored entries "
        f"({entries(M) * 12 / 2 ** 20:.1f} MiB) > budget {limit} at M={M}, "
        f"N={N} with {modes} potential modes; use M={smaller}")


def propagate(state: ManyBodyState, potential: Potential, dt: float,
              steps: int) -> ManyBodyState:
    """The exact flow of H over time dt * steps.

    For N >= 2 the state moves through `_SlaterFlow`; for N = 1, in any
    d, there is no pair term and the flow is the FFT phase
    exp(-i t hbar k^2 / 2).  Non-finite and (for N >= 2) non-antisymmetric
    inputs are refused before anything is built.
    """
    return propagate_trajectory(state, potential, dt, steps,
                                max(steps, 1))[-1]


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
    """The state every `store_every` steps of size dt, and after the last
    step, each the exact flow of the input over its time (see
    `propagate`), all from one build of that flow."""
    if store_every < 1:
        raise GridError(f"store_every must be >= 1, got {store_every}")
    _check_propagation_input(state, steps)
    if steps == 0:
        return [state.copy()]
    g = state.grid
    counts = list(range(store_every, steps, store_every)) + [steps]
    if g.N == 1:
        omega = 0.5 * g.hbar * sum(_axis_k2(g))
        psi_hat = np.fft.fftn(state.psi)
        evolved = [np.fft.ifftn(psi_hat * np.exp(-1j * dt * k * omega))
                   for k in counts]
    else:
        # The results are allocated before the flow's temporaries, so that
        # freeing those leaves heap space later stages reuse: the peak RSS
        # of an N=3, M=64 run measured 123.0 MB the other way, 119.5 so.
        evolved = [np.empty_like(state.psi, dtype=complex) for _ in counts]
        flow = _SlaterFlow(g, potential)
        for c, psi in zip(flow.evolve(flow.to_basis(state.psi),
                                      [dt * k for k in counts]), evolved):
            flow.to_grid(c, psi)
    return [state.copy()] + [ManyBodyState(g, psi, state.time + dt * k)
                             for psi, k in zip(evolved, counts)]


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
    """Lazy access to the gamma2 contraction the residues need.

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
