"""N-body states: Slater initial data, exact propagation, reduced density
matrices and energies.

A state is stored as its coefficients in the orthonormal basis of sorted
plane-wave Slater determinants, a_K = fftn(psi)[K] sqrt(N! dx^N / M^N)
for lattice amplitudes psi, with K over the momentum tuples
k_1 < ... < k_N of `_sorted_tuples`; ||a|| is the lattice norm.  The
vector is antisymmetric by construction.  gamma1, gamma2 on its
y-diagonal, the norm and the energy a^H H a are read off it, and the M^N
grid amplitudes are an export (`ManyBodyState.to_grid`) for the tests;
the antisymmetry record exports (N-1)-particle slabs of them.  The
propagator is the exact flow exp(-i t H / hbar) of the lattice
Hamiltonian (`SlaterFlow`).  H lives as long as the flow that holds it,
and no cache keeps a flow.

The level-1 reductions (norms and inner products of coefficient vectors)
are ufunc sums, not BLAS calls: with two OpenBLAS threads on a two-core
machine, `np.linalg.norm` of the C(64, 3) coefficients took 16 ms in 3 of
12 fresh processes against 0.07 ms in the others.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, combinations, permutations
from math import comb, factorial, fsum

import numpy as np
from scipy import sparse

from husimilab.grid import GridError, GridSpec, Potential, _active_budget


class PropagationError(RuntimeError):
    pass


@dataclass
class ManyBodyState:
    """Coefficients a_K in the sorted Slater basis (module docstring)."""

    grid: GridSpec
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        expected = (comb(self.grid.M, self.grid.N),)
        if self.coeffs.shape != expected:
            raise GridError(f"coefficient shape {self.coeffs.shape} != "
                            f"{expected}")

    def norm(self) -> float:
        return float(np.sqrt(_real_dot(self.coeffs, self.coeffs)))

    def copy(self) -> "ManyBodyState":
        return ManyBodyState(self.grid, self.coeffs.copy(), self.time)

    def to_grid(self) -> np.ndarray:
        """The lattice amplitudes psi(x_1, ..., x_N), an (M,)*N array."""
        g = self.grid
        scale = np.sqrt(factorial(g.N) * g.dx ** g.N / g.M ** g.N)
        psi = _antisymmetric_extension(g, self.coeffs / scale,
                                       g.N).reshape((g.M,) * g.N)
        return np.fft.ifftn(psi, out=psi)


_SLABS = 8  # x_1 slabs that the antisymmetry record samples


def antisymmetry_defect(state: ManyBodyState) -> float:
    """Max violation of psi(swap pair) = -psi over the lattice amplitudes,
    taken on the x_1 slabs of `_x1_slabs` at x_1 = x_u for every
    (M / `_SLABS`)-th u, so every slab at M <= `_SLABS`; 0 for N = 1.

    Pairs of coordinates 2..N are checked inside each slab, and each pair
    (1, j) wherever x_1 and x_j both lie in the sample (`_swap_defect`),
    so no array holds M^N values.
    """
    g = state.grid
    if g.N == 1:
        return 0.0
    xs = np.arange(0, g.M, max(1, g.M // _SLABS))
    return _swap_defect(_x1_slabs(state, xs), xs)


def _x1_slabs(state: ManyBodyState, xs: np.ndarray) -> np.ndarray:
    """psi(x_u, x_2, ..., x_N) for u in xs, shape (len(xs),) + (M,)*(N-1).

    Slab u is the (N-1)-particle export of row u of F B / sqrt(N), with B
    the one-free-axis extension and F as in `_one_body_matrix`.
    """
    g = state.grid
    B = _antisymmetric_extension(g, state.coeffs, 1)
    # k u reduced mod M, so each phase is rounded once, not M times over
    F = np.exp(2j * np.pi / g.M * (np.outer(xs, np.arange(g.M)) % g.M))
    rows = F @ B / np.sqrt(g.N * g.L)
    sub = replace(g, N=g.N - 1)
    return np.stack([ManyBodyState(sub, row).to_grid() for row in rows])


def _swap_defect(slabs: np.ndarray, xs: np.ndarray) -> float:
    """max |psi(sigma_ij x) + psi(x)| over the points x of `slabs`
    (slabs[a] = psi(xs[a], ...)) whose swapped point sigma_ij x is in
    `slabs` too: every x for a pair of coordinates 2..N, and for a pair
    (1, j) every x with x_j in xs."""
    inner = (np.max(np.abs(np.swapaxes(slab, i, j) + slab))
             for slab in slabs
             for i, j in combinations(range(slab.ndim), 2))
    # cross[a, ..., b, ...] = psi(xs[a], ..., x_j = xs[b], ...)
    cross = (np.max(np.abs(t + np.swapaxes(t, 0, j)))
             for j in range(1, slabs.ndim)
             for t in [slabs.take(xs, axis=j)])
    return float(max(chain(inner, cross)))


def build_slater(grid: GridSpec, orbitals) -> ManyBodyState:
    """Antisymmetrized product of N orthonormal orbitals, normalized.

    psi(x_1..x_N) = det[e_j(x_i)] / sqrt(N!).  Orbitals must be orthonormal
    under the lattice quadrature; the Gram defect is reported on failure.
    The coefficient on each sorted tuple K is, up to the normalization, the
    N x N minor det[e_hat_j(k_i)] of the orbitals' DFTs (Leibniz sum).
    """
    orbitals = [np.asarray(e, dtype=complex) for e in orbitals]
    if len(orbitals) != grid.N:
        raise GridError(f"need {grid.N} orbitals, got {len(orbitals)}")
    E = np.stack(orbitals)  # (N, M)
    gram = (E.conj() @ E.T) * grid.dx
    defect = np.max(np.abs(gram - np.eye(grid.N)))
    if defect > 1e-10:
        raise GridError(f"orbitals not orthonormal: Gram defect {defect:.3e}")
    N = grid.N
    F = np.fft.fft(E, axis=1)
    K = _sorted_tuples(grid.M, N)
    a = np.zeros(K.shape[1], dtype=complex)
    for perm in permutations(range(N)):
        # prod_i e_hat_perm(i)(K[i]), one gathered factor at a time
        term = F[perm[0]][K[0]]
        for i in range(1, N):
            term *= F[perm[i]][K[i]]
        if _perm_sign(perm) > 0:
            a += term
        else:
            a -= term
    a /= np.sqrt(_real_dot(a, a))
    return ManyBodyState(grid, a, 0.0)


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum conj(a) b, as ufunc sums (see the module docstring)."""
    return float(np.sum(a.real * b.real) + np.sum(a.imag * b.imag))


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


def _check_propagation_input(state: ManyBodyState, steps: int) -> None:
    """Refuse what the exact flow cannot take, before anything is built."""
    if steps < 0:
        raise GridError(f"steps must be >= 0, got {steps}; to propagate "
                        "backward in time pass a negative dt")
    bad = int(np.count_nonzero(~np.isfinite(state.coeffs)))
    if bad:
        raise PropagationError(f"non-finite input coefficients: {bad} of "
                               f"{state.coeffs.size}")


@lru_cache(maxsize=2)
def _sorted_tuples(M: int, N: int) -> np.ndarray:
    """Every momentum-index tuple k_1 < ... < k_N of range(M), as a
    read-only int32 (N, C(M, N)) array in colex order: column r holds the
    tuple of rank r = sum_i C(k_i, i).

    The tuples below t, in colex order, are a prefix of those below M, so
    each size-n block is the size-(n-1) prefix of C(t, n-1) columns with
    t appended.  Two sizes are cached: a run's N, and N - 1 for the slabs
    of `antisymmetry_defect`.
    """
    K = np.arange(M, dtype=np.int32)[None, :]
    for n in range(2, N + 1):
        K = np.concatenate([
            np.vstack([K[:, :comb(t, n - 1)],
                       np.full(comb(t, n - 1), t, dtype=np.int32)])
            for t in range(n - 1, M)], axis=1)
    K.flags.writeable = False
    return K


def _binomials(M: int, N: int) -> np.ndarray:
    """table[k, i] = C(k, i) for k < M and i <= N."""
    return np.array([[comb(k, i) for i in range(N + 1)] for k in range(M)],
                    dtype=np.int64)


def _antisymmetric_extension(grid: GridSpec, coeffs: np.ndarray,
                             free: int) -> np.ndarray:
    """Coefficients a_K spread over `free` momentum axes, shape
    (M,)*free + (C(M, N - free),): for each sorted tuple K and each ordered
    choice i_1..i_free of distinct positions in it, sigma a_K sits at
    (k_i1, ..., k_ifree, colex rank of the sorted remainder of K), sigma
    the sign of the ordering (i_1..i_free, the rest ascending); every other
    entry is 0.  free = N gives fftn(psi) up to the basis scale, free = 1
    the factor of gamma1 and free = 2 the blocks of gamma2.
    """
    M, N = grid.M, grid.N
    K = _sorted_tuples(M, N)
    binom = _binomials(M, N)
    rest = comb(M, N - free)
    out = np.zeros((M,) * free + (rest,), dtype=complex)
    flat_out = out.reshape(-1)
    negated = -coeffs
    for head in permutations(range(N), free):
        # row-major offset of (k_i1, ..., k_ifree, rank R)
        flat = np.zeros(K.shape[1], dtype=np.int64)
        for i in head:
            flat *= M
            flat += K[i]
        flat *= rest
        tail = [i for i in range(N) if i not in head]
        for j, i in enumerate(tail):
            flat += binom[K[i], j + 1]
        flat_out[flat] = (coeffs if _perm_sign(head + tuple(tail)) > 0
                          else negated)
    return out


def _kinetic_diagonal(grid: GridSpec, K: np.ndarray) -> np.ndarray:
    """hbar^2 |k_K|^2 / 2 for each sorted tuple K (columns of K)."""
    return (0.5 * grid.hbar ** 2 * grid.wavenumbers()[K] ** 2).sum(axis=0)


class SlaterFlow:
    """exp(-i t H / hbar) of the lattice Hamiltonian on the coefficients of
    a state (see the module docstring).

    In the sorted plane-wave Slater basis H has hbar^2 k^2 / 2 summed on
    the diagonal; each pair of particles and each nonzero DFT mode v_m of
    V moves (k_i, k_j) to (k_i - m, k_j + m) with weight v_m / N and the
    fermionic sign.  V is even (`Potential` refuses an odd one), so v_m is
    real and H is real symmetric.  It is stored as CSR with a fixed row
    width, one slot per (pair, mode); a Pauli-blocked slot holds 0 and
    points at the diagonal.  A run builds one flow in its N-body stage,
    which takes every product with H the run needs (the trajectory, both
    energies and d/dt a at the residue snapshot) and then drops it, so H
    is freed before the residue pass; `propagate` builds its own.

    The flow is a Chebyshev series in H scaled onto [-1, 1] by the
    Gershgorin bounds of its rows (Tal-Ezer & Kosloff, J. Chem. Phys. 81
    (1984) 3967).  H stays real: a complex coefficient vector is
    multiplied through its real and imaginary parts.
    """

    def __init__(self, grid: GridSpec, potential: Potential):
        N, M = grid.N, grid.M
        vhat = potential.centered_spectrum.real / M
        modes = [m for m in range(1, M) if abs(vhat[m]) > 1e-15]
        pairs = list(combinations(range(N), 2))
        _check_hamiltonian_budget(M, N, len(modes))
        self.grid = grid
        K = _sorted_tuples(M, N)
        n, width = K.shape[1], 1 + len(pairs) * len(modes)
        rows = np.arange(n, dtype=np.int32)
        # table[flat offset of an ordered tuple] = sign of its sorting
        # permutation times (rank of the sorted tuple + 1); 0 for a tuple
        # with a repeated momentum, a Pauli-blocked move.  M^N int32
        # entries, a quarter of the grid export, freed after the build.
        place = M ** np.arange(N - 1, -1, -1)
        table = np.zeros(M ** N, dtype=np.int32)
        for perm in permutations(range(N)):
            table[place @ K[list(perm)]] = _perm_sign(perm) * (rows + 1)
        flat = place @ K
        data = np.empty((n, width))
        cols = np.empty((n, width), dtype=np.int32)
        cols[:, 0] = rows
        data[:, 0] = _kinetic_diagonal(grid, K) + len(pairs) * vhat[0] / N
        radius = np.zeros(n)
        slot = 1
        for i, j in pairs:
            for m in modes:
                signed = table[flat + ((K[i] - m) % M - K[i]) * place[i]
                               + ((K[j] + m) % M - K[j]) * place[j]]
                cols[:, slot] = np.where(signed != 0, np.abs(signed) - 1, rows)
                data[:, slot] = np.sign(signed) * (vhat[m] / N)
                radius += np.abs(data[:, slot])
                slot += 1
        del table
        self.bounds = (float(np.min(data[:, 0] - radius)),
                       float(np.max(data[:, 0] + radius)))
        self.H = sparse.csr_matrix(
            (data.ravel(), cols.ravel(),
             np.arange(0, n * width + 1, width, dtype=np.int32)),
            shape=(n, n))

    def apply(self, c: np.ndarray) -> np.ndarray:
        """H c, through the real and imaginary parts of c."""
        return self.H @ c.real + 1j * (self.H @ c.imag)

    def energy(self, state: ManyBodyState) -> float:
        """a^H H a."""
        a = state.coeffs
        return _real_dot(a, self.apply(a))

    def time_derivative(self, state: ManyBodyState) -> np.ndarray:
        """adot = H a / (i hbar), the coefficients' rate under the flow."""
        return self.apply(state.coeffs) / (1j * self.grid.hbar)

    def trajectory(self, state: ManyBodyState, dt: float, steps: int,
                   store_every: int) -> list[ManyBodyState]:
        """The input, then the state every `store_every` steps of size dt
        and after the last step, each the exact flow of the input over its
        time, all from one Chebyshev recurrence (`evolve`)."""
        if store_every < 1:
            raise GridError(f"store_every must be >= 1, got {store_every}")
        _check_propagation_input(state, steps)
        if steps == 0:
            return [state.copy()]
        g = state.grid
        counts = list(range(store_every, steps, store_every)) + [steps]
        evolved = self.evolve(state.coeffs, [dt * k for k in counts])
        return [state.copy()] + [ManyBodyState(g, c, state.time + dt * k)
                                 for c, k in zip(evolved, counts)]

    def evolve(self, c: np.ndarray, times) -> list[np.ndarray]:
        """exp(-i t H / hbar) c for each t in `times`, all from one
        Chebyshev recurrence of the series of `_jacobi_anger`.

        The real and imaginary parts are the two rows of one real array;
        each is multiplied by H on its own, which measured faster than
        one two-column product and gives the same bits.  Every other
        operation writes into a buffer made before the recurrence: the
        product H v is the only array a term allocates.
        """
        times = np.asarray(times, dtype=float)
        centre, a, J = _jacobi_anger(*self.bounds, times, self.grid.hbar)
        # rows 0 and 1 of out[s] are the real and imaginary parts at times[s]
        out = np.zeros((len(times), 2, len(c)))
        cur, prev = np.stack([c.real, c.imag]), np.empty((2, len(c)))
        tmp = np.empty(len(c))
        for k in range(len(J)):
            if k > 0:
                # T_k+1 = a (H - centre) T_k - T_k-1 into the buffer of
                # T_k-1; T_1 is half of that with T_-1 = 0
                for v, new in zip(cur, prev):
                    hv = self.H @ v
                    hv -= np.multiply(v, centre, out=tmp)
                    hv *= a
                    if k == 1:
                        np.multiply(hv, 0.5, out=new)
                    else:
                        np.subtract(hv, new, out=new)
                prev, cur = cur, prev
            # (-i)^k times w, with w real
            w = (2.0 - (k == 0)) * (-1) ** (k // 2) * J[k]
            for out_s, w_s in zip(out, w):
                if k % 2 == 0:
                    out_s[0] += np.multiply(cur[0], w_s, out=tmp)
                    out_s[1] += np.multiply(cur[1], w_s, out=tmp)
                else:
                    out_s[0] += np.multiply(cur[1], w_s, out=tmp)
                    out_s[1] -= np.multiply(cur[0], w_s, out=tmp)
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
    1e-18.  Each column comes from Miller's backward recurrence
    (Gautschi, SIAM Rev. 9 (1967) 24) at |R_s| in `_bessel_orders`, all
    started at one order, and J_k(-R) = (-1)^k J_k(R).
    """
    centre, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    R = [t * half / hbar for t in np.ravel(times).tolist()]
    r_max = max(map(abs, R))
    top = int(r_max + 15.0 * r_max ** (1.0 / 3.0)) + 10
    columns, terms = [], 1
    for r in R:
        col = _bessel_orders(abs(r), top)
        if r < 0:
            col[1::2] = [-x for x in col[1::2]]
        last = top
        while last >= terms and abs(col[last]) <= 1e-18:
            last -= 1
        terms = max(terms, last + 1)
        columns.append(col)
    J = np.array([col[:terms] for col in columns]).T
    return centre, (2.0 / half if half > 0 else 0.0), J


def _bessel_orders(R: float, top: int) -> list[float]:
    """J_0(R), ..., J_top(R) for R >= 0 by the backward recurrence
    J_{k-1} = (2k / R) J_k - J_{k+1} from J_top = 1e-300 and
    J_{top+1} = 0, rescaled by 1e-250 whenever a value passes 1e250, then
    normalized by J_0 + 2 sum_k J_2k = 1.

    The 1e-18 cut of `_jacobi_anger` lies near k = R + 12.2 R^(1/3) at
    large R (the Airy tail past the turning point k = R) and below k = 10
    for R < 0.05.  Against `scipy.special.jv`, a start zero to four orders
    past the cut already gives the same cut and every entry to rounding,
    so `_jacobi_anger` starts at R + 15 R^(1/3) + 10.  Below R = 1e-18
    every J_k with k >= 1 is under the cut and J_0 rounds to 1.  Plain
    floats: a numpy loop over k this short costs ten times more.
    """
    if R < 1e-18:
        return [1.0] + [0.0] * top
    J = [1e-300]
    cur, nxt = 1e-300, 0.0
    for k in range(top, 0, -1):
        cur, nxt = 2.0 * k / R * cur - nxt, cur
        if abs(cur) > 1e250:
            J = [x * 1e-250 for x in J]
            cur, nxt = cur * 1e-250, nxt * 1e-250
        J.append(cur)
    J.reverse()
    norm = J[0] + 2.0 * fsum(J[2::2])
    return [x / norm for x in J]


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
    """The exact flow of H over time dt * steps, through a `SlaterFlow`
    of its own, freed on return.

    Non-finite coefficients are refused before anything is built.
    """
    _check_propagation_input(state, steps)
    if steps == 0:
        return state.copy()
    return SlaterFlow(state.grid, potential).trajectory(state, dt, steps,
                                                        steps)[-1]


# ---------------------------------------------------------------------------
# reduced density matrices
# ---------------------------------------------------------------------------

@dataclass
class OneBodyKernel:
    """gamma(x; y) as a dense matrix, operator action (Kf)(x)=sum_y K f dy."""

    matrix: np.ndarray
    grid: GridSpec

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)) * self.grid.dx)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def occupations(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix * self.grid.dx)


def _one_body_matrix(grid: GridSpec, left: np.ndarray,
                     right: np.ndarray) -> np.ndarray:
    """F left right^H F^H on the grid, F[u, k] = e^{2 pi i k u / M} / sqrt(L),
    for two one-free-axis extensions (`_antisymmetric_extension`); gamma1
    when both are that of the state."""
    G = left @ right.conj().T
    return np.fft.fft(np.fft.ifft(G, axis=0), axis=1) * (grid.M / grid.L)


def gamma1(state: ManyBodyState) -> OneBodyKernel:
    """One-particle reduced density matrix, trace N:
    gamma1(u; w) = N sum_r psi(u, r) conj psi(w, r) dx^(N-1), read off the
    coefficients as F B B^H F^H (see `_one_body_matrix`)."""
    g = state.grid
    B = _antisymmetric_extension(g, state.coeffs, 1)
    return OneBodyKernel(_one_body_matrix(g, B, B), g)


def gamma1_time_derivative(state: ManyBodyState,
                           adot: np.ndarray) -> np.ndarray:
    """d/dt gamma1 under the flow of H, as a matrix: Xdot + Xdot^H with
    Xdot = F Bdot B^H F^H (`_one_body_matrix`), B and Bdot the
    one-free-axis extensions of a and of adot = H a / (i hbar)
    (`SlaterFlow.time_derivative`)."""
    g = state.grid
    xdot = _one_body_matrix(g, _antisymmetric_extension(g, adot, 1),
                            _antisymmetric_extension(g, state.coeffs, 1))
    return xdot + xdot.conj().T


_Y_BLOCK = 8  # y values per block of the y-diagonal of gamma2


def gamma2_diag_blocks(state: ManyBodyState):
    """The y-diagonal of gamma2, the contraction the residues need, in
    blocks: (ys, P) for consecutive slices ys of at most `_Y_BLOCK` y
    values, P[j, u, w] = gamma2(u, y; w, y) at y = ys.start + j, with

        gamma2(u1,u2; w1,w2) = N(N-1) * integral over the remaining N-2
        coordinates of psi(u1,u2,r) conj(psi)(w1,w2,r).

    With X = (M^2 / L) ifft of the two-free-axis extension over its free
    axes, P[j] = X[:, y, :] X[:, y, :]^H, one batched product per block;
    only one block of the M^3 values exists at a time.  A state with
    N < 2 is refused at the call.
    """
    g = state.grid
    if g.N < 2:
        raise GridError("gamma2 requires N >= 2")
    X = _antisymmetric_extension(g, state.coeffs, 2)
    for axis in (0, 1):
        np.fft.ifft(X, axis=axis, out=X)
    X *= g.M ** 2 / g.L

    def blocks():
        for start in range(0, g.M, _Y_BLOCK):
            ys = slice(start, min(start + _Y_BLOCK, g.M))
            Xy = X[:, ys].transpose(1, 0, 2)
            yield ys, Xy @ Xy.conj().transpose(0, 2, 1)

    return blocks()


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def kinetic_energy(state: ManyBodyState) -> float:
    """sum_K |a_K|^2 hbar^2 |k_K|^2 / 2, which is (hbar^2 / 2)
    sum_j ||grad_j psi||^2 under the lattice quadrature."""
    g = state.grid
    return float(np.abs(state.coeffs) ** 2
                 @ _kinetic_diagonal(g, _sorted_tuples(g.M, g.N)))


def kinetic_bound_check(trajectory, potential: Potential) -> dict:
    """Quadratic-in-time kinetic growth bound along a trajectory.

    Uses K := 2 * kinetic_energy (the convention without the 1/2) and
    reports <K/N>(t) together with the smallest C such that
    <K/N>(t) <= <K/N>(0) + C t^2 over the sampled times.  The momentum
    scale (1/N) sum_j hbar ||grad_j psi|| is sqrt(<K/N>) by symmetry.
    """
    times = [s.time for s in trajectory]
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise GridError("trajectory times must be strictly increasing")
    N = trajectory[0].grid.N
    k_over_n = [2.0 * kinetic_energy(s) / N for s in trajectory]
    base = k_over_n[0]
    t0 = times[0]
    cs = [(k - base) / (t - t0) ** 2
          for k, t in zip(k_over_n[1:], times[1:])]
    fitted = max(cs) if cs else 0.0
    return {
        "times": times,
        "k_over_n": k_over_n,
        "fitted_C": max(fitted, 0.0),
        "p1_max": float(np.sqrt(max(k_over_n))),
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
