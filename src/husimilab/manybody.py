"""N-body states: Slater initial data, exact propagation, reduced density
matrices and energies.

A state is stored as its coefficients in the orthonormal basis of sorted
plane-wave Slater determinants, a_K = fftn(psi)[K] sqrt(N! dx^N / M^N)
for lattice amplitudes psi, with K over the momentum tuples
k_1 < ... < k_N of `_sorted_tuples`; ||a|| is the lattice norm.  The
vector is antisymmetric by construction.  gamma1, gamma2 on its
y-diagonal, the norm and the energy a^H H a are read off it, and the M^N
grid amplitudes are an export (`ManyBodyState.to_grid`) the tests alone
make.  The propagator is the exact flow exp(-i t H / hbar) of the
lattice Hamiltonian (`SlaterFlow`).  H is real symmetric and commutes
with parity, so the flow splits each vector it takes, after one global
phase, into real pieces in the two parity blocks, drops the pieces at
rounding level and runs the Chebyshev series `chebyshev_exp`, which the
Hartree-Fock kick of `meanfield` runs too, on each piece kept; a block's
H is built when a piece first needs it.  H lives as long as the flow
that holds it, and no cache keeps a flow.

The level-1 reductions (norms and inner products of coefficient vectors)
are ufunc sums, not BLAS calls: with two OpenBLAS threads on a two-core
machine, `np.linalg.norm` of the C(64, 3) coefficients took 16 ms in 3 of
12 fresh processes against 0.07 ms in the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
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
    """(-1) to the number of inversions of perm."""
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=1)
def _sorted_tuples(M: int, N: int) -> np.ndarray:
    """Every momentum-index tuple k_1 < ... < k_N of range(M), as a
    read-only int32 (N, C(M, N)) array in colex order: column r holds the
    tuple of rank r = sum_i C(k_i, i).

    The tuples below t, in colex order, are a prefix of those below M, so
    each size-n block is the size-(n-1) prefix of C(t, n-1) columns with
    t appended.  One size is cached, a run's N.
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
        flat = _flat_offsets(K[list(head)], M)
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


def _parity_map(M: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(mirror, sigma) with P e_K = sigma_K e_PK for parity P, psi(x) ->
    psi(-x): mirror[r] is the colex rank of PK, the sorted tuple of
    -K mod M, for the tuple K of rank r, and sigma_K = (-1)^(n(n-1)/2)
    with n the number of nonzero momenta in K.  Negation reverses the
    order of the nonzero momenta and leaves a momentum 0 first, so PK is
    -K mod M read backwards, with a 0 moved from the end to the front."""
    K = _sorted_tuples(M, N)
    zero = K[0] == 0
    back = (M - K[::-1]) % M
    PK = np.where(zero, np.roll(back, 1, axis=0), back)
    binom = _binomials(M, N)
    mirror = sum(binom[PK[i], i + 1] for i in range(N))
    n = N - zero
    return mirror, np.where((n * (n - 1) // 2) % 2, -1.0, 1.0)


def _signed_ranks(M: int, N: int) -> np.ndarray:
    """table[flat offset of an ordered tuple] = sign of its sorting
    permutation times (rank of the sorted tuple + 1); 0 for a tuple with a
    repeated momentum, a Pauli-blocked move.  M^N int32 entries, a quarter
    of the grid export, made once for the blocks a product builds and
    freed after them."""
    K = _sorted_tuples(M, N)
    table = np.zeros(M ** N, dtype=np.int32)
    ranks = np.arange(1, K.shape[1] + 1, dtype=np.int32)
    for perm in permutations(range(N)):
        table[_flat_offsets(K[list(perm)], M)] = _perm_sign(perm) * ranks
    return table


def _flat_offsets(K: np.ndarray, M: int) -> np.ndarray:
    """Row-major offset of each column of K in an (M,)*N array, by
    Horner's rule (an integer matmul measured 3 to 4 times slower)."""
    flat = K[0].astype(np.int64)
    for k in K[1:]:
        flat *= M
        flat += k
    return flat


_HALF_ROOT = np.sqrt(0.5)


@dataclass(eq=False)
class _ParityBlock:
    """The parity-s block of the sorted Slater basis (`SlaterFlow`): its
    coordinate j < p is (v_rep + s sigma v_img)[j] / sqrt(2) for the p
    orbits {rep, img = P rep} of two tuples, its coordinate p + j the
    entry v at fixed[j], a tuple with PK = K and sigma_K = s.  H
    restricted to the block and the Gershgorin bounds of its rows are
    set on first use (`SlaterFlow._build`)."""

    s: int
    fixed: np.ndarray
    H: sparse.csr_matrix | None = None
    bounds: tuple[float, float] | None = None


class SlaterFlow:
    """exp(-i t H / hbar) of the lattice Hamiltonian on the coefficients of
    a state (see the module docstring), one parity block at a time.

    In the sorted plane-wave Slater basis H has hbar^2 k^2 / 2 summed on
    the diagonal; each pair of particles and each nonzero DFT mode v_m of
    V moves (k_i, k_j) to (k_i - m, k_j + m) with weight v_m / N and the
    fermionic sign.  V is even (`Potential` refuses an odd one), so v_m is
    real, H is real symmetric and it commutes with parity P,
    P e_K = sigma_K e_PK (`_parity_map`).  So H maps the real vectors of
    each parity block (`_ParityBlock`) to real vectors of that block.

    Every product with H first splits its input c (`_split`): c =
    e^{i theta} (x + i y) with theta = arg(sum_K c_K^2) / 2, and x and y
    each into the coordinates of the two blocks, up to four real pieces
    of about C(M, N) / 2 entries.  A piece whose norm is at or below
    sqrt(C(M, N)) eps ||c||, the rounding of the coefficients, is
    dropped.  A Hermite or plane-wave Slater state is real up to its
    phase and of one parity, so it keeps one piece, and the states it
    evolves to keep two (their real and imaginary parts) in the same
    block; a random-orbital state keeps all four, so each of its products
    reads every stored entry of both blocks twice, as many as the two
    full-basis products of its real and imaginary parts.

    A block's H is built on first use and kept in the block
    (`_build`): a real CSR matrix with a fixed row width, one slot per
    (pair, mode), on the block's rows only.  The blocks that one product
    needs are built from one table of `_signed_ranks`, once the budget
    admits them with the blocks already built.  So a run that evolves a
    Hermite state builds, and is charged for, one block, and the
    full-basis H never exists.
    A run builds one flow in its N-body stage, which takes every product
    with H the run needs (the flow to the residue snapshot and to the
    end, both energies and d/dt a at the snapshot) and then drops it, so
    H is freed before the residue pass; `propagate` builds its own.

    The flow of a real piece is `chebyshev_exp` in its block's H on the
    Gershgorin bounds of the block's rows: one real product per term.
    """

    def __init__(self, grid: GridSpec, potential: Potential):
        N, M = grid.N, grid.M
        m, _, c = potential.modes()
        # the mean only shifts the diagonal; it is read whole, below the
        # cut of modes() too, as the samples of V hold it
        self.grid, self._mean = grid, potential.spectrum[0]
        self._modes = list(zip(m[m > 0].tolist(), c[m > 0].tolist()))
        mirror, sigma = _parity_map(M, N)
        ranks = np.arange(len(mirror))
        # the orbits {rep, img} of two tuples, shared by both blocks
        self._rep = np.flatnonzero(ranks < mirror)
        self._img = mirror[self._rep]
        self._sigma = sigma[self._rep]
        fixed = np.flatnonzero(ranks == mirror)
        self.blocks = [_ParityBlock(s, fixed[sigma[fixed] == s])
                       for s in (1, -1)]

    def _build(self, block: _ParityBlock, signed_ranks) -> None:
        """Set block.H and block.bounds (see the class docstring);
        signed_ranks() returns the table of `_signed_ranks`.

        Row j of the block is read off row K of the full-basis H, K the
        tuple of coordinate j: H f lies in the block for each block
        vector f, so coordinate j of H f is sqrt(2) (H f)_K on an orbit
        of two and (H f)_K on a fixed K.  A slot of row K with target J
        thus moves to the column of the block vector f on J's orbit,
        weighted by f_J times that sqrt(2): 1 at a representative, s
        sigma at an image, sqrt(2) at a fixed tuple of the block and 0 at
        one of the other block on the row of an orbit of two; 1 /
        sqrt(2), s sigma / sqrt(2), 1 and 0 on the row of a fixed tuple.
        The weights +-1 keep the full-basis entries exactly.  Where both
        tuples of an orbit are targets of one row they take two slots,
        which the product sums.  A Pauli-blocked slot holds 0 and points
        at column 0.
        """
        g = self.grid
        N, M = g.N, g.M
        pairs = list(combinations(range(N), 2))
        K = _sorted_tuples(M, N)
        p, n = len(self._rep), len(self._rep) + len(block.fixed)
        sign = block.s * self._sigma
        # by the rank of the target; the last entry serves a blocked slot
        column = np.zeros(K.shape[1] + 1, dtype=np.int32)
        column[self._rep] = column[self._img] = np.arange(p)
        column[block.fixed] = np.arange(p, n)
        weights = np.zeros((2, K.shape[1] + 1))
        for w, (rep, fixed) in zip(weights, [(1.0, np.sqrt(2.0)),
                                             (_HALF_ROOT, 1.0)]):
            w[self._rep] = rep
            w[self._img] = rep * sign
            w[block.fixed] = fixed
        table = signed_ranks()
        place = M ** np.arange(N - 1, -1, -1)
        K = K[:, np.concatenate([self._rep, block.fixed])]
        flat = _flat_offsets(K, M)
        width = 1 + len(pairs) * len(self._modes)
        data = np.empty((n, width))
        cols = np.empty((n, width), dtype=np.int32)
        cols[:, 0] = np.arange(n)
        data[:, 0] = (_kinetic_diagonal(g, K)
                      + len(pairs) * self._mean / N)
        radius = np.zeros(n)
        slot = 1
        for i, j in pairs:
            for m, c in self._modes:
                signed = table[flat + ((K[i] - m) % M - K[i]) * place[i]
                               + ((K[j] + m) % M - K[j]) * place[j]]
                target = np.abs(signed) - 1
                cols[:, slot] = column[target]
                d = data[:, slot]
                np.multiply(np.sign(signed), c / N, out=d)
                d[:p] *= weights[0][target[:p]]
                d[p:] *= weights[1][target[p:]]
                radius += np.abs(d)
                slot += 1
        del table
        block.bounds = (float(np.min(data[:, 0] - radius)),
                        float(np.max(data[:, 0] + radius)))
        block.H = sparse.csr_matrix(
            (data.ravel(), cols.ravel(),
             np.arange(0, n * width + 1, width, dtype=np.int32)),
            shape=(n, n))

    def _split(self, c: np.ndarray) -> list:
        """[(block, factor, u)] over the pieces of c that are kept (see
        the class docstring): u is real, in the coordinates of block, and
        factor is e^{i theta} or i e^{i theta}, so that `_merge` of the
        factor * u of every piece gives c back.  The blocks of the pieces
        that are not built yet are built here, after the temporaries of
        `_pieces` are freed, from one table of `_signed_ranks`, once the
        entries of the blocks built and to be built pass the budget
        (`_check_hamiltonian_budget`)."""
        pieces = self._pieces(c)
        unbuilt = [block for block in self.blocks if block.H is None
                   and any(block is b for b, _, _ in pieces)]
        if unbuilt:
            g = self.grid
            rows = sum(len(self._rep) + len(block.fixed)
                       for block in self.blocks
                       if block.H is not None or block in unbuilt)
            _check_hamiltonian_budget(rows, g.M, g.N, len(self._modes))
            # the first build makes the table, after its target maps: a
            # table made before them raised the peak RSS of the N = 3
            # benchmark run by 2 MB
            table = lru_cache(maxsize=None)(
                lambda: _signed_ranks(self.grid.M, self.grid.N))
            for block in unbuilt:
                self._build(block, table)
        return pieces

    def _pieces(self, c: np.ndarray) -> list:
        c = np.asarray(c, dtype=complex)
        head = c[self._rep]
        tail = c[self._img]
        tail *= self._sigma
        coords = []
        for block in self.blocks:
            pair = head + tail if block.s > 0 else head - tail
            pair *= _HALF_ROOT
            coords.append(np.concatenate([pair, c[block.fixed]]))
        del head, tail, pair
        # sum_K c_K^2 is kept by the real orthogonal change of basis
        phase = np.exp(0.5j * np.angle(sum(np.sum(z * z) for z in coords)))
        candidates = []
        for block, z in zip(self.blocks, coords):
            z *= phase.conjugate()
            candidates += [(block, phase, z.real), (block, 1j * phase, z.imag)]
        squares = [float(np.sum(part * part)) for _, _, part in candidates]
        # ||c||^2 is the sum of the squared norms of the pieces
        level = np.sqrt(len(c) * fsum(squares)) * np.finfo(float).eps
        return [(block, factor, np.ascontiguousarray(part))
                for (block, factor, part), square in zip(candidates, squares)
                if np.sqrt(square) > level]

    def _merge(self, out: np.ndarray, parts: dict) -> None:
        """Write into out, zero on entry, the vector whose coordinates in
        each block of `parts` are parts[block] (0 in a block not there):
        the inverse of the projections of `_split`."""
        p = len(self._rep)
        head = np.zeros(p, dtype=complex)
        tail = np.zeros(p, dtype=complex)
        for block, z in parts.items():
            head += z[:p]
            (np.add if block.s > 0 else np.subtract)(tail, z[:p], out=tail)
            out[block.fixed] = z[p:]
        head *= _HALF_ROOT
        tail *= _HALF_ROOT * self._sigma
        out[self._rep] = head
        out[self._img] = tail

    def apply(self, c: np.ndarray) -> np.ndarray:
        """H c, one real block product per piece of c."""
        parts: dict = {}
        for block, factor, u in self._split(c):
            parts[block] = parts.get(block, 0) + factor * (block.H @ u)
        out = np.zeros(len(c), dtype=complex)
        self._merge(out, parts)
        return out

    def energy(self, state: ManyBodyState) -> float:
        """a^H H a, the sum of u^T H u over the pieces u of a: the pieces
        are orthogonal and H keeps each block."""
        return fsum(float(np.sum(u * (block.H @ u)))
                    for block, _, u in self._split(state.coeffs))

    def time_derivative(self, state: ManyBodyState) -> np.ndarray:
        """adot = H a / (i hbar), the coefficients' rate under the flow."""
        return self.apply(state.coeffs) / (1j * self.grid.hbar)

    def evolve(self, c: np.ndarray, times) -> np.ndarray:
        """exp(-i t H / hbar) c for each t in `times`, row s of the
        result at times[s]: one `chebyshev_exp` per piece of c, times the
        piece's factor and summed per block for `_merge`.  Non-finite
        coefficients raise PropagationError before any block is built."""
        bad = int(np.count_nonzero(~np.isfinite(c)))
        if bad:
            raise PropagationError(f"non-finite input coefficients: {bad} "
                                   f"of {np.size(c)}")
        parts: dict = {}
        for block, factor, u in self._split(c):
            rows = chebyshev_exp(block.H.dot, *block.bounds, u, times,
                                 self.grid.hbar)
            rows *= factor
            if block in parts:
                rows += parts[block]
            parts[block] = rows
        out = np.zeros((len(times), len(c)), dtype=complex)
        for s, row in enumerate(out):
            self._merge(row, {block: z[s] for block, z in parts.items()})
        return out


def chebyshev_exp(apply, lo: float, hi: float, u: np.ndarray, times,
                  hbar: float) -> np.ndarray:
    """exp(-i t H / hbar) u for each t in `times`, as row s of a complex
    (len(times),) + u.shape array: the Jacobi-Anger series of
    `_jacobi_anger` (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967),
    with its phase, for a Hermitian H with spectrum in [lo, hi] given by
    apply(v) = H v, a new array and the only one a term allocates: every
    other operation writes into a buffer made before the recurrence, and
    u is only read.  A real u (with a real H) sums the even terms, whose
    (-i)^k is real, into the real part and the odd terms into the
    imaginary part.
    """
    times = np.ravel(times).tolist()
    centre, a, J = _jacobi_anger(lo, hi, times, hbar)
    weights = J.tolist()
    out = np.zeros((len(times),) + u.shape, dtype=complex)
    real = np.isrealobj(u)
    # the rows that each parity of k sums into, as views made once
    parts = (list(out.real), list(out.imag)) if real else (list(out),) * 2
    units = (1.0, -1.0) if real else (1.0, -1j)
    for row, w in zip(parts[0], weights[0]):
        np.multiply(u, w, out=row)
    tmp = np.empty_like(u)
    prev, cur = None, u
    for k in range(1, len(weights)):
        nxt = apply(cur)
        nxt -= np.multiply(cur, centre, out=tmp)
        if k == 1:
            nxt *= 0.5 * a  # T_-1 = 0 halves T_1
        else:
            nxt *= a
            nxt -= prev
        prev, cur = cur, nxt
        unit = 2.0 * (-1) ** (k // 2) * units[k % 2]
        for row, w in zip(parts[k % 2], weights[k]):
            row += np.multiply(cur, unit * w, out=tmp)
    for row, t in zip(out, times):
        row *= np.exp(-1j * t * centre / hbar)
    return out


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


def _check_hamiltonian_budget(rows: int, M: int, N: int,
                              modes: int) -> None:
    """Refuse parity blocks of H with `rows` rows in all, whose stored
    entries rows (1 + C(N,2) modes) pass the amplitude budget of
    `make_grid`; name a power-of-two M at which even both blocks,
    C(M,N) rows, fit."""
    def entries(rows: int, m: int) -> int:
        return rows * (1 + comb(N, 2) * min(modes, m - 1))

    need, limit = entries(rows, M), _active_budget(None)
    if need <= limit:
        return
    smaller = M // 2
    while smaller > 2 and entries(comb(smaller, N), smaller) > limit:
        smaller //= 2
    raise GridError(
        f"the N-body Hamiltonian needs {need} stored entries "
        f"({need * 12 / 2 ** 20:.1f} MiB) > budget {limit} at M={M}, "
        f"N={N} with {modes} potential modes; use M={smaller}")


def propagate(state: ManyBodyState, potential: Potential, dt: float,
              steps: int) -> ManyBodyState:
    """The exact flow of H over time dt * steps, through a `SlaterFlow`
    of its own, freed on return; steps = 0 returns a copy.  Non-finite
    coefficients are refused before anything is built (`evolve`)."""
    if steps < 0:
        raise GridError(f"steps must be >= 0, got {steps}; to propagate "
                        "backward in time pass a negative dt")
    if steps == 0:
        return state.copy()
    T = dt * steps
    (c,) = SlaterFlow(state.grid, potential).evolve(state.coeffs, [T])
    return ManyBodyState(state.grid, c, state.time + T)


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


def gamma1_and_rate(state: ManyBodyState,
                    adot: np.ndarray) -> tuple[OneBodyKernel, np.ndarray]:
    """gamma1 = F B B^H F^H, as `gamma1`, and its rate under the flow of H,
    Xdot + Xdot^H with Xdot = F Bdot B^H F^H (`_one_body_matrix`), from one
    one-free-axis extension B of a; Bdot is that of adot = H a / (i hbar)
    (`SlaterFlow.time_derivative`)."""
    g = state.grid
    B = _antisymmetric_extension(g, state.coeffs, 1)
    xdot = _one_body_matrix(g, _antisymmetric_extension(g, adot, 1), B)
    return (OneBodyKernel(_one_body_matrix(g, B, B), g),
            xdot + xdot.conj().T)


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


def kinetic_bound_check(states, potential: Potential) -> dict:
    """Quadratic-in-time kinetic growth bound over states in time order.

    Uses K := 2 * kinetic_energy (the convention without the 1/2) and
    reports <K/N>(t) together with the smallest C such that
    <K/N>(t) <= <K/N>(0) + C t^2 over the sampled times.  The momentum
    scale (1/N) sum_j hbar ||grad_j psi|| is sqrt(<K/N>) by symmetry.
    """
    times = [s.time for s in states]
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise GridError("state times must be strictly increasing")
    N = states[0].grid.N
    k_over_n = [2.0 * kinetic_energy(s) / N for s in states]
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
