"""Exact finite-mode fermionic Fock space.

States live on 2^modes complex amplitudes indexed by occupation bitmasks
with mode 0 as the least significant bit.  `mode_operators` is the one
place the Jordan-Wigner sign lives: it builds a_m as a sparse matrix with
the parity of the occupied modes below m.  Every kernel is a product with
those matrices stacked over the modes (`_stacked`), so no kernel loops
over modes or basis states in Python.  The module provides second
quantization of one-body operators, Bogoliubov pairs built from an
orthonormal orbital family, and the exact contractions used to test the
operator inequalities and the two-particle factorization bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

MAX_MODES = 14


class FockError(ValueError):
    pass


def _check_modes(modes: int) -> None:
    if not 1 <= modes <= MAX_MODES:
        raise FockError(f"mode count must be in [1, {MAX_MODES}], got {modes}")


def _popcount(bits: np.ndarray) -> np.ndarray:
    """Number of set bits of each entry of a non-negative integer array."""
    pc = np.zeros(bits.shape, dtype=np.int64)
    b = bits.copy()
    while b.any():
        pc += b & 1
        b >>= 1
    return pc


@lru_cache(maxsize=None)
def _particle_numbers(modes: int) -> np.ndarray:
    """Particle number of every occupation bitmask."""
    return _popcount(np.arange(1 << modes, dtype=np.int64))


@dataclass
class FockState:
    """Amplitude vector over occupation bitmasks; immutable by convention."""

    modes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_modes(self.modes)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.modes,):
            raise FockError("amplitude vector has wrong length")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FockState":
        n = self.norm()
        if n == 0:
            raise FockError("cannot normalize the zero vector")
        return FockState(self.modes, self.amplitudes / n)


def vacuum(modes: int) -> FockState:
    amps = np.zeros(1 << modes, dtype=complex)
    amps[0] = 1.0
    return FockState(modes, amps)


def number_shifted(state: FockState, shift: float = 1.0,
                   power: float = 1.0) -> FockState:
    """Apply (N + shift)^power, diagonal in the occupation basis."""
    pc = _particle_numbers(state.modes)
    return FockState(state.modes, (pc + shift) ** power * state.amplitudes)


@lru_cache(maxsize=None)
def mode_operators(modes: int):
    """Sparse matrices of a_0 .. a_{modes-1} (annihilation).

    a_m |S> = (-1)^popcount(S & (2^m - 1)) |S ^ 2^m> when bit m of S is
    set, else 0: the Jordan-Wigner sign is the parity of the occupied
    modes below m.  The entries are real, so a*_m is the transpose.
    """
    dim = 1 << modes
    idx = np.arange(dim, dtype=np.int64)
    ops = []
    for m in range(modes):
        src = idx[(idx >> m) & 1 == 1]
        sign = 1 - 2 * (_popcount(src & ((1 << m) - 1)) % 2)
        ops.append(sparse.csr_matrix((sign.astype(complex),
                                      (src ^ (1 << m), src)),
                                     shape=(dim, dim)))
    return ops


@lru_cache(maxsize=None)
def _stacked(modes: int):
    """The mode operators of kind "a" (a_m) and "c" (a*_m), stacked two ways.

    rows[kind] (vstack) maps psi to the [mode, amplitude] block of op_m psi;
    cols[kind] (hstack) maps a [mode, amplitude] block phi to
    sum_m op_m phi_m.
    """
    ops = {"a": mode_operators(modes)}
    ops["c"] = [a.T.tocsr() for a in ops["a"]]
    rows = {kind: sparse.vstack(v, format="csr") for kind, v in ops.items()}
    cols = {kind: sparse.hstack(v, format="csr") for kind, v in ops.items()}
    return rows, cols


def _mode_sum(kind: str, coeffs: np.ndarray) -> sparse.csr_matrix:
    """sum_m coeffs_m op_m as one sparse matrix, op = a ("a") or a* ("c").

    This is cols[kind] applied to outer(coeffs, .): block m of the stacked
    columns is scaled by coeffs_m and the blocks are folded onto one
    another.  No two modes reach the same entry (op_m changes bit m only),
    so the fold sums nothing.  With kind "c" it is a*(g) for g = coeffs.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    modes = coeffs.size
    _, cols = _stacked(modes)
    stack = cols[kind]
    return sparse.csr_matrix((stack.data * coeffs[stack.indices >> modes],
                              stack.indices & ((1 << modes) - 1),
                              stack.indptr.copy()),
                             shape=(1 << modes, 1 << modes))


def _mode_pair_sum(O: np.ndarray, state: FockState, inner: str,
                   outer: str) -> FockState:
    """sum_ij O_ij inner_i outer_j applied to state, for mode operators of
    kind `inner` and `outer` ("a" or "c")."""
    O = np.asarray(O, dtype=complex)
    modes = state.modes
    if O.shape != (modes, modes):
        raise FockError("one-body matrix does not match the mode count")
    rows, cols = _stacked(modes)
    moved = (rows[outer] @ state.amplitudes).reshape(modes, -1)
    return FockState(modes, cols[inner] @ (O @ moved).ravel())


def dgamma(O: np.ndarray, state: FockState) -> FockState:
    """Second quantization dGamma(O) = sum_ij O_ij a*_i a_j applied to state."""
    return _mode_pair_sum(O, state, "c", "a")


def pair_annihilation(O: np.ndarray, state: FockState) -> FockState:
    """sum_ij O_ij a_i a_j applied to state."""
    return _mode_pair_sum(O, state, "a", "a")


def pair_creation(O: np.ndarray, state: FockState) -> FockState:
    """sum_ij O_ij a*_i a*_j applied to state."""
    return _mode_pair_sum(O, state, "c", "c")


# ---------------------------------------------------------------------------
# one-body operators and the inequality suite
# ---------------------------------------------------------------------------

class OneBodyOperator:
    """One-body matrix with its three cached norms (op <= HS <= trace)."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise FockError("one-body operator must be a square matrix")
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        self.operator_norm = float(sv[0]) if sv.size else 0.0
        self.hs_norm = float(np.sqrt(np.sum(sv ** 2)))
        self.trace_norm = float(np.sum(sv))


def operator_inequality_suite(modes: int, n_instances: int,
                              rng: np.random.Generator) -> dict:
    """Sample the seven quadratic-operator bounds on random (O, Psi) pairs.

    Returns per-inequality max of lhs/rhs over the batch; every value must
    be <= 1 within roundoff for the bounds

        ||dG(O) Psi||      <= ||O||    ||N Psi||
        ||dG(O) Psi||      <= ||O||_HS ||N^(1/2) Psi||
        ||sum O a a Psi||  <= ||O||_HS ||N^(1/2) Psi||
        ||sum O a* a* Psi||<= 2 ||O||_HS ||(N+1)^(1/2) Psi||
        ||dG(O) Psi||      <= 2 ||O||_Tr
        ||sum O a a Psi||  <= 2 ||O||_Tr
        ||sum O a* a* Psi||<= 2 ||O||_Tr        (Psi normalized).
    """
    dim = 1 << modes
    ratios = {name: 0.0 for name in
              ["dgamma_op", "dgamma_hs", "pair_ann_hs", "pair_cre_hs",
               "dgamma_tr", "pair_ann_tr", "pair_cre_tr"]}
    for _ in range(n_instances):
        O = OneBodyOperator(rng.standard_normal((modes, modes))
                            + 1j * rng.standard_normal((modes, modes)))
        psi = FockState(modes, rng.standard_normal(dim)
                        + 1j * rng.standard_normal(dim)).normalized()
        dg = dgamma(O.matrix, psi).norm()
        pa = pair_annihilation(O.matrix, psi).norm()
        pc = pair_creation(O.matrix, psi).norm()
        n_psi = number_shifted(psi, shift=0.0).norm()
        sqrt_n_psi = number_shifted(psi, shift=0.0, power=0.5).norm()
        sqrt_n1_psi = number_shifted(psi, shift=1.0, power=0.5).norm()

        def upd(name, lhs, rhs):
            if rhs == 0:
                assert lhs < 1e-14
                return
            ratios[name] = max(ratios[name], lhs / rhs)

        upd("dgamma_op", dg, O.operator_norm * n_psi)
        upd("dgamma_hs", dg, O.hs_norm * sqrt_n_psi)
        upd("pair_ann_hs", pa, O.hs_norm * sqrt_n_psi)
        upd("pair_cre_hs", pc, 2.0 * O.hs_norm * sqrt_n1_psi)
        upd("dgamma_tr", dg, 2.0 * O.trace_norm)
        upd("pair_ann_tr", pa, 2.0 * O.trace_norm)
        upd("pair_cre_tr", pc, 2.0 * O.trace_norm)
    return {"instances": n_instances, "max_lhs_over_rhs": ratios}


# ---------------------------------------------------------------------------
# Bogoliubov machinery
# ---------------------------------------------------------------------------

class BogoliubovMap:
    """(u, v) pair generated by an orthonormal orbital family.

    For orbitals e_1..e_N (columns of E) the map carries

        v = sum_j |conj(e_j)><e_j|   (complex symmetric, v* v a projection)
        u = 1 - sum_j |e_j><e_j|     (orthogonal projection)

    so that conjugating a_x yields a(u_x) + a*(vbar_x), which on the
    quasi-free vacuum produces the Slater state with one-body matrix
    omega = E E^H.
    """

    def __init__(self, orbitals: np.ndarray):
        E = np.asarray(orbitals, dtype=complex)
        if E.ndim != 2:
            raise FockError("orbitals must be a (modes, N) matrix")
        if E.shape[1] > 0:
            gram = E.conj().T @ E
            defect = np.max(np.abs(gram - np.eye(E.shape[1])))
            if defect > 1e-10:
                raise FockError(
                    f"orbital family is not orthonormal: Gram defect {defect:.3e}")
        self.orbitals = E
        self.modes = E.shape[0]
        self.n_particles = E.shape[1]
        self.v = np.conj(E @ E.T)
        self.u = np.eye(self.modes, dtype=complex) - E @ E.conj().T

    def omega(self) -> np.ndarray:
        """One-body density matrix of the associated Slater state."""
        return self.orbitals @ self.orbitals.conj().T


def bogoliubov_conjugate(bmap: BogoliubovMap, mode: int):
    """Return (annihilation_image, creation_image) as sparse matrices.

    annihilation_image = a(u_{.,mode}) + a*(vbar_{.,mode}),
    creation_image is its adjoint.
    """
    ann = (_mode_sum("a", np.conj(bmap.u[:, mode]))
           + _mode_sum("c", np.conj(bmap.v[:, mode])))
    return ann, ann.conj().T.tocsr()


def _rotation_unitary(modes: int, theta: np.ndarray) -> np.ndarray:
    """Fock-space unitary implementing the one-body basis rotation theta.

    Column for bitmask S is built exponential-free as the product of the
    creation operators a*(theta_b) of its bits, lowest bit outermost,
    applied to the vacuum: the order that defines the occupation basis
    itself.  So column S is a*(theta_b) applied to the column of S without
    its lowest set bit b, and walking b from the highest mode down fills
    each mode's columns in one block product.
    """
    dim = 1 << modes
    out = np.zeros((dim, dim), dtype=complex)
    out[0, 0] = 1.0
    for b in reversed(range(modes)):
        above = np.arange(1 << (modes - b - 1)) << (b + 1)
        out[:, above | (1 << b)] = _mode_sum("c", theta[:, b]) @ out[:, above]
    return out


def bogoliubov_unitary(bmap: BogoliubovMap) -> np.ndarray:
    """Dense unitary R with R* a_x R = a(u_x) + a*(vbar_x).

    Built as Gamma(theta) . PH . Gamma(theta)* where theta rotates the
    computational modes onto the orbital family (completed to a basis) and
    PH is the particle-hole flip on the first N modes.  Each flip factor
    carries the parity of the higher modes so the conjugation comes out
    sign-free on every mode.  Dense construction is kept to modest mode
    counts; exactness is the point, not scale.
    """
    if bmap.modes > 12:
        raise FockError("dense Bogoliubov unitary limited to modes <= 12")
    E = bmap.orbitals
    # complete the family to an orthonormal basis whose first N columns are
    # the orbitals themselves (QR keeps their span but may rotate within it)
    q, _ = np.linalg.qr(np.hstack([E, np.eye(bmap.modes, dtype=complex)]))
    rest = q[:, bmap.n_particles:bmap.modes]
    q2, _ = np.linalg.qr(rest - E @ (E.conj().T @ rest))
    gamma = _rotation_unitary(bmap.modes, np.hstack([E, q2]))
    # PH = F_0 .. F_{N-1} is a signed permutation, PH |S> = sign[S]
    # |target[S]>.  F_j is the bare flip of bit j (no Jordan-Wigner string)
    # times the parity of the modes above j; this conjugates a_j -> a*_j
    # and leaves every other mode operator untouched, sign-free
    target = np.arange(1 << bmap.modes, dtype=np.int64)
    sign = np.ones(1 << bmap.modes)
    for j in reversed(range(bmap.n_particles)):
        sign *= 1 - 2 * (_popcount(target >> (j + 1)) % 2)
        target ^= 1 << j
    return (gamma[:, target] * sign) @ gamma.conj().T


def slater_state(bmap: BogoliubovMap) -> FockState:
    """R_V applied to the vacuum: the Slater state of the orbital family."""
    amps = vacuum(bmap.modes).amplitudes
    for j in range(bmap.n_particles):
        amps = _mode_sum("c", bmap.orbitals[:, j]) @ amps
    return FockState(bmap.modes, amps / np.linalg.norm(amps))


def apply_bogoliubov(bmap: BogoliubovMap, xi: FockState) -> FockState:
    """R_V xi through the dense unitary."""
    R = bogoliubov_unitary(bmap)
    return FockState(bmap.modes, R @ xi.amplitudes)


# ---------------------------------------------------------------------------
# reduced density matrices and the factorization gap
# ---------------------------------------------------------------------------

def gamma1_fock(state: FockState) -> np.ndarray:
    """gamma(x; z) = <Psi, a*_z a_x Psi> as a modes x modes matrix."""
    rows, _ = _stacked(state.modes)
    lowered = (rows["a"] @ state.amplitudes).reshape(state.modes, -1)
    return lowered @ lowered.conj().T  # [x, z] = <a_z psi, a_x psi>


def gamma2_fock(state: FockState) -> np.ndarray:
    """Full two-particle reduced density tensor G[z1,z2,x1,x2].

    G = <Psi, a*_{x1} a*_{x2} a_{z2} a_{z1} Psi>; memory 2^modes * modes^2,
    fine for the mode counts this module allows.
    """
    m = state.modes
    rows, _ = _stacked(m)
    first = (rows["a"] @ state.amplitudes).reshape(m, -1)  # [z1, S]
    second = (rows["a"] @ first.T).reshape(m, -1, m)  # [z2, S, z1]
    flat = second.transpose(2, 0, 1).reshape(m * m, -1)  # [(z1, z2), S]
    # [(z1,z2),(x1,x2)] = <a_{x2} a_{x1} Psi, a_{z2} a_{z1} Psi>
    overlaps = flat @ flat.conj().T
    return overlaps.reshape(m, m, m, m)


def wick_gap_bound_check(O1: OneBodyOperator, O2: OneBodyOperator,
                         xi: FockState, bmap: BogoliubovMap):
    """Exact two-particle factorization gap against its operator bound.

    For Psi = R_V xi computes lhs = |Tr (O1 x O2)(gamma2 - omega x omega)|
    and rhs = N ||O1||_HS ||O2|| ||(N+1) xi||; returns both.
    """
    if abs(xi.norm() - 1.0) > 1e-10:
        raise FockError("xi must be normalized")
    psi = apply_bogoliubov(bmap, xi)
    G = gamma2_fock(psi)
    omega = bmap.omega()
    factorized = np.einsum("ac,bd->abcd", omega, omega)
    lhs = abs(np.einsum("ca,db,abcd->", O1.matrix, O2.matrix, G - factorized))
    rhs = (bmap.n_particles * O1.hs_norm * O2.operator_norm
           * number_shifted(xi, shift=1.0).norm())
    return float(lhs), float(rhs)


def mixed_norm_fock(state: FockState, omega: np.ndarray) -> float:
    """Mixed norm of the two-particle factorization defect, exact modes path.

    Computes ( sum_{u1,w1} [ sum_y |gamma2(u1,y; w1,y)
              - omega(u1;w1) omega(y;y)| ]^2 )^(1/2) on unit mode weights.
    """
    G = gamma2_fock(state)
    # gamma2(u1, y; w1, y): kernel indices G[z1,z2,x1,x2] with row pair
    # (z1,z2) and column pair (x1,x2); here row=(u1,y), col=(w1,y)
    diag = np.einsum("uywy->uwy", G)
    defect = diag - np.einsum("uw,y->uwy", omega, np.diag(omega))
    inner = np.sum(np.abs(defect), axis=2)
    return float(np.sqrt(np.sum(inner ** 2)))
