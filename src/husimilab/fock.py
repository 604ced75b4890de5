"""Exact finite-mode fermionic Fock space.

States live on 2^modes complex amplitudes indexed by occupation bitmasks
with mode 0 as the least significant bit.  The table `_jordan_wigner` is
the one place the Jordan-Wigner sign lives: for each mode m and bitmask
with bit m set, the bitmask with m emptied and the parity of the occupied
modes below m.  Every kernel is a product with the mode operators read
off it and stacked over the modes (`_stacked`), so no kernel loops over
modes or basis states in Python.  The module provides second quantization
of one-body operators, the operator inequalities it obeys, and the
two-particle density tensor with the mixed norm of its factorization
defect, an exact oracle for that norm of an N-body state.

`operator_inequality_suite`, behind `husimilab fock-check`, makes one
pass per random instance over plain arrays: one draw for O and Psi, the
three quadratic forms of O from two sparse products (`quadratic_images`),
the number-operator norms as dot products of |Psi|^2 with fixed weights,
and the norms of all instances' O from one stacked SVD (`one_body_norms`).
"""

from __future__ import annotations

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


def vacuum(modes: int) -> np.ndarray:
    amps = np.zeros(1 << modes, dtype=complex)
    amps[0] = 1.0
    return amps


@lru_cache(maxsize=None)
def _jordan_wigner(modes: int):
    """The Jordan-Wigner table: row m holds each bitmask S with bit m set
    (ascending), S ^ 2^m and the complex sign (-1)^popcount(S & (2^m - 1)),
    so a_m |S> = sign |S ^ 2^m> and a*_m |S ^ 2^m> = sign |S>."""
    m = np.arange(modes)[:, None]
    k, low = np.arange(1 << (modes - 1)), (1 << m) - 1
    src = ((k & ~low) << 1) | (1 << m) | (k & low)
    sign = 1.0 - 2.0 * (_popcount(src & low) & 1)
    return src, src ^ (1 << m), sign.astype(complex)


@lru_cache(maxsize=None)
def mode_operators(modes: int):
    """Sparse a_0 .. a_{modes-1} (annihilation), the first row blocks of
    down (`_stacked`); the entries are real, so a*_m is the transpose."""
    dim = 1 << modes
    return [_stacked(modes)[0][m * dim:(m + 1) * dim] for m in range(modes)]


@lru_cache(maxsize=None)
def _stacked(modes: int):
    """The mode operators stacked into the pair (down, up), from the table.

    down = [a_0; ..; a_{modes-1}; a*_0; ..] maps psi to the [kind, mode,
    amplitude] block of op_m psi (CSC: most rows are empty).  up = [[a*, 0],
    [a, 0], [0, a*]] folds such a block phi, a row of modes blocks per entry,
    to sum_m a*_m phi[0, m], sum_m a_m phi[0, m] and sum_m a*_m phi[1, m].
    """
    src, dst, sign = _jordan_wigner(modes)
    dim, size = 1 << modes, modes << modes
    at = np.arange(modes)[:, None] << modes  # mode m's block starts at m dim
    # (format, rows, cols, shape): the table's signs sit at (rows[b], cols[b])
    down_at = (sparse.csc_matrix, (at + dst, size + at + src), (src, dst),
               (2 * size, dim))
    up_at = (sparse.csr_matrix, (src, dim + dst, 2 * dim + src),
             (at + dst, at + src, size + at + dst), (3 * dim, 2 * size))
    return tuple(fmt((np.tile(sign.ravel(), len(rows)),
                      (np.ravel(rows), np.ravel(cols))), shape=shape)
                 for fmt, rows, cols, shape in (down_at, up_at))


def quadratic_images(O: np.ndarray, psi: np.ndarray):
    """The three quadratic forms of the one-body matrix O applied to the
    amplitude vector psi,

        dGamma(O) psi = sum_ij O_ij a*_i a_j psi,
        sum_ij O_ij a_i a_j psi   and   sum_ij O_ij a*_i a*_j psi,

    as the rows of a (3, 2^modes) array, from two products with the stacked
    pair (`_stacked`): O applied to down psi gives the rows
    sum_j O_ij a_j psi and sum_j O_ij a*_j psi, which up folds with a*, a
    and a* into the three forms.
    """
    O = np.asarray(O, dtype=complex)
    modes = O.shape[0]
    if O.shape != (modes, modes) or psi.shape != (1 << modes,):
        raise FockError("one-body matrix and amplitude vector do not match "
                        "one mode count")
    down, up = _stacked(modes)
    lowered = (O @ (down @ psi).reshape(2, modes, -1)).ravel()
    return (up @ lowered).reshape(3, -1)


# ---------------------------------------------------------------------------
# one-body norms and the inequality suite
# ---------------------------------------------------------------------------

def one_body_norms(O: np.ndarray):
    """(operator, Hilbert-Schmidt, trace) norms of each matrix of a stack
    (..., m, m), from one stacked SVD; op <= HS <= trace."""
    sv = np.linalg.svd(O, compute_uv=False)
    return sv[..., 0], np.sqrt(np.sum(sv ** 2, axis=-1)), np.sum(sv, axis=-1)


@lru_cache(maxsize=None)
def _number_weights(modes: int) -> np.ndarray:
    """Rows n^2, n and n + 1 over the bitmasks, n the particle number: the
    dot products of |psi|^2 with them are ||N psi||^2, ||N^(1/2) psi||^2
    and ||(N + 1)^(1/2) psi||^2."""
    n = _particle_numbers(modes).astype(float)
    return np.stack([n * n, n, n + 1.0])


# instances whose one-body matrices share one stacked SVD; bounds the
# memory of the suite at any instance count
_SUITE_BATCH = 256


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

    One pass per instance over plain arrays: one draw gives Re O, Im O,
    Re Psi and Im Psi in that order, `quadratic_images` the three left
    sides, and the number-operator norms are dot products of |Psi|^2
    with `_number_weights`.  The norms of O come from one stacked SVD per
    batch of instances.  An instance whose right side is 0 must have a
    left side below 1e-14 and is not counted.
    """
    _check_modes(modes)
    if n_instances < 0:
        raise FockError(f"instance count must be >= 0, got {n_instances}")
    names = ["dgamma_op", "dgamma_hs", "pair_ann_hs", "pair_cre_hs",
             "dgamma_tr", "pair_ann_tr", "pair_cre_tr"]
    dim, size = 1 << modes, modes * modes
    weights = _number_weights(modes)
    worst = np.zeros(7)
    for start in range(0, n_instances, _SUITE_BATCH):
        count = min(_SUITE_BATCH, n_instances - start)
        Os = np.empty((count, modes, modes), dtype=complex)
        # squares of ||dG(O) Psi||, ||sum O a a Psi||, ||sum O a* a* Psi||
        # and of ||N Psi||, ||N^1/2 Psi||, ||(N+1)^1/2 Psi||
        lhs, number = np.empty((count, 3)), np.empty((count, 3))
        for k in range(count):
            z = rng.standard_normal(2 * size + 2 * dim)
            Os[k].real = z[:size].reshape(modes, modes)
            Os[k].imag = z[size:2 * size].reshape(modes, modes)
            psi = z[2 * size:2 * size + dim] + 1j * z[2 * size + dim:]
            psi /= np.linalg.norm(psi)
            lhs[k] = [np.vdot(v, v).real for v in quadratic_images(Os[k], psi)]
            number[k] = weights @ (psi.real ** 2 + psi.imag ** 2)
        lhs, number = np.sqrt(lhs), np.sqrt(number)
        op, hs, tr = one_body_norms(Os)
        left = lhs[:, [0, 0, 1, 2, 0, 1, 2]]
        right = np.column_stack([op * number[:, 0], hs * number[:, 1],
                                 hs * number[:, 1], 2.0 * hs * number[:, 2],
                                 2.0 * tr, 2.0 * tr, 2.0 * tr])
        zero = right == 0
        if (bad := zero & ~(left < 1e-14)).any():
            raise FockError(f"bound {names[bad.any(axis=0).argmax()]} has "
                            "right side 0 and left side not below 1e-14")
        ratio = np.divide(left, right, out=np.zeros_like(left),
                          where=~zero)
        worst = np.maximum(worst, ratio.max(axis=0))
    return {"instances": n_instances,
            "max_lhs_over_rhs": dict(zip(names, worst.tolist()))}


# ---------------------------------------------------------------------------
# the two-particle density and its factorization defect
# ---------------------------------------------------------------------------

def gamma2_fock(psi: np.ndarray) -> np.ndarray:
    """Full two-particle reduced density tensor G[z1,z2,x1,x2].

    G = <Psi, a*_{x1} a*_{x2} a_{z2} a_{z1} Psi>; memory 2^modes * modes^2,
    fine for the mode counts this module allows.
    """
    m = psi.size.bit_length() - 1
    down, _ = _stacked(m)
    first = (down @ psi)[:m << m].reshape(m, -1)  # [z1, S]
    second = (down @ first.T)[:m << m].reshape(m, -1, m)  # [z2, S, z1]
    flat = second.transpose(2, 0, 1).reshape(m * m, -1)  # [(z1, z2), S]
    # [(z1,z2),(x1,x2)] = <a_{x2} a_{x1} Psi, a_{z2} a_{z1} Psi>
    overlaps = flat @ flat.conj().T
    return overlaps.reshape(m, m, m, m)


def mixed_norm_fock(psi: np.ndarray, omega: np.ndarray) -> float:
    """Mixed norm of the two-particle factorization defect, exact modes path.

    Computes ( sum_{u1,w1} [ sum_y |gamma2(u1,y; w1,y)
              - omega(u1;w1) omega(y;y)| ]^2 )^(1/2) on unit mode weights.
    """
    G = gamma2_fock(psi)
    # gamma2(u1, y; w1, y): kernel indices G[z1,z2,x1,x2] with row pair
    # (z1,z2) and column pair (x1,x2); here row=(u1,y), col=(w1,y)
    diag = np.einsum("uywy->uwy", G)
    defect = diag - np.einsum("uw,y->uwy", omega, np.diag(omega))
    inner = np.sum(np.abs(defect), axis=2)
    return float(np.sqrt(np.sum(inner ** 2)))
