import numpy as np
import pytest

from husimilab import fock


def random_orthonormal(rng, modes, n):
    raw = (rng.standard_normal((modes, n))
           + 1j * rng.standard_normal((modes, n)))
    return np.linalg.qr(raw)[0]


def random_state(rng, modes):
    dim = 1 << modes
    return fock.FockState(modes, rng.standard_normal(dim)
                          + 1j * rng.standard_normal(dim)).normalized()


# ---------------------------------------------------------------------------
# CAR algebra and elementary operators
# ---------------------------------------------------------------------------

def test_create_on_vacuum():
    vac = fock.vacuum(4).amplitudes
    expect = np.zeros(16, dtype=complex)
    expect[1] = 1.0
    assert np.array_equal(fock.mode_operators(4)[0].T @ vac, expect)


def test_annihilate_vacuum_is_zero():
    vac = fock.vacuum(4).amplitudes
    assert not (fock.mode_operators(4)[0] @ vac).any()


def annihilate_reference(modes, mask, m):
    # a_m |S> = (-1)^popcount(S & (2^m - 1)) |S ^ 2^m> if bit m is set, else 0,
    # built matrix-free from the bitmask
    out = np.zeros(1 << modes, dtype=complex)
    if (mask >> m) & 1:
        below = bin(mask & ((1 << m) - 1)).count("1")
        out[mask ^ (1 << m)] = (-1) ** below
    return out


def test_mode_operators_match_matrix_free_path():
    ops = fock.mode_operators(5)
    for m in range(5):
        for mask, basis in enumerate(np.eye(1 << 5, dtype=complex)):
            got = ops[m] @ basis
            assert np.array_equal(got, annihilate_reference(5, mask, m))


def test_car_full_basis():
    modes = 6
    ops = fock.mode_operators(modes)
    eye = np.eye(1 << modes)
    for i in range(modes):
        ai = ops[i].toarray()
        for j in range(modes):
            aj = ops[j].toarray()
            mixed = ai.conj().T @ aj + aj @ ai.conj().T
            target = eye if i == j else 0.0 * eye
            assert np.max(np.abs(mixed - target)) < 1e-12
            assert np.max(np.abs(ai @ aj + aj @ ai)) < 1e-12


def test_number_operator_on_slater():
    bmap = fock.BogoliubovMap(random_orthonormal(np.random.default_rng(3),
                                                 6, 2))
    sl = fock.slater_state(bmap)
    counted = fock.number_shifted(sl, shift=0.0)
    assert np.max(np.abs(counted.amplitudes - 2.0 * sl.amplitudes)) < 1e-12


def test_dgamma_identity_is_number_operator():
    rng = np.random.default_rng(0)
    for _ in range(100):
        psi = random_state(rng, 5)
        a = fock.dgamma(np.eye(5), psi).amplitudes
        b = fock.number_shifted(psi, shift=0.0).amplitudes
        assert np.max(np.abs(a - b)) < 1e-12


def test_dgamma_operator_norm_bound():
    rng = np.random.default_rng(1)
    for _ in range(200):
        O = fock.OneBodyOperator(rng.standard_normal((8, 8))
                                 + 1j * rng.standard_normal((8, 8)))
        psi = random_state(rng, 8)
        lhs = fock.dgamma(O.matrix, psi).norm()
        rhs = O.operator_norm * fock.number_shifted(psi, shift=0.0).norm()
        assert lhs <= rhs + 1e-10


def test_one_body_norm_ordering():
    rng = np.random.default_rng(2)
    for _ in range(50):
        O = fock.OneBodyOperator(rng.standard_normal((7, 7))
                                 + 1j * rng.standard_normal((7, 7)))
        assert O.operator_norm <= O.hs_norm + 1e-10
        assert O.hs_norm <= O.trace_norm + 1e-10


# ---------------------------------------------------------------------------
# Bogoliubov machinery
# ---------------------------------------------------------------------------

def test_bogoliubov_map_invariants():
    rng = np.random.default_rng(4)
    E = random_orthonormal(rng, 8, 3)
    bmap = fock.BogoliubovMap(E)
    # <vbar_x, u_y> = 0 for all column pairs
    vbar = np.conj(bmap.v)
    assert np.max(np.abs(vbar.conj().T @ bmap.u)) < 1e-12
    vsv = bmap.v.conj().T @ bmap.v
    assert abs(np.trace(vsv) - 3.0) < 1e-12
    assert np.max(np.abs(vsv @ vsv - vsv)) < 1e-12  # projection
    assert np.max(np.abs(bmap.u @ bmap.u - bmap.u)) < 1e-12
    assert np.linalg.norm(bmap.u, 2) <= 1.0 + 1e-12
    assert np.linalg.norm(bmap.v, 2) <= 1.0 + 1e-12
    assert np.linalg.norm(bmap.v) == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_bogoliubov_rejects_non_orthonormal():
    rng = np.random.default_rng(5)
    E = rng.standard_normal((6, 2)) + 0j
    with pytest.raises(fock.FockError, match="Gram defect"):
        fock.BogoliubovMap(E)


def test_trivial_conjugation_is_identity():
    bmap = fock.BogoliubovMap(np.zeros((4, 0), dtype=complex))
    ops = fock.mode_operators(4)
    R = fock.bogoliubov_unitary(bmap)
    assert np.max(np.abs(R - np.eye(16))) < 1e-12
    for x in range(4):
        ann, _ = fock.bogoliubov_conjugate(bmap, x)
        assert np.max(np.abs(ann.toarray() - ops[x].toarray())) < 1e-12


@pytest.mark.parametrize("modes,n", [(6, 1), (6, 2), (6, 3)])
def test_conjugation_matches_unitary(modes, n):
    rng = np.random.default_rng(6 + n)
    bmap = fock.BogoliubovMap(random_orthonormal(rng, modes, n))
    R = fock.bogoliubov_unitary(bmap)
    assert np.max(np.abs(R @ R.conj().T - np.eye(1 << modes))) < 1e-12
    ops = fock.mode_operators(modes)
    for x in range(modes):
        ann, cre = fock.bogoliubov_conjugate(bmap, x)
        lhs = R.conj().T @ ops[x].toarray() @ R
        assert np.max(np.abs(lhs - ann.toarray())) < 1e-10
        assert np.max(np.abs(lhs.conj().T - cre.toarray())) < 1e-10


def test_conjugation_preserves_anticommutators():
    rng = np.random.default_rng(9)
    bmap = fock.BogoliubovMap(random_orthonormal(rng, 6, 2))
    images = [fock.bogoliubov_conjugate(bmap, x) for x in range(6)]
    eye = np.eye(1 << 6)
    for i in range(6):
        ai = images[i][0].toarray()
        for j in range(6):
            aj_dag = images[j][1].toarray()
            acomm = ai @ aj_dag + aj_dag @ ai
            target = eye if i == j else 0.0 * eye
            assert np.max(np.abs(acomm - target)) < 1e-10


def test_conjugation_unitary_preserves_norms():
    rng = np.random.default_rng(10)
    bmap = fock.BogoliubovMap(random_orthonormal(rng, 6, 3))
    R = fock.bogoliubov_unitary(bmap)
    for _ in range(20):
        psi = random_state(rng, 6)
        assert abs(np.linalg.norm(R @ psi.amplitudes) - 1.0) < 1e-12


def test_slater_gamma1_matches_projector():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        bmap = fock.BogoliubovMap(random_orthonormal(rng, 8, n))
        sl = fock.apply_bogoliubov(bmap, fock.vacuum(8))
        g1 = fock.gamma1_fock(sl)
        assert np.max(np.abs(g1 - bmap.omega())) < 1e-10
        # exponential-free column construction agrees up to global phase
        direct = fock.slater_state(bmap)
        assert abs(abs(np.vdot(direct.amplitudes, sl.amplitudes)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# two-particle factorization gap
# ---------------------------------------------------------------------------

def test_slater_gamma2_is_pure_exchange():
    rng = np.random.default_rng(12)
    bmap = fock.BogoliubovMap(random_orthonormal(rng, 6, 2))
    psi = fock.apply_bogoliubov(bmap, fock.vacuum(6))
    G = fock.gamma2_fock(psi)
    om = bmap.omega()
    direct = np.einsum("ac,bd->abcd", om, om)
    exchange = np.einsum("ad,bc->abcd", om, om)
    assert np.max(np.abs((G - direct) + exchange)) < 1e-12


def test_wick_gap_zero_operators():
    rng = np.random.default_rng(13)
    bmap = fock.BogoliubovMap(random_orthonormal(rng, 6, 2))
    zero = fock.OneBodyOperator(np.zeros((6, 6)))
    lhs, rhs = fock.wick_gap_bound_check(zero, zero, fock.vacuum(6), bmap)
    assert lhs == 0.0 and rhs == 0.0


def test_wick_gap_bound_random_instances():
    rng = np.random.default_rng(14)
    modes, n = 8, 2
    for _ in range(100):
        bmap = fock.BogoliubovMap(random_orthonormal(rng, modes, n))
        O1 = fock.OneBodyOperator(rng.standard_normal((modes, modes))
                                  + 1j * rng.standard_normal((modes, modes)))
        O2 = fock.OneBodyOperator(rng.standard_normal((modes, modes))
                                  + 1j * rng.standard_normal((modes, modes)))
        xi = random_state(rng, modes)
        lhs, rhs = fock.wick_gap_bound_check(O1, O2, xi, bmap)
        assert lhs <= rhs + 1e-10


def test_mixed_norm_fock_slater_closed_form():
    rng = np.random.default_rng(17)
    bmap = fock.BogoliubovMap(random_orthonormal(rng, 6, 2))
    psi = fock.slater_state(bmap)
    om = bmap.omega()
    got = fock.mixed_norm_fock(psi, om)
    absom = np.abs(om)
    expect = np.sqrt(np.sum((absom @ absom) ** 2))
    assert got == pytest.approx(expect, rel=1e-10)
