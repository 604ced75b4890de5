import numpy as np
import pytest

from husimilab import fock


def random_orthonormal(rng, modes, n):
    raw = (rng.standard_normal((modes, n))
           + 1j * rng.standard_normal((modes, n)))
    return np.linalg.qr(raw)[0]


def random_state(rng, modes):
    dim = 1 << modes
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def slater_from_modes(E):
    """a*(e_N) .. a*(e_1)|0> for the orbitals e_j, the columns of E, with
    a*(g) = sum_m g_m a*_m from `mode_operators`."""
    modes = E.shape[0]
    creators = [op.T for op in fock.mode_operators(modes)]
    psi = fock.vacuum(modes)
    for e in E.T:
        psi = sum(g * (c @ psi) for g, c in zip(e, creators))
    return psi


# ---------------------------------------------------------------------------
# CAR algebra and elementary operators
# ---------------------------------------------------------------------------

def test_create_on_vacuum():
    vac = fock.vacuum(4)
    expect = np.zeros(16, dtype=complex)
    expect[1] = 1.0
    assert np.array_equal(fock.mode_operators(4)[0].T @ vac, expect)


def test_annihilate_vacuum_is_zero():
    vac = fock.vacuum(4)
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
    # one mode and the fock-check default of 8: both ends of the bit range
    for modes in (1, 5, 8):
        ops = fock.mode_operators(modes)
        assert len(ops) == modes
        for m in range(modes):
            for mask, basis in enumerate(np.eye(1 << modes, dtype=complex)):
                got = ops[m] @ basis
                assert np.array_equal(got,
                                      annihilate_reference(modes, mask, m))


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
    sl = slater_from_modes(random_orthonormal(np.random.default_rng(3), 6, 2))
    counted = fock._particle_numbers(6) * sl
    assert np.max(np.abs(counted - 2.0 * sl)) < 1e-12


def test_dgamma_identity_is_number_operator():
    rng = np.random.default_rng(0)
    for _ in range(100):
        psi = random_state(rng, 5)
        a = fock.quadratic_images(np.eye(5), psi)[0]
        b = fock._particle_numbers(5) * psi
        assert np.max(np.abs(a - b)) < 1e-12


def test_dgamma_operator_norm_bound():
    rng = np.random.default_rng(1)
    for _ in range(200):
        O = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        psi = random_state(rng, 8)
        lhs = np.linalg.norm(fock.quadratic_images(O, psi)[0])
        rhs = (fock.one_body_norms(O)[0]
               * np.linalg.norm(fock._particle_numbers(8) * psi))
        assert lhs <= rhs + 1e-10


def test_one_body_norm_ordering():
    rng = np.random.default_rng(2)
    O = rng.standard_normal((50, 7, 7)) + 1j * rng.standard_normal((50, 7, 7))
    op, hs, tr = fock.one_body_norms(O)
    assert op.shape == hs.shape == tr.shape == (50,)
    assert np.all(op <= hs + 1e-10) and np.all(hs <= tr + 1e-10)
    # each matrix of the stack as on its own
    for k in (0, 49):
        alone = np.linalg.svd(O[k], compute_uv=False)
        assert (op[k], hs[k], tr[k]) == pytest.approx(
            (alone[0], np.linalg.norm(O[k]), alone.sum()), rel=1e-14)


def _quadratic_forms_by_hand(O, psi):
    """sum_ij O_ij x_i y_j psi for (x, y) = (a*, a), (a, a), (a*, a*), as
    the double sum over the single mode operators."""
    a = fock.mode_operators(O.shape[0])
    c = [op.T for op in a]
    return [sum(O[i, j] * (x[i] @ (y[j] @ psi))
                for i in range(len(a)) for j in range(len(a)))
            for x, y in ((c, a), (a, a), (c, c))]


def test_quadratic_images_match_the_double_sums():
    rng = np.random.default_rng(15)
    for modes in (1, 3, 6, 8):
        O = (rng.standard_normal((modes, modes))
             + 1j * rng.standard_normal((modes, modes)))
        psi = random_state(rng, modes)
        for got, want in zip(fock.quadratic_images(O, psi),
                             _quadratic_forms_by_hand(O, psi)):
            assert np.max(np.abs(got - want)) < 1e-12


def _suite_instance_by_hand(modes, rng):
    """The seven ratios of one instance of the suite, drawn from `rng` as
    Re O, Im O, Re Psi, Im Psi in four calls and recomputed from the
    double sums over the mode operators, the singular values of O and the
    particle number of each bitmask."""
    dim = 1 << modes
    O = (rng.standard_normal((modes, modes))
         + 1j * rng.standard_normal((modes, modes)))
    psi = random_state(rng, modes)
    dg, pa, pc = map(np.linalg.norm, _quadratic_forms_by_hand(O, psi))
    sv = np.linalg.svd(O, compute_uv=False)
    op, hs, tr = sv[0], np.sqrt(np.sum(sv ** 2)), np.sum(sv)
    n = np.array([bin(mask).count("1") for mask in range(dim)])
    n_psi = np.linalg.norm(n * psi)
    sqrt_n_psi = np.linalg.norm(np.sqrt(n) * psi)
    sqrt_n1_psi = np.linalg.norm(np.sqrt(n + 1.0) * psi)
    return {"dgamma_op": dg / (op * n_psi),
            "dgamma_hs": dg / (hs * sqrt_n_psi),
            "pair_ann_hs": pa / (hs * sqrt_n_psi),
            "pair_cre_hs": pc / (2.0 * hs * sqrt_n1_psi),
            "dgamma_tr": dg / (2.0 * tr),
            "pair_ann_tr": pa / (2.0 * tr),
            "pair_cre_tr": pc / (2.0 * tr)}


def test_operator_inequality_suite_holds_and_repeats():
    report = fock.operator_inequality_suite(4, 10, np.random.default_rng(0))
    ratios = report["max_lhs_over_rhs"]
    assert report["instances"] == 10 and len(ratios) == 7
    assert all(np.isfinite(r) and 0.0 < r <= 1.0 + 1e-10
               for r in ratios.values())
    assert fock.operator_inequality_suite(
        4, 10, np.random.default_rng(0)) == report


def test_operator_inequality_suite_instance_matches_recomputation():
    """The suite's maxima are those of the ratios recomputed instance by
    instance from the same generator, drawn in four calls per instance:
    so its one draw per instance reads the same stream.  At one mode
    a_0 a_0 = 0, so both pair ratios read 0."""
    for modes, n_instances in [(1, 6), (4, 7), (8, 3)]:
        report = fock.operator_inequality_suite(modes, n_instances,
                                                np.random.default_rng(0))
        rng = np.random.default_rng(0)
        by_hand = [_suite_instance_by_hand(modes, rng)
                   for _ in range(n_instances)]
        want = {name: max(r[name] for r in by_hand) for name in by_hand[0]}
        assert report["instances"] == n_instances
        assert report["max_lhs_over_rhs"] == pytest.approx(want, rel=1e-14)


def test_operator_inequality_suite_without_instances_reads_zero():
    report = fock.operator_inequality_suite(8, 0, np.random.default_rng(0))
    assert report["instances"] == 0
    assert set(report["max_lhs_over_rhs"].values()) == {0.0}


def test_operator_inequality_suite_checks_modes_before_drawing():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for modes, n_instances, match in [(0, 1, "mode count"),
                                      (fock.MAX_MODES + 1, 1, "mode count"),
                                      (4, -1, "instance count .* -1")]:
        with pytest.raises(fock.FockError, match=match):
            fock.operator_inequality_suite(modes, n_instances, rng)
    assert rng.bit_generator.state == before


def test_operator_inequality_suite_refuses_a_left_side_over_zero(
        monkeypatch):
    """With every norm of O read as 0 every right side is 0 while the left
    sides are not: the refusal names the first such bound, dgamma_op, and
    is no assert, so python -O keeps it."""
    monkeypatch.setattr(fock, "one_body_norms",
                        lambda O: (np.zeros(len(O)),) * 3)
    with pytest.raises(fock.FockError, match="bound dgamma_op"):
        fock.operator_inequality_suite(4, 3, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# two-particle density and its factorization defect
# ---------------------------------------------------------------------------

def test_slater_gamma2_is_pure_exchange():
    rng = np.random.default_rng(12)
    E = random_orthonormal(rng, 6, 2)
    G = fock.gamma2_fock(slater_from_modes(E))
    om = E @ E.conj().T
    direct = np.einsum("ac,bd->abcd", om, om)
    exchange = np.einsum("ad,bc->abcd", om, om)
    assert np.max(np.abs((G - direct) + exchange)) < 1e-12


def test_mixed_norm_fock_slater_closed_form():
    rng = np.random.default_rng(17)
    E = random_orthonormal(rng, 6, 2)
    psi = slater_from_modes(E)
    om = E @ E.conj().T
    got = fock.mixed_norm_fock(psi, om)
    absom = np.abs(om)
    expect = np.sqrt(np.sum((absom @ absom) ** 2))
    assert got == pytest.approx(expect, rel=1e-10)
