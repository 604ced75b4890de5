import os
import subprocess
import sys
import tracemalloc
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.linalg import expm

from husimilab import harness
from husimilab import manybody as mb
from husimilab import meanfield as mf
from husimilab import snapshots as io
from husimilab.grid import BUDGET_ENV_VAR, GridError, Potential, make_grid

import grid_oracles as go


def _strang(state, potential, dt: float, steps: int) -> np.ndarray:
    """Strang splitting, half kick, FFT kinetic step, half kick: the
    second-order oracle of the exact flow, on the grid amplitudes."""
    g = state.grid
    half_v = np.exp(-0.5j * dt * go.pair_potential_table(g, potential)
                    / g.hbar)
    kinetic = np.exp(-0.5j * dt * g.hbar * sum(go.axis_k2(g)))
    psi = state.to_grid()
    for _ in range(steps):
        psi = half_v * np.fft.ifftn(kinetic * np.fft.fftn(half_v * psi))
    return psi


@pytest.fixture(scope="module")
def slater_n2():
    grid = make_grid(M=64, L=12.0, hbar=0.5, N=2)
    orbitals = mf.hermite_orbitals(grid, 2)
    return grid, orbitals, mb.build_slater(grid, orbitals)


def test_single_orbital_slater_is_the_orbital():
    grid = make_grid(M=64, L=12.0, hbar=0.5, N=1)
    orb = mb.gaussian_orbital(grid, width=0.8)
    psi = mb.build_slater(grid, [orb]).to_grid()
    phase = psi[np.argmax(np.abs(orb))] / orb[np.argmax(np.abs(orb))]
    assert np.max(np.abs(psi - phase * orb)) < 1e-12


def test_slater_normalized_and_antisymmetric(slater_n2):
    _, _, state = slater_n2
    assert abs(state.norm() - 1.0) < 1e-12
    psi = state.to_grid()
    assert _grid_swap_defect(psi) < 1e-12 * np.max(np.abs(psi))


def _grid_swap_defect(psi: np.ndarray) -> float:
    """max |psi(sigma_ij x) + psi(x)| over every pair and every point."""
    return max(float(np.max(np.abs(np.swapaxes(psi, i, j) + psi)))
               for i, j in combinations(range(psi.ndim), 2))


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("kind", ["antisymmetrized", "hermite", "random"])
def test_grid_export_is_antisymmetric(kind, N):
    """The grid export changes sign under every swap of two coordinates,
    at every lattice point: for a random antisymmetric state that is no
    Slater determinant at M = 8, and for Hermite and random-orbital Slater
    states at M = 16 evolved by the flow under a Gaussian bump V to
    t = 1/2."""
    if kind == "antisymmetrized":
        grid = make_grid(M=8, L=6.0, hbar=1.0 / N, N=N)
        rng = np.random.default_rng(30 + N)
        state = go.from_grid(grid, go.antisymmetrized(
            rng.standard_normal((8,) * N)
            + 1j * rng.standard_normal((8,) * N)))
    else:
        grid = make_grid(M=16, L=8.0, hbar=1.0 / N, N=N)
        flow = mb.SlaterFlow(grid, Potential.gaussian_bump(grid, 0.8, 1.5))
        start = mb.build_slater(grid, harness.build_orbitals(
            grid, kind, np.random.default_rng(N)))
        state = mb.ManyBodyState(
            grid, flow.evolve(start.coeffs, [0.5])[0], 0.5)
    psi = state.to_grid()
    assert _grid_swap_defect(psi) < 1e-12 * np.max(np.abs(psi))


def test_slater_gamma1_matches_orbital_projector(slater_n2):
    grid, orbitals, state = slater_n2
    kern = mb.gamma1(state)
    ref = sum(np.outer(e, np.conj(e)) for e in orbitals)
    assert np.max(np.abs(kern.matrix - ref)) < 1e-10
    assert abs(kern.trace() - 2.0) < 1e-10
    assert kern.hermiticity_defect() < 1e-10


def test_gamma1_occupations_in_unit_interval(slater_n2):
    grid, _, state = slater_n2
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    evolved = mb.propagate(state, V, dt=0.004, steps=50)
    occ = mb.gamma1(evolved).occupations()
    assert occ.min() > -1e-8
    assert occ.max() < 1.0 + 1e-8


def test_build_slater_rejects_non_orthonormal():
    grid = make_grid(M=32, L=8.0, hbar=0.5, N=2)
    e = mb.gaussian_orbital(grid, width=1.0)
    with pytest.raises(GridError, match="Gram defect"):
        mb.build_slater(grid, [e, 1.0001 * e])


def _slater_by_outer_products(grid, orbitals) -> np.ndarray:
    """det[e_j(x_i)] / sqrt(N!) on the grid as the signed sum of the N!
    outer products of the orbitals, normalized under the quadrature."""
    N = grid.N
    psi = np.zeros((grid.M,) * N, dtype=complex)
    for perm in permutations(range(N)):
        term = orbitals[perm[0]]
        for i in range(1, N):
            term = np.multiply.outer(term, orbitals[perm[i]])
        psi += mb._perm_sign(perm) * term
    psi /= np.sqrt(factorial(N))
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx ** N)


@pytest.mark.parametrize("N, M", [(2, 64), (3, 32), (4, 16)])
def test_build_slater_matches_outer_products(N, M):
    grid = make_grid(M=M, L=12.0, hbar=1.0 / N, N=N)
    orbitals = mf.hermite_orbitals(grid, N)
    state = mb.build_slater(grid, orbitals)
    want = _slater_by_outer_products(grid, orbitals)
    assert (np.max(np.abs(state.to_grid() - want))
            <= 1e-14 * np.max(np.abs(want)))
    # the coefficients are those of the outer-product state
    want_coeffs = go.from_grid(grid, want).coeffs
    assert (np.max(np.abs(state.coeffs - want_coeffs))
            <= 1e-14 * np.max(np.abs(want_coeffs)))


def test_build_slater_holds_no_n_by_n_table():
    """The traced peak of `build_slater` at (N, M) = (3, 64), with the
    int32 tuples already cached, stays below four coefficient vectors:
    the (N, N, C(M, N)) table of every e_hat_j(k_i) would take nine."""
    grid = make_grid(M=64, L=12.0, hbar=1.0 / 3.0, N=3)
    orbitals = mf.hermite_orbitals(grid, 3)
    assert mb._sorted_tuples(grid.M, grid.N).dtype == np.int32
    tracemalloc.start()
    try:
        mb.build_slater(grid, orbitals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * comb(grid.M, grid.N) * 16


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_zero_steps_is_identity(slater_n2):
    grid, _, state = slater_n2
    out = mb.propagate(state, Potential.zero(grid), dt=0.01, steps=0)
    assert np.array_equal(out.coeffs, state.coeffs)
    assert out.time == state.time


def test_free_gaussian_matches_closed_form():
    grid = make_grid(M=256, L=24.0, hbar=0.5, N=1)
    psi0 = mb.free_gaussian_evolution(grid, 1.0, -2.0, 0.8, 0.0)
    state = go.from_grid(grid, psi0)
    out = mb.propagate(state, Potential.zero(grid), dt=0.005, steps=200)
    oracle = mb.free_gaussian_evolution(grid, 1.0, -2.0, 0.8, 1.0)
    err = np.sqrt(np.sum(np.abs(out.to_grid() - oracle) ** 2) * grid.dx)
    assert err < 1e-6


def test_energy_and_norm_conserved_interacting(slater_n2):
    grid, _, state = slater_n2
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    flow = mb.SlaterFlow(grid, V)
    out = mb.propagate(state, V, dt=1.0 / 1600, steps=1600)  # horizon t = 1
    assert abs(out.norm() - 1.0) < 1e-10
    assert abs(flow.energy(out) - flow.energy(state)) < 1e-8


def test_nan_detection_reports_step():
    grid = make_grid(M=32, L=8.0, hbar=0.5, N=1)
    state = go.from_grid(grid, mb.gaussian_orbital(grid, width=0.8))
    state.coeffs[3] = np.nan
    with pytest.raises(mb.PropagationError, match="non-finite input"):
        mb.propagate(state, Potential.zero(grid), dt=0.01, steps=20)


def test_nan_detection_through_merged_kicks_n3():
    grid = make_grid(M=32, L=8.0, hbar=1.0 / 3.0, N=3)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 3))
    state.coeffs[3] = np.nan
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    with pytest.raises(mb.PropagationError,
                       match="non-finite input coefficients: 1 of 4960"):
        mb.propagate(state, V, dt=0.01, steps=20)


def test_evolve_refuses_a_nan_coefficient(slater_n2):
    """The flow's own entry refuses non-finite input, before any block
    of H is built, as the run's N-body stage calls it directly."""
    grid, _, state = slater_n2
    coeffs = state.coeffs.copy()
    coeffs[5] = np.nan
    flow = mb.SlaterFlow(grid, Potential.cosine(grid, [0.4, 0.15]))
    with pytest.raises(mb.PropagationError,
                       match=f"non-finite input coefficients: 1 of "
                             f"{coeffs.size}"):
        flow.evolve(coeffs, [0.01, 0.02])
    assert all(block.H is None for block in flow.blocks)


def test_hamiltonian_over_budget_rejected(monkeypatch):
    """The budget charges the parity blocks a product builds: at (3, 32)
    the Hermite state's one block holds 2495 (1 + 3 * 4) = 32435 entries
    and runs under a budget of 50000, while a random-orbital state needs
    both blocks, C(32, 3) (1 + 3 * 4) = 64480 entries, and is refused
    before either is built.  The grid's 32^3 amplitudes fit."""
    grid = make_grid(M=32, L=12.0, hbar=1.0 / 3.0, N=3)
    V = Potential.cosine(grid, [0.4, 0.15])
    monkeypatch.setenv(BUDGET_ENV_VAR, "50000")
    hermite = mb.build_slater(grid, mf.hermite_orbitals(grid, 3))
    assert mb.propagate(hermite, V, 0.002, 10).norm() == pytest.approx(1.0)
    random = mb.build_slater(grid, harness.build_orbitals(
        grid, "random", np.random.default_rng(0)))
    flow = mb.SlaterFlow(grid, V)
    with pytest.raises(GridError,
                       match=r"64480 stored entries \(0\.7 MiB\).*M=16"):
        flow.evolve(random.coeffs, [0.02])
    assert all(block.H is None for block in flow.blocks)


def test_negative_step_count_rejected(slater_n2):
    grid, _, state = slater_n2
    with pytest.raises(GridError, match="negative dt"):
        mb.propagate(state, Potential.zero(grid), dt=0.01, steps=-3)


@pytest.mark.parametrize("dt", [0.03, -0.03])
@pytest.mark.parametrize("N, M", [(1, 32), (2, 16), (3, 16)])
@pytest.mark.parametrize("steps", [1, 2])
def test_free_step_matches_fft_oracle(steps, N, M, dt):
    """Free steps are the FFT split-step kinetic flow on every axis; at
    N = 1 too, where the Slater-basis H is diagonal."""
    grid = make_grid(M=M, L=6.0, hbar=0.5, N=N)
    rng = np.random.default_rng(11)
    shape = (M,) * N
    psi = go.antisymmetrized(rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape))
    out = mb.propagate(go.from_grid(grid, psi), Potential.zero(grid), dt,
                       steps)
    k2 = grid.wavenumbers() ** 2
    total = sum(k2.reshape([M if b == a else 1 for b in range(N)])
                for a in range(N))
    oracle = np.fft.ifftn(np.exp(-0.5j * steps * dt * grid.hbar * total)
                          * np.fft.fftn(psi))
    assert (np.max(np.abs(out.to_grid() - oracle))
            < 1e-13 * np.max(np.abs(oracle)))
    assert out.time == pytest.approx(steps * dt)


def test_strang_step_is_second_order(slater_n2):
    grid, _, state = slater_n2
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    horizon = 0.5
    ref = _strang(state, V, horizon / 800, 800)
    exact = mb.propagate(state, V, horizon, 1).to_grid()
    strang = [_strang(state, V, horizon / n, n) for n in (25, 50, 100)]
    for target in (ref, exact):
        errs = [np.sqrt(np.sum(np.abs(psi - target) ** 2)
                        * grid.dx ** grid.N) for psi in strang]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.6 <= coarse / fine <= 4.4


def _random_antisymmetric(grid, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (grid.M,) * grid.N
    return go.antisymmetrized(rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("kind, state", [
    pytest.param(kind, state, id=kind if state == "random"
                 else f"{kind}-{state}")
    for state in ("random", "hermite")
    for kind in ("cosine", "gaussian_bump")])
@pytest.mark.parametrize("N, hbar", [(2, 0.5), (3, 1.0 / 3.0)])
def test_hamiltonian_matches_time_derivative(N, hbar, kind, state):
    """H c against the grid oracle: a random state takes all four pieces
    of the split and both parity blocks, a Hermite Slater state one piece
    and one block."""
    grid = make_grid(M=32, L=12.0, hbar=hbar, N=N)
    V = (Potential.cosine(grid, [0.4, 0.15]) if kind == "cosine"
         else Potential.gaussian_bump(grid, 0.8, 1.5))
    psi = (_random_antisymmetric(grid, 5) if state == "random" else
           mb.build_slater(grid, mf.hermite_orbitals(grid, N)).to_grid())
    flow = mb.SlaterFlow(grid, V)
    Hc = flow.apply(go.from_grid(grid, psi).coeffs)
    got = mb.ManyBodyState(grid, Hc).to_grid() / (1j * hbar)
    want = go.time_derivative(grid, psi, V)
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
    built = sum(block.H is not None for block in flow.blocks)
    assert built == (2 if state == "random" else 1)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_parity_map_is_an_involution_and_matches_the_grid(N):
    """P maps K to PK and back, sigma_K sigma_PK = 1, and the coefficients
    of psi(-x) are sigma_K a_PK, on a random antisymmetric state; x -> -x
    is j -> -j mod M on the lattice indices."""
    grid = make_grid(M=16, L=6.0, hbar=0.5, N=N)
    mirror, sigma = mb._parity_map(grid.M, N)
    assert np.array_equal(mirror[mirror], np.arange(comb(grid.M, N)))
    assert np.all(sigma * sigma[mirror] == 1)
    psi = _random_antisymmetric(grid, 9)
    flip = (-np.arange(grid.M)) % grid.M
    reflected = psi[np.ix_(*[flip] * N)]
    a = go.from_grid(grid, psi).coeffs
    want = sigma * a[mirror]
    got = go.from_grid(grid, reflected).coeffs
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(a))


@pytest.mark.parametrize("kind", ["cosine", "gaussian_bump"])
@pytest.mark.parametrize("N, M", [(1, 16), (2, 16), (3, 16), (4, 8)])
def test_block_hamiltonians_are_symmetric_and_bounded(N, M, kind):
    """Each parity block of H is symmetric, its Gershgorin bounds hold its
    spectrum, and the two blocks together have the spectrum of H on the
    whole basis, assembled column by column from `apply`."""
    grid = make_grid(M=M, L=6.0, hbar=1.0 / N, N=N)
    V = (Potential.cosine(grid, [0.4, 0.15]) if kind == "cosine"
         else Potential.gaussian_bump(grid, 0.8, 1.5))
    flow = mb.SlaterFlow(grid, V)
    table = mb._signed_ranks(M, N)
    spectra = []
    for block in flow.blocks:
        flow._build(block, lambda: table)
        H = block.H.toarray()
        assert np.max(np.abs(H - H.T)) <= 1e-15
        eig = np.linalg.eigvalsh(H)
        lo, hi = block.bounds
        assert lo <= eig[0] and eig[-1] <= hi
        spectra.append(eig)
    n = comb(M, N)
    full = np.array([flow.apply(np.eye(n)[r]) for r in range(n)]).T
    assert np.max(np.abs(full.imag)) == 0.0
    assert np.allclose(np.sort(np.concatenate(spectra)),
                       np.linalg.eigvalsh(full.real), rtol=0, atol=1e-13)


@pytest.mark.parametrize("t, state", [
    pytest.param(t, state, id=str(t) if state == "random"
                 else f"{t}-{state}")
    for state in ("random", "hermite") for t in (0.05, 3.0)])
@pytest.mark.parametrize("N, M", [(2, 16), (3, 8)])
def test_propagate_matches_dense_exponential(N, M, t, state):
    """exp(t G) with G the grid oracle `time_derivative` on the
    antisymmetric sector, assembled column by column on antisymmetrized
    position deltas; on a random state, which keeps every piece of the
    flow's split, and on a Hermite Slater state, whose other pieces the
    flow drops."""
    grid = make_grid(M=M, L=6.0, hbar=0.5, N=N)
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    columns = []
    for x in combinations(range(M), N):
        delta = np.zeros((M,) * N, dtype=complex)
        delta[x] = 1.0 / np.sqrt(factorial(N))
        columns.append(go.antisymmetrized(delta).ravel())
    B = np.array(columns).T  # orthonormal basis of the sector
    G = B.conj().T @ np.array([
        go.time_derivative(grid, b.reshape((M,) * N), V).ravel()
        for b in B.T]).T
    rng = np.random.default_rng(3)
    psi0 = (B @ (rng.standard_normal(B.shape[1])
                 + 1j * rng.standard_normal(B.shape[1]))
            if state == "random" else mb.build_slater(
                grid, mf.hermite_orbitals(grid, N)).to_grid().ravel())
    want = B @ (expm(t * G) @ (B.conj().T @ psi0))
    got = mb.propagate(go.from_grid(grid, psi0.reshape((M,) * N)), V,
                       t / 2, 2)
    assert got.time == pytest.approx(t)
    assert (np.max(np.abs(got.to_grid().ravel() - want))
            < 1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("family, N, M", [("hermite", 2, 64),
                                           ("hermite", 3, 64),
                                           ("plane_wave", 3, 32),
                                           ("random", 3, 32)])
def test_flow_drops_only_rounding(family, N, M, monkeypatch):
    """The vectors of a run's N-body stage (the initial state, and the
    states it evolves to at t = 0.02 and 0.04, whose energies and d/dt a
    the stage takes): merging the pieces `_split` keeps gives each back
    to within sqrt(C(M, N)) eps ||c||.  A random-orbital state keeps all
    four pieces and builds both parity blocks; a Hermite or plane-wave
    Slater state keeps one piece, its evolved states at most two, all in
    one block.  Either way the table of signed ranks is made once."""
    tables = []
    signed_ranks = mb._signed_ranks
    monkeypatch.setattr(mb, "_signed_ranks",
                        lambda *args: tables.append(args)
                        or signed_ranks(*args))
    grid = make_grid(M=M, L=12.0, hbar=1.0 / N, N=N)
    V = Potential.cosine(grid, [0.4, 0.15])
    state = mb.build_slater(grid, harness.build_orbitals(
        grid, family, np.random.default_rng(0)))
    flow = mb.SlaterFlow(grid, V)
    for k, c in enumerate([state.coeffs,
                           *flow.evolve(state.coeffs, [0.02, 0.04])]):
        pieces = flow._split(c)
        parts: dict = {}
        for block, factor, u in pieces:
            parts[block] = parts.get(block, 0) + factor * u
        merged = np.zeros_like(c)
        flow._merge(merged, parts)
        assert (np.linalg.norm(merged - c)
                <= np.sqrt(comb(M, N)) * np.finfo(float).eps
                * np.linalg.norm(c))
        if family == "random":
            assert len(pieces) == 4
        else:
            assert len(pieces) == (1 if k == 0 else 2)
            assert len(parts) == 1
    built = sum(block.H is not None for block in flow.blocks)
    assert built == (2 if family == "random" else 1)
    assert tables == [(M, N)]


@pytest.mark.parametrize("R", [0.0, 1e-3, 0.02, 0.5, 7.0, 26.0, 130.0])
def test_jacobi_anger_table_matches_the_fixed_order_evaluation(R):
    """Against int(2R) + 40 orders of `special.jv` cut after the last row
    above 1e-18: the same cut, entries within 2.5e-16 (1 + R), about one
    ulp of J_0 at small R; alone and with times of the opposite sign.  The
    column of -R is (-1)^k times that of R, bit for bit."""
    for times in ([R], [R, -0.5 * R], [R, -R]):
        _, _, got = mb._jacobi_anger(-1.0, 1.0, times, 1.0)
        J = special.jv(np.arange(int(2 * R) + 40)[:, None], times)
        keep = np.flatnonzero(np.max(np.abs(J), axis=1) > 1e-18)[-1] + 1
        assert got.shape == (keep, len(times))
        assert np.max(np.abs(got - J[:keep])) <= 2.5e-16 * (1.0 + R)
    signs = (-1.0) ** np.arange(len(got))
    assert np.array_equal(got[:, 1], signs * got[:, 0])


IMPORTS_NO_SPECIAL = """
import sys
import numpy as np
import husimilab.cli
from husimilab import manybody as mb, meanfield as mf
from husimilab.grid import Potential, make_grid
grid = make_grid(M=16, L=8.0, hbar=0.5, N=2)
V = Potential.cosine(grid, [0.4, 0.15])
orbitals = mf.hermite_orbitals(grid, 2)
mb.propagate(mb.build_slater(grid, orbitals), V, 0.01, 3)
hf = mf.MeanFieldState(grid, np.array(orbitals))
mf.hartree_fock_evolve(hf, V, 0.01, 1)
print("scipy.special" in sys.modules)
"""


def test_propagation_and_hartree_fock_do_not_import_scipy_special():
    """In a fresh interpreter, since pytest's own imports of scipy would
    hide one: the CLI, an exact flow and an HF step leave scipy.special
    unloaded."""
    src = str(Path(mb.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", IMPORTS_NO_SPECIAL],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_propagate_ignores_the_global_rng(slater_n2):
    grid, _, state = slater_n2
    V = Potential.cosine(grid, [0.4, 0.15])
    np.random.seed(1)
    first = mb.propagate(state, V, 0.002, 100).coeffs
    np.random.seed(2)
    assert np.array_equal(mb.propagate(state, V, 0.002, 100).coeffs, first)


# ---------------------------------------------------------------------------
# gamma2 contractions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def slaters():
    """Slater states of complex orthonormal orbitals at N = 2 and N = 3.
    Complex orbitals make the one-body matrix non-symmetric, so a
    transposed contraction shows."""
    rng = np.random.default_rng(7)
    out = []
    for N in (2, 3):
        grid = make_grid(M=32, L=12.0, hbar=1.0 / N, N=N)
        q, _ = np.linalg.qr(rng.standard_normal((grid.M, N))
                            + 1j * rng.standard_normal((grid.M, N)))
        orbitals = [q[:, j] / np.sqrt(grid.dx) for j in range(N)]
        out.append((grid, orbitals, mb.build_slater(grid, orbitals)))
    return out


def test_gamma2_slater_closed_form_probes(slaters):
    """The y-diagonal of gamma2 at every point against the Slater closed
    form A[u,w,y] = om(u,w) om(y,y) - om(u,y) om(y,w), om = sum_j e_j e_j*."""
    for _, orbitals, state in slaters:
        om = sum(np.outer(e, np.conj(e)) for e in orbitals)
        got = go.gamma2_partial_diag(state)
        want = (np.einsum("uw,y->uwy", om, np.diag(om))
                - np.einsum("uy,yw->uwy", om, om))
        assert np.max(np.abs(got - want)) < 1e-10


def test_gamma2_partial_trace(slaters):
    """sum_y gamma2(u,y; w,y) dy = (N-1) gamma1(u; w)."""
    for grid, _, state in slaters:
        got = go.gamma2_partial_diag(state).sum(axis=2) * grid.dx
        kern = mb.gamma1(state)
        assert np.max(np.abs(got - (grid.N - 1) * kern.matrix)) < 1e-8


def test_gamma2_diag_blocks_refuses_one_particle():
    grid = make_grid(M=8, L=6.0, hbar=1.0, N=1)
    state = mb.build_slater(grid, [np.full(8, 1.0 / np.sqrt(6.0))])
    with pytest.raises(GridError, match="N >= 2"):
        mb.gamma2_diag_blocks(state)


def test_gamma2_antisymmetry():
    """On a random antisymmetric N = 3 state, not a Slater determinant,
    gamma2(u,y; w,y) vanishes at u = y and at w = y (Pauli) and is
    Hermitian in (u, w)."""
    grid = make_grid(M=8, L=6.0, hbar=1.0 / 3.0, N=3)
    rng = np.random.default_rng(8)
    psi = go.antisymmetrized(rng.standard_normal((8,) * 3)
                             + 1j * rng.standard_normal((8,) * 3))
    state = go.from_grid(grid, psi / np.sqrt(np.sum(np.abs(psi) ** 2)
                                             * grid.dx ** 3))
    A = go.gamma2_partial_diag(state)
    y = np.arange(grid.M)
    scale = np.max(np.abs(A))
    assert np.max(np.abs(A[y, :, y])) < 1e-14 * scale
    assert np.max(np.abs(A[:, y, y])) < 1e-14 * scale
    assert np.max(np.abs(A - A.conj().transpose(1, 0, 2))) < 1e-14 * scale


@pytest.mark.parametrize("N", [2, 3, 4])
def test_coefficient_kernels_match_grid_contractions(N):
    """gamma1, its time derivative, the y-diagonal of gamma2 and the
    energies read off the coefficients equal the contractions of the grid
    amplitudes, on a random antisymmetric state that is no Slater
    determinant."""
    grid = make_grid(M=8, L=6.0, hbar=1.0 / N, N=N)
    rng = np.random.default_rng(20 + N)
    psi = go.antisymmetrized(rng.standard_normal((8,) * N)
                             + 1j * rng.standard_normal((8,) * N))
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx ** N)
    state = go.from_grid(grid, psi)
    assert np.max(np.abs(state.to_grid() - psi)) < 1e-14 * np.max(np.abs(psi))
    V = Potential.cosine(grid, [0.4, 0.15])
    flow = mb.SlaterFlow(grid, V)
    mat = psi.reshape(grid.M, -1)
    xdot = (go.time_derivative(grid, psi, V).reshape(mat.shape)
            @ mat.conj().T * N * grid.dx ** (N - 1))
    kern, rate = mb.gamma1_and_rate(state, flow.time_derivative(state))
    assert np.array_equal(kern.matrix, mb.gamma1(state).matrix)
    for got, want in ((kern.matrix, go.gamma1(grid, psi)),
                      (rate, xdot + xdot.conj().T),
                      (go.gamma2_partial_diag(state),
                       go.partial_diag(grid, psi))):
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
    kinetic = go.kinetic_energy(grid, psi)
    want = kinetic + float(np.sum(go.pair_potential_table(grid, V)
                                  * np.abs(psi) ** 2) * grid.dx ** N)
    assert mb.kinetic_energy(state) == pytest.approx(kinetic, rel=1e-14)
    assert flow.energy(state) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# kinetic diagnostics
# ---------------------------------------------------------------------------

def test_kinetic_energy_matches_quadrature_oracle():
    grid = make_grid(M=128, L=16.0, hbar=0.5, N=1)
    width, x0, p0 = 0.9, 0.5, 0.7
    psi = mb.gaussian_orbital(grid, width=width, x0=x0, p0=p0)
    state = go.from_grid(grid, psi)
    # oracle: lattice quadrature of the closed-form gradient of the packet
    x = grid.axis_points()
    grad = psi * (-(x - x0) / width + 1j * p0 / grid.hbar)
    oracle = 0.5 * grid.hbar ** 2 * np.sum(np.abs(grad) ** 2) * grid.dx
    assert mb.kinetic_energy(state) == pytest.approx(oracle, rel=1e-8)


def test_time_derivative_matches_centered_difference_of_propagate(slater_n2):
    grid, _, state = slater_n2
    V = Potential.cosine(grid, [0.4, 0.15])
    h = 1e-4
    fd = (mb.propagate(state, V, h, 1).to_grid()
          - mb.propagate(state, V, -h, 1).to_grid()) / (2.0 * h)
    exact = go.time_derivative(grid, state.to_grid(), V)
    assert np.max(np.abs(fd - exact)) < 1e-6 * np.max(np.abs(exact))


def _flow_states(state, potential, dt, steps, every):
    """The state, then its exact flow at every `every`-th step of dt."""
    times = [dt * k for k in range(every, steps + 1, every)]
    flow = mb.SlaterFlow(state.grid, potential)
    return [state] + [mb.ManyBodyState(state.grid, c, state.time + t)
                      for c, t in zip(flow.evolve(state.coeffs, times),
                                      times)]


def test_free_kinetic_constant():
    grid = make_grid(M=64, L=12.0, hbar=0.5, N=2)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    V0 = Potential.zero(grid)
    report = mb.kinetic_bound_check(_flow_states(state, V0, 0.01, 40, 10),
                                    V0)
    assert report["fitted_C"] < 1e-8


def test_kinetic_growth_bound_interacting():
    grid = make_grid(M=64, L=12.0, hbar=0.5, N=2)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    states = _flow_states(state, V, 0.004, 250, 50)  # horizon t = 1
    report = mb.kinetic_bound_check(states, V)
    assert np.isfinite(report["fitted_C"])
    bound = 2.0 * report["grad_v_sup"] * report["p1_max"]
    assert report["fitted_C"] <= bound


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path, slater_n2):
    grid, _, state = slater_n2
    state = mb.propagate(state, Potential.cosine(grid, [0.4, 0.15]), 0.01, 3)
    path = tmp_path / "state.husi"
    io.write_state(path, state)
    back = io.read_state(path, L=grid.L)
    assert back.grid == grid
    assert np.array_equal(back.coeffs, state.coeffs)
    assert back.time == state.time
    assert path.stat().st_size == 32 + 16 * comb(grid.M, grid.N)
    assert io.HEADER.unpack(path.read_bytes()[:32])[1] == 2


def test_read_state_names_a_phase_space_field(tmp_path, slater_n2):
    grid, _, _ = slater_n2
    path = tmp_path / "husimi_mid.husi"
    io.write_field(path, np.ones((grid.M, grid.M)), grid)
    with pytest.raises(ValueError, match=r"version-1 snapshot: .*phase-space "
                                         r"field") as err:
        io.read_state(path, L=grid.L)
    assert "budget" not in str(err.value)


def test_read_state_refuses_a_version_1_grid_state(tmp_path, slater_n2):
    """A state file from before states were stored as coefficients: the
    header of version 1 and M^N grid amplitudes."""
    grid, _, state = slater_n2
    path = tmp_path / "state_final.husi"
    path.write_bytes(io.HEADER.pack(io.MAGIC, 1, 1, grid.M, grid.N, 0.0,
                                    grid.hbar)
                     + state.to_grid().astype("<c16").tobytes())
    with pytest.raises(ValueError, match=r"version-1 snapshot: .*M\^N grid "
                                         r"amplitudes.*re-run `husimilab "
                                         r"simulate` with the run's "
                                         r"config\.json"):
        io.read_state(path, L=grid.L)


def test_field_csv_matches_savetxt(tmp_path):
    rng = np.random.default_rng(3)
    qs = np.linspace(-6.0, 6.0, 64, endpoint=False)
    ps_ = np.linspace(-3.0, 3.0, 64, endpoint=False)
    values = rng.standard_normal((64, 64)) * 10.0 ** rng.integers(-300, 300,
                                                                  (64, 64))
    values[0, :3] = [0.0, -0.0, 1e-320]
    io.field_csv(tmp_path / "field.csv", qs, ps_, values)
    Q, P = np.meshgrid(qs, ps_, indexing="ij")
    np.savetxt(tmp_path / "want.csv",
               np.column_stack([Q.ravel(), P.ravel(), values.ravel()]),
               delimiter=",", header="q,p,value", comments="")
    assert ((tmp_path / "field.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def test_read_state_refuses_a_header_with_d_2(tmp_path, slater_n2):
    grid, _, state = slater_n2
    path = tmp_path / "state.husi"
    path.write_bytes(io.HEADER.pack(io.MAGIC, 2, 2, grid.M, 1, 0.0, grid.hbar)
                     + state.coeffs.astype("<c16").tobytes())
    with pytest.raises(ValueError, match="header has d=2"):
        io.read_state(path, L=grid.L)


def test_read_state_refuses_orbitals_and_truncated_files(tmp_path, slater_n2):
    grid, orbitals, state = slater_n2
    path = tmp_path / "hf_orbitals.husi"
    io.write_orbitals(path, np.array(orbitals), grid)
    with pytest.raises(ValueError, match=r"version-1 snapshot: mean-field "
                                         r"orbitals"):
        io.read_state(path, L=grid.L)
    path = tmp_path / "state.husi"
    io.write_state(path, state)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match=r"needs 2016 coefficients \(32256 "
                                         r"bytes\), found 32240 bytes; the "
                                         r"file is truncated"):
        io.read_state(path, L=grid.L)
