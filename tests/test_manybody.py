from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest
from scipy.linalg import expm

from husimilab import manybody as mb
from husimilab import meanfield as mf
from husimilab import snapshots as io
from husimilab.grid import BUDGET_ENV_VAR, GridError, Potential, make_grid


def _antisymmetrized(psi: np.ndarray) -> np.ndarray:
    """sum over sigma of sign(sigma) psi(x_sigma), for d = 1."""
    return sum(mb._perm_sign(p) * np.transpose(psi, p)
               for p in permutations(range(psi.ndim)))


def _strang(state, potential, dt: float, steps: int) -> np.ndarray:
    """Strang splitting, half kick, FFT kinetic step, half kick: the
    second-order oracle of the exact flow."""
    g = state.grid
    half_v = np.exp(-0.5j * dt * mb.pair_potential_table(g, potential)
                    / g.hbar)
    kinetic = np.exp(-0.5j * dt * g.hbar * sum(mb._axis_k2(g)))
    psi = state.psi
    for _ in range(steps):
        psi = half_v * np.fft.ifftn(kinetic * np.fft.fftn(half_v * psi))
    return psi


@pytest.fixture(scope="module")
def slater_n2():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=2)
    orbitals = mf.hermite_orbitals(grid, 2)
    return grid, orbitals, mb.build_slater(grid, orbitals)


def test_single_orbital_slater_is_the_orbital():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=1)
    orb = mb.gaussian_orbital(grid, width=0.8)
    state = mb.build_slater(grid, [orb])
    phase = state.psi[np.argmax(np.abs(orb))] / orb[np.argmax(np.abs(orb))]
    assert np.max(np.abs(state.psi - phase * orb)) < 1e-12


def test_slater_normalized_and_antisymmetric(slater_n2):
    _, _, state = slater_n2
    assert abs(state.norm() - 1.0) < 1e-12
    assert mb.antisymmetry_defect(state) < 1e-12


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
    grid = make_grid(d=1, M=32, L=8.0, hbar=0.5, N=2)
    e = mb.gaussian_orbital(grid, width=1.0)
    with pytest.raises(GridError, match="Gram defect"):
        mb.build_slater(grid, [e, 1.0001 * e])


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_zero_steps_is_identity(slater_n2):
    grid, _, state = slater_n2
    out = mb.propagate(state, Potential.zero(grid), dt=0.01, steps=0)
    assert np.array_equal(out.psi, state.psi)
    assert out.time == state.time


def test_free_gaussian_matches_closed_form():
    grid = make_grid(d=1, M=256, L=24.0, hbar=0.5, N=1)
    psi0 = mb.free_gaussian_evolution(grid, 1.0, -2.0, 0.8, 0.0)
    state = mb.ManyBodyState(grid, psi0.copy())
    out = mb.propagate(state, Potential.zero(grid), dt=0.005, steps=200)
    oracle = mb.free_gaussian_evolution(grid, 1.0, -2.0, 0.8, 1.0)
    err = np.sqrt(np.sum(np.abs(out.psi - oracle) ** 2) * grid.dx)
    assert err < 1e-6


def test_energy_and_norm_conserved_interacting(slater_n2):
    grid, _, state = slater_n2
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    e0 = mb.total_energy(state, V)
    out = mb.propagate(state, V, dt=1.0 / 1600, steps=1600)  # horizon t = 1
    assert abs(out.norm() - 1.0) < 1e-10
    assert abs(mb.total_energy(out, V) - e0) < 1e-8
    assert mb.antisymmetry_defect(out) < 1e-10


def test_nan_detection_reports_step():
    grid = make_grid(d=1, M=32, L=8.0, hbar=0.5, N=1)
    psi = mb.gaussian_orbital(grid, width=0.8)
    state = mb.ManyBodyState(grid, psi.copy())
    state.psi[3] = np.nan
    with pytest.raises(mb.PropagationError, match="non-finite input"):
        mb.propagate(state, Potential.zero(grid), dt=0.01, steps=20)


def test_nan_detection_through_merged_kicks_n3():
    grid = make_grid(d=1, M=32, L=8.0, hbar=1.0 / 3.0, N=3)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 3))
    state.psi[3, 7, 11] = np.nan
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    with pytest.raises(mb.PropagationError,
                       match="non-finite input amplitudes: 1 of 32768"):
        mb.propagate(state, V, dt=0.01, steps=20)


def test_non_antisymmetric_input_rejected(slater_n2):
    grid, _, state = slater_n2
    psi = state.psi.copy()
    worst = np.unravel_index(np.argmax(np.abs(psi)), psi.shape)
    psi[worst] = -psi[worst]
    with pytest.raises(GridError, match="not antisymmetric"):
        mb.propagate(mb.ManyBodyState(grid, psi), Potential.zero(grid),
                     0.01, 1)


def test_input_antisymmetric_in_one_pair_only_rejected():
    """Antisymmetric under swapping particles 1 and 2 but not 2 and 3: the
    input check, which tests adjacent swaps only, still refuses it."""
    grid = make_grid(d=1, M=16, L=12.0, hbar=1.0 / 3.0, N=3)
    orbs = mf.hermite_orbitals(grid, 3)
    pair = mb.build_slater(make_grid(d=1, M=16, L=12.0, hbar=1.0 / 3.0, N=2),
                           orbs[:2]).psi
    state = mb.ManyBodyState(grid, pair[:, :, None] * orbs[2][None, None, :])
    assert np.max(np.abs(np.swapaxes(state.psi, 0, 1) + state.psi)) == 0.0
    with pytest.raises(GridError, match="not antisymmetric"):
        mb.propagate(state, Potential.zero(grid), 0.01, 1)


def test_hamiltonian_over_budget_rejected(monkeypatch):
    grid = make_grid(d=1, M=32, L=12.0, hbar=1.0 / 3.0, N=3)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 3))
    V = Potential.cosine(grid, [0.4, 0.15])
    # C(32, 3) (1 + 3 * 4) = 64480 entries; the grid's 32^3 amplitudes fit
    monkeypatch.setenv(BUDGET_ENV_VAR, "50000")
    with pytest.raises(GridError,
                       match=r"64480 stored entries \(0\.7 MiB\).*M=16"):
        mb.propagate(state, V, 0.002, 10)


def test_negative_step_count_rejected(slater_n2):
    grid, _, state = slater_n2
    with pytest.raises(GridError, match="negative dt"):
        mb.propagate(state, Potential.zero(grid), dt=0.01, steps=-3)


@pytest.mark.parametrize("store_every", [0, -2])
def test_trajectory_rejects_store_every_below_one(slater_n2, store_every):
    grid, _, state = slater_n2
    with pytest.raises(GridError, match="store_every"):
        mb.propagate_trajectory(state, Potential.zero(grid), dt=0.01,
                                steps=40, store_every=store_every)


@pytest.mark.parametrize("dt", [0.03, -0.03])
@pytest.mark.parametrize("d, N, M", [(1, 1, 32), (1, 2, 16), (1, 3, 16),
                                     (2, 1, 16)])
def test_free_step_matches_fft_oracle(d, N, M, dt):
    """One free step is the FFT split-step kinetic flow on every axis."""
    grid = make_grid(d=d, M=M, L=6.0, hbar=0.5, N=N)
    rng = np.random.default_rng(11)
    shape = (M,) * (d * N)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if N > 1:
        psi = _antisymmetrized(psi)
    out = mb.propagate(mb.ManyBodyState(grid, psi.copy()),
                       Potential.zero(grid), dt, 1)
    k2 = grid.wavenumbers() ** 2
    total = np.zeros(shape)
    for a in range(d * N):
        total = total + k2.reshape([M if b == a else 1
                                    for b in range(d * N)])
    oracle = np.fft.ifftn(np.exp(-0.5j * dt * grid.hbar * total)
                          * np.fft.fftn(psi))
    assert np.max(np.abs(out.psi - oracle)) < 1e-13 * np.max(np.abs(oracle))
    assert out.time == pytest.approx(dt)


def test_strang_step_is_second_order(slater_n2):
    grid, _, state = slater_n2
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    horizon = 0.5
    ref = _strang(state, V, horizon / 800, 800)
    exact = mb.propagate(state, V, horizon, 1).psi
    strang = [_strang(state, V, horizon / n, n) for n in (25, 50, 100)]
    for target in (ref, exact):
        errs = [np.sqrt(np.sum(np.abs(psi - target) ** 2)
                        * grid.weight ** grid.N) for psi in strang]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.6 <= coarse / fine <= 4.4


@pytest.mark.parametrize("kind", ["cosine", "gaussian_bump"])
@pytest.mark.parametrize("N, hbar", [(2, 0.5), (3, 1.0 / 3.0)])
def test_hamiltonian_matches_time_derivative(N, hbar, kind):
    grid = make_grid(d=1, M=32, L=12.0, hbar=hbar, N=N)
    V = (Potential.cosine(grid, [0.4, 0.15]) if kind == "cosine"
         else Potential.gaussian_bump(grid, 0.8, 1.5))
    rng = np.random.default_rng(5)
    shape = (grid.M,) * N
    psi = _antisymmetrized(rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
    flow = mb._SlaterFlow(grid, V)
    c = flow.to_basis(psi)
    Hc = flow.H @ c.real + 1j * (flow.H @ c.imag)
    got = flow.to_grid(Hc, np.empty_like(psi)) / (1j * hbar)
    want = mb.time_derivative(mb.ManyBodyState(grid, psi), V)
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("t", [0.05, 3.0])
@pytest.mark.parametrize("N, M", [(2, 16), (3, 8)])
def test_propagate_matches_dense_exponential(N, M, t):
    """exp(t G) with G = `time_derivative` on the antisymmetric sector,
    assembled column by column on antisymmetrized position deltas."""
    grid = make_grid(d=1, M=M, L=6.0, hbar=0.5, N=N)
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    columns = []
    for x in combinations(range(M), N):
        delta = np.zeros((M,) * N, dtype=complex)
        delta[x] = 1.0 / np.sqrt(factorial(N))
        columns.append(_antisymmetrized(delta).ravel())
    B = np.array(columns).T  # orthonormal basis of the sector
    G = B.conj().T @ np.array([
        mb.time_derivative(mb.ManyBodyState(grid, b.reshape((M,) * N)),
                           V).ravel() for b in B.T]).T
    rng = np.random.default_rng(3)
    psi0 = B @ (rng.standard_normal(B.shape[1])
                + 1j * rng.standard_normal(B.shape[1]))
    want = B @ (expm(t * G) @ (B.conj().T @ psi0))
    got = mb.propagate(mb.ManyBodyState(grid, psi0.reshape((M,) * N)), V,
                       t / 2, 2)
    assert got.time == pytest.approx(t)
    assert (np.max(np.abs(got.psi.ravel() - want))
            < 1e-12 * np.max(np.abs(want)))


def test_propagate_ignores_the_global_rng(slater_n2):
    grid, _, state = slater_n2
    V = Potential.cosine(grid, [0.4, 0.15])
    np.random.seed(1)
    first = mb.propagate(state, V, 0.002, 100).psi
    np.random.seed(2)
    assert np.array_equal(mb.propagate(state, V, 0.002, 100).psi, first)


# ---------------------------------------------------------------------------
# gamma2 contractions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def slaters():
    """Slater states of complex orthonormal orbitals at N = 2 and N = 3;
    N = 3 runs the per-y loop branch of `partial_diag`.  Complex orbitals
    make the one-body matrix non-symmetric, so a transposed contraction
    shows."""
    rng = np.random.default_rng(7)
    out = []
    for N in (2, 3):
        grid = make_grid(d=1, M=32, L=12.0, hbar=1.0 / N, N=N)
        q, _ = np.linalg.qr(rng.standard_normal((grid.M, N))
                            + 1j * rng.standard_normal((grid.M, N)))
        orbitals = [q[:, j] / np.sqrt(grid.dx) for j in range(N)]
        out.append((grid, orbitals, mb.build_slater(grid, orbitals)))
    return out


def test_gamma2_slater_closed_form_probes(slaters):
    """partial_diag at every point against the Slater closed form
    A[u,w,y] = om(u,w) om(y,y) - om(u,y) om(y,w), om = sum_j e_j e_j*."""
    for _, orbitals, state in slaters:
        om = sum(np.outer(e, np.conj(e)) for e in orbitals)
        got = mb.Gamma2View(state).partial_diag()
        want = (np.einsum("uw,y->uwy", om, np.diag(om))
                - np.einsum("uy,yw->uwy", om, om))
        assert np.max(np.abs(got - want)) < 1e-10


def test_gamma2_partial_trace(slaters):
    """sum_y gamma2(u,y; w,y) dy = (N-1) gamma1(u; w)."""
    for grid, _, state in slaters:
        got = mb.Gamma2View(state).partial_diag().sum(axis=2) * grid.dx
        kern = mb.gamma1(state)
        assert np.max(np.abs(got - (grid.N - 1) * kern.matrix)) < 1e-8


def test_gamma2_antisymmetry():
    """On a random antisymmetric N = 3 state, not a Slater determinant,
    gamma2(u,y; w,y) vanishes at u = y and at w = y (Pauli) and is
    Hermitian in (u, w)."""
    grid = make_grid(d=1, M=8, L=6.0, hbar=1.0 / 3.0, N=3)
    rng = np.random.default_rng(8)
    psi = _antisymmetrized(rng.standard_normal((8,) * 3)
                           + 1j * rng.standard_normal((8,) * 3))
    state = mb.ManyBodyState(grid, psi / np.sqrt(np.sum(np.abs(psi) ** 2)
                                                 * grid.dx ** 3))
    A = mb.Gamma2View(state).partial_diag()
    y = np.arange(grid.M)
    scale = np.max(np.abs(A))
    assert np.max(np.abs(A[y, :, y])) < 1e-14 * scale
    assert np.max(np.abs(A[:, y, y])) < 1e-14 * scale
    assert np.max(np.abs(A - A.conj().transpose(1, 0, 2))) < 1e-14 * scale


# ---------------------------------------------------------------------------
# kinetic diagnostics
# ---------------------------------------------------------------------------

def test_kinetic_energy_matches_quadrature_oracle():
    grid = make_grid(d=1, M=128, L=16.0, hbar=0.5, N=1)
    width, x0, p0 = 0.9, 0.5, 0.7
    psi = mb.gaussian_orbital(grid, width=width, x0=x0, p0=p0)
    state = mb.ManyBodyState(grid, psi.copy())
    # oracle: lattice quadrature of the closed-form gradient of the packet
    x = grid.axis_points()
    grad = psi * (-(x - x0) / width + 1j * p0 / grid.hbar)
    oracle = 0.5 * grid.hbar ** 2 * np.sum(np.abs(grad) ** 2) * grid.dx
    assert mb.kinetic_energy(state) == pytest.approx(oracle, rel=1e-8)


def test_time_derivative_matches_centered_difference_of_propagate(slater_n2):
    grid, _, state = slater_n2
    V = Potential.cosine(grid, [0.4, 0.15])
    h = 1e-4
    fd = (mb.propagate(state, V, h, 1).psi
          - mb.propagate(state, V, -h, 1).psi) / (2.0 * h)
    exact = mb.time_derivative(state, V)
    assert np.max(np.abs(fd - exact)) < 1e-6 * np.max(np.abs(exact))


def test_free_kinetic_constant():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=2)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    V0 = Potential.zero(grid)
    traj = mb.propagate_trajectory(state, V0, dt=0.01, steps=40,
                                   store_every=10)
    report = mb.kinetic_bound_check(traj, V0)
    assert report["fitted_C"] < 1e-8


def test_kinetic_growth_bound_interacting():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=2)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    traj = mb.propagate_trajectory(state, V, dt=0.004, steps=250,
                                   store_every=50)  # horizon t = 1
    report = mb.kinetic_bound_check(traj, V)
    assert np.isfinite(report["fitted_C"])
    bound = 2.0 * report["grad_v_sup"] * report["p1_max"]
    assert report["fitted_C"] <= bound


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path, slater_n2):
    grid, _, state = slater_n2
    path = tmp_path / "state.husi"
    io.write_state(path, state)
    back = io.read_state(path, L=grid.L)
    assert back.grid == grid
    assert np.array_equal(back.psi, state.psi)
    assert back.time == state.time
    assert path.stat().st_size == 32 + 16 * grid.M ** grid.N


def test_read_state_refuses_orbitals_and_truncated_files(tmp_path, slater_n2):
    grid, orbitals, state = slater_n2
    path = tmp_path / "hf_orbitals.husi"
    io.write_orbitals(path, np.array(orbitals), grid)
    with pytest.raises(ValueError, match=r"needs 4096 amplitudes, found 128"
                                         r".*not an N-body state"):
        io.read_state(path, L=grid.L)
    path = tmp_path / "state.husi"
    io.write_state(path, state)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="needs 4096 amplitudes, found 4095"):
        io.read_state(path, L=grid.L)
