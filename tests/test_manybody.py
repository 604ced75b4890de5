import numpy as np
import pytest

from husimilab import manybody as mb
from husimilab import meanfield as mf
from husimilab import snapshots as io
from husimilab.grid import GridError, Potential, make_grid


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
    with pytest.raises(mb.PropagationError, match="step"):
        mb.propagate(state, Potential.zero(grid), dt=0.01, steps=20)


def test_nan_detection_through_merged_kicks_n3():
    grid = make_grid(d=1, M=32, L=8.0, hbar=1.0 / 3.0, N=3)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 3))
    state.psi[3, 7, 11] = np.nan
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    with pytest.raises(mb.PropagationError, match="at step 16"):
        mb.propagate(state, V, dt=0.01, steps=20)


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
    ref = mb.propagate(state, V, horizon / 800, 800).psi
    errs = [np.sqrt(np.sum(np.abs(mb.propagate(state, V, horizon / n, n).psi
                                  - ref) ** 2) * grid.weight ** grid.N)
            for n in (25, 50, 100)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.4


def test_cfl_hint_reports_only():
    grid = make_grid(d=1, M=64, L=8.0, hbar=0.5, N=1)
    hint = mb.cfl_hint(grid, dt=1.0)
    assert not hint["within"]
    assert hint["dx2_over_hbar"] == pytest.approx(grid.dx ** 2 / grid.hbar)


# ---------------------------------------------------------------------------
# gamma2 contractions
# ---------------------------------------------------------------------------

def test_gamma2_slater_closed_form_probes(slater_n2):
    grid, orbitals, state = slater_n2
    om = sum(np.outer(e, np.conj(e)) for e in orbitals)
    view = mb.Gamma2View(state)
    rng = np.random.default_rng(7)
    u1, u2, w1, w2 = (rng.integers(0, grid.M, 1000) for _ in range(4))
    got = view.probe(u1, u2, w1, w2)
    want = om[u1, w1] * om[u2, w2] - om[u1, w2] * om[u2, w1]
    assert np.max(np.abs(got - want)) < 1e-10


def test_gamma2_partial_trace(slater_n2):
    grid, _, state = slater_n2
    view = mb.Gamma2View(state)
    kern = mb.gamma1(state)
    got = view.partial_trace_matrix()
    assert np.max(np.abs(got - (grid.N - 1) * kern.matrix)) < 1e-8


def test_gamma2_antisymmetry(slater_n2):
    grid, _, state = slater_n2
    rng = np.random.default_rng(8)
    u1, u2, w1, w2 = (rng.integers(0, grid.M, 200) for _ in range(4))
    a = mb.Gamma2View(state).probe(u1, u2, w1, w2)
    b = mb.Gamma2View(state).probe(u2, u1, w2, w1)
    assert np.max(np.abs(a - b)) < 1e-12  # simultaneous swap is even


def test_gamma2_dense_refused_for_large_grid(slater_n2):
    _, _, state = slater_n2
    with pytest.raises(MemoryError, match="MiB"):
        mb.Gamma2View(state).dense()


def test_gamma2_dense_matches_probes_small():
    grid = make_grid(d=1, M=16, L=10.0, hbar=0.5, N=2)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    dense = mb.Gamma2View(state).dense()
    rng = np.random.default_rng(9)
    u1, u2, w1, w2 = (rng.integers(0, 16, 100) for _ in range(4))
    probes = mb.Gamma2View(state).probe(u1, u2, w1, w2)
    assert np.max(np.abs(dense[u1, u2, w1, w2] - probes)) < 1e-12


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
