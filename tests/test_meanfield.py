import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.ndimage import map_coordinates

from husimilab import manybody as mb
from husimilab import meanfield as mf
from husimilab import phasespace as ps
from husimilab.grid import GridError, Potential, make_grid


# ---------------------------------------------------------------------------
# orbital families
# ---------------------------------------------------------------------------

def test_orbital_families_orthonormal():
    grid = make_grid(d=1, M=128, L=12.0, hbar=0.5, N=3)
    for family in (mf.plane_wave_orbitals(grid, 3),
                   mf.hermite_orbitals(grid, 3)):
        E = np.stack(family)
        gram = (np.conj(E) @ E.T) * grid.dx
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_commutator_norms_reported():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=2)
    for family in ("plane", "hermite"):
        orbs = (mf.plane_wave_orbitals(grid, 2) if family == "plane"
                else mf.hermite_orbitals(grid, 2))
        st = mf.MeanFieldState(grid, np.array(orbs))
        out = mf.commutator_norms(st.omega(), grid, [0.5, 1.0])
        assert np.isfinite(out["sup_weighted"])
        assert out["grad_commutator"] >= 0
        if family == "plane":
            # plane-wave projector commutes with the gradient exactly
            assert out["grad_commutator"] < 1e-10


# ---------------------------------------------------------------------------
# Hartree-Fock
# ---------------------------------------------------------------------------

def test_single_orbital_reduces_to_free_propagation():
    grid = make_grid(d=1, M=128, L=16.0, hbar=0.5, N=1)
    V = Potential.gaussian_bump(grid, 1.0, 1.2)
    width, x0, p0 = 0.6, -0.5, 0.3
    orb = mb.gaussian_orbital(grid, width=width, x0=x0, p0=p0)
    state = mf.MeanFieldState(grid, np.array([orb]))
    out = mf.hartree_fock_evolve(state, V, dt=0.01, steps=100)
    free = mb.free_gaussian_evolution(grid, width, x0, p0, 1.0)
    err = np.sqrt(np.sum(np.abs(out.orbitals[0] - free) ** 2) * grid.dx)
    assert err < 1e-8


def test_single_orbital_cancellation_random_initial():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=1)
    V = Potential.cosine(grid, [0.5, 0.2])
    rng = np.random.default_rng(0)
    for _ in range(10):
        raw = rng.standard_normal(grid.M) + 1j * rng.standard_normal(grid.M)
        orb = raw / np.sqrt(np.sum(np.abs(raw) ** 2) * grid.dx)
        state = mf.MeanFieldState(grid, np.array([orb]))
        U = mf.mean_field_matrix(state, V)
        assert np.linalg.norm(U @ orb) * np.sqrt(grid.dx) < 1e-8


def test_trace_conserved_over_thousand_steps():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=2)
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    state = mf.MeanFieldState(grid, np.array(mf.hermite_orbitals(grid, 2)))
    out = mf.hartree_fock_evolve(state, V, dt=0.001, steps=1000)
    assert abs(np.real(np.trace(out.omega())) * grid.dx - 2.0) < 1e-8
    assert out.orthonormality_defect() < 1e-8
    assert out.idempotency_defect() < 1e-8


def test_free_orbitals_match_dispersion():
    grid = make_grid(d=1, M=128, L=16.0, hbar=0.5, N=2)
    V = Potential.zero(grid)
    packets = ((0.7, -2.0, 0.4), (1.1, 2.0, -0.3))
    raw = np.stack([mb.gaussian_orbital(grid, width=w, x0=x0, p0=p0)
                    for w, x0, p0 in packets])
    # The packets overlap (|<e1, e2>| ~ 8e-3 on this box), and moving them
    # apart makes the closed form wrap at the box edges.  Lowdin-
    # orthonormalize instead: E = C raw with C = S^(-1/2) (transposed for
    # rows), and compare against the same combination of closed forms,
    # since the free flow is linear.
    S = (np.conj(raw) @ raw.T) * grid.dx
    evals, evecs = np.linalg.eigh(S)
    C = ((evecs * evals ** -0.5) @ evecs.conj().T).T
    E = C @ raw
    gram = (np.conj(E) @ E.T) * grid.dx
    assert np.max(np.abs(gram - np.eye(2))) < 1e-8
    state = mf.MeanFieldState(grid, E)
    out = mf.hartree_fock_evolve(state, V, dt=0.005, steps=100)
    free = C @ np.stack([mb.free_gaussian_evolution(grid, w, x0, p0, 0.5)
                         for w, x0, p0 in packets])
    for j in range(2):
        err = np.sqrt(np.sum(np.abs(out.orbitals[j] - free[j]) ** 2)
                      * grid.dx)
        assert err < 1e-7


def test_hf_energy_conserved():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=3)
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    state = mf.MeanFieldState(grid, np.array(mf.hermite_orbitals(grid, 3)))
    e0 = mf.hf_energy(state, V)
    out = mf.hartree_fock_evolve(state, V, dt=0.001, steps=1000)
    assert abs(mf.hf_energy(out, V) - e0) < 1e-5  # per unit time


def test_hf_step_second_order():
    """Halving dt cuts the change in omega by 4 (2 for a first-order step)."""
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=3)
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    state = mf.MeanFieldState(grid, np.array(mf.hermite_orbitals(grid, 3)))
    omegas = [mf.hartree_fock_evolve(state, V, 0.5 / n, n).omega()
              for n in (50, 100, 200)]
    coarse = np.max(np.abs(omegas[0] - omegas[1]))
    fine = np.max(np.abs(omegas[1] - omegas[2]))
    assert coarse / fine > 3.0


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("angle", [1e-3, 20.0])
def test_hf_kick_matches_expm(diagonal, angle):
    """The Chebyshev kick against the dense exponential, at dt ||U|| / hbar
    = `angle`.  A dense random U has Gershgorin bounds about six times its
    norm (6 and 138 series terms); a diagonally dominant one, like a mean
    field, has them near its spectrum (5 and 56 terms)."""
    rng = np.random.default_rng(7)
    M, hbar = 64, 0.5
    A = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    U = 0.5 * (A + A.conj().T)
    if diagonal:
        U = np.diag(rng.uniform(-1.0, 1.0, M)) + 1e-3 * U
    orbitals = rng.standard_normal((3, M)) + 1j * rng.standard_normal((3, M))
    dt = angle * hbar / np.linalg.norm(U, 2)
    got = mf._apply_mean_field_exp(U, orbitals, dt, hbar)
    want = (expm(-1j * dt * U / hbar) @ orbitals.T).T
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12


def test_hf_aborts_on_orthonormality_loss():
    grid = make_grid(d=1, M=32, L=8.0, hbar=0.5, N=2)
    V = Potential.zero(grid)
    orbs = np.array(mf.hermite_orbitals(grid, 2))
    orbs[1] *= 1.001  # corrupt normalization beyond the abort threshold
    state = mf.MeanFieldState(grid, orbs)
    with pytest.raises(mf.MeanFieldError, match="orthonormality"):
        mf.hartree_fock_step(state, V, 0.01)


# ---------------------------------------------------------------------------
# norm gaps
# ---------------------------------------------------------------------------

def test_norm_gaps_zero_for_identical():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=2)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    kern = mb.gamma1(state)
    hf = mf.MeanFieldState(grid, np.array(mf.hermite_orbitals(grid, 2)))
    hs, tr = mf.norm_gaps(kern, hf.omega_kernel())
    assert hs < 1e-10 and tr < 1e-10


def test_norm_gaps_rank_one_perturbation():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=2)
    hf = mf.MeanFieldState(grid, np.array(mf.hermite_orbitals(grid, 2)))
    kern = hf.omega_kernel()
    g = mb.gaussian_orbital(grid, width=0.33, x0=2.0)
    pert = mb.OneBodyKernel(kern.matrix + 0.25 * np.outer(g, np.conj(g)),
                            grid, 2.0)
    hs, tr = mf.norm_gaps(pert, kern)
    assert hs == pytest.approx(0.25, abs=1e-10)
    assert tr == pytest.approx(0.25, abs=1e-10)


def test_norm_gaps_interacting_reported():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=2)
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    orbs = mf.hermite_orbitals(grid, 2)
    many = mb.propagate(mb.build_slater(grid, orbs), V, 0.002, 250)
    hf = mf.hartree_fock_evolve(mf.MeanFieldState(grid, np.array(orbs)),
                                V, 0.002, 250)
    hs, tr = mf.norm_gaps(mb.gamma1(many), hf.omega_kernel())
    assert np.isfinite(hs) and np.isfinite(tr)
    assert 0 < hs <= tr
    assert tr / np.sqrt(grid.N) < np.inf


# ---------------------------------------------------------------------------
# Vlasov
# ---------------------------------------------------------------------------

@pytest.fixture()
def gaussian_blob():
    grid = make_grid(d=1, M=256, L=16.0, hbar=0.5, N=1)
    lattice = ps.natural_lattice(grid)
    Q, P = np.meshgrid(lattice.qs, lattice.ps, indexing="ij")
    vals = np.exp(-((Q + 2.0) ** 2 + (P - 1.0) ** 2) / (2.0 * 0.5))
    state = mf.VlasovState(lattice, vals, 0.0,
                           1.0 / (2.0 * np.pi * grid.hbar))
    return grid, state


def test_vlasov_free_transport(gaussian_blob):
    grid, state = gaussian_blob
    V0 = Potential.zero(grid)
    cfl = mf.vlasov_cfl(state, V0, 1.0)
    steps = int(np.ceil(1.0 / (0.9 * cfl["suggested_dt"])))
    out = mf.vlasov_evolve(state, V0, 1.0 / steps, steps)
    exact = mf.free_transport_exact(state, 1.0)
    l1 = np.sum(np.abs(out.values - exact)) * state.lattice.cell
    assert l1 < 1e-3
    assert abs(out.mass() - state.mass()) < 1e-8
    assert out.clipped_mass < 1e-8


def test_vlasov_mass_conserved_per_step(gaussian_blob):
    grid, state = gaussian_blob
    V = Potential.cosine(grid, [0.4])
    cfl = mf.vlasov_cfl(state, V, 1.0)
    dt = 0.5 * cfl["suggested_dt"]
    out = mf.vlasov_step(state, V, dt)
    assert abs(out.mass() - state.mass()) < 1e-8


def test_vlasov_cfl_refusal(gaussian_blob):
    grid, state = gaussian_blob
    V = Potential.cosine(grid, [0.4])
    with pytest.raises(mf.MeanFieldError, match="suggested dt"):
        mf.vlasov_step(state, V, dt=10.0)


def test_vlasov_cfl_checks_the_applied_kick():
    """Two beams meet head on, a quarter box apart, so the one mode of a
    cosine V sees almost no density at the start of the step and the
    start-of-step force passes the CFL bound.  After the half q-transport
    it does not: the kick the step would apply moves the p lines by about
    eight cells, and the step refuses it."""
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=1)
    lattice = ps.natural_lattice(grid)
    Q, P = np.meshgrid(lattice.qs, lattice.ps, indexing="ij")
    vals = (np.exp(-(Q + 3.0) ** 2 - (P - 2.0) ** 2)
            + np.exp(-(Q - 3.0) ** 2 - (P + 2.0) ** 2))
    state = mf.VlasovState(lattice, vals, 0.0,
                           1.0 / (2.0 * np.pi * grid.hbar))
    V = Potential.cosine(grid, [1e4])
    dt = 0.9 * lattice.dq / np.max(np.abs(lattice.ps))
    start = mf.vlasov_cfl(state, V, dt)
    assert start["ok"] and start["fmax"] * dt < 0.02 * lattice.dp
    with pytest.raises(mf.MeanFieldError, match="suggested dt"):
        mf.vlasov_step(state, V, dt)


@pytest.mark.parametrize("M", [64, 256])
def test_spline_shifts_match_map_coordinates(M):
    """Both DFT-multiplier shifts against scipy's periodic cubic spline."""
    rng = np.random.default_rng(M)
    vals = rng.random((M, M))
    shifts = rng.uniform(-3.0, 3.0, M)
    transfer = mf._shift_transfer(M, shifts)
    idx = np.arange(M)
    rows = np.broadcast_to(idx[:, None], (M, M))
    cols = np.broadcast_to(idx[None, :], (M, M))
    along_q = map_coordinates(vals, [rows - shifts[None, :], cols], order=3,
                              mode="grid-wrap")
    along_p = map_coordinates(vals, [rows, cols - shifts[:, None]], order=3,
                              mode="grid-wrap")
    for got, want in ((mf._shift_along_q(vals, transfer), along_q),
                      (mf._shift_along_p(vals, transfer), along_p)):
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-13


def test_vlasov_force_refuses_a_strided_lattice(gaussian_blob):
    grid, state = gaussian_blob
    lat = state.lattice
    strided = mf.VlasovState(ps.PhaseSpaceLattice(lat.qs[::2], lat.ps,
                                                  lat.hbar),
                             state.values[::2], 0.0, state.force_scale)
    with pytest.raises(GridError, match="M=256"):
        mf.vlasov_force(strided, Potential.cosine(grid, [0.4]))


def test_vlasov_energy_drift(gaussian_blob):
    grid, state = gaussian_blob
    V = Potential.cosine(grid, [0.4])
    cfl = mf.vlasov_cfl(state, V, 1.0)
    steps = int(np.ceil(0.5 / (0.9 * cfl["suggested_dt"])))
    e0 = mf.vlasov_energy(state, V)
    out = mf.vlasov_evolve(state, V, 0.5 / steps, steps)
    drift = abs(mf.vlasov_energy(out, V) - e0)
    assert drift / 0.5 < 1e-4  # per unit time


def test_vlasov_rotation_period_matches_characteristics():
    """Vlasov transport rotates phase space with the period of the
    characteristics of the frozen initial field.

    The force is purely self-consistent and V is even, so the well sits
    on the blob itself and total momentum is conserved: the blob's mean
    cannot orbit.  What rotates is its shape.  A compact blob with more
    momentum spread than the well holds breathes, and its q-variance
    oscillates at half the rotation period.  The oracle is the q-variance
    of the initial blob's lattice points carried along characteristics
    of the frozen initial force by a high-order ODE solver.  The frozen
    field is a fair oracle because V has a single Fourier mode, so the
    force depends on rho only through |rho_hat_1|, which the test checks
    stays within 5% of its initial value.
    """
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=1)
    lattice = ps.natural_lattice(grid)
    V = Potential.cosine(grid, [-1.2])  # attractive pair potential
    Q, P = np.meshgrid(lattice.qs, lattice.ps, indexing="ij")
    vals = 20.0 * np.exp(-(Q - 0.9) ** 2 / 0.18 - P ** 2 / 2.0)
    state = mf.VlasovState(lattice, vals, 0.0,
                           1.0 / (2.0 * np.pi * grid.hbar))

    def q_variance(q, weights):
        mean = np.sum(weights * q) / np.sum(weights)
        return np.sum(weights * (q - mean) ** 2) / np.sum(weights)

    def rho_hat_1(st):
        return abs(np.fft.fft(st.spatial_density())[1])

    def period(ts, var):
        """Time between the first two upward crossings of the mean."""
        dev = var - var.mean()
        i = np.nonzero((dev[:-1] < 0.0) & (dev[1:] >= 0.0))[0]
        up = ts[i] - dev[i] * (ts[i + 1] - ts[i]) / (dev[i + 1] - dev[i])
        assert len(up) >= 2
        return up[1] - up[0]

    cfl = mf.vlasov_cfl(state, V, 1.0)
    dt = 0.45 * cfl["suggested_dt"]
    cur = state
    times = [0.0]
    variances = [q_variance(Q, vals)]
    rho1 = [rho_hat_1(state)]
    while cur.time < 4.0:  # about two and a half breathing periods
        cur = mf.vlasov_step(cur, V, dt)
        times.append(cur.time)
        variances.append(q_variance(Q, cur.values))
        rho1.append(rho_hat_1(cur))
    times = np.array(times)
    assert np.max(np.abs(np.array(rho1) / rho1[0] - 1.0)) < 0.05

    force0 = mf.vlasov_force(state, V)
    keep = vals > 1e-8 * vals.max()
    weights = vals[keep]
    n = weights.size

    def rhs(t, y):
        return np.concatenate(
            [y[n:], np.interp(y[:n], lattice.qs, force0, period=grid.L)])

    sol = solve_ivp(rhs, [0.0, times[-1]], np.concatenate([Q[keep], P[keep]]),
                    t_eval=times, rtol=1e-9, atol=1e-11)
    oracle = np.array([q_variance(sol.y[:n, j], weights)
                       for j in range(len(times))])
    period_oracle = period(times, oracle)
    period_measured = period(times, np.array(variances))
    assert abs(period_measured - period_oracle) / period_oracle < 0.02


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distance_identical_fields():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=1)
    lattice = ps.natural_lattice(grid)
    Q, P = np.meshgrid(lattice.qs, lattice.ps, indexing="ij")
    m = np.exp(-(Q ** 2 + P ** 2))
    l1, w1, flag = mf.husimi_vlasov_distance(m, m, lattice)
    assert l1 == 0.0 and w1 == 0.0 and not flag


def test_distance_one_cell_shift():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=1)
    lattice = ps.natural_lattice(grid)
    Q, P = np.meshgrid(lattice.qs, lattice.ps, indexing="ij")
    m = np.exp(-(Q ** 2 + P ** 2))
    shifted = np.roll(m, 1, axis=0)
    _, w1, _ = mf.husimi_vlasov_distance(m, shifted, lattice)
    mass = np.sum(m) * lattice.cell
    assert w1 == pytest.approx(lattice.dq * mass, rel=1e-6)


def test_distance_renormalization_flag():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=1)
    lattice = ps.natural_lattice(grid)
    Q, P = np.meshgrid(lattice.qs, lattice.ps, indexing="ij")
    m = np.exp(-(Q ** 2 + P ** 2))
    l1, w1, flag = mf.husimi_vlasov_distance(m, 1.1 * m, lattice)
    assert flag
    assert l1 < 1e-12 and w1 < 1e-12  # identical after renormalization
