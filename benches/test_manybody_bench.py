"""Timings of the N-body kernels a `husimilab simulate` run calls:
`build_slater`, `gamma1`, `SlaterFlow.energy`, the flow's one Chebyshev
recurrence (`SlaterFlow.evolve` to the run's two stored times, t = 0.1
and 0.2) and the build of the Hamiltonian on the parity blocks of the
state (`SlaterFlow` and its first product with the state, which builds
them), at (N, M) = (3, 64) and (4, 32), the last two also for a
random-orbital state at (3, 64), which keeps both blocks; the residue
pass's w2-transform of the y-diagonal of gamma2
(`residues._gamma2_partial_hat`, over the blocks of
`manybody.gamma2_diag_blocks`) at (2, 64), (3, 64), (4, 32) and
(2, 256); the whole residue pass `residues.snapshot_residues` (gamma1
and its rate, the Husimi field and its rate, the residue fields and the
paired consistency defect) with the run's default test functions at
(2, 64) and (3, 64); and the Chebyshev coefficients `_jacobi_anger` of
an HF half kick and of the flow.
Hermite orbitals but for the random-orbital cases (seed 0), default
cosine V, L = 12, coupled line hbar = 1/N; the reduced density matrices
and the energy are taken on the state propagated to t = 0.1, the run's
residue snapshot, and `evolve` starts from the initial state.  The
energy and `evolve` are timed on a flow whose blocks are built
beforehand, as a run's N-body stage takes them from the flow of its
propagation.

    PYTHONPATH=src python -m pytest benches --benchmark-json=BENCH.json
"""

import numpy as np
import pytest

from husimilab import harness
from husimilab import manybody as mb
from husimilab import meanfield as mf
from husimilab import phasespace as ps
from husimilab import residues as rs
from husimilab.grid import make_grid

POINTS = [(3, 64), (4, 32)]


def _point(N, M):
    cfg = harness.RunConfig(N=N, M=M, hbar=1.0 / N)
    grid = make_grid(M=M, L=cfg.L, hbar=cfg.hbar, N=N)
    potential = harness.build_potential(grid, cfg.potential)
    orbitals = harness.build_orbitals(grid, "hermite", None)
    return cfg, grid, potential, orbitals


def _snapshot(N, M):
    cfg, grid, potential, orbitals = _point(N, M)
    state = mb.propagate(mb.build_slater(grid, orbitals), potential, cfg.dt,
                         round(0.5 * cfg.horizon / cfg.dt))
    return state, potential


@pytest.mark.parametrize("N, M", POINTS)
def test_build_slater(benchmark, N, M):
    _, grid, _, orbitals = _point(N, M)
    out = benchmark.pedantic(mb.build_slater, args=(grid, orbitals),
                             rounds=10, warmup_rounds=1)
    assert abs(out.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("N, M", POINTS)
def test_gamma1(benchmark, N, M):
    state, _ = _snapshot(N, M)
    out = benchmark.pedantic(mb.gamma1, args=(state,), rounds=10,
                             warmup_rounds=1)
    assert abs(out.trace() - N) < 1e-10


@pytest.mark.parametrize("N, M", [(2, 64), (3, 64), (4, 32), (2, 256)])
def test_gamma2_partial_hat(benchmark, N, M):
    state, potential = _snapshot(N, M)
    m, ks, _ = potential.modes()
    ks = ks[m > 0]
    out = benchmark.pedantic(rs._gamma2_partial_hat, args=(state, ks),
                             rounds=10, warmup_rounds=1)
    assert out.shape == (M, M, len(ks))


@pytest.mark.parametrize("N, M", [(2, 64), (3, 64)])
def test_snapshot_residues(benchmark, N, M):
    state, potential = _snapshot(N, M)
    adot = mb.SlaterFlow(state.grid, potential).time_derivative(state)
    cfg = harness.RunConfig()
    _, report = benchmark.pedantic(
        rs.snapshot_residues, args=(state, adot, ps.gaussian_frame(state.grid),
                                    potential, ps.natural_lattice(state.grid),
                                    cfg.phi_q, cfg.phi_p),
        rounds=10, warmup_rounds=1)
    assert report.consistency_defect_rel < 1e-12


@pytest.mark.parametrize("N, M", POINTS)
def test_total_energy(benchmark, N, M):
    state, potential = _snapshot(N, M)
    flow = mb.SlaterFlow(state.grid, potential)
    out = benchmark.pedantic(flow.energy, args=(state,), rounds=10,
                             warmup_rounds=1)
    assert out > 0


def _initial(N, M, family="hermite"):
    cfg, grid, potential, _ = _point(N, M)
    orbitals = harness.build_orbitals(grid, family, np.random.default_rng(0))
    return cfg, potential, mb.build_slater(grid, orbitals)


def _built_bounds(flow):
    """The Gershgorin bounds of each parity block the flow has built."""
    return [block.bounds for block in flow.blocks if block.H is not None]


# a random-orbital state keeps every piece of the split: both blocks
FLOW_CASES = [("hermite", 3, 64), ("hermite", 4, 32), ("random", 3, 64)]


@pytest.mark.parametrize("family, N, M", FLOW_CASES)
def test_slater_flow(benchmark, family, N, M):
    _, potential, state = _initial(N, M, family)

    def build():
        flow = mb.SlaterFlow(state.grid, potential)
        flow.apply(state.coeffs)  # builds the blocks of the state
        return flow

    flow = benchmark.pedantic(build, rounds=10, warmup_rounds=1)
    bounds = _built_bounds(flow)
    assert len(bounds) == (2 if family == "random" else 1)
    assert all(lo < hi for lo, hi in bounds)


@pytest.mark.parametrize("family, N, M", FLOW_CASES)
def test_evolve(benchmark, family, N, M):
    cfg, potential, state = _initial(N, M, family)
    flow = mb.SlaterFlow(state.grid, potential)
    flow.apply(state.coeffs)  # builds the blocks of the state
    out = benchmark.pedantic(flow.evolve, args=(
        state.coeffs, [0.5 * cfg.horizon, cfg.horizon]), rounds=10,
        warmup_rounds=1)
    assert abs(np.sqrt(mb._real_dot(out[-1], out[-1])) - 1.0) < 1e-10


def _hf_kick(N, M):
    """The arguments of the first half kick of a run's HF at (N, M): the
    Gershgorin bounds of the mean field of the Hermite orbitals, as
    `meanfield._apply_mean_field_exp` takes them, dt / 2 and hbar."""
    cfg, grid, potential, orbitals = _point(N, M)
    U = mf.mean_field_matrix(np.array(orbitals), potential)
    diag = U.diagonal()
    radius = np.sum(np.abs(U), axis=1) - np.abs(diag)
    return (float(np.min(diag.real - radius)),
            float(np.max(diag.real + radius)), 0.5 * cfg.dt, grid.hbar)


def _flow_times(N, M):
    """The arguments of the series of a run's one `SlaterFlow.evolve` at
    (N, M): the bounds of the parity block of the Hermite state and the
    two stored times, the residue snapshot and the horizon."""
    cfg, potential, state = _initial(N, M)
    flow = mb.SlaterFlow(state.grid, potential)
    flow.apply(state.coeffs)
    (bounds,) = _built_bounds(flow)
    return (*bounds, [0.5 * cfg.horizon, cfg.horizon], state.grid.hbar)


@pytest.mark.parametrize("kick", ["hf-2-64", "flow-3-64"])
def test_jacobi_anger(benchmark, kick):
    args = _hf_kick(2, 64) if kick == "hf-2-64" else _flow_times(3, 64)
    out = benchmark.pedantic(mb._jacobi_anger, args=args, rounds=10,
                             iterations=1000, warmup_rounds=1)
    assert abs(out[2][0, 0] + 2.0 * out[2][2::2, 0].sum() - 1.0) < 1e-14
