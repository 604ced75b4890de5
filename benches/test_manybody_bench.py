"""Timings of the N-body kernels a `husimilab simulate` run calls besides
its propagation: `build_slater`, `gamma1`, `SlaterFlow.energy` and the
build of the flow's Hamiltonian (`SlaterFlow`), at (N, M) = (3, 64) and
(4, 32); the residue pass's w2-transform of the y-diagonal of gamma2
(`residues._gamma2_partial_hat`, over the blocks of
`manybody.gamma2_diag_blocks`) at (2, 64), (3, 64), (4, 32) and
(2, 256); `antisymmetry_defect` at (3, 64) and (4, 32); and the Chebyshev
coefficients `_jacobi_anger` of an HF half kick and of the flow.
Hermite orbitals, default cosine V, L = 12, coupled line hbar = 1/N; the
reduced density matrices and the energy are taken on the state
propagated to t = 0.1, the run's residue snapshot.  The energy is timed on a flow built beforehand, as a run's
N-body stage takes it from the flow of its propagation.

    PYTHONPATH=src python -m pytest benches --benchmark-json=BENCH.json
"""

import numpy as np
import pytest

from husimilab import harness
from husimilab import manybody as mb
from husimilab import meanfield as mf
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
    ks, _ = potential._active_modes()
    ks = ks[np.abs(ks) > 0]
    out = benchmark.pedantic(rs._gamma2_partial_hat, args=(state, ks),
                             rounds=10, warmup_rounds=1)
    assert out.shape == (M, M, len(ks))


@pytest.mark.parametrize("N, M", POINTS)
def test_antisymmetry_defect(benchmark, N, M):
    state, _ = _snapshot(N, M)
    out = benchmark.pedantic(mb.antisymmetry_defect, args=(state,),
                             rounds=10, warmup_rounds=1)
    assert out < 1e-10


@pytest.mark.parametrize("N, M", POINTS)
def test_total_energy(benchmark, N, M):
    state, potential = _snapshot(N, M)
    flow = mb.SlaterFlow(state.grid, potential)
    out = benchmark.pedantic(flow.energy, args=(state,), rounds=10,
                             warmup_rounds=1)
    assert out > 0


@pytest.mark.parametrize("N, M", POINTS)
def test_slater_flow(benchmark, N, M):
    _, grid, potential, _ = _point(N, M)
    out = benchmark.pedantic(mb.SlaterFlow, args=(grid, potential),
                             rounds=10, warmup_rounds=1)
    assert out.bounds[0] < out.bounds[1]


def _hf_kick(N, M):
    """The arguments of the first half kick of a run's HF at (N, M): the
    Gershgorin bounds of the mean field of the Hermite orbitals, as
    `meanfield._apply_mean_field_exp` takes them, dt / 2 and hbar."""
    cfg, grid, potential, orbitals = _point(N, M)
    U = mf.mean_field_matrix(mf.MeanFieldState(grid, np.array(orbitals)),
                             potential)
    diag = U.diagonal()
    radius = np.sum(np.abs(U), axis=1) - np.abs(diag)
    return (float(np.min(diag.real - radius)),
            float(np.max(diag.real + radius)), 0.5 * cfg.dt, grid.hbar)


def _flow_times(N, M):
    """The arguments of a run's one `SlaterFlow.evolve` at (N, M): the
    flow's bounds and the two stored times, the residue snapshot and the
    horizon."""
    cfg, grid, potential, _ = _point(N, M)
    flow = mb.SlaterFlow(grid, potential)
    return (*flow.bounds, [0.5 * cfg.horizon, cfg.horizon], grid.hbar)


@pytest.mark.parametrize("kick", ["hf-2-64", "flow-3-64"])
def test_jacobi_anger(benchmark, kick):
    args = _hf_kick(2, 64) if kick == "hf-2-64" else _flow_times(3, 64)
    out = benchmark.pedantic(mb._jacobi_anger, args=args, rounds=10,
                             iterations=1000, warmup_rounds=1)
    assert abs(out[2][0, 0] + 2.0 * out[2][2::2, 0].sum() - 1.0) < 1e-14
