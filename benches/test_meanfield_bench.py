"""Timings of the effective dynamics of a `husimilab simulate` run: 100
`hartree_fock_step`s at (N, M) = (2, 64) and (3, 64), and 100
`vlasov_step`s at M = 64 and 256 (N = 2).  Hermite orbitals, default
cosine V, L = 12, coupled line hbar = 1/N.  The HF step is dt = 0.002;
the Vlasov datum is the Husimi field of the Slater state and its step
is chosen as the run chooses it, min(dt, 0.9 x the CFL limit).

    PYTHONPATH=src python -m pytest benches --benchmark-json=BENCH.json
"""

import numpy as np
import pytest

from husimilab import harness
from husimilab import manybody as mb
from husimilab import meanfield as mf
from husimilab import phasespace as ps
from husimilab.grid import make_grid

STEPS = 100


def _point(N, M):
    cfg = harness.RunConfig(N=N, M=M, hbar=1.0 / N)
    grid = make_grid(d=1, M=M, L=cfg.L, hbar=cfg.hbar, N=N)
    potential = harness.build_potential(grid, cfg.potential)
    orbitals = harness.build_orbitals(grid, "hermite", None)
    return cfg, grid, potential, orbitals


@pytest.mark.parametrize("N, M", [(2, 64), (3, 64)])
def test_hartree_fock_steps(benchmark, N, M):
    cfg, grid, potential, orbitals = _point(N, M)
    state = mf.MeanFieldState(grid, np.array(orbitals))
    out = benchmark.pedantic(mf.hartree_fock_evolve,
                             args=(state, potential, cfg.dt, STEPS),
                             rounds=10, warmup_rounds=1)
    assert out.time == pytest.approx(STEPS * cfg.dt)
    assert out.orthonormality_defect() < 1e-12


@pytest.mark.parametrize("M", [64, 256])
def test_vlasov_steps(benchmark, M):
    cfg, grid, potential, orbitals = _point(2, M)
    husimi = ps.husimi1(mb.gamma1(mb.build_slater(grid, orbitals)),
                        harness.build_frame(grid, cfg.frame))
    state = mf.vlasov_from_husimi(husimi, grid)
    dt = min(cfg.dt, 0.9 * mf.vlasov_cfl(state, potential, cfg.dt)
             ["suggested_dt"])
    out = benchmark.pedantic(mf.vlasov_evolve,
                             args=(state, potential, dt, STEPS),
                             rounds=10, warmup_rounds=1)
    assert abs(out.mass() - state.mass()) < 1e-10 * state.mass()
