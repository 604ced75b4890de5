"""Timings of one `manybody.propagate` call: the N-body flow of a
`husimilab simulate` run (Hermite Slater state, default cosine V, horizon
0.2 in steps of 0.002) at (N, M) = (2, 64), (3, 64) and (4, 32), on the
coupled line hbar = 1/N with L = 12.  Each call builds its own H, as a
run's N-body stage does.

    PYTHONPATH=src python -m pytest benches --benchmark-json=BENCH.json

`pyproject.toml` names only `tests` in `testpaths`, so a plain
`python -m pytest` does not collect this directory.
"""

import pytest

from husimilab import harness
from husimilab import manybody as mb
from husimilab.grid import make_grid


@pytest.mark.parametrize("N, M", [(2, 64), (3, 64), (4, 32)])
def test_propagate(benchmark, N, M):
    cfg = harness.RunConfig(N=N, M=M, hbar=1.0 / N)
    grid = make_grid(M=M, L=cfg.L, hbar=cfg.hbar, N=N)
    potential = harness.build_potential(grid, cfg.potential)
    state = mb.build_slater(grid, harness.build_orbitals(grid, "hermite",
                                                         None))
    steps = round(cfg.horizon / cfg.dt)
    out = benchmark.pedantic(mb.propagate,
                             args=(state, potential, cfg.dt, steps),
                             rounds=10, warmup_rounds=1)
    assert out.time == pytest.approx(cfg.horizon)
    assert abs(out.norm() - 1.0) < 1e-10
