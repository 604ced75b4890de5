"""Timings of the Fock-space checks: one `operator_inequality_suite(8, 200)`
(the `husimilab fock-check` default) and the cold build of the stacked
mode operators it uses at 8 modes.

    PYTHONPATH=src python -m pytest benches --benchmark-json=BENCH.json
"""

import numpy as np

from husimilab import fock

MODES = 8


def test_operator_inequality_suite(benchmark):
    out = benchmark.pedantic(
        lambda: fock.operator_inequality_suite(MODES, 200,
                                               np.random.default_rng(0)),
        rounds=10, warmup_rounds=1)
    assert max(out["max_lhs_over_rhs"].values()) <= 1.0 + 1e-10


def test_operator_build(benchmark):
    """The build that a process's first `quadratic_images` call at 8 modes
    pays: the operator caches are cleared before each round, untimed."""
    caches = (fock._jordan_wigner, fock._stacked, fock.mode_operators)

    def clear():
        for cached in caches:
            cached.cache_clear()

    down, up = benchmark.pedantic(lambda: fock._stacked(MODES), setup=clear,
                                  rounds=50, warmup_rounds=1)
    assert down.shape == (2 * MODES << MODES, 1 << MODES)
    assert up.shape == (3 << MODES, 2 * MODES << MODES)

