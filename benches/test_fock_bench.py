"""Timings of the Fock-space checks: one `operator_inequality_suite(8, 200)`
(the `husimilab fock-check` default), the cold build of the stacked mode
operators it uses at 8 modes, and 20 `wick_gap_bound_check` calls at 8
modes with N = 2, on random inputs drawn once from a fixed seed.

    PYTHONPATH=src python -m pytest benches --benchmark-json=BENCH.json
"""

import numpy as np

from husimilab import fock

MODES = 8


def _one_body(rng):
    return (rng.standard_normal((MODES, MODES))
            + 1j * rng.standard_normal((MODES, MODES)))


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


def test_wick_gap_bound_checks(benchmark):
    rng = np.random.default_rng(1)
    dim = 1 << MODES
    cases = []
    for _ in range(20):
        raw = (rng.standard_normal((MODES, 2))
               + 1j * rng.standard_normal((MODES, 2)))
        xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        xi /= np.linalg.norm(xi)
        cases.append((_one_body(rng), _one_body(rng), xi,
                      fock.BogoliubovMap(np.linalg.qr(raw)[0])))
    out = benchmark.pedantic(
        lambda: [fock.wick_gap_bound_check(*case) for case in cases],
        rounds=10, warmup_rounds=1)
    assert all(lhs <= rhs + 1e-10 for lhs, rhs in out)
