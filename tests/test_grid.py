import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from husimilab.grid import (GridError, Potential, bump_test_function,
                            make_grid, spectral_derivative)


def test_make_grid_basic():
    grid = make_grid(M=64, L=2.0 * np.pi, hbar=0.5, N=2)
    assert grid.dx == pytest.approx(2.0 * np.pi / 64)
    assert grid.dx * grid.M == pytest.approx(grid.L)


def test_make_grid_rejects_non_power_of_two():
    with pytest.raises(GridError, match="power of two"):
        make_grid(M=63)


def test_make_grid_rejects_budget():
    with pytest.raises(GridError, match="budget"):
        make_grid(M=4096, L=2.0 * np.pi, hbar=0.1, N=3, budget=2 ** 26)


def test_make_grid_refuses_a_second_dimension():
    with pytest.raises(GridError, match="one-dimensional: got d=2"):
        make_grid(d=2, M=16, L=6.0, hbar=0.5, N=1)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("HUSIMI_LAB_BUDGET", str(2 ** 12))
    with pytest.raises(GridError):
        make_grid(M=128, N=2)
    make_grid(M=64, N=2, budget=2 ** 20)  # explicit beats env


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=-32, max_value=31))
def test_spectral_derivative_of_lattice_plane_wave(mode):
    grid = make_grid(M=64, L=7.0, hbar=0.5)
    x = grid.axis_points()
    p = 2.0 * np.pi * grid.hbar * mode / grid.L
    wave = np.exp(1j * p * x / grid.hbar)
    deriv = spectral_derivative(wave, grid.L)
    assert np.max(np.abs(deriv - (1j * p / grid.hbar) * wave)) < 1e-10 * max(
        1.0, abs(p / grid.hbar))


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=-32, max_value=31))
def test_plane_wave_quadrature_orthogonality(mode):
    grid = make_grid(M=64, L=5.0, hbar=1.0)
    x = grid.axis_points()
    value = np.sum(np.exp(2j * np.pi * mode * x / grid.L)) * grid.dx
    expected = grid.L if mode == 0 else 0.0
    assert abs(value - expected) < 1e-10


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_potential_evenness_enforced():
    grid = make_grid(M=64, L=8.0)
    x = grid.axis_points()
    with pytest.raises(GridError, match="even"):
        Potential(grid, np.sin(2.0 * np.pi * x / grid.L))


def test_potential_spectral_evaluation_matches_samples():
    grid = make_grid(M=64, L=8.0)
    V = Potential.cosine(grid, [0.3, 0.2])
    x = grid.axis_points()
    assert np.max(np.abs(V.evaluate(x) - V.values)) < 1e-12
    # derivative against the closed form
    expect = (-0.3 * (2 * np.pi / grid.L) * np.sin(2 * np.pi * x / grid.L)
              - 0.2 * (4 * np.pi / grid.L) * np.sin(4 * np.pi * x / grid.L))
    assert np.max(np.abs(V.evaluate_grad(x) - expect)) < 1e-12


def test_potential_difference_table():
    grid = make_grid(M=32, L=8.0)
    V = Potential.gaussian_bump(grid, 0.7, 1.3)
    x = grid.axis_points()
    table = V.difference_table()
    direct = V.evaluate((x[:, None] - x[None, :]).reshape(-1)).reshape(32, 32)
    assert np.max(np.abs(table - direct)) < 1e-10
    gtable = V.grad_difference_table()
    gdirect = V.evaluate_grad((x[:, None] - x[None, :]).reshape(-1)).reshape(32, 32)
    assert np.max(np.abs(gtable - gdirect)) < 1e-10


def test_potential_regularity_witnesses():
    grid = make_grid(M=64, L=8.0)
    V = Potential.cosine(grid, [0.5])
    k1 = 2.0 * np.pi / grid.L
    assert V.grad_sup() == pytest.approx(k1 * 0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_bump_center_value_and_support():
    grid = make_grid(M=256, L=12.0)
    tf = bump_test_function(grid.axis_points(), center=0.0, radius=1.0, s=2)
    i0 = np.argmin(np.abs(tf.lattice))
    assert tf.values[i0] == pytest.approx(np.exp(-1.0), abs=1e-14)
    outside = np.abs(tf.lattice) >= 1.0
    assert np.all(tf.values[outside] == 0.0)


def _bump(p, radius):
    """exp(-1/(1-r^2)) with r = p / radius inside the support, else 0."""
    r2 = (np.asarray(p) / radius) ** 2
    return np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)),
                    0.0)


def test_bump_derivative_vs_central_differences():
    # central-difference oracle applied to the closed form at h << dx, so
    # the oracle error (h^2 f''' / 6 ~ 1e-9) stays far below the tolerance
    grid = make_grid(M=256, L=6.0)
    x = grid.axis_points()
    tf = bump_test_function(x, center=0.0, radius=2.9, s=2)
    h = 1e-5
    fd = (_bump(x + h, 2.9) - _bump(x - h, 2.9)) / (2.0 * h)
    assert np.max(np.abs(tf.grad - fd)) < 1e-6
    # tables are the spectral derivatives of the samples by construction
    from husimilab.grid import spectral_derivative
    second = spectral_derivative(tf.values, grid.L, order=2)
    assert np.max(np.abs(second - tf.derivatives[2])) < 1e-12


def test_bump_rejects_boundary_crossing():
    grid = make_grid(M=64, L=8.0)
    with pytest.raises(GridError, match="boundary"):
        bump_test_function(grid.axis_points(), center=3.5, radius=1.0, s=1)
