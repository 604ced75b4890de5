"""Periodic spatial discretization, potentials, and smooth test functions.

All modules share one convention set fixed here: a centered periodic box
[-L/2, L/2) with M points per axis, quadrature weight dx^d, spectral
differentiation through the FFT, and the hbar-scaled momentum lattice
p_k = 2*pi*hbar*k/L on which plane waves e^{i p x / hbar} are exactly
orthogonal under the lattice quadrature.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_BUDGET = 2 ** 26  # max amplitude count of an N-body array
BUDGET_ENV_VAR = "HUSIMI_LAB_BUDGET"


class GridError(ValueError):
    """Raised when a grid or potential violates its construction contract."""


def _active_budget(budget: int | None) -> int:
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        return int(env)
    return DEFAULT_BUDGET


@dataclass(frozen=True)
class GridSpec:
    """Periodic box discretization shared by every solver and transform.

    Immutable after construction; safe to share across parallel workers.
    """

    d: int
    M: int
    L: float
    hbar: float
    N: int

    @property
    def dx(self) -> float:
        return self.L / self.M

    @property
    def weight(self) -> float:
        """Quadrature weight of one spatial lattice cell, dx^d."""
        return self.dx ** self.d

    def axis_points(self) -> np.ndarray:
        """Lattice points of one axis, centered: x_i = -L/2 + i dx."""
        return -0.5 * self.L + self.dx * np.arange(self.M)

    def wavenumbers(self) -> np.ndarray:
        """FFT-ordered wavenumbers k_m = 2 pi m / L."""
        return 2.0 * np.pi * np.fft.fftfreq(self.M, d=self.dx)

    def momentum_lattice(self) -> np.ndarray:
        """FFT-ordered momenta p_m = hbar k_m = 2 pi hbar m / L."""
        return self.hbar * self.wavenumbers()


def make_grid(d: int = 1, M: int = 64, L: float = 2.0 * np.pi,
              hbar: float = 0.5, N: int = 1,
              budget: int | None = None) -> GridSpec:
    """Validate and build a GridSpec.

    M must be a power of two (FFT contract), hbar > 0, N >= 1, and the
    N-body amplitude count M^(dN) must fit the configured memory budget
    (default 2^26, overridable via the HUSIMI_LAB_BUDGET variable).
    """
    if M < 2 or (M & (M - 1)) != 0:
        raise GridError(f"M not power of two: M={M}")
    if L <= 0:
        raise GridError(f"L must be positive, got {L}")
    if hbar <= 0:
        raise GridError(f"hbar must be positive, got {hbar}")
    if d < 1 or N < 1:
        raise GridError(f"need d >= 1 and N >= 1, got d={d}, N={N}")
    limit = _active_budget(budget)
    count = M ** (d * N)
    if count > limit:
        raise GridError(
            f"amplitude budget exceeded: M^(d*N) = {M}^{d * N} = {count} "
            f"> {limit} (d={d}, N={N}, M={M})")
    return GridSpec(d=d, M=M, L=float(L), hbar=float(hbar), N=N)


def spectral_derivative(values: np.ndarray, L: float,
                        order: int = 1) -> np.ndarray:
    """Differentiate samples of a periodic function along its last axis
    through the FFT."""
    M = values.shape[-1]
    k = 2.0 * np.pi * np.fft.fftfreq(M, d=L / M)
    out = np.fft.ifft((1j * k) ** order * np.fft.fft(values))
    if np.isrealobj(values):
        return out.real
    return out


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


class Potential:
    """Even periodic interaction potential with spectral evaluation.

    Stores lattice samples, Fourier coefficients c_k (V(x) = sum c_k
    e^{i k x}), the gradient table, a rigorous bound on the second
    derivative, and the weighted coefficient sum sum_k (1+k^2)|c_k| that
    witnesses the regularity the estimates require.
    """

    def __init__(self, grid: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.M,):
            raise GridError("potential samples must live on the spatial grid")
        idx = np.arange(grid.M)
        even_defect = np.max(np.abs(values[(-idx) % grid.M] - values[idx]))
        if even_defect > 1e-12:
            raise GridError(
                f"potential is not even: max |V(-x) - V(x)| = {even_defect:.3e}")
        self.grid = grid
        self.values = values
        k = grid.wavenumbers()
        # coefficients with respect to absolute coordinates, so evaluation
        # at arbitrary (off-lattice) points is exact for band-limited V
        self.fourier = np.fft.fft(values) / grid.M * np.exp(1j * k * 0.5 * grid.L)
        self._k = k
        self.grad = spectral_derivative(values, grid.L)
        self.hess_bound = float(np.sum((k ** 2) * np.abs(self.fourier)))
        self.sobolev_sum = float(np.sum((1.0 + k ** 2) * np.abs(self.fourier)))

    def _active_modes(self) -> tuple[np.ndarray, np.ndarray]:
        mask = np.abs(self.fourier) > 1e-15
        return self._k[mask], self.fourier[mask]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate V at arbitrary points by Fourier synthesis."""
        k, c = self._active_modes()
        pts = np.asarray(points, dtype=float)
        out = np.tensordot(np.exp(1j * np.multiply.outer(pts, k)), c, axes=1)
        return out.real

    def evaluate_grad(self, points: np.ndarray) -> np.ndarray:
        k, c = self._active_modes()
        pts = np.asarray(points, dtype=float)
        out = np.tensordot(np.exp(1j * np.multiply.outer(pts, k)), 1j * k * c,
                           axes=1)
        return out.real

    def grad_sup(self) -> float:
        """Rigorous bound on ||dV/dx||_inf from the coefficient sum."""
        k, c = self._active_modes()
        return float(np.sum(np.abs(k) * np.abs(c)))

    # The grid starts at -L/2, so values[(i-j) % M] samples V at
    # x_{i-j} = (i-j) dx - L/2, not at the difference (i-j) dx.  All
    # difference lookups go through the centered accessors below.

    def centered_values(self) -> np.ndarray:
        """samples of V at the centered offsets: out[r] = V(r dx mod L)."""
        return np.roll(self.values, -(self.grid.M // 2))

    def centered_grad(self) -> np.ndarray:
        return np.roll(self.grad, -(self.grid.M // 2))

    @cached_property
    def centered_spectrum(self) -> np.ndarray:
        """fft(centered_values()), built once and read-only."""
        return _read_only(np.fft.fft(self.centered_values()))

    def difference_table(self) -> np.ndarray:
        """Vd[i, j] = V(x_i - x_j) on the lattice, built once and read-only."""
        return self._difference_tables[0]

    def grad_difference_table(self) -> np.ndarray:
        """V'(x_i - x_j) on the lattice, built once and read-only."""
        return self._difference_tables[1]

    @cached_property
    def _difference_tables(self) -> tuple[np.ndarray, np.ndarray]:
        idx = np.arange(self.grid.M)
        diff = (idx[:, None] - idx[None, :]) % self.grid.M
        return (_read_only(self.centered_values()[diff]),
                _read_only(self.centered_grad()[diff]))

    # -- presets ------------------------------------------------------------

    @classmethod
    def zero(cls, grid: GridSpec) -> "Potential":
        return cls(grid, np.zeros(grid.M))

    @classmethod
    def cosine(cls, grid: GridSpec, amplitudes) -> "Potential":
        """V(x) = sum_n a_n cos(2 pi n x / L); exactly band-limited."""
        x = grid.axis_points()
        vals = np.zeros(grid.M)
        for n, a in enumerate(np.atleast_1d(amplitudes), start=1):
            vals += a * np.cos(2.0 * np.pi * n * x / grid.L)
        return cls(grid, vals)

    @classmethod
    def gaussian_bump(cls, grid: GridSpec, amplitude: float = 1.0,
                      width: float = 1.0) -> "Potential":
        """Periodized Gaussian well/bump; smooth and rapidly band-limited."""
        x = grid.axis_points()
        vals = np.zeros(grid.M)
        for shift in range(-3, 4):
            vals += np.exp(-0.5 * ((x + shift * grid.L) / width) ** 2)
        return cls(grid, amplitude * vals)


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass
class TestFunction:
    """Compactly supported test function tabulated on a uniform 1-d lattice.

    `values` holds samples, `derivatives[k]` the k-th derivative table for
    k = 0 .. s+1.
    """

    lattice: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray

    @property
    def grad(self) -> np.ndarray:
        return self.derivatives[1]


def _check_support(lattice: np.ndarray, center: float, radius: float) -> None:
    if radius <= 0:
        raise GridError("test function radius must be positive")
    spacing = lattice[1] - lattice[0]
    lo, hi = lattice[0], lattice[-1] + spacing
    if center - radius <= lo or center + radius >= hi:
        raise GridError(
            f"support [{center - radius}, {center + radius}] crosses the "
            f"periodic boundary of [{lo}, {hi})")


def bump_test_function(lattice: np.ndarray, center: float, radius: float,
                       s: int = 1) -> TestFunction:
    """C-infinity bump exp(-1/(1-r^2)) with derivative tables.

    The bump is kept at its natural amplitude (value exp(-1) at the
    center).  Derivative tables up to order s+1 are the spectral
    derivatives of the sampled values; keeping them un-truncated outside
    the support preserves the exact lattice integration-by-parts identity
    the residue pairings rely on.
    """
    lattice = np.asarray(lattice, dtype=float)
    _check_support(lattice, center, radius)
    r2 = ((lattice - center) / radius) ** 2
    vals = np.zeros_like(r2)
    inside = r2 < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    spacing = lattice[1] - lattice[0]
    period = spacing * len(lattice)
    derivs = np.empty((s + 2, len(lattice)))
    derivs[0] = vals
    for k in range(1, s + 2):
        derivs[k] = spectral_derivative(vals, period, order=k)
    return TestFunction(lattice, vals, derivs)
