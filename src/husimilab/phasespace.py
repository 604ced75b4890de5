"""Coherent-state frames and phase-space transforms.

Conventions, on the one-dimensional grid, so one (q, p) pair per
particle:

* coherent state  f_qp(y) = w(y - q) e^{i p y / hbar} with the window w a
  normalized sample of f(./sqrt(hbar)) on the grid,
* Husimi          m(q, p) = <f_qp, gamma f_qp>, so that the canonical
  phase-space integral (2 pi hbar)^(-1) sum m dq dp equals Tr gamma = N
  exactly when (q, p) runs over the full grid x momentum lattice,
* Wigner          W(x, p) = (1/N) sum_y gamma(x + y/2; x - y/2)
  e^{-i p y / hbar} dy on the half-spaced momentum lattice pi hbar k / L,
  normalized so (2 pi hbar)^(-1) sum W dx dp = Tr gamma / N,
* bridge          m = W * G with the Gaussian window and
  G(q, p) = (pi hbar)^(-1) exp(-(q^2 + p^2)/hbar).

The Husimi field, the Wigner field (on its half-spaced lattice) and the
Vlasov density are each a `PhaseSpaceField`, with one mass, one q
marginal and one mean-field force.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from husimilab.grid import (GridError, GridSpec, Potential,
                            spectral_derivative)
from husimilab.manybody import OneBodyKernel


# ---------------------------------------------------------------------------
# lattices and frames
# ---------------------------------------------------------------------------

@dataclass
class PhaseSpaceLattice:
    qs: np.ndarray
    ps: np.ndarray
    hbar: float

    @property
    def dq(self) -> float:
        return float(self.qs[1] - self.qs[0])

    @property
    def dp(self) -> float:
        return float(self.ps[1] - self.ps[0])

    @property
    def cell(self) -> float:
        return self.dq * self.dp

    @property
    def canonical(self) -> float:
        """2 pi hbar, the phase-space cell of one quantum state."""
        return 2.0 * np.pi * self.hbar

    def undersampled(self) -> bool:
        scale = np.sqrt(self.hbar)
        return self.dq > scale or self.dp > scale


def natural_lattice(grid: GridSpec) -> PhaseSpaceLattice:
    """q on the spatial grid, p on the hbar-scaled momentum lattice.

    On this lattice coherent-state completeness is exact, which makes the
    marginal identities machine-precision statements.
    """
    lat = PhaseSpaceLattice(grid.axis_points(),
                            np.sort(grid.momentum_lattice()), grid.hbar)
    if lat.undersampled():
        warnings.warn("phase-space lattice coarser than sqrt(hbar); "
                      "transform undersampled", stacklevel=2)
    return lat


@dataclass
class CoherentFrame:
    """Window function of the coherent-state family on a grid.

    `window[r]` samples f(delta_r / sqrt(hbar)) at the centered lattice
    offset delta_r, normalized to unit lattice L2 norm.  `kind` is
    "gaussian" (the convolution-bridge window) or "bump" (compact support
    inside radius sqrt(hbar)).
    """

    grid: GridSpec
    window: np.ndarray
    kind: str

    def derivative_window(self) -> np.ndarray:
        return spectral_derivative(self.window, self.grid.L)


def _centered_offsets(grid: GridSpec) -> np.ndarray:
    r = np.arange(grid.M)
    return np.where(r < grid.M // 2, r, r - grid.M) * grid.dx


def _finish_frame(grid: GridSpec, raw: np.ndarray,
                  kind: str) -> CoherentFrame:
    norm = np.sqrt(np.sum(raw ** 2) * grid.dx)
    if norm == 0:
        raise GridError("window vanishes on the grid")
    return CoherentFrame(grid, raw / norm, kind)


def gaussian_frame(grid: GridSpec) -> CoherentFrame:
    """f(x) = pi^(-1/4) exp(-x^2 / 2); the window the bridge requires."""
    delta = _centered_offsets(grid)
    raw = np.exp(-delta ** 2 / (2.0 * grid.hbar))
    return _finish_frame(grid, raw, "gaussian")


def bump_frame(grid: GridSpec) -> CoherentFrame:
    """Compactly supported C-infinity window, support |x| < sqrt(hbar)."""
    delta = _centered_offsets(grid)
    r2 = (delta / np.sqrt(grid.hbar)) ** 2
    raw = np.zeros(grid.M)
    inside = r2 < 1.0
    raw[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return _finish_frame(grid, raw, "bump")


@dataclass
class PhaseSpaceField:
    """A real field m(q, p) on a phase-space lattice, q rows, p columns."""

    values: np.ndarray
    lattice: PhaseSpaceLattice

    def mass(self) -> float:
        return float(np.sum(self.values) * self.lattice.cell)

    def canonical_mass(self) -> float:
        """(2 pi hbar)^(-1) integral of the field."""
        return self.mass() / self.lattice.canonical

    def density(self) -> np.ndarray:
        """The q marginal rho(q) = sum_p m dp."""
        return self.values.sum(axis=1) * self.lattice.dp

    def force(self, potential: Potential) -> np.ndarray:
        """F(q) = -c (V' * rho)(q), the lattice convolution with the
        density, c = `force_scale` of the grid of V; the q lattice must
        be the unstrided grid of V."""
        lat = self.lattice
        if len(lat.qs) != potential.grid.M:
            raise GridError(f"phase-space q lattice has {len(lat.qs)} "
                            f"points; the force needs the unstrided grid of "
                            f"M={potential.grid.M}")
        gradv = potential.grad_difference_table()
        return -force_scale(potential.grid) * (gradv @ self.density()) * lat.dq


def force_scale(grid: GridSpec) -> float:
    """c = 1 / (2 pi hbar N), the scale of the mean-field force of a
    field with the Husimi normalization (`PhaseSpaceField.force`)."""
    return 1.0 / (grid.N * (2.0 * np.pi * grid.hbar))


# ---------------------------------------------------------------------------
# Husimi transform
# ---------------------------------------------------------------------------

def bilinear_phase_field(matrix: np.ndarray, wa: np.ndarray, wb: np.ndarray,
                         grid: GridSpec) -> np.ndarray:
    """B(q,p) = sum_{x,y} wa[x-q] K(x;y) wb[y-q] e^{i p (y-x)/hbar} dx^2.

    Complex field on the full natural lattice (q rows, ascending p
    columns), evaluated as a per-offset circular correlation over the
    window position followed by an FFT over the offset.  The Husimi
    transform is the real part with wa = wb = window; the residue fields
    reuse the same machinery with other window pairs and kernels.
    """
    M = grid.M
    i = np.arange(M)
    H = matrix[i[None, :], (i[None, :] + i[:, None]) % M] * grid.dx ** 2
    Wprod = wa[None, :] * wb[(i[None, :] + i[:, None]) % M]
    C = np.fft.ifft(np.fft.fft(H, axis=1)
                    * np.conj(np.fft.fft(Wprod, axis=1)), axis=1).T
    B = M * np.fft.ifft(C, axis=1)  # [jq, p in FFT order]
    return B[:, np.argsort(grid.momentum_lattice())]


def husimi1(kernel: OneBodyKernel, frame: CoherentFrame,
            lattice: PhaseSpaceLattice) -> PhaseSpaceField:
    """One-particle Husimi field on `lattice`, the natural lattice of the
    kernel's grid, via the two-FFT evaluation."""
    m = bilinear_phase_field(kernel.matrix, frame.window, frame.window,
                             kernel.grid).real
    return PhaseSpaceField(m, lattice)


def _coherent_state(frame: CoherentFrame, q: float, p) -> np.ndarray:
    """f_qp(x) = window(x - q) e^{i p x / hbar}; q must sit on the grid.

    For an array of momenta the result has one row per momentum.
    """
    g = frame.grid
    x = g.axis_points()
    jq = int(round((q - x[0]) / g.dx))
    if abs(q - (x[0] + jq * g.dx)) > 1e-9:
        raise GridError("q must lie on the spatial grid")
    return np.roll(frame.window, jq) * np.exp(
        1j * np.multiply.outer(p, x) / g.hbar)


def husimi1_direct(kernel: OneBodyKernel, frame: CoherentFrame,
                   lattice: PhaseSpaceLattice) -> PhaseSpaceField:
    """Slow direct quadratic form; the oracle for the FFT path."""
    vals = np.array([[husimi_point(kernel, frame, q, p) for p in lattice.ps]
                     for q in lattice.qs])
    return PhaseSpaceField(vals, lattice)


def husimi_point(kernel: OneBodyKernel, frame: CoherentFrame,
                 q: float, p: float) -> float:
    """Exact single-point evaluation; q must sit on the grid, p is free."""
    f = _coherent_state(frame, q, p)
    return float(np.real(np.vdot(f, kernel.matrix @ f) * kernel.grid.dx ** 2))


# ---------------------------------------------------------------------------
# Wigner transform and the convolution bridge
# ---------------------------------------------------------------------------

def wigner1(kernel: OneBodyKernel) -> PhaseSpaceField:
    """Wigner transform on the half-spaced momentum lattice pi hbar k / L.

    W(x, p) = (1/N) sum_j gamma(x + j dx; x - j dx) e^{-i p 2 j dx/hbar} 2 dx,
    real by Hermiticity of the kernel.
    """
    grid = kernel.grid
    M = grid.M
    i = np.arange(M)
    D = kernel.matrix[(i[None, :] + i[:, None]) % M,
                      (i[None, :] - i[:, None]) % M]  # [j, x]
    spectrum = np.fft.fft(D, axis=0) * 2.0 * grid.dx / grid.N
    ps = np.pi * grid.hbar * np.fft.fftfreq(M, d=1.0 / M) / grid.L
    order = np.argsort(ps)
    return PhaseSpaceField(spectrum[order].T.real, PhaseSpaceLattice(
        grid.axis_points(), ps[order], grid.hbar))


def gaussian_wigner_closed_form(qs, ps, width: float, x0: float, p0: float,
                                hbar: float) -> np.ndarray:
    """W of the width-a Gaussian packet: 2 exp(-(x-x0)^2/a - a (p-p0)^2/hbar^2)."""
    Q, P = np.meshgrid(qs, ps, indexing="ij")
    return 2.0 * np.exp(-((Q - x0) ** 2) / width
                        - width * (P - p0) ** 2 / hbar ** 2)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def moments(fld: PhaseSpaceField) -> tuple[float, float, float]:
    """(mass, |q| moment, |p|^2 moment) under the plain dq dp measure."""
    Q, P = np.meshgrid(fld.lattice.qs, fld.lattice.ps, indexing="ij")
    cell = fld.lattice.cell
    qmom = float(np.sum(np.abs(Q) * fld.values) * cell)
    p2mom = float(np.sum(P ** 2 * fld.values) * cell)
    return fld.mass(), qmom, p2mom


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def log_log_fit(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log y against log x, and its r^2."""
    lx, ly = np.log(xs), np.log(ys)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(res[0]) / ss_tot if res.size and ss_tot > 0 else 1.0
    return float(coef[0]), r2
