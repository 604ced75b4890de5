"""Coherent-state frames and phase-space transforms.

Conventions (d = 1 throughout the transforms; prefactors are written with
the general dimension d of the grid):

* coherent state  f_qp(y) = w(y - q) e^{i p y / hbar} with the window w a
  normalized sample of f(./sqrt(hbar)) on the grid,
* Husimi          m(q, p) = <f_qp, gamma f_qp>, so that the canonical
  phase-space integral (2 pi hbar)^(-d) sum m dq dp equals Tr gamma = N
  exactly when (q, p) runs over the full grid x momentum lattice,
* Wigner          W(x, p) = (1/N) sum_y gamma(x + y/2; x - y/2)
  e^{-i p y / hbar} dy on the half-spaced momentum lattice pi hbar k / L,
  normalized so (2 pi hbar)^(-d) sum W dx dp = Tr gamma / N,
* bridge          m = W * G with the Gaussian window and
  G(q, p) = (pi hbar)^(-d) exp(-(q^2 + p^2)/hbar).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from husimilab.grid import GridError, GridSpec, spectral_derivative
from husimilab.manybody import ManyBodyState, OneBodyKernel, gamma1


# ---------------------------------------------------------------------------
# lattices and frames
# ---------------------------------------------------------------------------

@dataclass
class PhaseSpaceLattice:
    qs: np.ndarray
    ps: np.ndarray
    hbar: float
    d: int = 1

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
        """(2 pi hbar)^d, the phase-space cell of one quantum state."""
        return (2.0 * np.pi * self.hbar) ** self.d

    def undersampled(self) -> bool:
        scale = np.sqrt(self.hbar)
        return self.dq > scale or self.dp > scale


def natural_lattice(grid: GridSpec) -> PhaseSpaceLattice:
    """q on the spatial grid, p on the hbar-scaled momentum lattice.

    On this lattice coherent-state completeness is exact, which makes the
    marginal identities machine-precision statements.
    """
    lat = PhaseSpaceLattice(grid.axis_points(),
                            np.sort(grid.momentum_lattice()), grid.hbar,
                            grid.d)
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
    norms: dict = field(default_factory=dict)

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
    w = raw / norm
    grad = spectral_derivative(w, grid.L)
    norms = {
        "l2": 1.0,
        "linf": float(np.max(np.abs(w))),
        "grad_l2": float(np.sqrt(np.sum(grad ** 2) * grid.dx)),
    }
    return CoherentFrame(grid, w, kind, norms)


def gaussian_frame(grid: GridSpec) -> CoherentFrame:
    """f(x) = pi^(-d/4) exp(-|x|^2 / 2); the window the bridge requires."""
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


# ---------------------------------------------------------------------------
# Husimi transform
# ---------------------------------------------------------------------------

@dataclass
class HusimiField:
    values: np.ndarray
    lattice: PhaseSpaceLattice

    def mass(self) -> float:
        return float(np.sum(self.values) * self.lattice.cell)

    def canonical_mass(self) -> float:
        """(2 pi hbar)^(-d) integral of the field."""
        return self.mass() / self.lattice.canonical


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


def husimi1(kernel: OneBodyKernel, frame: CoherentFrame) -> HusimiField:
    """One-particle Husimi field on the natural lattice via the two-FFT
    evaluation."""
    g = kernel.grid
    m = bilinear_phase_field(kernel.matrix, frame.window, frame.window, g).real
    return HusimiField(m, natural_lattice(g))


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
                   lattice: PhaseSpaceLattice) -> HusimiField:
    """Slow direct quadratic form; the oracle for the FFT path."""
    vals = np.array([[husimi_point(kernel, frame, q, p) for p in lattice.ps]
                     for q in lattice.qs])
    return HusimiField(vals, lattice)


def husimi_point(kernel: OneBodyKernel, frame: CoherentFrame,
                 q: float, p: float) -> float:
    """Exact single-point evaluation; q must sit on the grid, p is free."""
    f = _coherent_state(frame, q, p)
    return float(np.real(np.vdot(f, kernel.matrix @ f) * kernel.grid.dx ** 2))


# -- two-particle Husimi ------------------------------------------------------

def _coherent_matrix(frame: CoherentFrame,
                     lattice: PhaseSpaceLattice) -> np.ndarray:
    """F[x, (q, p)] = f_qp(x) for every lattice point, flattened q-major."""
    return np.concatenate([_coherent_state(frame, q, lattice.ps).T
                           for q in lattice.qs], axis=1)


def husimi2_full(state: ManyBodyState, frame: CoherentFrame,
                 lattice: PhaseSpaceLattice) -> np.ndarray:
    """Dense two-particle Husimi values m2[z1, z2] for an N = 2 state."""
    g = state.grid
    if g.N != 2:
        raise GridError("dense two-particle Husimi implemented for N = 2")
    F = _coherent_matrix(frame, lattice)
    c = F.T @ np.conj(state.psi) @ F * g.dx ** 2
    return 2.0 * np.abs(c) ** 2


def husimi2_point(state: ManyBodyState, frame: CoherentFrame,
                  z1, z2) -> float:
    """m2 at two phase-space points for N in {2, 3}."""
    g = state.grid
    f1, f2 = _coherent_state(frame, *z1), _coherent_state(frame, *z2)
    if g.N == 2:
        c = np.einsum("xy,x,y->", np.conj(state.psi), f1, f2) * g.dx ** 2
        return float(2.0 * abs(c) ** 2)
    if g.N == 3:
        c = np.einsum("xyr,x,y->r", np.conj(state.psi), f1, f2) * g.dx ** 2
        return float(6.0 * np.sum(np.abs(c) ** 2) * g.dx)
    raise GridError("two-particle Husimi points implemented for N <= 3")


def husimi2_marginal_check(state: ManyBodyState, frame: CoherentFrame,
                           rng: np.random.Generator, n_pairs: int = 50,
                           n_marginal: int = 20) -> dict:
    """Symmetry and marginalization diagnostics of the two-particle field.

    Uses the full natural lattice for the inner (q2, p2) sum, where
    coherent-state completeness is exact, so the marginal identity
    (2 pi hbar)^(-d) sum_{q2 p2} m2 dq2 dp2 = (N-1) m1 holds to roundoff.
    """
    g = state.grid
    m1 = husimi1(gamma1(state), frame)
    lattice = m1.lattice

    sym_defect = 0.0
    pts = list(zip(lattice.qs[rng.integers(0, len(lattice.qs), 2 * n_pairs)],
                   lattice.ps[rng.integers(0, len(lattice.ps), 2 * n_pairs)]))
    for a in range(n_pairs):
        z1, z2 = pts[2 * a], pts[2 * a + 1]
        v12 = husimi2_point(state, frame, z1, z2)
        v21 = husimi2_point(state, frame, z2, z1)
        sym_defect = max(sym_defect, abs(v12 - v21))

    marg_defect = 0.0
    total = None
    if g.N == 2:
        m2 = husimi2_full(state, frame, lattice)
        marg = m2.sum(axis=1) * lattice.cell / lattice.canonical
        m1_flat = m1.values.reshape(-1)
        marg_defect = float(np.max(np.abs(marg - (g.N - 1) * m1_flat)))
        total = float(m2.sum() * lattice.cell ** 2 / (2.0 * np.pi) ** (2 * g.d))
    else:
        qi = rng.integers(0, len(lattice.qs), n_marginal)
        pi = rng.integers(0, len(lattice.ps), n_marginal)
        F = _coherent_matrix(frame, lattice)
        for a in range(n_marginal):
            f1 = _coherent_state(frame, lattice.qs[qi[a]], lattice.ps[pi[a]])
            phi = np.einsum("xyr,x->yr", np.conj(state.psi), f1) * g.dx
            amp = phi.T @ F * g.dx  # [r, z2]
            m2_row = 6.0 * np.sum(np.abs(amp) ** 2, axis=0) * g.dx
            marg = float(np.sum(m2_row) * lattice.cell / lattice.canonical)
            ref = (g.N - 1) * m1.values[qi[a], pi[a]]
            marg_defect = max(marg_defect, abs(marg - ref))

    coupled = abs(g.hbar ** g.d * g.N - 1.0) < 1e-9
    return {
        "symmetry_defect": sym_defect,
        "marginal_defect": marg_defect,
        "coupled_preset": coupled,
        "total_mass_over_2pi": total,
        "expected_total_if_coupled": g.N * (g.N - 1) / g.N ** 2,
    }


# ---------------------------------------------------------------------------
# Wigner transform and the convolution bridge
# ---------------------------------------------------------------------------

@dataclass
class WignerField:
    values: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    hbar: float
    trace_target: float
    d: int = 1

    @property
    def dq(self) -> float:
        return float(self.qs[1] - self.qs[0])

    @property
    def dp(self) -> float:
        return float(self.ps[1] - self.ps[0])

    def mass(self) -> float:
        return float(np.sum(self.values) * self.dq * self.dp)

    def canonical_mass(self) -> float:
        return self.mass() / (2.0 * np.pi * self.hbar) ** self.d


def wigner1(kernel: OneBodyKernel, grid: GridSpec) -> WignerField:
    """Wigner transform on the half-spaced momentum lattice pi hbar k / L.

    W(x, p) = (1/N) sum_j gamma(x + j dx; x - j dx) e^{-i p 2 j dx/hbar} 2 dx,
    real by Hermiticity of the kernel.
    """
    M = grid.M
    i = np.arange(M)
    D = kernel.matrix[(i[None, :] + i[:, None]) % M,
                      (i[None, :] - i[:, None]) % M]  # [j, x]
    spectrum = np.fft.fft(D, axis=0) * 2.0 * grid.dx / kernel.trace_target
    ps = np.pi * grid.hbar * np.fft.fftfreq(M, d=1.0 / M) / grid.L
    order = np.argsort(ps)
    return WignerField(spectrum[order].T.real, grid.axis_points(), ps[order],
                       grid.hbar, kernel.trace_target, grid.d)


def wigner_position_marginal(wf: WignerField) -> np.ndarray:
    """N (2 pi hbar)^(-d) sum_p W dp; equals the density gamma(x; x)."""
    return (wf.values.sum(axis=1) * wf.dp * wf.trace_target
            / (2.0 * np.pi * wf.hbar) ** wf.d)


def gaussian_wigner_closed_form(qs, ps, width: float, x0: float, p0: float,
                                hbar: float) -> np.ndarray:
    """W of the width-a Gaussian packet: 2 exp(-(x-x0)^2/a - a (p-p0)^2/hbar^2)."""
    Q, P = np.meshgrid(qs, ps, indexing="ij")
    return 2.0 * np.exp(-((Q - x0) ** 2) / width
                        - width * (P - p0) ** 2 / hbar ** 2)


def convolution_bridge_check(wf: WignerField, kernel: OneBodyKernel,
                             frame: CoherentFrame) -> dict:
    """Max defect of  m = prefactor (W * G)  with the Gaussian smoothing.

    The convolution is a lattice quadrature on the lattice of `wf`, which
    may be a sublattice of the Wigner lattice; the Husimi side is
    evaluated exactly at the same points, so the defect isolates the
    quadrature error and shrinks superalgebraically as the lattice is
    refined.  Only the Gaussian window satisfies the identity; other
    frames are refused.
    """
    if frame.kind != "gaussian":
        raise GridError("convolution bridge requires the gaussian frame")
    g = kernel.grid
    N = kernel.trace_target
    qs, ps, W = wf.qs, wf.ps, wf.values
    dq, dp = wf.dq, wf.dp
    hbar = wf.hbar
    # separable Gaussian kernels; q wrapped over periodic images
    dq_mat = qs[:, None] - qs[None, :]
    gq = np.zeros_like(dq_mat)
    for shift in (-1, 0, 1):
        gq += np.exp(-((dq_mat + shift * g.L) ** 2) / hbar)
    gp = np.exp(-((ps[:, None] - ps[None, :]) ** 2) / hbar)
    conv = (gq @ W @ gp.T) * dq * dp / (np.pi * hbar) ** g.d
    prefactor = 1.0  # N (N-1) ... (N-k+1) / N^k at k = 1
    defect = 0.0
    for a, q in enumerate(qs):
        for b, p in enumerate(ps):
            m = husimi_point(kernel, frame, q, p)
            defect = max(defect, abs(m - prefactor * conv[a, b]))
    return {"max_defect": float(defect), "dq": dq, "dp": dp,
            "points": int(len(qs) * len(ps)), "n_particles": N}


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def moments(fld: HusimiField) -> tuple[float, float, float]:
    """(mass, |q| moment, |p|^2 moment) under the plain dq dp measure."""
    Q, P = np.meshgrid(fld.lattice.qs, fld.lattice.ps, indexing="ij")
    cell = fld.lattice.cell
    mass = float(np.sum(fld.values) * cell)
    qmom = float(np.sum(np.abs(Q) * fld.values) * cell)
    p2mom = float(np.sum(P ** 2 * fld.values) * cell)
    return mass, qmom, p2mom


def moment_growth_check(fields, times) -> dict:
    """Smallest C with (|q| + |p|^2) moment(t) <= C (1 + t^3)."""
    vals = []
    for fld in fields:
        _, qm, p2 = moments(fld)
        vals.append(qm + p2)
    cs = [v / (1.0 + t ** 3) for v, t in zip(vals, times)]
    C = max(cs)
    if not np.isfinite(C):
        raise GridError("moment growth unbounded on the horizon")
    return {"times": list(times), "moments": vals, "fitted_C": float(C)}


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


# ---------------------------------------------------------------------------
# localized number operator
# ---------------------------------------------------------------------------

def localized_number_check(kernel: OneBodyKernel, radius: float) -> dict:
    """Double integral of the density over balls |x - q| <= sqrt(hbar) R.

    Fubini makes it exactly (lattice ball volume) x N; the returned ratio
    to hbar^(-d/2) is the scale the localization bound controls.
    """
    g = kernel.grid
    delta = _centered_offsets(g)
    ball = np.sum(np.abs(delta) <= np.sqrt(g.hbar) * radius) * g.dx
    density = np.real(np.diag(kernel.matrix))
    value = float(ball * np.sum(density) * g.dx)
    return {
        "value": value,
        "ball_volume": float(ball),
        "ratio_to_scale": value * g.hbar ** (g.d / 2.0),
        "hbar": g.hbar,
    }
