"""Effective dynamics: time-dependent Hartree-Fock and the Vlasov equation.

Hartree-Fock advances N orthonormal orbitals under the self-consistent
one-body Hamiltonian

    h[omega] = -(hbar^2/2) Laplacian + (V * rho) - X,
    rho(x) = omega(x; x)/N,   X(x; y) = V(x - y) omega(x; y) / N,

by Strang splitting (`hartree_fock_evolve`).  Each kick exp(-i dt U /
2 hbar) is applied to the N orbitals by `manybody.chebyshev_exp`, the
Chebyshev series that also drives the exact N-body flow, so no M x M
matrix is diagonalized.

The Vlasov solver (`vlasov_evolve`) is a Strang-split semi-Lagrangian
scheme on the phase-space lattice (Cheng & Knorr, J. Comput. Phys. 22
(1976) 330; Sonnendruecker et al., J. Comput. Phys. 149 (1999) 201) with
the self-consistent force

    F(q) = -c (dV/dq * rho)(q),     rho(q) = sum_p m dp,

where c = 1/(2 pi hbar N) (`phasespace.force_scale`) makes the equation
the exact residue-free limit of the reformulated phase-space identity
when the initial datum carries the Husimi normalization (it reduces to
the usual 1/(2 pi) under the coupling hbar = 1/N).  The Vlasov state is a
`PhaseSpaceField`: this force and the identity's mean-field term are
both `PhaseSpaceField.force`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from husimilab.grid import GridError, GridSpec, Potential, _read_only
from husimilab.manybody import OneBodyKernel, chebyshev_exp
from husimilab.phasespace import (PhaseSpaceField, PhaseSpaceLattice,
                                  force_scale)

HF_ABORT_TOL = 1e-6  # orthonormality defect at which an HF step aborts


class MeanFieldError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# orbital families
# ---------------------------------------------------------------------------

def plane_wave_orbitals(grid: GridSpec, N: int) -> list[np.ndarray]:
    """Lowest |k| plane waves e^{i k x}/sqrt(L); exactly orthonormal."""
    ks = sorted(grid.wavenumbers(), key=abs)[:N]
    x = grid.axis_points()
    return [np.exp(1j * k * x) / np.sqrt(grid.L) for k in ks]


def hermite_orbitals(grid: GridSpec, N: int) -> list[np.ndarray]:
    """Oscillator eigenfunctions at the semiclassical width sqrt(hbar).

    Orthonormality is re-imposed on the lattice by QR so downstream
    Slater construction sees an exactly orthonormal family.
    """
    x = grid.axis_points() / np.sqrt(grid.hbar)
    cols = []
    h_prev = np.zeros_like(x)
    h_cur = np.ones_like(x)
    for n in range(N):
        cols.append(h_cur * np.exp(-0.5 * x ** 2))
        h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * n * h_prev
    A = np.stack(cols, axis=1).astype(complex)
    Q, _ = np.linalg.qr(A)
    return [Q[:, j] / np.sqrt(grid.dx) for j in range(N)]


# ---------------------------------------------------------------------------
# Hartree-Fock
# ---------------------------------------------------------------------------

@dataclass
class MeanFieldState:
    grid: GridSpec
    orbitals: np.ndarray  # (N, M)
    time: float = 0.0

    def __post_init__(self):
        self.orbitals = np.asarray(self.orbitals, dtype=complex)

    def omega(self) -> np.ndarray:
        """omega(x; y) = sum_j e_j(x) conj(e_j(y))."""
        return self.orbitals.T @ np.conj(self.orbitals)

    def omega_kernel(self) -> OneBodyKernel:
        return OneBodyKernel(self.omega(), self.grid)

    def orthonormality_defect(self) -> float:
        return float(np.max(np.abs(_gram_gap(self.orbitals, self.grid.dx))))

    def idempotency_defect(self) -> float:
        """max |om om - om| for om = omega dx = E^T conj(E) dx, formed as
        E^T (G - I) conj(E) dx with no M x M x M product."""
        E = self.orbitals
        return float(np.max(np.abs(
            E.T @ (_gram_gap(E, self.grid.dx) @ np.conj(E)) * self.grid.dx)))


def _gram_gap(orbitals: np.ndarray, dx: float) -> np.ndarray:
    """G - I, G = conj(E) E^T dx the Gram matrix of the orbitals E."""
    gram = (np.conj(orbitals) @ orbitals.T) * dx
    return gram - np.eye(len(orbitals))


def mean_field_matrix(orbitals: np.ndarray,
                      potential: Potential) -> np.ndarray:
    """Direct-minus-exchange one-body matrix U = diag(V * rho) - X dx of
    the (N, M) orbital rows on the grid of `potential`.

    Built in one M x M buffer: the exchange product V_d o omega scaled by
    -dx/N, then the direct term V_d @ rho dx (the lattice convolution)
    added on the diagonal.
    """
    dx = potential.grid.dx
    N, M = orbitals.shape
    vdiff = potential.difference_table()
    U = orbitals.T @ (np.conj(orbitals) * (-dx / N))
    U *= vdiff
    rho = np.sum(orbitals.real ** 2 + orbitals.imag ** 2, axis=0)
    U.flat[::M + 1] += vdiff @ rho * (dx / N)
    return U


def _apply_mean_field_exp(U: np.ndarray, orbitals: np.ndarray,
                          dt: float, hbar: float) -> np.ndarray:
    """exp(-i dt U / hbar) applied to each orbital (row of `orbitals`):
    `chebyshev_exp` on the Gershgorin bounds of the Hermitian U, one
    (N x M) @ (M x M) product on the orbital rows per term; a half kick
    of dt = 0.001 takes about five.  The truncated series is unitary to
    rounding, so the kick keeps the orbitals orthonormal.
    """
    diag = U.diagonal()
    radius = np.abs(U).sum(axis=1) - np.abs(diag)
    (out,) = chebyshev_exp(lambda v: v @ U.T, float((diag.real - radius).min()),
                           float((diag.real + radius).max()), orbitals, [dt],
                           hbar)
    return out


def hartree_fock_evolve(state: MeanFieldState, potential: Potential,
                        dt: float, steps: int) -> MeanFieldState:
    """`steps` Strang steps of dt: half mean field, full kinetic, half
    mean field.

    The first half-kick freezes the mean field U(omega) of the orbitals
    at the start of the step.  The second freezes the field of a
    predicted endpoint: with psi' the orbitals after the kinetic step and
    U1 = U(psi'),

        g = psi' - i (dt / 2 hbar) U1 psi',
        psi_new = exp(-i U(g) dt / 2 hbar) psi'.

    Freezing the field at both ends of the step makes the scheme
    symmetric and second order; freezing the second half at U1 alone
    would make it first order.  A single orbital satisfies U1 psi' = 0
    exactly (the rank-1 direct/exchange cancellation), so g = psi', both
    kicks act as the identity and the orbital propagates freely to
    machine precision.  Each step forms three mean-field matrices and
    applies two Chebyshev kicks (`_apply_mean_field_exp`); the kinetic
    phase exp(-i dt hbar k^2 / 2) is built once per call.  A step whose
    orthonormality defect exceeds HF_ABORT_TOL raises MeanFieldError.
    """
    g = state.grid
    k = g.wavenumbers()
    kinetic = np.exp(-0.5j * dt * g.hbar * k ** 2)
    orb = state.orbitals
    for _ in range(steps):
        U0 = mean_field_matrix(orb, potential)
        orb = _apply_mean_field_exp(U0, orb, 0.5 * dt, g.hbar)
        orb = np.fft.fft(orb, axis=1)
        orb *= kinetic
        orb = np.fft.ifft(orb, axis=1)
        U1 = mean_field_matrix(orb, potential)
        predicted = orb - (0.5j * dt / g.hbar) * (orb @ U1.T)
        U2 = mean_field_matrix(predicted, potential)
        orb = _apply_mean_field_exp(U2, orb, 0.5 * dt, g.hbar)
        defect = float(np.max(np.abs(_gram_gap(orb, g.dx))))
        if defect > HF_ABORT_TOL:
            raise MeanFieldError(f"orthonormality defect {defect:.3e} "
                                 f"exceeds {HF_ABORT_TOL:.1e}")
    return MeanFieldState(g, orb, state.time + dt * steps)


def hf_energy(state: MeanFieldState, potential: Potential) -> float:
    """Kinetic + (direct - exchange)/2 energy; conserved by the exact flow.
    The pair half is (1/2) Re sum_j <e_j, U e_j> dx with U the one-body
    matrix of the HF step, `mean_field_matrix`."""
    g = state.grid
    k = g.wavenumbers()
    orb = state.orbitals
    kinetic = (0.5 * g.hbar ** 2
               * np.sum(k ** 2 * np.abs(np.fft.fft(orb, axis=1)) ** 2)
               * g.dx / g.M)
    U = mean_field_matrix(orb, potential)
    return float(kinetic + 0.5 * g.dx * np.vdot(orb, orb @ U.T).real)


# ---------------------------------------------------------------------------
# norm gaps and phase-space distances
# ---------------------------------------------------------------------------

def norm_gaps(gamma_kernel: OneBodyKernel, omega_kernel: OneBodyKernel):
    """(Hilbert-Schmidt, trace) norms of gamma - omega as operators."""
    if gamma_kernel.grid is not omega_kernel.grid and \
            gamma_kernel.grid != omega_kernel.grid:
        raise GridError("kernels live on different grids")
    diff = (gamma_kernel.matrix - omega_kernel.matrix) * gamma_kernel.grid.dx
    sv = np.linalg.svd(diff, compute_uv=False)
    return float(np.sqrt(np.sum(sv ** 2))), float(np.sum(sv))


def _marginal_w1(a: np.ndarray, b: np.ndarray, spacing: float) -> float:
    """1-d Wasserstein-1 via cumulative distributions on the lattice."""
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    return float(np.sum(np.abs(ca - cb)) * spacing)


def husimi_vlasov_distance(field_a: PhaseSpaceField,
                           field_b: PhaseSpaceField):
    """(L1 distance, marginal transport distance, renormalized flag) of
    two fields on the lattice of the first.

    The transport proxy is the sum of the exact 1-d Wasserstein-1
    distances of the q and p marginals, computed by cumulative
    distribution transport; a one-cell shift in q therefore costs exactly
    cell width x mass.  Fields whose masses differ by more than 1% are
    renormalized first and flagged.
    """
    lattice = field_a.lattice
    ma, mb = field_a.mass(), field_b.mass()
    flag = False
    a, b = field_a.values, field_b.values
    if ma > 0 and mb > 0 and abs(ma - mb) > 0.01 * max(ma, mb):
        a = a / ma
        b = b / mb
        flag = True
    l1 = float(np.sum(np.abs(a - b)) * lattice.cell)
    qa = a.sum(axis=1) * lattice.dp
    qb = b.sum(axis=1) * lattice.dp
    pa = a.sum(axis=0) * lattice.dq
    pb = b.sum(axis=0) * lattice.dq
    w1 = _marginal_w1(qa * lattice.dq, qb * lattice.dq, lattice.dq)
    w1 += _marginal_w1(pa * lattice.dp, pb * lattice.dp, lattice.dp)
    return l1, w1, flag


# ---------------------------------------------------------------------------
# Vlasov solver
# ---------------------------------------------------------------------------

@dataclass
class VlasovState(PhaseSpaceField):
    """A Vlasov density with its time and the mass its steps have
    clipped so far."""

    time: float = 0.0
    clipped_mass: float = 0.0


def vlasov_from_husimi(field: PhaseSpaceField) -> VlasovState:
    """Initial Vlasov datum: the one-particle Husimi field itself."""
    # a C-ordered copy: the q marginal then sums contiguous rows, so its
    # rounding does not depend on how the Husimi values were laid out
    return VlasovState(np.clip(field.values, 0.0, None).copy(),
                       field.lattice)


def vlasov_cfl(state: VlasovState, potential: Potential, dt: float) -> dict:
    fmax = float(np.max(np.abs(state.force(potential))))
    return _cfl(state.lattice, fmax, dt)


def _cfl(lat: PhaseSpaceLattice, fmax: float, dt: float) -> dict:
    """Whether the q-shift pmax dt and the p-shift fmax dt stay within
    one cell, and the largest dt for which both would."""
    pmax = float(np.max(np.abs(lat.ps)))
    q_ok = pmax * dt <= lat.dq + 1e-15
    p_ok = fmax * dt <= lat.dp + 1e-15
    sug = min(lat.dq / pmax if pmax > 0 else np.inf,
              lat.dp / fmax if fmax > 0 else np.inf)
    return {"ok": q_ok and p_ok, "suggested_dt": sug,
            "pmax": pmax, "fmax": fmax}


@lru_cache(maxsize=8)
def _spline_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-th roots of unity e^{-2 pi i m / n}, m = 0 .. n - 1, and the
    node phases over the prefilter, e^{-i k j} / B(k) for j = -1 .. 2 (one
    column each) at the rfft wavenumbers k; built once per n, read-only."""
    k = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    roots = np.exp(-2j * np.pi * np.arange(n) / n)
    nodes = (np.exp(-1j * k[:, None] * np.arange(-1, 3))
             / ((4.0 + 2.0 * np.cos(k)) / 6.0)[:, None])
    return _read_only(roots), _read_only(nodes)


def _shift_transfer(n: int, shifts: np.ndarray) -> np.ndarray:
    """rfft multipliers W_s(k) / B(k) of periodic cubic B-spline
    interpolation at x - s on n points (see `vlasov_evolve`), one column
    per shift s, in cells: the four B-spline weights of the fraction f
    through the node phases of `_spline_tables`, times e^{-i k floor(s)}
    from the roots of unity."""
    base = np.floor(shifts)
    f = shifts - base
    weights = np.stack([(1.0 - f) ** 3 / 6.0,
                        (3.0 * f ** 3 - 6.0 * f ** 2 + 4.0) / 6.0,
                        (-3.0 * f ** 3 + 3.0 * f ** 2 + 3.0 * f + 1.0) / 6.0,
                        f ** 3 / 6.0])
    roots, nodes = _spline_tables(n)
    turns = np.multiply.outer(np.arange(n // 2 + 1), base.astype(np.int64))
    out = roots[turns % n]
    out *= nodes @ weights
    return out


def _shift(values: np.ndarray, transfer: np.ndarray, axis: int) -> np.ndarray:
    """Each line along `axis` moved by its own shift s, periodic, for the
    `_shift_transfer` of the shifts s: out[:, b] = m(q - s_b, p_b) at
    axis 0 and out[a, :] = m(q_a, p - s_a) at axis 1."""
    spectrum = np.fft.rfft(values, axis=axis)
    spectrum *= np.moveaxis(transfer, 0, axis)
    return np.fft.irfft(spectrum, n=values.shape[axis], axis=axis)


def vlasov_evolve(state: VlasovState, potential: Potential, dt: float,
                  steps: int) -> VlasovState:
    """`steps` Strang steps of dt: half q-transport, full p-kick, half
    q-transport.

    Each split step moves every lattice line by one constant shift s (in
    cells), so periodic cubic B-spline interpolation at x - s is a DFT
    multiplier along the line: one rfft, then

        m_hat(k) -> m_hat(k) W_s(k) / B(k),   B(k) = (4 + 2 cos k) / 6,
        W_s(k) = sum_{j=-1..2} beta_3(j - f) e^{-i k (n + j)},

    then one irfft, with s = n + f, n = floor(s), beta_3 the cubic
    B-spline and k = 2 pi l/M.  1/B is the spline prefilter and W_s
    evaluates the spline at the four nodes n - 1 .. n + 2.  The B-spline
    partition of unity gives W_s(0) / B(0) = 1, so every shift keeps the
    mass of its line.  The two half q-transports of every step share one
    multiplier, built once per call.  The p axis is wrapped too, valid
    while the field vanishes near the p box edges.  One CFL check per
    step, after the half q-transport, guards both shifts: the q-shift
    pmax dt and the p-shift of the mid-step force, the one force of the
    step, whose fmax a refusal (MeanFieldError) names.  Negative
    overshoot is clipped at 0 and the clipped mass logged.
    """
    lat = state.lattice
    half_q = _shift_transfer(len(lat.qs), lat.ps * (0.5 * dt) / lat.dq)
    vals, clipped = state.values, state.clipped_mass
    for _ in range(steps):
        vals = _shift(vals, half_q, 0)
        force = PhaseSpaceField(vals, lat).force(potential)
        cfl = _cfl(lat, float(np.max(np.abs(force))), dt)
        if not cfl["ok"]:
            raise MeanFieldError(
                f"CFL violated (pmax={cfl['pmax']:.3g}, "
                f"fmax={cfl['fmax']:.3g}); "
                f"suggested dt <= {cfl['suggested_dt']:.3e}")
        kick = _shift_transfer(len(lat.ps), force * dt / lat.dp)
        vals = _shift(vals, kick, 1)
        vals = _shift(vals, half_q, 0)
        clipped += float(-np.sum(np.minimum(vals, 0.0)) * lat.cell)
        np.maximum(vals, 0.0, out=vals)
    return VlasovState(vals, lat, state.time + dt * steps, clipped)


def vlasov_energy(state: VlasovState, potential: Potential) -> float:
    """Kinetic p^2/2 moment plus the self-consistent pair energy."""
    lat = state.lattice
    kinetic = float(np.sum(state.values * (lat.ps ** 2)[None, :] / 2.0)
                    * lat.cell)
    rho = state.density()
    pair = (0.5 * force_scale(potential.grid)
            * float(rho @ potential.difference_table() @ rho) * lat.dq ** 2)
    return kinetic + pair


def free_transport_exact(initial: VlasovState, t: float) -> np.ndarray:
    """Method of characteristics for V = 0: m_t(q, p) = m_0(q - p t, p)."""
    lat = initial.lattice
    return _shift(initial.values,
                  _shift_transfer(len(lat.qs), lat.ps * t / lat.dq), 0)
