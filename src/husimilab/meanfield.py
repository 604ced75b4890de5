"""Effective dynamics: time-dependent Hartree-Fock and the Vlasov equation.

Hartree-Fock advances N orthonormal orbitals with Strang splitting of the
self-consistent one-body Hamiltonian

    h[omega] = -(hbar^2/2) Laplacian + (V * rho) - X,
    rho(x) = omega(x; x)/N,   X(x; y) = V(x - y) omega(x; y) / N,

where the first half-kick freezes the mean field of the state at the
start of the step and the second freezes the field of a predicted
endpoint (one explicit Euler half-kick from the state after the kinetic
step), which keeps the scheme symmetric and second order.  The kinetic
step is an FFT phase; each kick exp(-i dt U / 2 hbar) is applied to the
N orbitals by the Jacobi-Anger Chebyshev series that also drives the
exact N-body flow (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967),
so no M x M matrix is diagonalized.

The Vlasov solver is a Strang-split semi-Lagrangian scheme on the
phase-space lattice (Cheng & Knorr, J. Comput. Phys. 22 (1976) 330;
Sonnendruecker et al., J. Comput. Phys. 149 (1999) 201) with the
self-consistent force

    F(q) = -force_scale * (dV/dq * rho)(q),     rho(q) = sum_p m dp,

where force_scale = 1/(N (2 pi hbar)^d) makes the equation the exact
residue-free limit of the reformulated phase-space identity when the
initial datum carries the Husimi normalization (it reduces to the usual
1/(2 pi)^d under the coupling hbar^d = 1/N).  Each split step moves
every lattice line by one constant shift s (in cells), so periodic cubic
B-spline interpolation at x - s is a DFT multiplier along the line:

    m_hat(k) -> m_hat(k) W_s(k) / B(k),   B(k) = (4 + 2 cos k) / 6,
    W_s(k) = sum_{j=-1..2} beta_3(j - f) e^{-i k (n + j)},

with s = n + f, n = floor(s), beta_3 the cubic B-spline and k = 2 pi l/M.
1/B is the spline prefilter and W_s evaluates the spline at the four
nodes n - 1 .. n + 2.  The B-spline partition of unity gives
W_s(0) / B(0) = 1, so every shift keeps the mass of its line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from husimilab.grid import GridError, GridSpec, Potential
from husimilab.manybody import OneBodyKernel, _jacobi_anger
from husimilab.phasespace import HusimiField, PhaseSpaceLattice

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


def commutator_norms(kernel: np.ndarray, grid: GridSpec, p_values) -> dict:
    """Trace norms of [e^{ipx}, omega] and [hbar d/dx, omega].

    Diagnostics for the semiclassical structure of an initial one-body
    matrix; reported per momentum, no optimality claimed.
    """
    x = grid.axis_points()
    out = {}
    worst = 0.0
    for p in np.atleast_1d(p_values):
        phase = np.exp(1j * p * x)
        comm = phase[:, None] * kernel - kernel * phase[None, :]
        tr = float(np.sum(np.linalg.svd(comm * grid.dx, compute_uv=False)))
        out[float(p)] = tr
        worst = max(worst, tr / (1.0 + abs(p)))
    k = grid.wavenumbers()
    dmat = np.fft.ifft(np.fft.fft(kernel, axis=0) * (1j * k)[:, None], axis=0)
    dmat = dmat - np.fft.ifft(np.fft.fft(kernel, axis=1)
                              * (-1j * k)[None, :], axis=1)
    grad_comm = float(np.sum(np.linalg.svd(grid.hbar * dmat * grid.dx,
                                           compute_uv=False)))
    return {"exp_commutators": out, "sup_weighted": worst,
            "grad_commutator": grad_comm,
            "scale_N_hbar": grid.N * grid.hbar}


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
        return OneBodyKernel(self.omega(), self.grid,
                             float(self.orbitals.shape[0]))

    def density(self) -> np.ndarray:
        """rho(x) = omega(x; x)/N, unit mass under the lattice quadrature."""
        return np.sum(np.abs(self.orbitals) ** 2, axis=0) / len(self.orbitals)

    def orthonormality_defect(self) -> float:
        gram = (np.conj(self.orbitals) @ self.orbitals.T) * self.grid.weight
        return float(np.max(np.abs(gram - np.eye(len(self.orbitals)))))

    def idempotency_defect(self) -> float:
        om = self.omega() * self.grid.weight
        return float(np.max(np.abs(om @ om - om)))


def mean_field_matrix(state: MeanFieldState, potential: Potential) -> np.ndarray:
    """Direct-minus-exchange one-body matrix U = diag(V * rho) - X dx."""
    g = state.grid
    N = len(state.orbitals)
    rho = np.sum(np.abs(state.orbitals) ** 2, axis=0) / N
    direct = np.real(np.fft.ifft(potential.centered_spectrum
                                 * np.fft.fft(rho))) * g.dx
    exchange = potential.difference_table() * state.omega() / N
    return np.diag(direct) - exchange * g.dx


def _kinetic_step_factor(grid: GridSpec, dt: float) -> np.ndarray:
    k = grid.wavenumbers()
    return np.exp(-0.5j * dt * grid.hbar * k ** 2)


def _apply_mean_field_exp(U: np.ndarray, orbitals: np.ndarray,
                          dt: float, hbar: float) -> np.ndarray:
    """exp(-i dt U / hbar) applied to each orbital (row of `orbitals`).

    The Chebyshev series of `manybody._jacobi_anger` on the Gershgorin
    bounds of the Hermitian U, cut where |J_k| < 1e-18; each term is one
    (M x M) @ (M x N) product, and a half kick of dt = 0.001 takes about
    five.  The truncated series is unitary to rounding, so the kick keeps
    the orbitals orthonormal, and an orbital with U e = 0 (one orbital's
    direct/exchange cancellation) comes back unchanged.
    """
    diag = U.diagonal()
    radius = np.sum(np.abs(U), axis=1) - np.abs(diag)
    centre, a, J = _jacobi_anger(float(np.min(diag.real - radius)),
                                 float(np.max(diag.real + radius)), dt, hbar)
    prev, cur = None, orbitals.T
    out = J[0, 0] * cur
    for k in range(1, len(J)):
        nxt = a * (U @ cur - centre * cur)
        prev, cur = cur, (0.5 * nxt if k == 1 else nxt - prev)
        out += (2.0 * (-1j) ** k * J[k, 0]) * cur
    return (np.exp(-1j * dt * centre / hbar) * out).T


def hartree_fock_step(state: MeanFieldState, potential: Potential,
                      dt: float) -> MeanFieldState:
    """One Strang step: half mean field, full kinetic, half mean field.

    The first half-kick freezes the mean field U(omega) of the input
    state.  The second freezes the field of a predicted endpoint: with
    psi' the orbitals after the kinetic step and U1 = U(psi'),

        g = psi' - i (dt / 2 hbar) U1 psi',
        psi_new = exp(-i U(g) dt / 2 hbar) psi'.

    Freezing the field at both ends of the step makes the scheme
    symmetric and second order; freezing the second half at U1 alone
    would make it first order.  A single orbital
    satisfies U1 psi' = 0 exactly (the rank-1 direct/exchange
    cancellation), so g = psi', both kicks act as the identity and the
    orbital propagates freely to machine precision.  Each step forms
    three mean-field matrices and applies two Chebyshev kicks
    (`_apply_mean_field_exp`).
    """
    g = state.grid
    kin_full = _kinetic_step_factor(g, dt)
    U0 = mean_field_matrix(state, potential)
    orb = _apply_mean_field_exp(U0, state.orbitals, 0.5 * dt, g.hbar)
    orb = np.fft.ifft(kin_full * np.fft.fft(orb, axis=1), axis=1)
    U1 = mean_field_matrix(MeanFieldState(g, orb), potential)
    predicted = orb - (0.5j * dt / g.hbar) * (U1 @ orb.T).T
    U2 = mean_field_matrix(MeanFieldState(g, predicted), potential)
    orb = _apply_mean_field_exp(U2, orb, 0.5 * dt, g.hbar)
    new = MeanFieldState(g, orb, state.time + dt)
    defect = new.orthonormality_defect()
    if defect > HF_ABORT_TOL:
        raise MeanFieldError(
            f"orthonormality defect {defect:.3e} exceeds {HF_ABORT_TOL:.1e}")
    return new


def hartree_fock_evolve(state: MeanFieldState, potential: Potential,
                        dt: float, steps: int) -> MeanFieldState:
    cur = state
    for _ in range(steps):
        cur = hartree_fock_step(cur, potential, dt)
    return cur


def hf_energy(state: MeanFieldState, potential: Potential) -> float:
    """Kinetic + (direct - exchange)/2 energy; conserved by the exact flow."""
    g = state.grid
    k = g.wavenumbers()
    orb_hat = np.fft.fft(state.orbitals, axis=1)
    kinetic = (0.5 * g.hbar ** 2
               * np.sum(k ** 2 * np.abs(orb_hat) ** 2) * g.dx / g.M)
    N = len(state.orbitals)
    omega = state.omega()
    rho_raw = np.real(np.diag(omega))  # omega(x;x), mass N
    vdiff = potential.difference_table()
    direct = 0.5 / N * float(rho_raw @ vdiff @ rho_raw) * g.dx ** 2
    exchange = 0.5 / N * float(np.sum(vdiff * np.abs(omega) ** 2)) * g.dx ** 2
    return float(kinetic + direct - exchange)


# ---------------------------------------------------------------------------
# norm gaps and phase-space distances
# ---------------------------------------------------------------------------

def norm_gaps(gamma_kernel: OneBodyKernel, omega_kernel: OneBodyKernel):
    """(Hilbert-Schmidt, trace) norms of gamma - omega as operators."""
    if gamma_kernel.grid is not omega_kernel.grid and \
            gamma_kernel.grid != omega_kernel.grid:
        raise GridError("kernels live on different grids")
    diff = (gamma_kernel.matrix - omega_kernel.matrix) * gamma_kernel.grid.weight
    sv = np.linalg.svd(diff, compute_uv=False)
    return float(np.sqrt(np.sum(sv ** 2))), float(np.sum(sv))


def _marginal_w1(a: np.ndarray, b: np.ndarray, spacing: float) -> float:
    """1-d Wasserstein-1 via cumulative distributions on the lattice."""
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    return float(np.sum(np.abs(ca - cb)) * spacing)


def husimi_vlasov_distance(a_values: np.ndarray, b_values: np.ndarray,
                           lattice: PhaseSpaceLattice):
    """(L1 distance, marginal transport distance, renormalized flag).

    The transport proxy is the sum of the exact 1-d Wasserstein-1
    distances of the q and p marginals, computed by cumulative
    distribution transport; a one-cell shift in q therefore costs exactly
    cell width x mass.  Fields whose masses differ by more than 1% are
    renormalized first and flagged.
    """
    cell = lattice.cell
    ma = float(np.sum(a_values) * cell)
    mb = float(np.sum(b_values) * cell)
    flag = False
    a, b = a_values, b_values
    if ma > 0 and mb > 0 and abs(ma - mb) > 0.01 * max(ma, mb):
        a = a / ma
        b = b / mb
        flag = True
    l1 = float(np.sum(np.abs(a - b)) * cell)
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
class VlasovState:
    lattice: PhaseSpaceLattice
    values: np.ndarray
    time: float = 0.0
    force_scale: float = 1.0
    clipped_mass: float = 0.0

    def mass(self) -> float:
        return float(np.sum(self.values) * self.lattice.cell)

    def spatial_density(self) -> np.ndarray:
        """rho(q) = sum_p m dp."""
        return self.values.sum(axis=1) * self.lattice.dp


def vlasov_from_husimi(field: HusimiField, grid: GridSpec) -> VlasovState:
    """Initial Vlasov datum: the one-particle Husimi field itself."""
    scale = 1.0 / (grid.N * (2.0 * np.pi * grid.hbar) ** grid.d)
    return VlasovState(field.lattice, np.clip(field.values, 0.0, None).copy(),
                       0.0, scale)


def vlasov_force(state: VlasovState, potential: Potential) -> np.ndarray:
    """F(q) = -force_scale (V' * rho)(q) on the unstrided natural lattice."""
    lat = state.lattice
    if len(lat.qs) != potential.grid.M:
        raise GridError(f"Vlasov q lattice has {len(lat.qs)} points; the "
                        f"force needs the unstrided grid of M="
                        f"{potential.grid.M}")
    gradv = potential.grad_difference_table()
    return -state.force_scale * (gradv @ state.spatial_density()) * lat.dq


def vlasov_cfl(state: VlasovState, potential: Potential, dt: float) -> dict:
    fmax = float(np.max(np.abs(vlasov_force(state, potential))))
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


def _require_cfl(lat: PhaseSpaceLattice, fmax: float, dt: float) -> None:
    cfl = _cfl(lat, fmax, dt)
    if not cfl["ok"]:
        raise MeanFieldError(
            f"CFL violated (pmax={cfl['pmax']:.3g}, fmax={cfl['fmax']:.3g}); "
            f"suggested dt <= {cfl['suggested_dt']:.3e}")


def _shift_transfer(n: int, shifts: np.ndarray) -> np.ndarray:
    """rfft multipliers W_s(k) / B(k) of periodic cubic B-spline
    interpolation at x - s on n points (see the module docstring), one
    column per shift s, in cells."""
    base = np.floor(shifts)
    f = shifts - base
    weights = [(1.0 - f) ** 3 / 6.0, (3.0 * f ** 3 - 6.0 * f ** 2 + 4.0) / 6.0,
               (-3.0 * f ** 3 + 3.0 * f ** 2 + 3.0 * f + 1.0) / 6.0,
               f ** 3 / 6.0]
    # W_s is the DFT of the four weights placed at nodes floor(s) - 1 .. + 2
    stencil = np.zeros((n, len(shifts)))
    cols = np.arange(len(shifts))
    for j, w in zip(range(-1, 3), weights):
        stencil[(base.astype(np.int64) + j) % n, cols] = w
    k = 2.0 * np.pi * np.arange(n // 2 + 1)[:, None] / n
    return np.fft.rfft(stencil, axis=0) / ((4.0 + 2.0 * np.cos(k)) / 6.0)


def _shift_along_q(values: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """out[:, b] = m(q - s_b, p_b), periodic, for the `_shift_transfer`
    of the shifts s."""
    return np.fft.irfft(np.fft.rfft(values, axis=0) * transfer,
                        n=values.shape[0], axis=0)


def _shift_along_p(values: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """out[a, :] = m(q_a, p - s_a), periodic, for the `_shift_transfer`
    of the shifts s."""
    return np.fft.irfft(np.fft.rfft(values, axis=1) * transfer.T,
                        n=values.shape[1], axis=1)


def vlasov_step(state: VlasovState, potential: Potential,
                dt: float) -> VlasovState:
    """Strang: half q-transport, full p-kick, half q-transport.

    Each transport shifts every lattice line by a constant: one rfft, the
    multiplier W_s(k) / B(k) of periodic cubic B-spline interpolation
    (module docstring) and one irfft.  The two half q-transports share
    one multiplier.  W_s(0) / B(0) = 1 by the B-spline partition of
    unity, so every shift keeps the lattice sum to rounding.  The p axis
    is wrapped too, valid while the field vanishes near the p box edges.
    The CFL guard checks the shifts applied: the q-shift pmax dt before
    any work, and the p-shift of the mid-step force (the one force of the
    step) before the kick.  Negative overshoot is clipped at 0 and the
    clipped mass logged.
    """
    lat = state.lattice
    _require_cfl(lat, 0.0, dt)
    half_q = _shift_transfer(len(lat.qs), lat.ps * (0.5 * dt) / lat.dq)
    vals = _shift_along_q(state.values, half_q)
    mid = VlasovState(lat, vals, state.time + 0.5 * dt, state.force_scale)
    force = vlasov_force(mid, potential)
    _require_cfl(lat, float(np.max(np.abs(force))), dt)
    vals = _shift_along_p(vals, _shift_transfer(len(lat.ps),
                                                force * dt / lat.dp))
    vals = _shift_along_q(vals, half_q)
    clip = float(-np.sum(vals[vals < 0.0]) * lat.cell)
    vals = np.clip(vals, 0.0, None)
    return VlasovState(lat, vals, state.time + dt, state.force_scale,
                       state.clipped_mass + clip)


def vlasov_evolve(state: VlasovState, potential: Potential, dt: float,
                  steps: int) -> VlasovState:
    cur = state
    for _ in range(steps):
        cur = vlasov_step(cur, potential, dt)
    return cur


def vlasov_energy(state: VlasovState, potential: Potential) -> float:
    """Kinetic p^2/2 moment plus the self-consistent pair energy."""
    lat = state.lattice
    kinetic = float(np.sum(state.values * (lat.ps ** 2)[None, :] / 2.0)
                    * lat.cell)
    rho = state.spatial_density()
    pair = (0.5 * state.force_scale
            * float(rho @ potential.difference_table() @ rho) * lat.dq ** 2)
    return kinetic + pair


def free_transport_exact(initial: VlasovState, t: float) -> np.ndarray:
    """Method of characteristics for V = 0: m_t(q, p) = m_0(q - p t, p)."""
    lat = initial.lattice
    return _shift_along_q(initial.values,
                          _shift_transfer(len(lat.qs), lat.ps * t / lat.dq))
