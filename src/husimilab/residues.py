"""Kinetic, semiclassical, and mean-field residues of the phase-space
reformulation, and the consistency defect of the reformulated equation.

The exact lattice identity assembled here reads, for the one-particle
Husimi field m of an N-body state on the periodic grid,

    d/dt m + p . d/dq m
        = d/dq . Rk + c [ d/dp . ((V' * rho) m) + d/dp . Rs + d/dp . Rm ],

with c = 1/(N (2 pi hbar)^d), rho(q) = sum_p m dp, and

    Rk(q,p) = hbar Im <f_qp, gamma1 d/dq f_qp>,
    Rs(q,p) = (1/N) sum f_qp(w1) conj(f_qp(u1))
              [ S(u1,w1,w2) - D(q,w2) ] A(u1,w1,w2) dx^3,
    Rm(q,p) = (1/N) sum f_qp(w1) conj(f_qp(u1)) D(q,w2)
              [ A(u1,w1,w2) - gamma1(u1;w1) gamma1(w2;w2) ] dx^3,

where A(u1,w1,w2) = gamma2(u1,w2; w1,w2), S is the segment-averaged
gradient int_0^1 V'(s u1 + (1-s) w1 - w2) ds (fixed-order Gauss-Legendre,
spectrally exact for band-limited V), and D(q,w2) is V' smeared by the
squared window at scale sqrt(hbar).  The inner (q2, p2) coherent pair has
already been collapsed through the exact lattice completeness relation.
For N = 1 there is no pair interaction and the bracket on the right is
absent.  All (q,p) fields are evaluated through the same two-FFT
machinery as the Husimi transform, organized mode-by-mode in the
potential's spectrum.

The consistency defect pairs every term of the identity with a test
function at one snapshot.  d/dt m is exact: it is the Husimi transform of
d/dt gamma1, formed from dpsi/dt = H psi / (i hbar), so the defect sits at
rounding level.  That holds only while the Husimi field has no mass on
the edges of the (q, p) box: the lattice is periodic in q and in p, and
mass that wraps across an edge breaks the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from husimilab.grid import Potential, TestFunction, bump_test_function
from husimilab.manybody import (Gamma2View, ManyBodyState, OneBodyKernel,
                                gamma1, time_derivative)
from husimilab.phasespace import (CoherentFrame, HusimiField,
                                  PhaseSpaceLattice, _centered_offsets,
                                  bilinear_phase_field, husimi1,
                                  natural_lattice)


def gauss_legendre_unit():
    """Eight Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(8)
    return 0.5 * (x + 1.0), 0.5 * w


def _paired(a: np.ndarray, b: np.ndarray, field_vals: np.ndarray,
            lattice: PhaseSpaceLattice) -> float:
    """sum a(q) b(p) F(q,p) dq dp."""
    return float(np.einsum("q,p,qp->", a, b, field_vals) * lattice.cell)


# ---------------------------------------------------------------------------
# kinetic residue
# ---------------------------------------------------------------------------

def kinetic_residue_field(kernel: OneBodyKernel,
                          frame: CoherentFrame) -> np.ndarray:
    """Rk(q,p) = hbar Im <f_qp, gamma1 d/dq f_qp> on the natural lattice."""
    g = kernel.grid
    dwin = frame.derivative_window()
    B = bilinear_phase_field(kernel.matrix, frame.window, -dwin, g)
    return g.hbar * B.imag


def _l54_aggregate(rk: np.ndarray, lattice: PhaseSpaceLattice) -> float:
    """|| integral dp |Rk| ||_{L^{5/4}} over the q axis."""
    inner = np.sum(np.abs(rk), axis=1) * lattice.dp
    return float(np.sum(inner ** 1.25 * lattice.dq) ** 0.8)


# ---------------------------------------------------------------------------
# interaction residues
# ---------------------------------------------------------------------------

def _window_mode_factors(frame: CoherentFrame, ks: np.ndarray) -> np.ndarray:
    """kappa_hat(k) = sum_r window(r)^2 e^{i k r} dx for the active modes."""
    g = frame.grid
    kappa = frame.window ** 2
    return np.exp(1j * np.outer(ks, _centered_offsets(g))) @ kappa * g.dx


def _gamma2_partial_hat(state: ManyBodyState, ks: np.ndarray):
    """A and its w2-transform Ahat[:, :, k] = sum_w2 A e^{-i k w2} dx."""
    A = Gamma2View(state).partial_diag()
    x = state.grid.axis_points()
    phases = np.exp(-1j * np.outer(x, ks))
    Ahat = np.tensordot(A, phases, axes=([2], [0])) * state.grid.dx
    return A, Ahat


@dataclass
class InteractionResidues:
    """Semiclassical and mean-field residue fields on the full lattice."""

    semiclassical: np.ndarray
    meanfield: np.ndarray
    lattice: PhaseSpaceLattice


def interaction_residue_fields(state: ManyBodyState, kern: OneBodyKernel,
                               frame: CoherentFrame,
                               potential: Potential) -> InteractionResidues:
    """Assemble Rs and Rm exactly, mode-by-mode in the potential spectrum.

    `kern` is gamma1 of `state`.  Using V'(z) = sum_k i k c_k e^{i k z}
    every contraction separates: the segment average S needs only
    w2-transforms of A at the active modes, and the smeared gradient
    D(q, w2) becomes a phase in q times kappa_hat(k), so each mode costs
    one bilinear transform.
    """
    g = state.grid
    lattice = natural_lattice(g)
    ks, cs = potential._active_modes()
    keep = np.abs(ks) > 0  # the k = 0 mode has zero gradient
    ks, cs = ks[keep], cs[keep]
    nq = len(lattice.qs)
    npts = len(lattice.ps)
    if len(ks) == 0:
        zero = np.zeros((nq, npts))
        return InteractionResidues(zero, zero.copy(), lattice)

    A, Ahat = _gamma2_partial_hat(state, ks)
    kappa_hat = _window_mode_factors(frame, ks)
    x = g.axis_points()
    nodes, weights = gauss_legendre_unit()
    rho_diag = np.real(np.diag(kern.matrix))
    rho_hat = np.exp(-1j * np.outer(ks, x)) @ rho_diag * g.dx

    # first semiclassical piece: one kernel from the segment average
    C1 = np.zeros((g.M, g.M), dtype=complex)
    for a, (k, c) in enumerate(zip(ks, cs)):
        gk = np.zeros((g.M, g.M), dtype=complex)
        for s, wgt in zip(nodes, weights):
            gk += wgt * np.outer(np.exp(1j * k * s * x),
                                 np.exp(1j * k * (1.0 - s) * x))
        C1 += 1j * k * c * gk * Ahat[:, :, a]
    term1 = bilinear_phase_field(C1, frame.window, frame.window, g)

    # per-mode smeared-gradient pieces for the Rs subtraction and Rm
    term2 = np.zeros((nq, npts), dtype=complex)
    rm = np.zeros((nq, npts), dtype=complex)
    for a, (k, c) in enumerate(zip(ks, cs)):
        phase_q = np.exp(1j * k * lattice.qs)
        factor = 1j * k * c * kappa_hat[a]
        Bk = bilinear_phase_field(Ahat[:, :, a], frame.window, frame.window, g)
        term2 += factor * phase_q[:, None] * Bk
        defect_kernel = Ahat[:, :, a] - kern.matrix * rho_hat[a]
        Bk_m = bilinear_phase_field(defect_kernel, frame.window,
                                    frame.window, g)
        rm += factor * phase_q[:, None] * Bk_m
    pref = 1.0 / g.N
    rs = pref * (term1 - term2)
    rm = pref * rm
    return InteractionResidues(rs.real, rm.real, lattice)


# ---------------------------------------------------------------------------
# one snapshot: fields, pairings, and the consistency of the reformulation
# ---------------------------------------------------------------------------

@dataclass
class SnapshotFields:
    """The costly objects of one snapshot, each computed once.

    `interaction` is None for N = 1, which has no pair interaction.
    """

    state: ManyBodyState
    kernel: OneBodyKernel
    husimi: HusimiField
    kinetic: np.ndarray
    interaction: InteractionResidues | None


@dataclass
class ResidueReport:
    pairing_kinetic: float
    pairing_semiclassical: float
    pairing_meanfield: float
    l54_aggregate: float
    consistency_defect: float
    consistency_defect_rel: float
    hbar: float
    n_particles: int
    time: float
    test_functions: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "pairing_kinetic": self.pairing_kinetic,
            "pairing_semiclassical": self.pairing_semiclassical,
            "pairing_meanfield": self.pairing_meanfield,
            "l54_aggregate": self.l54_aggregate,
            "consistency_defect": self.consistency_defect,
            "consistency_defect_rel": self.consistency_defect_rel,
            "hbar": self.hbar,
            "N": self.n_particles,
            "t": self.time,
            "test_functions": self.test_functions,
        }


def mean_field_force_term(field_vals: np.ndarray,
                          lattice: PhaseSpaceLattice,
                          potential: Potential, grid) -> np.ndarray:
    """(V' * rho)(q) m(q,p) with rho(q) = sum_p m dp, lattice convolution."""
    rho = field_vals.sum(axis=1) * lattice.dp
    conv = potential.grad_difference_table() @ rho * lattice.dq
    return conv[:, None] * field_vals


def _husimi_time_derivative(state: ManyBodyState, frame: CoherentFrame,
                            potential: Potential) -> np.ndarray:
    """d/dt m on the natural lattice, from the exact dpsi/dt.

    d/dt gamma1 = N (Xdot + Xdot^dagger) dx^(N-1) with
    Xdot = psidot psi^dagger (amplitudes reshaped as in `gamma1`), and the
    Husimi transform is linear in the kernel.
    """
    g = state.grid
    mat = state.psi.reshape(g.M ** g.d, -1)
    dmat = time_derivative(state, potential).reshape(mat.shape)
    xdot = dmat @ mat.conj().T
    dgamma = g.N * (xdot + xdot.conj().T) * g.weight ** (g.N - 1)
    return bilinear_phase_field(dgamma, frame.window, frame.window, g).real


def reformulation_consistency(fields: SnapshotFields, frame: CoherentFrame,
                              potential: Potential, phi_q: TestFunction,
                              phi_p: TestFunction) -> dict:
    """Paired defect of the reformulated equation at one snapshot.

    Every term is evaluated exactly at the snapshot, the time derivative
    included, and all divergences are moved onto the test functions.
    `defect_rel` is the defect over the largest of the six paired terms;
    it is at rounding level while the Husimi field has no mass on the
    box edges.
    """
    g = fields.state.grid
    lattice = fields.husimi.lattice
    m = fields.husimi.values
    dm_dt = _husimi_time_derivative(fields.state, frame, potential)
    parts = {
        "time": _paired(phi_q.values, phi_p.values, dm_dt, lattice),
        "transport": -_paired(phi_q.grad, phi_p.values,
                              m * lattice.ps[None, :], lattice),
        "kinetic_residue": -_paired(phi_q.grad, phi_p.values,
                                    fields.kinetic, lattice),
        "mean_field": 0.0, "semiclassical_residue": 0.0,
        "meanfield_residue": 0.0,
    }
    if fields.interaction is not None:
        c_int = 1.0 / (g.N * (2.0 * np.pi * g.hbar) ** g.d)
        force = mean_field_force_term(m, lattice, potential, g)
        parts["mean_field"] = -c_int * _paired(phi_q.values, phi_p.grad,
                                               force, lattice)
        parts["semiclassical_residue"] = -_paired(
            phi_q.values, phi_p.grad, fields.interaction.semiclassical,
            lattice)
        parts["meanfield_residue"] = -_paired(
            phi_q.values, phi_p.grad, fields.interaction.meanfield, lattice)
    defect = abs(parts["time"] + parts["transport"] - parts["kinetic_residue"]
                 - parts["mean_field"] - parts["semiclassical_residue"]
                 - parts["meanfield_residue"])
    scale = max(abs(v) for v in parts.values())
    return {"defect": defect, "defect_rel": defect / scale, "parts": parts}


def snapshot_residues(state: ManyBodyState, frame: CoherentFrame,
                      potential: Potential, phi_q: dict, phi_p: dict):
    """Fields, pairings, L^{5/4} aggregate and consistency of one snapshot.

    `phi_q` and `phi_p` are bump test-function specs (center, radius, s)
    on the q and p axes of the natural lattice.  Returns the
    `SnapshotFields` for reuse and the `ResidueReport`.
    """
    g = state.grid
    kern = gamma1(state)
    fields = SnapshotFields(
        state, kern, husimi1(kern, frame), kinetic_residue_field(kern, frame),
        interaction_residue_fields(state, kern, frame, potential)
        if g.N >= 2 else None)
    lattice = fields.husimi.lattice
    tq = bump_test_function(lattice.qs, **phi_q)
    tp = bump_test_function(lattice.ps, **phi_p)
    cons = reformulation_consistency(fields, frame, potential, tq, tp)
    parts = cons["parts"]
    report = ResidueReport(
        abs(parts["kinetic_residue"]), abs(parts["semiclassical_residue"]),
        abs(parts["meanfield_residue"]),
        _l54_aggregate(fields.kinetic, lattice), cons["defect"],
        cons["defect_rel"], g.hbar, g.N, state.time,
        {"phi_q": dict(phi_q), "phi_p": dict(phi_p)})
    return fields, report

