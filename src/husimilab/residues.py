"""Kinetic, semiclassical, and mean-field residues of the phase-space
reformulation, and the consistency defect of the reformulated equation.

The exact lattice identity assembled here reads, for the one-particle
Husimi field m of an N-body state on the periodic grid,

    d/dt m + p . d/dq m
        = d/dq . Rk + c [ d/dp . ((V' * rho) m) + d/dp . Rs + d/dp . Rm ],

with c = 1/(2 pi hbar N), rho(q) = sum_p m dp, and

    Rk(q,p) = hbar Im <f_qp, gamma1 d/dq f_qp>,
    Rs(q,p) = (1/N) sum f_qp(w1) conj(f_qp(u1))
              [ S(u1,w1,w2) - D(q,w2) ] A(u1,w1,w2) dx^3,
    Rm(q,p) = (1/N) sum f_qp(w1) conj(f_qp(u1)) D(q,w2)
              [ A(u1,w1,w2) - gamma1(u1;w1) gamma1(w2;w2) ] dx^3,

where A(u1,w1,w2) = gamma2(u1,w2; w1,w2), D(q,w2) is V' smeared by the
squared window at scale sqrt(hbar), and S is the average of V'(. - w2)
along the short way round the torus from w1 to u1,

    S(u1,w1,w2) = int_0^1 V'(w1 + s d - w2) ds
                = (V(u1 - w2) - V(w1 - w2)) / d,   S = V'(u1 - w2) at d = 0,

with d the torus separation of u1 and w1: the centered offset of
u1 - w1 in [-L/2, L/2), the separation the derivative on the p lattice
sees.  An average along the chord through the box, over u1 - w1,
breaks the identity for a state whose gamma1 reaches across the box.
V is the band-limited V of `Potential.modes`, so S is exact
mode by mode.  The inner (q2, p2) coherent pair has already been
collapsed through the exact lattice completeness relation.  For N = 1
there is no pair interaction and the bracket on the right is absent.
All (q,p) fields are evaluated through the same two-FFT machinery as the
Husimi transform, organized mode-by-mode in the potential's spectrum.

The consistency defect pairs every term of the identity with a test
function at one snapshot.  d/dt m is exact: it is the Husimi transform of
d/dt gamma1, formed from adot = H a / (i hbar), which the caller takes
while it holds H (a run in its N-body stage, before H is freed), so the
defect sits at rounding level; gamma1 and its rate share one extension
of the coefficients (`manybody.gamma1_and_rate`).  That holds only while
the Husimi field has no mass on the edges of the (q, p) box: the lattice
is periodic in q and in p, and mass that wraps across an edge breaks the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from husimilab.grid import (GridError, Potential, TestFunction,
                            bump_test_function)
from husimilab.manybody import (ManyBodyState, OneBodyKernel,
                                gamma1_and_rate, gamma2_diag_blocks)
from husimilab.phasespace import (CoherentFrame, PhaseSpaceField,
                                  PhaseSpaceLattice, _centered_offsets,
                                  bilinear_phase_field)


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


def _gamma2_partial_hat(state: ManyBodyState, ks: np.ndarray) -> np.ndarray:
    """The w2-transform Ahat[:, :, k] = sum_w2 A e^{-i k w2} dx of A,
    accumulated over the y blocks of `gamma2_diag_blocks`, each
    contracted with the phases of its rows in one product, so A is never
    formed."""
    g = state.grid
    phases = np.exp(-1j * np.outer(g.axis_points(), ks)) * g.dx
    Ahat = np.zeros((g.M * g.M, len(ks)), dtype=complex)
    for ys, P in gamma2_diag_blocks(state):
        Ahat += P.reshape(len(P), -1).T @ phases[ys]
    return Ahat.reshape(g.M, g.M, len(ks))


@dataclass
class InteractionResidues:
    """Semiclassical and mean-field residue fields on the full natural
    lattice, q rows, p columns."""

    semiclassical: np.ndarray
    meanfield: np.ndarray


def interaction_residue_fields(state: ManyBodyState, kern: OneBodyKernel,
                               b1: np.ndarray, frame: CoherentFrame,
                               potential: Potential) -> InteractionResidues:
    """Assemble Rs and Rm exactly, mode-by-mode in the potential spectrum.

    `kern` is gamma1 of `state` and `b1` its complex transform
    `bilinear_phase_field(kern.matrix, window, window)`, whose real part
    is the Husimi field.  Using V'(z) = sum_k i k c_k e^{i k z}
    every contraction separates: the segment average S is
    sum_k c_k e^{-i k w2} (e^{i k u1} - e^{i k w1}) / d, so it needs only
    w2-transforms of A at the active modes, and the smeared gradient
    D(q, w2) becomes a phase in q times kappa_hat(k), so each mode costs
    one bilinear transform.  The transform is linear in its kernel, so
    the gamma1 (x) rho part of Rm is one transform of gamma1 times the
    smeared force f(q) = sum_k i k c_k kappa_hat(k) rho_hat(k) e^{i k q}.
    """
    g = state.grid
    m, ks, cs = potential.modes()
    ks, cs = ks[m > 0], cs[m > 0]  # the k = 0 mode has zero gradient
    if len(ks) == 0:
        zero = np.zeros((g.M, g.M))
        return InteractionResidues(zero, zero.copy())

    Ahat = _gamma2_partial_hat(state, ks)
    kappa_hat = _window_mode_factors(frame, ks)
    x = g.axis_points()
    idx = np.arange(g.M)
    d = _centered_offsets(g)[(idx[:, None] - idx[None, :]) % g.M]
    inv_d = np.divide(1.0, d, out=np.zeros_like(d), where=d != 0)
    rho_diag = np.real(np.diag(kern.matrix))
    rho_hat = np.exp(-1j * np.outer(ks, x)) @ rho_diag * g.dx

    # first semiclassical piece: one kernel from the segment average,
    # i k c_k times (e^{iku} - e^{ikw}) / (i k d), and times e^{iku} at d = 0
    C1 = np.zeros((g.M, g.M), dtype=complex)
    for a, (k, c) in enumerate(zip(ks, cs)):
        eu = np.exp(1j * k * x)
        sk = np.subtract.outer(eu, eu) * inv_d + np.diag(1j * k * eu)
        C1 += c * sk * Ahat[:, :, a]
    term1 = bilinear_phase_field(C1, frame.window, frame.window, g)

    # per-mode smeared-gradient pieces for the Rs subtraction and Rm
    term2 = np.zeros((g.M, g.M), dtype=complex)
    force = np.zeros(g.M, dtype=complex)
    for a, (k, c) in enumerate(zip(ks, cs)):
        phase_q = np.exp(1j * k * x)  # x is the q axis of the lattice
        factor = 1j * k * c * kappa_hat[a]
        Bk = bilinear_phase_field(Ahat[:, :, a], frame.window, frame.window, g)
        term2 += factor * phase_q[:, None] * Bk
        force += factor * rho_hat[a] * phase_q
    pref = 1.0 / g.N
    rs = pref * (term1 - term2)
    rm = pref * (term2 - force[:, None] * b1)
    return InteractionResidues(rs.real, rm.real)


# ---------------------------------------------------------------------------
# one snapshot: fields, pairings, and the consistency of the reformulation
# ---------------------------------------------------------------------------

@dataclass
class SnapshotFields:
    """The costly objects of one snapshot, each computed once from gamma1
    and its rate: the Husimi field and its rate d/dt m, the kinetic
    residue field and the interaction residue fields.

    `interaction` is None for N = 1, which has no pair interaction.
    """

    husimi: PhaseSpaceField
    husimi_rate: np.ndarray
    kinetic: np.ndarray
    interaction: InteractionResidues | None


@dataclass
class ResidueReport:
    """The report of the `residues` command and the source of a run's
    pairings; its keys are the field names."""

    pairing_kinetic: float
    pairing_semiclassical: float
    pairing_meanfield: float
    l54_aggregate: float
    consistency_defect: float
    consistency_defect_rel: float
    hbar: float
    N: int
    t: float
    test_functions: dict = field(default_factory=dict)


def reformulation_consistency(fields: SnapshotFields, potential: Potential,
                              phi_q: TestFunction,
                              phi_p: TestFunction) -> dict:
    """Paired defect of the reformulated equation at one snapshot.

    Every term is evaluated exactly at the snapshot, the time derivative
    included (`fields.husimi_rate`, the transform of d/dt gamma1), and all
    divergences are moved onto the test functions.
    `defect_rel` is the defect over the largest of the six paired terms;
    it is at rounding level while the Husimi field has no mass on the
    box edges.
    """
    lattice = fields.husimi.lattice
    m = fields.husimi.values
    parts = {
        "time": _paired(phi_q.values, phi_p.values, fields.husimi_rate,
                        lattice),
        "transport": -_paired(phi_q.grad, phi_p.values,
                              m * lattice.ps[None, :], lattice),
        "kinetic_residue": -_paired(phi_q.grad, phi_p.values,
                                    fields.kinetic, lattice),
        "mean_field": 0.0, "semiclassical_residue": 0.0,
        "meanfield_residue": 0.0,
    }
    if fields.interaction is not None:
        # c (V' * rho) m with c = 1/(2 pi hbar N): minus the Vlasov force
        force = fields.husimi.force(potential)
        parts["mean_field"] = _paired(phi_q.values, phi_p.grad,
                                      force[:, None] * m, lattice)
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


def pairing_test_functions(lattice: PhaseSpaceLattice, phi_q: dict,
                           phi_p: dict):
    """The bumps of the specs `phi_q` and `phi_p` (center, radius, s) on
    the q and p axes of `lattice`; a spec with a key the bump does not
    take, or a support that crosses the box, raises GridError naming it."""
    bumps = []
    for name, axis, spec in (("phi_q", lattice.qs, phi_q),
                             ("phi_p", lattice.ps, phi_p)):
        try:
            bumps.append(bump_test_function(axis, **spec))
        except (TypeError, GridError) as exc:
            raise GridError(f"{name} {spec}: {exc}; a spec holds center, "
                            "radius and s, with its support inside the "
                            "box") from exc
    return bumps


def snapshot_residues(state: ManyBodyState, adot: np.ndarray,
                      frame: CoherentFrame, potential: Potential,
                      lattice: PhaseSpaceLattice, phi_q: dict, phi_p: dict):
    """Fields, pairings, L^{5/4} aggregate and consistency of one snapshot.

    `adot` is H a / (i hbar) of the state's coefficients
    (`SlaterFlow.time_derivative`), the one product with H the pass
    needs, so the caller may free H before it.  `lattice` is the natural
    lattice of the state's grid, built once by the caller, so an
    undersampled one warns once.  `phi_q` and `phi_p` are bump
    test-function specs (center, radius, s) on its q and p axes.
    Returns the `SnapshotFields` for reuse and the `ResidueReport`.
    """
    g = state.grid
    kern, rate = gamma1_and_rate(state, adot)
    # the Husimi field and its rate are the real parts of the transforms of
    # gamma1 and its rate; the mean-field residue takes the first whole
    b1 = bilinear_phase_field(kern.matrix, frame.window, frame.window, g)
    fields = SnapshotFields(
        PhaseSpaceField(b1.real, lattice),
        bilinear_phase_field(rate, frame.window, frame.window, g).real,
        kinetic_residue_field(kern, frame),
        interaction_residue_fields(state, kern, b1, frame, potential)
        if g.N >= 2 else None)
    tq, tp = pairing_test_functions(lattice, phi_q, phi_p)
    cons = reformulation_consistency(fields, potential, tq, tp)
    parts = cons["parts"]
    report = ResidueReport(
        abs(parts["kinetic_residue"]), abs(parts["semiclassical_residue"]),
        abs(parts["meanfield_residue"]),
        _l54_aggregate(fields.kinetic, lattice), cons["defect"],
        cons["defect_rel"], g.hbar, g.N, state.time,
        {"phi_q": dict(phi_q), "phi_p": dict(phi_p)})
    return fields, report

