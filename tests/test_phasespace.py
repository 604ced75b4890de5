from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import BSpline
from scipy.special import erf

from husimilab import manybody as mb
from husimilab import meanfield as mf
from husimilab import phasespace as ps
from husimilab.grid import GridError, make_grid, Potential

from grid_oracles import from_grid


CENTER_Q, CENTER_P = -1.5, 0.8  # center on the M=128, L=12 lattice


@pytest.fixture(scope="module")
def coherent_setup():
    grid = make_grid(M=128, L=12.0, hbar=0.5, N=1)
    frame = ps.gaussian_frame(grid)
    psi = mb.gaussian_orbital(grid, width=grid.hbar, x0=CENTER_Q, p0=CENTER_P)
    kern = mb.gamma1(from_grid(grid, psi))
    return grid, frame, kern


def nearest(arr, value):
    return int(np.argmin(np.abs(np.asarray(arr) - value)))


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_frame_normalization_and_witnesses():
    grid = make_grid(M=128, L=12.0, hbar=0.5)
    for frame in (ps.gaussian_frame(grid), ps.bump_frame(grid)):
        assert np.sum(frame.window ** 2) * grid.dx == pytest.approx(1.0,
                                                                    abs=1e-12)


def test_bump_frame_compact_support():
    grid = make_grid(M=128, L=12.0, hbar=0.5)
    frame = ps.bump_frame(grid)
    delta = np.where(np.arange(grid.M) < 64, np.arange(grid.M),
                     np.arange(grid.M) - 128) * grid.dx
    outside = np.abs(delta) >= np.sqrt(grid.hbar)
    assert np.all(frame.window[outside] == 0.0)


# ---------------------------------------------------------------------------
# Husimi transform
# ---------------------------------------------------------------------------

def test_reproducing_kernel_peak(coherent_setup):
    grid, frame, kern = coherent_setup
    field = ps.husimi1(kern, frame, ps.natural_lattice(grid))
    lattice = field.lattice
    ia, ib = nearest(lattice.qs, CENTER_Q), nearest(lattice.ps, CENTER_P)
    assert field.values[ia, ib] == pytest.approx(field.values.max())
    # p lattice does not hit the center exactly; evaluate the peak directly
    assert ps.husimi_point(kern, frame, CENTER_Q, CENTER_P) == pytest.approx(
        1.0, abs=1e-8)


def test_husimi_canonical_mass_is_particle_number():
    grid = make_grid(M=64, L=12.0, hbar=0.5, N=2)
    frame = ps.gaussian_frame(grid)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    field = ps.husimi1(mb.gamma1(state), frame, ps.natural_lattice(grid))
    assert abs(field.canonical_mass() - 2.0) < 1e-4


def test_husimi_positivity_and_bound_random_states():
    grid = make_grid(M=32, L=10.0, hbar=0.5, N=2)
    rng = np.random.default_rng(21)
    for frame in (ps.gaussian_frame(grid), ps.bump_frame(grid)):
        for _ in range(10):
            raw = (rng.standard_normal((grid.M, 2))
                   + 1j * rng.standard_normal((grid.M, 2)))
            q, _ = np.linalg.qr(raw)
            orbs = [q[:, j] / np.sqrt(grid.dx) for j in range(2)]
            field = ps.husimi1(mb.gamma1(mb.build_slater(grid, orbs)),
                               frame, ps.natural_lattice(grid))
            assert field.values.min() >= -1e-12
            assert field.values.max() <= 1.0 + 1e-8


def test_fft_path_matches_direct_oracle(coherent_setup):
    grid, frame, kern = coherent_setup
    fast = ps.husimi1(kern, frame, ps.natural_lattice(grid))
    full = fast.lattice
    lattice = ps.PhaseSpaceLattice(full.qs[::8], full.ps[::4], grid.hbar)
    slow = ps.husimi1_direct(kern, frame, lattice)
    assert np.max(np.abs(fast.values[::8, ::4] - slow.values)) < 1e-12


def test_undersampled_lattice_warns():
    # dq = 12 / 8 = 1.5 > sqrt(0.1)
    grid = make_grid(M=8, L=12.0, hbar=0.1, N=1)
    with pytest.warns(UserWarning, match="undersampled"):
        lattice = ps.natural_lattice(grid)
    assert lattice.undersampled()


# ---------------------------------------------------------------------------
# two-particle Husimi
# ---------------------------------------------------------------------------

def _coherent_matrix(frame, lattice) -> np.ndarray:
    """F[x, (q, p)] = f_qp(x) for every lattice point, flattened q-major."""
    return np.concatenate([ps._coherent_state(frame, q, lattice.ps).T
                           for q in lattice.qs], axis=1)


def husimi2_full(psi, grid, frame, lattice) -> np.ndarray:
    """Dense two-particle Husimi values m2[z1, z2] for N = 2 amplitudes."""
    F = _coherent_matrix(frame, lattice)
    c = F.T @ np.conj(psi) @ F * grid.dx ** 2
    return 2.0 * np.abs(c) ** 2


def husimi2_point(psi, grid, frame, z1, z2) -> float:
    """m2 at two phase-space points for N in {2, 3}."""
    f1, f2 = ps._coherent_state(frame, *z1), ps._coherent_state(frame, *z2)
    if grid.N == 2:
        c = np.einsum("xy,x,y->", np.conj(psi), f1, f2) * grid.dx ** 2
        return float(2.0 * abs(c) ** 2)
    c = np.einsum("xyr,x,y->r", np.conj(psi), f1, f2) * grid.dx ** 2
    return float(6.0 * np.sum(np.abs(c) ** 2) * grid.dx)


def husimi2_marginal_check(state, frame, rng, n_pairs: int = 50,
                           n_marginal: int = 20) -> dict:
    """Symmetry and marginalization diagnostics of the two-particle field
    of an N = 2 or 3 state, on its grid export.

    Uses the full natural lattice for the inner (q2, p2) sum, where
    coherent-state completeness is exact, so the marginal identity
    (2 pi hbar)^(-1) sum_{q2 p2} m2 dq2 dp2 = (N-1) m1 holds to roundoff.
    """
    g = state.grid
    psi = state.to_grid()
    m1 = ps.husimi1(mb.gamma1(state), frame, ps.natural_lattice(g))
    lattice = m1.lattice

    sym_defect = 0.0
    pts = list(zip(lattice.qs[rng.integers(0, len(lattice.qs), 2 * n_pairs)],
                   lattice.ps[rng.integers(0, len(lattice.ps), 2 * n_pairs)]))
    for a in range(n_pairs):
        z1, z2 = pts[2 * a], pts[2 * a + 1]
        v12 = husimi2_point(psi, g, frame, z1, z2)
        v21 = husimi2_point(psi, g, frame, z2, z1)
        sym_defect = max(sym_defect, abs(v12 - v21))

    marg_defect = 0.0
    total = None
    if g.N == 2:
        m2 = husimi2_full(psi, g, frame, lattice)
        marg = m2.sum(axis=1) * lattice.cell / lattice.canonical
        m1_flat = m1.values.reshape(-1)
        marg_defect = float(np.max(np.abs(marg - (g.N - 1) * m1_flat)))
        total = float(m2.sum() * lattice.cell ** 2 / (2.0 * np.pi) ** 2)
    else:
        qi = rng.integers(0, len(lattice.qs), n_marginal)
        pi = rng.integers(0, len(lattice.ps), n_marginal)
        F = _coherent_matrix(frame, lattice)
        for a in range(n_marginal):
            f1 = ps._coherent_state(frame, lattice.qs[qi[a]],
                                    lattice.ps[pi[a]])
            phi = np.einsum("xyr,x->yr", np.conj(psi), f1) * g.dx
            amp = phi.T @ F * g.dx  # [r, z2]
            m2_row = 6.0 * np.sum(np.abs(amp) ** 2, axis=0) * g.dx
            marg = float(np.sum(m2_row) * lattice.cell / lattice.canonical)
            ref = (g.N - 1) * m1.values[qi[a], pi[a]]
            marg_defect = max(marg_defect, abs(marg - ref))

    coupled = abs(g.hbar * g.N - 1.0) < 1e-9
    return {
        "symmetry_defect": sym_defect,
        "marginal_defect": marg_defect,
        "coupled_preset": coupled,
        "total_mass_over_2pi": total,
        "expected_total_if_coupled": g.N * (g.N - 1) / g.N ** 2,
    }

@pytest.fixture(scope="module")
def husimi2_setup():
    grid = make_grid(M=32, L=10.0, hbar=0.5, N=2)
    frame = ps.gaussian_frame(grid)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    return grid, frame, state


def test_husimi2_symmetry_and_marginal(husimi2_setup):
    grid, frame, state = husimi2_setup
    rng = np.random.default_rng(3)
    report = husimi2_marginal_check(state, frame, rng, n_pairs=100)
    assert report["symmetry_defect"] < 1e-8
    assert report["marginal_defect"] < 1e-4


def test_husimi2_coupled_total_mass():
    # hbar = 1/N preset: total mass over (2 pi)^(2d) equals N(N-1)/N^2
    grid = make_grid(M=32, L=10.0, hbar=0.5, N=2)
    frame = ps.gaussian_frame(grid)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    report = husimi2_marginal_check(state, frame,
                                    np.random.default_rng(0), n_pairs=5)
    assert report["coupled_preset"]
    assert report["total_mass_over_2pi"] == pytest.approx(
        report["expected_total_if_coupled"], abs=1e-4)


def test_husimi2_n3_marginal():
    grid = make_grid(M=16, L=10.0, hbar=0.5, N=3)
    frame = ps.gaussian_frame(grid)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 3))
    rng = np.random.default_rng(4)
    report = husimi2_marginal_check(state, frame, rng, n_pairs=10,
                                    n_marginal=6)
    assert report["symmetry_defect"] < 1e-8
    assert report["marginal_defect"] < 1e-4


# ---------------------------------------------------------------------------
# Wigner and the bridge
# ---------------------------------------------------------------------------

def test_wigner_closed_form_and_positivity():
    # a centered packet keeps box-truncation tails below the tolerance
    grid = make_grid(M=128, L=12.0, hbar=0.5, N=1)
    q0 = -0.5625
    psi = mb.gaussian_orbital(grid, width=grid.hbar, x0=q0, p0=CENTER_P)
    kern = mb.gamma1(from_grid(grid, psi))
    wf = ps.wigner1(kern)
    lat = wf.lattice
    closed = ps.gaussian_wigner_closed_form(lat.qs, lat.ps, grid.hbar,
                                            q0, CENTER_P, grid.hbar)
    # away from the periodic-image ghost the lattice transform matches the
    # closed form; the ghost sits at the antipodal q
    near = np.abs(lat.qs - q0) < 2.5
    assert np.max(np.abs(wf.values[near] - closed[near])) < 1e-8
    assert wf.values[near].min() > -1e-10
    assert wf.canonical_mass() == pytest.approx(1.0, abs=1e-10)


def test_wigner_position_marginal(coherent_setup):
    """N (2 pi hbar)^(-1) sum_p W dp is the density gamma(x; x)."""
    grid, frame, kern = coherent_setup
    wf = ps.wigner1(kern)
    marg = grid.N * wf.density() / wf.lattice.canonical
    density = np.real(np.diag(kern.matrix))
    assert np.max(np.abs(marg - density)) < 1e-6


def _convolution_bridge_defect(wf, kernel, frame) -> float:
    """Max defect of  m = W * G  with the Gaussian smoothing G.

    The convolution is a lattice quadrature on the lattice of `wf`, which
    may be a sublattice of the Wigner lattice; the Husimi side is
    evaluated exactly at the same points (`husimi_point`), so the defect
    isolates the quadrature error and shrinks superalgebraically as the
    lattice is refined.  Only the Gaussian window satisfies the identity;
    other frames are refused.
    """
    if frame.kind != "gaussian":
        raise GridError("convolution bridge requires the gaussian frame")
    lat = wf.lattice
    qs, ps_, hbar = lat.qs, lat.ps, lat.hbar
    # separable Gaussian kernels; q wrapped over periodic images
    dq_mat = qs[:, None] - qs[None, :]
    gq = sum(np.exp(-((dq_mat + shift * kernel.grid.L) ** 2) / hbar)
             for shift in (-1, 0, 1))
    gp = np.exp(-((ps_[:, None] - ps_[None, :]) ** 2) / hbar)
    conv = (gq @ wf.values @ gp.T) * lat.dq * lat.dp / (np.pi * hbar)
    return max(abs(ps.husimi_point(kernel, frame, q, p) - conv[a, b])
               for a, q in enumerate(qs) for b, p in enumerate(ps_))


def test_bridge_defect_and_refinement(coherent_setup):
    grid, frame, kern = coherent_setup
    wf = ps.wigner1(kern)

    def q_sublattice(stride):
        return ps.PhaseSpaceField(
            wf.values[::stride],
            replace(wf.lattice, qs=wf.lattice.qs[::stride]))

    base = _convolution_bridge_defect(q_sublattice(4), kern, frame)
    fine = _convolution_bridge_defect(q_sublattice(2), kern, frame)
    assert base < 1e-4
    assert fine * 3.0 <= base


def test_bridge_refuses_non_gaussian_frame(coherent_setup):
    grid, _, kern = coherent_setup
    bump = ps.bump_frame(grid)
    wf = ps.wigner1(kern)
    with pytest.raises(GridError, match="gaussian"):
        _convolution_bridge_defect(wf, kern, bump)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_gaussian_closed_form():
    # packet far from q = 0 so the |q| kink quadrature error stays small
    grid = make_grid(M=128, L=12.0, hbar=0.5, N=1)
    frame = ps.gaussian_frame(grid)
    q0, p0, hbar = -2.4375, 0.8, grid.hbar
    psi = mb.gaussian_orbital(grid, width=hbar, x0=q0, p0=p0)
    kern = mb.gamma1(from_grid(grid, psi))
    field = ps.husimi1(kern, frame, ps.natural_lattice(grid))
    mass, qmom, p2mom = ps.moments(field)
    mass_exact = 2.0 * np.pi * hbar
    sigma = np.sqrt(hbar)
    folded = (sigma * np.sqrt(2.0 / np.pi) * np.exp(-q0 ** 2 / (2 * sigma ** 2))
              + abs(q0) * erf(abs(q0) / (sigma * np.sqrt(2.0))))
    assert mass == pytest.approx(mass_exact, abs=1e-6)
    assert qmom == pytest.approx(mass_exact * folded, abs=1e-4)
    assert p2mom == pytest.approx(mass_exact * (hbar + p0 ** 2), abs=1e-4)


def test_free_evolution_preserves_p2_moment():
    grid = make_grid(M=128, L=20.0, hbar=0.5, N=1)
    frame = ps.gaussian_frame(grid)
    psi = mb.gaussian_orbital(grid, width=0.8, x0=-3.0, p0=1.0)
    st = from_grid(grid, psi)
    f0 = ps.husimi1(mb.gamma1(st), frame, ps.natural_lattice(grid))
    st2 = mb.propagate(st, Potential.zero(grid), dt=0.01, steps=100)
    f1 = ps.husimi1(mb.gamma1(st2), frame, ps.natural_lattice(grid))
    assert ps.moments(f1)[2] == pytest.approx(ps.moments(f0)[2], abs=1e-6)


# ---------------------------------------------------------------------------
# oscillation estimate
# ---------------------------------------------------------------------------

def spline_test_function(radius: float, s: int):
    """Cardinal B-spline window of order s on [-radius, radius], and its
    Fourier transform.

    The spline is C^(s-2) with a jump in its (s-1)-th derivative, so its
    transform, the closed form h sinc(k h / 2)^s with knot spacing
    h = 2 radius / s, decays exactly like |k|^(-s): the sharp case of the
    s-fold integration-by-parts bound.  Returns (fn, fourier_transform).
    """
    h = 2.0 * radius / s
    spline = BSpline.basis_element(-radius + h * np.arange(s + 1),
                                   extrapolate=False)

    def fn(p):
        return np.nan_to_num(spline(np.asarray(p, dtype=float)), nan=0.0)

    def fourier_transform(k):
        return h * np.sinc(np.asarray(k, dtype=float) * h / (2.0 * np.pi)) ** s

    return fn, fourier_transform


def oscillatory_integral(fn, support: float, x: float,
                         hbar: float) -> float:
    """integral of fn(p) e^{i p x / hbar} dp by adaptive quadrature, for an
    even real fn: the integral is real and reduces to the cosine transform.
    """
    omega = x / hbar
    if omega == 0.0:
        val, _ = quad(fn, -support, support, limit=400)
        return float(val)
    re, _ = quad(fn, -support, support, weight="cos", wvar=omega, limit=400)
    return float(re)


def oscillation_decay(alpha: float, s: int, hbars) -> dict:
    """Measured decay rate of the shell maximum of the oscillatory integral.

    For x on the boundary shell of the cube of side hbar^alpha the
    integral of phi(p) e^{i p x / hbar} decays like hbar^((1-alpha) s) when
    phi has exactly s integrable derivatives.  The window is the order-s
    spline of radius 55 s, whose transform decays exactly like |k|^(-s);
    its wide support packs the spectral oscillation so the shell maximum
    tracks the envelope smoothly.  A C-infinity window decays faster than
    any such rate, so the bump is not used here.
    """
    hbars = np.asarray(sorted(hbars, reverse=True), dtype=float)
    if len(hbars) < 4:
        raise GridError("need at least 4 hbar samples for a rate fit")
    radius = 55.0 * s
    fn, _ = spline_test_function(radius, s)
    values = []
    for hb in hbars:
        x0 = hb ** alpha
        # window wide enough to contain at least one spectral peak
        peak_dx = 2.0 * np.pi * hb / (2.0 * radius / s)
        xs = np.linspace(x0, x0 + 1.25 * peak_dx, 24)
        values.append(max(abs(oscillatory_integral(fn, radius, x, hb))
                          for x in xs))
    slope, r2 = ps.log_log_fit(hbars, values)
    return {"slope": slope, "r2": r2, "target": (1.0 - alpha) * s}


def test_spline_fourier_transform_closed_form():
    fn, fourier_transform = spline_test_function(radius=1.5, s=3)
    ks = np.linspace(0.1, 8.0, 40)
    # quadrature oracle on a fine lattice
    p = np.linspace(-1.5, 1.5, 20001)
    vals = fn(p)
    for k in ks[::8]:
        quad_val = np.trapezoid(vals * np.exp(-1j * k * p), p)
        assert abs(quad_val - fourier_transform(k)) < 1e-6
    assert fourier_transform(0.0) == pytest.approx(np.trapezoid(vals, p),
                                                   abs=1e-8)


def test_oscillatory_integral_at_origin_is_plain_integral():
    fn, _ = spline_test_function(2.0, s=3)
    base = oscillatory_integral(fn, 2.0, x=0.0, hbar=1.0)
    for hb in (0.5, 0.25, 0.125):
        val = oscillatory_integral(fn, 2.0, x=0.0, hbar=hb)
        assert val == pytest.approx(base, abs=1e-12)


def test_oscillation_slope_reference_case():
    res = oscillation_decay(0.75, 2, [2.0 ** -k for k in range(3, 11)])
    assert abs(res["slope"] - 0.5) <= 0.05


def test_oscillation_alpha_zero_fixed_shell():
    # |x| >= fixed delta: slope approaches s
    res = oscillation_decay(0.0, 2, [2.0 ** -k for k in range(3, 11)])
    assert abs(res["slope"] - 2.0) <= 0.2


def test_oscillation_refuses_few_samples():
    with pytest.raises(GridError, match="4"):
        oscillation_decay(0.75, 2, [0.5, 0.25, 0.125])


def test_oscillation_quadrature_matches_closed_form():
    fn, fourier_transform = spline_test_function(110.0, 2)
    for x, hb in ((0.3, 0.125), (0.21, 0.0625)):
        quad_val = oscillatory_integral(fn, 110.0, x, hb)
        assert quad_val == pytest.approx(float(fourier_transform(x / hb).real),
                                         abs=1e-8)
