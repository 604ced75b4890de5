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


CENTER_Q, CENTER_P = -1.5, 0.8  # center on the M=128, L=12 lattice


@pytest.fixture(scope="module")
def coherent_setup():
    grid = make_grid(d=1, M=128, L=12.0, hbar=0.5, N=1)
    frame = ps.gaussian_frame(grid)
    psi = mb.gaussian_orbital(grid, width=grid.hbar, x0=CENTER_Q, p0=CENTER_P)
    kern = mb.gamma1(mb.ManyBodyState(grid, psi.copy()))
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
        assert frame.norms["linf"] > 0
        assert frame.norms["grad_l2"] > 0


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
    field = ps.husimi1(kern, frame)
    lattice = field.lattice
    ia, ib = nearest(lattice.qs, CENTER_Q), nearest(lattice.ps, CENTER_P)
    assert field.values[ia, ib] == pytest.approx(field.values.max())
    # p lattice does not hit the center exactly; evaluate the peak directly
    assert ps.husimi_point(kern, frame, CENTER_Q, CENTER_P) == pytest.approx(
        1.0, abs=1e-8)


def test_husimi_canonical_mass_is_particle_number():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=2)
    frame = ps.gaussian_frame(grid)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    field = ps.husimi1(mb.gamma1(state), frame)
    assert abs(field.canonical_mass() - 2.0) < 1e-4


def test_husimi_positivity_and_bound_random_states():
    grid = make_grid(d=1, M=32, L=10.0, hbar=0.5, N=2)
    rng = np.random.default_rng(21)
    for frame in (ps.gaussian_frame(grid), ps.bump_frame(grid)):
        for _ in range(10):
            raw = (rng.standard_normal((grid.M, 2))
                   + 1j * rng.standard_normal((grid.M, 2)))
            q, _ = np.linalg.qr(raw)
            orbs = [q[:, j] / np.sqrt(grid.dx) for j in range(2)]
            field = ps.husimi1(mb.gamma1(mb.build_slater(grid, orbs)), frame)
            assert field.values.min() >= -1e-12
            assert field.values.max() <= 1.0 + 1e-8


def test_fft_path_matches_direct_oracle(coherent_setup):
    grid, frame, kern = coherent_setup
    fast = ps.husimi1(kern, frame)
    full = fast.lattice
    lattice = ps.PhaseSpaceLattice(full.qs[::8], full.ps[::4], grid.hbar)
    slow = ps.husimi1_direct(kern, frame, lattice)
    assert np.max(np.abs(fast.values[::8, ::4] - slow.values)) < 1e-12


def test_undersampled_lattice_warns():
    # dq = 12 / 8 = 1.5 > sqrt(0.1)
    grid = make_grid(d=1, M=8, L=12.0, hbar=0.1, N=1)
    with pytest.warns(UserWarning, match="undersampled"):
        lattice = ps.natural_lattice(grid)
    assert lattice.undersampled()


# ---------------------------------------------------------------------------
# two-particle Husimi
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def husimi2_setup():
    grid = make_grid(d=1, M=32, L=10.0, hbar=0.5, N=2)
    frame = ps.gaussian_frame(grid)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    return grid, frame, state


def test_husimi2_symmetry_and_marginal(husimi2_setup):
    grid, frame, state = husimi2_setup
    rng = np.random.default_rng(3)
    report = ps.husimi2_marginal_check(state, frame, rng, n_pairs=100)
    assert report["symmetry_defect"] < 1e-8
    assert report["marginal_defect"] < 1e-4


def test_husimi2_coupled_total_mass():
    # hbar = 1/N preset: total mass over (2 pi)^(2d) equals N(N-1)/N^2
    grid = make_grid(d=1, M=32, L=10.0, hbar=0.5, N=2)
    frame = ps.gaussian_frame(grid)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    report = ps.husimi2_marginal_check(state, frame,
                                       np.random.default_rng(0), n_pairs=5)
    assert report["coupled_preset"]
    assert report["total_mass_over_2pi"] == pytest.approx(
        report["expected_total_if_coupled"], abs=1e-4)


def test_husimi2_n3_marginal():
    grid = make_grid(d=1, M=16, L=10.0, hbar=0.5, N=3)
    frame = ps.gaussian_frame(grid)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 3))
    rng = np.random.default_rng(4)
    report = ps.husimi2_marginal_check(state, frame, rng, n_pairs=10,
                                       n_marginal=6)
    assert report["symmetry_defect"] < 1e-8
    assert report["marginal_defect"] < 1e-4


# ---------------------------------------------------------------------------
# Wigner and the bridge
# ---------------------------------------------------------------------------

def test_wigner_closed_form_and_positivity():
    # a centered packet keeps box-truncation tails below the tolerance
    grid = make_grid(d=1, M=128, L=12.0, hbar=0.5, N=1)
    q0 = -0.5625
    psi = mb.gaussian_orbital(grid, width=grid.hbar, x0=q0, p0=CENTER_P)
    kern = mb.gamma1(mb.ManyBodyState(grid, psi.copy()))
    wf = ps.wigner1(kern, grid)
    closed = ps.gaussian_wigner_closed_form(wf.qs, wf.ps, grid.hbar,
                                            q0, CENTER_P, grid.hbar)
    # away from the periodic-image ghost the lattice transform matches the
    # closed form; the ghost sits at the antipodal q
    near = np.abs(wf.qs - q0) < 2.5
    assert np.max(np.abs(wf.values[near] - closed[near])) < 1e-8
    assert wf.values[near].min() > -1e-10
    assert wf.canonical_mass() == pytest.approx(1.0, abs=1e-10)


def test_wigner_position_marginal(coherent_setup):
    grid, frame, kern = coherent_setup
    wf = ps.wigner1(kern, grid)
    marg = ps.wigner_position_marginal(wf)
    density = np.real(np.diag(kern.matrix))
    assert np.max(np.abs(marg - density)) < 1e-6


def test_bridge_defect_and_refinement(coherent_setup):
    grid, frame, kern = coherent_setup
    wf = ps.wigner1(kern, grid)
    base = ps.convolution_bridge_check(
        replace(wf, qs=wf.qs[::4], values=wf.values[::4]), kern, frame)
    fine = ps.convolution_bridge_check(
        replace(wf, qs=wf.qs[::2], values=wf.values[::2]), kern, frame)
    assert base["max_defect"] < 1e-4
    assert fine["max_defect"] * 3.0 <= base["max_defect"]


def test_bridge_refuses_non_gaussian_frame(coherent_setup):
    grid, _, kern = coherent_setup
    bump = ps.bump_frame(grid)
    wf = ps.wigner1(kern, grid)
    with pytest.raises(GridError, match="gaussian"):
        ps.convolution_bridge_check(wf, kern, bump)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_gaussian_closed_form():
    # packet far from q = 0 so the |q| kink quadrature error stays small
    grid = make_grid(d=1, M=128, L=12.0, hbar=0.5, N=1)
    frame = ps.gaussian_frame(grid)
    q0, p0, hbar = -2.4375, 0.8, grid.hbar
    psi = mb.gaussian_orbital(grid, width=hbar, x0=q0, p0=p0)
    kern = mb.gamma1(mb.ManyBodyState(grid, psi.copy()))
    field = ps.husimi1(kern, frame)
    mass, qmom, p2mom = ps.moments(field)
    mass_exact = 2.0 * np.pi * hbar
    sigma = np.sqrt(hbar)
    folded = (sigma * np.sqrt(2.0 / np.pi) * np.exp(-q0 ** 2 / (2 * sigma ** 2))
              + abs(q0) * erf(abs(q0) / (sigma * np.sqrt(2.0))))
    assert mass == pytest.approx(mass_exact, abs=1e-6)
    assert qmom == pytest.approx(mass_exact * folded, abs=1e-4)
    assert p2mom == pytest.approx(mass_exact * (hbar + p0 ** 2), abs=1e-4)


def test_free_evolution_preserves_p2_moment():
    grid = make_grid(d=1, M=128, L=20.0, hbar=0.5, N=1)
    frame = ps.gaussian_frame(grid)
    psi = mb.gaussian_orbital(grid, width=0.8, x0=-3.0, p0=1.0)
    st = mb.ManyBodyState(grid, psi.copy())
    f0 = ps.husimi1(mb.gamma1(st), frame)
    st2 = mb.propagate(st, Potential.zero(grid), dt=0.01, steps=100)
    f1 = ps.husimi1(mb.gamma1(st2), frame)
    assert ps.moments(f1)[2] == pytest.approx(ps.moments(f0)[2], abs=1e-6)


def test_moment_growth_check_interacting():
    grid = make_grid(d=1, M=64, L=12.0, hbar=0.5, N=2)
    frame = ps.gaussian_frame(grid)
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    traj = mb.propagate_trajectory(state, V, dt=0.004, steps=250,
                                   store_every=125)
    fields = [ps.husimi1(mb.gamma1(s), frame) for s in traj]
    report = ps.moment_growth_check(fields, [s.time for s in traj])
    assert np.isfinite(report["fitted_C"])
    assert report["fitted_C"] > 0


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


# ---------------------------------------------------------------------------
# localized number operator
# ---------------------------------------------------------------------------

def test_localized_number_is_ball_volume_times_n():
    grid = make_grid(d=1, M=128, L=12.0, hbar=0.5, N=1)
    psi = mb.gaussian_orbital(grid, width=0.9)
    kern = mb.gamma1(mb.ManyBodyState(grid, psi.copy()))
    out = ps.localized_number_check(kern, radius=1.0)
    assert out["value"] == pytest.approx(out["ball_volume"] * 1.0, rel=1e-10)


def test_localized_number_coupled_sweep_ratio():
    # hbar = 1/N preset; gamma1 of the Slater family without the N-body array
    ratios = []
    for N in (2, 4):
        grid = make_grid(d=1, M=128, L=12.0, hbar=1.0 / N, N=N,
                         budget=2 ** 30)
        hf = mf.MeanFieldState(grid, np.array(mf.hermite_orbitals(grid, N)))
        out = ps.localized_number_check(hf.omega_kernel(), radius=1.0)
        ratios.append(out["ratio_to_scale"])
    assert max(ratios) / min(ratios) < 2.0


def test_localized_number_doubling_radius():
    grid = make_grid(d=1, M=128, L=12.0, hbar=0.5, N=2)
    state = mb.build_slater(grid, mf.hermite_orbitals(grid, 2))
    kern = mb.gamma1(state)
    small = ps.localized_number_check(kern, radius=1.0)["value"]
    large = ps.localized_number_check(kern, radius=2.0)["value"]
    assert large <= 2.0 ** grid.d * small * (1.0 + 2.0 * grid.dx)
    assert large >= small  # monotone in R
