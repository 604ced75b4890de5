import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from husimilab import cli, harness
from husimilab import manybody as mb
from husimilab import phasespace as ps
from husimilab import residues as rs
from husimilab import snapshots as io
from husimilab.grid import GridError, Potential, bump_test_function, make_grid

import grid_oracles as go

PHI_Q = {"center": 0.0, "radius": 3.5, "s": 3}
PHI_P = {"center": 0.0, "radius": 2.0, "s": 3}

# (N, hbar) on M=64, L=12 boxes, where the Husimi field has no mass on the
# box edges; the N >= 2 points follow the coupling hbar = 1/N of the sweeps
POINTS = [(1, 0.5), (2, 0.5), (3, 1.0 / 3.0)]


def _snapshot(n, hbar, family="hermite"):
    """A state at t = 0.02, its adot = H a / (i hbar), the frame and V."""
    grid = make_grid(M=64, L=12.0, hbar=hbar, N=n)
    potential = harness.build_potential(
        grid, {"kind": "cosine", "amplitudes": [0.4, 0.15]})
    frame = harness.build_frame(grid, "gaussian")
    state = mb.build_slater(grid, harness.build_orbitals(grid, family, None))
    state = mb.propagate(state, potential, 0.002, 10)
    adot = mb.SlaterFlow(grid, potential).time_derivative(state)
    return state, adot, frame, potential


# plane-wave orbitals: gamma1 reaches across the whole box, so the
# segment average must take the short way round the torus
@pytest.mark.parametrize("n, hbar, family",
                         [pytest.param(n, hbar, "hermite", id=f"{n}-{hbar}")
                          for n, hbar in POINTS]
                         + [(2, 0.5, "plane_wave"),
                            (3, 1.0 / 3.0, "plane_wave")])
def test_consistency_defect_at_rounding_level(n, hbar, family):
    state, adot, frame, potential = _snapshot(n, hbar, family)
    fields, report = rs.snapshot_residues(
        state, adot, frame, potential, ps.natural_lattice(state.grid), PHI_Q,
        PHI_P)
    assert report.consistency_defect_rel < 1e-12
    assert (fields.interaction is None) == (n == 1)
    if n == 1:
        assert report.pairing_semiclassical == report.pairing_meanfield == 0


@pytest.mark.parametrize("n, hbar", POINTS[1:])
def test_consistency_defect_sees_a_missing_meanfield_residue(n, hbar):
    state, adot, frame, potential = _snapshot(n, hbar)
    fields, _ = rs.snapshot_residues(
        state, adot, frame, potential, ps.natural_lattice(state.grid), PHI_Q,
        PHI_P)
    fields.interaction.meanfield[:] = 0.0
    lattice = fields.husimi.lattice
    cons = rs.reformulation_consistency(
        fields, potential,
        bump_test_function(lattice.qs, **PHI_Q),
        bump_test_function(lattice.ps, **PHI_P))
    assert cons["defect_rel"] > 1e-3


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("M, block", [(8, 8), (16, 8), (8, 3), (16, 3)])
def test_gamma2_partial_hat_matches_the_whole_partial_diag(N, M, block,
                                                           monkeypatch):
    """The w2-transform summed over y blocks equals the phases contracted
    with the whole A, on a random antisymmetric state that is no Slater
    determinant; a block of 3 leaves a last block of 2 or 1 y values."""
    monkeypatch.setattr(mb, "_Y_BLOCK", block)
    grid = make_grid(M=M, L=6.0, hbar=1.0 / N, N=N)
    rng = np.random.default_rng(10 * N + M)
    psi = go.antisymmetrized(rng.standard_normal((M,) * N)
                             + 1j * rng.standard_normal((M,) * N))
    state = go.from_grid(grid, psi / np.sqrt(np.sum(np.abs(psi) ** 2)
                                             * grid.dx ** N))
    _, ks, _ = Potential.cosine(grid, [0.4, 0.15]).modes()
    phases = np.exp(-1j * np.outer(grid.axis_points(), ks))
    want = np.matmul(go.gamma2_partial_diag(state), phases) * grid.dx
    got = rs._gamma2_partial_hat(state, ks)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_residue_pass_holds_no_m_cubed_array():
    """The traced peak of a residue pass at (N, M) = (2, 128) stays below
    a quarter of the 33.5 MB that A = gamma2(u, y; w, y) would take."""
    M = 128
    grid = make_grid(M=M, L=12.0, hbar=0.5, N=2)
    potential = harness.build_potential(
        grid, {"kind": "cosine", "amplitudes": [0.4, 0.15]})
    frame = harness.build_frame(grid, "gaussian")
    state = mb.build_slater(grid, harness.build_orbitals(grid, "hermite",
                                                         None))
    adot = mb.SlaterFlow(grid, potential).time_derivative(state)
    lattice = ps.natural_lattice(grid)
    tracemalloc.start()
    try:
        rs.snapshot_residues(state, adot, frame, potential, lattice, PHI_Q,
                             PHI_P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < M ** 3 * 16 / 4


def _direct_interaction_residues(state, frame, potential):
    """Rs and Rm of the module docstring, summed directly over
    (u1, w1, w2) at every point of the natural lattice.  S is the
    difference quotient (V(u1 - w2) - V(w1 - w2)) / d of
    `Potential.evaluate` over the torus separation d of u1 and w1, and
    `Potential.evaluate_grad` at d = 0; D the gradient smeared by the
    squared window, A `gamma2_partial_diag` and gamma1 `gamma1`."""
    g = state.grid
    x = g.axis_points()
    A = go.gamma2_partial_diag(state)
    gam = mb.gamma1(state).matrix
    product = gam[:, :, None] * np.real(np.diag(gam))[None, None, :]
    u, w, y = np.meshgrid(x, x, x, indexing="ij")
    offsets = ps._centered_offsets(g)
    idx = np.arange(g.M)
    d = offsets[(idx[:, None] - idx[None, :]) % g.M][:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        S = np.where(d == 0, potential.evaluate_grad(u - y),
                     (potential.evaluate(u - y) - potential.evaluate(w - y))
                     / d)
    lattice = ps.natural_lattice(g)
    fields = np.empty((2, len(lattice.qs), len(lattice.ps)))
    for a, q in enumerate(lattice.qs):
        D = (frame.window ** 2 * g.dx) @ potential.evaluate_grad(
            q + offsets[:, None] - x[None, :])  # D(q, w2)
        F = ps._coherent_state(frame, q, lattice.ps)  # F[p, x] = f_qp(x)
        kernels = (np.sum((S - D) * A, axis=2),
                   np.sum(D * (A - product), axis=2))
        for field, kernel in zip(fields, kernels):
            field[a] = np.einsum("pu,uw,pw->p", F.conj(), kernel, F).real
    return fields * g.dx ** 3 / g.N


@pytest.mark.parametrize("n", [2, 3])
def test_interaction_residues_match_direct_quadrature(n):
    """Rs and Rm each against the direct sums at t > 0, where the paired
    terms are not at rounding level: a term moved from one residue to the
    other leaves their sum, and so the consistency defect, unchanged."""
    grid = make_grid(M=16, L=8.0, hbar=1.0 / n, N=n)
    potential = harness.build_potential(
        grid, {"kind": "cosine", "amplitudes": [0.4, 0.15]})
    frame = harness.build_frame(grid, "gaussian")
    state = mb.build_slater(grid, harness.build_orbitals(grid, "hermite",
                                                         None))
    state = mb.propagate(state, potential, 0.01, 5)
    kern = mb.gamma1(state)
    b1 = ps.bilinear_phase_field(kern.matrix, frame.window, frame.window, grid)
    got = rs.interaction_residue_fields(state, kern, b1, frame, potential)
    for field, want in zip((got.semiclassical, got.meanfield),
                           _direct_interaction_residues(state, frame,
                                                        potential)):
        assert np.max(np.abs(field - want)) <= 1e-12 * np.max(np.abs(want))


def test_cli_simulate_then_residues_on_the_final_state(tmp_path):
    cfg = harness.RunConfig(horizon=0.02)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(path), "--out",
                     str(run)]) == 0
    summary = json.loads((run / "summary.json").read_text())
    assert "consistency_defect_rel" in {r["observable"]
                                        for r in summary["records"]}
    out = tmp_path / "residues.json"
    assert cli.main(["residues", str(run / "state_final.husi"), "--box",
                     str(cfg.L), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert math.isfinite(rep["consistency_defect"])
    assert rep["consistency_defect_rel"] < 1e-12
    assert rep["t"] == pytest.approx(cfg.horizon)
    transformed = tmp_path / "transform"
    assert cli.main(["transform", str(run / "state_final.husi"), "--box",
                     str(cfg.L), "--out", str(transformed)]) == 0
    for name in ("husimi.husi", "husimi.csv", "wigner.csv"):
        assert (transformed / name).is_file()
    report = tmp_path / "report.json"
    assert cli.main(["report", str(run), "--out", str(report)]) == 0
    (row,) = json.loads(report.read_text())["rows"]
    assert row["all_passed"] is True


@pytest.mark.parametrize("argv, message", [
    (["fock-check", "--instances", "-1"], "instance count"),
    (["fock-check", "--modes", "0"], "mode count"),
    (["residues", "STATE", "--box", "12", "--potential", "nope"], "nope"),
    (["simulate", "--config", "M48"], "M not power of two"),
    (["simulate", "--config", "FAMILY"], "orbital family 'nope'"),
    (["residues", "SHORT", "--box", "12"], "shorter than the 32-byte header"),
    (["transform", "SHORT", "--box", "12"], "shorter than the 32-byte header"),
    (["residues", "MAGIC", "--box", "12"], "bad magic b'NOPE'"),
    (["transform", "MAGIC", "--box", "12"], "bad magic b'NOPE'"),
    (["simulate", "--config", "NOTJSON"], "cannot read config"),
    (["simulate", "--config", "MISSING"], "cannot read config"),
    (["simulate", "--config", "MSTR"], "M='64' is not int"),
    (["simulate", "--config", "NFLOAT"], "N=2.5 is not int"),
    (["simulate", "--config", "WIDE"], "crosses the periodic boundary"),
    (["simulate", "--config", "SPECKEY"], "unexpected keyword argument"),
    (["residues", "MISSING", "--box", "12"], "cannot read snapshot"),
    (["transform", "MISSING", "--box", "12"], "cannot read snapshot"),
    (["residues", "STATE", "--box", "12", "--phi-q-radius", "6.5"],
     "crosses the periodic boundary"),
    (["simulate", "--config", "HORIZON"], "horizons that are: 0.02, 0.04"),
    (["residues", "STATE", "--box", "12", "--potential", "zero",
      "--amplitude", "3"], "--amplitude"),
    (["simulate", "--config", "AMPKEY"], "cosine spec holds kind, amplitudes"),
    (["simulate", "--config", "NOKIND"], "kind None is not one of zero, "),
    (["simulate", "--config", "AMPSTR"], "could not convert string to float"),
    (["simulate", "--config", "WIDTH0"], "width must be positive, got 0"),
    (["simulate", "--config", "SEED"], "seed=-1 is negative"),
    (["simulate", "--seed", "-1"], "seed=-1 is negative"),
    (["report", "NORUN"], "NORUN holds no summary.json"),
    (["report", "FAILEDRUN"],
     "holds no summary.json; its run failed: RuntimeError: hard checks"),
])
def test_cli_refused_input_exits_with_status_2(argv, message, tmp_path,
                                               capsys, monkeypatch):
    """Refused input exits 2, as argparse's usage errors do, with one
    message line on stderr, and writes no report and no run directory.
    The inputs: a valid state, a 7-byte file, a 32-byte header with a bad
    magic, a path that does not exist, a config that is no JSON, and
    configs with a lattice size, an orbital family, a value type, a
    test function (one whose support crosses the box, one with a key the
    bump does not take), a horizon off the dt lattice, a potential spec
    (a key its constructor does not take, no kind, an amplitude that is
    no number, a zero width) and a negative seed that a run refuses
    before any compute, an amplitude for a zero V, and run directories
    with no summary (one empty, one whose run failed).  Every refusal
    comes before any flow is built: a `SlaterFlow` fails the case."""
    def no_flow(*args, **kwargs):
        raise AssertionError("a SlaterFlow was built before the refusal")

    monkeypatch.setattr(mb.SlaterFlow, "__init__", no_flow)
    grid = make_grid(M=16, L=12.0, hbar=0.5, N=2)
    inputs = {name: tmp_path / name
              for name in ("STATE", "SHORT", "MAGIC", "M48", "FAMILY",
                           "NOTJSON", "MISSING", "MSTR", "NFLOAT", "WIDE",
                           "SPECKEY", "HORIZON", "AMPKEY", "NOKIND",
                           "AMPSTR", "WIDTH0", "SEED", "NORUN",
                           "FAILEDRUN")}
    io.write_state(inputs["STATE"], mb.build_slater(
        grid, harness.build_orbitals(grid, "hermite", None)))
    inputs["SHORT"].write_bytes(io.MAGIC + b"\x02\x00\x01")
    inputs["MAGIC"].write_bytes(io.HEADER.pack(b"NOPE", 2, 1, 16, 2, 0.0,
                                               0.5))
    inputs["M48"].write_text(json.dumps({"M": 48}))
    inputs["FAMILY"].write_text(json.dumps({"orbital_family": "nope"}))
    inputs["NOTJSON"].write_text("{M: 64")
    inputs["MSTR"].write_text(json.dumps({"M": "64"}))
    inputs["NFLOAT"].write_text(json.dumps({"N": 2.5}))
    inputs["WIDE"].write_text(json.dumps(
        {"phi_q": {"center": 0.0, "radius": 6.5, "s": 3}}))
    inputs["SPECKEY"].write_text(json.dumps(
        {"phi_q": {"center": 0.0, "radius": 3.5, "s": 3, "width": 1.0}}))
    inputs["HORIZON"].write_text(json.dumps({"horizon": 0.03, "dt": 0.02}))
    for name, spec in (("AMPKEY", {"kind": "cosine", "amplitude": [0.3]}),
                       ("NOKIND", {"amplitudes": [0.4]}),
                       ("AMPSTR", {"kind": "cosine", "amplitudes": ["x"]}),
                       ("WIDTH0", {"kind": "gaussian_bump", "width": 0})):
        inputs[name].write_text(json.dumps({"potential": spec}))
    inputs["SEED"].write_text(json.dumps({"seed": -1}))
    inputs["NORUN"].mkdir()
    inputs["FAILEDRUN"].mkdir()
    (inputs["FAILEDRUN"] / "FAILED").write_text(
        "RuntimeError: hard checks failed: ['norm_drift']\n")
    out = tmp_path / "out"
    argv = [str(inputs[a]) if a in inputs else a for a in argv]
    assert cli.main(argv + ["--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"husimilab {argv[0]}: error: ")
    assert message in line
    assert not out.exists()


def test_cli_residues_warns_once_on_an_undersampled_lattice(tmp_path):
    """The command builds one natural lattice and hands it on, so an
    undersampled one (dq = 12/16 > sqrt(1/2) at M = 16, L = 12, hbar =
    1/2) warns once, even when every warning is shown."""
    grid = make_grid(M=16, L=12.0, hbar=0.5, N=2)
    state = tmp_path / "state.husi"
    io.write_state(state, mb.build_slater(
        grid, harness.build_orbitals(grid, "hermite", None)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["residues", str(state), "--box", "12", "--out",
                         str(tmp_path / "residues.json")]) == 0
    assert [str(w.message) for w in caught] == [
        "phase-space lattice coarser than sqrt(hbar); transform undersampled"]


def test_cli_residues_reads_a_gaussian_bump_amplitude(tmp_path):
    """`--amplitude` sets the one amplitude of a gaussian_bump V, so two
    amplitudes give two mean-field pairings; more than one value exits
    2 and names the flag."""
    grid = make_grid(M=32, L=12.0, hbar=0.5, N=2)
    V = Potential.gaussian_bump(grid, 0.8, 1.5)
    state = tmp_path / "state.husi"
    io.write_state(state, mb.propagate(mb.build_slater(
        grid, harness.build_orbitals(grid, "hermite", None)), V, 0.01, 2))
    pairings = []
    for amplitude in ("0.8", "2.0"):
        out = tmp_path / f"residues_{amplitude}.json"
        assert cli.main(["residues", str(state), "--box", "12",
                         "--potential", "gaussian_bump", "--amplitude",
                         amplitude, "--out", str(out)]) == 0
        pairings.append(json.loads(out.read_text())["pairing_meanfield"])
    assert pairings[0] != pairings[1]
    assert cli.main(["residues", str(state), "--box", "12", "--potential",
                     "gaussian_bump", "--amplitude", "0.8", "2.0", "--out",
                     str(tmp_path / "two.json")]) == 2
    assert not (tmp_path / "two.json").exists()


def test_cli_residues_amplitude_needs_a_value(tmp_path, capsys):
    """`--amplitude` with no value is argparse's usage error: exit 2,
    naming the flag, before the command reads its state or builds a
    flow."""
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["residues", "STATE", "--box", "12", "--amplitude",
                  "--out", str(out)])
    assert exit_.value.code == 2
    assert "argument --amplitude" in capsys.readouterr().err
    assert not out.exists()


def test_run_config_rejects_unknown_keys():
    with pytest.raises(GridError, match="fd_dt"):
        harness.RunConfig.from_dict({"fd_dt": 0.002})
    cfg = harness.RunConfig(N=3, seed=4)
    assert harness.RunConfig.from_dict(cfg.to_dict()) == cfg
