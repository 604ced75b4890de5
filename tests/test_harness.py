import json
import warnings
import weakref

import numpy as np
import pytest

from husimilab import harness
from husimilab import manybody as mb
from husimilab import phasespace as ps
from husimilab.grid import GridError

XS = [0.5, 0.25, 0.125, 0.0625]


def test_log_log_fit_recovers_a_power_law():
    xs = np.array(XS)
    slope, r2 = ps.log_log_fit(xs, 3.0 * xs ** 0.5)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_reads_records_through_the_shared_fit():
    records = [{"hbar": x, "kinetic": 3.0 * x ** 0.5} for x in XS]
    slope, r2 = harness.fit_slope(records, "hbar", "kinetic")
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_refuses_two_records():
    records = [{"hbar": x, "kinetic": x} for x in XS[:2]]
    with pytest.raises(GridError, match="at least 3"):
        harness.fit_slope(records, "hbar", "kinetic")


def test_fit_slope_refuses_a_non_positive_value():
    records = [{"hbar": x, "kinetic": x} for x in XS]
    records[2]["kinetic"] = 0.0
    with pytest.raises(GridError, match=r"indices \[2\]"):
        harness.fit_slope(records, "hbar", "kinetic")


def test_from_dict_refuses_a_config_holding_d():
    old = dict(harness.RunConfig().to_dict(), d=1)
    with pytest.raises(GridError, match=r"unknown config keys \['d'\]"):
        harness.RunConfig.from_dict(old)


@pytest.mark.parametrize("horizon, dt, nearest", [(0.03, 0.02, "0.02, 0.04"),
                                                  (0.0, 0.02, "0.02"),
                                                  (0.001, 0.002, "0.002")])
def test_a_horizon_off_the_dt_lattice_is_refused(horizon, dt, nearest):
    """The N-body and HF stages take horizon / dt steps and the Vlasov
    stage ends at the horizon, so a horizon that is no positive whole
    number of steps would end them at different times."""
    with pytest.raises(GridError, match=f"horizons that are: {nearest}$"):
        harness.RunConfig(horizon=horizon, dt=dt)


@pytest.mark.parametrize("dt", [0.0, -0.002, float("nan")])
def test_a_non_positive_dt_is_refused(dt):
    with pytest.raises(GridError, match="dt > 0"):
        harness.RunConfig(dt=dt)


def test_a_horizon_on_the_dt_lattice_passes_despite_rounding():
    assert 0.3 / 0.1 != 3.0
    harness.RunConfig(horizon=0.3, dt=0.1)


def test_decoupled_sweep_configs_are_n_major_and_leave_base():
    base = harness.RunConfig(M=32, seed=5)
    before = base.to_dict()
    configs = harness.decoupled_sweep_configs(base, hbars=(0.5, 0.25),
                                              Ns=(2, 3))
    assert [(c.N, c.hbar) for c in configs] == [(2, 0.5), (2, 0.25),
                                                (3, 0.5), (3, 0.25)]
    for cfg in configs:
        rest = {k: v for k, v in cfg.to_dict().items()
                if k not in ("N", "hbar")}
        assert rest == {k: v for k, v in before.items()
                        if k not in ("N", "hbar")}
        assert cfg.potential is not base.potential
    assert base.to_dict() == before


def _write_summary(run_dir, N, hbar, kinetic, semiclassical, meanfield):
    run_dir.mkdir()
    (run_dir / "summary.json").write_text(json.dumps({
        "config": {"N": N, "hbar": hbar},
        "pairings": {"kinetic": kinetic, "semiclassical": semiclassical,
                     "meanfield": meanfield},
        "all_passed": True,
        "husimi_vlasov": {"l1": 0.1}}))
    return run_dir


def test_aggregate_sweep_reports_slope_and_headline_ratio(tmp_path):
    """Three coupled points, hbar = 1/N, with the kinetic pairing
    3 hbar^0.5 and the paper's ratios 1.02, 0.55, 0.39 at t = 0.1."""
    ratios = {2: 1.02, 3: 0.55, 4: 0.39}
    dirs = [_write_summary(tmp_path / f"run{n}", n, 1.0 / n,
                           3.0 * n ** -0.5, 2e-3 / n, 2e-3 / n * ratio)
            for n, ratio in ratios.items()]
    report = harness.aggregate_sweep(dirs[::-1])
    assert [r["N"] for r in report["rows"]] == [2, 3, 4]
    for row in report["rows"]:
        assert row["meanfield_over_semiclassical"] == pytest.approx(
            ratios[row["N"]], rel=1e-12)
    assert report["slope_kinetic"]["measured"] == pytest.approx(0.5,
                                                                abs=1e-12)
    assert report["slope_kinetic"]["r2"] == pytest.approx(1.0, abs=1e-12)
    assert report["meanfield_over_semiclassical_decreasing_in_N"] is True
    # at N = 2 the mean-field pairing is the larger one
    assert report["meanfield_below_semiclassical"] is False


def test_aggregate_sweep_flags_a_ratio_that_grows(tmp_path):
    dirs = [_write_summary(tmp_path / "run1", 1, 1.0, 3.0, 0.0, 0.0),
            _write_summary(tmp_path / "run2", 2, 0.5, 2.0, 1e-3, 4e-4),
            _write_summary(tmp_path / "run3", 3, 1 / 3, 1.7, 1e-3, 5e-4)]
    report = harness.aggregate_sweep(dirs)
    assert report["rows"][0]["meanfield_over_semiclassical"] is None
    assert report["meanfield_over_semiclassical_decreasing_in_N"] is False
    assert report["meanfield_below_semiclassical"] is True


def test_default_run_builds_one_flow_and_no_grid_export(tmp_path,
                                                        monkeypatch):
    """Propagation, both energies and d/dt a at the residue snapshot share
    one H, which is freed before the residue pass starts; the Hermite
    state and the states it evolves to lie in one parity block, so H is
    built on that block alone.  No step of a run exports grid
    amplitudes."""
    cfg = harness.RunConfig()
    counts = {"flow": 0, "block": 0, "export": 0}
    flows, alive_at_residues = [], []
    build, export = mb.SlaterFlow.__init__, mb.ManyBodyState.to_grid
    build_block = mb.SlaterFlow._build
    residues = harness.rs.snapshot_residues

    def counted_build(self, *args):
        counts["flow"] += 1
        flows.append(weakref.ref(self))
        build(self, *args)

    def counted_block(self, *args):
        counts["block"] += 1
        build_block(self, *args)

    def counted_export(self):
        counts["export"] += 1
        return export(self)

    def residues_after_the_flow(*args):
        alive_at_residues.extend(ref() is not None for ref in flows)
        return residues(*args)

    monkeypatch.setattr(mb.SlaterFlow, "__init__", counted_build)
    monkeypatch.setattr(mb.SlaterFlow, "_build", counted_block)
    monkeypatch.setattr(mb.ManyBodyState, "to_grid", counted_export)
    monkeypatch.setattr(harness.rs, "snapshot_residues",
                        residues_after_the_flow)
    harness.run_experiment(cfg, tmp_path / "run")
    assert counts == {"flow": 1, "block": 1, "export": 0}
    assert alive_at_residues == [False]


def _records(run_dir) -> dict:
    summary = json.loads((run_dir / "summary.json").read_text())
    return {r["observable"]: r for r in summary["records"]}


@pytest.mark.parametrize("point", [{}, {"N": 3, "hbar": 1.0 / 3.0}],
                         ids=["N2", "N3"])
def test_a_one_step_run_passes_its_hard_checks(point, tmp_path):
    """With one N-body step the residue snapshot is at T/2, not at t = 0,
    where every paired term of the Hermite state is at rounding level and
    the relative consistency defect reads about 1."""
    cfg = harness.RunConfig(horizon=0.002, **point)
    records = _records(harness.run_experiment(cfg, tmp_path / "run"))
    assert all(r["passed"] for r in records.values())
    assert records["consistency_defect_rel"]["t"] == 0.001


def test_hf_and_vlasov_end_records_sit_at_the_n_body_end_time(tmp_path):
    """Each stage's end time is its start plus dt * steps, so all end
    records read t = 0.02; ten steps of 0.002 summed one by one would
    read 0.020000000000000004."""
    records = _records(harness.run_experiment(
        harness.RunConfig(horizon=0.02), tmp_path / "run"))
    assert {records[name]["t"] for name in (
        "norm_drift", "hf_trace_drift", "hf_energy_drift_rate",
        "vlasov_mass_drift", "vlasov_energy_drift_rate")} == {0.02}


def test_an_undersampled_run_warns_once(tmp_path):
    """The run builds one natural lattice and hands it to both Husimi
    transforms, so an undersampled one (dq = 12/16 > sqrt(1/2) at M = 16)
    warns once, even when every warning is shown.  The run fails its hard
    checks on that lattice."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="hard checks failed"):
            harness.run_experiment(harness.RunConfig(M=16, horizon=0.02),
                                   tmp_path / "run")
    assert [str(w.message) for w in caught] == [
        "phase-space lattice coarser than sqrt(hbar); transform undersampled"]


@pytest.mark.parametrize("horizon, dt, vsteps", [(0.03, 0.03, 2),
                                                 (0.05, 0.05, 3),
                                                 (0.2, 0.002, 100)])
def test_vlasov_steps_stay_inside_the_cfl_limit(horizon, dt, vsteps,
                                                tmp_path):
    """The Vlasov stepper takes the fewest steps no longer than dt and 0.9
    of the CFL step (0.0224 at L = 12, M = 64, hbar = 1/2); the mass-drift
    tolerance, 1e-8 per step, shows the count."""
    cfg = harness.RunConfig(horizon=horizon, dt=dt)
    records = _records(harness.run_experiment(cfg, tmp_path / "run"))
    assert records["vlasov_mass_drift"]["tolerance"] == 1e-8 * vsteps
    assert records["vlasov_energy_drift_rate"]["passed"]
