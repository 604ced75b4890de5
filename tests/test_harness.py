import json

import numpy as np
import pytest

from husimilab import harness
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
