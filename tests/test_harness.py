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
