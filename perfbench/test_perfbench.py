"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke(name):
    """One untraced and one traced operation of each workload, tiny sizes."""
    rep = run.measure(run.Bench(tiny=True), name, seed=0, seconds=0.0,
                      trace=True)
    assert rep["correct"], rep["notes"]
    assert rep["attempted"] == 2 * workloads.WORKLOADS[name].batch
    assert all(value > 0 for value in rep["metrics"].values())
    assert set(rep["layers"]) >= set(tracing.PER_LAYER)
    assert rep["layers"]["trace.spans"] > 0
    assert rep["spans"]
    line = run.result_line([rep], trace=True)
    assert set(line["metrics"]) == set(rep["layers"])


@pytest.mark.parametrize("name", ["simulate_n2", "simulate_n3"])
def test_step_counts_at_seed_0(name):
    """The wrappers catch every step, including calls inside a module."""
    op = run.Bench().run_op(name, seed=0, traced=True)
    layers = op["layers"]
    assert layers["manybody.propagate_steps"] == 200
    assert layers["meanfield.hf_steps"] == 100
    assert layers["meanfield.vlasov_steps"] == 100
    assert run.accounted(op)
    # the default config fails hf_energy_drift_rate; it must show
    assert op["correct"] and op["failed"]
    assert "hf_energy_drift_rate" in op["failing"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    # with 20 samples no percentile above the median has ten beyond it
    assert run.tail([float(i) for i in range(1, 21)]) == (20.0, 100.0)
    value, percentile = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and abs(percentile - 200.0 / 3.0) < 1e-9


def test_seed_draws_amplitudes_within_a_quarter():
    assert workloads.amplitudes(0) == [0.4, 0.15]
    for seed in range(1, 20):
        amps = workloads.amplitudes(seed)
        assert amps == workloads.amplitudes(seed)
        for a, default in zip(amps, workloads.DEFAULT_AMPLITUDES):
            assert 0.75 * default <= a <= 1.25 * default


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock_check",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
