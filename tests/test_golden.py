"""Golden regression test of `summary.json` at two small run points.

The fixtures in `tests/golden/` hold the `summary.json` of a horizon-0.02
run at the default config and at the N = 3, hbar = 1/3 coupled point.
Every leaf is compared: keys, strings and booleans exactly, numbers to
|a - b| <= 1e-9 |a| + 1e-12 with a the fixture value.

`snapshot_hashes` and `config_hash` are left out of the fixtures and of
the comparison: the snapshot hashes change in their last bits whenever
the FFT backend does, and the config hash only restates the config,
which is compared leaf by leaf.

Regenerate the fixtures, from a commit whose outputs are trusted, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from husimilab import harness

GOLDEN = Path(__file__).parent / "golden"
UNCOMPARED = ("snapshot_hashes", "config_hash")
REL, ABS = 1e-9, 1e-12


def _configs() -> dict:
    base = harness.RunConfig(horizon=0.02)
    (n3,) = harness.coupled_sweep_configs(base, Ns=(3,))
    return {"default": base, "n3_hbar_third": n3}


def _summary(cfg: harness.RunConfig, outdir: Path) -> dict:
    harness.run_experiment(cfg, outdir)
    summary = json.loads((outdir / "summary.json").read_text())
    for key in UNCOMPARED:
        summary.pop(key)
    return summary


def _mismatches(expected, got, path: str = "") -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return [f"{path}: keys {sorted(expected)} != "
                    f"{sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for key in expected
                for m in _mismatches(expected[key], got[key], f"{path}/{key}")]
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return [f"{path}: {got!r} is not a list of {len(expected)}"]
        return [m for i, (a, b) in enumerate(zip(expected, got))
                for m in _mismatches(a, b, f"{path}[{i}]")]
    if isinstance(expected, bool) or isinstance(got, bool) \
            or not isinstance(expected, (int, float)):
        return [] if expected == got and type(expected) is type(got) \
            else [f"{path}: {got!r} != {expected!r}"]
    if not isinstance(got, (int, float)) \
            or abs(expected - got) > REL * abs(expected) + ABS:
        return [f"{path}: {got!r} != {expected!r}"]
    return []


@pytest.mark.parametrize("name", sorted(_configs()))
def test_summary_matches_golden(name, tmp_path):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    got = _summary(_configs()[name], tmp_path / name)
    assert _mismatches(expected, got) == []


def regenerate() -> None:
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in _configs().items():
            summary = _summary(cfg, Path(tmp) / name)
            (GOLDEN / f"{name}.json").write_text(
                json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
