"""The four workloads: inputs made from a seed, the CLI commands of one
operation, and the checks of their outputs.

Sizes are fixed.  The seed sets `RunConfig.seed` and draws the two cosine
amplitudes within +-25% of the default, which changes values but not the
amount of work; seed 0 keeps the default amplitudes exactly.

`setup` runs in the worker process after the imports and returns the
argument lists of the `husimilab` commands that make one operation.
`check` reads what they wrote and returns the verdict: `failed` when a
command raised, exited non-zero or recorded a failed hard check;
`correct` when every output the benchmark checks holds.
"""

from __future__ import annotations

import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_AMPLITUDES = (0.4, 0.15)
BOX = 12.0
FOCK_TOL = 1e-10  # the bound `husimilab fock-check` holds its ratios to


def amplitudes(seed: int) -> list[float]:
    if seed == 0:
        return list(DEFAULT_AMPLITUDES)
    rng = random.Random(seed)
    return [a * rng.uniform(0.75, 1.25) for a in DEFAULT_AMPLITUDES]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: int  # operations averaged into one run_s sample
    setup: Callable[[int, Path, bool], list[list[str]]]
    check: Callable[[Path, list[dict]], dict]


def _command_failed(outcome: dict) -> bool:
    return outcome["error"] is not None or outcome["rc"] != 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_setup(n_particles: int):
    def setup(seed: int, work: Path, tiny: bool) -> list[list[str]]:
        from husimilab import harness
        cfg = harness.RunConfig(M=32 if tiny else 64, seed=seed, potential={
            "kind": "cosine", "amplitudes": amplitudes(seed)})
        if n_particles != cfg.N:
            (cfg,) = harness.coupled_sweep_configs(cfg, Ns=(n_particles,))
        path = work / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        return [["simulate", "--config", str(path), "--seed", str(seed),
                 "--out", str(work / "run")]]
    return setup


def _simulate_check(work: Path, outcomes: list[dict]) -> dict:
    (outcome,) = outcomes
    path = work / "run" / "summary.json"
    if not path.exists():
        return {"correct": False, "failed": True, "checks_failed": 0,
                "failing": [], "note": f"no summary.json: {outcome['error']}"}
    summary = json.loads(path.read_text())
    records = summary["records"]
    failing = [r["observable"] for r in records if not r["passed"]]
    values = ([r["value"] for r in records]
              + list(summary["pairings"].values()))
    finite = all(math.isfinite(v) for v in values)
    # run_experiment raises exactly when a hard check failed
    consistent = (bool(records) and summary["all_passed"] == (not failing)
                  and _command_failed(outcome) == bool(failing))
    return {"correct": finite and consistent,
            "failed": _command_failed(outcome) or bool(failing),
            "checks_failed": len(failing), "failing": failing,
            "note": "" if finite and consistent else
            f"finite={finite} consistent={consistent} "
            f"error={outcome['error']}"}


# ---------------------------------------------------------------------------
# transform + residues on one stored snapshot
# ---------------------------------------------------------------------------

def _analyze_setup(seed: int, work: Path, tiny: bool) -> list[list[str]]:
    from husimilab import harness, manybody, meanfield, snapshots
    from husimilab.grid import make_grid
    amps = amplitudes(seed)
    grid = make_grid(d=1, M=32 if tiny else 256, L=BOX, hbar=0.5, N=2)
    potential = harness.build_potential(grid, {"kind": "cosine",
                                               "amplitudes": amps})
    state = manybody.build_slater(grid, meanfield.hermite_orbitals(grid, 2))
    state = manybody.propagate(state, potential, 0.002, 50)
    snap = work / "snapshot.husi"
    snapshots.write_state(snap, state)
    return [["transform", str(snap), "--box", str(BOX),
             "--out", str(work / "transform")],
            ["residues", str(snap), "--box", str(BOX),
             "--amplitude", *map(repr, amps),
             "--out", str(work / "residues.json")]]


def _husimi_canonical_mass(path: Path) -> float:
    """Sum of a stored natural-lattice Husimi field over (2 pi hbar).

    The cell of the natural lattice is (L/M)(2 pi hbar/L), so the
    canonical mass is the plain sum over the M q rows divided by M.
    """
    import numpy as np
    raw = path.read_bytes()
    _, _, _, nq, npts, _, _ = struct.unpack("<4sHHIIdd", raw[:32])
    values = np.frombuffer(raw[32:], dtype="<c16").real
    if values.size != nq * npts:
        return math.nan
    return float(values.sum()) / nq


def _analyze_check(work: Path, outcomes: list[dict]) -> dict:
    failed = any(_command_failed(o) for o in outcomes)
    problems = []
    husimi = work / "transform" / "husimi.husi"
    if husimi.exists():
        mass = _husimi_canonical_mass(husimi)
        if not abs(mass - 2.0) <= 1e-4:
            problems.append(f"husimi canonical mass {mass!r} != 2")
    else:
        problems.append("no husimi.husi")
    for name in ("husimi.csv", "wigner.csv"):
        path = work / "transform" / name
        if not path.exists() or path.stat().st_size == 0:
            problems.append(f"no {name}")
    report = work / "residues.json"
    if report.exists():
        rep = json.loads(report.read_text())
        for key in ("pairing_kinetic", "pairing_semiclassical",
                    "pairing_meanfield"):
            if not math.isfinite(rep[key]):
                problems.append(f"{key} = {rep[key]}")
    else:
        problems.append("no residues.json")
    return {"correct": not problems, "failed": failed, "checks_failed": 0,
            "failing": [], "note": "; ".join(problems)}


# ---------------------------------------------------------------------------
# fock-check
# ---------------------------------------------------------------------------

def _fock_setup(seed: int, work: Path, tiny: bool) -> list[list[str]]:
    size = ["--modes", "4", "--instances", "10"] if tiny else []
    return [["fock-check", "--seed", str(seed), *size,
             "--out", str(work / "fock_check.json")]]


def _fock_check(work: Path, outcomes: list[dict]) -> dict:
    (outcome,) = outcomes
    path = work / "fock_check.json"
    if not path.exists():
        return {"correct": False, "failed": True, "checks_failed": 0,
                "failing": [], "note": f"no report: {outcome['error']}"}
    ratios = json.loads(path.read_text())["max_lhs_over_rhs"]
    failing = sorted(k for k, v in ratios.items() if not v <= 1.0 + FOCK_TOL)
    finite = bool(ratios) and all(math.isfinite(v) for v in ratios.values())
    # exit status 1 exactly when a bound is exceeded
    consistent = (outcome["error"] is None
                  and outcome["rc"] == (1 if failing else 0))
    return {"correct": finite and consistent,
            "failed": _command_failed(outcome), "checks_failed": len(failing),
            "failing": failing,
            "note": "" if finite and consistent else
            f"finite={finite} rc={outcome['rc']} error={outcome['error']}"}


WORKLOADS = {w.name: w for w in (
    Workload("simulate_n2",
             "default simulate (N=2, M=64): HF and Vlasov dominate, "
             "N-body ~4%",
             3, _simulate_setup(2), _simulate_check),
    Workload("simulate_n3",
             "coupled point N=3, hbar=1/3: N-body FFT propagation dominates",
             1, _simulate_setup(3), _simulate_check),
    Workload("analyze_n2_m256",
             "transform + residues on one N=2, M=256 snapshot: CSV export, "
             "residue fields and gamma2, no propagation",
             2, _analyze_setup, _analyze_check),
    Workload("fock_check",
             "fock-check at 8 modes, 200 instances: the only fock workload",
             2, _fock_setup, _fock_check),
)}
