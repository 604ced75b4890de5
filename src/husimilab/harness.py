"""Experiment orchestration: run configs, sweeps, slope fits, reports.

A run is deterministic given its config (seed included); its directory
holds the config copy, binary snapshots, CSV exports, and canonical JSON
records, one row per hard-checked observable.  Sweeps parallelize across
runs, never within a report file; aggregation is a single reduce over
completed run directories.
"""

from __future__ import annotations

import operator
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from husimilab import meanfield as mf
from husimilab import manybody as mb
from husimilab import phasespace as ps
from husimilab import residues as rs
from husimilab import snapshots as io
from husimilab.grid import GridError, Potential, make_grid


@dataclass
class RunConfig:
    d: int = 1
    M: int = 64
    L: float = 12.0
    hbar: float = 0.5
    N: int = 2
    potential: dict = field(default_factory=lambda: {
        "kind": "cosine", "amplitudes": [0.4, 0.15]})
    frame: str = "gaussian"
    orbital_family: str = "hermite"
    horizon: float = 0.2
    dt: float = 0.002
    phi_q: dict = field(default_factory=lambda: {"center": 0.0, "radius": 3.5,
                                                 "s": 3})
    phi_p: dict = field(default_factory=lambda: {"center": 0.0, "radius": 2.0,
                                                 "s": 3})
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise GridError(f"unknown config keys {unknown}; "
                            "remove them from the config")
        return cls(**data)


def build_potential(grid, spec: dict) -> Potential:
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return Potential.zero(grid)
    if kind == "cosine":
        return Potential.cosine(grid, spec.get("amplitudes", [0.5]))
    if kind == "gaussian_bump":
        return Potential.gaussian_bump(grid, spec.get("amplitude", 1.0),
                                       spec.get("width", 1.5))
    raise GridError(f"unknown potential kind {kind!r}")


def build_frame(grid, kind: str) -> ps.CoherentFrame:
    if kind == "gaussian":
        return ps.gaussian_frame(grid)
    if kind == "bump":
        return ps.bump_frame(grid)
    raise GridError(f"unknown frame kind {kind!r}")


def build_orbitals(grid, family: str, rng: np.random.Generator):
    if family == "hermite":
        return mf.hermite_orbitals(grid, grid.N)
    if family == "plane_wave":
        return mf.plane_wave_orbitals(grid, grid.N)
    if family == "random":
        raw = (rng.standard_normal((grid.M, grid.N))
               + 1j * rng.standard_normal((grid.M, grid.N)))
        q, _ = np.linalg.qr(raw)
        return [q[:, j] / np.sqrt(grid.dx) for j in range(grid.N)]
    raise GridError(f"unknown orbital family {family!r}")


def _record(rows, name, value, tol, cfg, t, holds=operator.lt):
    """Append one hard-checked row; it passes when holds(value, tol)."""
    rows.append({"observable": name, "value": float(value),
                 "tolerance": tol, "passed": bool(holds(value, tol)),
                 "hbar": cfg.hbar, "N": cfg.N, "t": t})


def run_experiment(cfg: RunConfig, outdir) -> Path:
    """Execute the standard battery for one (hbar, N) point."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    started = _time.time()
    try:
        return _run_experiment_inner(cfg, out, started)
    except Exception as exc:
        (out / "FAILED").write_text(f"{type(exc).__name__}: {exc}\n")
        raise RuntimeError(f"run failed in {out}: {exc}") from exc


def _run_experiment_inner(cfg: RunConfig, out: Path, started: float) -> Path:
    rng = np.random.default_rng(cfg.seed)
    grid = make_grid(d=cfg.d, M=cfg.M, L=cfg.L, hbar=cfg.hbar, N=cfg.N)
    potential = build_potential(grid, cfg.potential)
    frame = build_frame(grid, cfg.frame)
    orbitals = build_orbitals(grid, cfg.orbital_family, rng)
    state0 = mb.build_slater(grid, orbitals)
    rows: list[dict] = []

    # ---- N-body propagation and conservation ------------------------------
    steps = max(1, int(round(cfg.horizon / cfg.dt)))
    half = steps // 2
    # drop the trajectory's copy of state0 at once rather than hold it
    # through the run
    later = mb.propagate_trajectory(state0, potential, cfg.dt, steps,
                                    max(half, 1))[1:]
    mid, end = (later[0] if half else state0), later[-1]
    e0 = mb.total_energy(state0, potential)
    _record(rows, "norm_drift", abs(end.norm() - 1.0), 1e-10, cfg, end.time)
    _record(rows, "antisymmetry_defect", mb.antisymmetry_defect(end), 1e-10,
            cfg, end.time)
    _record(rows, "energy_drift", abs(mb.total_energy(end, potential) - e0),
            1e-8, cfg, end.time)

    io.write_state(out / "state_initial.husi", state0)
    io.write_state(out / "state_final.husi", end)

    # ---- one residue pass at mid: Husimi invariants, residues, identity -----
    snap, report = rs.snapshot_residues(mid, frame, potential, cfg.phi_q,
                                        cfg.phi_p)
    husimi_mid = snap.husimi
    lattice = husimi_mid.lattice
    _record(rows, "husimi_min", husimi_mid.values.min(), -1e-12, cfg,
            mid.time, holds=operator.ge)
    _record(rows, "husimi_max", husimi_mid.values.max(), 1.0 + 1e-8, cfg,
            mid.time, holds=operator.le)
    _record(rows, "husimi_mass_defect",
            abs(husimi_mid.canonical_mass() - cfg.N), 1e-4, cfg, mid.time)
    _record(rows, "consistency_defect_rel", report.consistency_defect_rel,
            1e-12, cfg, mid.time)
    io.write_field(out / "husimi_mid.husi", husimi_mid.values, grid, mid.time)
    io.field_csv(out / "husimi_mid.csv", lattice.qs, lattice.ps,
                 husimi_mid.values)
    io.write_report(out / "residues.json", report.to_dict())

    # ---- effective dynamics -------------------------------------------------
    hf0 = mf.MeanFieldState(grid, np.array(orbitals))
    hf_e0 = mf.hf_energy(hf0, potential)
    hf_end = mf.hartree_fock_evolve(hf0, potential, cfg.dt, steps)
    horizon = max(cfg.horizon, 1e-9)
    _record(rows, "hf_trace_drift",
            abs(np.real(np.trace(hf_end.omega())) * grid.weight - cfg.N),
            1e-8, cfg, hf_end.time)
    _record(rows, "hf_idempotency", hf_end.idempotency_defect(), 1e-8, cfg,
            hf_end.time)
    _record(rows, "hf_orthonormality", hf_end.orthonormality_defect(), 1e-8,
            cfg, hf_end.time)
    _record(rows, "hf_energy_drift_rate",
            abs(mf.hf_energy(hf_end, potential) - hf_e0) / horizon, 1e-5, cfg,
            hf_end.time)
    io.write_orbitals(out / "hf_orbitals.husi", hf_end.orbitals, grid,
                      hf_end.time)
    kern_end = mb.gamma1(end)
    hs_gap, tr_gap = mf.norm_gaps(kern_end, hf_end.omega_kernel())

    husimi0 = ps.husimi1(mb.gamma1(state0), frame)
    vl = mf.vlasov_from_husimi(husimi0, grid)
    cfl = mf.vlasov_cfl(vl, potential, cfg.dt)
    vdt = min(cfg.dt, 0.9 * cfl["suggested_dt"])
    vsteps = max(1, int(round(cfg.horizon / vdt)))
    vdt = cfg.horizon / vsteps
    v_e0 = mf.vlasov_energy(vl, potential)
    v_end = mf.vlasov_evolve(vl, potential, vdt, vsteps)
    _record(rows, "vlasov_mass_drift", abs(v_end.mass() - vl.mass()),
            1e-8 * max(1, vsteps), cfg, v_end.time)
    _record(rows, "vlasov_energy_drift_rate",
            abs(mf.vlasov_energy(v_end, potential) - v_e0) / horizon, 1e-4,
            cfg, v_end.time)

    husimi_end = ps.husimi1(kern_end, frame)
    l1, w1, renorm = mf.husimi_vlasov_distance(husimi_end.values,
                                               v_end.values, lattice)

    # ---- moments and localization -------------------------------------------
    mom = ps.moment_growth_check([husimi0, husimi_mid, husimi_end],
                                 [0.0, mid.time, end.time])
    loc = ps.localized_number_check(snap.kernel, radius=1.0)
    comm = mf.commutator_norms(hf0.omega(), grid,
                               [0.5, 1.0, 2.0])

    summary = {
        "config": cfg.to_dict(),
        "config_hash": io.config_hash(cfg.to_dict()),
        "records": rows,
        "pairings": {"kinetic": report.pairing_kinetic,
                     "semiclassical": report.pairing_semiclassical,
                     "meanfield": report.pairing_meanfield,
                     "l54_aggregate": report.l54_aggregate},
        "consistency_defect": report.consistency_defect,
        "norm_gaps": {"hs": hs_gap, "trace": tr_gap,
                      "trace_over_sqrtN": tr_gap / np.sqrt(cfg.N)},
        "husimi_vlasov": {"l1": l1, "w1_proxy": w1, "renormalized": renorm},
        "vlasov_clipped_mass": v_end.clipped_mass,
        "moment_growth_C": mom["fitted_C"],
        "localized_number": loc,
        "commutator_norms": {"sup_weighted": comm["sup_weighted"],
                             "grad": comm["grad_commutator"],
                             "scale": comm["scale_N_hbar"]},
        "snapshot_hashes": {p.name: io.file_hash(p)
                            for p in sorted(out.glob("*.husi"))},
        "all_passed": all(r["passed"] for r in rows),
    }
    io.write_report(out / "summary.json", summary)
    io.write_report(out / "config.json", cfg.to_dict())
    (out / "timestamp.txt").write_text(f"{started}\n")
    if not summary["all_passed"]:
        failing = [r["observable"] for r in rows if not r["passed"]]
        raise RuntimeError(f"hard checks failed: {failing}")
    return out


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def coupled_sweep_configs(base: RunConfig, Ns=(2, 3, 4)) -> list[RunConfig]:
    """hbar = N^(-1/d): the d = 1 analogue of the scaling coupling."""
    out = []
    for n in Ns:
        cfg = RunConfig.from_dict(base.to_dict())
        cfg.N = int(n)
        cfg.hbar = float(n) ** (-1.0 / base.d)
        out.append(cfg)
    return out


def decoupled_sweep_configs(base: RunConfig, hbars, Ns) -> list[RunConfig]:
    out = []
    for n in Ns:
        for hb in hbars:
            cfg = RunConfig.from_dict(base.to_dict())
            cfg.N = int(n)
            cfg.hbar = float(hb)
            out.append(cfg)
    return out


def _sweep_one(args):
    cfg, outdir = args
    return str(run_experiment(cfg, outdir))


def run_sweep(configs, outroot, jobs: int = 1) -> list[str]:
    outroot = Path(outroot)
    tasks = []
    for cfg in configs:
        name = f"run_N{cfg.N}_hbar{cfg.hbar:.6g}"
        tasks.append((cfg, outroot / name))
    if jobs <= 1:
        return [_sweep_one(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_one, tasks))


# ---------------------------------------------------------------------------
# slope fitting and aggregation
# ---------------------------------------------------------------------------

def fit_slope(records, x_field: str, y_field: str):
    """Least squares on log-log; returns (slope, r_squared)."""
    if len(records) < 3:
        raise GridError("need at least 3 records for a slope fit")
    xs = np.array([float(r[x_field]) for r in records])
    ys = np.array([float(r[y_field]) for r in records])
    bad = [i for i, (a, b) in enumerate(zip(xs, ys)) if a <= 0 or b <= 0]
    if bad:
        raise GridError(f"non-positive values at record indices {bad}")
    return ps.log_log_fit(xs, ys)


def aggregate_sweep(run_dirs) -> dict:
    """Collect per-run summaries into rate tables and ordering checks.

    The paper's headline is that the mean-field residue falls below the
    semiclassical one as N grows on the coupled line hbar = N^(-1/d).
    Each row with N >= 2 carries their ratio, `meanfield_over_
    semiclassical`, and the report says whether it decreases in N.  The
    pointwise `meanfield_below_semiclassical` is reported, not required.
    """
    rows = []
    for d in run_dirs:
        summ = io.read_report(Path(d) / "summary.json")
        pairings = summ["pairings"]
        rows.append({
            "hbar": summ["config"]["hbar"],
            "N": summ["config"]["N"],
            "kinetic": pairings["kinetic"],
            "semiclassical": pairings["semiclassical"],
            "meanfield": pairings["meanfield"],
            "meanfield_over_semiclassical": (
                pairings["meanfield"] / pairings["semiclassical"]
                if summ["config"]["N"] >= 2 else None),
            "all_passed": summ["all_passed"],
            "husimi_vlasov_l1": summ["husimi_vlasov"]["l1"],
            "dir": str(d),
        })
    rows.sort(key=lambda r: -r["hbar"])
    report: dict = {"rows": rows}
    if len(rows) >= 3:
        for key, ref in (("kinetic", 0.5),
                         ("semiclassical", None), ("meanfield", None)):
            try:
                slope, r2 = fit_slope(rows, "hbar", key)
                report[f"slope_{key}"] = {"measured": slope, "r2": r2,
                                          "reference": ref}
            except GridError:
                report[f"slope_{key}"] = None
    ordering = all(r["meanfield"] < r["semiclassical"] for r in rows
                   if r["N"] >= 2)
    by_n = sorted((r for r in rows if r["N"] >= 2), key=lambda r: r["N"])
    monotone = {key: all(a[key] >= b[key] for a, b in zip(rows, rows[1:]))
                for key in ("kinetic", "semiclassical", "meanfield")}
    report["meanfield_below_semiclassical"] = ordering
    # None when fewer than two particle numbers N >= 2 were run
    report["meanfield_over_semiclassical_decreasing_in_N"] = (
        all(a["meanfield_over_semiclassical"]
            > b["meanfield_over_semiclassical"]
            for a, b in zip(by_n, by_n[1:]) if a["N"] < b["N"])
        if len({r["N"] for r in by_n}) >= 2 else None)
    report["monotone_decreasing"] = monotone
    # d-adapted reference exponents for the alpha sweeps (reported only)
    d = 1
    report["reference_exponents"] = {
        "semiclassical": {str(a2): 0.5 + d * (a2 - 1.0)
                          for a2 in (0.55, 0.65, 0.75, 0.85, 0.95)},
        "meanfield": {str(a1): 0.5 * d * (a1 - 0.5) + 0.5 * d
                      for a1 in (0.55, 0.65, 0.75, 0.85, 0.95)},
        "negative_exponent_flag": {
            str(a2): (0.5 + d * (a2 - 1.0)) <= 0.0
            for a2 in (0.55, 0.65, 0.75, 0.85, 0.95)},
    }
    return report
