"""Experiment orchestration: run configs, sweeps, slope fits, reports.

A run is deterministic given its config (seed included); its directory
holds the config copy, binary snapshots of the states and orbitals, and
a canonical JSON summary, one row per hard-checked observable.  Sweeps
parallelize across runs, never within a report file; aggregation is a
single reduce over completed run directories.
"""

from __future__ import annotations

import inspect
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from husimilab import meanfield as mf
from husimilab import manybody as mb
from husimilab import phasespace as ps
from husimilab import residues as rs
from husimilab import snapshots as io
from husimilab.grid import GridError, Potential, make_grid

# the annotation of each RunConfig field -> the JSON values it takes
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict}


@dataclass
class RunConfig:
    """One run's parameters.  The horizon must be a positive whole number
    of dt steps (relative tolerance 1e-9), so the N-body, HF and Vlasov
    stages all end at it; another raises GridError naming the nearest
    horizons that are."""

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

    def __post_init__(self):
        if self.seed < 0:
            raise GridError(f"seed={self.seed} is negative; need seed >= 0")
        steps = self.horizon / self.dt if self.dt > 0 else math.nan
        if not math.isfinite(steps):
            raise GridError(f"need dt > 0 and a finite horizon, got "
                            f"dt={self.dt}, horizon={self.horizon}")
        if not math.isclose(max(1, round(steps)) * self.dt, self.horizon,
                            rel_tol=1e-9):
            near = sorted({max(1, math.floor(steps)),
                           max(1, math.ceil(steps))})
            raise GridError(
                f"horizon={self.horizon} is not a whole number of "
                f"dt={self.dt} steps; the nearest horizons that are: "
                + ", ".join(f"{n * self.dt:.12g}" for n in near))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """A config from a JSON object; unknown keys, and values whose
        type is not their field's (an int serves for a float), raise
        GridError."""
        if not isinstance(data, dict):
            raise GridError(f"a config is a JSON object, not {data!r}")
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(data) - set(kinds))
        if unknown:
            raise GridError(f"unknown config keys {unknown}; "
                            "remove them from the config")
        wrong = [f"{key}={value!r} is not {kinds[key]}"
                 for key, value in data.items()
                 if isinstance(value, bool)
                 or not isinstance(value, _FIELD_TYPES[kinds[key]])]
        if wrong:
            raise GridError("config values of the wrong type: "
                            + "; ".join(wrong))
        return cls(**data)


def build_potential(grid, spec: dict) -> Potential:
    """V of {"kind": a `Potential` constructor, **its keyword arguments}."""
    kinds = {"zero": Potential.zero, "cosine": Potential.cosine,
             "gaussian_bump": Potential.gaussian_bump}
    kind = spec.get("kind")
    build = kinds.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise GridError(f"potential {spec}: kind {kind!r} is not one of "
                        + ", ".join(kinds))
    try:
        return build(grid, **{k: v for k, v in spec.items() if k != "kind"})
    except (TypeError, ValueError) as exc:
        keys = list(inspect.signature(build).parameters)[1:]
        raise GridError(f"potential {spec}: {exc}; a {kind} spec holds "
                        + ", ".join(["kind", *keys])) from exc


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
    """Execute the standard battery for one (hbar, N) point.

    The set-up refuses, with a `GridError` raised before the run directory
    exists and before any compute: a lattice `make_grid` refuses, a refused
    potential spec, an unknown frame or orbital family, and a `phi_q` or
    `phi_p` that `residues.pairing_test_functions` refuses.  The natural
    lattice is built once, here, so an undersampled one warns once.
    """
    grid = make_grid(M=cfg.M, L=cfg.L, hbar=cfg.hbar, N=cfg.N)
    potential = build_potential(grid, cfg.potential)
    frame = build_frame(grid, cfg.frame)
    orbitals = build_orbitals(grid, cfg.orbital_family,
                              np.random.default_rng(cfg.seed))
    lattice = ps.natural_lattice(grid)
    rs.pairing_test_functions(lattice, cfg.phi_q, cfg.phi_p)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _run_experiment_inner(cfg, out, potential, frame, lattice,
                                     orbitals)
    except Exception as exc:
        (out / "FAILED").write_text(f"{type(exc).__name__}: {exc}\n")
        raise RuntimeError(f"run failed in {out}: {exc}") from exc


def _nbody_stage(state0: mb.ManyBodyState, potential: Potential, dt: float,
                 steps: int):
    """Every product with H that a run takes: the exact flow to mid = T/2
    (the residue snapshot) and end = T, with T = dt steps, the energy
    drift |E(end) - E(0)| and adot = H a / (i hbar) at mid.  The flow,
    and so H, lives only inside this call.

    Returns mid, end, adot at mid and the energy drift.
    """
    flow = mb.SlaterFlow(state0.grid, potential)
    T = dt * steps
    times = (T / 2, T)
    mid, end = (mb.ManyBodyState(state0.grid, c, state0.time + t)
                for c, t in zip(flow.evolve(state0.coeffs, times), times))
    drift = abs(flow.energy(end) - flow.energy(state0))
    return mid, end, flow.time_derivative(mid), drift


def _run_experiment_inner(cfg: RunConfig, out: Path, potential: Potential,
                          frame, lattice, orbitals) -> Path:
    grid = potential.grid
    state0 = mb.build_slater(grid, orbitals)
    rows: list[dict] = []

    # ---- N-body propagation and conservation ------------------------------
    steps = round(cfg.horizon / cfg.dt)
    mid, end, adot_mid, energy_drift = _nbody_stage(
        state0, potential, cfg.dt, steps)
    _record(rows, "norm_drift", abs(end.norm() - 1.0), 1e-10, cfg, end.time)
    _record(rows, "energy_drift", energy_drift, 1e-8, cfg, end.time)

    for name, state in (("initial", state0), ("mid", mid), ("final", end)):
        io.write_state(out / f"state_{name}.husi", state)

    # ---- one residue pass at mid: Husimi invariants, residues, identity -----
    snap, report = rs.snapshot_residues(mid, adot_mid, frame, potential,
                                        lattice, cfg.phi_q, cfg.phi_p)
    _record(rows, "husimi_min", snap.husimi.values.min(), -1e-12, cfg,
            mid.time, holds=operator.ge)
    _record(rows, "husimi_max", snap.husimi.values.max(), 1.0 + 1e-8, cfg,
            mid.time, holds=operator.le)
    _record(rows, "husimi_mass_defect",
            abs(snap.husimi.canonical_mass() - cfg.N), 1e-4, cfg, mid.time)
    _record(rows, "consistency_defect_rel", report.consistency_defect_rel,
            1e-12, cfg, mid.time)

    # ---- effective dynamics -------------------------------------------------
    hf0 = mf.MeanFieldState(grid, np.array(orbitals))
    hf_e0 = mf.hf_energy(hf0, potential)
    hf_end = mf.hartree_fock_evolve(hf0, potential, cfg.dt, steps)
    omega_end = hf_end.omega_kernel()
    _record(rows, "hf_trace_drift", abs(omega_end.trace() - cfg.N), 1e-8,
            cfg, hf_end.time)
    _record(rows, "hf_idempotency", hf_end.idempotency_defect(), 1e-8, cfg,
            hf_end.time)
    _record(rows, "hf_orthonormality", hf_end.orthonormality_defect(), 1e-8,
            cfg, hf_end.time)
    _record(rows, "hf_energy_drift_rate",
            abs(mf.hf_energy(hf_end, potential) - hf_e0) / cfg.horizon, 1e-5,
            cfg, hf_end.time)
    io.write_orbitals(out / "hf_orbitals.husi", hf_end.orbitals, grid,
                      hf_end.time)
    kern_end = mb.gamma1(end)
    hs_gap, tr_gap = mf.norm_gaps(kern_end, omega_end)

    # gamma1 of the Slater initial state is the HF orbital projector
    vl = mf.vlasov_from_husimi(ps.husimi1(hf0.omega_kernel(), frame,
                                          lattice))
    cfl = mf.vlasov_cfl(vl, potential, cfg.dt)
    # the fewest steps no longer than vdt; the ceiling of the rounded
    # quotient can overshoot that count by one
    vdt = min(cfg.dt, 0.9 * cfl["suggested_dt"])
    vsteps = math.ceil(cfg.horizon / vdt)
    if vsteps > 1 and cfg.horizon / (vsteps - 1) <= vdt:
        vsteps -= 1
    vdt = cfg.horizon / vsteps
    v_e0 = mf.vlasov_energy(vl, potential)
    v_end = mf.vlasov_evolve(vl, potential, vdt, vsteps)
    _record(rows, "vlasov_mass_drift", abs(v_end.mass() - vl.mass()),
            1e-8 * vsteps, cfg, v_end.time)
    _record(rows, "vlasov_energy_drift_rate",
            abs(mf.vlasov_energy(v_end, potential) - v_e0) / cfg.horizon,
            1e-4, cfg, v_end.time)

    husimi_end = ps.husimi1(kern_end, frame, lattice)
    l1, w1, renorm = mf.husimi_vlasov_distance(husimi_end, v_end)

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
        "snapshot_hashes": {p.name: io.file_hash(p)
                            for p in sorted(out.glob("*.husi"))},
        "all_passed": all(r["passed"] for r in rows),
    }
    io.write_report(out / "summary.json", summary)
    io.write_report(out / "config.json", cfg.to_dict())
    if not summary["all_passed"]:
        failing = [r["observable"] for r in rows if not r["passed"]]
        raise RuntimeError(f"hard checks failed: {failing}")
    return out


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def coupled_sweep_configs(base: RunConfig, Ns=(2, 3, 4)) -> list[RunConfig]:
    """hbar = 1/N: the one-dimensional scaling coupling."""
    return [cfg for n in Ns
            for cfg in decoupled_sweep_configs(base, [1.0 / n], [n])]


def decoupled_sweep_configs(base: RunConfig, hbars, Ns) -> list[RunConfig]:
    """A copy of base at each (N, hbar), N major."""
    return [RunConfig.from_dict(dict(base.to_dict(), N=int(n), hbar=float(hb)))
            for n in Ns for hb in hbars]


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
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it
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

    Rows with N >= 2 carry the ratio `meanfield_over_semiclassical` of two
    residue pairings, and the report says whether it decreases in N.  One
    pairing is no norm bound of the paper's, so this and the pointwise
    `meanfield_below_semiclassical` (false at N = 2 on the coupled line
    hbar = 1/N) are reported, not required.
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
    return report
