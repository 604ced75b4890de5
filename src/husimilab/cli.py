"""Command-line entry points.

Subcommands: simulate (one run), sweep (coupled preset or explicit
lists), transform (state snapshot -> Husimi/Wigner files), residues
(one state snapshot -> residue report with the consistency defect),
fock-check (operator-inequality suite), report (aggregate run directories
into rate tables).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from husimilab import fock
from husimilab import harness
from husimilab import manybody as mb
from husimilab import phasespace as ps
from husimilab import residues as rsd
from husimilab import snapshots as io
from husimilab.grid import GridError


def _load_config(path, seed=None) -> harness.RunConfig:
    if path is None:
        cfg = harness.RunConfig()
    else:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise GridError(f"cannot read config {path}: {exc}") from exc
        cfg = harness.RunConfig.from_dict(data)
    if seed is not None:
        cfg.seed = seed
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args.seed)
    out = harness.run_experiment(cfg, args.out)
    print(f"run complete: {out}")
    return 0


def cmd_sweep(args) -> int:
    base = _load_config(args.config, args.seed)
    if args.preset == "coupled":
        configs = harness.coupled_sweep_configs(base, Ns=args.N or (2, 3, 4))
    else:
        hbars = args.hbar or (0.5, 0.35, 0.25)
        configs = harness.decoupled_sweep_configs(base, hbars,
                                                  args.N or (base.N,))
    dirs = harness.run_sweep(configs, args.out, jobs=args.jobs)
    report = harness.aggregate_sweep(dirs)
    io.write_report(Path(args.out) / "sweep_report.json", report)
    print(f"sweep complete: {len(dirs)} runs -> {args.out}/sweep_report.json")
    return 0


def cmd_transform(args) -> int:
    state = io.read_state(args.state, L=args.box)
    grid = state.grid
    frame = harness.build_frame(grid, args.frame)
    kern = mb.gamma1(state)
    hus = ps.husimi1(kern, frame, ps.natural_lattice(grid))
    wig = ps.wigner1(kern)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_field(out / "husimi.husi", hus.values, grid, state.time)
    for name, fld in (("husimi", hus), ("wigner", wig)):
        io.field_csv(out / f"{name}.csv", fld.lattice.qs, fld.lattice.ps,
                     fld.values)
    print(f"husimi mass/(2 pi hbar) = {hus.canonical_mass():.6f}")
    return 0


def cmd_residues(args) -> int:
    run = harness.RunConfig()  # the run's V and test functions
    amplitude = args.amplitude
    spec = {"kind": args.potential, "amplitudes": (
        run.potential["amplitudes"] if amplitude is None else amplitude)}
    if args.potential == "zero" and amplitude is not None:
        raise GridError("--amplitude sets no zero potential; drop the flag")
    if args.potential == "gaussian_bump" and amplitude is not None:
        if len(amplitude) != 1:
            raise GridError(f"--amplitude takes one value for a "
                            f"gaussian_bump potential, got {len(amplitude)}")
        spec = {"kind": args.potential, "amplitude": amplitude[0]}
    state = io.read_state(args.state, L=args.box)
    grid = state.grid
    frame = harness.build_frame(grid, args.frame)
    potential = harness.build_potential(grid, spec)
    phi_q = {**run.phi_q, "radius": args.phi_q_radius}
    phi_p = {**run.phi_p, "radius": args.phi_p_radius}
    # the one lattice of the command, so an undersampled one warns once;
    # refused test functions exit before the flow is built
    lattice = ps.natural_lattice(grid)
    rsd.pairing_test_functions(lattice, phi_q, phi_p)
    # the one product with H this command needs; H is freed at once
    adot = mb.SlaterFlow(grid, potential).time_derivative(state)
    _, rep = rsd.snapshot_residues(state, adot, frame, potential, lattice,
                                   phi_q, phi_p)
    io.write_report(args.out, asdict(rep))
    print(json.dumps(asdict(rep), indent=2))
    return 0


def cmd_fock_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    report = fock.operator_inequality_suite(args.modes, args.instances, rng)
    worst = max(report["max_lhs_over_rhs"].values())
    io.write_report(args.out, report)
    print(f"max lhs/rhs over {args.instances} instances x 7 bounds: "
          f"{worst:.12f}")
    return 0 if worst <= 1.0 + 1e-10 else 1


def cmd_report(args) -> int:
    report = harness.aggregate_sweep(args.dirs)
    io.write_report(args.out, report)
    print(json.dumps({k: v for k, v in report.items() if k != "rows"},
                     indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="husimilab",
        description="fermionic phase-space laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one run from a config")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="coupled preset or explicit lists")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=("coupled", "decoupled"),
                   default="coupled")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--N", type=int, nargs="*", default=None)
    p.add_argument("--hbar", type=float, nargs="*", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("transform", help="state snapshot to phase-space files")
    p.add_argument("state")
    p.add_argument("--box", type=float, required=True,
                   help="box length L of the snapshot grid")
    p.add_argument("--frame", default="gaussian")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("residues", help="state snapshot to a residue "
                       "report with the consistency defect")
    p.add_argument("state", help="N-body state snapshot (.husi)")
    p.add_argument("--box", type=float, required=True)
    p.add_argument("--frame", default="gaussian")
    p.add_argument("--potential", default="cosine")
    p.add_argument("--amplitude", type=float, nargs="+", default=None,
                   help="cosine amplitudes, or one gaussian_bump amplitude")
    run = harness.RunConfig()
    p.add_argument("--phi-q-radius", type=float, default=run.phi_q["radius"])
    p.add_argument("--phi-p-radius", type=float, default=run.phi_p["radius"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_residues)

    p = sub.add_parser("fock-check", help="operator inequality suite")
    p.add_argument("--modes", type=int, default=8)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="fock_check.json")
    p.set_defaults(fn=cmd_fock_check)

    p = sub.add_parser("report", help="aggregate run directories")
    p.add_argument("dirs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GridError, fock.FockError) as exc:
        # refused input exits 2, as argparse's usage errors do; 1 is a
        # broken bound of fock-check
        print(f"husimilab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
