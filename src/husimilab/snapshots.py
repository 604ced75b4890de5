"""Binary snapshot format, CSV exports, and canonical JSON reports.

Snapshot layout: a 32-byte header

    magic   4 bytes  b"HUSI"
    version u16      2 for an N-body state, 1 for orbitals and fields
    d       u16      1, the dimension of the grid
    M       u32
    N       u32
    time    f64
    hbar    f64

followed immediately by little-endian complex128 values.  A version-2
N-body state holds its C(M, N) coefficients a_K in the colex order of
`manybody._sorted_tuples`, with ||a|| the lattice norm of the state.
Version 1 holds mean-field orbitals (N rows of M amplitudes) or a
phase-space field (M q-points by N p-points, real values as complex), and
once held N-body states as M^N grid amplitudes; `read_state` refuses it.
The box length is not part of the format; it travels with the run
configuration and is supplied at read time.
JSON reports are canonical (sorted keys, compact separators), so two
runs of one config write byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from math import comb
from pathlib import Path

import numpy as np

from husimilab.grid import GridError, GridSpec, make_grid
from husimilab.manybody import ManyBodyState

MAGIC = b"HUSI"
HEADER = struct.Struct("<4sHHIIdd")
assert HEADER.size == 32


def _write(path, version: int, M: int, N: int, time: float, hbar: float,
           values: np.ndarray) -> None:
    """The header, then `values` as little-endian complex128."""
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, version, 1, M, N, time, hbar))
        fh.write(np.ascontiguousarray(values, dtype="<c16").data)


def write_state(path, state: ManyBodyState) -> None:
    g = state.grid
    _write(path, 2, g.M, g.N, state.time, g.hbar, state.coeffs)


def read_state(path, L: float) -> ManyBodyState:
    """Read a version-2 N-body snapshot; a file that cannot be opened and
    header faults raise GridError."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise GridError(
            f"cannot read snapshot {path}: {exc.strerror}") from exc
    with fh:
        header = fh.read(HEADER.size)
        if len(header) < HEADER.size:
            raise GridError(f"{path}: shorter than the 32-byte header")
        magic, version, d, M, N, time, hbar = HEADER.unpack(header)
        if magic != MAGIC:
            raise GridError(f"{path}: bad magic {magic!r}, not a snapshot")
        if version == 1:
            raise GridError(
                f"{path} is a version-1 snapshot: mean-field orbitals, a "
                "phase-space field, or an N-body state stored as M^N grid "
                "amplitudes, a format no longer read; for a version-2 state "
                "re-run `husimilab simulate` with the run's config.json")
        if version != 2:
            raise GridError(f"{path}: unknown snapshot version {version}")
        if d != 1:
            raise GridError(f"{path}: header has d={d}; husimilab states "
                            "live on a one-dimensional grid (d=1)")
        found = os.fstat(fh.fileno()).st_size - HEADER.size
        expected = comb(M, N)
        if found != 16 * expected:
            raise GridError(
                f"{path}: header (M={M}, N={N}) needs {expected} "
                f"coefficients ({16 * expected} bytes), found {found} bytes; "
                "the file is truncated or was not written by write_state")
        grid = make_grid(M=M, L=L, hbar=hbar, N=N)
        coeffs = np.frombuffer(fh.read(), dtype="<c16")
    return ManyBodyState(grid, coeffs.astype(complex), time)


def write_orbitals(path, orbitals: np.ndarray, grid: GridSpec,
                   time: float = 0.0) -> None:
    """Mean-field orbitals: N one-body kernels-worth of vectors, concatenated."""
    _write(path, 1, grid.M, orbitals.shape[0], time, grid.hbar, orbitals)


def write_field(path, values: np.ndarray, grid: GridSpec,
                time: float = 0.0) -> None:
    """One-particle phase-space field in the snapshot format, with the q
    and p point counts in the M and N slots."""
    q_points, p_points = values.shape
    _write(path, 1, q_points, p_points, time, grid.hbar, values)


def field_csv(path, qs, ps, values) -> None:
    """Rows q,p,value, q major, in np.savetxt's "%.18e" format; each q and
    each p is formatted once, not once per row."""
    p_text = ["%.18e," % p for p in np.asarray(ps).tolist()]
    values = np.reshape(values, (len(qs), len(p_text)))
    with open(path, "w") as fh:
        fh.write("q,p,value\n")
        for q, row in zip(np.asarray(qs).tolist(), values):
            head = "%.18e," % q
            fh.write("".join([head + p + "%.18e\n" % v
                              for p, v in zip(p_text, row.tolist())]))


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_report(path, payload: dict) -> None:
    Path(path).write_text(canonical_json(payload) + "\n")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text())
