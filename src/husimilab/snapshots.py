"""Binary snapshot format, CSV exports, and canonical JSON reports.

Snapshot layout: a 32-byte header

    magic   4 bytes  b"HUSI"
    version u16      1
    d       u16
    M       u32
    N       u32
    time    f64
    hbar    f64

followed immediately by little-endian complex128 amplitudes in row-major
coordinate order.  The box length is not part of the format; it travels
with the run configuration and is supplied at read time.  Phase-space
fields store their real values as complex, so every snapshot holds the
same amplitude type.
JSON reports are canonical (sorted keys, compact separators), so
identical runs produce byte-identical files modulo explicit timestamps.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from husimilab.grid import GridSpec, make_grid
from husimilab.manybody import ManyBodyState

MAGIC = b"HUSI"
HEADER = struct.Struct("<4sHHIIdd")
assert HEADER.size == 32


def write_state(path, state: ManyBodyState) -> None:
    g = state.grid
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, 1, g.d, g.M, g.N, state.time, g.hbar))
        fh.write(np.ascontiguousarray(state.psi, dtype="<c16").tobytes())


def read_state(path, L: float) -> ManyBodyState:
    with open(path, "rb") as fh:
        magic, version, d, M, N, time, hbar = HEADER.unpack(fh.read(HEADER.size))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != 1:
            raise ValueError(f"not a wavefunction snapshot (version {version})")
        grid = make_grid(d=d, M=M, L=L, hbar=hbar, N=N)
        psi = np.frombuffer(fh.read(), dtype="<c16")
    expected = M ** (d * N)
    if psi.size != expected:
        raise ValueError(
            f"{path}: header (d={d}, M={M}, N={N}) needs {expected} "
            f"amplitudes, found {psi.size}; the file is truncated or not an "
            "N-body state (orbital snapshots share the header but hold N "
            "orbitals of M^d amplitudes)")
    return ManyBodyState(grid, psi.reshape((M,) * (d * N)).copy(), time)


def write_orbitals(path, orbitals: np.ndarray, grid: GridSpec,
                   time: float = 0.0) -> None:
    """Mean-field orbitals: N one-body kernels-worth of vectors, concatenated."""
    n = orbitals.shape[0]
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, 1, grid.d, grid.M, n, time, grid.hbar))
        fh.write(np.ascontiguousarray(orbitals, dtype="<c16").tobytes())


def write_field(path, values: np.ndarray, grid: GridSpec,
                time: float = 0.0) -> None:
    """One-particle phase-space field in the snapshot format, with the q
    and p point counts in the M and N slots."""
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, 1, grid.d, values.shape[0],
                             values.shape[1], time, grid.hbar))
        fh.write(np.ascontiguousarray(values.astype(complex),
                                      dtype="<c16").tobytes())


def field_csv(path, qs, ps, values) -> None:
    Q, P = np.meshgrid(qs, ps, indexing="ij")
    data = np.column_stack([Q.reshape(-1), P.reshape(-1), values.reshape(-1)])
    np.savetxt(path, data, delimiter=",", header="q,p,value", comments="")


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
