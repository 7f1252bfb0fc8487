"""Binary persistence for states and trajectories.

Layout (all integers and floats little-endian):

state file      magic ``DSMCFSNP`` | u32 version | u8 mode | u8 dimension
                | u8 bc kind | u8 reserved | u32 resolution | f64 extent
                | f64 s | u64 value count | u32 crc32 of the payload
                | payload: value count f64 heights, row-major

trajectory file magic ``DSMCFTRJ`` | u32 version | u8 mode | u8 dimension
                | u8 bc kind | u8 reserved | u32 resolution | f64 extent
                | u64 snapshot count | u64 values per snapshot
                | u32 failure length | u32 crc32 of the payload
                | failure utf-8 bytes | payload: snapshot times, per-snapshot
                dt, then each profile in order, all f64

Heights round-trip bit-exactly.  Step diagnostics are cheap to recompute
and are not persisted; a reloaded trajectory carries empty diagnostics.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from . import flow, grids
from .errors import CorruptFileError, IoError, ResolutionTooLowError, VersionMismatchError

FORMAT_VERSION = 1

_STATE_MAGIC = b"DSMCFSNP"
_TRAJ_MAGIC = b"DSMCFTRJ"
#: magic, version, mode, dimension, bc kind, reserved, resolution, extent
_PREFIX = struct.Struct("<8sI4BId")
#: s, value count, crc32
_STATE_TAIL = struct.Struct("<dQI")
#: snapshot count, values per snapshot, failure length, crc32
_TRAJ_TAIL = struct.Struct("<QQII")

_MODES = (grids.RADIAL, grids.CARTESIAN)
_BC_KINDS = (flow.SLICING, flow.PINNED, flow.FROZEN)


def _decode(code, table, what, path):
    if not 0 <= code < len(table):
        raise CorruptFileError(f"{path}: invalid {what} code {code}")
    return table[code]


def _header(magic: bytes, grid: grids.Grid, bc_kind: str, tail: struct.Struct, *fields) -> bytes:
    # Grid and BoundaryCondition reject modes and kinds outside these tables.
    mode, bc = _MODES.index(grid.mode), _BC_KINDS.index(bc_kind)
    prefix = _PREFIX.pack(
        magic, FORMAT_VERSION, mode, grid.dimension, bc, 0, grid.resolution, grid.extent
    )
    return prefix + tail.pack(*fields)


def _read_header(path, magic: bytes, tail: struct.Struct, what: str):
    """(file bytes, grid, boundary kind, tail fields) of a snapshot file
    whose header passes every check."""
    data = _read(path)
    if len(data) < _PREFIX.size + tail.size or not data.startswith(magic):
        raise CorruptFileError(f"{path}: not a dsmcf {what} file")
    _, version, mode_code, dimension, bc_code, _, resolution, extent = _PREFIX.unpack_from(data)
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: file is format version {version}, "
            f"this library reads version {FORMAT_VERSION}"
        )
    mode = _decode(mode_code, _MODES, "grid mode", path)
    bc_kind = _decode(bc_code, _BC_KINDS, "boundary kind", path)
    try:
        grid = grids.Grid(mode, dimension, extent=extent, resolution=resolution)
    except (ValueError, ResolutionTooLowError) as exc:
        raise CorruptFileError(f"{path}: invalid grid: {exc}") from exc
    return data, grid, bc_kind, tail.unpack_from(data, _PREFIX.size)


def _payload(data: bytes, offset: int, count: int, crc: int, path) -> np.ndarray:
    need = offset + 8 * count
    if len(data) < need:
        raise CorruptFileError(
            f"{path}: truncated, expected {need} bytes but file has {len(data)}"
        )
    blob = data[offset:need]
    if zlib.crc32(blob) != crc:
        raise CorruptFileError(f"{path}: payload checksum mismatch")
    values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise CorruptFileError(f"{path}: payload holds non-finite values")
    return values


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, *chunks: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _as_state(grid: grids.Grid, values: np.ndarray, bc_kind: str, s: float, path):
    if values.size != grid.node_count:
        raise CorruptFileError(
            f"{path}: profile holds {values.size} values, grid needs {grid.node_count}"
        )
    state = flow.GraphState(
        u=grids.Field(grid, values.reshape(grid.shape)),
        s=s,
        bc=flow.BoundaryCondition(bc_kind),
    )
    try:
        state.bc.check(state)
    except ValueError as exc:  # a pinned boundary with varying heights
        raise CorruptFileError(f"{path}: {exc}") from exc
    return state


def save_state(state: flow.GraphState, path) -> None:
    values = np.ascontiguousarray(state.u.values, dtype=np.float64)
    blob = values.astype("<f8").tobytes()
    header = _header(
        _STATE_MAGIC, state.grid, state.bc.kind, _STATE_TAIL,
        state.s, values.size, zlib.crc32(blob),
    )
    _write(path, header, blob)


def load_state(path) -> flow.GraphState:
    data, grid, bc_kind, (s, count, crc) = _read_header(path, _STATE_MAGIC, _STATE_TAIL, "state")
    if not math.isfinite(s):
        raise CorruptFileError(f"{path}: invalid flow time {s}")
    values = _payload(data, _PREFIX.size + _STATE_TAIL.size, count, crc, path)
    return _as_state(grid, values, bc_kind, s, path)


def save_trajectory(traj: flow.Trajectory, path) -> None:
    if not traj.snapshots:
        raise ValueError("cannot save an empty trajectory")
    first = traj.snapshots[0]
    grid = first.grid
    count = len(traj.snapshots)
    s_values = np.array([snap.s for snap in traj.snapshots], dtype=np.float64)
    dts = np.zeros(count)
    dts[: len(traj.dt_history)] = np.asarray(traj.dt_history, dtype=np.float64)[:count]
    profiles = np.stack(
        [np.ascontiguousarray(snap.u.values, dtype=np.float64).ravel() for snap in traj.snapshots]
    )
    blob = (
        s_values.astype("<f8").tobytes()
        + dts.astype("<f8").tobytes()
        + profiles.astype("<f8").tobytes()
    )
    failure = (traj.failure or "").encode("utf-8")
    header = _header(
        _TRAJ_MAGIC, grid, first.bc.kind, _TRAJ_TAIL,
        count, grid.node_count, len(failure), zlib.crc32(blob),
    )
    _write(path, header, failure, blob)


def load_trajectory(path) -> flow.Trajectory:
    data, grid, bc_kind, (count, per, failure_len, crc) = _read_header(
        path, _TRAJ_MAGIC, _TRAJ_TAIL, "trajectory"
    )
    offset = _PREFIX.size + _TRAJ_TAIL.size
    try:
        failure = data[offset : offset + failure_len].decode("utf-8") or None
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"{path}: failure text is not UTF-8") from exc
    flat = _payload(data, offset + failure_len, count * (2 + per), crc, path)
    s_values = flat[:count]
    dts = flat[count : 2 * count]
    profiles = flat[2 * count :].reshape(count, per)
    traj = flow.Trajectory(failure=failure)
    for k in range(count):
        traj.snapshots.append(_as_state(grid, profiles[k], bc_kind, float(s_values[k]), path))
        traj.dt_history.append(float(dts[k]))
        traj.diagnostics.append(None)
    return traj
