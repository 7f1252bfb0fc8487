"""Binary persistence for trajectories.

Layout (all integers and floats little-endian):

    magic ``DSMCFTRJ`` | u32 version | u8 mode | u8 dimension | u8 bc kind
    | u8 reserved | u32 resolution | f64 extent | u64 snapshot count
    | u64 values per snapshot | u32 failure length
    | failure utf-8 bytes | payload: snapshot times, per-snapshot dt,
    then each profile in order, all f64
    | u32 crc32 of every byte before it

The bc kind codes are 0 ``slicing`` and 1 ``pinned``; code 2, a second name
of the pinned rule in older files, loads as ``pinned``.  Heights
round-trip bit-exactly.  Step diagnostics are cheap to recompute
from a state (``flow.diagnose``) and are not persisted.  A file of another
format version raises VersionMismatchError naming both versions.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from . import flow, grids
from .errors import CorruptFileError, IoError, VersionMismatchError

FORMAT_VERSION = 2

_MAGIC = b"DSMCFTRJ"
#: magic, version, mode, dimension, bc kind, reserved, resolution, extent,
#: snapshot count, values per snapshot, failure length
_HEADER = struct.Struct("<8sI4BIdQQI")
_CRC = struct.Struct("<I")

_MODES = (grids.RADIAL, grids.CARTESIAN)
#: Code 2 was ``frozen``, the same rule as ``pinned``: older files still load.
_BC_KINDS = (flow.SLICING, flow.PINNED, flow.PINNED)


def _decode(code, table, what, path):
    if not 0 <= code < len(table):
        raise CorruptFileError(f"{path}: invalid {what} code {code}")
    return table[code]


def _as_state(grid: grids.Grid, values: np.ndarray, bc_kind: str, s: float, path):
    if values.size != grid.node_count:
        raise CorruptFileError(
            f"{path}: profile holds {values.size} values, grid needs {grid.node_count}"
        )
    return flow.GraphState(
        u=grids.Field(grid, values.reshape(grid.shape)),
        s=s,
        bc=flow.BoundaryCondition(bc_kind),
    )


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
    # Grid and BoundaryCondition reject modes and kinds outside these tables.
    header = _HEADER.pack(
        _MAGIC, FORMAT_VERSION, _MODES.index(grid.mode), grid.dimension,
        _BC_KINDS.index(first.bc.kind), 0, grid.resolution, grid.extent,
        count, grid.node_count, len(failure),
    )
    crc = zlib.crc32(blob, zlib.crc32(failure, zlib.crc32(header)))
    try:
        with open(path, "wb") as fh:
            fh.writelines((header, failure, blob, _CRC.pack(crc)))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_trajectory(path) -> flow.Trajectory:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size + _CRC.size or not data.startswith(_MAGIC):
        raise CorruptFileError(f"{path}: not a dsmcf trajectory file")
    (_, version, mode_code, dimension, bc_code, _, resolution, extent,
     count, per, failure_len) = _HEADER.unpack_from(data)
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: file is format version {version}, "
            f"this library reads version {FORMAT_VERSION}"
        )
    offset = _HEADER.size + failure_len
    need = offset + 8 * count * (2 + per) + _CRC.size
    if len(data) != need:
        cause = "truncated" if len(data) < need else "overlong"
        raise CorruptFileError(f"{path}: {cause}, expected {need} bytes but file has {len(data)}")
    if zlib.crc32(memoryview(data)[: -_CRC.size]) != _CRC.unpack_from(data, need - _CRC.size)[0]:
        raise CorruptFileError(f"{path}: checksum mismatch")
    if count == 0:
        raise CorruptFileError(f"{path}: holds no snapshots")
    mode = _decode(mode_code, _MODES, "grid mode", path)
    bc_kind = _decode(bc_code, _BC_KINDS, "boundary kind", path)
    try:
        grid = grids.Grid(mode, dimension, extent=extent, resolution=resolution)
    except ValueError as exc:
        raise CorruptFileError(f"{path}: invalid grid: {exc}") from exc
    try:
        failure = data[_HEADER.size : offset].decode("utf-8") or None
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"{path}: failure text is not UTF-8") from exc
    flat = np.frombuffer(data, dtype="<f8", count=count * (2 + per), offset=offset)
    flat = flat.astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise CorruptFileError(f"{path}: payload holds non-finite values")
    s_values = flat[:count]
    dts = flat[count : 2 * count]
    profiles = flat[2 * count :].reshape(count, per)
    traj = flow.Trajectory(failure=failure)
    for k in range(count):
        traj.snapshots.append(_as_state(grid, profiles[k], bc_kind, float(s_values[k]), path))
        traj.dt_history.append(float(dts[k]))
    return traj
