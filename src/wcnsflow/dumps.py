"""Block state dumps: a small binary format for bitwise comparisons.

Layout (all integers little-endian u32, all data little-endian float64):

    magic    8 bytes  b"WCNSDUMP"
    version  u32      1
    count    u32      number of blocks
    per block:
        id, nx, ny, nz   4 x u32
        data             5 * nx * ny * nz float64, component-major C order

Interior cells only; ghost cells never reach disk.  Files written from
different partitions of the same state assemble to bitwise-identical zone
arrays, which is what the partition-transparency checks compare.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CaseFormatError
from .fields import FieldSet
from .partition import PartitionPlan
from .state import NCOMP

DUMP_MAGIC = b"WCNSDUMP"
DUMP_VERSION = 1
_HEAD = struct.Struct("<II")
_BLOCK = struct.Struct("<IIII")


def write_dump(path, fields: FieldSet) -> None:
    with open(path, "wb") as f:
        f.write(DUMP_MAGIC)
        f.write(_HEAD.pack(DUMP_VERSION, len(fields)))
        for bid in sorted(fields):
            interior = np.ascontiguousarray(fields[bid].interior,
                                            dtype="<f8")
            nx, ny, nz = interior.shape[1:]
            f.write(_BLOCK.pack(bid, nx, ny, nz))
            f.write(interior.tobytes())


def _read_struct(f, layout: struct.Struct, path, what: str) -> tuple:
    raw = f.read(layout.size)
    if len(raw) != layout.size:
        raise CaseFormatError(f"{path}: truncated {what}")
    return layout.unpack(raw)


def read_dump(path) -> dict[int, np.ndarray]:
    with open(path, "rb") as f:
        magic = f.read(len(DUMP_MAGIC))
        if magic != DUMP_MAGIC:
            raise CaseFormatError(f"{path}: not a dump file")
        version, count = _read_struct(f, _HEAD, path, "header")
        if version != DUMP_VERSION:
            raise CaseFormatError(f"{path}: unsupported dump version {version}")
        out: dict[int, np.ndarray] = {}
        for i in range(count):
            bid, nx, ny, nz = _read_struct(f, _BLOCK, path,
                                           f"header of block {i} of {count}")
            nbytes = NCOMP * nx * ny * nz * 8
            raw = f.read(nbytes)
            if len(raw) != nbytes:
                raise CaseFormatError(f"{path}: truncated block {bid}")
            out[bid] = np.frombuffer(raw, dtype="<f8").reshape(
                NCOMP, nx, ny, nz).astype(np.float64)
        return out


def merge_dumps(parts: list[dict[int, np.ndarray]]) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for part in parts:
        for bid, data in part.items():
            if bid in out:
                raise CaseFormatError(f"duplicate block {bid} across dumps")
            out[bid] = data
    return out


def zone_array(dump: dict[int, np.ndarray], plan: PartitionPlan) -> np.ndarray:
    """Assemble per-block dump data into one zone-shaped array."""
    zone = plan.zone
    out = np.empty((NCOMP,) + zone.shape)
    seen = 0
    for b in plan.blocks:
        if b.id not in dump:
            raise CaseFormatError(f"dump is missing block {b.id}")
        data = dump[b.id]
        if data.shape != (NCOMP,) + b.shape:
            raise CaseFormatError(
                f"block {b.id} dump shape {data.shape} does not match "
                f"plan shape {(NCOMP,) + b.shape}")
        sl = tuple(slice(b.lo[a], b.hi[a]) for a in range(3))
        out[(slice(None),) + sl] = data
        seen += data[0].size
    if seen != zone.cells:
        raise CaseFormatError(
            f"dump covers {seen} cells of {zone.cells} in the zone")
    return out
