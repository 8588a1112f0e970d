"""Per-block conserved-field storage, on the grown box (see ``partition``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import Block, PartitionPlan, ZoneSpec, margins
from .state import NCOMP


def grown_shape(zone: ZoneSpec, block: Block) -> tuple[int, int, int, int]:
    """The shape of every array of ``block``: NCOMP x its grown box."""
    return (NCOMP,) + tuple(n + 2 * m
                            for n, m in zip(block.shape, margins(zone, block)))


@dataclass
class BlockField:
    """An array of one block on its grown box, the conserved state in a
    ``FieldSet``, so the full stencil can read across block boundaries."""

    block: Block
    data: np.ndarray  # grown_shape(zone, block), float64, C order

    @classmethod
    def allocate(cls, block: Block, zone: ZoneSpec) -> "BlockField":
        return cls(block=block, data=np.zeros(grown_shape(zone, block)))

    @property
    def interior(self) -> np.ndarray:
        return interior(self.data, self.block)


def interior(data: np.ndarray, block: Block) -> np.ndarray:
    """Writable view of the interior (NCOMP, nx, ny, nz) of ``data``, an
    array of ``block``: its margins are half of what it holds beyond."""
    return data[(slice(None),) + tuple(
        slice((s - n) // 2, (s + n) // 2)
        for s, n in zip(data.shape[1:], block.shape))]


FieldSet = dict[int, BlockField]


def allocate_fields(plan: PartitionPlan) -> FieldSet:
    return {b.id: BlockField.allocate(b, plan.zone) for b in plan.blocks}


def cell_centers(block: Block, zone: ZoneSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior cell-center coordinates along each axis (1D arrays)."""
    return tuple(o + (np.arange(lo, hi, dtype=float) + 0.5) * h
                 for o, lo, hi, h in zip(zone.origin, block.lo, block.hi,
                                         zone.spacing))


def center_mesh(block: Block, zone: ZoneSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Broadcastable 3D cell-center coordinate arrays for the interior."""
    x, y, z = cell_centers(block, zone)
    return np.meshgrid(x, y, z, indexing="ij", sparse=True)


def assemble_zone(fields: FieldSet, plan: PartitionPlan) -> np.ndarray:
    """Gather block interiors into one contiguous zone-shaped array."""
    out = np.empty((NCOMP,) + plan.zone.shape)
    for b in plan.blocks:
        sl = tuple(slice(b.lo[a], b.hi[a]) for a in range(3))
        out[(slice(None),) + sl] = fields[b.id].interior
    return out
