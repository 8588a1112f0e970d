"""Per-block conserved-field storage with stencil halos."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import Block, PartitionPlan, ZoneSpec
from .state import NCOMP
from .wcns import HALO_WIDTH

H = HALO_WIDTH


@dataclass
class BlockField:
    """Conserved state for one block, stored with a halo margin of width
    ``HALO_WIDTH`` on every side so the full stencil can read across block
    boundaries after an exchange."""

    block: Block
    data: np.ndarray  # (NCOMP, nx + 2H, ny + 2H, nz + 2H), float64, C order

    @classmethod
    def allocate(cls, block: Block) -> "BlockField":
        nx, ny, nz = block.shape
        data = np.zeros((NCOMP, nx + 2 * H, ny + 2 * H, nz + 2 * H))
        return cls(block=block, data=data)

    @property
    def interior(self) -> np.ndarray:
        """Writable view of the halo-free interior, shape (NCOMP, nx, ny, nz)."""
        return self.data[:, H:-H, H:-H, H:-H]


FieldSet = dict[int, BlockField]


def allocate_fields(plan: PartitionPlan) -> FieldSet:
    return {b.id: BlockField.allocate(b) for b in plan.blocks}


def cell_centers(block: Block, zone: ZoneSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior cell-center coordinates along each axis (1D arrays)."""
    out = []
    for a in range(3):
        idx = np.arange(block.lo[a], block.hi[a], dtype=float)
        out.append(zone.origin[a] + (idx + 0.5) * zone.spacing[a])
    return out[0], out[1], out[2]


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
