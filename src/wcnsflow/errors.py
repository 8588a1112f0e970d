"""Structured errors raised across the solver and runtime."""

from __future__ import annotations


class WcnsflowError(Exception):
    """Base class for all package errors."""


class InvalidStateError(WcnsflowError):
    """A thermodynamically invalid state (non-positive density or pressure).

    Carries enough context to locate the offending cell.
    """

    def __init__(self, message: str, block_id: int | None = None,
                 index: tuple | None = None):
        self.block_id = block_id
        self.index = index
        where = ""
        if block_id is not None:
            where += f" block={block_id}"
        if index is not None:
            where += f" index={tuple(int(i) for i in index)}"
        super().__init__(message + where)


class StencilError(WcnsflowError):
    """A stencil window is too short for the requested operation."""


class PartitionError(WcnsflowError):
    """Invalid decomposition request (zone too small, bad counts, ...)."""


class HaloPlanError(WcnsflowError):
    """Inconsistent halo plan (missing mirror, bad region geometry, ...)."""


class TransportError(WcnsflowError):
    """Message transport failure. Carries the undelivered tag."""

    def __init__(self, message: str, tag: int | None = None):
        self.tag = tag
        if tag is not None:
            message += f" (tag={tag})"
        super().__init__(message)


class DivergenceError(WcnsflowError):
    """The iteration diverged (residual norm blow-up)."""

    def __init__(self, message: str, step: int | None = None, stage: int | None = None):
        self.step = step
        self.stage = stage
        ctx = ""
        if step is not None:
            ctx += f" step={step}"
        if stage is not None:
            ctx += f" stage={stage}"
        super().__init__(message + ctx)


class CaseFormatError(WcnsflowError):
    """Malformed or unsupported case, plan, dump, metrics or timeline file."""
