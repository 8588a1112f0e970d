"""Structured errors raised across the solver and runtime.

Errors cross from pool worker processes to the rank pickled.  Each class
pickles back to an equal error: the same type, message and fields (the
fields travel in the instance dict, which unpickling restores after the
constructor has rebuilt the message).
"""

from __future__ import annotations

import pickle


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


def portable(exc: BaseException) -> BaseException:
    """``exc`` if it pickles back, else a ``WcnsflowError`` naming its type
    and message: what a worker process sends in place of an exception."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:       # any failure to pickle or to rebuild
        return WcnsflowError(f"{type(exc).__name__}: {exc}")
    return exc
