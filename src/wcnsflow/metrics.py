"""Run metrics: throughput, compute/communication split, CSV round-trip.

One row per run.  ``timing_source`` records which clock produced the
headline number: heterogeneous benchmarks report the modeled clock (host
wall time rides along for reference), plain numerics runs report wall time.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields as dc_fields

from .errors import CaseFormatError
from .records import opened
from .schedule import Timeline


def mcups(total_cells: int, iterations: int, seconds: float) -> float:
    """Million cell updates per second; one update advances one cell one
    full time step."""
    if seconds <= 0.0:
        raise ValueError(f"nonpositive duration {seconds}")
    return total_cells * iterations / seconds / 1e6


@dataclass
class RunMetrics:
    label: str
    total_cells: int
    iterations: int
    wall_seconds: float
    timing_source: str = "wall"          # "wall" | "model"
    model_seconds: float | None = None
    comp_seconds: float | None = None
    comm_seconds: float | None = None
    hidden_comm_fraction: float | None = None
    messages: int | None = None
    message_bytes: int | None = None
    converged: bool | None = None
    extra: str = ""

    @property
    def seconds(self) -> float:
        if self.timing_source == "model":
            if self.model_seconds is None:
                raise ValueError(f"{self.label}: model timing requested "
                                 "but no modeled time recorded")
            return self.model_seconds
        return self.wall_seconds

    @property
    def mcups(self) -> float:
        return mcups(self.total_cells, self.iterations, self.seconds)

    @property
    def comp_comm_ratio(self) -> float | None:
        """None when the run had no communication at all."""
        if not self.comm_seconds:
            return None
        if self.comp_seconds is None:
            return None
        return self.comp_seconds / self.comm_seconds


def from_timeline(label: str, tl: Timeline, *, total_cells: int,
                  iterations: int, wall_seconds: float,
                  messages: int | None = None,
                  message_bytes: int | None = None,
                  converged: bool | None = None, extra: str = "") -> RunMetrics:
    comp = tl.phase_total("compute") + tl.phase_total("update")
    return RunMetrics(
        label=label,
        total_cells=total_cells,
        iterations=iterations,
        wall_seconds=wall_seconds,
        timing_source="model",
        model_seconds=tl.makespan,
        comp_seconds=comp,
        comm_seconds=tl.comm_total,
        hidden_comm_fraction=tl.hidden_comm_fraction,
        messages=messages,
        message_bytes=message_bytes,
        converged=converged,
        extra=extra,
    )


_COLUMNS = [f.name for f in dc_fields(RunMetrics)]
_DERIVED = ["mcups", "comp_comm_ratio"]


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def metrics_to_csv(rows: list[RunMetrics], target) -> None:
    with opened(target, "w") as f:
        f.write(",".join(_COLUMNS + _DERIVED) + "\n")
        for m in rows:
            vals = [_cell(getattr(m, c)) for c in _COLUMNS]
            vals.append(_cell(m.mcups))
            vals.append(_cell(m.comp_comm_ratio))
            f.write(",".join(vals) + "\n")


def metrics_from_csv(target) -> list[RunMetrics]:
    """Read a ``metrics_to_csv`` file; a header without the ``RunMetrics``
    columns that have no default, or a row whose cell does not read, raises
    ``CaseFormatError`` naming the file."""
    with opened(target, "r") as f:
        name = getattr(f, "name", "metrics file")
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        raise CaseFormatError(f"{name}: metrics file has no header")
    header = lines[0].split(",")
    required = [f.name for f in dc_fields(RunMetrics) if f.default is MISSING]
    missing = [c for c in required if c not in header]
    if missing:
        raise CaseFormatError(
            f"{name}: metrics header lacks the columns {','.join(missing)}")
    out = []
    for row, ln in enumerate(lines[1:], 1):
        cells = ln.split(",")
        rec = dict(zip(header, cells))
        kwargs = {}
        for f in dc_fields(RunMetrics):
            raw = rec.get(f.name, "")
            if raw == "":
                if f.name in ("label", "extra", "timing_source"):
                    kwargs[f.name] = ""
                elif f.name in required:
                    raise CaseFormatError(f"{name}: row {row} has no {f.name}")
                else:
                    kwargs[f.name] = None
                continue
            try:
                if f.name in ("total_cells", "iterations", "messages",
                              "message_bytes"):
                    kwargs[f.name] = int(raw)
                elif f.name == "converged":
                    kwargs[f.name] = raw == "1"
                elif f.name in ("label", "timing_source", "extra"):
                    kwargs[f.name] = raw
                else:
                    kwargs[f.name] = float(raw)
            except ValueError:
                raise CaseFormatError(
                    f"{name}: row {row} cannot read {f.name}={raw!r}") from None
        out.append(RunMetrics(**kwargs))
    return out


def render_report(rows: list[RunMetrics]) -> str:
    cols = ["label", "cells", "iters", "time(s)", "source", "MCUPS",
            "comp/comm", "hidden%"]
    table = [cols]
    for m in rows:
        ratio = m.comp_comm_ratio
        hid = m.hidden_comm_fraction
        table.append([
            m.label,
            str(m.total_cells),
            str(m.iterations),
            f"{m.seconds:.6g}",
            m.timing_source,
            f"{m.mcups:.3f}",
            "comp-only" if ratio is None else f"{ratio:.3f}",
            "" if hid is None else f"{hid * 100.0:.1f}",
        ])
    widths = [max(len(r[i]) for r in table) for i in range(len(cols))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
