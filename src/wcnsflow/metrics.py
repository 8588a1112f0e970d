"""Run metrics: throughput, compute/communication split, CSV round-trip.

One row per run or modeled run.  A run's row holds the wall time it
measured; a modeled run's row (``from_timeline``) holds the modeled
makespan, and its headline number comes from that.  ``timing_source`` names
the clock a row's number comes from, and is worked out from the row.
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
    model_seconds: float | None = None
    comp_seconds: float | None = None
    comm_seconds: float | None = None
    hidden_comm_fraction: float | None = None
    messages: int | None = None
    message_bytes: int | None = None
    converged: bool | None = None
    extra: str = ""

    @property
    def timing_source(self) -> str:
        """``"model"`` for a row with a modeled time, else ``"wall"``."""
        return "wall" if self.model_seconds is None else "model"

    @property
    def seconds(self) -> float:
        """The time of the clock named by ``timing_source``."""
        return self.wall_seconds if self.model_seconds is None \
            else self.model_seconds

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
                  iterations: int, wall_seconds: float) -> RunMetrics:
    """The row of a modeled run: its makespan and phase totals."""
    comp = tl.phase_total("compute") + tl.phase_total("update")
    return RunMetrics(
        label=label,
        total_cells=total_cells,
        iterations=iterations,
        wall_seconds=wall_seconds,
        model_seconds=tl.makespan,
        comp_seconds=comp,
        comm_seconds=tl.comm_total,
        hidden_comm_fraction=tl.hidden_comm_fraction,
    )


_FIELDS = [f.name for f in dc_fields(RunMetrics)]
# The written columns: the fields, with the derived ``timing_source`` after
# ``wall_seconds`` where files already hold it, then two more derived values.
_COLUMNS = (_FIELDS[:4] + ["timing_source"] + _FIELDS[4:]
            + ["mcups", "comp_comm_ratio"])


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
        f.write(",".join(_COLUMNS) + "\n")
        for m in rows:
            f.write(",".join(_cell(getattr(m, c)) for c in _COLUMNS) + "\n")


def metrics_from_csv(target) -> list[RunMetrics]:
    """Read a ``metrics_to_csv`` file, whose derived columns it skips; a
    header without the ``RunMetrics`` columns that have no default, or a
    row whose cell does not read, raises ``CaseFormatError`` naming the
    file."""
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
    # A cell reads by the type its field is annotated with.
    read = {"int": int, "float": float, "str": str, "bool": lambda c: c == "1"}
    out = []
    for row, ln in enumerate(lines[1:], 1):
        rec = dict(zip(header, ln.split(",")))
        kwargs = {}
        for f in dc_fields(RunMetrics):
            raw = rec.get(f.name, "")
            kind = f.type.partition(" |")[0]
            if raw == "" and kind != "str":
                if f.name in required:
                    raise CaseFormatError(f"{name}: row {row} has no {f.name}")
                kwargs[f.name] = None
                continue
            try:
                kwargs[f.name] = read[kind](raw)
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
