"""Modeled execution timelines.

Benchmark timing is taken from a deterministic clock, not the host: every
kernel, transfer, and message adds an interval on a named timeline label
("rank0/cpu0", "rank0/mic1", "rank0/mic1.link", ...), and the report reads
makespans off the assembled schedule.  The same schedule drives the overlap
accounting: communication is hidden exactly where its intervals run under
somebody's compute interval.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from .errors import CaseFormatError
from .records import opened

PHASES = ("kernel_launch", "transfer_in", "compute", "transfer_out",
          "message", "pack", "unpack", "wait", "update", "reduce")
CSV_HEADER = "start,end,device,phase,note"
COMM_PHASES = frozenset({"transfer_in", "transfer_out", "message"})
WORK_PHASES = frozenset(p for p in PHASES if p != "wait")


@dataclass(frozen=True)
class Interval:
    device: str
    phase: str
    start: float
    end: float
    note: str = ""

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start


def _merge(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for s, e in sorted(spans):
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def _overlap(span: tuple[float, float], merged: list[tuple[float, float]]) -> float:
    s, e = span
    total = 0.0
    for a, b in merged:
        lo, hi = max(s, a), min(e, b)
        if lo < hi:
            total += hi - lo
    return total


@dataclass
class Timeline:
    intervals: list[Interval] = field(default_factory=list)

    def add(self, device: str, phase: str, start: float, end: float,
            note: str = "") -> Interval:
        iv = Interval(device=device, phase=phase, start=start, end=end, note=note)
        self.intervals.append(iv)
        return iv

    @property
    def makespan(self) -> float:
        if not self.intervals:
            return 0.0
        return (max(iv.end for iv in self.intervals)
                - min(iv.start for iv in self.intervals))

    @property
    def serialized_total(self) -> float:
        """Time the same work would take with nothing overlapped."""
        return sum(iv.duration for iv in self.intervals
                   if iv.phase in WORK_PHASES)

    def devices(self) -> list[str]:
        return sorted({iv.device for iv in self.intervals})

    def of_device(self, device: str) -> list[Interval]:
        return [iv for iv in self.intervals if iv.device == device]

    def busy(self, device: str) -> float:
        return sum(iv.duration for iv in self.of_device(device)
                   if iv.phase in WORK_PHASES)

    def phase_total(self, phase: str) -> float:
        return sum(iv.duration for iv in self.intervals if iv.phase == phase)

    @property
    def comm_total(self) -> float:
        return sum(iv.duration for iv in self.intervals
                   if iv.phase in COMM_PHASES)

    @property
    def hidden_comm_seconds(self) -> float:
        compute = _merge([(iv.start, iv.end) for iv in self.intervals
                          if iv.phase in ("compute", "update")])
        return sum(_overlap((iv.start, iv.end), compute)
                   for iv in self.intervals if iv.phase in COMM_PHASES)

    @property
    def hidden_comm_fraction(self) -> float:
        total = self.comm_total
        if total == 0.0:
            return 0.0
        return self.hidden_comm_seconds / total

    @property
    def ghost_stall_seconds(self) -> float:
        """Time compute devices sit idle waiting on exchanged data.  This is
        the exposed communication cost: traffic hidden under interior work
        never stalls anyone and does not show up here."""
        return sum(iv.duration for iv in self.intervals
                   if iv.phase == "wait" and iv.note == "ghosts")

    def comp_stall_ratio(self) -> float:
        """Computation-to-exposed-communication ratio of the schedule."""
        comp = self.phase_total("compute") + self.phase_total("update")
        stall = self.ghost_stall_seconds
        if stall == 0.0:
            return float("inf")
        return comp / stall

    def covered(self) -> bool:
        """True when every instant of the makespan has work running
        somewhere.  Valid schedules satisfy this, which is what makes
        makespan <= serialized_total an invariant."""
        spans = _merge([(iv.start, iv.end) for iv in self.intervals
                        if iv.phase in WORK_PHASES and iv.duration > 0])
        if not spans:
            return not self.intervals
        lo = min(iv.start for iv in self.intervals)
        hi = max(iv.end for iv in self.intervals)
        if spans[0][0] > lo or spans[-1][1] < hi:
            return False
        return len(spans) == 1

    def to_csv(self, target) -> None:
        with opened(target, "w") as f:
            f.write(CSV_HEADER + "\n")
            for iv in sorted(self.intervals, key=lambda v: (v.start, v.device)):
                f.write(f"{iv.start!r},{iv.end!r},{iv.device},"
                        f"{iv.phase},{iv.note}\n")

    @classmethod
    def from_csv(cls, target) -> "Timeline":
        """Read a ``to_csv`` file; a malformed one raises ``CaseFormatError``
        naming the file and the line."""
        with opened(target, "r") as f:
            name = getattr(f, "name", "timeline file")
            lines = f.read().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise CaseFormatError(
                f"{name}: not a timeline file (want header {CSV_HEADER})")
        tl = cls()
        for n, line in enumerate(lines[1:], 2):
            if not line.strip():
                continue
            try:
                start, end, device, phase, note = line.split(",", 4)
                tl.add(device, phase, float(start), float(end), note)
            except ValueError as e:
                raise CaseFormatError(
                    f"{name}, line {n}: want {CSV_HEADER}, got {line!r} ({e})"
                ) from None
        return tl


class ModelClock:
    """Per-label time cursors feeding one timeline.

    ``advance`` runs a phase on a label starting at its cursor;
    ``wait_until`` idles a label (recorded as a wait interval) until some
    other label's event has happened.  All arithmetic is plain float adds
    in program order, so a schedule is reproducible run to run.
    """

    def __init__(self, timeline: Timeline | None = None):
        self.timeline = timeline if timeline is not None else Timeline()
        self._cursor: dict[str, float] = {}

    def now(self, label: str) -> float:
        return self._cursor.get(label, 0.0)

    def advance(self, label: str, seconds: float, phase: str,
                note: str = "") -> float:
        t0 = self.now(label)
        t1 = t0 + seconds
        self.timeline.add(label, phase, t0, t1, note)
        self._cursor[label] = t1
        return t1

    def wait_until(self, label: str, t: float, note: str = "") -> float:
        t0 = self.now(label)
        if t > t0:
            self.timeline.add(label, "wait", t0, t, note)
            self._cursor[label] = t
        return self.now(label)


def timeline_report(tl: Timeline) -> str:
    out = io.StringIO()
    mk, ser = tl.makespan, tl.serialized_total
    out.write(f"makespan           {mk:.6e} s\n")
    out.write(f"serialized total   {ser:.6e} s\n")
    if mk > 0:
        out.write(f"overlap gain       {ser / mk:.3f}x\n")
    out.write(f"comm total         {tl.comm_total:.6e} s\n")
    out.write(f"hidden comm        {tl.hidden_comm_fraction * 100.0:.1f}%\n")
    out.write(f"ghost stalls       {tl.ghost_stall_seconds:.6e} s\n")
    for dev in tl.devices():
        busy = tl.busy(dev)
        idle = mk - busy
        out.write(f"  {dev:<20} busy {busy:.6e} s  idle {idle:.6e} s\n")
    return out.getvalue()
