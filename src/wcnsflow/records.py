"""Line records of the case and plan text formats.

Both formats are a ``<magic> <version>`` header followed by one record per
line: a kind word, then a fixed number of positional words for that kind,
then ``key=value`` fields.  Blank lines and lines starting with ``#`` are
skipped.  A stray word, a missing field or a value that does not parse
raises ``CaseFormatError`` naming the record and key.  ``opened`` lets
the metrics and timeline CSV readers and writers take a path or a stream.
"""

from __future__ import annotations

import contextlib

from .errors import CaseFormatError


def opened(target, mode: str):
    """Context manager for a text file: the file at path ``target`` opened
    in ``mode`` and closed on exit, or ``target`` itself, an open stream
    that stays open."""
    if isinstance(target, (str, bytes)):
        return open(target, mode, encoding="utf-8")
    return contextlib.nullcontext(target)


def ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(","))


def floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.split(","))


def optional(convert):
    """Converter that reads ``-`` as None."""
    return lambda s: None if s == "-" else convert(s)


def parse(record: str, key: str, raw: str, convert):
    try:
        return convert(raw)
    except ValueError:
        raise CaseFormatError(
            f"{record} record: cannot read {key}={raw!r}") from None


class Record:
    """One line: ``kind``, its ``positional`` words (every word when None),
    and then only ``key=value`` fields."""

    def __init__(self, line: str, positional: int | None):
        self.kind, *self.words = line.split()
        self.positional = (len(self.words) if positional is None
                           else positional)
        for w in self.words[self.positional:]:
            if "=" not in w:
                raise CaseFormatError(
                    f"{self.kind} record: expected key=value, got {w!r}")

    @property
    def fields(self) -> dict[str, str]:
        """The ``key=value`` words."""
        return dict(w.split("=", 1) for w in self.words[self.positional:])

    def word(self, i: int, convert=str):
        """Positional word ``i`` (counting from 0 after the kind)."""
        if i >= len(self.words) or "=" in self.words[i]:
            raise CaseFormatError(f"{self.kind} record: missing value {i + 1}")
        return parse(self.kind, f"value {i + 1}", self.words[i], convert)

    def get(self, key: str, convert=str):
        raw = self.fields.get(key)
        if raw is None:
            raise CaseFormatError(f"{self.kind} record: missing {key}=")
        return parse(self.kind, key, raw, convert)


def read_records(text: str, magic: str, version: int, what: str,
                 positional: dict[str, int | None]) -> list[Record]:
    """Check the header of a ``what`` file and return its records; a kind
    has the ``positional`` words it maps to, or none."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise CaseFormatError(f"empty {what} file")
    head = lines[0].split()
    if head[0] != magic:
        raise CaseFormatError(f"not a {what} file (got {head[0]!r})")
    if head[1:] != [str(version)]:
        raise CaseFormatError(
            f"unsupported {what} version {' '.join(head[1:])!r}")
    return [Record(ln, positional.get(ln.split()[0], 0))
            for ln in lines[1:]]
