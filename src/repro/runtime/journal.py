"""Write-ahead event journal: fsync'd JSONL, one record per committed event.

:class:`EventJournal` is the durability half of the scheduler service's
crash story (the other half is :mod:`repro.runtime.checkpoint`).  The
file layout is deliberately primitive — a header line followed by one
compact JSON line per event::

    {"journal": 1, "config": {...} | null}
    {"idx": 0, "event": {"type": "arrival", ...}}
    {"idx": 1, "event": {"type": "failure", ...}}
    ...

* **Schema-versioned.**  The header carries the journal schema and,
  optionally, the owning scheduler's :meth:`~repro.runtime.scheduler.
  OnlineScheduler.config` echo, so a journal alone (no checkpoint) is
  enough to rebuild an equivalent scheduler and replay from event 0.
* **Committed events only.**  :class:`~repro.runtime.checkpoint.
  DurableScheduler` appends an event *after* the scheduler commits it
  and fsyncs *before* acknowledging it, so an acknowledged event is
  never lost and a replayed journal never contains an event the
  scheduler refused — replaying can never fail where the original run
  succeeded.
* **Torn tails are repaired, not fatal.**  A crash mid-``write`` leaves
  a partial final line.  :meth:`EventJournal.read` reports it,
  :meth:`EventJournal.repair` truncates the file back to the last
  complete record, and opening a journal for appending repairs
  automatically.  Anything worse — a malformed record *before* the
  final line, a bad header, out-of-order indices — raises
  :class:`~repro.errors.JournalError`: that is corruption recovery must
  not paper over.

Record indices are the replay cursor: checkpoints store how many events
were applied (``n_applied``), and recovery replays exactly the records
with ``idx >= n_applied`` (see :func:`repro.runtime.checkpoint.
DurableScheduler.recover`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import JournalError, OnlineSchedulingError
from .events import Event
from .faults import event_from_dict, event_to_dict

__all__ = ["EventJournal", "JOURNAL_SCHEMA"]

#: Schema version written into (and required of) journal headers.
JOURNAL_SCHEMA = 1

#: One parsed journal entry: ``(idx, event)``.
Entry = Tuple[int, Event]


def _parse_line(text: str, lineno: int) -> Dict[str, Any]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JournalError(
            f"journal line {lineno} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise JournalError(
            f"journal line {lineno} is not a JSON object "
            f"(got {type(payload).__name__})"
        )
    return payload


def _scan(raw: bytes) -> Tuple[Optional[Dict], List[Entry], int]:
    """Parse journal bytes; returns ``(config, entries, good_bytes)``.

    ``good_bytes`` is the byte length of the valid prefix — equal to
    ``len(raw)`` when the journal is clean, shorter when the final line
    is torn (unparseable or missing its terminator *and* unparseable).
    A final line that parses but lacks its ``\\n`` is a complete record
    whose terminator was lost — it is accepted, and the missing newline
    is the only thing repair rewrites.
    """
    config: Optional[Dict] = None
    entries: List[Entry] = []
    have_header = False
    good = 0
    offset = 0
    lineno = 0
    for line in raw.splitlines(keepends=True):
        lineno += 1
        start, offset = offset, offset + len(line)
        complete = line.endswith(b"\n")
        text = line.decode("utf-8", errors="replace").rstrip("\r\n")
        last = offset == len(raw)
        try:
            payload = _parse_line(text, lineno)
            if not have_header:
                if payload.get("journal") != JOURNAL_SCHEMA:
                    raise JournalError(
                        f"unsupported journal schema "
                        f"{payload.get('journal')!r} (this build reads "
                        f"{JOURNAL_SCHEMA})"
                    )
                config = payload.get("config")
                have_header = True
            else:
                idx = int(payload["idx"])
                expect = entries[-1][0] + 1 if entries else 0
                if idx != expect:
                    raise JournalError(
                        f"journal line {lineno} has idx {idx!r}, "
                        f"expected {expect} (records must be contiguous "
                        f"from 0)"
                    )
                entries.append((idx, event_from_dict(payload["event"])))
        except (
            OnlineSchedulingError,  # includes JournalError
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            if last and not complete:
                # Torn tail: the mid-write-crash signature.  Everything
                # before this line is intact.
                return config, entries, good
            if isinstance(exc, JournalError):
                raise
            raise JournalError(
                f"journal line {lineno} is malformed: {exc}"
            ) from exc
        good = offset
    return config, entries, good


def _load(path: Path) -> Tuple[bytes, Optional[Dict], List[Entry], int]:
    """Read and scan a journal once; :func:`_scan` plus the raw bytes."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JournalError(
            f"cannot read journal {str(path)!r}: {exc}"
        ) from exc
    if not raw:
        raise JournalError(f"journal {str(path)!r} is empty (no header)")
    return (raw, *_scan(raw))


def _fsync_dir(directory: Path) -> None:
    """fsync a directory, persisting the entries created in it."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class EventJournal:
    """Append-only JSONL journal of committed runtime events.

    Parameters
    ----------
    path:
        The journal file.  ``fresh=True`` (re)creates it with a new
        header; ``fresh=False`` opens an existing journal for appending,
        repairing a torn tail first, and appends continue at the next
        record index.  A missing file is always created fresh.
    config:
        Optional scheduler :meth:`~repro.runtime.scheduler.
        OnlineScheduler.config` echo for the header of a fresh journal
        (ignored when appending to an existing one — the stored header
        wins).
    fsync:
        ``True`` (default) fsyncs after the header and after every
        appended record — the durability contract — and fsyncs the
        parent directory once when the file is created, so the new
        directory entry survives a power loss.  ``False`` skips every
        fsync (tests and throwaway sweeps) but still flushes, so the
        file is consistent on clean close.
    repaired:
        The :meth:`repair` result for ``path``, when the caller already
        holds it: the journal opens for appending from it without
        reading the file again (``fresh`` is then ignored).
    """

    def __init__(
        self,
        path: Union[str, Path],
        config: Optional[Dict] = None,
        fsync: bool = True,
        fresh: bool = True,
        repaired: Optional[Tuple[Optional[Dict], List[Entry], bool]] = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.config = config
        self.next_idx = 0
        if (
            repaired is None
            and not fresh
            and self.path.exists()
            and self.path.stat().st_size
        ):
            repaired = self.repair(self.path)
        if repaired is not None:
            self.config, entries, _ = repaired
            self.next_idx = entries[-1][0] + 1 if entries else 0
            self._fh = open(self.path, "a", encoding="utf-8")
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._write({"journal": JOURNAL_SCHEMA, "config": self.config})
            if self.fsync:
                _fsync_dir(self.path.parent)

    # ------------------------------------------------------------------ #
    # Writing

    def _write(self, payload: Dict) -> None:
        self._fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def append(self, event: Event) -> int:
        """Durably append one committed event; returns its record index."""
        if self._fh.closed:
            raise JournalError(
                f"journal {str(self.path)!r} is closed; cannot append"
            )
        idx = self.next_idx
        self._write({"idx": idx, "event": event_to_dict(event)})
        self.next_idx = idx + 1
        return idx

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Reading / recovery

    @staticmethod
    def read(
        path: Union[str, Path],
    ) -> Tuple[Optional[Dict], List[Entry], bool]:
        """Parse a journal; returns ``(config, entries, torn)``.

        Read-only validation: ``torn`` flags a partial final line
        (ignored — its record never committed), while corruption
        anywhere else raises :class:`~repro.errors.JournalError`.
        """
        raw, config, entries, good = _load(Path(path))
        return config, entries, good < len(raw)

    @staticmethod
    def repair(
        path: Union[str, Path],
    ) -> Tuple[Optional[Dict], List[Entry], bool]:
        """:meth:`read`, truncating a torn tail in place when found.

        Returns ``(config, entries, truncated)``; after it returns the
        file on disk holds exactly ``entries`` and ends at a record
        boundary, so appending can resume safely.  The file is read and
        scanned once.
        """
        path = Path(path)
        raw, config, entries, good = _load(path)
        torn = good < len(raw)
        if torn:
            with open(path, "r+b") as fh:
                fh.truncate(good)
                fh.flush()
                os.fsync(fh.fileno())
        elif not raw.endswith(b"\n"):
            # Complete final record that lost only its terminator: put
            # the newline back so appends land on a fresh line.
            with open(path, "ab") as fh:
                fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())
        return config, entries, torn
