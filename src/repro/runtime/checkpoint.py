"""Scheduler state checkpointing and crash recovery.

The durability contract (asserted per seed by ``tests/test_chaos.py``'s
crash-recovery leg, in all four buffer modes and under every kernel
backend): kill a :class:`DurableScheduler` at *any* committed-event
boundary, :meth:`DurableScheduler.recover` from the checkpoint plus the
journal, replay the rest of the timeline, and the final
:class:`~repro.runtime.report.RuntimeReport` is **bit-identical** to the
uninterrupted run.  Three properties make that hold:

* the scheduler is deterministic per (config, event sequence) — the
  repo's standing serial==parallel invariant;
* :meth:`OnlineScheduler.snapshot_state` captures every decision input,
  records included, and JSON round-trips floats exactly;
* the journal holds every committed event, so replaying records
  ``n_applied..`` from a checkpoint at boundary ``n_applied`` walks the
  identical event sequence.

Checkpoints are single JSON files written atomically (temp file +
fsync + ``os.replace``), so a crash mid-checkpoint leaves the previous
checkpoint intact, never a half-written one.  The payload is serialized
in memory with the C ``json`` encoder before the temp file is opened,
and a failed write or fsync removes the temp file again.  Every
checkpoint carries the full record history, so its file size still
grows with the run.  Its encoding cost does not: the scheduler keeps
each committed record's compact JSON from the first checkpoint that
needed it (:meth:`OnlineScheduler.snapshot_json`), so a checkpoint
encodes the state without records plus only the records new since the
last one — O(new records).  The bytes are exactly those of
``json.dump(payload, fh, separators=(",", ":"))``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ..errors import CheckpointError, OnlineSchedulingError, ReproError
from ..platform.cell import CellPlatform
from .events import Event, validate_timeline
from .journal import EventJournal
from .report import EventRecord, RuntimeReport
from .scheduler import STATE_SCHEMA, OnlineScheduler

__all__ = [
    "CHECKPOINT_SCHEMA",
    "DurableScheduler",
    "read_checkpoint",
    "scheduler_from_config",
    "write_checkpoint",
]

#: Schema version of checkpoint files.
CHECKPOINT_SCHEMA = 1


def write_checkpoint(
    scheduler: OnlineScheduler,
    path: Union[str, Path],
    n_applied: int,
    fsync: bool = True,
) -> Path:
    """Atomically write ``scheduler``'s state to ``path``.

    ``n_applied`` is the journal replay cursor: how many journal records
    the captured state has consumed.  The write goes to a sibling temp
    file, is flushed (and fsync'd unless ``fsync=False``), then
    ``os.replace``d over ``path`` — the checkpoint on disk is always
    either the old one or the new one, never a torn hybrid.  A payload
    that fails to serialize raises before any file is touched; a failed
    write removes the temp file.
    """
    if n_applied < 0:
        raise CheckpointError(
            f"n_applied must be non-negative (got {n_applied!r})"
        )
    path = Path(path)
    head = json.dumps(
        {
            "checkpoint": CHECKPOINT_SCHEMA,
            "n_applied": int(n_applied),
            "config": scheduler.config(),
        },
        separators=(",", ":"),
    )
    text = head[:-1] + ',"state":' + scheduler.snapshot_json() + "}"
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_checkpoint(path: Union[str, Path]) -> Dict:
    """Parse and shape-check a checkpoint written by :func:`write_checkpoint`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {str(path)!r}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {str(path)!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("checkpoint") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema in {str(path)!r} "
            f"(this build reads {CHECKPOINT_SCHEMA})"
        )
    for key in ("n_applied", "config", "state"):
        if key not in payload:
            raise CheckpointError(
                f"checkpoint {str(path)!r} is missing {key!r}"
            )
    if payload["state"].get("schema") != STATE_SCHEMA:
        raise CheckpointError(
            f"checkpoint {str(path)!r} carries state schema "
            f"{payload['state'].get('schema')!r} (this build reads "
            f"{STATE_SCHEMA})"
        )
    return payload


def scheduler_from_config(config: Dict) -> OnlineScheduler:
    """A fresh scheduler from a :meth:`OnlineScheduler.config` echo.

    The kernel is not part of the echo because it never influences a
    decision (kernel interchangeability), so recovery may run on any
    kernel.
    """
    try:
        platform = CellPlatform(**config["platform"])
        return OnlineScheduler(
            platform,
            objective=str(config["objective"]),
            migration_budget=int(config["migration_budget"]),
            elide_local_comm=bool(config["elide_local_comm"]),
            merge_same_pe_buffers=bool(config["merge_same_pe_buffers"]),
            name=str(config["name"]),
            shed_policy=str(config["shed_policy"]),
            retry_limit=int(config["retry_limit"]),
            retry_backoff=float(config["retry_backoff"]),
            brownout_threshold=float(config["brownout_threshold"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed scheduler config echo: {exc}"
        ) from exc


class DurableScheduler:
    """An :class:`OnlineScheduler` with a journal and checkpoints.

    Wraps a scheduler so every committed event is durably journaled
    (fsync before acknowledgement) and, every ``checkpoint_every``
    events, the full scheduler state is checkpointed atomically.
    :meth:`recover` rebuilds the wrapper after a crash: restore the
    checkpoint (or replay from scratch off the journal header's config),
    replay the journal records past the checkpoint cursor, and resume
    appending — the report after the full timeline is bit-identical to
    an uninterrupted run.

    Parameters
    ----------
    scheduler:
        The scheduler to wrap (fresh, or restored by :meth:`recover`).
    journal:
        Journal file path (a fresh journal is created) or an
        already-open :class:`~repro.runtime.journal.EventJournal` (the
        recovery path hands over the repaired, append-positioned one).
    checkpoint_path:
        Where checkpoints go; ``None`` disables checkpointing (the
        journal alone still recovers, by full replay).
    checkpoint_every:
        Checkpoint after every N committed events; 0 only checkpoints
        on :meth:`close`.
    fsync:
        Forwarded to a journal created from a path, and to checkpoint
        writes.
    """

    def __init__(
        self,
        scheduler: OnlineScheduler,
        journal: Union[str, Path, EventJournal],
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
        fsync: bool = True,
        n_applied: int = 0,
    ) -> None:
        if checkpoint_every < 0:
            raise CheckpointError(
                f"checkpoint_every must be non-negative "
                f"(got {checkpoint_every!r})"
            )
        self.scheduler = scheduler
        if isinstance(journal, EventJournal):
            self.journal = journal
        else:
            self.journal = EventJournal(
                journal, config=scheduler.config(), fsync=fsync
            )
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = int(checkpoint_every)
        self.fsync = bool(fsync)
        self.n_applied = int(n_applied)

    # ------------------------------------------------------------------ #

    def process(self, event: Event) -> EventRecord:
        """Commit one event: apply, journal durably, maybe checkpoint.

        The journal append happens after the scheduler commits (so a
        refused event is never journaled) and before this method
        returns (so an acknowledged event is never lost) — kill the
        process at any point and recovery lands on a committed-event
        boundary.
        """
        record = self.scheduler.process(event)
        self.journal.append(event)
        self.n_applied += 1
        if (
            self.checkpoint_path is not None
            and self.checkpoint_every
            and self.n_applied % self.checkpoint_every == 0
        ):
            self.checkpoint()
        return record

    def run(self, events: Sequence[Event]) -> RuntimeReport:
        """Consume a whole timeline durably; returns the report."""
        for event in validate_timeline(events):
            self.process(event)
        return self.report()

    def checkpoint(self) -> Optional[Path]:
        """Write a checkpoint now (no-op without a checkpoint path)."""
        if self.checkpoint_path is None:
            return None
        return write_checkpoint(
            self.scheduler,
            self.checkpoint_path,
            self.n_applied,
            fsync=self.fsync,
        )

    def report(self) -> RuntimeReport:
        return self.scheduler.report()

    def close(self) -> None:
        """Final checkpoint (if configured) and journal close."""
        if not self.journal.closed:
            self.checkpoint()
        self.journal.close()

    def __enter__(self) -> "DurableScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls,
        journal_path: Union[str, Path],
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
        fsync: bool = True,
    ) -> "DurableScheduler":
        """Rebuild a durable scheduler from its journal (+ checkpoint).

        Repairs a torn journal tail, restores the checkpoint when one
        exists (falling back to a fresh scheduler from the journal
        header's config echo), replays every journal record at or past
        the checkpoint's cursor, and returns a wrapper positioned to
        continue the timeline exactly where the crash cut it off.
        """
        repaired = EventJournal.repair(journal_path)
        config, entries, _ = repaired
        start = 0
        scheduler: Optional[OnlineScheduler] = None
        if checkpoint_path is not None and Path(checkpoint_path).exists():
            payload = read_checkpoint(checkpoint_path)
            scheduler = scheduler_from_config(payload["config"])
            try:
                scheduler.restore_state(payload["state"])
            except OnlineSchedulingError as exc:
                raise CheckpointError(
                    f"cannot restore checkpoint "
                    f"{str(checkpoint_path)!r}: {exc}"
                ) from exc
            start = int(payload["n_applied"])
            last = entries[-1][0] + 1 if entries else 0
            if start > last:
                raise CheckpointError(
                    f"checkpoint {str(checkpoint_path)!r} claims "
                    f"{start} applied events but the journal holds {last}"
                )
        if scheduler is None:
            if config is None:
                raise CheckpointError(
                    f"journal {str(journal_path)!r} carries no config echo "
                    "and no checkpoint was given; cannot rebuild the "
                    "scheduler"
                )
            scheduler = scheduler_from_config(config)
        for idx, event in entries:
            if idx < start:
                continue
            try:
                scheduler.process(event)
            except ReproError as exc:
                raise CheckpointError(
                    f"journal replay failed at record {idx}: {exc}"
                ) from exc
        journal = EventJournal(journal_path, fsync=fsync, repaired=repaired)
        return cls(
            scheduler,
            journal,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            fsync=fsync,
            n_applied=max(start, entries[-1][0] + 1 if entries else 0),
        )
