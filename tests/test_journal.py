"""Durability layer: journal, checkpoint, and crash recovery.

Small deterministic cases for the write-ahead journal and checkpoint
files (the randomized kill-anywhere sweep lives in ``test_chaos.py``):

* ``snapshot_state``/``restore_state`` round-trips mid-timeline and the
  resumed scheduler finishes identically to the uninterrupted one;
* the JSONL journal round-trips, detects a torn tail (crash mid-write)
  without raising, repairs it in place, and keeps appending with
  contiguous indices — including against a checked-in regression
  payload under ``tests/data/``;
* a corrupt *middle* record is data loss and raises
  :class:`~repro.errors.JournalError` (only the tail may be torn);
* ``snapshot_json`` is exactly ``json.dumps(snapshot_state())`` while
  encoding each record once per scheduler;
* a fresh journal fsyncs its directory once, and recovery reads and
  scans the journal once;
* ``DurableScheduler.recover`` replays to the bit-identical report in
  all four buffer modes and across kernel backends, and the recovered
  scheduler writes the uninterrupted run's checkpoint bytes;
* a crash inside a cost-perturbation window recovers the scaled
  platform and graphs exactly, and still restores the originals at
  ``CostRestore``.
"""

import dataclasses
import io
import json
import os
import shutil
import stat
from pathlib import Path

import pytest

from repro.errors import CheckpointError, JournalError, OnlineSchedulingError
from repro.graph import DataEdge, StreamGraph, Task
from repro.obs import metrics as _metrics
from repro.platform import CellPlatform
from repro.runtime import (
    AppArrival,
    CostPerturbation,
    CostRestore,
    DurableScheduler,
    EventJournal,
    EventRecord,
    FaultInjector,
    OnlineScheduler,
    ScenarioGenerator,
    read_checkpoint,
    scheduler_from_config,
    write_checkpoint,
)
from repro.runtime import checkpoint as checkpoint_mod
from repro.runtime import journal as journal_mod
from repro.runtime import scheduler as scheduler_mod
from repro.steady_state.reference import _ReferenceState
from test_chaos import ALL_MODES

DATA_DIR = Path(__file__).parent / "data"


def small_graph(name="jrnl", w=9.0):
    g = StreamGraph(name)
    g.add_task(Task("a", wppe=12.0, wspe=w))
    g.add_task(Task("b", wppe=10.0, wspe=w - 2.0))
    g.add_edge(DataEdge("a", "b", 512.0))
    return g


def scenario(platform, seed=3, n=12, load=2.0):
    return ScenarioGenerator(
        platform, seed=seed, load=load, n_failures=1
    ).generate(n)


def fresh_scheduler(platform, **mode):
    return OnlineScheduler(
        platform,
        migration_budget=2,
        retry_limit=1,
        retry_backoff=4.0,
        **mode,
    )


@pytest.fixture(scope="module")
def platform():
    return CellPlatform.qs22()


def assert_reports_equal(left, right):
    assert left == right
    # JSON bit-identity only holds while instrumentation is off: the
    # CI instrumented leg records wall-clock latencies into the records.
    if _metrics.REGISTRY is None:
        assert left.to_json() == right.to_json()


# ------------------------------------------------------------------ #
# snapshot_state / restore_state


class TestSnapshotRestore:
    def test_mid_timeline_round_trip(self, platform):
        events = scenario(platform)
        baseline = fresh_scheduler(platform).run(events)
        sched = fresh_scheduler(platform)
        for event in events[:6]:
            sched.process(event)
        clone = scheduler_from_config(sched.config())
        clone.restore_state(sched.snapshot_state())
        for event in events[6:]:
            clone.process(event)
        assert_reports_equal(clone.report(), baseline)

    def test_restore_is_backend_agnostic(self, platform, monkeypatch):
        events = scenario(platform, seed=5)
        sched = fresh_scheduler(platform)
        for event in events[:6]:
            sched.process(event)
        state = sched.snapshot_state()
        finals = []
        for engine in (scheduler_mod.DeltaAnalyzer, _ReferenceState):
            monkeypatch.setattr(scheduler_mod, "DeltaAnalyzer", engine)
            clone = scheduler_from_config(sched.config())
            clone.restore_state(state)
            for event in events[6:]:
                clone.process(event)
            finals.append(clone.report())
        assert finals[0].records == finals[1].records
        assert finals[0].acceptance_rate == finals[1].acceptance_rate

    def test_restore_rejects_unknown_schema(self, platform):
        sched = fresh_scheduler(platform)
        sched.run(scenario(platform, n=4))
        payload = sched.snapshot_state()
        payload["schema"] = 99
        with pytest.raises(OnlineSchedulingError, match="schema"):
            fresh_scheduler(platform).restore_state(payload)

    def test_restore_rejects_mangled_payload(self, platform):
        sched = fresh_scheduler(platform)
        sched.run(scenario(platform, n=6))
        payload = sched.snapshot_state()
        del payload["apps"]
        with pytest.raises(OnlineSchedulingError):
            fresh_scheduler(platform).restore_state(payload)

    def test_snapshot_survives_json(self, platform):
        events = scenario(platform, seed=9)
        baseline = fresh_scheduler(platform).run(events)
        sched = fresh_scheduler(platform)
        for event in events[:7]:
            sched.process(event)
        payload = json.loads(json.dumps(sched.snapshot_state()))
        clone = scheduler_from_config(sched.config())
        clone.restore_state(payload)
        for event in events[7:]:
            clone.process(event)
        assert_reports_equal(clone.report(), baseline)


# ------------------------------------------------------------------ #
# EventJournal


class TestEventJournal:
    def test_append_read_round_trip(self, tmp_path, platform):
        from repro.runtime import event_to_dict

        events = scenario(platform, n=8)
        path = tmp_path / "j.jsonl"
        with EventJournal(path, config={"n": 1}) as journal:
            for i, event in enumerate(events):
                assert journal.append(event) == i
        config, entries, torn = EventJournal.read(path)
        assert config == {"n": 1}
        assert not torn
        assert [idx for idx, _ in entries] == list(range(len(events)))
        assert [event_to_dict(e) for _, e in entries] == [
            event_to_dict(e) for e in events
        ]

    def test_torn_tail_detected_and_repaired(self, tmp_path, platform):
        events = scenario(platform, n=6)
        path = tmp_path / "j.jsonl"
        with EventJournal(path, config=None) as journal:
            for event in events:
                journal.append(event)
        with open(path, "ab") as fh:
            fh.write(b'{"idx": 6, "event": {"type": "arr')  # crash mid-write
        _, entries, torn = EventJournal.read(path)
        assert torn
        assert len(entries) == len(events)
        EventJournal.repair(path)
        _, entries, torn = EventJournal.read(path)
        assert not torn
        assert len(entries) == len(events)
        # Appending after repair keeps indices contiguous.
        with EventJournal(path, fresh=False) as journal:
            assert journal.append(events[0]) == len(events)

    def test_missing_final_newline_is_not_data_loss(self, tmp_path, platform):
        """A final record that parses but lost its ``\\n`` is complete —
        repair rewrites only the terminator, and appending after the
        auto-repairing reopen does not corrupt the line."""
        events = scenario(platform, n=4)
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            for event in events:
                journal.append(event)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        _, entries, torn = EventJournal.read(path)
        assert not torn
        assert len(entries) == len(events)
        with EventJournal(path, fresh=False) as journal:
            assert journal.append(events[0]) == len(events)
        _, entries, torn = EventJournal.read(path)
        assert not torn
        assert len(entries) == len(events) + 1

    def test_corrupt_middle_record_raises(self, tmp_path, platform):
        events = scenario(platform, n=5)
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            for event in events:
                journal.append(event)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"idx": 1, "event": {"type": "arr\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError):
            EventJournal.read(path)

    def test_gap_in_indices_raises(self, tmp_path, platform):
        events = scenario(platform, n=4)
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            for event in events:
                journal.append(event)
        lines = path.read_bytes().splitlines(keepends=True)
        del lines[2]
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="contiguous|index"):
            EventJournal.read(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"")
        with pytest.raises(JournalError):
            EventJournal.read(path)

    def test_append_after_close_raises(self, tmp_path, platform):
        journal = EventJournal(tmp_path / "j.jsonl")
        journal.close()
        with pytest.raises(JournalError):
            journal.append(scenario(platform, n=2)[0])

    def test_fsync_covers_the_directory_entry_once(
        self, tmp_path, platform, monkeypatch
    ):
        """A fresh journal fsyncs its parent directory once, at creation
        (a new directory entry is durable only then); appends and
        ``fsync=False`` journals never sync the directory."""
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            st = os.fstat(fd)
            synced.append(st.st_ino if stat.S_ISDIR(st.st_mode) else None)
            real_fsync(fd)

        monkeypatch.setattr(journal_mod.os, "fsync", spy)
        events = scenario(platform, n=4)
        with EventJournal(tmp_path / "j.jsonl") as journal:
            assert synced == [None, tmp_path.stat().st_ino]
            for event in events:
                journal.append(event)
        assert synced[2:] == [None] * len(events)
        del synced[:]
        with EventJournal(tmp_path / "j.jsonl", fresh=False) as journal:
            journal.append(events[0])
        assert synced == [None]
        del synced[:]
        with EventJournal(tmp_path / "k.jsonl", fsync=False) as journal:
            for event in events:
                journal.append(event)
        assert synced == []

    def test_regression_payload_recovers(self, tmp_path):
        """The checked-in torn journal (crash mid-record-3) recovers
        cleanly: two committed events, torn tail truncated, replay
        works."""
        src = DATA_DIR / "torn_journal.jsonl"
        _, entries, torn = EventJournal.read(src)
        assert torn
        assert [idx for idx, _ in entries] == [0, 1]
        path = tmp_path / "torn.jsonl"
        shutil.copy(src, path)
        with DurableScheduler.recover(path) as recovered:
            assert recovered.n_applied == 2
            report = recovered.scheduler.report()
        # The recovered run equals a fresh replay of the two committed
        # events (retry firings may add records beyond the entries).
        config, entries, _ = EventJournal.read(path)
        replay = scheduler_from_config(config)
        for _, event in entries:
            replay.process(event)
        assert report == replay.report()
        assert report.all_feasible
        # The torn tail was truncated in place, not preserved.
        _, entries, torn = EventJournal.read(path)
        assert not torn
        assert len(entries) == 2


# ------------------------------------------------------------------ #
# Checkpoint files


class TestCheckpoint:
    def test_write_read_round_trip(self, tmp_path, platform):
        sched = fresh_scheduler(platform)
        sched.run(scenario(platform, n=6))
        path = tmp_path / "c.json"
        write_checkpoint(sched, path, n_applied=6)
        payload = read_checkpoint(path)
        assert payload["n_applied"] == 6
        assert payload["config"] == sched.config()
        assert payload["state"] == json.loads(
            json.dumps(sched.snapshot_state())
        )
        assert not list(tmp_path.glob("*.tmp"))  # atomic rename cleaned up

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"not": "a checkpoint"}')
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_read_rejects_torn_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"checkpoint": 1, "n_appl')
        with pytest.raises(CheckpointError):
            read_checkpoint(path)


def busy_timeline(platform):
    """A churn timeline with bursts and one cost-perturbation window."""
    events = ScenarioGenerator(
        platform, seed=0, load=6.0, n_failures=1
    ).generate(30)
    return FaultInjector(platform, seed=0).inject(
        events, n_bursts=1, n_perturbations=1
    )


def busy_fresh(platform):
    return OnlineScheduler(
        platform, migration_budget=2, retry_limit=2, retry_backoff=4.0
    )


def busy_scheduler(platform):
    """A scheduler inside a perturbation window, with deferred
    admissions queued and rejected, shed and admitted arrivals in its
    history."""
    sched = busy_fresh(platform)
    for event in busy_timeline(platform)[:16]:
        sched.process(event)
    assert sched._pending and sched._perturbation is not None
    return sched


def compact(payload):
    return json.dumps(payload, separators=(",", ":"))


class TestCheckpointBytes:
    """Checkpoint files are exactly ``json.dump(payload, fh,
    separators=(",", ":"))`` of the snapshot, whichever encoder writes
    them, and a failed write never disturbs the previous checkpoint."""

    @pytest.fixture(scope="class")
    def busy(self, platform):
        return busy_scheduler(platform)

    @staticmethod
    def asdict_payload(record):
        """The ``dataclasses.asdict``-based payload ``to_dict`` replaced."""
        payload = dataclasses.asdict(record)
        payload["dropped"] = list(record.dropped)
        payload["app_periods"] = [
            [name, period] for name, period in record.app_periods
        ]
        return payload

    def test_record_to_dict_matches_asdict(self, busy):
        records = list(busy.report().records) + [
            EventRecord(
                seq=7,
                time=1.5,
                event="failure",
                subject="PE3",
                accepted=None,
                reason="evacuated",
                migrations=2,
                dropped=("x", "y"),
                period=12.25,
                value=0.1,
                feasible=False,
                n_apps=2,
                n_tasks=9,
                degraded=True,
                target_misses=1,
                app_periods=(("a", 3.0), ("b", 4.5)),
                decision_latency=0.25,
            )
        ]
        assert {r.accepted for r in records} == {None, True, False}
        assert any(r.dropped for r in records)
        assert any(r.app_periods for r in records)
        for record in records:
            got, want = record.to_dict(), self.asdict_payload(record)
            assert list(got.items()) == list(want.items())
            assert json.dumps(got) == json.dumps(want)

    def test_file_bytes_match_json_dump(self, tmp_path, busy):
        path = tmp_path / "c.json"
        write_checkpoint(busy, path, n_applied=16, fsync=False)
        expected = io.StringIO()
        json.dump(
            {
                "checkpoint": checkpoint_mod.CHECKPOINT_SCHEMA,
                "n_applied": 16,
                "config": busy.config(),
                "state": busy.snapshot_state(),
            },
            expected,
            separators=(",", ":"),
        )
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_unserializable_payload_leaves_previous(
        self, tmp_path, busy, monkeypatch
    ):
        """An unserializable value in the state, or in a record not yet
        encoded, reaches the encoder ``write_checkpoint`` uses and
        raises before the file is touched."""
        path = tmp_path / "c.json"
        write_checkpoint(busy, path, n_applied=16, fsync=False)
        before = path.read_bytes()
        bad = dataclasses.replace(
            busy._records[-1], seq=len(busy._records), reason=object()
        )
        for attr, value in (
            ("_degraded", object()),
            ("_records", [*busy._records, bad]),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(busy, attr, value)
                with pytest.raises(TypeError, match="not JSON serializable"):
                    write_checkpoint(busy, path, n_applied=17, fsync=False)
            assert path.read_bytes() == before
            assert not list(tmp_path.glob("*.tmp"))

    def test_failed_fsync_removes_temp_file(self, tmp_path, busy, monkeypatch):
        path = tmp_path / "c.json"
        write_checkpoint(busy, path, n_applied=16, fsync=False)
        before = path.read_bytes()

        def broken_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(checkpoint_mod.os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="disk gone"):
            write_checkpoint(busy, path, n_applied=17, fsync=True)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


class TestSnapshotJson:
    """``snapshot_json`` splices each record's cached text into the
    snapshot: always exactly ``json.dumps(snapshot_state())``, and each
    record is encoded once per scheduler."""

    def test_matches_snapshot_state_on_busy(self, platform):
        busy = busy_scheduler(platform)
        assert any(r.accepted is False for r in busy._records)
        assert any(r.dropped for r in busy._records)
        assert busy.snapshot_json() == compact(busy.snapshot_state())
        assert busy.snapshot_json() == compact(busy.snapshot_state())

    def test_matches_across_consecutive_snapshots(self, platform):
        sched = fresh_scheduler(platform)
        assert sched.snapshot_json() == compact(sched.snapshot_state())
        for event in busy_timeline(platform):
            sched.process(event)
            assert sched.snapshot_json() == compact(sched.snapshot_state())

    def test_matches_after_restore(self, platform):
        events = busy_timeline(platform)
        sched = busy_scheduler(platform)
        sched.snapshot_json()
        clone = scheduler_from_config(sched.config())
        for event in scenario(platform, seed=9, n=6):
            clone.process(event)
        clone.snapshot_json()  # a stale cache the restore must drop
        clone.restore_state(json.loads(sched.snapshot_json()))
        assert clone.snapshot_json() == sched.snapshot_json()
        for event in events[16:]:
            clone.process(event)
            assert clone.snapshot_json() == compact(clone.snapshot_state())

    def test_matches_with_metrics(self, platform, monkeypatch):
        monkeypatch.setattr(_metrics, "REGISTRY", _metrics.MetricsRegistry())
        sched = busy_scheduler(platform)
        assert any(r.decision_latency > 0 for r in sched._records)
        assert sched.snapshot_json() == compact(sched.snapshot_state())

    def test_each_record_is_encoded_once(self, tmp_path, platform, monkeypatch):
        calls = []
        to_dict = EventRecord.to_dict

        def counted(record):
            calls.append(record.seq)
            return to_dict(record)

        monkeypatch.setattr(EventRecord, "to_dict", counted)
        events = busy_timeline(platform)
        sched = fresh_scheduler(platform)
        path = tmp_path / "c.json"
        for n, event in enumerate(events[:20], 1):
            sched.process(event)
            if n % 4 == 0:
                write_checkpoint(sched, path, n_applied=n, fsync=False)
        assert calls == list(range(len(sched._records)))
        # A restored scheduler encodes the restored records once, at its
        # next checkpoint, and afterwards only the records new since.
        clone = scheduler_from_config(sched.config())
        clone.restore_state(read_checkpoint(path)["state"])
        del calls[:]
        write_checkpoint(clone, path, n_applied=20, fsync=False)
        assert calls == list(range(len(clone._records)))
        del calls[:]
        before = len(clone._records)
        for n, event in enumerate(events[20:], 21):
            clone.process(event)
            write_checkpoint(clone, path, n_applied=n, fsync=False)
        assert calls == list(range(before, len(clone._records)))


# ------------------------------------------------------------------ #
# Crash-recovery equivalence (small deterministic cases; the randomized
# sweep is test_chaos.py::test_crash_recovery_equivalence)


class TestRecovery:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: ",".join(m) or "plain")
    def test_kill_and_recover_matches_uninterrupted(
        self, tmp_path, platform, mode
    ):
        events = scenario(platform, seed=11)
        baseline = fresh_scheduler(platform, **mode).run(events)
        stem = tmp_path / "run"
        durable = DurableScheduler(
            fresh_scheduler(platform, **mode),
            stem.with_suffix(".jsonl"),
            checkpoint_path=stem.with_suffix(".json"),
            checkpoint_every=3,
            fsync=False,
        )
        for event in events[:7]:
            durable.process(event)
        # Crash: no close(), no final checkpoint — only what process()
        # already made durable survives.
        recovered = DurableScheduler.recover(
            stem.with_suffix(".jsonl"),
            checkpoint_path=stem.with_suffix(".json"),
            fsync=False,
        )
        with recovered:
            assert recovered.n_applied == 7
            for event in events[7:]:
                recovered.process(event)
            assert_reports_equal(recovered.scheduler.report(), baseline)

    def test_recovered_checkpoint_bytes_match_uninterrupted(
        self, tmp_path, platform
    ):
        """Cut anywhere — inside a perturbation window with retries
        queued too — and the recovered scheduler writes the checkpoint
        the uninterrupted run writes at the same cursor, byte for byte."""

        def comparable(raw):
            # Instrumented runs record wall-clock decision latencies.
            if _metrics.REGISTRY is None:
                return raw
            payload = json.loads(raw)
            for record in payload["state"]["records"]:
                record["decision_latency"] = 0.0
            return payload

        events = busy_timeline(platform)
        sched = busy_fresh(platform)
        expected = {}
        window = []
        for n, event in enumerate(events, 1):
            sched.process(event)
            path = write_checkpoint(
                sched, tmp_path / "u.json", n_applied=n, fsync=False
            )
            expected[n] = path.read_bytes()
            if sched._perturbation is not None and sched._pending:
                window.append(n)
        assert window
        for cut in sorted({7, window[0], window[-1], len(events)}):
            stem = tmp_path / f"cut{cut}"
            durable = DurableScheduler(
                busy_fresh(platform),
                stem.with_suffix(".jsonl"),
                checkpoint_path=stem.with_suffix(".json"),
                checkpoint_every=5,
                fsync=False,
            )
            for event in events[:cut]:
                durable.process(event)
            durable.journal.close()  # crash: no final checkpoint
            recovered = DurableScheduler.recover(
                stem.with_suffix(".jsonl"),
                checkpoint_path=stem.with_suffix(".json"),
                fsync=False,
            )
            assert recovered.n_applied == cut
            path = write_checkpoint(
                recovered.scheduler,
                stem.with_suffix(".recovered.json"),
                n_applied=recovered.n_applied,
                fsync=False,
            )
            recovered.journal.close()
            assert comparable(path.read_bytes()) == comparable(expected[cut])

    @pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
    def test_recover_reads_and_scans_the_journal_once(
        self, tmp_path, platform, monkeypatch, torn
    ):
        events = scenario(platform, n=6)
        path = tmp_path / "run.jsonl"
        durable = DurableScheduler(fresh_scheduler(platform), path, fsync=False)
        for event in events:
            durable.process(event)
        durable.journal.close()
        if torn:
            with open(path, "ab") as fh:
                fh.write(b'{"idx": 6, "event": {"type": "arr')
        scans, reads = [], []
        real_scan, real_read = journal_mod._scan, Path.read_bytes
        monkeypatch.setattr(
            journal_mod, "_scan", lambda raw: scans.append(1) or real_scan(raw)
        )
        monkeypatch.setattr(
            Path, "read_bytes", lambda p: reads.append(p) or real_read(p)
        )
        with DurableScheduler.recover(path, fsync=False) as recovered:
            assert recovered.n_applied == len(events)
            assert recovered.journal.next_idx == len(events)
        assert len(scans) == 1
        assert reads == [path]
        _, entries, torn_after = EventJournal.read(path)
        assert not torn_after and len(entries) == len(events)

    def test_recover_without_checkpoint_uses_config_echo(
        self, tmp_path, platform
    ):
        events = scenario(platform, seed=13)
        baseline = fresh_scheduler(platform).run(events)
        path = tmp_path / "run.jsonl"
        durable = DurableScheduler(
            fresh_scheduler(platform), path, fsync=False
        )
        for event in events[:5]:
            durable.process(event)
        with DurableScheduler.recover(path, fsync=False) as recovered:
            for event in events[5:]:
                recovered.process(event)
            assert_reports_equal(recovered.scheduler.report(), baseline)

    def test_recover_onto_other_backend(self, tmp_path, platform, monkeypatch):
        events = scenario(platform, seed=17)
        baseline = fresh_scheduler(platform).run(events)
        path = tmp_path / "run.jsonl"
        durable = DurableScheduler(
            fresh_scheduler(platform), path, fsync=False
        )
        for event in events[:6]:
            durable.process(event)
        monkeypatch.setattr(scheduler_mod, "DeltaAnalyzer", _ReferenceState)
        with DurableScheduler.recover(path, fsync=False) as recovered:
            for event in events[6:]:
                recovered.process(event)
            assert recovered.scheduler.report().records == baseline.records

    def test_recover_without_anything_raises(self, tmp_path):
        with pytest.raises((JournalError, CheckpointError, OSError)):
            DurableScheduler.recover(tmp_path / "absent.jsonl")


# ------------------------------------------------------------------ #
# Crash inside a cost-perturbation window (satellite: the scaled
# platform and graphs must be reinstated exactly, and CostRestore must
# still restore the originals)


class TestPerturbationWindowRecovery:
    COMPUTE_SCALE = 1.25
    BW_SCALE = 0.5

    def timeline(self):
        return [
            AppArrival(0.0, "stay", small_graph("stay")),
            CostPerturbation(
                10.0,
                compute_scale=self.COMPUTE_SCALE,
                bw_scale=self.BW_SCALE,
            ),
            AppArrival(15.0, "mid", small_graph("mid", w=7.0)),
            CostRestore(20.0),
            AppArrival(25.0, "late", small_graph("late", w=8.0)),
        ]

    def test_crash_during_window(self, tmp_path, platform):
        events = self.timeline()
        baseline = fresh_scheduler(platform).run(events)
        stem = tmp_path / "window"
        durable = DurableScheduler(
            fresh_scheduler(platform),
            stem.with_suffix(".jsonl"),
            checkpoint_path=stem.with_suffix(".json"),
            checkpoint_every=1,
            fsync=False,
        )
        for event in events[:3]:  # crash after the in-window arrival
            durable.process(event)
        recovered = DurableScheduler.recover(
            stem.with_suffix(".jsonl"),
            checkpoint_path=stem.with_suffix(".json"),
            fsync=False,
        )
        with recovered:
            sched = recovered.scheduler
            # The scaled platform is recomputed bit-exactly.
            assert sched.platform.bw == platform.bw * self.BW_SCALE
            assert sched.platform.eib_bw == platform.eib_bw * self.BW_SCALE
            assert sched.platform.bif_bw == platform.bif_bw * self.BW_SCALE
            # Resident graphs carry the in-window compute scaling.
            graphs = {app.name: app.graph for app in sched.workload}
            assert (
                graphs["stay"].task("a").wspe
                == 9.0 * self.COMPUTE_SCALE
            )
            # CostRestore still lands on the saved originals.
            for event in events[3:]:
                recovered.process(event)
            assert sched.platform.bw == platform.bw
            assert sched.platform.eib_bw == platform.eib_bw
            graphs = {app.name: app.graph for app in sched.workload}
            assert graphs["stay"].task("a").wspe == 9.0
            assert_reports_equal(sched.report(), baseline)

    def test_crash_before_window_replays_through_it(
        self, tmp_path, platform
    ):
        events = self.timeline()
        baseline = fresh_scheduler(platform).run(events)
        path = tmp_path / "pre.jsonl"
        durable = DurableScheduler(
            fresh_scheduler(platform), path, fsync=False
        )
        durable.process(events[0])  # crash before the window opens
        with DurableScheduler.recover(path, fsync=False) as recovered:
            for event in events[1:]:
                recovered.process(event)
            assert_reports_equal(recovered.scheduler.report(), baseline)
