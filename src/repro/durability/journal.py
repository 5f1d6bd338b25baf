"""The write-ahead journal: hash-chained records over a pluggable store.

A :class:`Journal` is an append-only sequence of :class:`JournalRecord`
entries. Each record carries a SHA-256 over its own canonicalized content
*and* the previous record's hash, so any tampering, truncation inside a
record, or bit-rot breaks the chain and :meth:`Journal.verify` raises
:class:`~repro.errors.JournalCorrupt` before recovery can replay garbage
(truncating whole records from the tail — what a crash actually does —
leaves a shorter but still valid chain).

Two stores ship: :class:`MemoryJournalStore` for tests and crash-point
experiments, :class:`JsonlJournalStore` persisting one JSON object per
line so a journal survives the (simulated) coordinator process.

Also home to :func:`task_key`, the idempotency key the FaaS layer stamps
on every task: SHA-256 over the function *name*, the canonical payload,
and a per-payload occurrence counter. Deliberately endpoint-independent —
a task failed over to another endpoint keeps its key, so recovery still
recognises its journaled completion.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import JournalCorrupt
from repro.util.serialization import canonical_dumps, is_flat_record, serialize

GENESIS_HASH = "0" * 64


@dataclass(frozen=True)
class JournalRecord:
    """One journaled state transition.

    ``data`` is canonical plain-JSON (no tuples/bytes — richer values are
    stored pre-serialized as strings by the checkpointer), so a record
    hashes and round-trips identically in memory and on disk.
    """

    seq: int
    time: float
    kind: str
    data: Dict[str, Any]
    prev_hash: str
    hash: str


def _copy(value: Any) -> Any:
    """Copy plain-JSON containers, sharing their immutable leaves."""
    if type(value) is dict:
        return {k: _copy(v) for k, v in value.items()}
    if type(value) is list:
        return [_copy(v) for v in value]
    return value


def _chain_hash(
    seq: int, time: float, kind: str, data: Dict[str, Any], prev_hash: str
) -> str:
    """The chained content hash — its only definition.

    SHA-256 over the canonical text of the record *and* its predecessor's
    hash, rendered in one encoder pass. ``data`` must already be plain
    JSON (``str`` keys, no tuples/bytes/sets): a reloaded journal hands
    back int keys as strings, sorted as strings, so the hash must cover
    that cleaned form for the chain to verify after a disk round-trip.
    """
    payload = canonical_dumps(
        {"seq": seq, "time": time, "kind": kind, "data": data, "prev": prev_hash}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def record_hash(
    seq: int, time: float, kind: str, data: Dict[str, Any], prev_hash: str
) -> str:
    """Chained content hash: covers the record *and* its predecessor.

    Equal to the hash :meth:`Journal.append` stores for ``data``.
    """
    return _chain_hash(seq, time, kind, json.loads(serialize(data)), prev_hash)


def task_key(
    function_name: str, args: tuple, kwargs: dict, occurrence: int = 0
) -> str:
    """Idempotency key for one logical task submission.

    ``occurrence`` disambiguates deliberate re-submissions of an identical
    payload within a run (the Nth identical submit is a distinct logical
    task; a *retry* of the same task is not).
    """
    payload = serialize({"args": list(args), "kwargs": dict(kwargs)})
    return task_key_for_payload(function_name, payload, occurrence)


def task_key_for_payload(
    function_name: str, payload: str, occurrence: int = 0
) -> str:
    """:func:`task_key` for a payload already in canonical form.

    The submit path serializes the payload once anyway (for the size
    limit); this variant lets it reuse that string instead of
    re-canonicalizing per key.
    """
    material = "\x1f".join([function_name, payload, str(occurrence)])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class MemoryJournalStore:
    """In-memory backing store (crash experiments hand the live journal
    of the dead world straight to the resumed one)."""

    def __init__(self, entries: Optional[List[Dict[str, Any]]] = None) -> None:
        self._entries: List[Dict[str, Any]] = [dict(e) for e in entries or []]

    def append(self, entry: Dict[str, Any]) -> None:
        self._entries.append(dict(entry))

    def append_many(self, entries: List[Dict[str, Any]]) -> None:
        self._entries.extend(dict(e) for e in entries)

    def load(self) -> List[Dict[str, Any]]:
        return [dict(e) for e in self._entries]


class JsonlJournalStore:
    """On-disk backing store: one JSON object per line, fsync-free but
    opened/closed per append so every record is durable at crash time."""

    def __init__(self, path: str) -> None:
        self.path = path

    def append(self, entry: Dict[str, Any]) -> None:
        self.append_many([entry])

    def append_many(self, entries: List[Dict[str, Any]]) -> None:
        # One open/close per batch instead of per record; the bytes
        # written are identical to N sequential append() calls.
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.writelines(canonical_dumps(entry) + "\n" for entry in entries)

    def load(self) -> List[Dict[str, Any]]:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = [line for line in fh if line.strip()]
        except FileNotFoundError:
            return []
        return [json.loads(line) for line in lines]


class Journal:
    """Append/replay over a pluggable store, verified on load and demand.

    ``batch_size`` buffers store writes: with ``batch_size=N`` (N > 1),
    appended records reach the backing store in batches of N — via one
    ``append_many`` call — or at an explicit :meth:`flush`. The in-memory
    hash chain is *always* per-record (``len()``, ``truncated()``, and
    crash offsets are batching-independent), and the store bytes after a
    flush are identical to the unbatched ones; only the store-write
    granularity changes. The flush boundary is the durability boundary:
    a crash between flushes loses at most the unflushed tail, which is
    exactly the "truncate whole records from the tail" failure the chain
    already tolerates. Default (0 or 1) writes through per record, the
    historical behavior.
    """

    def __init__(self, store: Optional[Any] = None, batch_size: int = 0) -> None:
        if batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        self.store = store if store is not None else MemoryJournalStore()
        self.batch_size = batch_size
        self._pending: List[Dict[str, Any]] = []
        self._records: List[JournalRecord] = [
            JournalRecord(**entry) for entry in self.store.load()
        ]
        if self._records:
            self.verify()

    @classmethod
    def open(cls, path: str) -> "Journal":
        return cls(JsonlJournalStore(path))

    @property
    def head_hash(self) -> str:
        return self._records[-1].hash if self._records else GENESIS_HASH

    @property
    def records(self) -> List[JournalRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def append(self, kind: str, time: float, data: Dict[str, Any]) -> JournalRecord:
        # Canonicalize to plain JSON so hashing and disk round-trips agree
        # (a flat record already is). The store entry gets its own copy of
        # the containers, sharing the immutable values.
        if is_flat_record(data):
            clean, stored = dict(data), dict(data)
        else:
            clean = json.loads(serialize(data))
            stored = _copy(clean)
        seq = len(self._records)
        prev = self.head_hash
        record = JournalRecord(
            seq, time, kind, clean, prev, _chain_hash(seq, time, kind, clean, prev)
        )
        self._records.append(record)
        entry = dict(vars(record), data=stored)
        if self.batch_size > 1:
            self._pending.append(entry)
            if len(self._pending) >= self.batch_size:
                self.flush()
        else:
            self.store.append(entry)
        return record

    def flush(self) -> int:
        """Push buffered records to the store; returns how many moved.

        Idempotent and cheap when nothing is pending — callers at run
        boundaries (checkpointer close, experiment teardown) flush
        unconditionally.
        """
        pending = self._pending
        if not pending:
            return 0
        self._pending = []
        append_many = getattr(self.store, "append_many", None)
        if append_many is not None:
            append_many(pending)
        else:  # third-party store without batch support
            for entry in pending:
                self.store.append(entry)
        return len(pending)

    @property
    def pending_store_writes(self) -> int:
        """Records appended but not yet flushed to the backing store."""
        return len(self._pending)

    def verify(self) -> None:
        """Walk the chain; raise :class:`JournalCorrupt` on any break."""
        prev = GENESIS_HASH
        for index, record in enumerate(self._records):
            if record.seq != index:
                raise JournalCorrupt(
                    f"journal record {index}: sequence says {record.seq}"
                )
            if record.prev_hash != prev:
                raise JournalCorrupt(
                    f"journal record {index}: chain broken "
                    f"(prev {record.prev_hash[:12]} != {prev[:12]})"
                )
            expected = _chain_hash(
                record.seq, record.time, record.kind, record.data, record.prev_hash
            )
            if record.hash != expected:
                raise JournalCorrupt(
                    f"journal record {index} ({record.kind}): content hash "
                    "mismatch — record was modified after being written"
                )
            prev = record.hash

    def replay(self) -> List[JournalRecord]:
        """Verified records, oldest first — the only safe read for recovery."""
        self.verify()
        return self.records

    def truncated(self, count: int) -> "Journal":
        """An in-memory journal holding only the first ``count`` records —
        what survives a crash that struck after record ``count``."""
        entries = [dict(vars(r), data=_copy(r.data)) for r in self._records[:count]]
        return Journal(MemoryJournalStore(entries))
