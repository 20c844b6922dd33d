"""Durable, deduplicated pattern store for mined divergence patterns.

:class:`PatternStore` turns the streaming monitor's ephemeral window
summaries into durable artifacts: every mined pattern is keyed by its
canonical itemset (the sorted global item ids), deduplicated across
windows and process restarts, and tracked with its full lifecycle —
divergence/support/t-statistic history, first/last-seen bookkeeping,
recurrence and churn statistics, alert counts, acknowledgement state
and attached corrective-item suggestions.

Durability comes from the append-only CRC-framed JSONL log of
:mod:`repro.store.log`: each window/ack/suggestion append is flushed
(``fsync`` by default) before the call returns, so a ``kill -9`` loses
at most the frame being written, and recovery drops exactly that torn
record. Background compaction rewrites the log to one ``snapshot``
record per live pattern once it exceeds a size/ratio trigger, swapping
the new file in with an atomic rename; resilience checkpoints inside
the rewrite loop let deadlines abort it cleanly (the original log is
untouched until the rename).

All public methods are thread-safe behind one internal lock; the store
is shared by the monitor's ingest path, the HTTP query endpoints and
the CLI without external coordination.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.exceptions import ReproError
from repro.obs import get_registry, span
from repro.resilience import checkpoint
from repro.store.log import (
    append_frame,
    encode_frame,
    fsync_directory,
    open_for_append,
    read_frames,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stream.drift import DriftAlert

STORE_VERSION = 1


def _finite(value: float | None) -> float | None:
    """JSON-safe float: ``None`` for NaN/inf (divergence of all-BOTTOM
    subgroups is NaN, and the log frames reject non-finite tokens)."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def canonical_key(key: Iterable[int]) -> tuple[int, ...]:
    """The store's canonical pattern identity: sorted global item ids."""
    return tuple(sorted(int(i) for i in key))


def _new_entry(
    key: tuple[int, ...], itemset: str, window: int, ts: float
) -> dict[str, Any]:
    return {
        "key": list(key),
        "itemset": itemset,
        "first_seen_window": window,
        "last_seen_window": window,
        "first_seen_ts": ts,
        "last_seen_ts": ts,
        "windows_seen": 0,
        "observations": 0,
        "reappearances": 0,
        "alerts": 0,
        "reopened": 0,
        "last_alert_window": None,
        "max_abs_divergence": 0.0,
        "divergence": None,
        "support": None,
        "t": None,
        "history": [],
        "acked": False,
        "acked_ts": None,
        "ack_note": None,
        "suggestions": [],
    }


class PatternStore:
    """Append-only on-disk store of mined divergence patterns.

    Parameters
    ----------
    path:
        The JSONL log file. Created on first append; an existing log is
        replayed on open (tolerating a torn tail, which is truncated
        away before the first new append).
    fsync:
        Sync every appended frame to the device (default). Turning it
        off keeps the frame ordering guarantees but trades crash
        durability of the last few records for speed.
    max_history:
        Divergence-history points retained per pattern; older points
        are trimmed (``observations`` still counts them all).
    compact_min_bytes / compact_ratio:
        Auto-compaction trigger: the log is rewritten once it exceeds
        ``compact_min_bytes`` *and* ``compact_ratio`` times the live
        snapshot size measured at the previous compaction (or open).
        Pass ``auto_compact=False`` to compact only explicitly.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = True,
        max_history: int = 256,
        compact_min_bytes: int = 64 * 1024,
        compact_ratio: float = 2.0,
        auto_compact: bool = True,
    ) -> None:
        if compact_ratio <= 1.0:
            raise ReproError(
                f"compact_ratio must be > 1, got {compact_ratio}"
            )
        self.path = str(path)
        self.fsync = bool(fsync)
        self.max_history = max(1, int(max_history))
        self.compact_min_bytes = max(0, int(compact_min_bytes))
        self.compact_ratio = float(compact_ratio)
        self.auto_compact = bool(auto_compact)
        self._lock = threading.RLock()
        self._entries: dict[tuple[int, ...], dict[str, Any]] = {}
        self._last_window: int | None = None
        self._records_since_compact = 0
        self.recovered_dropped = 0
        self.compactions = 0
        with span("store.load"):
            records, good_bytes, dropped = read_frames(self.path)
            for record in records:
                self._apply(record)
        self.recovered_dropped = dropped
        if dropped:
            get_registry().counter("store.recovered_dropped").inc(dropped)
        self._fh = open_for_append(self.path, good_bytes)
        self._bytes = good_bytes
        self._live_floor = self._live_bytes()
        self._update_gauges()

    # ------------------------------------------------------------------
    # record application (log replay and live appends share this path)
    # ------------------------------------------------------------------

    def _apply(self, record: dict[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "meta":
            version = record.get("version")
            if version != STORE_VERSION:
                raise ReproError(
                    f"pattern store {self.path!r} has version {version!r}; "
                    f"this build reads version {STORE_VERSION}"
                )
            if record.get("last_window") is not None:
                self._last_window = int(record["last_window"])
        elif kind == "window":
            self._apply_window(record)
        elif kind == "ack":
            self._apply_ack(record)
        elif kind == "suggest":
            self._apply_suggest(record)
        elif kind == "snapshot":
            entry = record.get("entry")
            if isinstance(entry, dict) and "key" in entry:
                self._entries[canonical_key(entry["key"])] = entry
        # Unknown kinds are skipped, not fatal: a newer writer may add
        # record types an older reader can safely ignore.

    def _apply_window(self, record: dict[str, Any]) -> None:
        window = int(record["window"])
        ts = float(record.get("ts", 0.0))
        previous_window = self._last_window
        for row in record.get("rows", ()):
            key_ids, itemset, divergence, support, t_signed = row
            key = canonical_key(key_ids)
            entry = self._entries.get(key)
            if entry is None:
                entry = _new_entry(key, str(itemset), window, ts)
                self._entries[key] = entry
            else:
                if (
                    previous_window is not None
                    and entry["last_seen_window"] < previous_window
                ):
                    entry["reappearances"] += 1
            entry["last_seen_window"] = window
            entry["last_seen_ts"] = ts
            entry["windows_seen"] += 1
            entry["observations"] += 1
            entry["divergence"] = _finite(divergence)
            entry["support"] = _finite(support)
            entry["t"] = _finite(t_signed)
            if entry["divergence"] is not None:
                entry["max_abs_divergence"] = max(
                    entry["max_abs_divergence"], abs(entry["divergence"])
                )
            entry["history"].append(
                [window, entry["divergence"], entry["support"], entry["t"]]
            )
            if len(entry["history"]) > self.max_history:
                del entry["history"][: -self.max_history]
        for alert in record.get("alerts", ()):
            key_ids = alert.get("items")
            if key_ids is None:
                continue  # window-level (rank churn) alerts carry no key
            entry = self._entries.get(canonical_key(key_ids))
            if entry is None:
                continue
            entry["alerts"] += 1
            entry["last_alert_window"] = window
            if entry["acked"]:
                # Alert lifecycle: fresh drift on an acknowledged
                # pattern reopens it — a stale ack must not hide a
                # recurrence.
                entry["acked"] = False
                entry["acked_ts"] = None
                entry["ack_note"] = None
                entry["reopened"] += 1
        self._last_window = (
            window
            if previous_window is None
            else max(previous_window, window)
        )

    def _apply_ack(self, record: dict[str, Any]) -> None:
        entry = self._entries.get(canonical_key(record.get("key", ())))
        if entry is None:
            return
        acked = bool(record.get("acked", True))
        entry["acked"] = acked
        entry["acked_ts"] = float(record["ts"]) if acked else None
        entry["ack_note"] = record.get("note") if acked else None

    def _apply_suggest(self, record: dict[str, Any]) -> None:
        entry = self._entries.get(canonical_key(record.get("key", ())))
        if entry is None:
            return
        for item in record.get("items", ()):
            if item not in entry["suggestions"]:
                entry["suggestions"].append(item)

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        """Apply one record to memory and append it durably. Lock held."""
        self._apply(record)
        self._bytes += append_frame(self._fh, record, self.fsync)
        self._records_since_compact += 1
        get_registry().counter("store.appends").inc()

    def record_window(
        self,
        window_index: int,
        rows: Iterable[tuple[Iterable[int], str, float, float, float]],
        alerts: Sequence["DriftAlert"] = (),
        ts: float | None = None,
    ) -> None:
        """Journal one mined window: its pattern rows and fired alerts.

        ``rows`` are ``(key, itemset, divergence, support, t_signed)``
        tuples — one per frequent pattern of the window. The whole
        window is one log record, so a crash either persists the window
        completely or not at all.
        """
        record = {
            "kind": "window",
            "window": int(window_index),
            "ts": time.time() if ts is None else float(ts),
            "rows": [
                [
                    list(canonical_key(key)),
                    str(itemset),
                    _finite(divergence),
                    _finite(support),
                    _finite(t_signed),
                ]
                for key, itemset, divergence, support, t_signed in rows
            ],
            "alerts": [
                {
                    "kind": alert.kind,
                    "items": (
                        sorted(alert.key) if alert.key is not None else None
                    ),
                    "delta": _finite(alert.delta),
                    "t": _finite(alert.t_statistic),
                    "churn": _finite(alert.churn),
                }
                for alert in alerts
            ],
        }
        with self._lock, span("store.append"):
            self._append(record)
            registry = get_registry()
            registry.counter("store.windows").inc()
            if alerts:
                registry.counter("store.alerts").inc(len(alerts))
            self._update_gauges()
            if self.auto_compact:
                self._maybe_compact()

    def ack(
        self,
        key: Iterable[int],
        acked: bool = True,
        note: str | None = None,
        ts: float | None = None,
    ) -> dict[str, Any]:
        """Set a pattern's acknowledgement state; returns the entry.

        Raises :class:`~repro.exceptions.ReproError` for keys the store
        has never seen (an ack must reference a real pattern).
        """
        key = canonical_key(key)
        with self._lock:
            if key not in self._entries:
                raise ReproError(
                    f"unknown pattern key {list(key)}; ack must reference "
                    "a stored pattern"
                )
            self._append(
                {
                    "kind": "ack",
                    "key": list(key),
                    "acked": bool(acked),
                    "ts": time.time() if ts is None else float(ts),
                    "note": note,
                }
            )
            get_registry().counter("store.acks").inc()
            if self.auto_compact:
                self._maybe_compact()
            return dict(self._entries[key])

    def attach_suggestions(
        self, key: Iterable[int], items: Iterable[str]
    ) -> None:
        """Attach corrective-item suggestions to a stored pattern."""
        key = canonical_key(key)
        items = [str(item) for item in items]
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not items:
                return
            if all(item in entry["suggestions"] for item in items):
                return  # nothing new: skip the append entirely
            self._append(
                {"kind": "suggest", "key": list(key), "items": items}
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entry(self, key: Iterable[int]) -> dict[str, Any] | None:
        """Deep-enough copy of one pattern's entry, or ``None``."""
        with self._lock:
            entry = self._entries.get(canonical_key(key))
            return None if entry is None else _copy_entry(entry)

    def query(
        self,
        offset: int = 0,
        limit: int | None = None,
        acked: bool | None = None,
        min_divergence: float | None = None,
        since_window: int | None = None,
    ) -> dict[str, Any]:
        """Filtered, paginated view of the live patterns.

        Ordering is deterministic: most recently seen first, then by
        descending ``|divergence|``, then by key. ``acked`` filters on
        acknowledgement state, ``min_divergence`` on the *latest*
        ``|divergence|`` (patterns whose latest divergence is undefined
        are excluded by any threshold > 0), ``since_window`` keeps
        patterns last seen in window ``>= since_window``.
        """
        offset = max(0, int(offset))
        with self._lock:
            selected = []
            for key, entry in self._entries.items():
                if acked is not None and entry["acked"] != acked:
                    continue
                if min_divergence is not None and min_divergence > 0:
                    divergence = entry["divergence"]
                    if divergence is None or abs(divergence) < min_divergence:
                        continue
                if (
                    since_window is not None
                    and entry["last_seen_window"] < since_window
                ):
                    continue
                selected.append((key, entry))
            selected.sort(
                key=lambda pair: (
                    -pair[1]["last_seen_window"],
                    -abs(pair[1]["divergence"] or 0.0),
                    pair[0],
                )
            )
            total = len(selected)
            page = selected[offset:]
            if limit is not None:
                page = page[: max(0, int(limit))]
            return {
                "total": total,
                "offset": offset,
                "limit": limit,
                "patterns": [_copy_entry(entry) for _, entry in page],
                "last_window": self._last_window,
            }

    def stats(self) -> dict[str, Any]:
        """Store-level bookkeeping for status payloads and the CLI."""
        with self._lock:
            return {
                "path": self.path,
                "patterns": len(self._entries),
                "bytes": self._bytes,
                "last_window": self._last_window,
                "compactions": self.compactions,
                "recovered_dropped": self.recovered_dropped,
                "acked": sum(
                    1 for e in self._entries.values() if e["acked"]
                ),
                "alerted": sum(
                    1 for e in self._entries.values() if e["alerts"]
                ),
            }

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def _live_bytes(self) -> int:
        """Size the log would have after compaction. Lock held."""
        total = len(encode_frame(self._meta_record()))
        for entry in self._entries.values():
            total += len(encode_frame({"kind": "snapshot", "entry": entry}))
        return total

    def _meta_record(self) -> dict[str, Any]:
        return {
            "kind": "meta",
            "version": STORE_VERSION,
            "last_window": self._last_window,
        }

    def _maybe_compact(self) -> bool:
        """Compact when the log outgrew its live contents. Lock held."""
        if self._bytes <= self.compact_min_bytes:
            return False
        if self._bytes <= self.compact_ratio * max(1, self._live_floor):
            return False
        return self._compact_locked()

    def compact(self) -> bool:
        """Rewrite the log to one snapshot record per live pattern.

        Returns whether a rewrite happened (an already-compact log is
        left alone). Safe under deadlines: the rewrite loop checkpoints
        per pattern, and an abort discards the temporary file leaving
        the original log untouched.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> bool:
        tmp_path = self.path + ".compact.tmp"
        with span("store.compact"):
            try:
                with open(tmp_path, "wb") as tmp:
                    written = 0
                    written += append_frame(
                        tmp, self._meta_record(), fsync=False
                    )
                    for entry in self._entries.values():
                        checkpoint("store.compact")
                        written += append_frame(
                            tmp, {"kind": "snapshot", "entry": entry},
                            fsync=False,
                        )
                    tmp.flush()
                    if self.fsync:
                        os.fsync(tmp.fileno())
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            self._fh.close()
            os.replace(tmp_path, self.path)
            fsync_directory(self.path)
            self._fh = open_for_append(self.path, written)
            self._bytes = written
            self._live_floor = written
            self._records_since_compact = 0
            self.compactions += 1
            get_registry().counter("store.compactions").inc()
            self._update_gauges()
        return True

    # ------------------------------------------------------------------

    def _update_gauges(self) -> None:
        registry = get_registry()
        registry.gauge("store.patterns").set(float(len(self._entries)))
        registry.gauge("store.bytes").set(float(self._bytes))

    def close(self) -> None:
        """Close the log file handle. Idempotent."""
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "PatternStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _copy_entry(entry: dict[str, Any]) -> dict[str, Any]:
    """Copy an entry deeply enough that callers cannot mutate the store."""
    out = dict(entry)
    out["key"] = list(entry["key"])
    out["history"] = [list(point) for point in entry["history"]]
    out["suggestions"] = list(entry["suggestions"])
    return out
