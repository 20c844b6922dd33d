"""Windowed re-mining and drift tracking over a live stream.

:class:`DivergenceMonitor` is the subsystem's hub: batches of encoded
rows plus outcomes go in (:meth:`DivergenceMonitor.ingest`), and every
window the policy completes is materialized from the
:class:`~repro.stream.ingest.StreamBuffer`, re-mined through the
existing bitset engine behind a :class:`~repro.fpm.cache.MiningCache`,
wrapped in the standard
:class:`~repro.core.result.PatternDivergenceResult`, aligned with its
predecessor by canonical itemset key, and scored for drift
(:mod:`repro.stream.drift`). The monitor keeps per-itemset divergence
time series across windows and an append-only alert log.

All public methods are safe to call from multiple threads (the app
server hands one monitor to all its worker threads); mining runs under
the monitor lock so windows are processed exactly once and in order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.outcomes import outcome_channels
from repro.core.result import PatternDivergenceResult
from repro.exceptions import ReproError
from repro.fpm.cache import MiningCache
from repro.fpm.transactions import ItemCatalog
from repro.obs import get_registry, span
from repro.resilience import checkpoint
from repro.stream.drift import DriftAlert, DriftConfig, score_drift
from repro.stream.ingest import StreamBuffer
from repro.stream.window import SlidingWindows, Window, WindowPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store import PatternStore


@dataclass
class WindowStats:
    """Summary of one mined window, kept for the full monitor lifetime.

    ``result`` holds the full divergence table only for the most recent
    windows (``DivergenceMonitor.keep_results``); older windows keep the
    summary fields and drop the table to bound memory.
    """

    index: int
    start: int
    stop: int
    n_patterns: int
    global_rate: float
    top: list[tuple[str, float]] = field(default_factory=list)
    result: PatternDivergenceResult | None = None


class DivergenceMonitor:
    """Incremental divergence monitoring of a labeled prediction stream.

    Parameters
    ----------
    catalog:
        Item catalog the streamed rows are encoded against.
    metric:
        Name recorded on each window's result (the outcome semantics are
        carried by the ingested outcome arrays themselves).
    window / step:
        Window policy: ``step`` defaults to ``window`` (tumbling); pass
        ``step < window`` for sliding overlap. A pre-built
        :class:`~repro.stream.window.WindowPolicy` may be passed as
        ``policy`` instead.
    min_support / algorithm / max_length / n_workers:
        Mining parameters, identical in meaning to
        :meth:`~repro.core.divergence.DivergenceExplorer.explore`
        (``n_workers`` routes window re-mining through the row-sharded
        engine; results are bit-identical to serial runs).
    drift:
        Alert thresholds (:class:`~repro.stream.drift.DriftConfig`).
    mining_cache:
        Cache for window mining runs; a small private cache by default.
    keep_results:
        Number of trailing windows whose full divergence tables are
        retained (at least 2 — drift needs the previous window).
    store:
        Optional :class:`~repro.store.PatternStore`: every mined
        window's pattern rows and fired alerts are journaled into it
        durably, and alerted patterns get corrective-item suggestions
        attached — so the alert history survives process restarts (see
        ``docs/patterns.md``).
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        metric: str = "stream",
        window: int = 512,
        step: int | None = None,
        min_support: float = 0.1,
        algorithm: str = "bitset",
        max_length: int | None = None,
        drift: DriftConfig | None = None,
        policy: WindowPolicy | None = None,
        mining_cache: MiningCache | None = None,
        keep_results: int = 4,
        n_workers: int | None = None,
        store: "PatternStore | None" = None,
    ) -> None:
        self.catalog = catalog
        self.metric = metric
        self.policy = policy if policy is not None else SlidingWindows(window, step)
        self.min_support = float(min_support)
        self.algorithm = algorithm
        self.max_length = max_length
        self.n_workers = n_workers
        self.drift_config = drift or DriftConfig()
        self.mining_cache = (
            mining_cache if mining_cache is not None else MiningCache(max_entries=8)
        )
        self.keep_results = max(2, int(keep_results))
        self.store = store
        self.buffer = StreamBuffer(catalog, n_channels=2)
        self.windows: list[WindowStats] = []
        self.alerts: list[DriftAlert] = []
        # key -> [(window_index, divergence), ...] for every itemset ever
        # frequent in some window; alignment is by canonical key.
        self.series: dict[frozenset[int], list[tuple[int, float]]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------

    def ingest(
        self,
        matrix: np.ndarray,
        outcome: np.ndarray | None = None,
        channels: np.ndarray | None = None,
    ) -> list[DriftAlert]:
        """Append one batch and mine any windows it completes.

        ``outcome`` is the encoded ``{TRUE, FALSE, BOTTOM}`` outcome
        array of the batch (one value per row), converted to the one-hot
        ``(T, F)`` channels of Algorithm 1; pass pre-built ``channels``
        instead to skip the conversion. Returns the drift alerts fired
        by the newly completed windows (also appended to
        :attr:`alerts`).
        """
        if (outcome is None) == (channels is None):
            raise ReproError("pass exactly one of outcome= or channels=")
        if channels is None:
            channels = outcome_channels(np.asarray(outcome))
        started = time.perf_counter()
        with self._lock:
            self.buffer.append(matrix, channels)
            new_alerts = self._process()
        get_registry().histogram("stream.ingest.seconds").observe(
            time.perf_counter() - started
        )
        return new_alerts

    def process_pending(self) -> list[DriftAlert]:
        """Mine any complete-but-unmined windows (no new rows)."""
        with self._lock:
            return self._process()

    def close(self) -> None:
        """Release mining resources held on the monitor's behalf.

        Shuts down the shared row-sharding worker pools when this
        monitor mined through them (``n_workers`` unset serial runs hold
        none). Pools are process-global and rebuilt transparently on
        next use, so closing one monitor is safe alongside others; it
        just stops *this* owner from keeping forked children alive
        after teardown. Idempotent.
        """
        if self.n_workers is None or self.n_workers == 1:
            return
        from repro.fpm.sharded import shutdown_pools

        shutdown_pools()

    def __enter__(self) -> "DivergenceMonitor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _process(self) -> list[DriftAlert]:
        """Mine every newly complete window, in order. Lock held."""
        new_alerts: list[DriftAlert] = []
        registry = get_registry()
        for window in self.policy.windows_from(
            len(self.windows), self.buffer.n_rows
        ):
            checkpoint("stream.window")
            stats = self._mine_window(window)
            previous = self.windows[-1] if self.windows else None
            self.windows.append(stats)
            registry.counter("stream.windows").inc()
            fired: list[DriftAlert] = []
            if previous is not None and previous.result is not None:
                fired = score_drift(
                    previous.result,
                    stats.result,
                    window.index,
                    self.drift_config,
                )
                if fired:
                    self.alerts.extend(fired)
                    new_alerts.extend(fired)
                    registry.counter("stream.alerts").inc(len(fired))
            if self.store is not None:
                self._journal(window.index, stats.result, fired)
            self._trim_results()
        return new_alerts

    def _journal(
        self,
        window_index: int,
        result: PatternDivergenceResult,
        fired: list[DriftAlert],
    ) -> None:
        """Persist one window into the pattern store. Lock held.

        Alerted patterns additionally get corrective-item suggestions
        attached: the items whose removal most reduces the pattern's
        divergence in the current window (the paper's corrective-item
        search, restricted to the alerted subgroups).
        """
        self.store.record_window(window_index, result.journal_rows(), fired)
        alerted = {a.key for a in fired if a.key is not None}
        if not alerted:
            return
        from repro.core.corrective import find_corrective_items

        for corrective in find_corrective_items(result, k=16):
            base_key = result.key_of(corrective.base)
            if base_key in alerted:
                self.store.attach_suggestions(
                    base_key, [str(corrective.item)]
                )

    def _mine_window(self, window: Window) -> WindowStats:
        """Materialize, mine and summarize one window."""
        with span("stream.window.mine"):
            dataset = self.buffer.window_dataset(window.start, window.stop)
            frequent = self.mining_cache.mine(
                dataset,
                self.min_support,
                algorithm=self.algorithm,
                max_length=self.max_length,
                n_workers=self.n_workers,
            )
        result = PatternDivergenceResult(
            frequent, self.catalog, self.metric, self.min_support
        )
        for key, divergence in result.divergence_map.items():
            if len(key) == 0:
                continue
            self.series.setdefault(key, []).append((window.index, divergence))
        top = [
            (str(r.itemset), r.divergence)
            for r in result.top_k(self.drift_config.top_k)
        ]
        return WindowStats(
            index=window.index,
            start=window.start,
            stop=window.stop,
            n_patterns=len(result) - 1,
            global_rate=result.global_rate,
            top=top,
            result=result,
        )

    def _trim_results(self) -> None:
        """Drop full divergence tables beyond the retention horizon."""
        for stats in self.windows[: -self.keep_results]:
            stats.result = None

    # ------------------------------------------------------------------

    def series_of(self, key: frozenset[int]) -> list[tuple[int, float]]:
        """Divergence time series ``[(window_index, Δ), ...]`` of a key."""
        with self._lock:
            return list(self.series.get(frozenset(key), []))

    def alerts_snapshot(self) -> list[DriftAlert]:
        """Consistent copy of the alert log, taken under the lock.

        Readers must use this instead of iterating :attr:`alerts`
        directly: a concurrent ingest appends to the list mid-read, so
        an unsynchronized serialization can see a length that no longer
        matches the entries it walked.
        """
        with self._lock:
            return list(self.alerts)

    def latest(self) -> WindowStats | None:
        """The most recently mined window, or ``None``."""
        with self._lock:
            return self.windows[-1] if self.windows else None

    def status(self) -> dict:
        """JSON-ready snapshot of the monitor's state."""
        with self._lock:
            latest = self.windows[-1] if self.windows else None
            return {
                "rows_ingested": self.buffer.n_rows,
                "batches_ingested": self.buffer.batches,
                "windows_mined": len(self.windows),
                "alerts_fired": len(self.alerts),
                "tracked_itemsets": len(self.series),
                "config": {
                    "metric": self.metric,
                    "window": getattr(self.policy, "size", None),
                    "step": getattr(self.policy, "step", None),
                    "min_support": self.min_support,
                    "algorithm": self.algorithm,
                    "min_delta": self.drift_config.min_delta,
                    "min_t": self.drift_config.min_t,
                    "churn_threshold": self.drift_config.churn_threshold,
                    "top_k": self.drift_config.top_k,
                },
                "latest_window": None
                if latest is None
                else {
                    "index": latest.index,
                    "start": latest.start,
                    "stop": latest.stop,
                    "n_patterns": latest.n_patterns,
                    "global_rate": latest.global_rate,
                    "top": [
                        {"itemset": name, "divergence": div}
                        for name, div in latest.top
                    ],
                },
            }
