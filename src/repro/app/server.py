"""HTTP/JSON backend for interactive divergence exploration.

``_ROUTES`` lists every path with its method and handler; the
parameters of each endpoint are documented in ``docs/server.md``:

- ``/api/explore``, ``/api/explain``, ``/api/shapley``, ``/api/global``,
  ``/api/corrective``, ``/api/lattice``: one cached exploration of
  ``(dataset, metric, support)`` and the paper's analyses of it;
- ``/api/compare`` (``docs/compare.md``) and ``/api/rank``
  (``docs/ranking.md``): multi-model comparison and rank divergence;
- ``POST /api/upload``: a CSV registered under an ``upload:<name>``
  handle and explored like a bundled dataset;
- ``POST /api/monitor/ingest``, ``/api/monitor/status`` and
  ``/api/monitor/alerts``: the streaming monitor (``docs/streaming.md``);
- ``/api/patterns`` and ``POST /api/patterns/ack``: the durable pattern
  ledger of a server started with a store path (``docs/patterns.md``);
- ``/api/datasets``, ``/api/metrics`` and ``/``: dataset
  characteristics, process metrics and a minimal HTML page.

Every request passes one failure funnel (``_Handler._serve``): bad
input (:class:`~repro.exceptions.ReproError`) is a ``400``, an unknown
path or resource a ``404``, a cancelled request or shed load a ``503``
with a computed ``Retry-After``, an expired deadline a ``504`` unless a
sampled or coarser-support answer can stand in (``docs/resilience.md``,
``docs/approx.md``), and any other exception a ``500``
``{"error": "internal error", "type": <class name>}`` whose traceback
goes to the ``repro.app`` logger. Every payload is sanitized before
serialization: non-finite floats become ``null``, so responses are
strictly valid JSON. The server is a stock ``ThreadingHTTPServer``;
run it with ``python -m repro.app``.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.core.corrective import find_corrective_items
from repro.core.divergence import DivergenceExplorer
from repro.core.explanations import explain_top_k
from repro.core.global_divergence import (
    global_item_divergence,
    individual_item_divergence,
)
from repro.core.outcomes import outcome_metric
from repro.core.pruning import prune_redundant
from repro.core.result import PatternDivergenceResult
from repro.datasets import DATASET_NAMES, dataset_characteristics, load
from repro.exceptions import ReproError
from repro.obs import get_registry
from repro.params import (
    validate_acked,
    validate_algorithm,
    validate_alert_threshold,
    validate_bins,
    validate_confidence,
    validate_content_length,
    validate_deadline,
    validate_divergence_threshold,
    validate_epsilon,
    validate_labels,
    validate_limit,
    validate_min_t,
    validate_models,
    validate_offset,
    validate_pattern,
    validate_rank_k,
    validate_sample,
    validate_since,
    validate_step,
    validate_support,
    validate_top,
    validate_utf8,
    validate_weight_model,
    validate_window,
    validate_workers,
)
from repro.resilience import (
    CancellationError,
    CancelToken,
    DeadlineExceeded,
    cancel_scope,
    checkpoint,
)
from repro.store import PatternStore
from repro.stream import DivergenceMonitor, DriftConfig
from repro.stream.runner import catalog_for

_LOG = logging.getLogger("repro.app")

_INDEX_HTML = """<!doctype html>
<html><head><title>DivExplorer</title>
<style>
 body { font-family: sans-serif; margin: 2rem; }
 table { border-collapse: collapse; }
 td, th { border: 1px solid #999; padding: 4px 8px; }
 input, select { margin-right: 8px; }
</style></head>
<body>
<h1>DivExplorer — pattern divergence</h1>
<form onsubmit="run(); return false;">
  <select id="dataset">
    <option>compas</option><option>adult</option><option>artificial</option>
    <option>bank</option><option>german</option><option>heart</option>
  </select>
  <select id="metric">
    <option>fpr</option><option>fnr</option><option>error</option>
    <option>accuracy</option>
  </select>
  <input id="support" value="0.1" size="5">
  <button>explore</button>
</form>
<div id="out"></div>
<script>
async function run() {
  const d = document.getElementById('dataset').value;
  const m = document.getElementById('metric').value;
  const s = document.getElementById('support').value;
  const r = await fetch(`/api/explore?dataset=${d}&metric=${m}&support=${s}&top=15`);
  const data = await r.json();
  if (data.error) { document.getElementById('out').innerText = data.error; return; }
  let html = `<p>overall ${m} = ${data.global_rate.toFixed(3)}</p>`;
  html += '<table><tr><th>itemset</th><th>sup</th><th>&Delta;</th><th>t</th></tr>';
  for (const row of data.patterns) {
    html += `<tr><td>${row.itemset}</td><td>${row.support.toFixed(3)}</td>` +
            `<td>${row.divergence.toFixed(3)}</td><td>${row.t.toFixed(1)}</td></tr>`;
  }
  html += '</table>';
  document.getElementById('out').innerHTML = html;
}
</script>
</body></html>
"""


class _LRU(OrderedDict):
    """A bounded mapping in least-recently-used order.

    Not locked: its owner holds a lock around every call.
    """

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = max(1, bound)

    def touch(self, key: object) -> object:
        """The value for ``key``, refreshed as most recent; or ``None``."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def insert(self, key: object, value: object) -> tuple[object, list]:
        """Insert ``value`` unless ``key`` raced in first, then evict
        past the bound; returns the value kept and the evicted keys."""
        value = self.setdefault(key, value)
        self.move_to_end(key)
        evicted = []
        while len(self) > self.bound:
            evicted.append(self.popitem(last=False)[0])
        return value, evicted


class _CachedExploration:
    """One cached exploration plus its rendered top-k JSON row lists.

    ``renders`` maps ``(top, epsilon)`` to the ready-to-serialize
    pattern rows of ``/api/explore``, so repeat hits skip record
    materialization, pruning and formatting entirely.
    """

    __slots__ = ("result", "renders")

    _MAX_RENDERS = 16

    def __init__(self, result: PatternDivergenceResult) -> None:
        self.result = result
        self.renders = _LRU(self._MAX_RENDERS)


class ResultCache:
    """One thread-safe LRU over every result the server caches.

    Keys are ``(kind, dataset, ...)`` tuples, ``kind`` one of
    ``"explore"`` (a :class:`_CachedExploration`), ``"compare"`` and
    ``"rank"``. ``max_results`` bounds all kinds together; every hit
    refreshes an entry and every insert past the bound evicts the
    least-recently-used one, so a long-running server fed many
    uploads and configurations stays flat in memory. Each kind counts
    its hits, misses and evictions and gauges its entries under its own
    metric prefix (:attr:`PREFIXES`).
    """

    PREFIXES = {
        "explore": "app_cache.",
        "compare": "compare.cache_",
        "rank": "rank.cache_",
    }

    def __init__(self, max_results: int) -> None:
        self._entries = _LRU(max_results)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[tuple]:
        """A snapshot of the cached keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def get_or_build(self, key: tuple, build: Callable[[], object]) -> object:
        """The cached value for ``key``; on a miss, ``build()`` it.

        The lookup holds the lock; the build runs outside it, so slow
        mining never blocks other keys. A build that raises caches
        nothing.
        """
        registry = get_registry()
        prefix = self.PREFIXES[key[0]]
        with self._lock:
            value = self._entries.touch(key)
        if value is not None:
            registry.counter(prefix + "hits").inc()
            return value
        registry.counter(prefix + "misses").inc()
        return self.put(key, build())

    def put(self, key: tuple, value: object) -> object:
        """Install ``value``, evict to ``max_results``; return the entry kept.

        If another thread raced in an entry for the same key, that
        first entry is kept (an exploration's rendered rows survive).
        """
        registry = get_registry()
        with self._lock:
            value, evicted = self._entries.insert(key, value)
            for old in evicted:
                registry.counter(self.PREFIXES[old[0]] + "evictions").inc()
            self._publish(registry)
        return value

    def invalidate(self, dataset: str) -> None:
        """Drop every cached result of one dataset (a re-uploaded handle)."""
        with self._lock:
            for key in [k for k in self._entries if k[1] == dataset]:
                del self._entries[key]
            self._publish(get_registry())

    def gauges(self) -> dict[str, float]:
        """Live entries per kind, keyed by the kind's gauge name."""
        with self._lock:
            return self._gauges()

    def _gauges(self) -> dict[str, float]:
        counts = dict.fromkeys(self.PREFIXES, 0)
        for key in self._entries:
            counts[key[0]] += 1
        return {
            self.PREFIXES[kind] + "entries": float(n)
            for kind, n in counts.items()
        }

    def _publish(self, registry) -> None:
        for name, value in self._gauges().items():
            registry.gauge(name).set(value)


class AppState:
    """Explorers and cached results behind the server's endpoints.

    Explorations, model comparisons and rank tables share one
    :class:`ResultCache` of ``max_results`` entries. Besides the bundled
    datasets, uploaded CSVs are registered under ``upload:<name>``
    handles and explored exactly like bundled data.
    """

    MAX_RESULTS = 32
    MAX_CONCURRENT = 8
    # Datasets below this row count never auto-sample: exact mining is
    # already interactive there, and small-data deadline handling must
    # keep its established degrade/504 semantics.
    APPROX_AUTO_ROWS = 200_000

    def __init__(
        self,
        seed: int = 0,
        max_results: int = MAX_RESULTS,
        default_deadline: float | None = None,
        max_concurrent: int = MAX_CONCURRENT,
        default_workers: int | None = None,
        approx_auto_rows: int = APPROX_AUTO_ROWS,
        store_path: str | None = None,
    ) -> None:
        self.seed = seed
        self.default_deadline = validate_deadline(default_deadline)
        self.max_concurrent = max(1, int(max_concurrent))
        self.approx_auto_rows = max(1, int(approx_auto_rows))
        # Mining worker default (0 auto, 1 serial, >= 2 row-sharded);
        # per-request ``workers`` params override it. Sharded and serial
        # runs are bit-identical, so result-cache keys ignore it.
        self.default_workers = (
            validate_workers(default_workers)
            if default_workers is not None
            else None
        )
        # Admission ticket pool for expensive endpoints; Bounded so a
        # mismatched release fails loudly instead of widening the gate.
        self.admission = threading.BoundedSemaphore(self.max_concurrent)
        # Durable pattern store: opened at startup so /api/patterns
        # serves the persisted ledger even before (or without) a live
        # monitor session — that is what makes alert history survive
        # restarts.
        self.store = (
            PatternStore(store_path) if store_path is not None else None
        )
        self._cache = ResultCache(max_results)
        self._explorers: dict[str, DivergenceExplorer] = {}
        self._rank_explorers: dict[str, "RankDivergenceExplorer"] = {}
        self._lock = threading.Lock()
        # Streaming monitor session: one DivergenceMonitor shared by
        # /api/monitor/*, created lazily on first ingest. The session
        # lock guards creation/reset; the monitor itself serializes
        # ingest/status internally with its own RLock.
        self._monitor: _MonitorSession | None = None
        self._monitor_lock = threading.Lock()
        # Background refinement of auto-sampled answers: in-flight keys
        # (deduplicated under ``_lock``) and one shared cancel token the
        # server close path triggers so refinement threads wind down
        # with the server instead of mining into a dead cache.
        self._refining: set[tuple] = set()
        self._refine_token = CancelToken()

    def monitor_session(
        self, params: dict[str, str], create: bool = False
    ) -> "_MonitorSession | None":
        """The active monitor session, optionally creating it.

        Config params (``dataset``, ``metric``, ``support``, ``window``,
        ``step``, ``alert_delta``, ``alert_t``, ``churn``, ``top``,
        ``algorithm``) are honored on the ingest that creates the
        session; later ingests append to the existing one.
        ``reset=1`` tears the session down first.
        """
        with self._monitor_lock:
            if params.get("reset"):
                self._monitor = None
            if self._monitor is None and create:
                self._monitor = _MonitorSession.from_params(
                    params, seed=self.seed, store=self.store
                )
            return self._monitor

    def register_upload(
        self,
        name: str,
        csv_text: str,
        true_column: str,
        pred_column: str,
        bins: int = 3,
    ) -> str:
        """Parse an uploaded CSV and register it; returns the handle."""
        import os
        import tempfile

        from repro.tabular.discretize import discretize_table
        from repro.tabular.io import read_csv

        handle = f"upload:{name}"
        with tempfile.NamedTemporaryFile(
            "w", suffix=".csv", delete=False
        ) as fh:
            fh.write(csv_text)
            path = fh.name
        try:
            table = discretize_table(read_csv(path), default_bins=bins)
        finally:
            os.unlink(path)
        explorer = DivergenceExplorer(table, true_column, pred_column)
        with self._lock:
            self._explorers[handle] = explorer
            # invalidate stale results for a re-uploaded handle
            self._cache.invalidate(handle)
        return handle

    def explorer(self, dataset: str) -> DivergenceExplorer:
        """Load (and cache) the explorer for a dataset or upload handle."""
        with self._lock:
            if dataset in self._explorers:
                return self._explorers[dataset]
        if dataset.startswith("upload:"):
            raise ReproError(f"unknown upload handle {dataset!r}")
        data = load(dataset, seed=self.seed)
        explorer = DivergenceExplorer(
            data.table,
            data.true_column,
            data.pred_column,
            attributes=data.attributes,
        )
        with self._lock:
            self._explorers[dataset] = explorer
            return self._explorers[dataset]

    def auto_samples(self, dataset: str) -> bool:
        """Whether deadline-carrying explores of ``dataset`` may be
        served sampled: it has at least ``approx_auto_rows`` rows."""
        try:
            explorer = self.explorer(dataset)
        except ReproError:
            return False  # let the exact path raise the clear 400
        return explorer.table.n_rows >= self.approx_auto_rows

    def _n_workers(self, workers: int | None) -> int | None:
        return workers if workers is not None else self.default_workers

    def _entry(
        self,
        dataset: str,
        metric: str,
        support: float,
        workers: int | None = None,
    ) -> _CachedExploration:
        """Cached exploration entry for one configuration.

        ``workers`` deliberately stays out of the cache key: the
        sharded engine's merged counts are bit-identical to a serial
        run, so any cached exploration answers any worker count.
        """

        def build() -> _CachedExploration:
            return _CachedExploration(
                self.explorer(dataset).explore(
                    metric,
                    min_support=support,
                    n_workers=self._n_workers(workers),
                )
            )

        return self._cache.get_or_build(
            ("explore", dataset, metric, support), build
        )

    def result(
        self,
        dataset: str,
        metric: str,
        support: float,
        workers: int | None = None,
    ) -> PatternDivergenceResult:
        """Explore (and cache) one configuration."""
        return self._entry(dataset, metric, support, workers).result

    def compare_result(
        self,
        dataset: str,
        metric: str,
        support: float,
        specs: tuple[str, ...],
        workers: int | None = None,
    ) -> "CompareResult":
        """Cached shared-lattice comparison of one spec list.

        ``workers`` stays out of the key for the same reason as in
        :meth:`_entry`: sharded and serial mining are bit-identical.
        ``classifier:`` specs train deterministically from the server
        seed, so a cached comparison answers repeats exactly.
        """
        from repro.core.compare import explore_compare, resolve_models

        def build() -> "CompareResult":
            explorer = self.explorer(dataset)
            # Columns consumed as model predictions must not double as
            # analysis attributes (an upload's spare prediction columns
            # are ordinary categoricals to its explorer).
            attributes = [
                a for a in explorer.attributes if a not in set(specs)
            ]
            resolved = resolve_models(
                explorer.table,
                explorer.true_column,
                list(specs),
                attributes=attributes,
                seed=self.seed,
            )
            comparison = explore_compare(
                explorer.table,
                explorer.true_column,
                resolved,
                metric=metric,
                min_support=support,
                attributes=attributes,
                n_workers=self._n_workers(workers),
                mining_cache=explorer.mining_cache,
            )
            # Build the shared lattice index eagerly, outside the lock,
            # so cache hits serve fully materialized comparisons.
            comparison.lattice_index()
            return comparison

        return self._cache.get_or_build(
            ("compare", dataset, metric, support, specs), build
        )

    def rank_explorer(self, dataset: str) -> "RankDivergenceExplorer":
        """Load (and cache) the rank explorer for a bundled dataset.

        Upload handles are rejected: uploads are discretized at
        registration, so their score column is already binned away —
        rank analysis needs the raw continuous scores (use the CLI on
        the original CSV instead). Scores come from the dataset's
        continuous ``score`` column when it has one, otherwise from a
        logistic model's ``predict_proba`` (trained deterministically
        from the server seed, so cached results answer repeats exactly).
        """
        from repro.rank import RankDivergenceExplorer, dataset_scores

        with self._lock:
            explorer = self._rank_explorers.get(dataset)
            if explorer is not None:
                return explorer
        if dataset.startswith("upload:"):
            raise ReproError(
                "rank analysis is not available for uploads (their "
                "continuous columns are discretized at registration); "
                "use a bundled dataset"
            )
        data = load(dataset, seed=self.seed)
        if "score" in data.table and data.table.column("score").is_continuous:
            scores = data.table.continuous("score").values
        else:
            scores = dataset_scores(data, classifier="logistic", seed=self.seed)
        explorer = RankDivergenceExplorer(
            data.table, scores, attributes=data.attributes
        )
        with self._lock:
            self._rank_explorers.setdefault(dataset, explorer)
            return self._rank_explorers[dataset]

    def rank_result(
        self,
        dataset: str,
        weight_model: str,
        support: float,
        topk: int | None = None,
        workers: int | None = None,
    ) -> "RankDivergenceResult":
        """Cached rank-divergence table for one configuration.

        ``workers`` stays out of the key for the same reason as in
        :meth:`_entry`: sharded and serial mining are bit-identical.
        """
        return self._cache.get_or_build(
            ("rank", dataset, weight_model, support, topk),
            lambda: self.rank_explorer(dataset).explore(
                weight_model=weight_model,
                min_support=support,
                topk=topk,
                n_workers=self._n_workers(workers),
            ),
        )

    def coarser_support(
        self, dataset: str, metric: str, support: float
    ) -> float | None:
        """Smallest cached support strictly above ``support`` for the
        same dataset/metric — the best degraded substitute when the
        requested exploration timed out (higher support ⇒ fewer
        patterns ⇒ already-mined, strictly cheaper result)."""
        return min(
            (
                key[3]
                for key in self._cache.keys()
                if key[:3] == ("explore", dataset, metric) and key[3] > support
            ),
            default=None,
        )

    def has_entry(self, dataset: str, metric: str, support: float) -> bool:
        """Whether an exact exploration is already cached for the key.

        Auto-sampling only pre-empts *uncached* exact work — a cached
        entry is served directly, sampled or not requested.
        """
        return ("explore", dataset, metric, support) in self._cache

    def store_result(
        self,
        dataset: str,
        metric: str,
        support: float,
        result: PatternDivergenceResult,
    ) -> None:
        """Install an exact result into the cache (refinement completion).

        Keeps an existing entry if one raced in (its rendered rows
        survive); only plain exact results belong here — sampled tables
        must never answer an exact cache key.
        """
        self._cache.put(
            ("explore", dataset, metric, support), _CachedExploration(result)
        )

    def sampled_result(
        self,
        dataset: str,
        metric: str,
        support: float,
        sample: float | int | str,
        confidence: float,
        workers: int | None = None,
    ) -> PatternDivergenceResult:
        """Explore a seeded sample of one configuration.

        Deliberately bypasses the exact result cache: approximate
        tables are keyed by sample size inside the explorer (design +
        sampled-dataset caches) and the mining cache, so repeats stay
        cheap without ever aliasing an exact entry.
        """
        return self.explorer(dataset).explore(
            metric,
            min_support=support,
            n_workers=self._n_workers(workers),
            sample=sample,
            confidence=confidence,
            sample_seed=self.seed,
        )

    def schedule_refinement(
        self,
        dataset: str,
        metric: str,
        support: float,
        workers: int | None = None,
    ) -> bool:
        """Start a background thread refining a sampled answer to exact.

        The driver doubles the sample between resilience checkpoints
        until the full dataset is reached, then installs the exact
        result via :meth:`store_result` — the next request for the same
        configuration is a plain cache hit. At most one refinement per
        key runs at a time, and none is started when the exact entry
        already exists. Returns whether a thread was started.
        """
        key = (dataset, metric, support)
        with self._lock:
            if key in self._refining or self.has_entry(*key):
                return False
            self._refining.add(key)

        def run() -> None:
            from repro.approx import progressive_explore

            try:
                result = progressive_explore(
                    self.explorer(dataset),
                    metric,
                    min_support=support,
                    n_workers=self._n_workers(workers),
                    cancel_token=self._refine_token,
                    stop_when_converged=False,
                )
                if not getattr(result, "approximate", False):
                    self.store_result(dataset, metric, support, result)
            except ReproError:
                # Cancellation (server close) or a mining failure: the
                # sampled answer already served stands; no cache entry.
                pass
            finally:
                with self._lock:
                    self._refining.discard(key)

        threading.Thread(
            target=run, daemon=True, name=f"approx-refine:{dataset}:{metric}"
        ).start()
        return True

    def admission_busy(self) -> int:
        """Admission slots currently held by in-flight requests.

        Reads the semaphore's internal counter — a CPython
        implementation detail, but a stable one, and strictly advisory:
        the value only shapes the ``Retry-After`` backoff hint.
        """
        return self.max_concurrent - self.admission._value

    def close(self) -> None:
        """Stop background refinement threads at their next checkpoint
        and release the pattern store's log handle."""
        self._refine_token.cancel("server closed")
        if self.store is not None:
            self.store.close()

    def explore_rows(
        self,
        dataset: str,
        metric: str,
        support: float,
        top: int,
        epsilon: float | None = None,
        workers: int | None = None,
    ) -> tuple[PatternDivergenceResult, list[dict]]:
        """Rendered ``/api/explore`` rows, cached per ``(top, epsilon)``."""
        entry = self._entry(dataset, metric, support, workers)
        render_key = (top, epsilon)
        registry = get_registry()
        with self._lock:
            rows = entry.renders.touch(render_key)
        if rows is not None:
            registry.counter("app_cache.render_hits").inc()
            return entry.result, rows
        registry.counter("app_cache.render_misses").inc()
        result = entry.result
        if epsilon is not None:
            records = prune_redundant(result, epsilon)[:top]
        else:
            records = result.top_k(top)
        rows = [_pattern_row(r) for r in records]
        with self._lock:
            rows = entry.renders.insert(render_key, rows)[0]
        return result, rows


class _MonitorSession:
    """A streaming monitor bound to one dataset's schema.

    Holds the catalog used to encode incoming JSON rows and the label →
    code maps per attribute; the wrapped
    :class:`~repro.stream.monitor.DivergenceMonitor` owns mining state.
    """

    def __init__(
        self, dataset: str, metric: str, monitor: DivergenceMonitor
    ) -> None:
        self.dataset = dataset
        self.metric = metric
        self.monitor = monitor
        catalog = monitor.catalog
        self._codes: list[dict[str, int]] = [
            {str(c): i for i, c in enumerate(cats)}
            for cats in catalog.categories
        ]

    @classmethod
    def from_params(
        cls,
        params: dict[str, str],
        seed: int = 0,
        store: PatternStore | None = None,
    ) -> "_MonitorSession":
        dataset = params.get("dataset", "compas")
        if dataset not in DATASET_NAMES:
            raise ReproError(f"unknown dataset {dataset!r}")
        metric = params.get("metric", "fpr")
        outcome_metric(metric)  # validate early: unknown metric -> 400
        monitor = DivergenceMonitor(
            catalog_for(load(dataset, seed=seed)),
            metric=metric,
            window=validate_window(params.get("window", "512")),
            step=validate_step(params.get("step")),
            min_support=validate_support(params.get("support", "0.1")),
            algorithm=validate_algorithm(params.get("algorithm", "bitset")),
            n_workers=(
                validate_workers(params["workers"])
                if "workers" in params
                else None
            ),
            drift=DriftConfig(
                min_delta=validate_alert_threshold(
                    params.get("alert_delta", "0.15")
                ),
                min_t=validate_alert_threshold(params.get("alert_t", "3.0")),
                churn_threshold=validate_alert_threshold(
                    params.get("churn", "0.6")
                ),
                top_k=validate_top(params.get("top", "10")),
            ),
            store=store,
        )
        return cls(dataset, metric, monitor)

    def ingest(self, body: str) -> dict:
        """Decode ``{"rows", "truth", "pred"}``, encode, ingest."""
        payload = _json_object(body, "ingest body")
        rows = payload.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ReproError("ingest body needs a non-empty 'rows' list")
        truth = validate_labels(payload.get("truth"), "truth")
        pred = validate_labels(payload.get("pred"), "pred")
        if len(truth) != len(rows) or len(pred) != len(rows):
            raise ReproError(
                f"'rows' ({len(rows)}), 'truth' ({len(truth)}) and "
                f"'pred' ({len(pred)}) must have equal length"
            )
        matrix = self._encode(rows)
        outcome = outcome_metric(self.metric)(
            np.asarray(truth, dtype=bool), np.asarray(pred, dtype=bool)
        )
        before = len(self.monitor.alerts)
        self.monitor.ingest(matrix, outcome=outcome)
        status = self.monitor.status()
        return {
            "ingested": len(rows),
            "rows": status["rows_ingested"],
            "windows": status["windows_mined"],
            "new_alerts": [
                a.as_dict() for a in self.monitor.alerts[before:]
            ],
        }

    def _encode(self, rows: list) -> np.ndarray:
        """Encode JSON records into the catalog's integer codes."""
        catalog = self.monitor.catalog
        matrix = np.empty((len(rows), len(catalog.attributes)), dtype=np.int32)
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                raise ReproError(
                    f"row {i} must be an object mapping attribute to value"
                )
            for j, attribute in enumerate(catalog.attributes):
                if attribute not in row:
                    raise ReproError(
                        f"row {i} is missing attribute {attribute!r}"
                    )
                code = self._codes[j].get(str(row[attribute]))
                if code is None:
                    raise ReproError(
                        f"row {i}: unknown value {row[attribute]!r} for "
                        f"{attribute!r}; choose from "
                        f"{sorted(self._codes[j])}"
                    )
                matrix[i, j] = code
        return matrix


def retry_after_hint(
    busy: int, capacity: int, deadline: float | None
) -> str:
    """Computed ``Retry-After`` backoff hint in whole seconds.

    A hard-coded ``1`` tells every shed client to hammer the server
    again immediately — exactly wrong under sustained overload. The
    hint instead scales with the busy fraction of the admission slots
    (a full server needs time to drain) and with the request's own
    deadline budget (a caller tolerating a 10 s deadline can afford a
    longer pause than a 100 ms one), clamped to ``[1, 30]`` seconds so
    clients never see zero or an absurd wait. An idle server with no
    deadline still yields the historical ``"1"``.
    """
    base = deadline if deadline is not None else 1.0
    load = busy / capacity if capacity > 0 else 1.0
    seconds = math.ceil(base * (0.5 + load))
    return str(int(max(1, min(30, seconds))))


def _pattern_row(record) -> dict:
    """One ``/api/explore`` pattern row of a divergence record."""
    return {
        "itemset": str(record.itemset),
        "support": record.support,
        "divergence": record.divergence,
        "t": record.t_statistic,
        "t_signed": record.t_signed,
    }


def _json_object(text: str, what: str) -> dict:
    """Parse a request body that must be one JSON object."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ReproError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ReproError(f"{what} must be a JSON object")
    return payload


def _json_safe(value: float) -> float | None:
    """``None`` for non-finite floats, the value otherwise.

    ``json.dumps`` serializes ``inf``/``nan`` as bare ``Infinity``/
    ``NaN`` tokens, which are invalid JSON and break ``JSON.parse``
    (the Welch t-statistic is ``inf`` whenever both variances vanish).
    """
    return (
        None
        if isinstance(value, float) and not math.isfinite(value)
        else value
    )


def _sanitize(payload):
    """Recursively replace non-finite floats with ``None``.

    Applied to every outgoing payload as the final guarantee that
    responses are strictly valid JSON, whatever endpoint (or future
    field) produced them.
    """
    if isinstance(payload, float):
        return _json_safe(payload)
    if isinstance(payload, dict):
        return {k: _sanitize(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_sanitize(v) for v in payload]
    return payload


class _Route(NamedTuple):
    """How the server answers one path."""

    method: str
    # Name of the _Handler method: ``(params) -> payload``, a dict sent
    # as JSON or a str sent as HTML. Looked up per request, so a wrapped
    # or patched method is the one that runs.
    handler: str
    # Cheap endpoints bypass admission control: health/UI, static
    # characteristics, the metrics dashboard and the in-memory
    # monitor/store reads must stay reachable when every mining slot
    # is busy.
    cheap: bool = False
    # Eligible for the coarser-support fallback when the deadline
    # expires mid-exploration.
    degradable: bool = False


# Every path the server answers. Paths outside this table are 404s
# and aggregate as "other" in the per-endpoint metrics, so unknown
# paths cannot grow the registry without bound.
_ROUTES = {
    "/": _Route("GET", "_index", cheap=True),
    "/api/datasets": _Route("GET", "_datasets", cheap=True),
    "/api/explore": _Route("GET", "_explore", degradable=True),
    "/api/compare": _Route("GET", "_compare"),
    "/api/rank": _Route("GET", "_rank"),
    "/api/shapley": _Route("GET", "_shapley", degradable=True),
    "/api/explain": _Route("GET", "_explain", degradable=True),
    "/api/global": _Route("GET", "_global", degradable=True),
    "/api/corrective": _Route("GET", "_corrective", degradable=True),
    "/api/lattice": _Route("GET", "_lattice", degradable=True),
    "/api/metrics": _Route("GET", "_metrics", cheap=True),
    "/api/monitor/status": _Route("GET", "_monitor_status", cheap=True),
    "/api/monitor/alerts": _Route("GET", "_monitor_alerts", cheap=True),
    "/api/patterns": _Route("GET", "_patterns", cheap=True),
    "/api/upload": _Route("POST", "_upload"),
    "/api/monitor/ingest": _Route("POST", "_monitor_ingest"),
    "/api/patterns/ack": _Route("POST", "_patterns_ack", cheap=True),
}


class _NotFound(Exception):
    """An unknown path or resource; answered with ``404``."""


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the state object is attached to the server."""

    # Silence per-request logging in tests.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._serve("POST")

    def _serve(self, method: str) -> None:
        """Route one request and map every failure to one status.

        Deadline → fallbacks or ``504``; cancellation → ``503``; unknown
        path or resource → ``404``; :class:`ReproError` (bad input) →
        ``400``; anything else → ``500``, logged with its traceback.
        """
        parsed = urlparse(self.path)
        path = parsed.path
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        route = _ROUTES.get(path)
        self._obs_path = path if route is not None else "other"
        self._obs_start = time.perf_counter()
        self._responded = False
        deadline: float | None = None
        try:
            try:
                deadline = self._deadline(params)
                if route is None or route.method != method:
                    raise _NotFound(f"unknown path {path}")
                if not route.cheap and not self._admit(deadline):
                    return  # shed: the 503 has already been sent
                try:
                    with cancel_scope(deadline=deadline):
                        checkpoint("app.dispatch")
                        payload = getattr(self, route.handler)(params)
                finally:
                    # The answer is computed: free the admission slot
                    # before the reply is written, so the client's next
                    # request finds it free.
                    self._release()
                if isinstance(payload, str):
                    self._send_html(payload)
                else:
                    self._send_json(payload)
            except DeadlineExceeded as exc:
                self._handle_deadline(exc, path, params, deadline)
        except CancellationError as exc:
            # Cooperative cancellation that is not a deadline (token /
            # fault injection). Precedes ReproError: cancellation is a
            # service condition, not a client error.
            get_registry().counter("resilience.cancelled").inc()
            self._send_json(
                {"error": str(exc), "cancelled": True},
                503,
                headers=self._retry_after(deadline),
            )
        except _NotFound as exc:
            self._send_json({"error": str(exc)}, 404)
        except ReproError as exc:
            self._send_json({"error": str(exc)}, 400)
        except Exception as exc:
            _LOG.exception("%s %s failed", method, path)
            if not self._responded:
                self._send_json(
                    {"error": "internal error", "type": type(exc).__name__},
                    500,
                )

    def _body(self) -> str:
        """The request body as text. A missing, non-integer or negative
        ``Content-Length``, an empty body and bytes that are not UTF-8
        are all ``400``s."""
        length = validate_content_length(self.headers.get("Content-Length"))
        return validate_utf8(self.rfile.read(length))

    def _record_request(self, status: int) -> None:
        elapsed = time.perf_counter() - self._obs_start
        registry = get_registry()
        registry.counter(f"http.{self._obs_path}.requests").inc()
        registry.counter(f"http.{self._obs_path}.status.{status}").inc()
        registry.histogram(f"http.{self._obs_path}.seconds").observe(elapsed)

    # -- resilience ----------------------------------------------------

    def _deadline(self, params: dict[str, str]) -> float | None:
        """Per-request deadline: query param, then header, then the
        server default. Raises :class:`ReproError` (→ 400) on junk."""
        raw = params.get("deadline")
        if raw is None:
            raw = self.headers.get("X-Deadline")
        if raw is None:
            return self._state.default_deadline
        return validate_deadline(raw)

    def _admit(self, deadline: float | None) -> bool:
        """Non-blocking admission for expensive endpoints.

        Returns ``False`` after sending ``503`` + ``Retry-After`` when
        every slot is busy (the request was shed); the header carries
        the computed backoff hint for the current load.
        """
        self._admitted = self._state.admission.acquire(blocking=False)
        if self._admitted:
            return True
        get_registry().counter("resilience.shed").inc()
        self._send_json(
            {
                "error": "server at capacity; retry shortly",
                "shed": True,
            },
            503,
            headers=self._retry_after(deadline),
        )
        return False

    def _retry_after(self, deadline: float | None) -> dict[str, str]:
        """``Retry-After`` header computed from load and budget."""
        state = self._state
        return {
            "Retry-After": retry_after_hint(
                state.admission_busy(), state.max_concurrent, deadline
            )
        }

    def _release(self) -> None:
        if getattr(self, "_admitted", False):
            self._admitted = False
            self._state.admission.release()

    def _handle_deadline(
        self,
        exc: DeadlineExceeded,
        path: str,
        params: dict[str, str],
        deadline: float | None,
    ) -> None:
        """Deadline expiry, in order of preference: a fresh sampled
        answer with credible intervals (large datasets), then a cached
        coarser-support degrade, then a structured ``504`` timeout."""
        registry = get_registry()
        registry.counter("resilience.timeouts").inc()
        sampled = self._sampled_fallback(path, params, deadline)
        if sampled is not None:
            self._send_json(sampled)
            return
        degraded = self._degraded_payload(path, params)
        if degraded is not None:
            registry.counter("resilience.degraded").inc()
            self._send_json(degraded)
            return
        payload: dict = {"error": str(exc), "timeout": True}
        if deadline is not None:
            payload["deadline"] = deadline
        self._send_json(payload, 504, headers=self._retry_after(deadline))

    def _sampled_fallback(
        self,
        path: str,
        params: dict[str, str],
        deadline: float | None,
    ) -> dict | None:
        """A bounded-budget sampled answer for an expired exploration.

        Preferred over the coarser-support degrade: it answers the
        *requested* support with quantified error instead of a coarser
        question exactly. Only for ``/api/explore`` on datasets large
        enough to auto-sample (small datasets keep the established
        degrade/504 behavior), and never when the timed-out request was
        itself sampled. Runs under its own fresh budget (at most the
        request deadline, capped at one second) so a pathologically
        slow environment still falls through to degrade/504 within the
        established latency envelope.
        """
        if path != "/api/explore" or "sample" in params:
            return None
        try:
            args = self._explore_args(params)
        except ReproError:
            return None
        dataset, metric, support, _, _, workers, _ = args
        state = self._state
        if not state.auto_samples(dataset):
            return None
        budget = min(deadline if deadline is not None else 1.0, 1.0)
        try:
            with cancel_scope(deadline=budget):
                payload = self._explore_sampled(*args, "auto")
        except ReproError:
            return None
        if payload is None:
            return None
        state.schedule_refinement(dataset, metric, support, workers)
        return payload

    def _degraded_payload(
        self, path: str, params: dict[str, str]
    ) -> dict | None:
        """Re-dispatch against the nearest cached coarser support.

        Serving an already-mined exploration of the same dataset/metric
        at a higher support threshold is strictly cheaper (its pattern
        set is a subset), so the fallback answers fast without entering
        the miners again. Returns ``None`` when nothing degradable is
        cached — the caller then sends the structured timeout.
        """
        route = _ROUTES.get(path)
        if route is None or not route.degradable:
            return None
        try:
            dataset, metric, support = self._config(params)
        except ReproError:
            return None
        served = self._state.coarser_support(dataset, metric, support)
        if served is None:
            return None
        substituted = dict(params, support=repr(served))
        try:
            payload = getattr(self, route.handler)(substituted)
        except ReproError:
            return None
        payload["degraded"] = True
        payload["requested_support"] = support
        payload["served_support"] = served
        return payload

    # ------------------------------------------------------------------

    @property
    def _state(self) -> AppState:
        return self.server.app_state  # type: ignore[attr-defined]

    def _config(self, params: dict[str, str]) -> tuple[str, str, float]:
        dataset = params.get("dataset", "compas")
        if dataset not in DATASET_NAMES and not dataset.startswith("upload:"):
            raise ReproError(f"unknown dataset {dataset!r}")
        metric = params.get("metric", "fpr")
        # Reject 0, negative, > 1 and NaN supports here with a clear
        # 400 instead of an opaque numpy error deep inside the miners.
        support = validate_support(params.get("support", "0.1"))
        return dataset, metric, support

    @staticmethod
    def _epsilon(params: dict[str, str]) -> float | None:
        return validate_epsilon(params.get("epsilon"))

    @staticmethod
    def _workers(params: dict[str, str]) -> int | None:
        """Per-request mining worker count; junk values yield a 400."""
        raw = params.get("workers")
        return None if raw is None else validate_workers(raw)

    def _result(self, params: dict[str, str]) -> PatternDivergenceResult:
        return self._state.result(
            *self._config(params), workers=self._workers(params)
        )

    def _index(self, params: dict[str, str]) -> str:
        return _INDEX_HTML

    def _datasets(self, params: dict[str, str]) -> dict:
        return {"datasets": dataset_characteristics()}

    def _upload(self, params: dict[str, str]) -> dict:
        """Register a CSV upload (``POST /api/upload``)."""
        bins = validate_bins(params.get("bins", "3"))
        handle = self._state.register_upload(
            params.get("name", "data"),
            self._body(),
            params.get("true_column", "class"),
            params.get("pred_column", "pred"),
            bins=bins,
        )
        return {"dataset": handle}

    def _explore_args(self, params: dict[str, str]) -> tuple:
        """``(dataset, metric, support, top, epsilon, workers,
        confidence)`` of an ``/api/explore`` request."""
        return (
            *self._config(params),
            validate_top(params.get("top", "10")),
            self._epsilon(params),
            self._workers(params),
            validate_confidence(params.get("confidence", "0.95")),
        )

    def _explore(self, params: dict[str, str]) -> dict:
        args = self._explore_args(params)
        dataset, metric, support, top, epsilon, workers, _ = args
        sample = validate_sample(params.get("sample"))
        # Auto-sample pre-emptively only when the request carries a
        # deadline (explicit or server default), no exact result is
        # cached, and the dataset is large enough that exact mining
        # plausibly cannot meet an interactive budget.
        state = self._state
        auto = (
            sample is None
            and self._deadline(params) is not None
            and not state.has_entry(dataset, metric, support)
            and state.auto_samples(dataset)
        )
        if auto:
            sample = "auto"
        if sample is not None:
            payload = self._explore_sampled(*args, sample)
            if payload is not None:
                if auto:
                    # The sampled answer is already on the wire's worth;
                    # refine to exact in the background so the next
                    # request is a plain cache hit.
                    state.schedule_refinement(dataset, metric, support, workers)
                return payload
            # The requested sample covers the dataset: fall through to
            # the exact path (and its cache) below.
        result, rows = state.explore_rows(
            dataset, metric, support, top, epsilon, workers=workers,
        )
        return {
            "metric": result.metric,
            "global_rate": result.global_rate,
            "n_patterns": len(result) - 1,
            "patterns": rows,
        }

    def _compare(self, params: dict[str, str]) -> dict:
        dataset, metric, support = self._config(params)
        raw_models = params.get("models")
        if raw_models is None:
            raise ReproError(
                "models parameter is required, e.g. "
                "models=pred,classifier:tree"
            )
        specs = validate_models(raw_models)
        top = validate_top(params.get("top", "10"))
        min_t = validate_min_t(params.get("min_t", "0"))
        baseline = params.get("baseline") or specs[0]
        if baseline not in specs:
            raise ReproError(
                f"baseline {baseline!r} is not one of the compared "
                f"models {specs}"
            )
        comparison = self._state.compare_result(
            dataset, metric, support, tuple(specs),
            workers=self._workers(params),
        )
        models = [
            {
                "model": name,
                "shifts": [
                    s.as_row()
                    for s in comparison.shifts(
                        name, baseline=baseline, k=top, min_t=min_t
                    )
                ],
                "regressions": [
                    s.as_row()
                    for s in comparison.regressions(
                        name, baseline=baseline, k=top, min_t=max(min_t, 2.0)
                    )
                ],
            }
            for name in specs
            if name != baseline
        ]
        return {
            "dataset": dataset,
            "metric": metric,
            "support": support,
            "models": specs,
            "baseline": baseline,
            "n_patterns": comparison.n_patterns,
            "global_rates": comparison.global_rates,
            "comparisons": models,
        }

    def _rank(self, params: dict[str, str]) -> dict:
        dataset = params.get("dataset", "ranking")
        if dataset not in DATASET_NAMES and not dataset.startswith("upload:"):
            raise ReproError(f"unknown dataset {dataset!r}")
        weight_model = validate_weight_model(
            params.get("weight_model", "exposure")
        )
        support = validate_support(params.get("support", "0.1"))
        topk = validate_rank_k(params.get("rank_k"))
        if weight_model == "topk" and topk is None:
            raise ReproError("weight_model=topk requires rank_k")
        top = validate_top(params.get("top", "10"))
        result = self._state.rank_result(
            dataset, weight_model, support, topk=topk,
            workers=self._workers(params),
        )
        rows = [
            {
                "itemset": str(r.itemset),
                "support": r.support,
                "mean": r.mean,
                "divergence": r.divergence,
                "t": r.t_statistic,
            }
            for r in result.top_k(top, by="abs_divergence")
        ]
        return {
            "dataset": dataset,
            "weight_model": weight_model,
            "metric": result.metric,
            "support": support,
            "rank_k": topk,
            "global_mean": result.global_rate,
            "n_patterns": len(result) - 1,
            "patterns": rows,
        }

    def _explore_sampled(
        self,
        dataset: str,
        metric: str,
        support: float,
        top: int,
        epsilon: float | None,
        workers: int | None,
        confidence: float,
        sample: float | int | str,
    ) -> dict | None:
        """Sampled ``/api/explore`` payload with credible intervals.

        Returns ``None`` when the resolved sample covers the whole
        dataset (the caller then serves the exact, cacheable path).
        Row ``stable`` flags certify the row's rank against the whole
        sampled table for the default ranking; under ``epsilon``
        pruning they certify the order among the displayed rows.
        """
        result = self._state.sampled_result(
            dataset, metric, support, sample, confidence, workers
        )
        if not getattr(result, "approximate", False):
            return None
        meta = result.as_meta(top)
        if epsilon is not None:
            records = prune_redundant(result, epsilon)[:top]
            keys = [result.key_of(r.itemset) for r in records]
            stable = result.stable_flags_for_keys(keys)
        else:
            records = result.top_k(top)
            keys = [result.key_of(r.itemset) for r in records]
            stable = meta["stable_ranks"]
        rows = []
        for record, key, flag in zip(records, keys, stable):
            low, high = result.ci_for_key(key)
            rows.append(
                dict(
                    _pattern_row(record),
                    ci_low=low,
                    ci_high=high,
                    stable=bool(flag),
                )
            )
        get_registry().counter("approx.served_sampled").inc()
        payload = {
            "metric": result.metric,
            "global_rate": result.global_rate,
            "n_patterns": len(result) - 1,
            "patterns": rows,
        }
        payload.update(meta)
        return payload

    def _explain(self, params: dict[str, str]) -> dict:
        top = validate_top(params.get("top", "5"))
        epsilon = self._epsilon(params)
        result = self._result(params)
        table = explain_top_k(result, k=top, epsilon=epsilon)
        return {
            "metric": result.metric,
            "patterns": [
                {
                    "itemset": str(entry["itemset"]),
                    "divergence": entry["divergence"],
                    "support": entry["support"],
                    "t": entry["t_statistic"],
                    "contributions": [
                        {"item": str(item), "value": value}
                        for item, value in sorted(
                            entry["contributions"].items(),
                            key=lambda kv: -abs(kv[1]),
                        )
                    ],
                    "description": entry["description"],
                }
                for entry in table
            ],
        }

    def _shapley(self, params: dict[str, str]) -> dict:
        pattern = validate_pattern(params.get("pattern"))
        result = self._result(params)
        contributions = result.shapley(pattern)
        return {
            "pattern": str(pattern),
            "divergence": result.divergence_of(pattern),
            "contributions": [
                {"item": str(item), "value": value}
                for item, value in sorted(
                    contributions.items(), key=lambda kv: -abs(kv[1])
                )
            ],
        }

    def _global(self, params: dict[str, str]) -> dict:
        top = validate_top(params.get("top", "12"))
        result = self._result(params)
        global_div = global_item_divergence(result)
        individual = individual_item_divergence(result)
        return {
            "items": [
                {
                    "item": str(item),
                    "global": value,
                    "individual": individual.get(item, float("nan")),
                }
                for item, value in sorted(
                    global_div.items(), key=lambda kv: -kv[1]
                )[:top]
            ]
        }

    def _corrective(self, params: dict[str, str]) -> dict:
        top = validate_top(params.get("top", "10"))
        result = self._result(params)
        return {
            "corrective": [
                {
                    "base": str(c.base),
                    "item": str(c.item),
                    "base_divergence": c.base_divergence,
                    "corrected_divergence": c.corrected_divergence,
                    "factor": c.corrective_factor,
                    "t": c.t_statistic,
                }
                for c in find_corrective_items(result, k=top)
            ]
        }

    def _lattice(self, params: dict[str, str]) -> dict:
        pattern = validate_pattern(params.get("pattern"))
        threshold = validate_divergence_threshold(
            params.get("threshold", "0.15")
        )
        result = self._result(params)
        lattice = result.lattice(pattern)
        nodes = [
            {
                "itemset": str(node),
                "length": len(node),
                "divergence": data["divergence"],
                "support": data["support"],
                "corrective": data["corrective"],
                "divergent": (
                    not math.isnan(data["divergence"])
                    and data["divergence"] >= threshold
                ),
            }
            for node, data in lattice.graph.nodes(data=True)
        ]
        edges = [
            {
                "parent": str(parent),
                "child": str(child),
                "delta": data["delta"],
            }
            for parent, child, data in lattice.graph.edges(data=True)
        ]
        return {"pattern": str(pattern), "nodes": nodes, "edges": edges}

    def _monitor_ingest(self, params: dict[str, str]) -> dict:
        """Feed one JSON batch (``POST /api/monitor/ingest``)."""
        body = self._body()
        return self._state.monitor_session(params, create=True).ingest(body)

    def _monitor_status(self, params: dict[str, str]) -> dict:
        """Snapshot of the streaming monitor (``/api/monitor/status``)."""
        session = self._state.monitor_session({})
        if session is None:
            return {"active": False}
        status = session.monitor.status()
        status["active"] = True
        status["dataset"] = session.dataset
        return status

    def _monitor_alerts(self, params: dict[str, str]) -> dict:
        """Drift alert log (``/api/monitor/alerts``).

        ``since`` skips already-seen entries (pass back the previous
        ``next``); ``offset``/``limit`` paginate what remains, so the
        response stays bounded however long the alert log grows. The
        alert list is snapshotted under the monitor lock — a concurrent
        ingest appending mid-serialization must not skew ``next``
        against the entries actually returned.
        """
        since = validate_since(params.get("since", "0"))
        offset = validate_offset(params.get("offset"))
        limit = validate_limit(params.get("limit"))
        session = self._state.monitor_session({})
        if session is None:
            return {"active": False, "alerts": [], "next": 0}
        alerts = session.monitor.alerts_snapshot()
        selected = [
            dict(a.as_dict(), seq=i)
            for i, a in enumerate(alerts)
            if i >= since
        ]
        page = selected[offset:]
        if limit is not None:
            page = page[:limit]
        return {
            "active": True,
            "alerts": page,
            "total": len(selected),
            "next": len(alerts),
        }

    def _patterns(self, params: dict[str, str]) -> dict:
        """Durable pattern ledger (``GET /api/patterns``).

        Served straight from the :class:`~repro.store.PatternStore`
        (no mining), filterable by acknowledgement state, minimum
        ``|divergence|`` and last-seen window, with the same
        ``offset``/``limit`` pagination as the alert log.
        """
        store = self._state.store
        if store is None:
            return {"store": False, "total": 0, "patterns": []}
        offset = validate_offset(params.get("offset"))
        limit = validate_limit(params.get("limit"))
        min_divergence = None
        if "min_divergence" in params:
            min_divergence = validate_alert_threshold(
                params["min_divergence"]
            )
        payload = store.query(
            offset=offset,
            limit=limit,
            acked=validate_acked(params.get("acked")),
            min_divergence=min_divergence,
            since_window=validate_since(
                params.get("since_window"), "since_window"
            ),
        )
        payload["store"] = True
        return payload

    def _patterns_ack(self, params: dict[str, str]) -> dict:
        """Acknowledgement toggle (``POST /api/patterns/ack``).

        Body: ``{"items": [...], "acked": bool?, "note": str?}`` where
        ``items`` is the pattern's canonical key as returned by
        ``GET /api/patterns``. Unknown keys are a 404 — an ack must
        reference a pattern the store has actually seen.
        """
        store = self._state.store
        if store is None:
            raise ReproError(
                "no pattern store configured (start the server with "
                "--store PATH)"
            )
        payload = _json_object(self._body(), "ack body")
        if not isinstance(payload.get("items"), list):
            raise ReproError(
                "ack body must be an object with an 'items' list of "
                "item ids"
            )
        try:
            key = [int(i) for i in payload["items"]]
        except (TypeError, ValueError):
            raise ReproError(
                f"items must be integers, got {payload['items']!r}"
            ) from None
        acked = payload.get("acked", True)
        if not isinstance(acked, bool):
            raise ReproError(f"acked must be a boolean, got {acked!r}")
        note = payload.get("note")
        if note is not None and not isinstance(note, str):
            raise ReproError(f"note must be a string, got {note!r}")
        if store.entry(key) is None:
            raise _NotFound(f"unknown pattern key {sorted(key)}")
        entry = store.ack(key, acked=acked, note=note)
        return {"acked": acked, "pattern": entry}

    def _metrics(self, params: dict[str, str]) -> dict:
        """Process-wide observability snapshot (``/api/metrics``).

        Counters include mining-cache and app-cache hit/monotone-hit/
        miss/eviction counts, gauges the live cache sizes, histograms
        the per-endpoint and per-stage latency distributions.
        """
        state = self._state
        snapshot = get_registry().snapshot()
        snapshot["gauges"].update(state._cache.gauges())
        with state._lock:
            snapshot["gauges"]["app_state.explorers"] = float(
                len(state._explorers)
            )
        return snapshot

    # ------------------------------------------------------------------

    def _send_json(
        self,
        payload: dict,
        status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        # The recursive sanitize pass is the last line of defense: no
        # response may carry bare Infinity/NaN tokens (invalid JSON),
        # and allow_nan=False turns any miss into a loud failure.
        body = json.dumps(_sanitize(payload), allow_nan=False).encode()
        self._send(body, "application/json", status, headers)

    def _send_html(self, html: str) -> None:
        self._send(html.encode(), "text/html; charset=utf-8")

    def _send(
        self,
        body: bytes,
        content_type: str,
        status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._responded = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._record_request(status)


class _AppServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that tears its workers down deterministically.

    ``server_close`` cancels background refinement threads (at their
    next resilience checkpoint) and shuts down the sharded-mining
    worker pools — relying on ``atexit`` alone would leave forked
    children alive for the rest of any embedding process (tests,
    notebooks) that closes the server without exiting. Pools are
    rebuilt transparently on next use, so closing one server never
    breaks another in the same process.
    """

    def server_close(self) -> None:
        state = getattr(self, "app_state", None)
        if state is not None:
            state.close()
        super().server_close()
        from repro.fpm.sharded import shutdown_pools

        shutdown_pools()


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    seed: int = 0,
    max_results: int = AppState.MAX_RESULTS,
    default_deadline: float | None = None,
    max_concurrent: int = AppState.MAX_CONCURRENT,
    workers: int | None = None,
    approx_auto_rows: int = AppState.APPROX_AUTO_ROWS,
    store_path: str | None = None,
) -> ThreadingHTTPServer:
    """Create (but do not start) the exploration server.

    ``port=0`` picks a free port; read it back from
    ``server.server_address``. ``max_results`` bounds all cached
    results together. ``default_deadline`` (seconds) applies to every request that
    does not set its own via the ``deadline`` query parameter or
    ``X-Deadline`` header; ``max_concurrent`` bounds simultaneously
    admitted expensive requests (excess load is shed with ``503``).
    ``workers`` sets the default mining worker count (0 auto, 1 serial,
    >= 2 row-sharded); requests override it with a ``workers`` query
    parameter. Worker counts never change results, only speed.
    ``approx_auto_rows`` is the dataset size from which deadline-carrying
    ``/api/explore`` requests are served by progressive sampling instead
    of exact mining (see ``docs/approx.md``). ``store_path`` opens a
    durable :class:`~repro.store.PatternStore` at that path: monitor
    windows are journaled into it and ``/api/patterns`` serves the
    persisted ledger across restarts (see ``docs/patterns.md``).
    """
    server = _AppServer((host, port), _Handler)
    server.app_state = AppState(  # type: ignore[attr-defined]
        seed=seed,
        max_results=max_results,
        default_deadline=default_deadline,
        max_concurrent=max_concurrent,
        default_workers=workers,
        approx_auto_rows=approx_auto_rows,
        store_path=store_path,
    )
    # Pre-register the resilience/stream/approx counters so
    # /api/metrics shows them at zero before first use instead of
    # omitting them.
    registry = get_registry()
    for name in (
        "resilience.timeouts",
        "resilience.shed",
        "resilience.degraded",
        "resilience.cancelled",
        "stream.batches",
        "stream.rows",
        "stream.windows",
        "stream.alerts",
        "stream.buffer_growths",
        "approx.rounds",
        "approx.refinements",
        "approx.served_sampled",
        "compare.explores",
        "compare.models_compared",
        "compare.cache_hits",
        "compare.cache_misses",
        "rank.explorations",
        "rank.cache_hits",
        "rank.cache_misses",
        "store.appends",
        "store.windows",
        "store.alerts",
        "store.acks",
        "store.compactions",
        "store.recovered_dropped",
    ):
        registry.counter(name)
    return server
