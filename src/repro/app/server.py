"""HTTP/JSON backend for interactive divergence exploration.

Endpoints (all GET, JSON responses):

- ``/api/datasets``                      bundled datasets + characteristics
- ``/api/explore``    params: ``dataset, metric, support, top, epsilon?``
- ``/api/shapley``    params: ``dataset, metric, support, pattern``
- ``/api/explain``    params: ``dataset, metric, support, top, epsilon?``
- ``/api/global``     params: ``dataset, metric, support, top``
- ``/api/corrective`` params: ``dataset, metric, support, top``
- ``/api/lattice``    params: ``dataset, metric, support, pattern, threshold?``
- ``/api/compare``    params: ``dataset, metric, support, models,
  baseline?, top?, min_t?`` — shared-lattice multi-model comparison
  (see ``docs/compare.md``): ``models`` is a comma-separated list of
  prediction columns and/or ``classifier:<name>`` specs, mined once
  and compared pairwise against the baseline
- ``/api/rank``       params: ``dataset, weight_model?, support?, rank_k?,
  top?, workers?`` — exposure/rank divergence of the dataset's ranking
  score over all frequent subgroups (see ``docs/ranking.md``); weight
  models: ``exposure`` (default), ``topk`` (needs ``rank_k``),
  ``reciprocal_rank``, ``score``
- ``/api/metrics``    process metrics: cache counters, span timings,
  per-endpoint request counts/status/latency percentiles
- ``/``               minimal HTML page that calls the API

Streaming monitor endpoints (see ``docs/streaming.md``): ``POST
/api/monitor/ingest`` feeds batches of labeled predictions to a single
lock-protected :class:`~repro.stream.monitor.DivergenceMonitor`
(created on first ingest from the request's config params), ``GET
/api/monitor/status`` snapshots it, and ``GET /api/monitor/alerts``
returns the structured drift-alert log (paginated via ``offset`` /
``limit``; ``since`` skips already-seen entries).

Pattern store endpoints (see ``docs/patterns.md``): when the server is
started with a store path (``--store`` / ``store_path=``), every
monitor window is journaled into a durable
:class:`~repro.store.PatternStore` that survives restarts. ``GET
/api/patterns`` serves the deduplicated pattern ledger (paginated,
filterable by ``acked``, ``min_divergence`` and ``since_window``) and
``POST /api/patterns/ack`` flips a pattern's acknowledgement state.

Errors return ``{"error": ...}`` with status 400/404. Every payload is
sanitized before serialization: non-finite floats (``inf``/``nan``)
become ``null``, so responses are always strictly valid JSON
(``JSON.parse``-safe — ``json.dumps`` would otherwise emit bare
``Infinity``/``NaN`` tokens). The server is a stock
``ThreadingHTTPServer``; run it with ``python -m repro.app``.

Resilience (see ``docs/resilience.md``):

- Per-request deadlines: ``deadline`` query parameter or ``X-Deadline``
  header (seconds), falling back to the server-wide default
  (``--deadline``). Expensive work runs inside a
  :func:`repro.resilience.cancel_scope`, so mining and the lattice
  kernels abort cooperatively; an expired deadline yields a structured
  ``504`` payload (``{"error", "timeout": true, "deadline"}``) — or a
  *degraded* ``200`` re-serving a cached coarser-support exploration of
  the same dataset/metric, marked ``{"degraded": true,
  "requested_support", "served_support"}``.
- Backpressure: at most ``max_concurrent`` expensive requests run at
  once (admission is a non-blocking semaphore); excess load is shed
  with ``503`` + ``Retry-After``. The ``Retry-After`` value is a
  computed backoff hint — it scales with the busy fraction of the
  admission slots and the request's own deadline budget, clamped to
  ``[1, 30]`` seconds (see :func:`retry_after_hint`). Cheap endpoints
  (``/``, ``/api/datasets``, ``/api/metrics``) are exempt so health
  checks and dashboards keep working under load.
- Counters ``resilience.timeouts`` / ``resilience.shed`` /
  ``resilience.degraded`` / ``resilience.cancelled`` surface in
  ``/api/metrics``.

Approximate exploration (see ``docs/approx.md``): ``/api/explore``
accepts ``sample=`` (fraction, row count or ``auto``) and
``confidence=`` and then serves a sampled divergence table with
credible intervals (``approximate: true``, ``sample_rows``,
``total_rows``, ``stable_ranks``, per-row ``ci_low``/``ci_high``/
``stable``). On datasets of at least ``approx_auto_rows`` rows a
request carrying a deadline and no cached exact result is served
sampled *pre-emptively*, and a deadline that expires mid-exploration
is answered with a fresh bounded-budget sampled attempt *before* the
coarser-support degrade path; both schedule a background refinement
that doubles the sample until exact and then installs the exact result
into the cache. Counters ``approx.rounds`` / ``approx.refinements`` /
``approx.served_sampled`` surface in ``/api/metrics``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.core.corrective import find_corrective_items
from repro.core.divergence import DivergenceExplorer
from repro.core.explanations import explain_top_k
from repro.core.global_divergence import (
    global_item_divergence,
    individual_item_divergence,
)
from repro.core.items import Itemset
from repro.core.outcomes import outcome_metric
from repro.core.pruning import prune_redundant
from repro.core.result import PatternDivergenceResult
from repro.datasets import DATASET_NAMES, dataset_characteristics, load
from repro.exceptions import ReproError
from repro.obs import get_registry
from repro.params import (
    validate_alert_threshold,
    validate_confidence,
    validate_deadline,
    validate_epsilon,
    validate_limit,
    validate_min_t,
    validate_models,
    validate_offset,
    validate_rank_k,
    validate_sample,
    validate_step,
    validate_support,
    validate_top,
    validate_weight_model,
    validate_window,
    validate_workers,
)
from repro.resilience import (
    CancellationError,
    CancelToken,
    DeadlineExceeded,
    cancel_scope,
)
from repro.store import PatternStore
from repro.stream import DivergenceMonitor, DriftConfig
from repro.stream.runner import catalog_for

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
        self.renders: OrderedDict[tuple, list[dict]] = OrderedDict()


class AppState:
    """Cached explorations keyed by (dataset, metric, support).

    The cache is a small LRU (``max_results`` entries): every hit
    refreshes an entry, and exploring a new configuration past the
    bound evicts the least-recently-used one — long-running servers
    fed many uploads/configs stay flat in memory. Besides the bundled
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
        self.max_results = max(1, max_results)
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
        self._cache: OrderedDict[tuple, _CachedExploration] = OrderedDict()
        # Model comparisons live in their own LRU: the exploration cache
        # is keyed by 3-tuples that coarser_support() introspects, and a
        # CompareResult is not a substitutable answer for /api/explore.
        self._compare_cache: OrderedDict[tuple, "CompareResult"] = (
            OrderedDict()
        )
        # Rank-divergence results get their own LRU for the same reason
        # — a RankDivergenceResult is keyed by weight model, not metric,
        # and cannot substitute for an /api/explore answer.
        self._rank_cache: OrderedDict[tuple, "RankDivergenceResult"] = (
            OrderedDict()
        )
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

    def monitor_ingest(self, params: dict[str, str], body: bytes) -> dict:
        """Feed one JSON batch to the (possibly new) monitor session."""
        session = self.monitor_session(params, create=True)
        return session.ingest(body)

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
            self._cache = OrderedDict(
                (k, v) for k, v in self._cache.items() if k[0] != handle
            )
            self._compare_cache = OrderedDict(
                (k, v)
                for k, v in self._compare_cache.items()
                if k[0] != handle
            )
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

    def _entry(
        self,
        dataset: str,
        metric: str,
        support: float,
        workers: int | None = None,
    ) -> _CachedExploration:
        """LRU-cached exploration entry for one configuration.

        ``workers`` deliberately stays out of the cache key: the
        sharded engine's merged counts are bit-identical to a serial
        run, so any cached exploration answers any worker count.
        """
        key = (dataset, metric, support)
        registry = get_registry()
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                registry.counter("app_cache.hits").inc()
                return entry
        registry.counter("app_cache.misses").inc()
        result = self.explorer(dataset).explore(
            metric,
            min_support=support,
            n_workers=workers if workers is not None else self.default_workers,
        )
        with self._lock:
            # Another thread may have raced us to the same key; keep the
            # first entry so its cached renders survive.
            entry = self._cache.get(key)
            if entry is None:
                entry = _CachedExploration(result)
                self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self.max_results:
                self._cache.popitem(last=False)
                registry.counter("app_cache.evictions").inc()
            registry.gauge("app_cache.entries").set(len(self._cache))
            return entry

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
        """LRU-cached shared-lattice comparison of one spec list.

        ``workers`` stays out of the key for the same reason as in
        :meth:`_entry`: sharded and serial mining are bit-identical.
        ``classifier:`` specs train deterministically from the server
        seed, so a cached comparison answers repeats exactly.
        """
        from repro.core.compare import explore_compare, resolve_models

        key = (dataset, metric, support, specs)
        registry = get_registry()
        with self._lock:
            comparison = self._compare_cache.get(key)
            if comparison is not None:
                self._compare_cache.move_to_end(key)
                registry.counter("compare.cache_hits").inc()
                return comparison
        registry.counter("compare.cache_misses").inc()
        explorer = self.explorer(dataset)
        # Columns consumed as model predictions must not double as
        # analysis attributes (an upload's spare prediction columns are
        # ordinary categoricals to its explorer).
        attributes = [a for a in explorer.attributes if a not in set(specs)]
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
            n_workers=workers if workers is not None else self.default_workers,
            mining_cache=explorer.mining_cache,
        )
        # Build the shared lattice index eagerly, outside the lock, so
        # cache hits serve fully materialized comparisons.
        comparison.lattice_index()
        with self._lock:
            raced = self._compare_cache.get(key)
            if raced is not None:
                comparison = raced
            else:
                self._compare_cache[key] = comparison
            self._compare_cache.move_to_end(key)
            while len(self._compare_cache) > self.max_results:
                self._compare_cache.popitem(last=False)
                registry.counter("compare.cache_evictions").inc()
            registry.gauge("compare.cache_entries").set(
                len(self._compare_cache)
            )
            return comparison

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
        """LRU-cached rank-divergence table for one configuration.

        ``workers`` stays out of the key for the same reason as in
        :meth:`_entry`: sharded and serial mining are bit-identical.
        """
        key = (dataset, weight_model, support, topk)
        registry = get_registry()
        with self._lock:
            result = self._rank_cache.get(key)
            if result is not None:
                self._rank_cache.move_to_end(key)
                registry.counter("rank.cache_hits").inc()
                return result
        registry.counter("rank.cache_misses").inc()
        result = self.rank_explorer(dataset).explore(
            weight_model=weight_model,
            min_support=support,
            topk=topk,
            n_workers=workers if workers is not None else self.default_workers,
        )
        with self._lock:
            raced = self._rank_cache.get(key)
            if raced is not None:
                result = raced
            else:
                self._rank_cache[key] = result
            self._rank_cache.move_to_end(key)
            while len(self._rank_cache) > self.max_results:
                self._rank_cache.popitem(last=False)
                registry.counter("rank.cache_evictions").inc()
            registry.gauge("rank.cache_entries").set(len(self._rank_cache))
            return result

    def coarser_support(
        self, dataset: str, metric: str, support: float
    ) -> float | None:
        """Smallest cached support strictly above ``support`` for the
        same dataset/metric — the best degraded substitute when the
        requested exploration timed out (higher support ⇒ fewer
        patterns ⇒ already-mined, strictly cheaper result)."""
        with self._lock:
            candidates = [
                key[2]
                for key in self._cache
                if key[0] == dataset and key[1] == metric and key[2] > support
            ]
        return min(candidates, default=None)

    def has_entry(self, dataset: str, metric: str, support: float) -> bool:
        """Whether an exact exploration is already cached for the key.

        Auto-sampling only pre-empts *uncached* exact work — a cached
        entry is served directly, sampled or not requested.
        """
        with self._lock:
            return (dataset, metric, support) in self._cache

    def store_result(
        self,
        dataset: str,
        metric: str,
        support: float,
        result: PatternDivergenceResult,
    ) -> None:
        """Install an exact result into the LRU (refinement completion).

        Keeps an existing entry if one raced in (its rendered rows
        survive); only plain exact results belong here — sampled tables
        must never answer an exact cache key.
        """
        key = (dataset, metric, support)
        registry = get_registry()
        with self._lock:
            if key not in self._cache:
                self._cache[key] = _CachedExploration(result)
            self._cache.move_to_end(key)
            while len(self._cache) > self.max_results:
                self._cache.popitem(last=False)
                registry.counter("app_cache.evictions").inc()
            registry.gauge("app_cache.entries").set(len(self._cache))

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
            n_workers=workers if workers is not None else self.default_workers,
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
            if key in self._refining or key in self._cache:
                return False
            self._refining.add(key)

        def run() -> None:
            from repro.approx import progressive_explore

            try:
                result = progressive_explore(
                    self.explorer(dataset),
                    metric,
                    min_support=support,
                    n_workers=(
                        workers if workers is not None else self.default_workers
                    ),
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
            rows = entry.renders.get(render_key)
            if rows is not None:
                entry.renders.move_to_end(render_key)
                registry.counter("app_cache.render_hits").inc()
                return entry.result, rows
        registry.counter("app_cache.render_misses").inc()
        result = entry.result
        if epsilon is not None:
            records = prune_redundant(result, epsilon)[:top]
        else:
            records = result.top_k(top)
        rows = [
            {
                "itemset": str(r.itemset),
                "support": _json_safe(r.support),
                "divergence": _json_safe(r.divergence),
                "t": _json_safe(r.t_statistic),
                "t_signed": _json_safe(r.t_signed),
            }
            for r in records
        ]
        with self._lock:
            entry.renders[render_key] = rows
            entry.renders.move_to_end(render_key)
            while len(entry.renders) > _CachedExploration._MAX_RENDERS:
                entry.renders.popitem(last=False)
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
            algorithm=params.get("algorithm", "bitset"),
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

    def ingest(self, body: bytes) -> dict:
        """Decode ``{"rows", "truth", "pred"}``, encode, ingest."""
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ReproError(f"ingest body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ReproError("ingest body must be a JSON object")
        rows = payload.get("rows")
        truth = payload.get("truth")
        pred = payload.get("pred")
        if not isinstance(rows, list) or not rows:
            raise ReproError("ingest body needs a non-empty 'rows' list")
        if not isinstance(truth, list) or not isinstance(pred, list):
            raise ReproError("ingest body needs 'truth' and 'pred' lists")
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
        return payload if math.isfinite(payload) else None
    if isinstance(payload, dict):
        return {k: _sanitize(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_sanitize(v) for v in payload]
    return payload


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the state object is attached to the server."""

    # Silence per-request logging in tests.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # Endpoint names whitelisted for per-endpoint metrics; anything
    # else aggregates under "other" so unknown paths cannot grow the
    # registry without bound.
    _KNOWN_PATHS = frozenset(
        {
            "/",
            "/api/datasets",
            "/api/explore",
            "/api/compare",
            "/api/rank",
            "/api/shapley",
            "/api/explain",
            "/api/global",
            "/api/corrective",
            "/api/lattice",
            "/api/metrics",
            "/api/upload",
            "/api/monitor/ingest",
            "/api/monitor/status",
            "/api/monitor/alerts",
            "/api/patterns",
            "/api/patterns/ack",
        }
    )

    def _start_request(self, path: str) -> None:
        self._obs_path = path if path in self._KNOWN_PATHS else "other"
        self._obs_start = time.perf_counter()

    def _record_request(self, status: int) -> None:
        path = getattr(self, "_obs_path", None)
        if path is None:
            return
        elapsed = time.perf_counter() - self._obs_start
        registry = get_registry()
        registry.counter(f"http.{path}.requests").inc()
        registry.counter(f"http.{path}.status.{status}").inc()
        registry.histogram(f"http.{path}.seconds").observe(elapsed)

    # Endpoints cheap enough to bypass admission control: health/UI,
    # static characteristics and the metrics dashboard must stay
    # reachable even when every mining slot is busy.
    # The pattern-store endpoints are in-memory reads/appends (no
    # mining), so they stay reachable under full mining load too.
    _CHEAP_PATHS = frozenset(
        {
            "/",
            "/api/datasets",
            "/api/metrics",
            "/api/monitor/status",
            "/api/monitor/alerts",
            "/api/patterns",
            "/api/patterns/ack",
        }
    )

    # Endpoints eligible for degraded (coarser-support) fallback when
    # their deadline expires mid-exploration.
    _DEGRADABLE_PATHS = frozenset(
        {
            "/api/explore",
            "/api/shapley",
            "/api/explain",
            "/api/global",
            "/api/corrective",
            "/api/lattice",
        }
    )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        self._start_request(parsed.path)
        deadline: float | None = None
        try:
            deadline = self._deadline(params)
            if not self._admit(parsed.path, deadline):
                return  # shed: the 503 has already been sent
            try:
                with cancel_scope(deadline=deadline):
                    self._dispatch(parsed.path, params)
            finally:
                self._release()
        except DeadlineExceeded as exc:
            self._handle_deadline(exc, parsed.path, params, deadline)
        except CancellationError as exc:
            # Cooperative cancellation that is not a deadline (token /
            # fault injection). Must precede ReproError: cancellation is
            # a service condition, not a client error.
            get_registry().counter("resilience.cancelled").inc()
            self._send_json(
                {"error": str(exc), "cancelled": True},
                503,
                headers=self._retry_after(deadline),
            )
        except ReproError as exc:
            self._send_json({"error": str(exc)}, 400)
        except (KeyError, ValueError) as exc:
            self._send_json({"error": f"bad request: {exc}"}, 400)

    def _dispatch(self, path: str, params: dict[str, str]) -> None:
        if path == "/":
            self._send_html(_INDEX_HTML)
        elif path == "/api/datasets":
            self._send_json({"datasets": dataset_characteristics()})
        elif path == "/api/explore":
            self._send_json(self._explore(params))
        elif path == "/api/compare":
            self._send_json(self._compare(params))
        elif path == "/api/rank":
            self._send_json(self._rank(params))
        elif path == "/api/shapley":
            self._send_json(self._shapley(params))
        elif path == "/api/explain":
            self._send_json(self._explain(params))
        elif path == "/api/global":
            self._send_json(self._global(params))
        elif path == "/api/corrective":
            self._send_json(self._corrective(params))
        elif path == "/api/lattice":
            self._send_json(self._lattice(params))
        elif path == "/api/metrics":
            self._send_json(self._metrics())
        elif path == "/api/monitor/status":
            self._send_json(self._monitor_status())
        elif path == "/api/monitor/alerts":
            self._send_json(self._monitor_alerts(params))
        elif path == "/api/patterns":
            self._send_json(self._patterns(params))
        else:
            self._send_json({"error": f"unknown path {path}"}, 404)

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

    def _admit(self, path: str, deadline: float | None = None) -> bool:
        """Non-blocking admission for expensive endpoints.

        Returns ``False`` after sending ``503`` + ``Retry-After`` when
        every slot is busy (the request was shed); the header carries
        the computed backoff hint for the current load.
        """
        self._admitted = False
        if path in self._CHEAP_PATHS or path not in self._KNOWN_PATHS:
            return True  # cheap or 404: no ticket needed
        if self._state.admission.acquire(blocking=False):
            self._admitted = True
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
            dataset, metric, support = self._config(params)
            top = validate_top(params.get("top", "10"))
            epsilon = self._epsilon(params)
            workers = self._workers(params)
            confidence = validate_confidence(params.get("confidence", "0.95"))
        except (ReproError, ValueError):
            return None
        state = self._state
        try:
            explorer = state.explorer(dataset)
        except ReproError:
            return None
        if explorer.table.n_rows < state.approx_auto_rows:
            return None
        budget = min(deadline if deadline is not None else 1.0, 1.0)
        try:
            with cancel_scope(deadline=budget):
                payload = self._explore_sampled(
                    dataset, metric, support, top, epsilon, "auto",
                    confidence, workers,
                )
        except (CancellationError, ReproError, ValueError):
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
        if path not in self._DEGRADABLE_PATHS:
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
            payload = self._endpoint(path)(substituted)
        except (ReproError, KeyError, ValueError):
            return None
        payload["degraded"] = True
        payload["requested_support"] = support
        payload["served_support"] = served
        return payload

    def _endpoint(self, path: str):
        return {
            "/api/explore": self._explore,
            "/api/shapley": self._shapley,
            "/api/explain": self._explain,
            "/api/global": self._global,
            "/api/corrective": self._corrective,
            "/api/lattice": self._lattice,
        }[path]

    # ------------------------------------------------------------------

    @property
    def _state(self) -> AppState:
        return self.server.app_state  # type: ignore[attr-defined]

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        self._start_request(parsed.path)
        deadline: float | None = None
        try:
            deadline = self._deadline(params)
            if not self._admit(parsed.path, deadline):
                return  # shed: the 503 has already been sent
            try:
                if parsed.path == "/api/upload":
                    length = int(self.headers.get("Content-Length", "0"))
                    if length <= 0:
                        raise ReproError("empty upload body")
                    body = self.rfile.read(length).decode("utf-8")
                    handle = self._state.register_upload(
                        params.get("name", "data"),
                        body,
                        params.get("true_column", "class"),
                        params.get("pred_column", "pred"),
                        bins=int(params.get("bins", "3")),
                    )
                    self._send_json({"dataset": handle})
                elif parsed.path == "/api/monitor/ingest":
                    length = int(self.headers.get("Content-Length", "0"))
                    if length <= 0:
                        raise ReproError("empty ingest body")
                    body_bytes = self.rfile.read(length)
                    # Window re-mining runs inside the scope, so a slow
                    # ingest aborts cooperatively at its checkpoints.
                    with cancel_scope(deadline=deadline):
                        self._send_json(
                            self._state.monitor_ingest(params, body_bytes)
                        )
                elif parsed.path == "/api/patterns/ack":
                    length = int(self.headers.get("Content-Length", "0"))
                    if length <= 0:
                        raise ReproError("empty ack body")
                    self._patterns_ack(self.rfile.read(length))
                else:
                    self._send_json(
                        {"error": f"unknown path {parsed.path}"}, 404
                    )
            finally:
                self._release()
        except DeadlineExceeded as exc:
            get_registry().counter("resilience.timeouts").inc()
            payload: dict = {"error": str(exc), "timeout": True}
            if deadline is not None:
                payload["deadline"] = deadline
            self._send_json(payload, 504, headers=self._retry_after(deadline))
        except CancellationError as exc:
            get_registry().counter("resilience.cancelled").inc()
            self._send_json(
                {"error": str(exc), "cancelled": True},
                503,
                headers=self._retry_after(deadline),
            )
        except ReproError as exc:
            self._send_json({"error": str(exc)}, 400)
        except (KeyError, ValueError, UnicodeDecodeError) as exc:
            self._send_json({"error": f"bad request: {exc}"}, 400)

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

    def _explore(self, params: dict[str, str]) -> dict:
        dataset, metric, support = self._config(params)
        top = validate_top(params.get("top", "10"))
        epsilon = self._epsilon(params)
        workers = self._workers(params)
        sample = validate_sample(params.get("sample"))
        confidence = validate_confidence(params.get("confidence", "0.95"))
        auto = False
        if sample is None and self._should_auto_sample(
            dataset, metric, support, params
        ):
            sample, auto = "auto", True
        if sample is not None:
            payload = self._explore_sampled(
                dataset, metric, support, top, epsilon, sample, confidence,
                workers,
            )
            if payload is not None:
                if auto:
                    # The sampled answer is already on the wire's worth;
                    # refine to exact in the background so the next
                    # request is a plain cache hit.
                    self._state.schedule_refinement(
                        dataset, metric, support, workers
                    )
                return payload
            # The requested sample covers the dataset: fall through to
            # the exact path (and its cache) below.
        result, rows = self._state.explore_rows(
            dataset, metric, support, top, epsilon, workers=workers,
        )
        return {
            "metric": result.metric,
            "global_rate": _json_safe(result.global_rate),
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
        models = []
        for name in specs:
            if name == baseline:
                continue
            models.append(
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
                            name,
                            baseline=baseline,
                            k=top,
                            min_t=max(min_t, 2.0),
                        )
                    ],
                }
            )
        return {
            "dataset": dataset,
            "metric": metric,
            "support": support,
            "models": specs,
            "baseline": baseline,
            "n_patterns": comparison.n_patterns,
            "global_rates": {
                name: _json_safe(rate)
                for name, rate in comparison.global_rates.items()
            },
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
                "support": _json_safe(r.support),
                "mean": _json_safe(r.mean),
                "divergence": _json_safe(r.divergence),
                "t": _json_safe(r.t_statistic),
            }
            for r in result.top_k(top, by="abs_divergence")
        ]
        return {
            "dataset": dataset,
            "weight_model": weight_model,
            "metric": result.metric,
            "support": support,
            "rank_k": topk,
            "global_mean": _json_safe(result.global_rate),
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
        sample: float | int | str,
        confidence: float,
        workers: int | None,
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
        if epsilon is not None:
            records = prune_redundant(result, epsilon)[:top]
            keys = [result.key_of(r.itemset) for r in records]
            stable = result.stable_flags_for_keys(keys)
        else:
            records = result.top_k(top)
            keys = [result.key_of(r.itemset) for r in records]
            stable = result.stable_ranks(top)
        rows = []
        for record, key, flag in zip(records, keys, stable):
            low, high = result.ci_for_key(key)
            rows.append(
                {
                    "itemset": str(record.itemset),
                    "support": _json_safe(record.support),
                    "divergence": _json_safe(record.divergence),
                    "t": _json_safe(record.t_statistic),
                    "t_signed": _json_safe(record.t_signed),
                    "ci_low": _json_safe(low),
                    "ci_high": _json_safe(high),
                    "stable": bool(flag),
                }
            )
        get_registry().counter("approx.served_sampled").inc()
        payload = {
            "metric": result.metric,
            "global_rate": _json_safe(result.global_rate),
            "n_patterns": len(result) - 1,
            "patterns": rows,
        }
        payload.update(result.as_meta(top))
        return payload

    def _should_auto_sample(
        self,
        dataset: str,
        metric: str,
        support: float,
        params: dict[str, str],
    ) -> bool:
        """Pre-emptive auto-sampling decision for ``/api/explore``.

        Only when the request carries a deadline (explicit or server
        default), no exact result is cached for the key, and the
        dataset is large enough (``approx_auto_rows``) that exact
        mining plausibly cannot meet an interactive budget. Small
        datasets keep the established exact/degrade/504 semantics.
        """
        state = self._state
        if self._deadline(params) is None:
            return False
        if state.has_entry(dataset, metric, support):
            return False
        try:
            explorer = state.explorer(dataset)
        except ReproError:
            return False  # let the exact path raise the clear 400
        return explorer.table.n_rows >= state.approx_auto_rows

    def _explain(self, params: dict[str, str]) -> dict:
        result = self._result(params)
        top = validate_top(params.get("top", "5"))
        epsilon = self._epsilon(params)
        table = explain_top_k(result, k=top, epsilon=epsilon)
        return {
            "metric": result.metric,
            "patterns": [
                {
                    "itemset": str(entry["itemset"]),
                    "divergence": _json_safe(entry["divergence"]),
                    "support": _json_safe(entry["support"]),
                    "t": _json_safe(entry["t_statistic"]),
                    "contributions": [
                        {"item": str(item), "value": _json_safe(value)}
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
        result = self._result(params)
        pattern = Itemset.parse(params["pattern"])
        contributions = result.shapley(pattern)
        return {
            "pattern": str(pattern),
            "divergence": _json_safe(result.divergence_of(pattern)),
            "contributions": [
                {"item": str(item), "value": _json_safe(value)}
                for item, value in sorted(
                    contributions.items(), key=lambda kv: -abs(kv[1])
                )
            ],
        }

    def _global(self, params: dict[str, str]) -> dict:
        result = self._result(params)
        top = validate_top(params.get("top", "12"))
        global_div = global_item_divergence(result)
        individual = individual_item_divergence(result)
        return {
            "items": [
                {
                    "item": str(item),
                    "global": _json_safe(value),
                    "individual": _json_safe(
                        individual.get(item, float("nan"))
                    ),
                }
                for item, value in sorted(
                    global_div.items(), key=lambda kv: -kv[1]
                )[:top]
            ]
        }

    def _corrective(self, params: dict[str, str]) -> dict:
        result = self._result(params)
        top = validate_top(params.get("top", "10"))
        return {
            "corrective": [
                {
                    "base": str(c.base),
                    "item": str(c.item),
                    "base_divergence": _json_safe(c.base_divergence),
                    "corrected_divergence": _json_safe(c.corrected_divergence),
                    "factor": _json_safe(c.corrective_factor),
                    "t": _json_safe(c.t_statistic),
                }
                for c in find_corrective_items(result, k=top)
            ]
        }

    def _lattice(self, params: dict[str, str]) -> dict:
        result = self._result(params)
        pattern = Itemset.parse(params["pattern"])
        threshold = float(params.get("threshold", "0.15"))
        lattice = result.lattice(pattern)
        nodes = [
            {
                "itemset": str(node),
                "length": len(node),
                "divergence": _json_safe(data["divergence"]),
                "support": _json_safe(data["support"]),
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
                "delta": _json_safe(data["delta"]),
            }
            for parent, child, data in lattice.graph.edges(data=True)
        ]
        return {"pattern": str(pattern), "nodes": nodes, "edges": edges}

    def _monitor_status(self) -> dict:
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
        try:
            since = int(params.get("since", "0"))
        except ValueError:
            raise ReproError(
                f"since must be an integer, got {params.get('since')!r}"
            ) from None
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
        acked: bool | None = None
        raw_acked = params.get("acked")
        if raw_acked is not None:
            lowered = raw_acked.strip().lower()
            if lowered in ("true", "1"):
                acked = True
            elif lowered in ("false", "0"):
                acked = False
            else:
                raise ReproError(
                    f"acked must be true or false, got {raw_acked!r}"
                )
        min_divergence = None
        if "min_divergence" in params:
            min_divergence = validate_alert_threshold(
                params["min_divergence"]
            )
        since_window = None
        raw_since = params.get("since_window")
        if raw_since is not None:
            try:
                since_window = int(raw_since)
            except ValueError:
                raise ReproError(
                    f"since_window must be an integer, got {raw_since!r}"
                ) from None
        payload = store.query(
            offset=offset,
            limit=limit,
            acked=acked,
            min_divergence=min_divergence,
            since_window=since_window,
        )
        payload["store"] = True
        return payload

    def _patterns_ack(self, body: bytes) -> None:
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
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ReproError(f"ack body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("items"), list
        ):
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
            self._send_json(
                {"error": f"unknown pattern key {sorted(key)}"}, 404
            )
            return
        entry = store.ack(key, acked=acked, note=note)
        self._send_json({"acked": acked, "pattern": entry})

    def _metrics(self) -> dict:
        """Process-wide observability snapshot (``/api/metrics``).

        Counters include mining-cache and app-cache hit/monotone-hit/
        miss/eviction counts, gauges the live cache sizes, histograms
        the per-endpoint and per-stage latency distributions.
        """
        state = self._state
        snapshot = get_registry().snapshot()
        with state._lock:
            snapshot["gauges"]["app_cache.entries"] = float(len(state._cache))
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
        # The answer is computed: free the admission slot before the
        # client can read the reply, so its next request finds it free.
        self._release()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._record_request(status)

    def _send_html(self, html: str) -> None:
        body = html.encode()
        self._release()
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self._record_request(200)


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
    ``server.server_address``. ``max_results`` bounds the LRU result
    cache. ``default_deadline`` (seconds) applies to every request that
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
