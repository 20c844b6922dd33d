"""Streaming divergence monitoring (``repro.stream``).

Turns the batch-only audit of the paper into an incremental pipeline:

- :class:`~repro.stream.ingest.StreamBuffer` — append-only ingestion
  of encoded rows and outcome channels in amortized-doubling buffers,
  each window built as a new
  :class:`~repro.fpm.transactions.TransactionDataset` over its rows;
- :mod:`~repro.stream.window` — tumbling/sliding window policies that
  materialize each complete window as a real ``TransactionDataset``;
- :class:`~repro.stream.monitor.DivergenceMonitor` — re-mines every
  window through the bitset engine + mining cache, aligns itemsets
  across windows by canonical key and keeps divergence time series;
- :mod:`~repro.stream.drift` — per-itemset divergence-shift scoring
  (Beta-posterior Welch t between windows) plus top-k rank churn, with
  configurable thresholds emitting structured alerts;
- :func:`~repro.stream.runner.replay` — an offline driver that streams
  any registry dataset in shuffled batches with an injectable synthetic
  drift, so detection is testable without live traffic.

See ``docs/streaming.md`` for architecture and alert semantics.
"""

from repro.stream.drift import DriftAlert, DriftConfig, rank_churn, score_drift
from repro.stream.ingest import StreamBuffer
from repro.stream.monitor import DivergenceMonitor, WindowStats
from repro.stream.runner import (
    DriftInjection,
    ReplayReport,
    replay,
    resolve_pattern_key,
)
from repro.stream.window import SlidingWindows, TumblingWindows, Window

__all__ = [
    "DivergenceMonitor",
    "DriftAlert",
    "DriftConfig",
    "DriftInjection",
    "ReplayReport",
    "SlidingWindows",
    "StreamBuffer",
    "TumblingWindows",
    "Window",
    "WindowStats",
    "rank_churn",
    "replay",
    "resolve_pattern_key",
    "score_drift",
]
