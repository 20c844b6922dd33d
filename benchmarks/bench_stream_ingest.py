"""Streaming ingestion — append one batch vs rebuild the history.

The case for :class:`~repro.stream.ingest.StreamBuffer`: a monitor that
rebuilt a ``TransactionDataset`` over the whole history on every batch
would pay ``O(total)`` per batch, while the buffer copies only the
batch's rows into amortized-doubling row buffers (``O(batch)``); each
window is then built from its own rows, never from the history. This
bench streams a synthetic labeled stream to 50k+ rows and compares, at
full accumulation, the cost of appending one more batch against
rebuilding a ``TransactionDataset`` (packed bitmaps + fingerprint, the
state a re-mine needs) over every row.

Writes ``BENCH_stream_ingest.json`` at the repo root; set
``REPRO_BENCH_QUICK=1`` to run a smoke-sized stream without the
speedup assertion (used by CI).
"""

import os
from pathlib import Path

import numpy as np

from _envelope import write_bench_json
from repro.experiments.runner import time_call
from repro.experiments.tables import format_table
from repro.fpm.transactions import ItemCatalog, TransactionDataset
from repro.obs import get_registry, span, span_rows
from repro.stream import StreamBuffer

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
TOTAL_ROWS = 4_000 if QUICK else 60_000
BATCH_ROWS = 500 if QUICK else 2_000
CARDS = (4, 3, 5, 2, 6)
JSON_PATH = Path(__file__).parent.parent / "BENCH_stream_ingest.json"


def synthetic_stream(n_rows):
    rng = np.random.default_rng(0)
    catalog = ItemCatalog(
        [f"a{j}" for j in range(len(CARDS))],
        [list(range(m)) for m in CARDS],
    )
    matrix = np.column_stack(
        [rng.integers(0, m, n_rows) for m in CARDS]
    ).astype(np.int32)
    channels = rng.integers(0, 2, (n_rows, 2)).astype(np.int64)
    return catalog, matrix, channels


def rebuild_cost(matrix, channels, catalog):
    """What a non-incremental monitor redoes per batch at this size."""
    dataset = TransactionDataset(matrix, catalog, channels)
    dataset.packed_item_bitmaps
    dataset.packed_channel_bitmaps
    dataset.fingerprint()
    return dataset


def test_stream_ingest_append_vs_rebuild(benchmark, report):
    get_registry().reset()
    catalog, matrix, channels = synthetic_stream(TOTAL_ROWS)

    buffer = StreamBuffer(catalog, initial_capacity=1024)
    append_times = []
    with span("bench.stream.fill"):
        for start in range(0, TOTAL_ROWS, BATCH_ROWS):
            stop = min(start + BATCH_ROWS, TOTAL_ROWS)
            elapsed, _ = time_call(
                buffer.append, matrix[start:stop], channels[start:stop]
            )
            append_times.append((stop, elapsed))
    assert buffer.n_rows == TOTAL_ROWS

    # Steady-state append cost: median of the last quarter of batches,
    # where the buffer is large and amortized growth has settled.
    tail = [t for _, t in append_times[-max(1, len(append_times) // 4) :]]
    append_seconds = float(np.median(tail))

    with span("bench.stream.rebuild"):
        rebuild_seconds, _ = time_call(
            rebuild_cost, matrix, channels, catalog
        )

    # The buffer's dataset must pack the same bitmaps as the rebuild.
    reference = rebuild_cost(matrix, channels, catalog)
    np.testing.assert_array_equal(
        buffer.dataset().packed_item_bitmaps, reference.packed_item_bitmaps
    )

    speedup = rebuild_seconds / append_seconds if append_seconds else float("inf")
    rows = [
        {
            "path": "append one batch (steady state)",
            "rows": BATCH_ROWS,
            "seconds": round(append_seconds, 6),
        },
        {
            "path": "rebuild dataset from scratch",
            "rows": TOTAL_ROWS,
            "seconds": round(rebuild_seconds, 6),
        },
        {
            "path": "speedup (rebuild / append)",
            "rows": TOTAL_ROWS,
            "seconds": round(speedup, 1),
        },
    ]
    report("stream_ingest", format_table(rows))

    benchmark(
        lambda: StreamBuffer(catalog, initial_capacity=1024).append(
            matrix[:BATCH_ROWS], channels[:BATCH_ROWS]
        )
    )

    payload = {
        "total_rows": TOTAL_ROWS,
        "batch_rows": BATCH_ROWS,
        "n_items": catalog.n_items,
        "append_seconds_per_batch": append_seconds,
        "rebuild_seconds": rebuild_seconds,
        "append_timeline": [
            {"rows_accumulated": n, "seconds": t} for n, t in append_times
        ],
        "span_breakdown": span_rows(),
    }
    write_bench_json(
        JSON_PATH, "stream_ingest", payload, quick=QUICK, speedup=speedup
    )

    if not QUICK:
        assert TOTAL_ROWS >= 50_000
        # The incremental path must beat the per-batch rebuild by >= 3x
        # once 50k+ rows have accumulated.
        assert speedup >= 3.0, (append_seconds, rebuild_seconds)
