"""Shard-scaling ablation for the row-sharded parallel mining engine.

Times a full ``DivergenceExplorer.explore`` (cache disabled) at worker
counts {1, 2, 4, 8} on a 1M-row synthetic dataset, plus a mining-level
ablation at 10M rows, and verifies the sharded results are
*bit-identical* to the serial miners (bitset at 1M, FP-growth at a
smaller size). Worker count 1 is the serial baseline by construction
(``resolve_workers(1) == 1``); counts >= 2 run the level-synchronous
shard/merge engine of :mod:`repro.fpm.sharded`, whose workers run the
serial miner's own tile code on their row shard — the speedup measured
here is parallelism over row shards, bounded by the machine's cores.

Writes ``BENCH_shard_scaling.json`` at the repo root with per-worker
timings and the span breakdown separating shard export, counting and
merge. Set ``REPRO_BENCH_QUICK=1`` for a smoke-sized run without the
speedup assertion (used by CI).
"""

import os
import time
from pathlib import Path

import numpy as np

from _envelope import write_bench_json
from repro.core.divergence import DivergenceExplorer
from repro.experiments.tables import format_table
from repro.fpm.miner import mine_frequent
from repro.fpm.sharded import mine_sharded, shutdown_pools
from repro.fpm.transactions import ItemCatalog, TransactionDataset
from repro.obs import get_registry, span_rows
from repro.tabular.table import Table

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

# Headline config (1M x 12 attrs, card 3, s=0.01, max_length=4):
# uniform categories keep every itemset up to length 4 frequent, so the
# mine is survivor-heavy — the regime the sharded kernel targets.
EXPLORE_ROWS = 50_000 if QUICK else 1_000_000
EXPLORE_ATTRS = 8 if QUICK else 12
MINE_ROWS = 200_000 if QUICK else 10_000_000
MINE_ATTRS = 8
CARD = 3
SUPPORT = 0.01
WORKER_COUNTS = (1, 2) if QUICK else (1, 2, 4, 8)
JSON_PATH = Path(__file__).parent.parent / "BENCH_shard_scaling.json"


def build_explorer(n_rows: int, n_attrs: int) -> DivergenceExplorer:
    rng = np.random.default_rng(0)
    data = {
        f"a{j}": rng.integers(0, CARD, n_rows).tolist()
        for j in range(n_attrs)
    }
    data["class"] = rng.integers(0, 2, n_rows).tolist()
    data["pred"] = rng.integers(0, 2, n_rows).tolist()
    table = Table.from_dict(data)
    return DivergenceExplorer(
        table, "class", "pred", attributes=[f"a{j}" for j in range(n_attrs)]
    )


def build_dataset(n_rows: int, n_attrs: int) -> TransactionDataset:
    rng = np.random.default_rng(1)
    matrix = rng.integers(0, CARD, size=(n_rows, n_attrs), dtype=np.int32)
    catalog = ItemCatalog(
        [f"a{j}" for j in range(n_attrs)],
        [[f"v{c}" for c in range(CARD)]] * n_attrs,
    )
    outcome = rng.random(n_rows) < 0.5
    channels = np.stack([outcome, ~outcome], axis=1).astype(np.int64)
    dataset = TransactionDataset(matrix, catalog, channels)
    dataset.packed_item_bitmaps
    dataset.packed_channel_bitmaps
    return dataset


def best_of(repeats, fn):
    elapsed = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - started)
    return elapsed, result


def identical(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(a.counts(key), b.counts(key)) for key in a
    )


def test_shard_scaling(report):
    get_registry().reset()

    # -- explore-level ablation (the headline) -------------------------
    explorer = build_explorer(EXPLORE_ROWS, EXPLORE_ATTRS)
    max_length = 4
    # Warm: packs bitmaps, spawns worker pools, builds outcome channels.
    for workers in WORKER_COUNTS:
        explorer.explore(
            "error", min_support=0.5, max_length=1, use_cache=False,
            n_workers=workers,
        )
    repeats = 1 if QUICK else 2
    explore_rows = []
    results = {}
    for workers in WORKER_COUNTS:
        seconds, result = best_of(
            repeats,
            lambda w=workers: explorer.explore(
                "error",
                min_support=SUPPORT,
                max_length=max_length,
                use_cache=False,
                n_workers=w,
            ),
        )
        results[workers] = result
        explore_rows.append({"workers": workers, "seconds": seconds})
    baseline = explore_rows[0]["seconds"]
    for row in explore_rows:
        row["speedup"] = baseline / row["seconds"]

    # Bit-identity of the full divergence tables across worker counts.
    serial_frequent = results[WORKER_COUNTS[0]].frequent
    explore_identical = all(
        identical(results[w].frequent, serial_frequent)
        for w in WORKER_COUNTS[1:]
    )
    assert explore_identical

    # -- mining-level ablation at scale --------------------------------
    dataset = build_dataset(MINE_ROWS, MINE_ATTRS)
    mine_max_length = 3
    serial_result = None
    mine_rows = []
    for workers in WORKER_COUNTS:
        started = time.perf_counter()
        if workers == 1:
            result = mine_frequent(
                dataset, SUPPORT, max_length=mine_max_length
            )
        else:
            result = mine_sharded(
                dataset, SUPPORT, workers, max_length=mine_max_length
            )
        seconds = time.perf_counter() - started
        if serial_result is None:
            serial_result = result
            mine_identical = True
        else:
            mine_identical = identical(result, serial_result)
            assert mine_identical
        mine_rows.append({"workers": workers, "seconds": seconds})
        del result
    for row in mine_rows:
        row["speedup"] = mine_rows[0]["seconds"] / row["seconds"]

    # FP-growth equivalence at a size where it is tractable.
    small = build_dataset(min(MINE_ROWS, 200_000), 6)
    fp_identical = identical(
        mine_sharded(small, 0.05, 4, max_length=3),
        mine_frequent(small, 0.05, algorithm="fpgrowth", max_length=3),
    )
    assert fp_identical

    table_rows = [
        {
            "config": f"explore {EXPLORE_ROWS} rows",
            "workers": row["workers"],
            "seconds": round(row["seconds"], 3),
            "speedup": round(row["speedup"], 2),
        }
        for row in explore_rows
    ] + [
        {
            "config": f"mine {MINE_ROWS} rows",
            "workers": row["workers"],
            "seconds": round(row["seconds"], 3),
            "speedup": round(row["speedup"], 2),
        }
        for row in mine_rows
    ]
    report("shard_scaling", format_table(table_rows))

    payload = {
        "support": SUPPORT,
        "cardinality": CARD,
        "explore": {
            "rows": EXPLORE_ROWS,
            "attributes": EXPLORE_ATTRS,
            "max_length": max_length,
            "metric": "error",
            "n_itemsets": len(serial_frequent),
            "ablation": explore_rows,
            "identical_to_serial": explore_identical,
        },
        "mine": {
            "rows": MINE_ROWS,
            "attributes": MINE_ATTRS,
            "max_length": mine_max_length,
            "ablation": mine_rows,
            "identical_to_serial": True,
            "fpgrowth_identical": fp_identical,
        },
        "span_breakdown": span_rows(),
    }
    write_bench_json(
        JSON_PATH,
        "shard_scaling",
        payload,
        quick=QUICK,
        speedup=max(r["speedup"] for r in explore_rows),
    )
    shutdown_pools()

    if not QUICK:
        at_four = next(r for r in explore_rows if r["workers"] == 4)
        assert at_four["speedup"] >= 2.0, explore_rows
