"""Ablation — bitset vs FP-growth vs Apriori (paper Sec. 5).

The paper implements DivExplorer over both Apriori and FP-growth
(reporting experiments with FP-growth) and stresses that any FPM
technique can be plugged in. This ablation verifies all three backends
produce identical divergence tables, compares their cost, and writes
the timings to ``BENCH_fpm_backends.json`` at the repo root for
machine consumption. (``"eclat"`` is an alias of the bitset engine, so
it is not timed separately.)

Every ``explore`` call runs with ``use_cache=False`` so the mining
cache cannot turn the later backends into cache reads.
"""

from pathlib import Path

import pytest

from _envelope import write_bench_json
from repro.experiments.runner import time_call
from repro.experiments.tables import format_table
from repro.obs import get_registry, span_rows

SUPPORTS = [0.2, 0.1, 0.05]  # all on the fig6 support grid
ALGORITHMS = ("bitset", "fpgrowth", "apriori")
JSON_PATH = Path(__file__).parent.parent / "BENCH_fpm_backends.json"


def test_ablation_fpm_backends(benchmark, compas_explorer, report):
    # Clean registry so the attached span breakdown covers this bench
    # only (per-backend mining spans recorded by mine_frequent).
    get_registry().reset()
    rows = []
    timings = {}
    for support in SUPPORTS:
        for algorithm in ALGORITHMS:
            elapsed, result = time_call(
                compas_explorer.explore,
                "fpr",
                support,
                algorithm,
                use_cache=False,
            )
            timings[(algorithm, support)] = (elapsed, result)
            rows.append(
                {
                    "algorithm": algorithm,
                    "s": support,
                    "seconds": round(elapsed, 3),
                    "patterns": len(result),
                }
            )
    report("ablation_fpm_backends", format_table(rows))

    benchmark(lambda: compas_explorer.explore("fpr", 0.1, "bitset", use_cache=False))

    # Identical output across backends, divergence included.
    for support in SUPPORTS:
        _, fp = timings[("fpgrowth", support)]
        for algorithm in ("bitset", "apriori"):
            _, other = timings[(algorithm, support)]
            assert set(fp.frequent) == set(other.frequent), algorithm
            for key in fp.frequent:
                assert fp.divergence_or_zero(key) == pytest.approx(
                    other.divergence_or_zero(key)
                )

    # Machine-readable results at the repo root.
    speedups = {
        support: timings[("fpgrowth", support)][0]
        / timings[("bitset", support)][0]
        for support in SUPPORTS
    }
    payload = {
        "dataset": "compas",
        "metric": "fpr",
        "supports": SUPPORTS,
        "points": [
            {
                "algorithm": algorithm,
                "min_support": support,
                "seconds": timings[(algorithm, support)][0],
                "patterns": len(timings[(algorithm, support)][1]),
            }
            for support in SUPPORTS
            for algorithm in ALGORITHMS
        ],
        "bitset_speedup_vs_fpgrowth": {str(s): v for s, v in speedups.items()},
        "span_breakdown": span_rows(),
    }
    write_bench_json(
        JSON_PATH,
        "fpm_backends",
        payload,
        quick=False,
        speedup=max(speedups.values()),
    )

    # The packed-bitmap backend must beat FP-growth by >= 3x somewhere
    # on the fig6 grid.
    assert max(speedups.values()) >= 3.0, speedups
