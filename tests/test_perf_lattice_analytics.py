"""Performance smoke for the lattice-index analytics kernels.

Marked ``slow`` and excluded from the default run; the benchmark suite
runs it with ``-m ""``. The full reference-vs-vectorized ablation with
machine-readable output lives in
``benchmarks/bench_ablation_lattice_analytics.py`` — this smoke just
keeps a pytest-benchmark datapoint on the hot analytics path and a
cheap sanity bound (vectorized no slower than the dict walks).
"""

import timeit

import pytest

from repro.core.corrective import find_corrective_items
from repro.core.divergence import DivergenceExplorer
from repro.core.global_divergence import global_item_divergence
from repro.core.pruning import prune_redundant
from repro.datasets import load
from tests.oracles import (
    global_item_divergence_reference,
    prune_redundant_reference,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def compas_result():
    data = load("compas", seed=0)
    explorer = DivergenceExplorer(
        data.table, data.true_column, data.pred_column
    )
    result = explorer.explore("fpr", min_support=0.05)
    result.lattice_index()  # warm the index and the record cache
    result.records()
    return result


def test_analytics_smoke(benchmark, compas_result):
    def analytics():
        global_item_divergence(compas_result)
        prune_redundant(compas_result, 0.05)
        find_corrective_items(compas_result, k=10)

    benchmark(analytics)


def test_vectorized_not_slower_than_reference(compas_result):
    def best(fn):
        return min(timeit.repeat(fn, number=5, repeat=3)) / 5

    vec = best(
        lambda: (
            global_item_divergence(compas_result),
            prune_redundant(compas_result, 0.05),
        )
    )
    ref = best(
        lambda: (
            global_item_divergence_reference(compas_result),
            prune_redundant_reference(compas_result, 0.05),
        )
    )
    assert vec <= ref
