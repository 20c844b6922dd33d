"""Property test: incremental windowed mining ≡ batch exploration.

For any partition of the stream into ingestion batches, under a tumbling
and a sliding window policy, every window the monitor mines must be
*bit-identical* — same canonical keys, same ``[n, T, F]`` counts, same
divergences — to a from-scratch ``DivergenceExplorer.explore`` over
exactly the window's rows, on every tested mining backend. This is the
correctness contract that lets the streaming path reuse all downstream
analytics unchanged.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.divergence import DivergenceExplorer
from repro.core.outcomes import outcome_metric
from repro.fpm.transactions import ItemCatalog
from repro.stream import DivergenceMonitor
from repro.tabular.column import CategoricalColumn
from repro.tabular.table import Table

N_ROWS = 100
WINDOW = 40
# (window, step) policies every batch partition is checked under:
# tumbling, and sliding windows whose start rows (0, 12, 24, ...) are
# not multiples of 8.
POLICIES = [(WINDOW, None), (WINDOW, 12)]
CARDS = (2, 3)
MIN_SUPPORT = 0.08


def build_stream(seed):
    rng = np.random.default_rng(seed)
    matrix = np.column_stack(
        [rng.integers(0, m, N_ROWS) for m in CARDS]
    ).astype(np.int32)
    truth = rng.random(N_ROWS) < 0.5
    pred = truth ^ (rng.random(N_ROWS) < 0.3)
    return matrix, truth, pred


def window_explorer(matrix, truth, pred):
    """Batch-path explorer over exactly these rows.

    Columns carry the FULL category list (not just the values present)
    so the explorer's item catalog — and therefore every canonical key —
    matches the stream catalog even when a window misses some category.
    """
    columns = [
        CategoricalColumn(f"a{j}", matrix[:, j], list(range(m)))
        for j, m in enumerate(CARDS)
    ]
    columns.append(
        CategoricalColumn("class", truth.astype(int), [0, 1])
    )
    columns.append(CategoricalColumn("pred", pred.astype(int), [0, 1]))
    return DivergenceExplorer(Table(columns), "class", "pred")


@pytest.mark.parametrize("algorithm", ["bitset", "fpgrowth"])
@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=12, deadline=None)
def test_any_batch_partition_matches_batch_exploration(
    algorithm, seed, data
):
    matrix, truth, pred = build_stream(seed)
    outcome = outcome_metric("fpr")(truth, pred)

    catalog = ItemCatalog(
        [f"a{j}" for j in range(len(CARDS))],
        [list(range(m)) for m in CARDS],
    )
    monitors = [
        DivergenceMonitor(
            catalog,
            metric="fpr",
            window=window,
            step=step,
            min_support=MIN_SUPPORT,
            algorithm=algorithm,
            keep_results=16,
        )
        for window, step in POLICIES
    ]
    cuts = data.draw(
        st.lists(
            st.integers(1, N_ROWS - 1), max_size=6, unique=True
        ).map(sorted)
    )
    bounds = [0, *cuts, N_ROWS]
    for start, stop in zip(bounds, bounds[1:]):
        for monitor in monitors:
            monitor.ingest(matrix[start:stop], outcome=outcome[start:stop])

    tumbling, sliding = monitors
    assert len(tumbling.windows) == N_ROWS // WINDOW
    assert [w.start for w in sliding.windows] == [0, 12, 24, 36, 48, 60]
    for stats in tumbling.windows + sliding.windows:
        rows = slice(stats.start, stats.stop)
        expected = window_explorer(
            matrix[rows], truth[rows], pred[rows]
        ).explore("fpr", min_support=MIN_SUPPORT, algorithm=algorithm)
        streamed = stats.result
        assert streamed is not None
        assert set(streamed.frequent) == set(expected.frequent)
        for key in expected.frequent:
            np.testing.assert_array_equal(
                streamed.frequent.counts(key), expected.frequent.counts(key)
            )
        assert streamed.global_rate == expected.global_rate
        assert set(streamed.divergence_map) == set(expected.divergence_map)
        for key, value in expected.divergence_map.items():
            got = streamed.divergence_map[key]
            if math.isnan(value):
                assert math.isnan(got)
            else:
                assert got == value
