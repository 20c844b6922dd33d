"""Simultaneous multi-metric divergence exploration.

The paper notes (Sec. 5) that "it is straightforward to extend
Algorithm 1 to efficiently compute the f-divergence of multiple outcome
functions simultaneously". This module implements that extension: the
outcome one-hot channels of every requested metric are stacked into one
channel matrix, the dataset is mined *once*, and a
:class:`~repro.core.result.PatternDivergenceResult` is materialized per
metric from the shared frequent-itemset table.

This is both a convenience (one call for a full audit) and a real
saving: mining dominates the cost (Fig. 6), and it is paid once instead
of once per metric. The stacked channels are summed over the explorer's
item layer, so repeated rows are mined once here too.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.divergence import DivergenceExplorer
from repro.core.outcomes import outcome_channels
from repro.core.result import PatternDivergenceResult
from repro.exceptions import ReproError
from repro.fpm.miner import mine_frequent


def explore_multi(
    explorer: DivergenceExplorer,
    metrics: Sequence[str],
    min_support: float = 0.1,
    algorithm: str = "bitset",
    max_length: int | None = None,
) -> dict[str, PatternDivergenceResult]:
    """Explore several metrics with a single mining pass.

    Parameters
    ----------
    explorer:
        A configured :class:`DivergenceExplorer`.
    metrics:
        Metric names (see :data:`repro.core.outcomes.OUTCOME_METRICS`).
        Duplicates are rejected.
    min_support, algorithm, max_length:
        As in :meth:`DivergenceExplorer.explore`.

    Returns
    -------
    ``{metric: PatternDivergenceResult}`` — each result is
    indistinguishable from one produced by a dedicated
    :meth:`~DivergenceExplorer.explore` call.
    """
    metrics = list(metrics)
    if not metrics:
        raise ReproError("at least one metric is required")
    if len(set(metrics)) != len(metrics):
        raise ReproError(f"duplicate metrics in {metrics}")

    # Stack the (T, F) channel pair of every metric side by side.
    channel_blocks = [
        outcome_channels(explorer.outcome_array(metric)) for metric in metrics
    ]
    stacked = np.hstack(channel_blocks)
    dataset = explorer.item_layer.dataset(stacked)
    frequent = mine_frequent(
        dataset, min_support, algorithm=algorithm, max_length=max_length
    )

    # Each metric's (n, T, F) columns, gathered from the shared count
    # matrix; the keys and their lookup are shared, not copied.
    return {
        metric: PatternDivergenceResult(
            frequent.with_counts(frequent.count_matrix[:, [0, 1 + 2 * i, 2 + 2 * i]]),
            explorer.catalog,
            metric,
            min_support,
        )
        for i, metric in enumerate(metrics)
    }

