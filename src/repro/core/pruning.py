"""ε-redundancy pruning of divergent itemsets (paper Sec. 3.5).

A pattern ``I`` is pruned when some item ``α ∈ I`` has absolute marginal
contribution at most ``ε``: ``|Δ(I) − Δ(I \\ α)| ≤ ε``. The shorter
pattern ``I \\ α`` then already captures the divergence, so dropping
``I`` compacts the output without losing information (Table 6,
Fig. 10).

The hot path is columnar: the lattice index resolves every pattern's
immediate subsets once, and :func:`redundancy_margins` reduces the
marginal contributions to one ``min |Δ(I) − Δ(I \\ α)|`` per row. A
whole ε-sweep (Fig. 10) is then a single comparison per threshold
against that one array. The original per-pattern dict walk is the
oracle of the property tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import PatternDivergenceResult, PatternRecord
from repro.exceptions import ReproError
from repro.obs import span
from repro.resilience import checkpoint


def _sort_records(records: list[PatternRecord]) -> list[PatternRecord]:
    """Deterministic, backend-independent pruning order."""
    records.sort(
        key=lambda r: (-r.divergence, -r.support, r.length, str(r.itemset))
    )
    return records


def redundancy_margins(
    result: PatternDivergenceResult,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row minimal marginal contribution and validity mask.

    Returns ``(margins, prunable)`` aligned with the lattice-index rows:
    ``margins[i] = min_{α ∈ K_i} |Δ(K_i) − Δ(K_i \\ α)|`` over parents
    with defined divergence (``inf`` when no parent qualifies), and
    ``prunable[i]`` is True for non-empty rows with defined divergence.
    A row survives pruning at threshold ``ε`` iff
    ``prunable[i] and margins[i] > ε`` — every ε of a sweep reuses these
    two arrays.
    """
    checkpoint("kernel.redundancy_margins")
    index = result.lattice_index()
    div = result.divergence_vector()
    parent_div = np.where(
        index.parent_rows >= 0, div[index.parent_rows], np.nan
    )
    diff = np.abs(div[index.row_of_entry] - parent_div)
    # Undefined parents never make a pattern redundant.
    diff = np.where(np.isnan(diff), np.inf, diff)
    # Flat entries are grouped by row, so the per-row minimum is one
    # segmented reduction (the sentinel guards a zero-length tail row).
    margins = np.minimum.reduceat(
        np.concatenate([diff, [np.inf]]), index.items_ptr[:-1]
    )
    margins[index.lengths == 0] = np.inf
    prunable = (index.lengths > 0) & ~np.isnan(div)
    return margins, prunable


def is_redundant(
    result: PatternDivergenceResult, key: frozenset[int], epsilon: float
) -> bool:
    """Whether pattern ``key`` is pruned at threshold ``epsilon``.

    Patterns whose own divergence is undefined (all-BOTTOM support set)
    are treated as redundant — they carry no rate information.
    """
    row = result.row_of_key(frozenset(key))
    if row < 0:
        raise ReproError(
            f"pattern {set(key)} is not frequent at support {result.min_support}"
        )
    index = result.lattice_index()
    div = result.divergence_vector()
    if math.isnan(div[row]):
        return True
    lo, hi = int(index.items_ptr[row]), int(index.items_ptr[row + 1])
    parents = index.parent_rows[lo:hi]
    parent_div = np.where(parents >= 0, div[parents], np.nan)
    with np.errstate(invalid="ignore"):
        near = np.abs(div[row] - parent_div) <= epsilon
    return bool(np.any(near & ~np.isnan(parent_div)))


@span("kernel.prune_redundant")
def prune_redundant(
    result: PatternDivergenceResult, epsilon: float
) -> list[PatternRecord]:
    """All non-redundant, non-empty frequent patterns at threshold ``ε``.

    Returned sorted by decreasing divergence (ties: higher support,
    shorter, then lexicographic — independent of the mining backend's
    enumeration order). ``epsilon = 0`` keeps every pattern where each
    item moves the divergence at all. The scan is one comparison against
    the precomputed redundancy margins; only surviving rows are
    materialized into records.
    """
    if epsilon < 0:
        raise ReproError(f"epsilon must be >= 0, got {epsilon}")
    margins, prunable = redundancy_margins(result)
    kept_rows = np.nonzero(prunable & (margins > epsilon))[0]
    return _sort_records(result.records_for_rows(kept_rows))


def pruned_count_by_epsilon(
    result: PatternDivergenceResult, epsilons: list[float]
) -> dict[float, int]:
    """Number of surviving patterns per ε (the Fig. 10 sweep).

    The margins are computed once; each threshold is a single vectorized
    comparison, with no record materialization at all.
    """
    if any(eps < 0 for eps in epsilons):
        bad = min(epsilons)
        raise ReproError(f"epsilon must be >= 0, got {bad}")
    margins, prunable = redundancy_margins(result)
    return {
        eps: int(np.count_nonzero(prunable & (margins > eps)))
        for eps in epsilons
    }
