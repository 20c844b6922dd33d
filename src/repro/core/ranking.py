"""Significance-aware ranking of divergent patterns.

The paper ranks patterns by divergence and reports the Welch
t-statistic per pattern (Sec. 3.3). When *thousands* of patterns are
tested simultaneously, raw per-pattern significance overstates
confidence; Slice Finder controls the false discovery rate for the same
reason. This module adds multiple-testing control to the exhaustive
setting:

- :func:`t_to_p_value` converts the Welch statistic to a two-sided
  normal-approximation p-value (subgroup counts are large enough that
  the t distribution is effectively normal);
- :func:`benjamini_hochberg` selects the patterns whose divergence
  survives FDR control at level ``alpha``;
- :func:`significant_patterns` is the user-facing composition: the
  divergence-ranked pattern table restricted to FDR-surviving rows.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import PatternDivergenceResult, PatternRecord


def t_to_p_value(t_statistic: float) -> float:
    """Two-sided p-value of a (large-sample) Welch statistic.

    Uses the normal approximation ``p = 2(1 - Φ(|t|))``; exact enough
    for the subgroup sizes a support threshold admits.
    """
    if math.isnan(t_statistic):
        return 1.0
    if math.isinf(t_statistic):
        return 0.0
    return float(2.0 * (1.0 - _phi(abs(t_statistic))))


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def benjamini_hochberg(p_values: list[float], alpha: float = 0.05) -> list[bool]:
    """Benjamini–Hochberg FDR selection.

    Returns a keep-mask aligned with ``p_values``: True where the
    hypothesis is rejected (the pattern is significantly divergent) at
    FDR level ``alpha``.
    """
    m = len(p_values)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: p_values[i])
    threshold_rank = -1
    for rank, idx in enumerate(order, start=1):
        if p_values[idx] <= alpha * rank / m:
            threshold_rank = rank
    keep = [False] * m
    for rank, idx in enumerate(order, start=1):
        if rank <= threshold_rank:
            keep[idx] = True
    return keep


def significant_patterns(
    result: PatternDivergenceResult,
    alpha: float = 0.05,
    k: int | None = None,
) -> list[PatternRecord]:
    """Divergence-ranked patterns surviving BH FDR control at ``alpha``.

    NaN-divergence patterns are never significant. ``k`` optionally caps
    the output length.
    """
    rows = np.flatnonzero(result.length_vector() > 0)
    t_stats = result.t_statistics_vector()[rows]
    p_values = [t_to_p_value(t) for t in t_stats.tolist()]
    keep = np.asarray(benjamini_hochberg(p_values, alpha=alpha), dtype=bool)
    divergence = result.statistic_vector("divergence")[rows]
    keep &= ~np.isnan(divergence)
    order = np.argsort(-np.abs(divergence[keep]), kind="stable")
    survivors = rows[keep][order]
    if k is not None:
        survivors = survivors[:k]
    return result.records_for_rows(survivors.tolist())
