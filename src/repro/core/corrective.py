"""Corrective items (paper Def. 4.2, Table 3).

An item ``α ∉ I`` is *corrective* for pattern ``I`` when adding it
shrinks the divergence in absolute value: ``|Δ(I ∪ α)| < |Δ(I)|``. The
corrective factor is the shrinkage ``|Δ(I)| − |Δ(I ∪ α)|``. Detecting
corrective items requires the exhaustive exploration: a pruned search
that stops at divergent patterns never sees the corrected supersets.

The search is a masked gather over the lattice index: every (pattern,
item) pair is one flat entry, the base pattern is its precomputed
parent row, and the Beta/Welch significance of all candidate
corrections is computed in one vectorized shot. Only the top candidates
are materialized into :class:`CorrectiveItem` objects. The original
dict-walk search is the oracle of the property tests
(``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.items import Item, Itemset
from repro.core.result import PatternDivergenceResult
from repro.obs import span
from repro.resilience import checkpoint


@dataclass(frozen=True)
class CorrectiveItem:
    """One corrective observation: item ``item`` corrects pattern ``base``."""

    base: Itemset
    item: Item
    base_divergence: float
    corrected_divergence: float
    corrective_factor: float
    t_statistic: float

    def __str__(self) -> str:
        return (
            f"({self.base}) + {self.item}: "
            f"Δ {self.base_divergence:+.3f} -> {self.corrected_divergence:+.3f} "
            f"(c_f={self.corrective_factor:.3f}, t={self.t_statistic:.1f})"
        )


def _sort_corrections(found: list[CorrectiveItem]) -> list[CorrectiveItem]:
    """Deterministic ranking: factor first, then readable tie-breakers
    so the output is independent of the mining backend's enumeration."""
    found.sort(
        key=lambda c: (-c.corrective_factor, str(c.base), str(c.item))
    )
    return found


@span("kernel.find_corrective_items")
def find_corrective_items(
    result: PatternDivergenceResult,
    k: int = 10,
    min_factor: float = 0.0,
) -> list[CorrectiveItem]:
    """Top-``k`` corrective items across all frequent patterns.

    Scans every frequent itemset ``K`` and every ``α ∈ K``, comparing
    ``|Δ(K)|`` against ``|Δ(K \\ α)|``; ranked by corrective factor.
    The reported ``t`` is the Welch statistic between the Beta posteriors
    of the base and corrected patterns, measuring how significant the
    correction itself is. The scan is a single masked pass over the
    lattice index's flat (pattern, item) entries.
    """
    if k <= 0:
        return []
    checkpoint("kernel.find_corrective_items")
    index = result.lattice_index()
    div = result.divergence_vector()
    rows = index.row_of_entry
    parents = index.parent_rows

    d_row = div[rows]
    with np.errstate(invalid="ignore"):
        parent_div = np.where(parents >= 0, div[parents], np.nan)
        factor = np.abs(parent_div) - np.abs(d_row)
        mask = (
            (index.lengths[rows] >= 2)
            & ~np.isnan(d_row)
            & ~np.isnan(parent_div)
            & (factor > min_factor)
        )
    candidates = np.nonzero(mask)[0]
    if candidates.size == 0:
        return []
    cand_factor = factor[candidates]
    if candidates.size > k:
        # Keep every candidate tied with the k-th largest factor so the
        # deterministic tie-break below sees the full boundary group.
        kth = np.partition(cand_factor, candidates.size - k)[
            candidates.size - k
        ]
        keep = cand_factor >= kth
        candidates = candidates[keep]
        cand_factor = cand_factor[keep]

    counts = result._count_matrix
    base_counts = counts[parents[candidates]]
    corr_counts = counts[rows[candidates]]
    mu_b, var_b = _beta_moments_vec(base_counts[:, 1], base_counts[:, 2])
    mu_c, var_c = _beta_moments_vec(corr_counts[:, 1], corr_counts[:, 2])
    diff = np.abs(mu_b - mu_c)
    denom = np.sqrt(var_b + var_c)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(
            denom == 0.0, np.where(diff > 0.0, np.inf, 0.0), diff / denom
        )

    found = [
        CorrectiveItem(
            base=result.itemset_of(result.frequent.key_at(int(parents[t]))),
            item=result.item_of(int(index.items_flat[t])),
            base_divergence=float(parent_div[t]),
            corrected_divergence=float(d_row[t]),
            corrective_factor=float(factor[t]),
            t_statistic=float(t_stats[i]),
        )
        for i, t in enumerate(candidates)
    ]
    return _sort_corrections(found)[:k]


def _beta_moments_vec(
    k_pos: np.ndarray, k_neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.core.significance.beta_moments`."""
    k_pos = k_pos.astype(np.float64)
    k_neg = k_neg.astype(np.float64)
    total = k_pos + k_neg
    mean = (k_pos + 1.0) / (total + 2.0)
    variance = (k_pos + 1.0) * (k_neg + 1.0) / (
        (total + 2.0) ** 2 * (total + 3.0)
    )
    return mean, variance


def is_corrective(
    result: PatternDivergenceResult, base: Itemset, item: Item
) -> bool:
    """Whether ``item`` is corrective for ``base`` (both must be frequent)."""
    div_base = result.divergence_of(base)
    div_ext = result.divergence_of(base.union(item))
    if math.isnan(div_base) or math.isnan(div_ext):
        return False
    return abs(div_ext) < abs(div_base)
