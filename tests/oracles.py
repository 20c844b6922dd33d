"""Reference implementations the columnar ranking paths are pinned to.

Each oracle is the straightforward whole-table algorithm: build a
record for every pattern, then filter and sort in Python. The library's
columnar versions select rows with array ops and build records only for
the rows they return; the property tests require identical output.
"""

from __future__ import annotations

import math

from repro.core.ranking import benjamini_hochberg, t_to_p_value
from repro.exceptions import ReproError


def top_k_reference(
    result,
    k: int = 10,
    by: str = "divergence",
    ascending: bool = False,
    min_support: float | None = None,
    max_length: int | None = None,
) -> list:
    """Sort-all ``top_k``: every record, one Python sort, then slice."""
    rows = result.records()
    if min_support is not None:
        rows = [r for r in rows if r.support >= min_support]
    if max_length is not None:
        rows = [r for r in rows if r.length <= max_length]
    key_fn = {
        "divergence": lambda r: r.divergence,
        "abs_divergence": lambda r: abs(r.divergence),
        "support": lambda r: r.support,
        "t_statistic": lambda r: r.t_statistic,
        "rate": lambda r: r.rate,
    }.get(by)
    if key_fn is None:
        raise ReproError(f"unknown ranking key {by!r}")
    rows = [r for r in rows if not math.isnan(key_fn(r))]
    sign = 1.0 if ascending else -1.0
    rows.sort(
        key=lambda r: (
            sign * key_fn(r),
            -r.support,
            r.length,
            str(r.itemset),
        )
    )
    return rows[:k]


def significant_reference(result, alpha: float = 0.05, k: int | None = None
                          ) -> list:
    """Whole-table FDR selection: p-values and BH over every record."""
    records = result.records()
    p_values = [t_to_p_value(rec.t_statistic) for rec in records]
    keep = benjamini_hochberg(p_values, alpha=alpha)
    survivors = [
        rec
        for rec, kept in zip(records, keep)
        if kept and not math.isnan(rec.divergence)
    ]
    survivors.sort(key=lambda r: -abs(r.divergence))
    return survivors if k is None else survivors[:k]
