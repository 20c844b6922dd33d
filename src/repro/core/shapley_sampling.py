"""Monte-Carlo approximation of local Shapley contributions.

The exact computation (Def. 4.1) enumerates all ``2^{|I|-1}`` subsets
per item. Patterns are bounded by the attribute count, so exactness is
fine for the paper's datasets (≤ 21 attributes), but wide schemas make
the exact sum expensive. This module implements the standard
permutation-sampling estimator: draw random orderings of the pattern's
items and average each item's marginal contribution over its prefix.

The estimator is unbiased; with ``n_samples`` permutations the standard
error of each contribution shrinks as ``1/sqrt(n_samples)``. Tests
verify convergence to the exact values.
"""

from __future__ import annotations

import numpy as np

from repro.core.items import Item, Itemset
from repro.core.lattice_index import subset_id_rows
from repro.core.result import PatternDivergenceResult
from repro.exceptions import ReproError


def shapley_contributions_sampled(
    result: PatternDivergenceResult,
    itemset: Itemset,
    n_samples: int = 200,
    seed: int = 0,
) -> dict[Item, float]:
    """Permutation-sampling estimate of ``Δ(α|I)`` for every ``α ∈ I``.

    Parameters
    ----------
    result:
        A completed exploration containing ``itemset`` (and hence all of
        its subsets, by downward closure).
    itemset:
        The pattern to explain.
    n_samples:
        Number of random permutations. Exact enumeration is used
        automatically when it is cheaper (``|I|! <= n_samples``).
    seed:
        RNG seed for reproducibility.
    """
    if n_samples < 1:
        raise ReproError(f"n_samples must be >= 1, got {n_samples}")
    key = result.key_of(itemset)
    if key not in result.frequent:
        raise ReproError(
            f"pattern ({itemset}) is not frequent at support {result.min_support}"
        )
    ids = sorted(key)
    n = len(ids)
    if n == 0:
        return {}
    if n <= 2 or _factorial(n) <= n_samples:
        # Exact is cheaper: fall back to the closed form.
        from repro.core.shapley import shapley_contributions

        return shapley_contributions(result, itemset)

    # Every prefix of every permutation is a subset of ``ids``: resolve
    # all 2^n of them in one lookup (entry m is the subset of bitmask m).
    table = result.frequent
    rows = table.rows_of_padded(table.pad_keys(subset_id_rows(ids)))
    sub_div = np.where(
        rows >= 0, result.divergence_vector(zero_nan=True)[rows], 0.0
    ).tolist()
    rng = np.random.default_rng(seed)
    totals = [0.0] * n
    for _ in range(n_samples):
        mask = 0
        prev_div = 0.0  # divergence of the empty pattern
        for position in rng.permutation(n).tolist():
            mask |= 1 << position
            current = sub_div[mask]
            totals[position] += current - prev_div
            prev_div = current
    return {
        result.item_of(item_id): total / n_samples
        for item_id, total in zip(ids, totals)
    }


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out
