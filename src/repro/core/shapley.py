"""Local item contribution to itemset divergence (paper Def. 4.1).

The contribution of item ``α`` to pattern ``I`` is the exact Shapley
value of ``α`` in the coalition game whose value function is the
divergence of sub-patterns of ``I``:

    Δ(α|I) = Σ_{J ⊆ I\\{α}}  |J|! (|I|-|J|-1)! / |I|!  [Δ(J ∪ α) − Δ(J)]

Every ``J`` in the sum is a subset of a frequent itemset, hence frequent
itself (downward closure), so all terms are available from the complete
exploration — no extra data passes are needed.

:func:`shapley_batch` evaluates many patterns at once: all ``2^n``
subset rows of every pattern are resolved against the columnar lattice
index in one batched lookup (no per-subset frozenset hashing), and the
weighted marginal sums are computed with bitmask arithmetic. The
original per-subset dict walk is the oracle of the property tests
(``tests/oracles.py``).
"""

from __future__ import annotations

from math import factorial

import numpy as np

from repro.core.items import Item, Itemset
from repro.core.lattice_index import subset_id_rows
from repro.core.result import PatternDivergenceResult
from repro.exceptions import ReproError
from repro.obs import span


@span("kernel.shapley_batch")
def shapley_batch(
    result: PatternDivergenceResult, itemsets: list[Itemset]
) -> list[dict[Item, float]]:
    """Exact Shapley contributions of many patterns, one shared pass.

    Subset-row resolution is shared across the batch: the padded subset
    keys of every pattern are concatenated and resolved with a single
    index lookup, which is what makes top-k explanation tables and the
    lattice view cheap. Raises ``ReproError`` when any pattern is not
    frequent at the exploration's support threshold.
    """
    index = result.lattice_index()
    div0 = result.divergence_vector(zero_nan=True)

    id_lists: list[list[int]] = []
    blocks: list[np.ndarray] = []
    for itemset in itemsets:
        key = result.key_of(itemset)
        if key not in result.frequent:
            raise ReproError(
                f"pattern ({itemset}) is not frequent at support "
                f"{result.min_support}"
            )
        # Bit b of a subset mask refers to itemset.items[b]; the padded
        # lookup keys are canonicalized by the index, so any id order
        # works here.
        ids = [
            result.catalog.item_id(it.attribute, it.value)
            for it in itemset.items
        ]
        id_lists.append(ids)
        blocks.append(index.pad_keys(subset_id_rows(ids)))

    if not blocks:
        return []
    rows = index.rows_of_padded(np.concatenate(blocks, axis=0))

    out: list[dict[Item, float]] = []
    offset = 0
    for itemset, ids in zip(itemsets, id_lists):
        n = len(ids)
        size = 1 << n
        sub_rows = rows[offset : offset + size]
        offset += size
        if n == 0:
            out.append({})
            continue
        sub_div = np.where(sub_rows >= 0, div0[sub_rows], 0.0)
        masks = np.arange(size, dtype=np.int64)
        popcounts = ((masks[:, None] >> np.arange(n, dtype=np.int64)) & 1).sum(
            axis=1
        )
        n_fact = factorial(n)
        weights = np.asarray(
            [factorial(j) * factorial(n - j - 1) / n_fact for j in range(n)]
        )
        contributions: dict[Item, float] = {}
        for p, item in enumerate(itemset.items):
            without = masks[(masks >> p) & 1 == 0]
            terms = weights[popcounts[without]] * (
                sub_div[without | (1 << p)] - sub_div[without]
            )
            contributions[item] = float(terms.sum())
        out.append(contributions)
    return out


def shapley_contributions(
    result: PatternDivergenceResult, itemset: Itemset
) -> dict[Item, float]:
    """Exact Shapley contribution of each item of ``itemset``.

    The contributions satisfy efficiency: they sum to ``Δ(itemset)``
    (up to float rounding), because the empty pattern has divergence 0.

    Raises ``ReproError`` when the pattern is not frequent at the
    exploration's support threshold.
    """
    return shapley_batch(result, [itemset])[0]


def shapley_efficiency_gap(
    result: PatternDivergenceResult, itemset: Itemset
) -> float:
    """``|Σ_α Δ(α|I) − Δ(I)|`` — zero up to float error by construction.

    Exposed for tests and for callers that want to assert exactness on
    their own patterns.
    """
    contributions = shapley_contributions(result, itemset)
    total = sum(contributions.values())
    return abs(total - result.divergence_or_zero(result.key_of(itemset)))
