"""Exhaustive frequent-itemset enumerator (test oracle).

Enumerates every attribute subset and every value combination over it,
counting coverage with plain boolean masks. Exponential in the number of
attributes — intended only for validating the real miners on small data
(Theorem 5.1 soundness/completeness tests) and for tiny exploratory
datasets.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from repro.fpm.miner import FrequentItemsets, ItemsetKey, Miner
from repro.fpm.transactions import TransactionDataset
from repro.resilience import checkpoint


class BruteForceMiner(Miner):
    """Enumerate all itemsets; keep those meeting the support threshold."""

    name = "bruteforce"

    def mine(
        self,
        dataset: TransactionDataset,
        min_support: float,
        max_length: int | None = None,
    ) -> FrequentItemsets:
        min_count = self._validate(dataset, min_support, max_length)
        catalog = dataset.catalog
        n_attrs = len(catalog.attributes)
        limit = n_attrs if max_length is None else min(max_length, n_attrs)
        counts: dict[ItemsetKey, np.ndarray] = {frozenset(): dataset.totals()}
        masks = [dataset.item_mask(i) for i in range(catalog.n_items)]
        for size in range(1, limit + 1):
            for attrs in combinations(range(n_attrs), size):
                checkpoint("fpm.bruteforce")
                id_ranges = [
                    range(int(catalog.offsets[j]), int(catalog.offsets[j + 1]))
                    for j in attrs
                ]
                for ids in product(*id_ranges):
                    mask = masks[ids[0]].copy()
                    for item_id in ids[1:]:
                        mask &= masks[item_id]
                    if dataset.support_of_mask(mask) >= min_count:
                        counts[frozenset(ids)] = dataset.counts_for_mask(mask)
        return FrequentItemsets(counts, dataset.n_rows, min_support)
