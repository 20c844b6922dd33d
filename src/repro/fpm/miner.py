"""Common mining interface and the frequent-itemset result container.

Every miner maps a :class:`~repro.fpm.transactions.TransactionDataset`
and a minimum support to a :class:`FrequentItemsets` table: for each
frequent itemset (a ``frozenset`` of item ids) it records the vector
``[support_count, channel_1_sum, ..., channel_k_sum]``. The empty
itemset is always present and holds the dataset-wide totals, which is
what divergence is measured against.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

import numpy as np

from repro.exceptions import MiningError
from repro.fpm.transactions import TransactionDataset
from repro.obs import get_registry, span
from repro.resilience import checkpoint

ItemsetKey = frozenset[int]


class FrequentItemsets:
    """Frequent itemsets with their support and channel counts.

    Parameters
    ----------
    counts:
        Mapping from itemset (``frozenset`` of item ids) to the integer
        vector ``[n, ch...]``. Must include the empty itemset.
    n_rows:
        Total number of transactions mined.
    min_support:
        The support threshold used during mining.
    """

    def __init__(
        self,
        counts: Mapping[ItemsetKey, np.ndarray],
        n_rows: int,
        min_support: float,
    ) -> None:
        if frozenset() not in counts:
            raise MiningError("counts must include the empty itemset totals")
        self._counts = dict(counts)
        self.n_rows = int(n_rows)
        self.min_support = float(min_support)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, itemset: ItemsetKey) -> bool:
        return frozenset(itemset) in self._counts

    def __iter__(self) -> Iterator[ItemsetKey]:
        return iter(self._counts)

    def counts(self, itemset: ItemsetKey) -> np.ndarray:
        """The ``[n, ch...]`` vector of ``itemset``.

        Raises ``MiningError`` when the itemset was not frequent.
        """
        try:
            return self._counts[frozenset(itemset)]
        except KeyError:
            raise MiningError(
                f"itemset {set(itemset)} was not mined (below support or invalid)"
            ) from None

    def get(self, itemset: ItemsetKey) -> np.ndarray | None:
        """Like :meth:`counts` but returns ``None`` when absent."""
        return self._counts.get(frozenset(itemset))

    def support_count(self, itemset: ItemsetKey) -> int:
        """Number of transactions covered by ``itemset``."""
        return int(self.counts(itemset)[0])

    def support(self, itemset: ItemsetKey) -> float:
        """Relative support ``sup(I)`` of ``itemset``."""
        if self.n_rows == 0:
            return 0.0
        return self.support_count(itemset) / self.n_rows

    def items(self) -> Iterator[tuple[ItemsetKey, np.ndarray]]:
        """Iterate over ``(itemset, counts)`` pairs."""
        return iter(self._counts.items())

    def count_table(self) -> tuple[list[ItemsetKey], np.ndarray]:
        """All counts as ``(keys, matrix)`` in insertion order.

        ``matrix`` is the ``(N, 1 + k)`` int64 stack of every itemset's
        ``[n, ch...]`` vector, row-aligned with ``keys``. This is the
        columnar entry point for the multi-metric and model-comparison
        engines, which slice per-model/per-metric triples out of one
        shared table instead of walking the dict per consumer.
        """
        keys = list(self._counts)
        if not keys:
            return keys, np.empty((0, 0), dtype=np.int64)
        matrix = np.vstack(
            [np.asarray(vec, dtype=np.int64) for vec in self._counts.values()]
        )
        return keys, matrix

    @property
    def totals(self) -> np.ndarray:
        """Dataset-wide ``[n, ch...]`` vector (the empty itemset)."""
        return self._counts[frozenset()]

    def max_length(self) -> int:
        """Length of the longest frequent itemset."""
        return max((len(k) for k in self._counts), default=0)


class Miner:
    """Abstract frequent-itemset miner.

    Subclasses implement :meth:`mine`; parameter validation is shared
    here so all miners reject bad input identically.
    """

    name = "abstract"

    def mine(
        self,
        dataset: TransactionDataset,
        min_support: float,
        max_length: int | None = None,
    ) -> FrequentItemsets:
        """Return all itemsets with support >= ``min_support``.

        ``max_length`` optionally caps itemset length (used by the
        Slice Finder comparison, which mines up to a fixed *degree*).
        """
        raise NotImplementedError

    @staticmethod
    def _validate(
        dataset: TransactionDataset, min_support: float, max_length: int | None
    ) -> int:
        """Validate common parameters; returns the absolute count threshold."""
        if not 0 < min_support <= 1:
            raise MiningError(f"min_support must be in (0, 1], got {min_support}")
        if max_length is not None and max_length < 0:
            raise MiningError(f"max_length must be >= 0, got {max_length}")
        if dataset.n_rows == 0:
            raise MiningError("cannot mine an empty dataset")
        # An itemset is frequent when count / n_rows >= min_support.
        # Use ceil with a small backoff so exact multiples (0.3 * 10)
        # are not pushed up by float noise, and clamp to >= 1: support
        # is strictly positive, so a zero-coverage itemset is never
        # frequent even when min_support * n_rows rounds down to 0.
        return max(1, int(np.ceil(min_support * dataset.n_rows - 1e-9)))


def mine_frequent(
    dataset: TransactionDataset,
    min_support: float,
    algorithm: str = "bitset",
    max_length: int | None = None,
    n_workers: int | None = None,
) -> FrequentItemsets:
    """Mine frequent itemsets with the chosen backend.

    ``algorithm`` is one of ``"bitset"`` (the default: the level-wise
    packed-bitmap engine, fastest), ``"eclat"`` and ``"apriori"`` (the
    same engine, timed and counted under their own names),
    ``"fpgrowth"`` or ``"bruteforce"`` (the latter only suitable for
    small data; it exists as a correctness oracle). All backends produce
    identical results, also on datasets whose rows carry multiplicities.

    ``n_workers`` routes the run through the row-sharded parallel
    engine (:mod:`repro.fpm.sharded`): ``None`` or ``1`` is serial,
    ``0`` picks a worker count automatically for large datasets, and
    any count >= 2 shards unconditionally. Because every backend — and
    the sharded engine — produces bit-identical results, the requested
    ``algorithm`` only matters for the serial path; sharded runs are
    still validated against it by the test suite.
    """
    from repro.fpm.bitset import AprioriMiner, BitsetMiner, EclatMiner
    from repro.fpm.bruteforce import BruteForceMiner
    from repro.fpm.fpgrowth import FPGrowthMiner

    miners = {
        "bitset": BitsetMiner,
        "fpgrowth": FPGrowthMiner,
        "apriori": AprioriMiner,
        "eclat": EclatMiner,
        "bruteforce": BruteForceMiner,
    }
    try:
        miner_cls = miners[algorithm]
    except KeyError:
        raise MiningError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(miners)}"
        ) from None
    registry = get_registry()
    if n_workers is not None:
        from repro.fpm.sharded import mine_sharded, resolve_workers

        workers = resolve_workers(n_workers, dataset)
        if workers >= 2:
            checkpoint("fpm.mine.sharded")
            with span("fpm.mine.sharded"):
                result = mine_sharded(
                    dataset, min_support, workers, max_length=max_length
                )
            registry.counter("fpm.mine.sharded.runs").inc()
            registry.counter("fpm.mine.sharded.itemsets").inc(len(result))
            registry.gauge("fpm.mine.sharded.workers").set(workers)
            return result
    # Abort before mining starts when the ambient deadline is already
    # spent (e.g. an earlier stage consumed the whole request budget).
    checkpoint(f"fpm.mine.{algorithm}")
    # Every backend is timed and counted through the same funnel, so
    # /api/metrics and --profile attribute mining cost per algorithm.
    with span(f"fpm.mine.{algorithm}"):
        result = miner_cls().mine(dataset, min_support, max_length=max_length)
    registry.counter(f"fpm.mine.{algorithm}.runs").inc()
    registry.counter(f"fpm.mine.{algorithm}.itemsets").inc(len(result))
    return result
