"""Common mining interface and the frequent-itemset table.

Every miner maps a :class:`~repro.fpm.transactions.TransactionDataset`
and a minimum support to a :class:`FrequentItemsets` table: for each
frequent itemset it records the vector ``[support_count, channel_1_sum,
..., channel_k_sum]``. The empty itemset is always present and holds the
dataset-wide totals, which is what divergence is measured against.

The table is columnar and keeps no Python object per itemset:

- ``keys``, an ``(N, L)`` uint32 matrix with one itemset per row: item
  id + 1, ascending, zero-padded on the right (``L >= 1``). Each
  itemset has exactly one such row, so rows compare as opaque blobs.
- ``count_matrix``, the row-aligned ``(N, 1 + k)`` int64 counts.

Point lookups go through one key-to-row index (the key rows viewed as
sorted blobs, one batched ``searchsorted``), built on the first lookup.
``frozenset`` keys exist only at the API edge: iteration, :meth:`items`
and :meth:`count_table` make them on demand and keep none.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain

import numpy as np

from repro.exceptions import MiningError
from repro.fpm.transactions import TransactionDataset
from repro.obs import get_registry, span
from repro.resilience import checkpoint

ItemsetKey = frozenset[int]

#: The mining backends :func:`mine_frequent` accepts, default first.
ALGORITHMS = ("bitset", "fpgrowth", "apriori", "eclat", "bruteforce")

# Real key entries are ``id + 1`` in ``[1, _PAD_SENTINEL)``; padding is 0.
# A query row of sentinels never matches a table row.
_PAD_SENTINEL = np.uint32(0xFFFFFFFF)
_MAX_ID = int(_PAD_SENTINEL) - 1
# Key counts up to which packing key by key beats the fixed cost of the
# array path's numpy calls; single-key point lookups are the common case.
_PER_KEY_MAX = 32


def _void_view(padded: np.ndarray) -> np.ndarray:
    """View an ``(M, L) uint32`` row matrix as M opaque fixed-size blobs.

    Void scalars compare bytewise, which gives a total order consistent
    between ``argsort`` and ``searchsorted`` — exactly what exact-match
    row lookup needs.
    """
    a = np.ascontiguousarray(padded, dtype=np.uint32)
    return a.view(np.dtype((np.void, a.shape[1] * a.dtype.itemsize))).ravel()


def pack_keys(itemsets: Iterable[Iterable[int]]) -> np.ndarray:
    """Canonical ``(M, W) uint32`` key rows of item-id collections.

    ``W`` is the longest itemset (at least 1). Ids may come in any order
    and repeat. An itemset holding an id outside ``[0, 2**32 - 2)``
    cannot be in any table; its row is all sentinels. Up to
    :data:`_PER_KEY_MAX` keys are packed one by one; more are flattened
    once, sorted by (row, id), deduplicated and scattered.
    """
    sets = list(itemsets)
    if len(sets) <= _PER_KEY_MAX:
        rows = [sorted(set(s)) for s in sets]
        width = max(1, max(map(len, rows), default=0))
        # Padding -1 becomes 0 after the shift to id + 1.
        padded = [r + [-1] * (width - len(r)) for r in rows]
        keys = np.array(padded, dtype=np.int64).reshape(len(rows), width) + 1
        bad = [i for i, r in enumerate(rows) if r and (r[0] < 0 or r[-1] >= _MAX_ID)]
        keys[bad] = _PAD_SENTINEL
        return keys.astype(np.uint32)
    try:
        lengths = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    except TypeError:  # one-shot iterables
        sets = [tuple(s) for s in sets]
        lengths = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    ids = np.fromiter(
        chain.from_iterable(sets), dtype=np.int64, count=int(lengths.sum())
    )
    rows = np.repeat(np.arange(len(sets)), lengths)
    order = np.lexsort((ids, rows))
    rows, ids = rows[order], ids[order]
    fresh = np.ones(len(ids), dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]) | (ids[1:] != ids[:-1])
    rows, ids = rows[fresh], ids[fresh]
    sizes = np.bincount(rows, minlength=len(sets))
    columns = np.arange(len(ids)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    keys = np.zeros((len(sets), max(1, int(sizes.max(initial=0)))), np.uint32)
    keys[rows, columns] = ids + 1
    keys[rows[(ids < 0) | (ids >= _MAX_ID)]] = _PAD_SENTINEL
    return keys


class ItemsetKeys:
    """The key column of an itemset table and its key-to-row lookup.

    ``keys`` is the canonical ``(N, L)`` uint32 key matrix (see the
    module docstring); ``lengths`` the itemset length per row.
    """

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = keys
        self.lengths = np.count_nonzero(keys, axis=1)
        # (row order, sorted key blobs), built on the first lookup.
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.keys)

    def max_length(self) -> int:
        """Length of the longest itemset."""
        return int(self.lengths.max(initial=0))

    def pad_keys(self, id_rows: np.ndarray) -> np.ndarray:
        """Canonicalize a ``(M, n)`` matrix of ``id + 1`` entries (zeros
        marking gaps, any order) into ``(M, L)`` query rows."""
        # Sorting with zeros mapped to a sentinel pushes the padding to
        # the right while keeping real ids ascending.
        work = np.where(id_rows == 0, _PAD_SENTINEL, id_rows.astype(np.uint32))
        work.sort(axis=1)
        work[work == _PAD_SENTINEL] = 0
        return self._fit(work)

    def _fit(self, rows: np.ndarray) -> np.ndarray:
        """Canonical rows at width ``L``; rows wider than every key in
        the table become sentinel rows, which never match."""
        (m, n), width = rows.shape, self.keys.shape[1]
        if n <= width:
            out = np.zeros((m, width), dtype=np.uint32)
            out[:, :n] = rows
            return out
        out = rows[:, :width].copy()
        out[rows[:, width:].any(axis=1)] = _PAD_SENTINEL
        return out

    def rows_of_padded(self, padded: np.ndarray) -> np.ndarray:
        """Rows of canonical ``(M, L)`` query rows (``-1`` when absent)."""
        if self._sorted is None:
            blobs = _void_view(self.keys)
            order = np.argsort(blobs)
            self._sorted = order, blobs[order]
        order, blobs = self._sorted
        queries = _void_view(padded)
        pos = np.minimum(np.searchsorted(blobs, queries), len(blobs) - 1)
        return np.where(blobs[pos] == queries, order[pos], -1)

    def rows_of(self, itemsets: Iterable[Iterable[int]]) -> np.ndarray:
        """Row of each itemset, ids in any order (``-1`` when absent)."""
        return self.rows_of_padded(self._fit(pack_keys(itemsets)))

    def row_of(self, itemset: Iterable[int]) -> int:
        """Row of one itemset (``-1`` when absent)."""
        return int(self.rows_of([itemset])[0])

    def rows_in(self, other: ItemsetKeys) -> np.ndarray:
        """Row of every row of ``other`` in this table (``-1`` if absent)."""
        if other.keys is self.keys:
            return np.arange(len(self))
        return self.rows_of_padded(self._fit(other.keys))

    def __contains__(self, itemset: Iterable[int]) -> bool:
        return self.row_of(itemset) >= 0

    def keys_at(self, rows) -> Iterator[ItemsetKey]:
        """``frozenset`` keys of ``rows`` (an index array or a slice),
        made one at a time."""
        ids = self.keys[rows].astype(np.int64) - 1
        for row, n in zip(ids.tolist(), self.lengths[rows].tolist()):
            yield frozenset(row[:n])

    def key_at(self, row: int) -> ItemsetKey:
        """``frozenset`` key of one row."""
        return next(self.keys_at([row]))

    def __iter__(self) -> Iterator[ItemsetKey]:
        return self.keys_at(slice(None))


class FrequentItemsets(ItemsetKeys):
    """Frequent itemsets with their support and channel counts.

    Parameters
    ----------
    counts:
        Mapping from itemset (``frozenset`` of item ids) to the integer
        vector ``[n, ch...]``. Must include the empty itemset. Rows keep
        the mapping's order. Miners that hold arrays use
        :meth:`from_arrays` or :meth:`from_levels` instead.
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
        keys = pack_keys(counts)
        if (keys == _PAD_SENTINEL).any():
            raise MiningError("item ids must be in [0, 2**32 - 2)")
        matrix = np.vstack([np.asarray(v, dtype=np.int64) for v in counts.values()])
        self._setup(keys, matrix, n_rows, min_support)

    @classmethod
    def from_arrays(
        cls, keys: np.ndarray, count_matrix: np.ndarray, n_rows: int, min_support: float
    ) -> FrequentItemsets:
        """A table over canonical ``keys`` and row-aligned int64 counts."""
        table = cls.__new__(cls)
        table._setup(keys, count_matrix, n_rows, min_support)
        return table

    @classmethod
    def from_levels(
        cls, levels: list[tuple[np.ndarray, np.ndarray]], n_rows: int, min_support: float
    ) -> FrequentItemsets:
        """Stack ``(ids, counts)`` blocks in order; ``ids`` is an
        ``(m, depth)`` matrix of ascending item ids, as the level-wise
        engines hold their frontiers."""
        width = max(1, *(ids.shape[1] for ids, _ in levels))
        keys = np.concatenate(
            [np.pad(ids + 1, ((0, 0), (0, width - ids.shape[1]))) for ids, _ in levels]
        )
        counts = np.concatenate([c for _, c in levels]).astype(np.int64, copy=False)
        return cls.from_arrays(keys, counts, n_rows, min_support)

    def _setup(self, keys, count_matrix, n_rows, min_support) -> None:
        ItemsetKeys.__init__(self, keys)
        self.count_matrix = count_matrix
        self.n_rows = int(n_rows)
        self.min_support = float(min_support)
        empty = np.flatnonzero(self.lengths == 0)
        if not len(empty):
            raise MiningError("counts must include the empty itemset totals")
        self._empty_row = int(empty[0])

    def with_counts(self, count_matrix: np.ndarray) -> FrequentItemsets:
        """The same keys, and lookup, with other row-aligned counts."""
        table = copy.copy(self)
        table.count_matrix = count_matrix
        return table

    def counts(self, itemset: ItemsetKey) -> np.ndarray:
        """The ``[n, ch...]`` vector of ``itemset``.

        Raises ``MiningError`` when the itemset was not frequent.
        """
        row = self.row_of(itemset)
        if row < 0:
            raise MiningError(
                f"itemset {set(itemset)} was not mined (below support or invalid)"
            )
        return self.count_matrix[row]

    def get(self, itemset: ItemsetKey) -> np.ndarray | None:
        """Like :meth:`counts` but returns ``None`` when absent."""
        row = self.row_of(itemset)
        return None if row < 0 else self.count_matrix[row]

    def support_count(self, itemset: ItemsetKey) -> int:
        """Number of transactions covered by ``itemset``."""
        return int(self.counts(itemset)[0])

    def support(self, itemset: ItemsetKey) -> float:
        """Relative support ``sup(I)`` of ``itemset``."""
        if self.n_rows == 0:
            return 0.0
        return self.support_count(itemset) / self.n_rows

    def items(self) -> Iterator[tuple[ItemsetKey, np.ndarray]]:
        """Iterate over ``(itemset, counts)`` pairs, in row order."""
        return zip(self, self.count_matrix)

    def count_table(self) -> tuple[list[ItemsetKey], np.ndarray]:
        """``(keys, count_matrix)`` with the keys as ``frozenset``s."""
        return list(self), self.count_matrix

    @property
    def totals(self) -> np.ndarray:
        """Dataset-wide ``[n, ch...]`` vector (the empty itemset)."""
        return self.count_matrix[self._empty_row]


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
