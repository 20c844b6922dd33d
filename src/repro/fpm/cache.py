"""Memoization of mining runs, with monotone support reuse.

Frequent-pattern mining is the paper's single tunable cost, and the
downstream analyses re-mine the very same dataset over and over: a
Shapley sweep explores at one support per plot point, the pruning sweep
re-runs `explore` per epsilon, and the app server answers every request
with a fresh exploration. :class:`MiningCache` keys completed runs by
``(dataset fingerprint, algorithm, max_length)`` and serves:

- *exact hits* — same support — at zero cost, and
- *monotone hits* — a cached run at support ``s`` answers any request
  at ``s' >= s`` by filtering its itemsets down to the new threshold
  (soundness/completeness of the miners makes the filtered table
  byte-identical to a fresh run).

Entries are evicted least-recently-used beyond ``max_entries``.

The cache is thread-safe: the app server hands explorers backed by one
cache to ``ThreadingHTTPServer`` worker threads, so lookups, stores,
evictions and stats updates all happen under an internal lock
(mirroring the app-server cache discipline, mining itself runs outside
the lock). Hit/monotone-hit/miss/eviction counters are exposed on
:attr:`MiningCache.stats` and mirrored into the process metrics
registry under ``mining_cache.*`` for the server's ``/api/metrics``
endpoint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.fpm.miner import FrequentItemsets, Miner, mine_frequent
from repro.fpm.transactions import TransactionDataset
from repro.obs import get_registry


@dataclass
class CacheStats:
    """Counters exposed for tests, benchmarks and ``/api/metrics``."""

    hits: int = 0
    monotone_hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "monotone_hits": self.monotone_hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass
class _Entry:
    min_support: float
    max_length: int | None
    result: FrequentItemsets


class MiningCache:
    """LRU cache of :func:`repro.fpm.miner.mine_frequent` runs."""

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        # Guards the entry table and the stats; reentrant because the
        # locked sections share helpers like __len__.
        self._lock = threading.RLock()
        # (fingerprint, algorithm) -> entries, most recently used last.
        self._entries: OrderedDict[tuple[str, str], list[_Entry]] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def _bump(self, stat: str, amount: int = 1) -> None:
        """Increment one stats field and its registry mirror.

        Must be called with :attr:`_lock` held so the dataclass
        increments stay atomic under concurrent serving.
        """
        setattr(self.stats, stat, getattr(self.stats, stat) + amount)
        get_registry().counter(f"mining_cache.{stat}").inc(amount)

    # ------------------------------------------------------------------

    def mine(
        self,
        dataset: TransactionDataset,
        min_support: float,
        algorithm: str = "bitset",
        max_length: int | None = None,
        n_workers: int | None = None,
    ) -> FrequentItemsets:
        """Like :func:`mine_frequent`, but memoized.

        A cached run is reusable when it covers at least the requested
        search space: its support is no higher and its length cap no
        tighter. The served result is filtered down to the requested
        thresholds, so callers cannot observe whether they hit or missed.

        ``n_workers`` only affects how a *miss* is computed: the
        row-sharded engine merges per-shard counts by exact integer
        addition, so serial and sharded runs are bit-identical and the
        cache key deliberately excludes the shard plan — an entry mined
        serially serves a sharded request and vice versa.
        """
        key = (dataset.fingerprint(), algorithm)
        with self._lock:
            bucket = self._entries.get(key)
            if bucket is not None:
                self._entries.move_to_end(key)
                for entry in bucket:
                    if not self._covers(entry, min_support, max_length):
                        continue
                    exact = (
                        entry.min_support == min_support
                        and entry.max_length == max_length
                    )
                    if exact:
                        self._bump("hits")
                        return entry.result
                    self._bump("monotone_hits")
                    cached = entry.result
                    break
                else:
                    cached = None
            else:
                cached = None
            if cached is None:
                self._bump("misses")
        # Mining (and monotone filtering) runs outside the lock so a
        # slow exploration never blocks concurrent cache hits.
        if cached is not None:
            return _filter(cached, dataset, min_support, max_length)
        result = mine_frequent(
            dataset,
            min_support,
            algorithm=algorithm,
            max_length=max_length,
            n_workers=n_workers,
        )
        with self._lock:
            self._store(key, _Entry(min_support, max_length, result))
        return result

    # ------------------------------------------------------------------

    @staticmethod
    def _covers(
        entry: _Entry, min_support: float, max_length: int | None
    ) -> bool:
        if entry.min_support > min_support:
            return False
        if entry.max_length is None:
            return True
        return max_length is not None and max_length <= entry.max_length

    def _store(self, key: tuple[str, str], entry: _Entry) -> None:
        bucket = self._entries.setdefault(key, [])
        # Drop runs the new entry dominates (higher support, tighter or
        # equal length cap) — they can never serve a request this one
        # cannot.
        bucket[:] = [
            e
            for e in bucket
            if not self._covers(entry, e.min_support, e.max_length)
        ]
        bucket.append(entry)
        self._entries.move_to_end(key)
        while len(self) > self.max_entries:
            oldest_key = next(iter(self._entries))
            oldest_bucket = self._entries[oldest_key]
            oldest_bucket.pop(0)
            self._bump("evictions")
            if not oldest_bucket:
                del self._entries[oldest_key]


def _filter(
    cached: FrequentItemsets,
    dataset: TransactionDataset,
    min_support: float,
    max_length: int | None,
) -> FrequentItemsets:
    """Project a cached run onto a smaller (support, length) space: one
    mask over the support column and the key lengths."""
    min_count = Miner._validate(dataset, min_support, max_length)
    lengths = cached.lengths
    keep = cached.count_matrix[:, 0] >= min_count
    if max_length is not None:
        keep &= lengths <= max_length
    keep |= lengths == 0
    width = max(1, int(lengths[keep].max()))
    return FrequentItemsets.from_arrays(
        cached.keys[keep, :width], cached.count_matrix[keep], cached.n_rows, min_support
    )
