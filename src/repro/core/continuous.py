"""Generalized divergence for real-valued outcome functions.

The paper restricts Algorithm 1 to Boolean outcome functions, noting
that the Boolean form is what allows treating classifiers as black
boxes and mining efficiently; extending divergence "to other data
science tasks" is listed as future work (Sec. 7). This module provides
that extension for real-valued per-instance scores (e.g. a regression
residual, a model loss, a probability): the statistic is the *mean*
score, and divergence is the difference between a subgroup's mean and
the global mean.

The same augmented-mining machinery applies — the miners accumulate
arbitrary channel sums, so we carry (Σ score, Σ score²) per itemset and
recover mean, variance and a Welch t-statistic for every frequent
subgroup in a single pass. Scores are carried through the int64
accumulators with the shared overflow-checked encoder
(:mod:`repro.core.fixedpoint`). All downstream analyses that only
consume a divergence table (local Shapley contributions, global
divergence, corrective items, pruning, lattices) work unchanged on the
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.fixedpoint import SCALE as _SCALE
from repro.core.fixedpoint import encode_weight_channels
from repro.core.items import Itemset
from repro.exceptions import ReproError, SchemaError
from repro.fpm.cache import MiningCache
from repro.fpm.miner import FrequentItemsets, mine_frequent
from repro.fpm.transactions import ItemCatalog, ItemLayer, TransactionDataset
from repro.resilience import CancelToken, Deadline, cancel_scope, checkpoint
from repro.tabular.table import Table


@dataclass(frozen=True)
class ContinuousPatternRecord:
    """One subgroup with its mean-score statistics."""

    itemset: Itemset
    support: float
    support_count: int
    mean: float
    variance: float
    divergence: float
    t_statistic: float

    @property
    def length(self) -> int:
        """Number of items in the pattern."""
        return len(self.itemset)


class ContinuousDivergenceExplorer:
    """Divergence of a real-valued score over all frequent subgroups.

    Parameters
    ----------
    table:
        Discretized dataset (analysis attributes categorical).
    scores:
        Per-instance real scores (length ``table.n_rows``).
    attributes:
        Analysis attributes; defaults to all categorical columns.
    mining_cache:
        Cache for completed mining runs; a fresh private
        :class:`~repro.fpm.cache.MiningCache` by default. Pass a shared
        instance to pool cached runs across explorers of the same data.
    n_workers:
        Default worker count for mining runs: ``None``/``1`` serial,
        ``0`` auto, ``>= 2`` row-sharded (:mod:`repro.fpm.sharded`).
        Sharded results are bit-identical to serial ones. Overridable
        per :meth:`explore` call.
    """

    def __init__(
        self,
        table: Table,
        scores: np.ndarray,
        attributes: Sequence[str] | None = None,
        mining_cache: MiningCache | None = None,
        n_workers: int | None = None,
    ) -> None:
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (table.n_rows,):
            raise ReproError(
                f"scores must have length {table.n_rows}, got {scores.shape}"
            )
        if not np.isfinite(scores).all():
            raise ReproError("scores must be finite")
        self.table = table
        self.scores = scores
        self.n_workers = n_workers
        self.mining_cache = (
            mining_cache if mining_cache is not None else MiningCache()
        )
        if attributes is None:
            attributes = table.categorical_names
        attributes = list(attributes)
        if not attributes:
            raise SchemaError("no analysis attributes available")
        bad = [n for n in attributes if not table.column(n).is_categorical]
        if bad:
            raise SchemaError(
                f"attributes must be categorical (discretize first): {bad}"
            )
        self.attributes = attributes
        self.catalog = ItemCatalog(
            attributes, [table.categorical(n).categories for n in attributes]
        )
        self._matrix = table.encoded_matrix(attributes)
        # Built lazily and reused across explore() calls so the packed
        # bitmaps and the mining-cache fingerprint stay warm.
        self._dataset: TransactionDataset | None = None

    def explore(
        self,
        min_support: float = 0.1,
        algorithm: str = "bitset",
        max_length: int | None = None,
        use_cache: bool = True,
        deadline: Deadline | float | None = None,
        cancel_token: CancelToken | None = None,
        n_workers: int | None = None,
    ) -> "ContinuousDivergenceResult":
        """Mine all frequent subgroups and their mean-score divergence.

        Accepts the same plumbing as
        :meth:`repro.core.divergence.DivergenceExplorer.explore`:
        repeated configurations are served from :attr:`mining_cache`
        (monotone support reuse included), ``n_workers`` routes the run
        through the row-sharded engine, and ``deadline`` /
        ``cancel_token`` abort cooperatively mid-mine.
        """
        workers = n_workers if n_workers is not None else self.n_workers
        with cancel_scope(deadline=deadline, token=cancel_token):
            checkpoint("explore")
            dataset = self._dataset_for()
            if use_cache:
                frequent = self.mining_cache.mine(
                    dataset,
                    min_support,
                    algorithm=algorithm,
                    max_length=max_length,
                    n_workers=workers,
                )
            else:
                frequent = mine_frequent(
                    dataset,
                    min_support,
                    algorithm=algorithm,
                    max_length=max_length,
                    n_workers=workers,
                )
            checkpoint("explore.result")
            return ContinuousDivergenceResult(
                frequent, self.catalog, min_support
            )

    def _dataset_for(self) -> TransactionDataset:
        """The transaction dataset with fixed-point score channels."""
        if self._dataset is None:
            channels = encode_weight_channels(self.scores)
            layer = ItemLayer(self._matrix, self.catalog, group=True)
            self._dataset = layer.dataset(channels)
        return self._dataset


class ContinuousDivergenceResult:
    """Mean-score divergence of all frequent subgroups."""

    def __init__(
        self,
        frequent: FrequentItemsets,
        catalog: ItemCatalog,
        min_support: float,
    ) -> None:
        self.frequent = frequent
        self.catalog = catalog
        self.min_support = min_support
        totals = frequent.totals
        self.n_rows = int(totals[0])
        self.global_mean = totals[1] / _SCALE / self.n_rows
        self._global_var = max(
            totals[2] / _SCALE / self.n_rows - self.global_mean**2, 0.0
        )

    # ------------------------------------------------------------------

    def key_of(self, itemset: Itemset) -> frozenset[int]:
        """Encode a readable itemset to internal ids."""
        return frozenset(
            self.catalog.item_id(it.attribute, it.value) for it in itemset
        )

    def record_for_key(self, key: frozenset[int]) -> ContinuousPatternRecord:
        """Full statistics of one frequent subgroup."""
        return self._record(key, self.frequent.counts(key))

    def _record(
        self, key: frozenset[int], counts: np.ndarray
    ) -> ContinuousPatternRecord:
        n = int(counts[0])
        mean = counts[1] / _SCALE / n
        variance = max(counts[2] / _SCALE / n - mean**2, 0.0)
        se = math.sqrt(variance / n + self._global_var / self.n_rows)
        divergence = mean - self.global_mean
        return ContinuousPatternRecord(
            itemset=Itemset.from_pairs(self.catalog.decode(i) for i in key),
            support=n / self.n_rows,
            support_count=n,
            mean=mean,
            variance=variance,
            divergence=divergence,
            t_statistic=abs(divergence) / se if se > 0 else 0.0,
        )

    def record(self, itemset: Itemset) -> ContinuousPatternRecord:
        """Statistics of one pattern (raises if not frequent)."""
        return self.record_for_key(self.key_of(itemset))

    def divergence_of(self, itemset: Itemset) -> float:
        """Mean-score divergence of a frequent pattern."""
        return self.record(itemset).divergence

    def top_k(self, k: int = 10, ascending: bool = False
              ) -> list[ContinuousPatternRecord]:
        """Top-k subgroups by (signed) divergence."""
        records = [
            self._record(key, counts)
            for key, counts in self.frequent.items()
            if len(key) > 0
        ]
        records.sort(key=lambda r: r.divergence, reverse=not ascending)
        return records[:k]

    def __len__(self) -> int:
        return len(self.frequent)

    def __repr__(self) -> str:
        return (
            f"ContinuousDivergenceResult(patterns={len(self)}, "
            f"global_mean={self.global_mean:.4f})"
        )
