"""Result of a divergence exploration: the ranked pattern table.

:class:`PatternDivergenceResult` wraps the frequent-itemset counts
produced by Algorithm 1 and exposes every analysis of the paper —
ranked divergent patterns with significance, Shapley contributions,
global/individual item divergence, corrective items, redundancy pruning
and lattice construction — as methods. Itemsets cross the API boundary
as readable :class:`~repro.core.items.Itemset` objects; internally a
pattern is a row of the mined :class:`~repro.fpm.miner.FrequentItemsets`
table, and a point lookup by item-id set goes through that table's
key-to-row index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.items import Item, Itemset
from repro.core.outcomes import positive_rate
from repro.core.significance import divergence_t_statistics
from repro.exceptions import ReproError
from repro.fpm.miner import FrequentItemsets
from repro.fpm.transactions import ItemCatalog


@dataclass(frozen=True)
class PatternRecord:
    """One row of the divergence table: an itemset with its statistics.

    ``t_statistic`` is the Welch magnitude ``|t|`` the paper's tables
    report; ``t_signed`` keeps the direction (same sign as the rate
    difference of the posteriors) so serializations can distinguish
    positive from negative divergence.
    """

    itemset: Itemset
    support: float
    support_count: int
    t_count: int
    f_count: int
    rate: float
    divergence: float
    t_statistic: float
    t_signed: float = float("nan")

    @property
    def length(self) -> int:
        """Number of items in the pattern."""
        return len(self.itemset)


# Per-record values of the ``top_k`` ranking statistics; the final
# string tie-break sorts records with these.
_RECORD_KEYS = {
    "divergence": lambda r: r.divergence,
    "abs_divergence": lambda r: abs(r.divergence),
    "support": lambda r: r.support,
    "t_statistic": lambda r: r.t_statistic,
    "rate": lambda r: r.rate,
}


class PatternDivergenceResult:
    """All frequent itemsets with divergence for one outcome metric.

    Not constructed directly — obtained from
    :meth:`repro.core.divergence.DivergenceExplorer.explore`.
    """

    def __init__(
        self,
        frequent: FrequentItemsets,
        catalog: ItemCatalog,
        metric: str,
        min_support: float,
    ) -> None:
        self.frequent = frequent
        self.catalog = catalog
        self.metric = metric
        self.min_support = min_support
        totals = frequent.totals
        self.n_rows = int(totals[0])
        self.t_total = int(totals[1])
        self.f_total = int(totals[2])
        self.global_rate = positive_rate(self.t_total, self.f_total)
        # The (N, 3) [n, T, F] columns of the table, in row order; every
        # per-pattern statistic is a single vectorized expression over
        # them.
        self._count_matrix = frequent.count_matrix[:, :3]
        self._records: list[PatternRecord] | None = None
        self._records_nonempty: list[PatternRecord] | None = None
        # Columnar caches for the vectorized analytics: the structural
        # lattice index and the per-row divergence vector.
        self._lattice_index = None
        self._t_stats: np.ndarray | None = None
        self._t_stats_signed: np.ndarray | None = None
        self._derive_statistics()

    def _derive_statistics(self) -> None:
        """Derive the columnar rate/divergence table from the counts.

        Subclasses for other outcome families (e.g. the rank-divergence
        table, whose channels are fixed-point moment sums rather than
        Boolean outcome counts) override this single hook; the count
        matrix, the key table and every downstream lattice analysis stay
        shared.
        """
        t_col = self._count_matrix[:, 1].astype(np.float64)
        f_col = self._count_matrix[:, 2].astype(np.float64)
        denom = t_col + f_col
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(denom > 0, t_col / denom, np.nan)
        self._rates = rates
        self._div_vector = rates - self.global_rate

    @property
    def _keys(self) -> list[frozenset[int]]:
        """Every row's key as a ``frozenset``, made per call."""
        return list(self.frequent)

    @property
    def _divergence(self) -> dict[frozenset[int], float]:
        """:attr:`divergence_map`. Assigning a key -> divergence map
        replaces the divergence of every row (NaN where it has none)."""
        return self.divergence_map

    @_divergence.setter
    def _divergence(self, mapping: dict[frozenset[int], float]) -> None:
        rows = self.frequent.rows_of(mapping)
        values = np.fromiter(mapping.values(), np.float64, len(mapping))
        self._div_vector = np.full(len(self), np.nan)
        self._div_vector[rows[rows >= 0]] = values[rows >= 0]

    # ------------------------------------------------------------------
    # itemset translation
    # ------------------------------------------------------------------

    def key_of(self, itemset: Itemset) -> frozenset[int]:
        """Encode a readable itemset to internal item ids."""
        return frozenset(
            self.catalog.item_id(it.attribute, it.value) for it in itemset
        )

    def itemset_of(self, key: Iterable[int]) -> Itemset:
        """Decode internal item ids to a readable itemset."""
        return Itemset(map(self.catalog.item, key))

    def item_of(self, item_id: int) -> Item:
        """Decode one item id."""
        return self.catalog.item(item_id)

    # ------------------------------------------------------------------
    # per-pattern statistics
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.frequent)

    def __contains__(self, itemset: Itemset) -> bool:
        return self.key_of(itemset) in self.frequent

    def record_for_key(self, key: frozenset[int]) -> PatternRecord:
        """Build the full statistics record of one internal key."""
        row = self.row_of_key(key)
        if row < 0:
            self.frequent.counts(key)  # raises the canonical lookup error
        return self._records_at(np.array([row]))[0]

    def record(self, itemset: Itemset) -> PatternRecord:
        """Statistics of one pattern (raises if not frequent)."""
        return self.record_for_key(self.key_of(itemset))

    def divergence_of(self, itemset: Itemset) -> float:
        """``Δ_f(I)`` of a frequent pattern."""
        return self.divergence_of_key(self.key_of(itemset))

    def divergence_of_key(self, key: frozenset[int]) -> float:
        """``Δ_f`` by internal key."""
        row = self.row_of_key(key)
        if row < 0:
            raise ReproError(
                f"pattern {set(key)} is not frequent at support {self.min_support}"
            )
        return float(self.divergence_vector()[row])

    def divergence_or_zero(self, key: frozenset[int]) -> float:
        """``Δ_f`` treating undefined (all-BOTTOM) rates as no divergence.

        Used by the Shapley-style aggregations, where a NaN from an
        all-BOTTOM subset would otherwise poison every sum it enters.
        """
        row = self.row_of_key(key)
        if row < 0:
            return 0.0
        value = float(self.divergence_vector()[row])
        return 0.0 if math.isnan(value) else value

    @property
    def divergence_map(self) -> dict[frozenset[int], float]:
        """Key -> divergence for all frequent itemsets, built per call."""
        return dict(zip(self.frequent, self.divergence_vector().tolist()))

    # ------------------------------------------------------------------
    # columnar access (the vectorized analytics engine)
    # ------------------------------------------------------------------

    def lattice_index(self) -> "LatticeIndex":
        """The columnar lattice index of this table (built once, cached).

        Results are immutable, so the index is never invalidated; every
        vectorized analysis — global divergence, pruning, corrective
        search, batched Shapley — shares this one structure.
        """
        if self._lattice_index is None:
            from repro.core.lattice_index import LatticeIndex

            self._lattice_index = LatticeIndex(self.frequent, self.catalog)
        return self._lattice_index

    def divergence_vector(self, zero_nan: bool = False) -> np.ndarray:
        """``Δ_f`` per table row, aligned with :meth:`lattice_index` rows.

        With ``zero_nan`` undefined (all-BOTTOM) divergences become 0,
        mirroring :meth:`divergence_or_zero`.
        """
        if zero_nan:
            return np.nan_to_num(self._div_vector, nan=0.0)
        return self._div_vector

    def row_of_key(self, key: frozenset[int]) -> int:
        """Table row index of an internal key (``-1`` when not frequent)."""
        return self.frequent.row_of(key)

    # ------------------------------------------------------------------
    # the ranked pattern table
    # ------------------------------------------------------------------

    def t_statistics_vector(self, signed: bool = False) -> np.ndarray:
        """Welch t-statistic per table row (computed once, cached).

        The default is the magnitude ``|t|`` the paper's tables report;
        ``signed=True`` returns the direction-preserving statistics.
        Both views share one underlying computation.
        """
        if self._t_stats_signed is None:
            counts = self._count_matrix
            self._t_stats_signed = divergence_t_statistics(
                counts[:, 1],
                counts[:, 2],
                self.t_total,
                self.f_total,
                signed=True,
            )
            self._t_stats = np.abs(self._t_stats_signed)
        return self._t_stats_signed if signed else self._t_stats

    def _records_at(self, rows: np.ndarray) -> list[PatternRecord]:
        """Records of table ``rows``, read off the columnar statistics.

        Subclasses for other outcome families override this one hook.
        """
        counts = self._count_matrix
        t_stats = self.t_statistics_vector()
        t_signed = self.t_statistics_vector(signed=True)
        return [
            PatternRecord(
                itemset=self.itemset_of(key),
                support=counts[row, 0] / self.n_rows,
                support_count=int(counts[row, 0]),
                t_count=int(counts[row, 1]),
                f_count=int(counts[row, 2]),
                rate=self._rates[row],
                divergence=self._rates[row] - self.global_rate,
                t_statistic=t_stats[row],
                t_signed=t_signed[row],
            )
            for row, key in zip(rows.tolist(), self.frequent.keys_at(rows))
        ]

    def records_for_rows(self, rows: Iterable[int]) -> list[PatternRecord]:
        """Records of specific table rows, reusing the full cache when
        it exists and materializing only the requested rows otherwise."""
        if self._records is not None:
            return [self._records[row] for row in rows]
        return self._records_at(np.fromiter(rows, dtype=np.int64))

    def records(self, include_empty: bool = False) -> list[PatternRecord]:
        """All frequent patterns as records (cached).

        Both views (with and without the empty pattern) are materialized
        once. The ranked views (``top_k``, ``significant``) never call
        this: they build records only for the rows they return.
        """
        if self._records is None:
            self._records = self._records_at(np.arange(len(self)))
            self._records_nonempty = [
                r for r in self._records if len(r.itemset) > 0
            ]
        if include_empty:
            return list(self._records)
        return list(self._records_nonempty)

    def length_vector(self) -> np.ndarray:
        """Itemset length per table row (computed once, cached)."""
        return self.frequent.lengths

    def statistic_vector(self, by: str) -> np.ndarray:
        """Per-row values of a ranking statistic (a ``top_k`` ``by`` key).

        These are the values the records carry: ``divergence`` is the
        rate minus the global rate, as in :meth:`records`.
        """
        if by == "divergence":
            return self._rates - self.global_rate
        if by == "abs_divergence":
            return np.abs(self._rates - self.global_rate)
        if by == "support":
            return self._count_matrix[:, 0] / self.n_rows
        if by == "t_statistic":
            return self.t_statistics_vector()
        if by == "rate":
            return self._rates
        raise ReproError(f"unknown ranking key {by!r}")

    def top_k(
        self,
        k: int = 10,
        by: str = "divergence",
        ascending: bool = False,
        min_support: float | None = None,
        max_length: int | None = None,
    ) -> list[PatternRecord]:
        """Top-k patterns ranked by a statistic.

        ``by`` is one of ``divergence``, ``abs_divergence``, ``support``,
        ``t_statistic``, ``rate``. NaN-valued rows are excluded. Ties are
        broken by support (higher first), then pattern length (shorter
        first), then lexicographically, so the ranking is identical
        whichever mining backend produced the result.

        The rows are selected on the columns: filters are masks, and one
        ``lexsort`` orders the survivors on (value, support, length).
        Records are built only for the first ``k`` rows plus any rows
        tied with the k-th on all three keys; the string tie-break then
        settles those exactly as a sort over the whole table would.
        """
        value = self.statistic_vector(by)
        if k < 0:
            raise ReproError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        supports = self.statistic_vector("support")
        lengths = self.length_vector()
        keep = (lengths > 0) & ~np.isnan(value)
        if min_support is not None:
            keep &= supports >= min_support
        if max_length is not None:
            keep &= lengths <= max_length
        rows = np.flatnonzero(keep)
        sign = 1.0 if ascending else -1.0
        keys = (lengths[rows], -supports[rows], sign * value[rows])
        order = np.lexsort(keys)
        if k < len(order):
            # Rows tied with the k-th on every numeric key sit right
            # after it; keep them for the string tie-break.
            last = order[k - 1]
            tail = order[k - 1 :]
            tied = np.ones(len(tail), dtype=bool)
            for column in keys:
                tied &= column[tail] == column[last]
            order = order[: k - 1 + int(np.count_nonzero(tied))]
        records = self.records_for_rows(rows[order].tolist())
        key_fn = _RECORD_KEYS[by]
        records.sort(
            key=lambda r: (
                sign * key_fn(r),
                -r.support,
                r.length,
                str(r.itemset),
            )
        )
        return records[:k]

    def journal_rows(
        self,
    ) -> list[tuple[frozenset[int], str, float, float, float]]:
        """``(key, itemset text, Δ, support, signed t)`` per non-empty row.

        The row format of :meth:`repro.store.PatternStore.record_window`,
        read from the columns without building records.
        """
        rows = np.flatnonzero(self.length_vector() > 0)
        keys = self.frequent.keys_at(rows)
        return [
            (key, str(self.itemset_of(key)), divergence, support, t_signed)
            for key, divergence, support, t_signed in zip(
                keys,
                self.statistic_vector("divergence")[rows].tolist(),
                self.statistic_vector("support")[rows].tolist(),
                self.t_statistics_vector(signed=True)[rows].tolist(),
            )
        ]

    # ------------------------------------------------------------------
    # analyses (delegating to the dedicated modules)
    # ------------------------------------------------------------------

    def shapley(self, itemset: Itemset) -> dict[Item, float]:
        """Local item contributions to the pattern's divergence (Def. 4.1)."""
        from repro.core.shapley import shapley_contributions

        return shapley_contributions(self, itemset)

    def shapley_batch(
        self, itemsets: Sequence[Itemset]
    ) -> list[dict[Item, float]]:
        """Exact Shapley contributions of many patterns in one batch."""
        from repro.core.shapley import shapley_batch

        return shapley_batch(self, itemsets)

    def global_item_divergence(self) -> dict[Item, float]:
        """Global divergence of every frequent item (Def. 4.3, Eq. 8)."""
        from repro.core.global_divergence import global_item_divergence

        return global_item_divergence(self)

    def individual_item_divergence(self) -> dict[Item, float]:
        """Plain ``Δ(α)`` of every frequent single item."""
        from repro.core.global_divergence import individual_item_divergence

        return individual_item_divergence(self)

    def corrective_items(self, k: int = 10) -> list["CorrectiveItem"]:
        """Top corrective items by corrective factor (Def. 4.2)."""
        from repro.core.corrective import find_corrective_items

        return find_corrective_items(self, k=k)

    def pruned(self, epsilon: float) -> list[PatternRecord]:
        """ε-redundancy-pruned pattern table (Sec. 3.5)."""
        from repro.core.pruning import prune_redundant

        return prune_redundant(self, epsilon)

    def lattice(self, itemset: Itemset) -> "DivergenceLattice":
        """Subset lattice of a pattern for visual exploration (Sec. 6.4)."""
        from repro.core.lattice import DivergenceLattice

        return DivergenceLattice(self, itemset)

    def significant(self, alpha: float = 0.05, k: int | None = None
                    ) -> list[PatternRecord]:
        """Patterns surviving Benjamini-Hochberg FDR control at ``alpha``."""
        from repro.core.ranking import significant_patterns

        return significant_patterns(self, alpha=alpha, k=k)

    # ------------------------------------------------------------------

    def frequent_items(self) -> list[Item]:
        """All single items that are frequent, in catalog order."""
        singles = self.frequent.keys[self.length_vector() == 1, 0]
        return [self.item_of(int(i) - 1) for i in np.sort(singles)]

    def __repr__(self) -> str:
        return (
            f"PatternDivergenceResult(metric={self.metric!r}, "
            f"patterns={len(self)}, min_support={self.min_support}, "
            f"global_rate={self.global_rate:.4f})"
        )


def records_as_rows(
    records: Sequence[PatternRecord], divergence_label: str = "div"
) -> list[dict[str, object]]:
    """Flatten records into printable row dicts (used by the benches)."""
    return [
        {
            "itemset": str(r.itemset),
            "sup": round(r.support, 3),
            divergence_label: round(r.divergence, 3),
            "t": round(r.t_statistic, 1),
        }
        for r in records
    ]
