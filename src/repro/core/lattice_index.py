"""Columnar lattice index over a frequent-itemset table.

The analytics of Sec. 3.5/4 — global item divergence (Eq. 8),
ε-redundancy pruning, corrective items and Shapley contributions — all
reduce to the same access pattern: for a table row ``K``, visit the rows
of its immediate (k−1)-subsets ``K \\ {α}``. Done naively that is one
``frozenset`` allocation and one dict probe per (row, item) pair, i.e.
O(|F|·k) hash traffic per analysis on tables with hundreds of thousands
of patterns.

:class:`LatticeIndex` pays that cost once, columnar-style: every frequent
itemset becomes a row of packed numpy arrays (CSR item lists, lengths,
precomputed Eq. 8 weights) and the parent relation becomes one int array
``parent_rows`` aligned with the flattened item lists. The item lists
are read straight off the table's canonical key matrix (ids ascending,
zero-padded), and every candidate parent is resolved through batched
calls of the table's own key-to-row lookup — no per-key hashing at all.
Downstream, each analysis is a handful of gathers/scatters over these
arrays (see ``global_divergence``, ``pruning``, ``corrective``,
``shapley``).

The index is immutable, lazily built, and cached on
:class:`~repro.core.result.PatternDivergenceResult` (results never
change, so it is never invalidated).
"""

from __future__ import annotations

from collections.abc import Sequence
from math import factorial

import numpy as np

from repro.fpm.miner import ItemsetKeys, pack_keys
from repro.fpm.transactions import ItemCatalog
from repro.obs import get_registry, span
from repro.resilience import checkpoint


def subset_id_rows(item_ids: Sequence[int]) -> np.ndarray:
    """``(2^n, n)`` rows of every subset of ``item_ids``, in bitmask
    order: entry ``[m, b]`` is ``item_ids[b] + 1`` if bit b of m is set,
    else 0."""
    ids = np.asarray(item_ids, dtype=np.uint32) + 1
    bits = (np.arange(1 << ids.size)[:, None] >> np.arange(ids.size)) & 1
    return np.where(bits.astype(bool), ids[None, :], np.uint32(0))


class LatticeIndex:
    """Packed subset-lattice adjacency of one frequent-itemset table.

    Attributes (all read-only numpy arrays; ``N`` rows, ``nnz`` total
    items across rows, ``L`` the padded key width):

    - ``lengths``: ``(N,)`` itemset length per row.
    - ``items_ptr``: ``(N+1,)`` CSR offsets into the flat item arrays.
    - ``items_flat``: ``(nnz,)`` item ids, ascending within each row.
    - ``row_of_entry``: ``(nnz,)`` owning row of each flat entry.
    - ``parent_rows``: ``(nnz,)`` row index of ``K \\ {α}`` for the flat
      entry ``(K, α)``; ``-1`` when that subset is not in the table.
    - ``weights``: ``(N,)`` Eq. 8 weight ``w(K)`` — the term every
      ``α ∈ K`` contributes to global item divergence is
      ``w(K)·[Δ(K) − Δ(K \\ α)]``. Zero for the empty row.

    ``table`` is a :class:`~repro.fpm.miner.FrequentItemsets` (or any
    :class:`~repro.fpm.miner.ItemsetKeys`) or a sequence of item-id sets.
    """

    def __init__(self, table: ItemsetKeys | Sequence, catalog: ItemCatalog) -> None:
        if not isinstance(table, ItemsetKeys):
            table = ItemsetKeys(pack_keys(table))
        self.table = table
        with span("lattice_index.build") as build_span:
            self._build(catalog)
        build_span.count("rows", self.n_table_rows)

    def _build(self, catalog: ItemCatalog) -> None:
        checkpoint("lattice_index.build")
        keys = self.table.keys
        n = len(keys)
        self.n_table_rows = n
        self.width = keys.shape[1]
        self.lengths = self.table.lengths
        self.items_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=self.items_ptr[1:])
        # Row-major order of the nonzero entries: rows stay contiguous
        # and ids ascend within each row.
        self.items_flat = keys[keys > 0].astype(np.int64) - 1
        self.row_of_entry = np.repeat(np.arange(n, dtype=np.int64), self.lengths)
        self.parent_rows = self._resolve_parents(keys)
        self.weights = self._eq8_weights(catalog)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _resolve_parents(self, keys: np.ndarray) -> np.ndarray:
        """Row index of every immediate subset, one lookup batch per
        deleted key column."""
        parent_rows = np.full(int(self.items_ptr[-1]), -1, dtype=np.int64)
        zero_col = np.zeros((len(keys), 1), dtype=np.uint32)
        for j in range(self.width):
            # One abort check per batch keeps index construction on
            # huge tables deadline-responsive.
            checkpoint("lattice_index.parents")
            rows = np.flatnonzero(self.lengths > j)
            candidate = np.concatenate(
                [keys[rows, :j], keys[rows, j + 1 :], zero_col[rows]], axis=1
            )
            parent_rows[self.items_ptr[rows] + j] = self.rows_of_padded(candidate)
        return parent_rows

    def _eq8_weights(self, catalog: ItemCatalog) -> np.ndarray:
        """``w(K) = (k−1)! (|A|−k)! / (|A|! · Π_{a∈attr(K)} m_a)``.

        Items of one itemset cover distinct attributes, so ``k ≤ |A|``
        always; the empty row gets weight 0 (it has no items to credit).
        """
        n_attrs = len(catalog.attributes)
        fact = [float(factorial(i)) for i in range(n_attrs + 1)]
        n_fact = fact[n_attrs]
        numer = np.zeros(self.width + 1, dtype=np.float64)
        for k in range(1, min(self.width, n_attrs) + 1):
            numer[k] = fact[k - 1] * fact[n_attrs - k]
        # Item ids are grouped by attribute, so the domain size of every
        # item's attribute is one repeat away.
        cards = np.asarray(catalog.cardinalities, dtype=np.int64)
        card_of_item = np.repeat(cards, cards).astype(np.float64)
        # Trailing sentinel so reduceat never reads past the end for a
        # zero-length final segment.
        card_flat = np.concatenate([card_of_item[self.items_flat], [1.0]])
        prod_m = np.multiply.reduceat(card_flat, self.items_ptr[:-1])
        weights = np.zeros(self.n_table_rows, dtype=np.float64)
        valid = (self.lengths > 0) & (self.lengths <= n_attrs)
        weights[valid] = numer[self.lengths[valid]] / (
            n_fact * prod_m[valid]
        )
        return weights

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def _padded(self) -> np.ndarray:
        """The table's canonical ``(N, L)`` key matrix."""
        return self.table.keys

    def rows_of_padded(self, padded: np.ndarray) -> np.ndarray:
        """Table rows of canonical ``(M, L)`` query keys (``-1`` where
        absent), through the table's lookup."""
        registry = get_registry()
        registry.counter("lattice_index.lookups").inc()
        registry.counter("lattice_index.keys_looked_up").inc(len(padded))
        return self.table.rows_of_padded(padded)

    def pad_keys(self, id_rows: np.ndarray) -> np.ndarray:
        """Canonical query rows of ``id + 1`` entries in any order (see
        :meth:`~repro.fpm.miner.ItemsetKeys.pad_keys`)."""
        return self.table.pad_keys(id_rows)

    def subset_rows(self, item_ids: Sequence[int]) -> np.ndarray:
        """Table row of every subset of ``item_ids``, in bitmask order.

        Entry ``m`` is the row of ``{item_ids[b] : bit b set in m}``
        (``-1`` when that subset is not frequent). This is the shared
        resolution step behind batched Shapley and the lattice view:
        one lookup resolves all ``2^n`` subsets.
        """
        return self.rows_of_padded(self.pad_keys(subset_id_rows(item_ids)))

    def __repr__(self) -> str:
        return (
            f"LatticeIndex(rows={self.n_table_rows}, "
            f"nnz={len(self.items_flat)}, width={self.width})"
        )
