"""Bitset-vertical miner: packed coverage bitmaps and popcount tallies.

The fourth (and default) backend. Like ECLAT it searches the item
prefix tree depth-first in vertical format, but coverage is a
``np.packbits``-packed bitmap instead of a tidset. A node carries only
its coverage: one broadcast AND against the whole sibling block and one
popcount give every candidate's support, and survivors' channel sums
come from the bit-sliced kernel
(:func:`~repro.fpm.transactions.plane_sums`) over the dataset's
:attr:`~repro.fpm.transactions.TransactionDataset.channel_planes`,
``Σ_c = (popcount(cov & planes) @ weights)[c] + support · vmin[c]`` —
exact int64 arithmetic, one plane per one-hot channel, ``P`` planes for
the fixed-point channels of the continuous and ranking extensions.
"""

from __future__ import annotations

import numpy as np

from repro.fpm.miner import FrequentItemsets, ItemsetKey, Miner
from repro.fpm.transactions import (
    _HAS_BITWISE_COUNT,
    TransactionDataset,
    add_offsets,
    plane_sums,
    popcount_rows,
)
from repro.fpm.vertical import depth_first_mine


def _as_words(packed: np.ndarray) -> np.ndarray:
    """Reinterpret a packed uint8 bitmap as uint64 words when possible.

    Zero-pads the last axis to a multiple of 8 bytes (padding cannot
    change AND/popcount results) so every bitwise op and popcount runs
    over 8x fewer elements. Without a hardware popcount ufunc the byte
    lookup table needs uint8 input, so the array is returned unchanged.
    """
    if not _HAS_BITWISE_COUNT:
        return packed
    pad = (-packed.shape[-1]) % 8
    if pad:
        widths = [(0, 0)] * (packed.ndim - 1) + [(0, pad)]
        packed = np.pad(packed, widths)
    return np.ascontiguousarray(packed).view(np.uint64)


class BitsetMiner(Miner):
    """Depth-first vertical miner over packed-bitmap intersections."""

    name = "bitset"

    def mine(
        self,
        dataset: TransactionDataset,
        min_support: float,
        max_length: int | None = None,
    ) -> FrequentItemsets:
        min_count = self._validate(dataset, min_support, max_length)
        n = dataset.n_rows
        item_bitmaps = _as_words(dataset.packed_item_bitmaps)
        planes, weights, vmin = dataset.channel_planes
        sums_of = plane_sums(_as_words(planes), weights)
        offset = bool(vmin.any())

        def counts_of(coverage: np.ndarray, supports: np.ndarray):
            # [support, channel sums...] per coverage bitmap.
            sums = sums_of(coverage)
            if offset:
                sums = add_offsets(sums, supports, vmin)
            return np.concatenate([supports[:, None], sums], axis=1)

        all_rows = _as_words(np.packbits(np.ones((1, n), dtype=bool), axis=1))
        out: dict[ItemsetKey, np.ndarray] = {
            frozenset(): counts_of(all_rows, np.array([n], dtype=np.int64))[0]
        }
        if max_length == 0:
            return FrequentItemsets(out, n, min_support)

        supports = popcount_rows(item_bitmaps)
        frequent = supports >= min_count
        root_items = np.flatnonzero(frequent)
        roots = item_bitmaps[frequent]
        for item_id, counts in zip(
            root_items.tolist(), counts_of(roots, supports[frequent])
        ):
            out[frozenset((item_id,))] = counts

        item_columns = dataset.catalog._item_column

        def expand(prefix_cov, last_col, sib_items, sib_covs):
            keep = item_columns[sib_items] != last_col
            sib_items, sib_covs = sib_items[keep], sib_covs[keep]
            if len(sib_items) == 0:
                return sib_items, sib_covs, sib_covs
            # Support filter on every candidate, channel sums for
            # survivors only: per-node traffic is independent of the
            # channel count, which keeps N-model mining cheap.
            coverage = prefix_cov[None, :] & sib_covs
            supports = popcount_rows(coverage)
            keep = supports >= min_count
            if not keep.any():
                return sib_items[:0], sib_covs[:0], sib_covs[:0]
            kept = coverage[keep]
            return sib_items[keep], kept, counts_of(kept, supports[keep])

        depth_first_mine(
            out, root_items, roots, expand, dataset.catalog.column_of, max_length
        )
        return FrequentItemsets(out, n, min_support)
