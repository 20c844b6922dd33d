"""Bitset miner: a level-wise frontier engine over packed bitmaps.

The default backend (``"eclat"`` is an alias of it). Coverage is a
``np.packbits``-packed row bitmap, viewed as uint64 words when numpy
has ``bitwise_count``. The item prefix tree is walked one *frontier* at
a time: the nodes of one level, held as

- ``keys``, the ``(m, depth)`` uint32 item ids of every node's itemset
  (its last column is the node's last item);
- ``cov``, the ``(m, words)`` coverage bitmaps;
- the node's candidate range ``[start, end)`` into the same frontier.

Items are in fixed id order, so a node's siblings (the other children
of its parent) follow it contiguously, and the same-column ones come
first: :func:`candidate_starts` skips past the column's last item id
with one ``searchsorted`` for the whole frontier, and ``end`` is the
sibling group's end. Expanding a frontier is a fixed number of numpy
calls per candidate tile, however many nodes share it: the AND of every
(node, candidate) pair, a popcount and the ``>= min_count`` filter.
Once per block follow the channel sums of the survivors only, through
the bit-sliced kernel (:func:`~repro.fpm.transactions.plane_sums`,
``Σ_c = (popcount(cov & planes) @ weights)[c] + support · vmin[c]``,
exact int64 arithmetic), and the next key matrix from ``keys[parent]``
plus the new item.

Two bounds keep wide bitmaps fast and memory flat:

- *Candidate tiles*: consecutive nodes are ANDed together while their
  candidates fit :data:`~repro.fpm.transactions._PLANE_TILE` words. A
  tile of one node ANDs its contiguous sibling slice by broadcast, with
  no index gather — the wide-bitmap (many-row) case.
- *Frontier blocks*: a frontier is expanded in runs of nodes whose
  candidates fit :data:`~repro.fpm.transactions._FRONTIER_BYTES`, taken
  depth-first from a stack. A run always sees its nodes' whole sibling
  groups, because the frontier's coverage is never split, so only one
  block's children per level are held at a time.
"""

from __future__ import annotations

import numpy as np

from repro.fpm import transactions
from repro.fpm.miner import FrequentItemsets, ItemsetKey, Miner
from repro.fpm.transactions import (
    _HAS_BITWISE_COUNT,
    ItemCatalog,
    TransactionDataset,
    add_offsets,
    plane_sums,
    popcount_rows,
)
from repro.resilience import checkpoint


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


def candidate_starts(
    last: np.ndarray, group_end: np.ndarray, catalog: ItemCatalog
) -> np.ndarray:
    """First candidate of every frontier node, in one ``searchsorted``.

    Node ``j``'s candidates are its later siblings outside its own
    column: ``[start[j], group_end[j])``. Sibling groups are contiguous
    with increasing ends and id-sorted items, so ``(group_end, item)``
    sorts the whole frontier and each node searches past its column's
    last item within its own group.
    """
    stride = catalog.n_items + 1
    order = group_end * stride + last
    limit = catalog.offsets[catalog._item_column[last] + 1]
    return np.searchsorted(order, group_end * stride + limit)


def candidate_pairs(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(parent, candidate)`` frontier indices, node by node."""
    sizes = ends - starts
    parent = np.repeat(np.arange(len(sizes)), sizes)
    first = np.cumsum(sizes) - sizes
    return parent, np.arange(len(parent)) - np.repeat(first - starts, sizes)


def group_ends(parent: np.ndarray) -> np.ndarray:
    """Per child, the end of its sibling group (children of one parent).

    ``parent`` must be sorted, as :func:`candidate_pairs` emits it.
    """
    ends = np.append(np.flatnonzero(np.diff(parent)) + 1, len(parent))
    return np.repeat(ends, np.diff(ends, prepend=0))


class BitsetMiner(Miner):
    """Level-wise vertical miner over packed-bitmap intersections."""

    name = "bitset"

    def mine(
        self,
        dataset: TransactionDataset,
        min_support: float,
        max_length: int | None = None,
    ) -> FrequentItemsets:
        min_count = self._validate(dataset, min_support, max_length)
        n = dataset.n_rows
        catalog = dataset.catalog
        item_bitmaps = _as_words(dataset.packed_item_bitmaps)
        planes, weights, vmin = dataset.channel_planes
        sums_of = plane_sums(_as_words(planes), weights)
        offset = bool(vmin.any())

        def record(keys: np.ndarray, coverage: np.ndarray, supports):
            # [support, channel sums...] per node, keyed by item set.
            sums = sums_of(coverage)
            if offset:
                sums = add_offsets(sums, supports, vmin)
            counts = np.concatenate([supports[:, None], sums], axis=1)
            out.update(zip(map(frozenset, keys.tolist()), counts))

        all_rows = _as_words(np.packbits(np.ones((1, n), dtype=bool), axis=1))
        out: dict[ItemsetKey, np.ndarray] = {}
        record(
            np.empty((1, 0), dtype=np.uint32),
            all_rows,
            np.array([n], dtype=np.int64),
        )
        if max_length == 0:
            return FrequentItemsets(out, n, min_support)

        supports = popcount_rows(item_bitmaps)
        frequent = supports >= min_count
        keys = np.flatnonzero(frequent).astype(np.uint32)[:, None]
        cov = item_bitmaps[frequent]
        record(keys, cov, supports[frequent])

        words = cov.shape[1]
        tile = max(1, transactions._CANDIDATE_TILE // max(1, words))
        node_bytes = max(1, words * cov.itemsize)
        block = max(1, transactions._FRONTIER_BYTES // node_bytes)
        stack: list = []

        def push(keys: np.ndarray, cov: np.ndarray, group_end: np.ndarray):
            # Cut the frontier into runs of at most ``block`` candidates
            # (a node with more runs alone), last run pushed first.
            if max_length is not None and keys.shape[1] >= max_length:
                return
            starts = candidate_starts(keys[:, -1], group_end, catalog)
            total = np.cumsum(group_end - starts)
            if not len(total) or not total[-1]:
                return
            cuts = [0]
            while cuts[-1] < len(total):
                done = total[cuts[-1] - 1] if cuts[-1] else 0
                cut = int(np.searchsorted(total, done + block, side="right"))
                cuts.append(max(cut, cuts[-1] + 1))
            for lo, hi in zip(cuts[-2::-1], cuts[:0:-1]):
                stack.append((keys, cov, starts, group_end, lo, hi))

        push(keys, cov, np.full(len(keys), len(keys)))
        while stack:
            keys, cov, starts, ends, lo, hi = stack.pop()
            parent, cand = candidate_pairs(starts[lo:hi], ends[lo:hi])
            parent += lo
            # Survivors are compacted into ``child`` tile by tile; its
            # untouched tail is never paged in.
            child = np.empty((len(parent), words), dtype=cov.dtype)
            kept = np.empty(len(parent), dtype=bool)
            child_sup = np.empty(len(parent), dtype=np.int64)
            bounds = np.cumsum(ends[lo:hi] - starts[lo:hi])
            filled = first = 0
            while first < len(parent):
                checkpoint("fpm.dfs")
                # Whole nodes up to ``tile`` candidates; a node with more
                # runs alone.
                fit = int(np.searchsorted(bounds, first + tile, side="right"))
                stop = int(bounds[fit - 1]) if fit else 0
                if stop <= first:
                    stop = int(bounds[np.searchsorted(bounds, first, "right")])
                dst = child[filled : filled + stop - first]
                if parent[first] == parent[stop - 1]:
                    # One node: broadcast AND over its contiguous
                    # sibling slice, no gather.
                    np.bitwise_and(
                        cov[parent[first]],
                        cov[cand[first] : cand[stop - 1] + 1],
                        out=dst,
                    )
                else:
                    np.take(cov, parent[first:stop], axis=0, out=dst, mode="clip")
                    dst &= cov[cand[first:stop]]
                sup = popcount_rows(dst)
                keep = sup >= min_count
                kept[first:stop] = keep
                survivors = int(np.count_nonzero(keep))
                if survivors < len(keep):
                    child[filled : filled + survivors] = dst[keep]
                child_sup[filled : filled + survivors] = sup[keep]
                filled += survivors
                first = stop
            if not filled:
                continue
            parent, cand = parent[kept], cand[kept]
            child_keys = np.concatenate(
                [keys[parent], keys[cand, -1:]], axis=1
            )
            record(child_keys, child[:filled], child_sup[:filled])
            push(child_keys, child[:filled], group_ends(parent))
        return FrequentItemsets(out, n, min_support)


class EclatMiner(BitsetMiner):
    """``"eclat"``: the same engine, counted under its own name."""

    name = "eclat"
