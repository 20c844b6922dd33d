"""Bitset miner: a level-wise frontier engine over packed bitmaps.

The default backend (``"eclat"`` and ``"apriori"`` are aliases of it).
Coverage is a ``np.packbits``-packed row bitmap, viewed as uint64 words
when numpy has ``bitwise_count``. The item prefix tree is walked one
*frontier* at a time: the nodes of one level, held as

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
(node, candidate) pair, the support and the ``>= min_count`` filter.
The support is a popcount or, on a dataset whose rows carry
multiplicities, the multiplicity sum of the covered rows
(:func:`support_kernel`). Once per block follow the channel sums of the
survivors only, through the bit-sliced kernel
(:func:`~repro.fpm.transactions.plane_sums`,
``Σ_c = (popcount(cov & planes) @ weights)[c] + support · vmin[c]``,
exact int64 arithmetic; :func:`~repro.fpm.transactions.channel_vectors`
restores the last channel of a row partition from the support), and the
next key matrix from ``keys[parent]`` plus the new item.

Two bounds keep wide bitmaps fast and memory flat:

- *Candidate tiles* (:func:`pair_tiles`, :func:`and_pairs`, which the
  sharded workers run too): consecutive nodes are ANDed together while
  their candidates fit :data:`~repro.fpm.transactions._CANDIDATE_TILE`
  words. A tile of one node ANDs its contiguous sibling slice by
  broadcast, with no index gather — the wide-bitmap (many-row) case.
- *Frontier blocks*: a frontier is expanded in runs of nodes whose
  candidates fit :data:`~repro.fpm.transactions._FRONTIER_BYTES`, taken
  depth-first from a stack. A run always sees its nodes' whole sibling
  groups, because the frontier's coverage is never split, so only one
  block's children per level are held at a time.
"""

from __future__ import annotations

import numpy as np

from repro.fpm import transactions
from repro.fpm.miner import FrequentItemsets, Miner
from repro.fpm.transactions import (
    _HAS_BITWISE_COUNT,
    ItemCatalog,
    TransactionDataset,
    channel_vectors,
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


def weighted_supports(planes: np.ndarray, weights: np.ndarray, vmin: np.ndarray):
    """``coverage -> multiplicity sums`` over the multiplicity ``planes``.

    ``(planes, weights, vmin)`` are :func:`~repro.fpm.transactions.
    bit_planes` of the multiplicity column, as words like the coverage.
    """
    sums = plane_sums(planes, weights)
    base = np.int64(vmin[0])

    def supports(coverage: np.ndarray) -> np.ndarray:
        return sums(coverage)[:, 0] + popcount_rows(coverage) * base

    return supports


def support_kernel(dataset: TransactionDataset):
    """``coverage -> supports`` of ``dataset``'s stored rows.

    A popcount, or the multiplicity sum of the covered rows when the
    rows carry multiplicities.
    """
    if dataset.multiplicity is None:
        return popcount_rows
    planes, weights, vmin = dataset.layer.multiplicity_planes
    return weighted_supports(_as_words(planes), weights, vmin)


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


def pair_tiles(bounds: np.ndarray, tile: int):
    """``(first, stop)`` ranges of a run of (node, candidate) pairs.

    ``bounds`` holds each node's end in the run (cumulative pair
    counts). A tile is whole nodes up to ``tile`` pairs; a node with
    more runs alone, so it is one broadcast AND (:func:`and_pairs`).
    """
    first, total = 0, int(bounds[-1]) if len(bounds) else 0
    while first < total:
        fit = int(np.searchsorted(bounds, first + tile, side="right"))
        stop = int(bounds[fit - 1]) if fit else 0
        if stop <= first:
            stop = int(bounds[np.searchsorted(bounds, first, "right")])
        yield first, stop
        first = stop


def and_pairs(
    cov: np.ndarray, parent: np.ndarray, cand: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out = cov[parent] & cov[cand]`` for one tile of pairs.

    A tile of one node ANDs its candidates by broadcast: a contiguous
    run as a slice, with no index gather, any other set gathered once.
    A tile of several nodes gathers both sides.
    """
    if parent[0] == parent[-1]:
        if cand[-1] - cand[0] == len(cand) - 1:
            np.bitwise_and(cov[parent[0]], cov[cand[0] : cand[-1] + 1], out=out)
        else:
            np.take(cov, cand, axis=0, out=out, mode="clip")
            out &= cov[parent[0]]
    else:
        np.take(cov, parent, axis=0, out=out, mode="clip")
        out &= cov[cand]
    return out


class BitsetMiner(Miner):
    """Level-wise vertical miner over packed-bitmap intersections."""

    name = "bitset"
    # Cooperative checkpoint phase of the expansion loop.
    phase = "fpm.dfs"

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
        planes, weights, vmin = dataset.kernel_planes
        sums_of = plane_sums(_as_words(planes), weights)
        support_of = support_kernel(dataset)

        def record(keys: np.ndarray, coverage: np.ndarray, supports):
            # [support, channel sums...] per node, row-aligned with keys.
            sums = sums_of(coverage)
            levels.append(
                (keys, channel_vectors(supports, sums, vmin, dataset.n_channels))
            )

        levels = [(np.empty((1, 0), dtype=np.uint32), dataset.totals()[None, :])]
        if max_length == 0:
            return FrequentItemsets.from_levels(levels, n, min_support)

        supports = support_of(item_bitmaps)
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
            # One checkpoint per block too: its survivors' channel sums
            # run after the last tile's.
            checkpoint(self.phase)
            keys, cov, starts, ends, lo, hi = stack.pop()
            parent, cand = candidate_pairs(starts[lo:hi], ends[lo:hi])
            parent += lo
            # Survivors are compacted into ``child`` tile by tile; its
            # untouched tail is never paged in.
            child = np.empty((len(parent), words), dtype=cov.dtype)
            kept = np.empty(len(parent), dtype=bool)
            child_sup = np.empty(len(parent), dtype=np.int64)
            bounds = np.cumsum(ends[lo:hi] - starts[lo:hi])
            filled = 0
            for first, stop in pair_tiles(bounds, tile):
                checkpoint(self.phase)
                dst = and_pairs(
                    cov,
                    parent[first:stop],
                    cand[first:stop],
                    child[filled : filled + stop - first],
                )
                sup = support_of(dst)
                keep = sup >= min_count
                kept[first:stop] = keep
                survivors = int(np.count_nonzero(keep))
                if survivors < len(keep):
                    child[filled : filled + survivors] = dst[keep]
                child_sup[filled : filled + survivors] = sup[keep]
                filled += survivors
            if not filled:
                continue
            parent, cand = parent[kept], cand[kept]
            child_keys = np.concatenate(
                [keys[parent], keys[cand, -1:]], axis=1
            )
            record(child_keys, child[:filled], child_sup[:filled])
            push(child_keys, child[:filled], group_ends(parent))
        return FrequentItemsets.from_levels(levels, n, min_support)


class EclatMiner(BitsetMiner):
    """``"eclat"``: the same engine, counted under its own name."""

    name = "eclat"


class AprioriMiner(BitsetMiner):
    """``"apriori"``: the same engine, counted under its own name.

    The engine already is Apriori's level-wise join: each level's
    candidates are the cross-column sibling pairs of the last frontier,
    counted by one AND and one support pass.
    """

    name = "apriori"
    phase = "fpm.apriori.level"
