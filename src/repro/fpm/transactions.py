"""Transaction encoding for the pattern miners.

The miners operate on globally numbered *item ids*. Each (attribute,
value) pair of the dictionary-encoded table receives one id:
``item_id = offset[column] + code``. :class:`ItemCatalog` holds the
bidirectional mapping, and :class:`TransactionDataset` bundles the
encoded matrix with per-item coverage bitsets and the outcome channel
matrix used by Algorithm 1.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import MiningError

if TYPE_CHECKING:
    from repro.core.items import Item

# Lookup table mapping a byte to its population count, used to count the
# rows covered by a packed bitset intersection.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

# numpy >= 2.0 ships a hardware popcount ufunc; older versions fall back
# to the byte lookup table.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount(packed: np.ndarray) -> int:
    """Number of set bits in a ``np.packbits``-packed uint8 array."""
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(packed).sum(dtype=np.int64))
    return int(_POPCOUNT[packed].sum())


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Set-bit counts along the last axis of a packed uint8 array.

    For a ``(..., n_bytes)`` input, returns the ``(...)`` int64 array of
    per-row population counts. This is the vectorized primitive behind
    the bitset miner: one call counts the coverage of a whole batch of
    candidate itemsets.
    """
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(packed).sum(axis=-1, dtype=np.int64)
    return _POPCOUNT[packed].sum(axis=-1)


# Elements (words, or bytes on the lookup-table path) per AND block of
# the channel-sum kernel: ~1 MiB, so wide dense runs stay in cache.
_PLANE_TILE = 1 << 17
# Words (bytes on the lookup-table path) of candidate coverage the
# bitset miner ANDs per tile, and so between two of its cooperative
# checkpoints: 32 KiB, cache-resident.
_CANDIDATE_TILE = 1 << 12
# Candidate coverage bytes per frontier block of the bitset miner: a
# block's children are all that one level holds at a time.
_FRONTIER_BYTES = 1 << 22
# Rows per tile when slicing channel values into bit planes; a multiple
# of 8, so every tile packs to whole bytes.
_SLICE_ROWS = 1 << 16


def bit_planes(
    channels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit-sliced ``(planes, weights, vmin)`` form of int64 channels.

    Bit ``b < bit_length(max_c - vmin[c])`` of channel ``c``'s offsets
    from its minimum becomes one packed row bitmap, less all-zero and
    merged identical planes; ``weights[p]`` holds plane ``p``'s ``2**b``
    per channel. For any row mask, ``popcount(mask & planes) @ weights
    + popcount(mask) * vmin`` is ``channels[mask].sum(axis=0)`` bit for
    bit (int64 arithmetic mod 2**64). Built row tile by row tile, one
    plane at a time: no ``(n_rows, 64)`` bit matrix is ever allocated.
    """
    n_rows, k = channels.shape
    if n_rows == 0:
        vmin = np.zeros(k, dtype=np.int64)
        return np.zeros((0, 0), np.uint8), np.zeros((0, k), np.int64), vmin
    # Column by column: an axis-0 reduction over the row-major matrix
    # is an order of magnitude slower.
    vmin = np.array([column.min() for column in channels.T], dtype=np.int64)
    vmax = np.array([column.max() for column in channels.T], dtype=np.int64)
    # uint64 subtraction wraps to the true non-negative offset.
    base = vmin.view(np.uint64)
    spans = vmax.view(np.uint64) - base
    bit_index = [
        c * 64 + b for c in range(k) for b in range(int(spans[c]).bit_length())
    ]
    raw = np.empty((len(bit_index), (n_rows + 7) // 8), dtype=np.uint8)
    for start in range(0, n_rows if bit_index else 0, _SLICE_ROWS):
        stop = min(start + _SLICE_ROWS, n_rows)
        offsets = (channels[start:stop].view(np.uint64) - base).astype(
            "<u8", copy=False
        )
        # Row j holds byte j % 8 of channel j // 8 for every tile row.
        byte_rows = np.ascontiguousarray(
            offsets.view(np.uint8).reshape(stop - start, 8 * k).T
        )
        for p, index in enumerate(bit_index):
            raw[p, start // 8 : (stop + 7) // 8] = np.packbits(
                byte_rows[index // 8] & np.uint8(1 << (index % 8))
            )
    # Drop all-zero planes; merge identical ones by OR-ing their (distinct)
    # bit weights. A digest collision only leaves a plane unmerged.
    weights = np.zeros((len(bit_index), k), dtype=np.uint64)
    first: dict[bytes, int] = {}
    keep: list[int] = []
    for p, index in enumerate(bit_index):
        if not raw[p].any():
            continue
        q = first.setdefault(hashlib.blake2b(raw[p], digest_size=16).digest(), p)
        if q != p and not np.array_equal(raw[q], raw[p]):
            q = p
        if q == p:
            keep.append(p)
        weights[q, index // 64] |= np.uint64(1 << (index % 64))
    return raw[keep], weights[keep].view(np.int64), vmin


def plane_sums(planes: np.ndarray, weights: np.ndarray):
    """The bit-sliced channel-sum kernel over fixed ``planes``.

    Returns ``sums(coverage)``: for ``(m, words)`` coverage bitmaps of
    the planes' dtype and width, the ``(m, k)`` int64
    ``popcount(coverage & planes) @ weights``, i.e. each channel's sum
    of offsets mod 2**64 (:func:`add_offsets` restores the minima). A
    block that fits one tile is one broadcast AND and one popcount;
    larger blocks AND one plane at a time into a reused tile buffer.
    Identity weights (binary channels) skip the matmul.
    """
    n_planes, words = planes.shape
    identity = weights.shape == (n_planes, n_planes) and np.array_equal(
        weights, np.eye(n_planes, dtype=np.int64)
    )
    unsigned = weights.view(np.uint64)
    # Survivors per tile; a survivor wider than a tile runs alone.
    tile = max(1, _PLANE_TILE // max(1, words))
    block = planes[None]

    def sums(coverage: np.ndarray) -> np.ndarray:
        m = coverage.shape[0]
        if m * n_planes <= tile:
            counts = popcount_rows(coverage[:, None, :] & block)
        else:
            counts = np.empty((m, n_planes), dtype=np.int64)
            scratch = np.empty((min(m, tile), words), dtype=coverage.dtype)
            for start in range(0, m, tile):
                survivors = coverage[start : start + tile]
                buf = scratch[: len(survivors)]
                for p in range(n_planes):
                    np.bitwise_and(survivors, planes[p], out=buf)
                    counts[start : start + tile, p] = popcount_rows(buf)
        if identity:
            return counts
        return (counts.view(np.uint64) @ unsigned).view(np.int64)

    return sums


def add_offsets(
    sums: np.ndarray, supports: np.ndarray, vmin: np.ndarray
) -> np.ndarray:
    """``sums + supports * vmin`` per channel, mod 2**64 like int64 sums."""
    shifted = supports.astype(np.uint64)[:, None] * vmin.view(np.uint64)
    return (sums.view(np.uint64) + shifted).view(np.int64)


def dense_item_rows(item_matrix: np.ndarray, n_items: int) -> np.ndarray:
    """``(n_items, n_rows) bool`` coverage matrix of a global-id matrix.

    ``item_matrix`` is the ``(n_rows, n_attrs)`` matrix of global item
    ids (``matrix + offsets``); row ``i`` of the result marks the
    transactions covered by item ``i``. This is the scatter behind
    :attr:`TransactionDataset.packed_item_bitmaps`, shared with the
    streaming append path so both pack coverage identically.
    """
    n_rows = item_matrix.shape[0]
    dense = np.zeros((n_items, n_rows), dtype=bool)
    if n_rows:
        n_attrs = item_matrix.shape[1]
        row_ids = np.repeat(np.arange(n_rows), n_attrs)
        dense[item_matrix.ravel(), row_ids] = True
    return dense


def append_packed_bits(
    buffer: np.ndarray, n_bits: int, dense: np.ndarray
) -> None:
    """Append boolean columns to packed bitmap rows, in place.

    ``buffer`` is a ``(R, cap_bytes) uint8`` packbits array (big-endian
    bit order) whose first ``n_bits`` bit columns are occupied; ``dense``
    is the ``(R, b) bool`` block to append starting at bit ``n_bits``.
    The buffer must have capacity for ``n_bits + b`` bits, and the bits
    at and beyond ``n_bits`` must be zero (they are ORed into). This is
    the incremental alternative to re-packing the whole history: cost is
    proportional to the batch, not to the accumulated stream.
    """
    b = dense.shape[1]
    if b == 0:
        return
    offset = n_bits & 7
    start = n_bits >> 3
    if offset:
        # Shift the batch to the intra-byte offset by prepending zero
        # bit columns, then OR the straddling first byte into place.
        padded = np.concatenate(
            [np.zeros((dense.shape[0], offset), dtype=bool), dense], axis=1
        )
        packed = np.packbits(padded, axis=1)
        buffer[:, start] |= packed[:, 0]
        buffer[:, start + 1 : start + packed.shape[1]] = packed[:, 1:]
    else:
        packed = np.packbits(dense, axis=1)
        buffer[:, start : start + packed.shape[1]] = packed


def slice_packed_bits(packed: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Bit columns ``[start, stop)`` of packed rows, repacked at offset 0.

    Returns a fresh ``(R, ceil((stop-start)/8)) uint8`` array whose
    padding bits are zero, so it is directly usable as a
    :attr:`TransactionDataset.packed_item_bitmaps` block for the window.
    Byte-aligned starts are a pure byte-range copy; unaligned starts
    unpack only the touched byte span.
    """
    width = stop - start
    if width < 0:
        raise MiningError(f"invalid bit slice [{start}, {stop})")
    out_bytes = (width + 7) // 8
    if start & 7 == 0:
        first = start >> 3
        out = packed[:, first : first + out_bytes].copy()
        if out.shape[1] < out_bytes:  # capacity buffer narrower than asked
            raise MiningError(f"bit slice [{start}, {stop}) out of range")
    else:
        first = start >> 3
        last = (stop + 7) >> 3
        bits = np.unpackbits(packed[:, first:last], axis=1)
        shift = start & 7
        out = np.packbits(bits[:, shift : shift + width], axis=1)
    pad = (-width) % 8
    if pad and out.shape[1]:
        out[:, -1] &= np.uint8((0xFF << pad) & 0xFF)
    return out


def plan_shards(n_rows: int, n_shards: int) -> list[int]:
    """Row boundaries for ``n_shards`` near-equal, 64-aligned row shards.

    Returns ``n_shards + 1`` ascending offsets; shard ``i`` covers rows
    ``[bounds[i], bounds[i + 1])``. Every interior boundary is rounded up
    to a multiple of 64 so each shard starts on a byte *and* word
    boundary of the packed bitmaps — :func:`slice_packed_bits` then takes
    its pure byte-copy fast path and the shard widths reinterpret cleanly
    as uint64 words. Small datasets degenerate gracefully: trailing
    shards may be empty (``bounds[i] == bounds[i + 1]``), which the
    sharded miner treats as zero-count contributors.
    """
    if n_shards < 1:
        raise MiningError(f"n_shards must be >= 1, got {n_shards}")
    bounds = [
        min(((i * n_rows // n_shards) + 63) // 64 * 64, n_rows)
        for i in range(n_shards)
    ]
    bounds.append(n_rows)
    return bounds


def sample_rows_packed(
    packed: np.ndarray, blocks: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Gather row blocks of a packed bitmap into a compact packed array.

    ``blocks`` is a sequence of ``(start, stop)`` bit-column ranges in
    ascending order; the result packs their concatenation at offset 0,
    with zero padding bits, ready to install via
    :meth:`TransactionDataset.from_packed`. Every block except the last
    must have a width divisible by 8 so the per-block
    :func:`slice_packed_bits` outputs concatenate byte-wise without
    re-shifting — :func:`plan_shards` boundaries (64-aligned) satisfy
    this by construction, which is what keeps sampling a 10M-row
    dataset a pure byte-gather that never materializes unpacked rows.
    """
    parts = []
    for i, (start, stop) in enumerate(blocks):
        width = stop - start
        if width < 0:
            raise MiningError(f"invalid sample block [{start}, {stop})")
        if width % 8 and i != len(blocks) - 1:
            raise MiningError(
                f"sample block [{start}, {stop}) is not byte-aligned; only "
                "the final block may have a partial byte"
            )
        parts.append(slice_packed_bits(packed, start, stop))
    if not parts:
        return np.zeros((packed.shape[0], 0), dtype=np.uint8)
    return np.concatenate(parts, axis=1)


def _grow_packed(
    packed: np.ndarray, old_bits: int, new_bits: int
) -> np.ndarray:
    """Widen a packed bitmap to hold ``new_bits`` bit columns.

    Returns ``packed`` itself when the byte width already suffices,
    otherwise a zero-extended copy. The occupied prefix (``old_bits``
    bits, i.e. the first ``ceil(old_bits / 8)`` bytes) is preserved.
    """
    need = (new_bits + 7) // 8
    if packed.shape[1] >= need:
        return packed
    grown = np.zeros((packed.shape[0], need), dtype=np.uint8)
    used = (old_bits + 7) // 8
    grown[:, :used] = packed[:, :used]
    return grown


class ItemCatalog:
    """Bidirectional mapping between item ids and (attribute, value) pairs.

    Parameters
    ----------
    attributes:
        Attribute names, in schema order.
    categories:
        For each attribute, the ordered list of its category labels.
    """

    def __init__(
        self, attributes: Sequence[str], categories: Sequence[Sequence[Any]]
    ) -> None:
        if len(attributes) != len(categories):
            raise MiningError("attributes and categories must align")
        self.attributes = list(attributes)
        self.categories = [list(c) for c in categories]
        self.cardinalities = [len(c) for c in self.categories]
        self.offsets = np.concatenate([[0], np.cumsum(self.cardinalities)])
        self.n_items = int(self.offsets[-1])
        # item id -> column index
        self._item_column = np.repeat(
            np.arange(len(attributes)), self.cardinalities
        ).astype(np.int32)
        self._items: list[Item | None] = [None] * self.n_items

    def item_id(self, attribute: str, value: Any) -> int:
        """Return the global id of item ``attribute = value``."""
        try:
            j = self.attributes.index(attribute)
        except ValueError:
            raise MiningError(f"unknown attribute {attribute!r}") from None
        try:
            code = self.categories[j].index(value)
        except ValueError:
            raise MiningError(f"unknown value {value!r} for {attribute!r}") from None
        return int(self.offsets[j]) + code

    def decode(self, item_id: int) -> tuple[str, Any]:
        """Return the ``(attribute, value)`` pair of ``item_id``."""
        if not 0 <= item_id < self.n_items:
            raise MiningError(f"item id {item_id} out of range")
        j = int(self._item_column[item_id])
        code = item_id - int(self.offsets[j])
        return self.attributes[j], self.categories[j][code]

    def item(self, item_id: int) -> Item:
        """The :class:`~repro.core.items.Item` of ``item_id``, interned.

        Built on first use and reused afterwards, so decoding many
        itemsets allocates one ``Item`` per item id, not one per
        occurrence.
        """
        cached = self._items[item_id] if 0 <= item_id < self.n_items else None
        if cached is None:
            # Imported here: repro.core imports this module.
            from repro.core.items import Item

            cached = Item(*self.decode(item_id))  # raises when out of range
            self._items[item_id] = cached
        return cached

    def column_of(self, item_id: int) -> int:
        """Column (attribute) index of ``item_id``."""
        return int(self._item_column[item_id])

    def attribute_of(self, item_id: int) -> str:
        """Attribute name of ``item_id``."""
        return self.attributes[self.column_of(item_id)]

    def items_of_attribute(self, attribute: str) -> list[int]:
        """All item ids belonging to ``attribute``."""
        j = self.attributes.index(attribute)
        lo, hi = int(self.offsets[j]), int(self.offsets[j + 1])
        return list(range(lo, hi))

    def __len__(self) -> int:
        return self.n_items


class TransactionDataset:
    """Encoded transactions plus outcome channels, ready for mining.

    Parameters
    ----------
    matrix:
        ``(n_rows, n_attrs) int`` dictionary-encoded data.
    catalog:
        The item catalog describing the encoding.
    channels:
        ``(n_rows, k)`` non-negative matrix whose column sums over an
        itemset's support set the miners accumulate. For Algorithm 1,
        the columns are the one-hot outcome indicators (T, F, ⊥).
    """

    def __init__(
        self,
        matrix: np.ndarray,
        catalog: ItemCatalog,
        channels: np.ndarray | None = None,
    ) -> None:
        mat = np.asarray(matrix)
        if mat.ndim != 2:
            raise MiningError("matrix must be 2-dimensional")
        if mat.shape[1] != len(catalog.attributes):
            raise MiningError(
                f"matrix has {mat.shape[1]} columns, catalog expects "
                f"{len(catalog.attributes)}"
            )
        for j, m in enumerate(catalog.cardinalities):
            if mat.shape[0] and (mat[:, j].min() < 0 or mat[:, j].max() >= m):
                raise MiningError(f"codes out of range in column {j}")
        self.matrix = mat.astype(np.int32, copy=False)
        self.catalog = catalog
        self.n_rows = mat.shape[0]
        if channels is None:
            channels = np.empty((self.n_rows, 0), dtype=np.int64)
        ch = np.asarray(channels)
        if ch.ndim != 2 or ch.shape[0] != self.n_rows:
            raise MiningError("channels must be (n_rows, k)")
        self.channels = ch.astype(np.int64, copy=False)
        self.n_channels = ch.shape[1]
        # global item ids per row: matrix + per-column offsets
        self.item_matrix = self.matrix + catalog.offsets[:-1].astype(np.int32)
        # Lazily built caches (packed bitmaps, fingerprint); building
        # them costs one pass over the data, so miners that do not need
        # them (Apriori, FP-growth) never pay for it.
        self._packed_items: np.ndarray | None = None
        self._packed_channels: np.ndarray | None = None
        self._channel_planes: tuple[np.ndarray, ...] | None = None
        self._channels_binary: bool | None = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # streaming construction hooks
    # ------------------------------------------------------------------

    @classmethod
    def from_packed(
        cls,
        matrix: np.ndarray,
        catalog: ItemCatalog,
        channels: np.ndarray | None = None,
        packed_items: np.ndarray | None = None,
        packed_channels: np.ndarray | None = None,
    ) -> "TransactionDataset":
        """Construct with pre-built packed bitmaps installed.

        The streaming buffer maintains coverage bitmaps incrementally;
        this hook lets it hand them to the dataset (after validating
        their shapes) instead of having the lazy properties re-pack the
        same rows from scratch. Bitmaps must follow the
        :attr:`packed_item_bitmaps` layout exactly — ``np.packbits``
        big-endian bit order with zero padding bits.
        """
        dataset = cls(matrix, catalog, channels)
        n_bytes = dataset.n_packed_bytes
        if packed_items is not None:
            expected = (catalog.n_items, n_bytes)
            if packed_items.shape != expected or packed_items.dtype != np.uint8:
                raise MiningError(
                    f"packed_items must be uint8 with shape {expected}, got "
                    f"{packed_items.dtype} {packed_items.shape}"
                )
            dataset._packed_items = packed_items
        if packed_channels is not None:
            expected = (dataset.n_channels, n_bytes)
            if (
                packed_channels.shape != expected
                or packed_channels.dtype != np.uint8
            ):
                raise MiningError(
                    f"packed_channels must be uint8 with shape {expected}, "
                    f"got {packed_channels.dtype} {packed_channels.shape}"
                )
            dataset._packed_channels = packed_channels
        return dataset

    def extend(
        self, matrix: np.ndarray, channels: np.ndarray | None = None
    ) -> None:
        """Append rows in place, maintaining caches incrementally.

        Already-built packed bitmaps are grown by packing only the new
        rows at the current bit offset (never re-packing history); the
        cached :meth:`fingerprint` is invalidated so a grown dataset can
        never alias a :class:`~repro.fpm.cache.MiningCache` entry of its
        shorter past self. Channel binariness is re-examined against the
        batch: a non-binary batch drops the packed channel bitmaps. The
        cached :attr:`channel_planes` are always dropped.
        """
        mat = np.asarray(matrix)
        if mat.ndim != 2 or mat.shape[1] != len(self.catalog.attributes):
            raise MiningError(
                f"extension matrix must be (rows, {len(self.catalog.attributes)})"
            )
        for j, m in enumerate(self.catalog.cardinalities):
            if mat.shape[0] and (mat[:, j].min() < 0 or mat[:, j].max() >= m):
                raise MiningError(f"codes out of range in column {j}")
        mat = mat.astype(np.int32, copy=False)
        if channels is None:
            if self.n_channels:
                raise MiningError("extension must provide channel rows")
            channels = np.empty((mat.shape[0], 0), dtype=np.int64)
        ch = np.asarray(channels)
        if ch.ndim != 2 or ch.shape[0] != mat.shape[0] or ch.shape[1] != self.n_channels:
            raise MiningError(
                f"extension channels must be ({mat.shape[0]}, {self.n_channels})"
            )
        ch = ch.astype(np.int64, copy=False)

        old_rows = self.n_rows
        item_rows = mat + self.catalog.offsets[:-1].astype(np.int32)
        self.matrix = np.concatenate([self.matrix, mat], axis=0)
        self.channels = np.concatenate([self.channels, ch], axis=0)
        self.item_matrix = np.concatenate([self.item_matrix, item_rows], axis=0)
        self.n_rows = self.matrix.shape[0]

        if self._packed_items is not None:
            self._packed_items = _grow_packed(
                self._packed_items, old_rows, self.n_rows
            )
            append_packed_bits(
                self._packed_items,
                old_rows,
                dense_item_rows(item_rows, self.catalog.n_items),
            )
        batch_binary = bool(((ch == 0) | (ch == 1)).all())
        if self._packed_channels is not None:
            if batch_binary:
                self._packed_channels = _grow_packed(
                    self._packed_channels, old_rows, self.n_rows
                )
                append_packed_bits(
                    self._packed_channels, old_rows, ch.T.astype(bool)
                )
            else:
                self._packed_channels = None
        if not batch_binary:
            self._channels_binary = False
        elif self._channels_binary is not True:
            self._channels_binary = None  # re-derive lazily over all rows
        # The batch can move a channel's minimum or widen its range.
        self._channel_planes = None
        # A grown dataset is a different dataset: a stale fingerprint
        # here would alias MiningCache entries of the pre-append state.
        self._fingerprint = None

    # ------------------------------------------------------------------
    # per-item coverage
    # ------------------------------------------------------------------

    def item_mask(self, item_id: int) -> np.ndarray:
        """Boolean coverage mask of one item."""
        j = self.catalog.column_of(item_id)
        code = item_id - int(self.catalog.offsets[j])
        return self.matrix[:, j] == code

    def counts_for_mask(self, mask: np.ndarray) -> np.ndarray:
        """``[support_count, channel sums...]`` for a boolean row mask."""
        n = int(mask.sum())
        if self.n_channels == 0:
            return np.array([n], dtype=np.int64)
        sums = self.channels[mask].sum(axis=0)
        return np.concatenate([[n], sums]).astype(np.int64)

    def itemset_mask(self, item_ids: Sequence[int]) -> np.ndarray:
        """Boolean coverage mask of an itemset (AND of its items)."""
        mask = np.ones(self.n_rows, dtype=bool)
        for i in item_ids:
            mask &= self.item_mask(i)
        return mask

    # ------------------------------------------------------------------
    # packed (vertical bitmap) representation
    # ------------------------------------------------------------------

    @property
    def n_packed_bytes(self) -> int:
        """Bytes per packed row bitmap (``ceil(n_rows / 8)``)."""
        return (self.n_rows + 7) // 8

    @property
    def packed_items_built(self) -> bool:
        """Whether the item bitmaps are already materialized.

        The progressive sampler gathers packed blocks directly when they
        exist and falls back to lazy small-sample packing when they do
        not — checking here avoids forcing a full-dataset pack just to
        take a sample.
        """
        return self._packed_items is not None

    @property
    def packed_channels_built(self) -> bool:
        """Whether the channel bitmaps are already materialized."""
        return self._packed_channels is not None

    @property
    def packed_item_bitmaps(self) -> np.ndarray:
        """``(n_items, n_packed_bytes) uint8`` coverage bitmaps, one row
        per item id, built with ``np.packbits`` (big-endian bit order).

        Padding bits in the trailing byte are zero, so bitwise ANDs and
        popcounts over these rows are exact. Built once and cached.
        """
        if self._packed_items is None:
            self._packed_items = np.packbits(
                dense_item_rows(self.item_matrix, self.catalog.n_items), axis=1
            )
        return self._packed_items

    @property
    def channels_binary(self) -> bool:
        """Whether every channel value is 0 or 1 (one-hot outcomes)."""
        if self._channels_binary is None:
            ch = self.channels
            self._channels_binary = bool(((ch == 0) | (ch == 1)).all())
        return self._channels_binary

    @property
    def packed_channel_bitmaps(self) -> np.ndarray:
        """``(n_channels, n_packed_bytes) uint8`` bitmaps of the binary
        outcome channels.

        Only defined for binary (one-hot) channels, where a channel sum
        over an itemset's rows reduces to
        ``popcount(itemset_bitmap & channel_bitmap)``. Raises
        ``MiningError`` otherwise.
        """
        if self._packed_channels is None:
            if not self.channels_binary:
                raise MiningError(
                    "packed channel bitmaps require binary (one-hot) channels"
                )
            self._packed_channels = np.packbits(
                self.channels.T.astype(bool), axis=1
            )
        return self._packed_channels

    @property
    def channel_planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(planes, weights, vmin)``: the channels as bit planes.

        See :func:`bit_planes`; binary channels are the one-plane case,
        :attr:`packed_channel_bitmaps` with identity weights and zero
        minima. Built at the first mine, cached, dropped by :meth:`extend`.
        """
        if self._channel_planes is None:
            k = self.n_channels
            if self.channels_binary:
                self._channel_planes = (
                    self.packed_channel_bitmaps,
                    np.eye(k, dtype=np.int64),
                    np.zeros(k, dtype=np.int64),
                )
            else:
                self._channel_planes = bit_planes(self.channels)
        return self._channel_planes

    def fingerprint(self) -> str:
        """Content hash identifying (matrix, channels, catalog) exactly.

        Used as the dataset component of mining-cache keys: two datasets
        with equal fingerprints produce identical mining results.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(repr(self.matrix.shape).encode())
            h.update(np.ascontiguousarray(self.matrix).tobytes())
            h.update(repr(self.channels.shape).encode())
            h.update(np.ascontiguousarray(self.channels).tobytes())
            h.update(repr(self.catalog.cardinalities).encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint
