"""Transaction encoding for the pattern miners.

The miners operate on globally numbered *item ids*. Each (attribute,
value) pair of the dictionary-encoded table receives one id:
``item_id = offset[column] + code``. :class:`ItemCatalog` holds the
bidirectional mapping. :class:`ItemLayer` holds the encoded rows (or
their distinct rows, each with its multiplicity) with per-item coverage
bitsets, and :class:`TransactionDataset` adds the outcome channel
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
#: An explorer mines its distinct rows only when there are at most
#: ``1 / GROUP_RATIO`` as many as rows; otherwise the rows as they are.
GROUP_RATIO = 8
# Row-code spaces up to ``2 * n_rows`` plus this many codes group by one
# bincount; larger ones by a sort.
_BINCOUNT_CODES = 1 << 16


def bit_planes(
    channels: np.ndarray, multiplicity: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit-sliced ``(planes, weights, vmin)`` form of int64 channels.

    Bit ``b < bit_length(max_c - vmin[c])`` of channel ``c``'s offsets
    from its minimum becomes one packed row bitmap, less all-zero and
    merged identical planes; ``weights[p]`` holds plane ``p``'s ``2**b``
    per channel. For any row mask, ``popcount(mask & planes) @ weights
    + popcount(mask) * vmin`` is ``channels[mask].sum(axis=0)`` bit for
    bit (int64 arithmetic mod 2**64). Built row tile by row tile, one
    plane at a time: no ``(n_rows, 64)`` bit matrix is ever allocated.

    When each row stands for ``multiplicity`` source rows and holds
    their channel sums, the offsets are ``channels - multiplicity *
    vmin`` with ``vmin`` the least floored row mean, and the identity
    holds with ``multiplicity[mask].sum()`` in place of
    ``popcount(mask)``. Any ``vmin`` is exact mod 2**64; this one keeps
    the offsets as narrow as the source rows' own.
    """
    n_rows, k = channels.shape
    if n_rows == 0:
        vmin = np.zeros(k, dtype=np.int64)
        return np.zeros((0, 0), np.uint8), np.zeros((0, k), np.int64), vmin
    # Column by column: an axis-0 reduction over the row-major matrix
    # is an order of magnitude slower.
    if multiplicity is None:
        vmin = np.array([column.min() for column in channels.T], dtype=np.int64)
        vmax = np.array([column.max() for column in channels.T], dtype=np.int64)
        # uint64 subtraction wraps to the true non-negative offset.
        base = vmin.view(np.uint64)
        spans = vmax.view(np.uint64) - base
    else:
        vmin = np.array(
            [(column // multiplicity).min() for column in channels.T],
            dtype=np.int64,
        )
        base = vmin.view(np.uint64)
        scale = multiplicity.astype(np.uint64)
        spans = np.array(
            [
                (column.view(np.uint64) - scale * b).max()
                for column, b in zip(channels.T, base)
            ],
            dtype=np.uint64,
        )
    bit_index = [
        c * 64 + b for c in range(k) for b in range(int(spans[c]).bit_length())
    ]
    raw = np.empty((len(bit_index), (n_rows + 7) // 8), dtype=np.uint8)
    for start in range(0, n_rows if bit_index else 0, _SLICE_ROWS):
        stop = min(start + _SLICE_ROWS, n_rows)
        shift = base if multiplicity is None else scale[start:stop, None] * base
        offsets = (channels[start:stop].view(np.uint64) - shift).astype(
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


def partitions_rows(
    channels: np.ndarray, multiplicity: np.ndarray | None = None
) -> bool:
    """Whether every row's channels sum to its multiplicity (1 without).

    Then any itemset's last channel sum is its support less the other
    channels' sums, exact mod 2**64, and the miners never sum it
    (:func:`channel_vectors`): one-hot outcomes with no ⊥ row, or their
    per-row counts on distinct rows. One column add per channel.
    """
    if channels.shape[1] == 0:
        return False
    total = channels[:, 0].copy()
    for column in channels.T[1:]:
        total += column
    return bool((total == (1 if multiplicity is None else multiplicity)).all())


def channel_vectors(
    supports: np.ndarray, sums: np.ndarray, vmin: np.ndarray, n_channels: int
) -> np.ndarray:
    """``[support, Σ_1, ..., Σ_k]`` rows from the channel-sum kernel.

    ``sums`` are :func:`plane_sums` over :attr:`TransactionDataset.
    kernel_planes` and ``vmin`` their minima. Restores the minima and,
    when the kernel summed only ``k - 1`` channels
    (:func:`partitions_rows`), the last as ``support - Σ others``, all
    mod 2**64 like int64 sums.
    """
    if vmin.any():
        sums = add_offsets(sums, supports, vmin)
    columns = [supports[:, None], sums]
    if sums.shape[1] < n_channels:
        columns.append((supports - sums.sum(axis=1))[:, None])
    return np.concatenate(columns, axis=1)


def exact_bincount(
    index: np.ndarray,
    values: np.ndarray,
    length: int,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Per-bin int64 sums of ``values``, exact (mod 2**64 like int64).

    A float64 ``bincount`` is exact only while every bin sum stays below
    2**53. The offsets from the minimum are summed in limbs of ``53 -
    bit_length(len(index))`` bits, so no limb sum can reach 2**53. When
    the offsets' span fits one limb (binary values, and fixed-point ones
    of a moderate range) they are summed in one float ``bincount``, with
    no shift and no mask; wider spans take one ``bincount`` per limb.

    ``counts`` is ``bincount(index, minlength=length)`` when the caller
    already has it (a grouped layer's ``multiplicity``), so the minimum
    is added back without counting ``index`` again.
    """
    n = len(index)
    lo = values.min() if n else np.int64(0)
    offsets = values.view(np.uint64) - np.int64(lo).view(np.uint64)
    width = max(1, 53 - n.bit_length())
    span = int(offsets.max()).bit_length() if n else 0
    if counts is None:
        counts = np.bincount(index, minlength=length)
    out = counts.astype(np.uint64)
    out *= np.int64(lo).view(np.uint64)
    mask = np.uint64((1 << width) - 1)
    for shift in range(0, span, width):
        limb = offsets if span <= width else (offsets >> np.uint64(shift)) & mask
        sums = np.bincount(index, limb.astype(np.float64), length)
        out += sums.astype(np.uint64) << np.uint64(shift)
    return out.view(np.int64)


def distinct_rows(
    matrix: np.ndarray, cardinalities: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(representatives, multiplicity, inverse)`` of the distinct rows.

    Rows get one mixed-radix code each; a ``bincount`` over the codes
    gives the multiplicities, and the present codes decode straight into
    the representative rows (in code order), so no row sort is needed.
    ``inverse[i]`` is the representative of row ``i``. Returns ``None``
    when grouping would not shrink the rows at least
    :data:`GROUP_RATIO` times, or the code space overflows int64.
    """
    n_rows = matrix.shape[0]
    space = 1
    for m in cardinalities:
        space *= m
    if n_rows == 0 or space > 2**62:
        return None
    code = np.zeros(n_rows, dtype=np.int64)
    for j, m in enumerate(cardinalities):
        code *= m
        code += matrix[:, j]
    if space <= 2 * n_rows + _BINCOUNT_CODES:
        counts = np.bincount(code, minlength=space)
        present = np.flatnonzero(counts)
        if len(present) * GROUP_RATIO > n_rows:
            return None
        remap = np.empty(space, dtype=np.intp)
        remap[present] = np.arange(len(present))
        inverse = remap[code]
        multiplicity = counts[present]
    else:
        present, inverse, multiplicity = np.unique(
            code, return_inverse=True, return_counts=True
        )
        if len(present) * GROUP_RATIO > n_rows:
            return None
    representatives = np.empty((len(present), len(cardinalities)), np.int32)
    for j in range(len(cardinalities) - 1, -1, -1):
        present, representatives[:, j] = np.divmod(present, cardinalities[j])
    return representatives, multiplicity.astype(np.int64), inverse


def dense_item_rows(item_matrix: np.ndarray, n_items: int) -> np.ndarray:
    """``(n_items, n_rows) bool`` coverage matrix of a global-id matrix.

    ``item_matrix`` is the ``(n_rows, n_attrs)`` matrix of global item
    ids (``matrix + offsets``); row ``i`` of the result marks the
    transactions covered by item ``i``. This is the scatter that
    :attr:`ItemLayer.packed_item_bitmaps` packs, once per layer.
    """
    n_rows = item_matrix.shape[0]
    dense = np.zeros((n_items, n_rows), dtype=bool)
    if n_rows:
        n_attrs = item_matrix.shape[1]
        row_ids = np.repeat(np.arange(n_rows), n_attrs)
        dense[item_matrix.ravel(), row_ids] = True
    return dense


def slice_packed_bits(packed: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Bit columns ``[start, stop)`` of packed rows, as a fresh array.

    Returns a ``(R, ceil((stop-start)/8)) uint8`` copy whose padding
    bits are zero: the row shard ``[start, stop)`` of a dataset's packed
    bitmaps, as the sharded miner sends it to a worker. ``start`` must
    be byte-aligned (every :func:`plan_shards` boundary is), so the
    slice is a pure byte-range copy; an unaligned start raises
    :class:`~repro.exceptions.MiningError`.
    """
    width = stop - start
    if width < 0:
        raise MiningError(f"invalid bit slice [{start}, {stop})")
    if start & 7:
        raise MiningError(f"bit slice start {start} is not byte-aligned")
    out_bytes = (width + 7) // 8
    first = start >> 3
    out = packed[:, first : first + out_bytes].copy()
    if out.shape[1] < out_bytes:
        raise MiningError(f"bit slice [{start}, {stop}) out of range")
    pad = (-width) % 8
    if pad and out.shape[1]:
        out[:, -1] &= np.uint8((0xFF << pad) & 0xFF)
    return out


def plan_shards(n_rows: int, n_shards: int) -> list[int]:
    """Row boundaries for ``n_shards`` near-equal, 64-aligned row shards.

    Returns ``n_shards + 1`` ascending offsets; shard ``i`` covers rows
    ``[bounds[i], bounds[i + 1])``. Every interior boundary is rounded up
    to a multiple of 64 so each shard starts on a byte *and* word
    boundary of the packed bitmaps — :func:`slice_packed_bits` copies
    whole bytes and the shard widths reinterpret cleanly
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


def _check_codes(matrix: np.ndarray, catalog: ItemCatalog) -> np.ndarray:
    """``matrix`` as int32 codes, validated against ``catalog``."""
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
    return mat.astype(np.int32, copy=False)


class ItemLayer:
    """The metric-independent half of a :class:`TransactionDataset`.

    Holds the stored rows (``matrix``), what each stands for
    (``multiplicity``, ``None`` when every row is one transaction), the
    global-id item matrix, the packed item bitmaps and the item part of
    the fingerprint. One layer serves every channel set mined over the
    same rows: an explorer builds it once and derives a dataset per
    metric or weight model through :meth:`dataset`.

    With ``group=True`` identical rows collapse to one stored row each
    (:func:`distinct_rows`) when that shrinks them at least
    :data:`GROUP_RATIO` times; ``inverse`` then maps every source row to
    its stored row, and :meth:`dataset` sums channels per stored row.
    ``n_rows`` is always the number of transactions (the multiplicity
    sum), ``n_physical`` the number of stored rows.
    """

    def __init__(
        self, matrix: np.ndarray, catalog: ItemCatalog, group: bool = False
    ) -> None:
        mat = _check_codes(matrix, catalog)
        multiplicity = self.inverse = None
        if group:
            grouped = distinct_rows(mat, catalog.cardinalities)
            if grouped is not None:
                mat, multiplicity, self.inverse = grouped
        self.matrix = mat
        self.catalog = catalog
        self.multiplicity = multiplicity
        self.n_physical = mat.shape[0]
        self.n_rows = (
            self.n_physical if multiplicity is None else int(multiplicity.sum())
        )
        # global item ids per row: matrix + per-column offsets
        self.item_matrix = mat + catalog.offsets[:-1].astype(np.int32)
        # Built on first use: miners that do not need them (FP-growth)
        # never pay for them.
        self._packed_items: np.ndarray | None = None
        self._multiplicity_planes: tuple[np.ndarray, ...] | None = None
        self._digest: bytes | None = None

    def dataset(self, channels: np.ndarray | None = None) -> "TransactionDataset":
        """A dataset over these rows with per-source-row ``channels``.

        Grouped layers sum each channel per stored row
        (:func:`exact_bincount`, passed the layer's ``multiplicity`` as
        the per-row counts), so the dataset holds one channel row per
        stored row.
        """
        if self.inverse is not None and channels is not None:
            ch = np.asarray(channels)
            if ch.ndim != 2 or ch.shape[0] != len(self.inverse):
                raise MiningError("channels must be (n_rows, k)")
            channels = np.empty((self.n_physical, ch.shape[1]), np.int64)
            for c in range(ch.shape[1]):
                column = np.ascontiguousarray(ch[:, c], dtype=np.int64)
                channels[:, c] = exact_bincount(
                    self.inverse, column, self.n_physical, self.multiplicity
                )
        return TransactionDataset.on_layer(self, channels)

    @property
    def packed_item_bitmaps(self) -> np.ndarray:
        """``(n_items, ceil(n_physical / 8)) uint8`` coverage bitmaps."""
        if self._packed_items is None:
            self._packed_items = np.packbits(
                dense_item_rows(self.item_matrix, self.catalog.n_items), axis=1
            )
        return self._packed_items

    @property
    def multiplicity_planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`bit_planes` of the multiplicity column (weighted only)."""
        if self._multiplicity_planes is None:
            self._multiplicity_planes = bit_planes(self.multiplicity[:, None])
        return self._multiplicity_planes

    def digest(self) -> bytes:
        """Content hash of (matrix, multiplicity, cardinalities)."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(repr(self.matrix.shape).encode())
            h.update(np.ascontiguousarray(self.matrix).tobytes())
            if self.multiplicity is not None:
                h.update(b"multiplicity")
                h.update(self.multiplicity.tobytes())
            h.update(repr(self.catalog.cardinalities).encode())
            self._digest = h.digest()
        return self._digest


class TransactionDataset:
    """Encoded transactions plus outcome channels, ready for mining.

    An :class:`ItemLayer` (rows, items, multiplicities) plus a channel
    layer: the channels, their bit planes and the fingerprint. On a
    layer of distinct rows (:meth:`ItemLayer.dataset`) each row stands
    for ``multiplicity`` identical transactions and its channels hold
    their sums: supports are multiplicity sums and :attr:`n_rows` is
    their total, so every miner's table equals the one mined over the
    expanded rows.

    A dataset never changes after it is built: ``TransactionDataset(
    matrix, catalog, channels)`` is ``ItemLayer(matrix, catalog).
    dataset(channels)``, and stream windows and samples are new datasets
    over their own rows. Every lazily built cache, the fingerprint
    included, therefore describes exactly one set of rows.

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
        self._attach(ItemLayer(matrix, catalog), channels)

    @classmethod
    def on_layer(
        cls, layer: ItemLayer, channels: np.ndarray | None = None
    ) -> "TransactionDataset":
        """A dataset sharing ``layer``: its bitmaps and item digest."""
        dataset = cls.__new__(cls)
        dataset._attach(layer, channels)
        return dataset

    def _attach(self, layer: ItemLayer, channels: np.ndarray | None) -> None:
        # ``matrix`` and ``item_matrix`` hold the stored rows; ``n_rows``
        # counts transactions (the multiplicity sum), ``n_physical``
        # stored rows.
        self.layer = layer
        self.matrix, self.item_matrix = layer.matrix, layer.item_matrix
        self.catalog, self.multiplicity = layer.catalog, layer.multiplicity
        self.n_rows, self.n_physical = layer.n_rows, layer.n_physical
        if channels is None:
            channels = np.empty((layer.n_physical, 0), dtype=np.int64)
        ch = np.asarray(channels)
        if ch.ndim != 2 or ch.shape[0] != layer.n_physical:
            raise MiningError("channels must be (n_rows, k)")
        self.channels = ch.astype(np.int64, copy=False)
        self.n_channels = ch.shape[1]
        # Lazily built channel caches (bitmaps, planes, fingerprint).
        self._packed_channels: np.ndarray | None = None
        self._channel_planes: tuple[np.ndarray, ...] | None = None
        self._kernel_planes: tuple[np.ndarray, ...] | None = None
        self._channels_binary: bool | None = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # per-item coverage
    # ------------------------------------------------------------------

    def item_mask(self, item_id: int) -> np.ndarray:
        """Boolean coverage mask of one item over the stored rows."""
        j = self.catalog.column_of(item_id)
        code = item_id - int(self.catalog.offsets[j])
        return self.matrix[:, j] == code

    def support_of_mask(self, mask: np.ndarray) -> int:
        """Transactions covered by a boolean mask over the stored rows."""
        if self.multiplicity is None:
            return int(np.count_nonzero(mask))
        return int(mask @ self.multiplicity)

    def counts_for_mask(self, mask: np.ndarray) -> np.ndarray:
        """``[support_count, channel sums...]`` for a boolean row mask."""
        n = self.support_of_mask(mask)
        if self.n_channels == 0:
            return np.array([n], dtype=np.int64)
        sums = self.channels[mask].sum(axis=0)
        return np.concatenate([[n], sums]).astype(np.int64)

    def totals(self) -> np.ndarray:
        """``[n_rows, channel sums...]``: the empty itemset's counts."""
        return self.counts_for_mask(np.ones(self.n_physical, dtype=bool))

    def itemset_mask(self, item_ids: Sequence[int]) -> np.ndarray:
        """Boolean coverage mask of an itemset (AND of its items)."""
        mask = np.ones(self.n_physical, dtype=bool)
        for i in item_ids:
            mask &= self.item_mask(i)
        return mask

    # ------------------------------------------------------------------
    # packed (vertical bitmap) representation
    # ------------------------------------------------------------------

    @property
    def n_packed_bytes(self) -> int:
        """Bytes per packed row bitmap (``ceil(n_physical / 8)``)."""
        return (self.n_physical + 7) // 8

    @property
    def packed_item_bitmaps(self) -> np.ndarray:
        """``(n_items, n_packed_bytes) uint8`` coverage bitmaps, one row
        per item id, built with ``np.packbits`` (big-endian bit order).

        Padding bits in the trailing byte are zero, so bitwise ANDs and
        popcounts over these rows are exact. Built once per
        :class:`ItemLayer` and shared by every dataset on it.
        """
        return self.layer.packed_item_bitmaps

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
        minima. With multiplicities, ``vmin`` scales with the support
        (the multiplicity sum). Built at the first mine and cached.
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
                self._channel_planes = bit_planes(
                    self.channels, self.multiplicity
                )
        return self._channel_planes

    @property
    def kernel_planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(planes, weights, vmin)`` the miners sum channels over.

        :attr:`channel_planes`, less the last channel when the channels
        partition every stored row (:func:`partitions_rows`);
        :func:`channel_vectors` restores it from the support. Built at
        the first mine and cached.
        """
        if self._kernel_planes is None:
            k = self.n_channels
            if not partitions_rows(self.channels, self.multiplicity):
                self._kernel_planes = self.channel_planes
            elif self.channels_binary:
                self._kernel_planes = (
                    self.packed_channel_bitmaps[:-1],
                    np.eye(k - 1, dtype=np.int64),
                    np.zeros(k - 1, dtype=np.int64),
                )
            else:
                self._kernel_planes = bit_planes(
                    self.channels[:, :-1], self.multiplicity
                )
        return self._kernel_planes

    def fingerprint(self) -> str:
        """Content hash identifying (layer, channels) exactly.

        Used as the dataset component of mining-cache keys: two datasets
        with equal fingerprints produce identical mining results. The
        layer's part is hashed once and shared by its datasets.
        """
        if self._fingerprint is None:
            h = hashlib.sha256(self.layer.digest())
            h.update(repr(self.channels.shape).encode())
            h.update(np.ascontiguousarray(self.channels).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint
