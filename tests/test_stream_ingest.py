"""Tests for streaming ingestion: the packed-bit primitives, the append
buffer and its windows (including the mining-cache anti-aliasing
regression)."""

import numpy as np
import pytest

from repro.exceptions import MiningError
from repro.fpm.cache import MiningCache
from repro.fpm.transactions import (
    ItemCatalog,
    TransactionDataset,
    dense_item_rows,
    slice_packed_bits,
)
from repro.stream import StreamBuffer


def make_catalog():
    return ItemCatalog(["a", "b"], [[0, 1, 2], ["x", "y"]])


def random_rows(rng, n, catalog, binary_channels=True):
    matrix = np.column_stack(
        [rng.integers(0, m, n) for m in catalog.cardinalities]
    ).astype(np.int32)
    if binary_channels:
        channels = rng.integers(0, 2, (n, 2)).astype(np.int64)
    else:
        channels = rng.integers(0, 5, (n, 2)).astype(np.int64)
    return matrix, channels


class TestPackedPrimitives:
    """The row-bitmap primitives of the item layer and the sharded miner."""

    @pytest.mark.parametrize("start,stop", [(0, 16), (8, 40), (0, 7)])
    def test_slice_matches_repacking(self, start, stop):
        rng = np.random.default_rng(1)
        dense = rng.random((4, 64)) < 0.5
        packed = np.packbits(dense, axis=1)
        out = slice_packed_bits(packed, start, stop)
        np.testing.assert_array_equal(
            out, np.packbits(dense[:, start:stop], axis=1)
        )

    @pytest.mark.parametrize("start,stop", [(3, 21), (5, 64), (63, 64)])
    def test_slice_rejects_unaligned_start(self, start, stop):
        packed = np.packbits(np.ones((4, 64), dtype=bool), axis=1)
        with pytest.raises(MiningError, match="byte-aligned"):
            slice_packed_bits(packed, start, stop)

    def test_slice_zeroes_padding_bits(self):
        dense = np.ones((2, 32), dtype=bool)
        packed = np.packbits(dense, axis=1)
        out = slice_packed_bits(packed, 0, 13)
        # 13 bits -> 2 bytes, last 3 bits of the second byte must be 0
        assert out.shape == (2, 2)
        assert (out[:, 1] & 0b00000111).max() == 0

    def test_dense_item_rows_roundtrip(self):
        catalog = make_catalog()
        rng = np.random.default_rng(10)
        matrix, _ = random_rows(rng, 25, catalog)
        item_rows = matrix + catalog.offsets[:-1].astype(np.int32)
        dense = dense_item_rows(item_rows, catalog.n_items)
        assert dense.shape == (catalog.n_items, 25)
        # every row sets exactly one bit per attribute
        assert (dense.sum(axis=0) == len(catalog.attributes)).all()
        for r in range(25):
            assert set(np.flatnonzero(dense[:, r])) == set(item_rows[r])


class TestStreamBuffer:
    def test_incremental_packing_matches_fresh_dataset(self):
        catalog = make_catalog()
        rng = np.random.default_rng(2)
        matrix, channels = random_rows(rng, 103, catalog)
        buffer = StreamBuffer(catalog, initial_capacity=16)
        # odd batch sizes cross the buffer's doubling boundaries
        for start, stop in [(0, 11), (11, 29), (29, 66), (66, 103)]:
            buffer.append(matrix[start:stop], channels[start:stop])
        assert buffer.n_rows == 103
        assert buffer.batches == 4
        fresh = TransactionDataset(matrix, catalog, channels)
        streamed = buffer.dataset()
        np.testing.assert_array_equal(
            streamed.packed_item_bitmaps, fresh.packed_item_bitmaps
        )
        np.testing.assert_array_equal(
            streamed.packed_channel_bitmaps, fresh.packed_channel_bitmaps
        )
        assert streamed.fingerprint() == fresh.fingerprint()

    @pytest.mark.parametrize("start,stop", [(0, 48), (16, 80), (13, 57)])
    def test_window_dataset_matches_fresh(self, start, stop):
        catalog = make_catalog()
        rng = np.random.default_rng(3)
        matrix, channels = random_rows(rng, 100, catalog)
        buffer = StreamBuffer(catalog, initial_capacity=8)
        for i in range(0, 100, 17):
            buffer.append(matrix[i : i + 17], channels[i : i + 17])
        window = buffer.window_dataset(start, stop)
        fresh = TransactionDataset(
            matrix[start:stop], catalog, channels[start:stop]
        )
        np.testing.assert_array_equal(
            window.packed_item_bitmaps, fresh.packed_item_bitmaps
        )
        assert window.fingerprint() == fresh.fingerprint()
        cache = MiningCache()
        mined_w = cache.mine(window, 0.1)
        mined_f = cache.mine(fresh, 0.1)
        assert set(mined_w) == set(mined_f)
        for key in mined_w:
            np.testing.assert_array_equal(
                mined_w.counts(key), mined_f.counts(key)
            )

    def test_capacity_doubles_and_preserves_data(self):
        catalog = make_catalog()
        rng = np.random.default_rng(4)
        matrix, channels = random_rows(rng, 200, catalog)
        buffer = StreamBuffer(catalog, initial_capacity=8)
        for i in range(0, 200, 9):
            buffer.append(matrix[i : i + 9], channels[i : i + 9])
        assert buffer.capacity >= 200
        np.testing.assert_array_equal(buffer.matrix, matrix)
        np.testing.assert_array_equal(buffer.channels, channels)

    def test_non_binary_channels_drop_packed_path(self):
        catalog = make_catalog()
        rng = np.random.default_rng(5)
        matrix, channels = random_rows(rng, 40, catalog, binary_channels=False)
        buffer = StreamBuffer(catalog)
        buffer.append(matrix, channels)
        # windows still materialize; their channels are mined as planes
        window = buffer.window_dataset(0, 40)
        assert not window.channels_binary
        with pytest.raises(MiningError):
            window.packed_channel_bitmaps
        np.testing.assert_array_equal(window.channels, channels)

    def test_append_validates_shapes_and_codes(self):
        catalog = make_catalog()
        buffer = StreamBuffer(catalog)
        with pytest.raises(MiningError):
            buffer.append(np.zeros((4, 3), np.int32), np.zeros((4, 2)))
        with pytest.raises(MiningError):
            buffer.append(np.zeros((4, 2), np.int32), np.zeros((3, 2)))
        bad = np.array([[5, 0]], dtype=np.int32)  # code 5 out of range
        with pytest.raises(MiningError):
            buffer.append(bad, np.zeros((1, 2)))

    def test_window_bounds_checked(self):
        catalog = make_catalog()
        buffer = StreamBuffer(catalog)
        buffer.append(
            np.zeros((10, 2), np.int32), np.zeros((10, 2), np.int64)
        )
        with pytest.raises(MiningError):
            buffer.window_dataset(0, 11)
        with pytest.raises(MiningError):
            buffer.window_dataset(5, 5)


class TestMiningCacheAliasRegression:
    """A buffer extended by more appends must never be served its
    shorter past self.

    Each ``StreamBuffer.dataset()`` is a new dataset over the rows held
    at the time, so its fingerprint names exactly those rows; if it did
    not, the MiningCache would key the longer buffer to the shorter
    one's entry and return stale counts.
    """

    def test_extend_changes_fingerprint(self):
        catalog = make_catalog()
        rng = np.random.default_rng(11)
        buffer = StreamBuffer(catalog)
        buffer.append(*random_rows(rng, 20, catalog))
        before = buffer.dataset().fingerprint()
        buffer.append(*random_rows(rng, 5, catalog))
        assert buffer.dataset().fingerprint() != before

    def test_cache_cannot_serve_stale_entry_after_extend(self):
        catalog = make_catalog()
        rng = np.random.default_rng(12)
        matrix, channels = random_rows(rng, 40, catalog)
        buffer = StreamBuffer(catalog, initial_capacity=8)
        buffer.append(matrix, channels)
        cache = MiningCache()
        first = cache.mine(buffer.dataset(), 0.01)
        assert first.counts(frozenset())[0] == 40
        more, more_ch = random_rows(rng, 24, catalog)
        buffer.append(more, more_ch)
        second = cache.mine(buffer.dataset(), 0.01)
        assert second.counts(frozenset())[0] == 64
        fresh = TransactionDataset(
            np.vstack([matrix, more]), catalog, np.vstack([channels, more_ch])
        )
        reference = MiningCache().mine(fresh, 0.01)
        assert set(second) == set(reference)
        for key in reference:
            np.testing.assert_array_equal(
                second.counts(key), reference.counts(key)
            )
