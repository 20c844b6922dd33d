"""Pins of the bit-sliced channel-sum kernel.

Every miner sums its channels through one kernel: channel ``c`` is
stored as bit planes of its offsets from the column minimum, and

    Σ_c = (popcount(cov & planes) @ weights)[c] + support · vmin[c]

(:func:`~repro.fpm.transactions.bit_planes`,
:func:`~repro.fpm.transactions.plane_sums`,
:func:`~repro.fpm.transactions.add_offsets`). The arithmetic is int64
mod 2**64, so the result must equal ``channels[mask].sum(axis=0)`` bit
for bit on any input — negative values, constant columns, merged
planes, and values large enough that Σ(v − vmin) wraps before
``support · vmin`` is added — on both popcount paths.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fpm.bitset as bitset_module
import repro.fpm.transactions as transactions_module
from repro.core.fixedpoint import SCALE, encode_weight_channels
from repro.fpm.bitset import _as_words
from repro.fpm.miner import mine_frequent
from repro.fpm.transactions import (
    ItemCatalog,
    TransactionDataset,
    add_offsets,
    bit_planes,
    plane_sums,
    popcount_rows,
)
from repro.stream import StreamBuffer

COLUMN_KINDS = ("random", "negative", "constant", "single", "headroom", "full")
ROW_COUNTS = (1, 5, 9, 63, 65, 127, 130, 200)
# The popcount-path fixture patches module state once per test; every
# hypothesis example runs under the same patch.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]


def make_column(rng, kind: str, n_rows: int) -> np.ndarray:
    if kind == "random":
        return rng.integers(0, 2**30, n_rows, dtype=np.int64)
    if kind == "negative":
        return rng.integers(-(2**40), 2**20, n_rows, dtype=np.int64)
    if kind == "constant":  # no planes at all: the sum is support · vmin
        return np.full(n_rows, int(rng.integers(-(2**40), 2**40)), np.int64)
    if kind == "single":  # {0, v}: every non-zero plane is the same
        value = int(rng.integers(1, 2**40))
        return np.where(rng.random(n_rows) < 0.5, value, 0).astype(np.int64)
    if kind == "headroom":
        # The encoder's bound: n · max|v| <= 2**62. Offsets reach
        # 2**63 / n, so their sum can leave the int64 range.
        bound = 2**62 // n_rows
        return rng.integers(-bound, bound + 1, n_rows, dtype=np.int64)
    # "full": the whole int64 range; Σ(v − vmin) wraps mod 2**64.
    return rng.integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, n_rows,
        dtype=np.int64, endpoint=True,
    )


@pytest.fixture(params=["bitwise_count", "lut"])
def popcount_path(request, monkeypatch):
    """Run a test on the hardware popcount and on the byte lookup table."""
    if request.param == "lut":
        monkeypatch.setattr(transactions_module, "_HAS_BITWISE_COUNT", False)
        monkeypatch.setattr(bitset_module, "_HAS_BITWISE_COUNT", False)
    elif not transactions_module._HAS_BITWISE_COUNT:
        pytest.skip("numpy has no bitwise_count")
    return request.param


def kernel_sums(channels: np.ndarray, masks: np.ndarray) -> np.ndarray:
    planes, weights, vmin = bit_planes(channels)
    coverage = np.packbits(masks, axis=1)
    planes, coverage = _as_words(planes), _as_words(coverage)
    sums = plane_sums(planes, weights)(coverage)
    return add_offsets(sums, popcount_rows(coverage), vmin)


class TestKernelMatchesRowSums:
    @settings(max_examples=60, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from(ROW_COUNTS),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=4),
    )
    def test_sums_equal_masked_row_sums(self, popcount_path, seed, n_rows, kinds):
        rng = np.random.default_rng(seed)
        channels = np.column_stack([make_column(rng, k, n_rows) for k in kinds])
        density = rng.random(6)
        masks = rng.random((6, n_rows)) < density[:, None]
        masks[0] = False  # empty coverage
        masks[1] = True  # every row
        got = kernel_sums(channels, masks)
        want = np.stack([channels[m].sum(axis=0) for m in masks])
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_many_survivors_run_in_tiles(self, popcount_path, monkeypatch):
        # A tile far smaller than the survivor block forces the tiled path.
        monkeypatch.setattr(transactions_module, "_PLANE_TILE", 3)
        rng = np.random.default_rng(1)
        channels = np.column_stack(
            [make_column(rng, "negative", 130), make_column(rng, "single", 130)]
        )
        masks = rng.random((40, 130)) < 0.3
        got = kernel_sums(channels, masks)
        want = np.stack([channels[m].sum(axis=0) for m in masks])
        assert np.array_equal(got, want)

    def test_no_planes_many_survivors(self, popcount_path, monkeypatch):
        # Constant channels have no planes; the tiled path must still
        # return the (zero) offset sums for every survivor.
        monkeypatch.setattr(transactions_module, "_PLANE_TILE", 3)
        rng = np.random.default_rng(5)
        channels = make_column(rng, "constant", 70)[:, None]
        masks = rng.random((20, 70)) < 0.5
        got = kernel_sums(channels, masks)
        want = np.stack([channels[m].sum(axis=0) for m in masks])
        assert np.array_equal(got, want)

    def test_plane_counts(self):
        rng = np.random.default_rng(2)
        constant = np.full(100, -7, dtype=np.int64)
        planes, weights, vmin = bit_planes(constant[:, None])
        assert planes.shape == (0, 13) and vmin.tolist() == [-7]
        # topk's (Σw, Σw²) channels are both {0, SCALE}: the non-zero bit
        # planes of both channels are one membership bitmap.
        member = rng.random(100) < 0.3
        channels = encode_weight_channels(member.astype(float))
        planes, weights, vmin = bit_planes(channels)
        assert planes.shape[0] == 1
        assert weights.tolist() == [[SCALE, SCALE]]
        assert vmin.tolist() == [0, 0]
        assert np.array_equal(planes[0], np.packbits(member))

    def test_binary_channels_are_identity_planes(self):
        catalog = ItemCatalog(["a"], [[0, 1]])
        matrix = np.array([[0], [1], [1], [0], [1]])
        channels = np.array([[1, 0], [0, 1], [1, 0], [0, 0], [0, 1]])
        dataset = TransactionDataset(matrix, catalog, channels)
        planes, weights, vmin = dataset.channel_planes
        assert planes is dataset.packed_channel_bitmaps
        assert np.array_equal(weights, np.eye(2, dtype=np.int64))
        assert vmin.tolist() == [0, 0]


def random_dataset(rng, n_rows: int, channels: np.ndarray) -> TransactionDataset:
    catalog = ItemCatalog(["a", "b", "c"], [[0, 1, 2], [0, 1], [0, 1, 2, 3]])
    matrix = np.column_stack(
        [rng.integers(0, m, n_rows) for m in catalog.cardinalities]
    )
    return TransactionDataset(matrix, catalog, channels)


def assert_same_mine(got, want):
    assert set(got) == set(want)
    for key in want:
        assert np.array_equal(got.counts(key), want.counts(key)), key


class TestMinersMatchOracle:
    @settings(max_examples=15, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from((9, 63, 130, 200)),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=3),
    )
    def test_bitset_equals_bruteforce(self, popcount_path, seed, n_rows, kinds):
        rng = np.random.default_rng(seed)
        channels = np.column_stack([make_column(rng, k, n_rows) for k in kinds])
        dataset = random_dataset(rng, n_rows, channels)
        want = mine_frequent(dataset, 0.05, algorithm="bruteforce")
        assert_same_mine(mine_frequent(dataset, 0.05, algorithm="bitset"), want)

    @pytest.mark.parametrize("kind", ["negative", "single", "full"])
    def test_sharded_equals_bruteforce(self, kind):
        rng = np.random.default_rng(3)
        channels = np.column_stack(
            [make_column(rng, kind, 190), make_column(rng, "constant", 190)]
        )
        dataset = random_dataset(rng, 190, channels)
        want = mine_frequent(dataset, 0.05, algorithm="bruteforce")
        for workers in (2, 3):
            assert_same_mine(mine_frequent(dataset, 0.05, n_workers=workers), want)


class TestExtendRebuildsPlanes:
    """A stream buffer extended by a batch that lowers a channel minimum
    yields a dataset whose planes cover every row."""

    def test_batch_lowering_a_minimum(self):
        rng = np.random.default_rng(4)
        channels = rng.integers(0, 1000, (150, 2), dtype=np.int64)
        first = random_dataset(rng, 150, channels)
        buffer = StreamBuffer(first.catalog)
        buffer.append(first.matrix, channels)
        before = buffer.dataset()
        mine_frequent(before, 0.05)  # builds and caches the planes
        assert before.channel_planes[2].tolist() == channels.min(axis=0).tolist()
        more = random_dataset(rng, 37, rng.integers(-5000, 10, (37, 2)))
        buffer.append(more.matrix, more.channels)
        dataset = buffer.dataset()
        fresh = TransactionDataset(
            np.vstack([first.matrix, more.matrix]),
            first.catalog,
            np.vstack([channels, more.channels]),
        )
        assert dataset.channel_planes[2].tolist() == fresh.channels.min(axis=0).tolist()
        want = mine_frequent(fresh, 0.05, algorithm="bruteforce")
        assert_same_mine(mine_frequent(dataset, 0.05), want)
        assert_same_mine(mine_frequent(dataset, 0.05, n_workers=2), want)
