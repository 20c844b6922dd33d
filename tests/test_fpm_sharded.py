"""Row-sharded parallel mining: bit-identity, planning, dispatch, cache.

The engine's contract is exact equivalence with the serial miners: the
merged per-itemset count vectors must be *bit-identical* to a serial
run for every worker count, including degenerate shard plans (empty
shards, one-row shards) and the incomplete-channel path (⊥ rows). That
contract is what lets :class:`~repro.fpm.cache.MiningCache` ignore the
shard plan in its keys — also pinned here.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MiningError, ReproError
from repro.fpm import transactions
from repro.fpm.cache import MiningCache
from repro.fpm.miner import mine_frequent
from repro.fpm.sharded import (
    AUTO_ROW_THRESHOLD,
    get_pool,
    mine_sharded,
    resolve_workers,
    shardable,
    shutdown_pools,
)
from repro.fpm.transactions import (
    ItemCatalog,
    ItemLayer,
    TransactionDataset,
    plan_shards,
)
from repro.params import validate_workers


def make_dataset(
    n: int,
    attrs: int = 5,
    card: int = 3,
    seed: int = 0,
    bottom: float = 0.0,
    n_channels: int = 2,
) -> TransactionDataset:
    """Synthetic dataset; ``bottom`` adds all-zero-channel (⊥) rows."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, card, size=(n, attrs), dtype=np.int32)
    catalog = ItemCatalog(
        [f"a{j}" for j in range(attrs)],
        [[f"v{c}" for c in range(card)]] * attrs,
    )
    if n_channels == 0:
        return TransactionDataset(
            matrix, catalog, np.empty((n, 0), dtype=np.int64)
        )
    outcome = rng.random(n) < 0.5
    channels = np.stack([outcome, ~outcome], axis=1).astype(np.int64)
    if bottom:
        channels[rng.random(n) < bottom] = 0
    return TransactionDataset(matrix, catalog, channels)


def assert_identical(sharded, serial) -> None:
    assert len(sharded) == len(serial)
    for key in sharded:
        assert np.array_equal(sharded.counts(key), serial.counts(key)), key


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()


class TestPlanShards:
    def test_bounds_cover_rows_and_are_64_aligned(self):
        bounds = plan_shards(1_000, 4)
        assert bounds[0] == 0 and bounds[-1] == 1_000
        assert bounds == sorted(bounds)
        for b in bounds[:-1]:
            assert b % 64 == 0

    def test_small_n_yields_empty_trailing_shards(self):
        # 50 rows round up to one 64-aligned shard; the rest are empty.
        bounds = plan_shards(50, 4)
        assert bounds == [0, 50, 50, 50, 50]

    def test_one_row_shard(self):
        assert plan_shards(65, 2) == [0, 64, 65]

    def test_single_shard_is_whole_range(self):
        assert plan_shards(123, 1) == [0, 123]

    def test_invalid_shard_count(self):
        with pytest.raises(MiningError):
            plan_shards(10, 0)


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_identical_to_serial(self, workers):
        ds = make_dataset(10_000)
        serial = mine_frequent(ds, 0.05)
        assert_identical(mine_sharded(ds, 0.05, workers), serial)

    def test_incomplete_channels_bottom_rows(self):
        # ⊥ rows break the complete-partition optimization; counts must
        # still match the serial miner exactly.
        ds = make_dataset(8_000, bottom=0.3)
        serial = mine_frequent(ds, 0.05)
        assert_identical(mine_sharded(ds, 0.05, 3), serial)

    def test_empty_shards(self):
        # 50 rows over 4 shards: three shards hold zero rows.
        ds = make_dataset(50, attrs=4, card=2)
        serial = mine_frequent(ds, 0.1)
        assert_identical(mine_sharded(ds, 0.1, 4), serial)

    def test_one_row_shard(self):
        # 65 rows over 2 shards: the second shard holds a single row.
        ds = make_dataset(65, attrs=4, card=2)
        serial = mine_frequent(ds, 0.1)
        assert_identical(mine_sharded(ds, 0.1, 2), serial)

    def test_no_channels(self):
        ds = make_dataset(5_000, n_channels=0)
        serial = mine_frequent(ds, 0.05)
        assert_identical(mine_sharded(ds, 0.05, 2), serial)

    @pytest.mark.parametrize("max_length", [0, 1, 2])
    def test_max_length(self, max_length):
        ds = make_dataset(5_000, attrs=6)
        serial = mine_frequent(ds, 0.05, max_length=max_length)
        assert_identical(
            mine_sharded(ds, 0.05, 2, max_length=max_length), serial
        )

    def test_identical_to_fpgrowth(self):
        ds = make_dataset(5_000, seed=3)
        serial = mine_frequent(ds, 0.05, algorithm="fpgrowth")
        assert_identical(mine_sharded(ds, 0.05, 3), serial)

    @given(
        seed=st.integers(0, 1_000),
        workers=st.integers(2, 5),
        algorithm=st.sampled_from(["bitset", "fpgrowth"]),
        support=st.sampled_from([0.02, 0.1, 0.4]),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_identical(self, seed, workers, algorithm, support):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 400))
        ds = make_dataset(n, attrs=4, card=3, seed=seed, bottom=0.1)
        serial = mine_frequent(ds, support, algorithm=algorithm)
        assert_identical(mine_sharded(ds, support, workers), serial)


class TestDispatch:
    def test_mine_frequent_routes_to_sharded(self):
        ds = make_dataset(3_000)
        serial = mine_frequent(ds, 0.05)
        assert_identical(mine_frequent(ds, 0.05, n_workers=2), serial)

    def test_none_and_one_are_serial(self):
        ds = make_dataset(100)
        assert resolve_workers(None, ds) == 1
        assert resolve_workers(1, ds) == 1

    def test_auto_stays_serial_below_threshold(self):
        ds = make_dataset(100)
        assert ds.n_rows < AUTO_ROW_THRESHOLD
        assert resolve_workers(0, ds) == 1

    def test_explicit_count_shards_small_data(self):
        ds = make_dataset(100)
        assert resolve_workers(4, ds) == 4

    def test_negative_workers_rejected(self):
        ds = make_dataset(100)
        with pytest.raises(MiningError):
            resolve_workers(-1, ds)

    def test_non_binary_channels_shard_bit_identically(self):
        # Dense (non-binary) channels ship raw values per shard and sum
        # by row masks — sharded results stay bit-identical to serial.
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 2, size=(200, 3), dtype=np.int32)
        catalog = ItemCatalog(
            [f"a{j}" for j in range(3)], [["v0", "v1"]] * 3
        )
        channels = rng.integers(-5, 5, size=(200, 2))  # raw value channels
        ds = TransactionDataset(matrix, catalog, channels)
        assert shardable(ds)
        assert resolve_workers(4, ds) == 4
        serial = mine_frequent(ds, 0.1)
        routed = mine_frequent(ds, 0.1, n_workers=4)
        assert_identical(routed, serial)

    def test_mine_sharded_rejects_serial_counts(self):
        ds = make_dataset(100)
        with pytest.raises(MiningError):
            mine_sharded(ds, 0.1, 1)

    def test_pool_is_persistent_across_runs(self):
        ds = make_dataset(1_000)
        mine_sharded(ds, 0.1, 2)
        pool = get_pool(2)
        mine_sharded(ds, 0.1, 2)
        assert get_pool(2) is pool
        assert pool.alive()


class TestCacheInteraction:
    def test_serial_entry_serves_sharded_request(self):
        # Satellite: the cache key must NOT include the shard plan —
        # a serially-mined entry is reused verbatim by a sharded run.
        cache = MiningCache()
        ds = make_dataset(2_000)
        serial = cache.mine(ds, 0.05)  # miss, mined serially
        assert cache.stats.misses == 1
        sharded = cache.mine(ds, 0.05, n_workers=3)
        assert cache.stats.hits == 1
        assert sharded is serial  # exact hit returns the same object

    def test_sharded_entry_serves_serial_request(self):
        cache = MiningCache()
        ds = make_dataset(2_000, seed=5)
        first = cache.mine(ds, 0.05, n_workers=2)
        assert cache.stats.misses == 1
        second = cache.mine(ds, 0.05)
        assert cache.stats.hits == 1
        assert second is first


class TestValidateWorkers:
    @pytest.mark.parametrize("value,expected", [("0", 0), ("1", 1), (4, 4)])
    def test_accepts(self, value, expected):
        assert validate_workers(value) == expected

    @pytest.mark.parametrize("bad", ["-1", "banana", "2.5", None, ""])
    def test_rejects(self, bad):
        with pytest.raises(ReproError):
            validate_workers(bad)

    def test_cli_rejects_bad_workers_with_exit_2(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["explore", "--dataset", "compas", "--workers", "-3"]
            )
        assert excinfo.value.code == 2

    def test_cli_accepts_workers(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["explore", "--dataset", "compas", "--workers", "2"]
        )
        assert args.workers == 2


class TestExplorerIntegration:
    def test_explore_sharded_equals_serial(self, small_table):
        from repro.core.divergence import DivergenceExplorer

        explorer = DivergenceExplorer(small_table, "class", "pred")
        serial = explorer.explore("fpr", min_support=0.2, use_cache=False)
        sharded = explorer.explore(
            "fpr", min_support=0.2, use_cache=False, n_workers=2
        )
        assert set(serial.divergence_map) == set(sharded.divergence_map)
        for key, value in serial.divergence_map.items():
            np.testing.assert_equal(sharded.divergence_map[key], value)


def worker_pin_dataset(rng, kind: str, n: int, workers: int) -> TransactionDataset:
    """A dataset of one channel kind the coverage-only workers must sum."""
    card = 2 if kind == "grouped" else 3
    attrs = 3 if kind == "grouped" else 4
    matrix = rng.integers(0, card, size=(n, attrs), dtype=np.int32)
    catalog = ItemCatalog(
        [f"a{j}" for j in range(attrs)], [list(range(card))] * attrs
    )
    if kind == "dense":
        # Fixed-point channels: many bit planes, negative minima.
        channels = rng.integers(-(2**20), 2**20, size=(n, 2))
        return TransactionDataset(matrix, catalog, channels)
    k = 3 if kind == "grouped" else 2
    channels = np.eye(k, dtype=np.int64)[rng.integers(0, k, n)]
    if kind == "grouped":
        # One-hot (T, F, ⊥) summed per distinct row: the channels
        # partition each row's multiplicity.
        layer = ItemLayer(matrix, catalog, group=True)
        assert layer.multiplicity is not None
        return layer.dataset(channels)
    if kind == "bottom":
        # ⊥ rows in one shard only: the other shards look complete.
        bounds = plan_shards(n, workers)
        shard = int(rng.choice(np.flatnonzero(np.diff(bounds))))
        rows = np.arange(bounds[shard], bounds[shard + 1])
        channels[rows[rng.random(len(rows)) < 0.5]] = 0
        channels[rows[0]] = 0
    return TransactionDataset(matrix, catalog, channels)


class TestCoverageOnlyWorkers:
    """Workers hold coverage only and run the serial engine's tiles; the
    last channel of a row partition is restored from the support."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["complete", "grouped", "bottom", "dense"]),
        n=st.sampled_from((70, 150, 190)),
        workers=st.integers(2, 3),
        max_length=st.sampled_from((None, 1, 2, 3)),
        pairs=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_sharded_equals_serial_and_bruteforce(
        self, seed, kind, n, workers, max_length, pairs
    ):
        rng = np.random.default_rng(seed)
        dataset = worker_pin_dataset(rng, kind, n, workers)
        complete = kind in ("complete", "grouped")
        kernel_channels = dataset.kernel_planes[1].shape[1]
        assert kernel_channels == dataset.n_channels - complete
        want = mine_frequent(
            dataset, 0.02, algorithm="bruteforce", max_length=max_length
        )
        serial = mine_frequent(dataset, 0.02, max_length=max_length)
        assert_identical(serial, want)
        # Pools fork before the patch: the tile reaches the workers in
        # the load message, 1-3 pairs on shards of one or two words.
        get_pool(workers)
        with mock.patch.object(transactions, "_PLANE_TILE", pairs):
            sharded = mine_sharded(dataset, 0.02, workers, max_length=max_length)
        assert_identical(sharded, want)
