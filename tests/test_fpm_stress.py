"""Scale and adversarial-shape tests for the miners.

These are "does the engineering hold up" tests: larger data, skewed
supports, high-cardinality attributes and deep single-path trees (the
FP-growth fast path). Marked ``slow`` and excluded from the default
run; the benchmark suite runs them with ``-m ""``.
"""

import numpy as np
import pytest

from repro.fpm import EclatMiner
from repro.fpm.apriori import AprioriMiner
from repro.fpm.bitset import BitsetMiner
from repro.fpm.fpgrowth import FPGrowthMiner
from repro.fpm.transactions import ItemCatalog, TransactionDataset

pytestmark = pytest.mark.slow

MINERS = [AprioriMiner, FPGrowthMiner, EclatMiner, BitsetMiner]


class TestScale:
    def test_large_binary_dataset_consistency(self):
        rng = np.random.default_rng(0)
        n = 20_000
        matrix = rng.integers(0, 2, size=(n, 8))
        catalog = ItemCatalog([f"a{i}" for i in range(8)], [[0, 1]] * 8)
        channels = rng.integers(0, 2, size=(n, 2))
        ds = TransactionDataset(matrix, catalog, channels)
        results = {m.name: m().mine(ds, 0.05) for m in MINERS}
        keys = {name: set(r) for name, r in results.items()}
        assert keys["apriori"] == keys["fpgrowth"] == keys["eclat"] == keys["bitset"]
        reference = results["fpgrowth"]
        for key in reference:
            expected = reference.counts(key).tolist()
            assert results["apriori"].counts(key).tolist() == expected
            assert results["eclat"].counts(key).tolist() == expected
            assert results["bitset"].counts(key).tolist() == expected


class TestAdversarialShapes:
    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_all_rows_identical_single_path(self, miner_cls):
        # Every transaction identical: the FP-tree is one path; all
        # 2^d - 1 itemsets have full support.
        n, d = 50, 6
        matrix = np.zeros((n, d), dtype=int)
        catalog = ItemCatalog([f"a{i}" for i in range(d)], [[0, 1]] * d)
        channels = np.ones((n, 1), dtype=int)
        ds = TransactionDataset(matrix, catalog, channels)
        result = miner_cls().mine(ds, 0.99)
        assert len(result) == 2**d  # includes the empty itemset
        for key in result:
            assert result.support_count(key) == n
            assert int(result.counts(key)[1]) == n

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_high_cardinality_attribute(self, miner_cls):
        rng = np.random.default_rng(1)
        n = 2000
        matrix = np.column_stack(
            [rng.integers(0, 100, n), rng.integers(0, 2, n)]
        )
        catalog = ItemCatalog(["hi", "lo"], [list(range(100)), [0, 1]])
        ds = TransactionDataset(matrix, catalog)
        result = miner_cls().mine(ds, 0.02)
        # every emitted single item of the high-card column is >= 2%
        for key in result:
            if len(key) == 1 and next(iter(key)) < 100:
                assert result.support(key) >= 0.02

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_skewed_supports(self, miner_cls):
        # one dominant value (99%) and a rare one (1%)
        rng = np.random.default_rng(2)
        n = 5000
        col = (rng.random(n) < 0.01).astype(int)
        other = rng.integers(0, 2, n)
        matrix = np.column_stack([col, other])
        catalog = ItemCatalog(["rare", "even"], [[0, 1], [0, 1]])
        ds = TransactionDataset(matrix, catalog)
        at_2pct = miner_cls().mine(ds, 0.02)
        assert frozenset({1}) not in at_2pct  # the 1% item is excluded
        at_halfpct = miner_cls().mine(ds, 0.005)
        assert frozenset({1}) in at_halfpct

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_single_row(self, miner_cls):
        matrix = np.array([[0, 1]])
        catalog = ItemCatalog(["a", "b"], [[0, 1], [0, 1]])
        ds = TransactionDataset(matrix, catalog)
        result = miner_cls().mine(ds, 1.0)
        assert frozenset({0, 3}) in result

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_negative_channel_values_supported(self, miner_cls):
        # The continuous extension feeds signed fixed-point channels.
        matrix = np.array([[0], [0], [1]])
        catalog = ItemCatalog(["a"], [[0, 1]])
        channels = np.array([[-5], [3], [7]])
        ds = TransactionDataset(matrix, catalog, channels)
        result = miner_cls().mine(ds, 0.3)
        assert result.counts(frozenset({0})).tolist() == [2, -2]
        assert result.counts(frozenset({1})).tolist() == [1, 7]
