"""Tests for the three miners: correctness, agreement, Thm 5.1.

The brute-force enumerator serves as the oracle; Apriori and FP-growth
must agree with it exactly — same frequent itemsets (completeness), same
supports and same outcome-channel tallies (soundness), for any data and
support threshold. This is the test-suite embodiment of Theorem 5.1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MiningError
from repro.fpm import EclatMiner
from repro.fpm.bitset import AprioriMiner
from repro.fpm.bitset import BitsetMiner
from repro.fpm.bruteforce import BruteForceMiner
from repro.fpm.fpgrowth import FPGrowthMiner
from repro.fpm.miner import FrequentItemsets, Miner, mine_frequent
from repro.fpm.transactions import ItemCatalog, TransactionDataset
from tests.conftest import make_random_dataset

MINERS = [AprioriMiner, FPGrowthMiner, BruteForceMiner, EclatMiner, BitsetMiner]


def tiny_dataset() -> TransactionDataset:
    """Hand-checkable 6-row dataset over 2 attributes."""
    matrix = np.array(
        [[0, 0], [0, 0], [0, 1], [1, 0], [1, 1], [1, 1]]
    )
    catalog = ItemCatalog(["a", "b"], [[0, 1], [0, 1]])
    channels = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [1, 0], [0, 0]])
    return TransactionDataset(matrix, catalog, channels)


class TestHandChecked:
    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_supports_exact(self, miner_cls):
        result = miner_cls().mine(tiny_dataset(), min_support=1 / 6)
        # a=0 appears in rows 0,1,2 -> support 3
        assert result.support_count(frozenset({0})) == 3
        # b=1 appears in rows 2,4,5 -> support 3
        assert result.support_count(frozenset({3})) == 3
        # {a=1, b=1} rows 4,5 -> support 2
        assert result.support_count(frozenset({1, 3})) == 2

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_channel_sums_exact(self, miner_cls):
        result = miner_cls().mine(tiny_dataset(), min_support=1 / 6)
        # {a=0}: rows 0,1,2 -> T=2, F=1
        assert result.counts(frozenset({0})).tolist() == [3, 2, 1]
        # {a=1, b=1}: rows 4,5 -> T=1, F=0
        assert result.counts(frozenset({1, 3})).tolist() == [2, 1, 0]

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_threshold_excludes(self, miner_cls):
        result = miner_cls().mine(tiny_dataset(), min_support=0.5)
        assert frozenset({0}) in result  # support 3/6
        assert frozenset({1, 3}) not in result  # support 2/6

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_empty_itemset_totals(self, miner_cls):
        result = miner_cls().mine(tiny_dataset(), min_support=0.2)
        assert result.totals.tolist() == [6, 3, 2]

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_max_length_zero(self, miner_cls):
        result = miner_cls().mine(tiny_dataset(), min_support=0.1, max_length=0)
        assert len(result) == 1  # only the empty itemset

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_max_length_one(self, miner_cls):
        result = miner_cls().mine(tiny_dataset(), min_support=0.1, max_length=1)
        assert result.max_length() == 1

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_same_attribute_items_never_joint(self, miner_cls):
        result = miner_cls().mine(tiny_dataset(), min_support=0.01)
        for key in result:
            cols = [0 if item < 2 else 1 for item in key]
            assert len(set(cols)) == len(cols)


class TestValidation:
    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_bad_support_rejected(self, miner_cls):
        with pytest.raises(MiningError):
            miner_cls().mine(tiny_dataset(), min_support=0.0)
        with pytest.raises(MiningError):
            miner_cls().mine(tiny_dataset(), min_support=1.5)

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_empty_dataset_rejected(self, miner_cls):
        cat = ItemCatalog(["a"], [[0]])
        ds = TransactionDataset(np.empty((0, 1), dtype=int), cat)
        with pytest.raises(MiningError):
            miner_cls().mine(ds, min_support=0.5)

    def test_unknown_algorithm(self):
        with pytest.raises(MiningError):
            mine_frequent(tiny_dataset(), 0.5, algorithm="quantum")

    def test_frequent_itemsets_requires_empty_key(self):
        with pytest.raises(MiningError):
            FrequentItemsets({frozenset({1}): np.array([1])}, 1, 0.5)

    def test_missing_itemset_lookup(self):
        result = FPGrowthMiner().mine(tiny_dataset(), min_support=0.9)
        with pytest.raises(MiningError):
            result.counts(frozenset({0, 3}))
        assert result.get(frozenset({0, 3})) is None


def counted_dataset() -> TransactionDataset:
    """10 rows, one attribute: value 0 ×5, value 1 ×3, value 2 ×2.

    The catalog also declares a value 3 that never occurs, to pin the
    zero-coverage behaviour.
    """
    matrix = np.array([[0]] * 5 + [[1]] * 3 + [[2]] * 2)
    catalog = ItemCatalog(["a"], [[0, 1, 2, 3]])
    return TransactionDataset(matrix, catalog)


class TestSupportThreshold:
    """Regression: ``min_count = ceil(s * n)`` exactly, clamped to 1.

    ``n_rows=10, min_support=0.25`` must mean "at least 3 rows" — a
    float-rounded ``int(s * n)`` or a ``floor`` would wrongly admit
    count-2 patterns.
    """

    def test_validate_boundaries(self):
        ds = counted_dataset()
        assert Miner._validate(ds, 0.25, None) == 3
        assert Miner._validate(ds, 0.2, None) == 2
        assert Miner._validate(ds, 0.3, None) == 3
        assert Miner._validate(ds, 1.0, None) == 10
        assert Miner._validate(ds, 1e-12, None) == 1  # clamped, never 0

    def test_validate_is_robust_to_float_representation(self):
        # 0.1 * 3 = 0.30000000000000004; ceil must not bump 3 to 4 when
        # the product is a hair above an integer for representation
        # reasons only.
        matrix = np.array([[0]] * 30)
        catalog = ItemCatalog(["a"], [[0]])
        ds = TransactionDataset(matrix, catalog)
        assert Miner._validate(ds, 0.1, None) == 3

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_quarter_support_needs_three_rows(self, miner_cls):
        result = miner_cls().mine(counted_dataset(), min_support=0.25)
        assert frozenset({0}) in result  # count 5
        assert frozenset({1}) in result  # count 3 == threshold
        assert frozenset({2}) not in result  # count 2 < threshold

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_fifth_support_admits_two_rows(self, miner_cls):
        result = miner_cls().mine(counted_dataset(), min_support=0.2)
        assert frozenset({2}) in result

    @pytest.mark.parametrize("miner_cls", MINERS)
    def test_zero_coverage_items_never_emitted(self, miner_cls):
        result = miner_cls().mine(counted_dataset(), min_support=1e-9)
        assert frozenset({3}) not in result


class TestAgreement:
    """Theorem 5.1: Apriori and FP-growth are sound and complete."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("support", [0.02, 0.1, 0.3, 0.7])
    def test_three_way_agreement(self, seed, support):
        ds = make_random_dataset(seed)
        oracle = BruteForceMiner().mine(ds, support)
        for miner_cls in (AprioriMiner, FPGrowthMiner):
            result = miner_cls().mine(ds, support)
            assert set(result) == set(oracle), miner_cls.name
            for key in oracle:
                assert result.counts(key).tolist() == oracle.counts(key).tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_with_max_length(self, seed):
        ds = make_random_dataset(seed)
        oracle = BruteForceMiner().mine(ds, 0.05, max_length=2)
        for miner_cls in (AprioriMiner, FPGrowthMiner):
            result = miner_cls().mine(ds, 0.05, max_length=2)
            assert set(result) == set(oracle)

    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(5, 60),
        n_attrs=st.integers(1, 4),
        card=st.integers(1, 4),
        support=st.floats(0.01, 0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_agreement_property(self, seed, n_rows, n_attrs, card, support):
        ds = make_random_dataset(seed, n_rows=n_rows, n_attrs=n_attrs, card=card)
        oracle = BruteForceMiner().mine(ds, support)
        apriori = AprioriMiner().mine(ds, support)
        fpgrowth = FPGrowthMiner().mine(ds, support)
        assert set(apriori) == set(oracle)
        assert set(fpgrowth) == set(oracle)
        for key in oracle:
            expected = oracle.counts(key).tolist()
            assert apriori.counts(key).tolist() == expected
            assert fpgrowth.counts(key).tolist() == expected


class TestDownwardClosure:
    @pytest.mark.parametrize("miner_cls", [AprioriMiner, FPGrowthMiner])
    def test_all_subsets_of_frequent_are_frequent(self, miner_cls):
        ds = make_random_dataset(3, n_rows=200, n_attrs=5)
        result = miner_cls().mine(ds, 0.05)
        for key in result:
            for item in key:
                assert key - {item} in result

    def test_support_antimonotone(self):
        ds = make_random_dataset(5, n_rows=300, n_attrs=4)
        result = FPGrowthMiner().mine(ds, 0.02)
        for key in result:
            for item in key:
                assert result.support_count(key) <= result.support_count(
                    key - {item}
                )
