"""Tests for the ECLAT miner (agreement with the oracle, Thm 5.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpm import EclatMiner
from repro.fpm.bruteforce import BruteForceMiner
from repro.fpm.miner import mine_frequent
from tests.conftest import make_random_dataset
from tests.test_fpm_miners import tiny_dataset


class TestHandChecked:
    def test_supports_exact(self):
        result = EclatMiner().mine(tiny_dataset(), min_support=1 / 6)
        assert result.support_count(frozenset({0})) == 3
        assert result.support_count(frozenset({1, 3})) == 2

    def test_channel_sums_exact(self):
        result = EclatMiner().mine(tiny_dataset(), min_support=1 / 6)
        assert result.counts(frozenset({0})).tolist() == [3, 2, 1]
        assert result.counts(frozenset({1, 3})).tolist() == [2, 1, 0]

    def test_max_length(self):
        result = EclatMiner().mine(tiny_dataset(), min_support=0.1, max_length=1)
        assert result.max_length() == 1

    def test_registered_in_dispatch(self):
        result = mine_frequent(tiny_dataset(), 0.2, algorithm="eclat")
        assert result.totals.tolist() == [6, 3, 2]


class TestAgreement:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("support", [0.02, 0.15, 0.5])
    def test_matches_bruteforce(self, seed, support):
        ds = make_random_dataset(seed)
        oracle = BruteForceMiner().mine(ds, support)
        result = EclatMiner().mine(ds, support)
        assert set(result) == set(oracle)
        for key in oracle:
            assert result.counts(key).tolist() == oracle.counts(key).tolist()

    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(5, 50),
        n_attrs=st.integers(1, 4),
        support=st.floats(0.02, 0.9),
    )
    @settings(max_examples=30, deadline=None)
    def test_agreement_property(self, seed, n_rows, n_attrs, support):
        ds = make_random_dataset(seed, n_rows=n_rows, n_attrs=n_attrs)
        oracle = BruteForceMiner().mine(ds, support)
        result = EclatMiner().mine(ds, support)
        assert set(result) == set(oracle)
        for key in oracle:
            assert result.counts(key).tolist() == oracle.counts(key).tolist()

    def test_no_channels(self):
        rng = np.random.default_rng(0)
        from repro.fpm.transactions import ItemCatalog, TransactionDataset

        matrix = rng.integers(0, 2, size=(60, 3))
        catalog = ItemCatalog(["a", "b", "c"], [[0, 1]] * 3)
        ds = TransactionDataset(matrix, catalog)
        result = EclatMiner().mine(ds, 0.1)
        oracle = BruteForceMiner().mine(ds, 0.1)
        assert set(result) == set(oracle)
