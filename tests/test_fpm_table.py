"""Pins of the columnar itemset table.

:class:`~repro.fpm.miner.FrequentItemsets` keeps one layout: a canonical
``(N, L)`` uint32 key matrix and an ``(N, 1 + k)`` int64 count matrix,
with one key-to-row lookup. Point lookups, iteration and
``count_table()`` must answer exactly as the dict built from the same
mapping does — for every backend, the sharded engine and the mapping
constructor — and a held result must keep no Python object per itemset.
"""

import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DivergenceExplorer, datasets
from repro.exceptions import MiningError
from repro.fpm import miner as miner_module
from repro.fpm.miner import FrequentItemsets, mine_frequent, pack_keys
from repro.fpm.transactions import ItemCatalog, TransactionDataset
from tests.oracles import pack_keys_reference

CATALOG = ItemCatalog(
    ["a", "b", "c", "d"], [[0, 1, 2], [0, 1], [0, 1, 2, 3], [0, 1]]
)
BACKENDS = ("bitset", "eclat", "apriori", "fpgrowth", "bruteforce")


def mined_tables(seed, n_rows, min_support, max_length):
    """``(name, table)`` of every backend and the sharded engine."""
    rng = np.random.default_rng(seed)
    matrix = np.column_stack(
        [rng.integers(0, m, n_rows) for m in CATALOG.cardinalities]
    )
    channels = rng.integers(0, 2, (n_rows, 2))
    dataset = TransactionDataset(matrix, CATALOG, channels)
    for algorithm in BACKENDS:
        yield algorithm, mine_frequent(
            dataset, min_support, algorithm=algorithm, max_length=max_length
        )
    yield "sharded", mine_frequent(
        dataset, min_support, max_length=max_length, n_workers=2
    )


def probes(rng, mapping, table):
    """Present keys, absent keys, over-wide keys (a longest key plus one
    more id), keys with an id no table holds and the empty itemset, each
    as a list in a random item order, some with an id repeated."""
    n_items = CATALOG.n_items
    keys = list(mapping)
    keys += [
        frozenset(rng.choice(n_items + 3, size=int(size), replace=False).tolist())
        for size in rng.integers(1, 5, 20)
    ]
    longest = [key for key in mapping if len(key) == table.max_length()]
    keys += [key | {n_items + 2} for key in longest[:5]]
    keys += [key | {-1} for key in longest[:3]]
    keys += [frozenset(range(n_items)), frozenset()]
    lists = [rng.permutation(sorted(key)).tolist() for key in keys]
    return lists + [ids + ids[:1] for ids in lists[::7]]


def assert_matches_mapping(table, mapping, rng):
    keys, matrix = table.count_table()
    assert keys == list(table)
    assert all(type(i) is int for key in keys for i in key)
    assert set(keys) == set(mapping) and len(table) == len(mapping)
    for key, row in zip(keys, matrix):
        assert np.array_equal(row, mapping[key])
    assert table.max_length() == max(map(len, mapping))
    assert np.array_equal(table.totals, mapping[frozenset()])
    queries = probes(rng, mapping, table)
    rows = table.rows_of(queries)
    for query, row in zip(queries, rows.tolist()):
        want = mapping.get(frozenset(query))
        assert (query in table) == (want is not None)
        assert table.row_of(query) == row
        got = table.get(query)
        if want is None:
            assert got is None and row == -1
            with pytest.raises(MiningError):
                table.counts(query)
            with pytest.raises(MiningError):
                table.support_count(query)
        else:
            assert np.array_equal(got, want)
            assert np.array_equal(table.counts(query), want)
            assert table.support_count(query) == int(want[0])


class TestPointLookupsMatchTheMapping:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from((1, 40, 150)),
        min_support=st.sampled_from((0.01, 0.1, 0.4)),
        max_length=st.sampled_from((None, 0, 1, 3)),
    )
    def test_every_backend(self, seed, n_rows, min_support, max_length):
        rng = np.random.default_rng(seed)
        for name, table in mined_tables(seed, n_rows, min_support, max_length):
            mapping = {key: counts.copy() for key, counts in table.items()}
            assert_matches_mapping(table, mapping, rng)
            # The mapping constructor keeps the mapping's order.
            rebuilt = FrequentItemsets(mapping, table.n_rows, min_support)
            assert list(rebuilt) == list(mapping), name
            assert_matches_mapping(rebuilt, mapping, rng)

    def test_keys_are_canonical(self):
        table = FrequentItemsets(
            {
                frozenset({7, 2}): np.array([2, 1]),
                frozenset(): np.array([3, 1]),
                frozenset({5}): np.array([1, 0]),
            },
            3,
            0.3,
        )
        assert table.keys.dtype == np.uint32
        assert table.keys.tolist() == [[3, 8], [0, 0], [6, 0]]
        assert table.count_matrix.tolist() == [[2, 1], [3, 1], [1, 0]]
        assert table.totals.tolist() == [3, 1]

    def test_ids_outside_the_key_range(self):
        table = FrequentItemsets({frozenset(): np.array([1])}, 1, 1.0)
        assert frozenset({-1}) not in table
        assert frozenset({2**32 - 2}) not in table
        with pytest.raises(MiningError):
            FrequentItemsets(
                {frozenset(): np.array([1]), frozenset({-1}): np.array([1])}, 1, 1.0
            )


def test_held_result_keeps_no_object_per_itemset():
    data = datasets.load("heart", seed=5)
    explorer = DivergenceExplorer(
        data.table, data.true_column, data.pred_column, attributes=data.attributes
    )
    # Build the explorer's own lazy state (item layer, registry entries)
    # first, so the count below sees only what one held result keeps.
    explorer.explore("fpr", min_support=0.03).top_k(10)
    explorer.mining_cache.clear()
    gc.collect()
    before = len(gc.get_objects())
    result = explorer.explore("fnr", min_support=0.03)
    result.top_k(10)
    result.lattice_index()
    gc.collect()
    held = len(gc.get_objects()) - before
    assert len(result) > 15_000
    assert held < 100, held


# Ids around both ends of the valid range [0, 2**32 - 2).
_IDS = st.one_of(
    st.integers(0, 40),
    st.sampled_from([-(2**40), -1, 2**32 - 3, 2**32 - 2, 2**32 - 1, 2**40]),
)


@given(
    itemsets=st.lists(
        st.tuples(
            st.lists(_IDS, max_size=7), st.sampled_from([list, tuple, frozenset])
        ).map(lambda pair: pair[1](pair[0])),
        max_size=30,
    ),
    per_key_max=st.sampled_from([0, miner_module._PER_KEY_MAX]),
)
def test_pack_keys_matches_per_key_version(itemsets, per_key_max):
    # Any order, repeats, empty sets and out-of-range ids, through the
    # per-key and the array path.
    want = pack_keys_reference(itemsets)
    with mock.patch.object(miner_module, "_PER_KEY_MAX", per_key_max):
        got = pack_keys(itemsets)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # One-shot iterables, inner and outer, pack the same.
        got = pack_keys(iter(s) for s in itemsets)
        assert np.array_equal(got, want)
