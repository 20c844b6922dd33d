"""Pins of distinct-row mining: compressed tables equal uncompressed ones.

An explorer whose encoded rows repeat mines one representative per
distinct row (:class:`~repro.fpm.transactions.ItemLayer`), with the row
multiplicity as one more bit-sliced channel: every support is the
multiplicity sum of the covered rows, and every channel sum is the sum
of per-group sums. Integer sums are exact, so the table must equal the
one mined over every row bit for bit — for every backend, for the
sharded engine, for every channel kind (one-hot outcomes, the ranking
weight models, values near the int64 limits, where sums wrap mod
2**64) and every length cap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fpm.sharded as sharded_module
from repro import DivergenceExplorer, RankDivergenceExplorer
from repro.approx.sampler import SampleDesign, resolve_sample_rows, sample_dataset
from repro.core.fixedpoint import encode_weight_channels
from repro.core.outcomes import outcome_channels
from repro.fpm.miner import mine_frequent
from repro.fpm.sharded import AUTO_ROW_THRESHOLD, resolve_workers
from repro.fpm.transactions import (
    GROUP_RATIO,
    ItemCatalog,
    ItemLayer,
    TransactionDataset,
    exact_bincount,
)
from repro.rank.weights import rank_weights
from repro.tabular.column import CategoricalColumn
from repro.tabular.table import Table

CATALOG = ItemCatalog(["a", "b", "c"], [[0, 1, 2], [0, 1], [0, 1, 2, 3]])
SERIAL = ("bitset", "eclat", "apriori", "bruteforce", "fpgrowth")
CHANNEL_KINDS = ("binary", "topk", "exposure", "score", "headroom", "full")


def duplicate_rows(rng, n_rows: int, n_distinct: int) -> np.ndarray:
    """``n_rows`` rows drawn, with skewed frequencies, from a few patterns."""
    patterns = np.column_stack(
        [rng.integers(0, m, n_distinct) for m in CATALOG.cardinalities]
    )
    freq = rng.random(n_distinct) ** 3 + 0.01
    return patterns[rng.choice(n_distinct, n_rows, p=freq / freq.sum())]


def make_channels(rng, kind: str, n_rows: int) -> np.ndarray:
    if kind == "binary":
        outcome = rng.integers(-1, 2, n_rows).astype(np.int8)
        return outcome_channels(outcome)
    if kind in ("topk", "exposure", "score"):
        scores = rng.normal(size=n_rows)
        k = int(rng.integers(1, n_rows + 1))
        return encode_weight_channels(rank_weights(scores, kind, k=k))
    if kind == "headroom":
        # The encoder's bound: n · max|v| <= 2**62, so sums stay in int64.
        bound = 2**62 // n_rows
        return rng.integers(-bound, bound + 1, (n_rows, 2), dtype=np.int64)
    # "full": the whole int64 range; every sum wraps mod 2**64.
    return rng.integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, (n_rows, 2),
        dtype=np.int64, endpoint=True,
    )


def assert_same_table(got, want):
    assert got.n_rows == want.n_rows
    assert set(got) == set(want)
    for key in want:
        assert np.array_equal(got.counts(key), want.counts(key)), key


class TestCompressedEqualsUncompressed:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from((64, 130, 333)),
        kind=st.sampled_from(CHANNEL_KINDS),
        max_length=st.sampled_from((None, 0, 1, 2)),
        min_support=st.sampled_from((0.01, 0.05, 0.3)),
    )
    def test_every_backend(self, seed, n_rows, kind, max_length, min_support):
        rng = np.random.default_rng(seed)
        n_distinct = int(rng.integers(1, n_rows // GROUP_RATIO + 1))
        matrix = duplicate_rows(rng, n_rows, n_distinct)
        channels = make_channels(rng, kind, n_rows)
        layer = ItemLayer(matrix, CATALOG, group=True)
        assert layer.multiplicity is not None
        assert layer.n_rows == n_rows and layer.n_physical <= n_distinct
        compressed = layer.dataset(channels)
        plain = TransactionDataset(matrix, CATALOG, channels)

        def mine(dataset, algorithm="bitset", n_workers=None):
            return mine_frequent(
                dataset, min_support, algorithm=algorithm,
                max_length=max_length, n_workers=n_workers,
            )

        want = mine(plain, "bruteforce")
        for algorithm in SERIAL:
            assert_same_table(mine(compressed, algorithm), want)
            assert_same_table(mine(plain, algorithm), want)
        assert_same_table(mine(compressed, n_workers=2), want)

    def test_sum_past_int64_wraps_in_every_backend(self):
        # 2**62 + 2**62 + 5 leaves int64: every backend wraps it mod 2**64.
        matrix = np.zeros((3, 3), dtype=np.int64)
        channels = np.array([[2**62], [2**62], [5]], dtype=np.int64)
        wrapped = 2**63 + 5 - 2**64
        for dataset in (
            TransactionDataset(matrix, CATALOG, channels),
            ItemLayer(matrix, CATALOG, group=True).dataset(channels),
        ):
            tables = [
                mine_frequent(dataset, 0.5, algorithm=algorithm)
                for algorithm in SERIAL
            ]
            tables.append(mine_frequent(dataset, 0.5, n_workers=2))
            for table in tables:
                assert len(table) == 8  # every subset of {a=0, b=0, c=0}
                for key in table:
                    assert table.counts(key).tolist() == [3, wrapped], key


class TestExactSums:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from((1, 7, 300)),
        kind=st.sampled_from(CHANNEL_KINDS),
    )
    def test_bincount_equals_int64_sums(self, seed, n_rows, kind):
        rng = np.random.default_rng(seed)
        channels = make_channels(rng, kind, n_rows)
        index = rng.integers(0, 5, n_rows)
        for column in channels.T:
            want = np.zeros(5, dtype=np.int64)
            np.add.at(want, index, column)  # int64 addition wraps
            assert np.array_equal(exact_bincount(index, column, 5), want)

    def test_limbs_exact_beyond_float_mantissa(self):
        # 2**21 values just below 2**40 sum far beyond 2**53.
        values = np.full(2**21, 2**40 - 1, dtype=np.int64)
        got = exact_bincount(np.zeros(2**21, dtype=np.int64), values, 1)
        assert int(got[0]) == 2**21 * (2**40 - 1)


class TestGroupingRule:
    def test_rows_that_do_not_repeat_stay_as_they_are(self):
        rng = np.random.default_rng(0)
        matrix = duplicate_rows(rng, 40, 24)
        layer = ItemLayer(matrix, CATALOG, group=True)
        assert layer.multiplicity is None and layer.inverse is None
        assert layer.matrix.shape == (40, 3)

    def test_representatives_are_the_distinct_rows(self):
        rng = np.random.default_rng(1)
        matrix = duplicate_rows(rng, 500, 5)
        layer = ItemLayer(matrix, CATALOG, group=True)
        assert np.array_equal(layer.matrix[layer.inverse], matrix)
        counts = np.bincount(layer.inverse, minlength=layer.n_physical)
        assert np.array_equal(layer.multiplicity, counts)
        assert len(np.unique(layer.matrix, axis=0)) == layer.n_physical


def duplicate_table(rng, n_rows: int, n_distinct: int) -> Table:
    matrix = duplicate_rows(rng, n_rows, n_distinct)
    columns = [
        CategoricalColumn(name, matrix[:, j], list(range(m)))
        for j, (name, m) in enumerate(zip(CATALOG.attributes, CATALOG.cardinalities))
    ]
    truth = rng.integers(0, 2, n_rows)
    pred = np.where(rng.random(n_rows) < 0.3, 1 - truth, truth)
    columns.append(CategoricalColumn("class", truth, [0, 1]))
    columns.append(CategoricalColumn("pred", pred, [0, 1]))
    return Table(columns)


class TestExplorers:
    @pytest.mark.parametrize("sample", [0.3, 700])
    def test_sample_draws_from_original_rows(self, sample):
        rng = np.random.default_rng(2)
        table = duplicate_table(rng, 2000, 9)
        explorer = DivergenceExplorer(table, "class", "pred")
        result = explorer.explore("fpr", min_support=0.05, sample=sample)
        assert explorer.item_layer.multiplicity is not None
        original = TransactionDataset(
            table.encoded_matrix(explorer.attributes),
            explorer.catalog,
            outcome_channels(explorer.outcome_array("fpr")),
        )
        design = SampleDesign(original.n_rows, 0)
        sampled = sample_dataset(
            original, design, resolve_sample_rows(sample, original.n_rows)
        )
        assert sampled.n_rows < original.n_rows
        assert_same_table(result.frequent, mine_frequent(sampled, 0.05))

    def test_full_size_sample_is_the_compressed_exact_table(self):
        rng = np.random.default_rng(3)
        table = duplicate_table(rng, 1000, 7)
        explorer = DivergenceExplorer(table, "class", "pred")
        exact = explorer.explore("error", min_support=0.02)
        full = explorer.explore("error", min_support=0.02, sample=1.0)
        assert full is not exact
        assert_same_table(full.frequent, exact.frequent)

    def test_auto_workers_count_distinct_rows(self, monkeypatch):
        # 1M rows, 72 distinct: the auto heuristic sees 72 rows and
        # never starts a pool.
        rng = np.random.default_rng(4)
        n = 1_000_000
        cards = (3, 4, 6)
        columns = [
            CategoricalColumn(f"a{j}", rng.integers(0, m, n), list(range(m)))
            for j, m in enumerate(cards)
        ]
        columns.append(CategoricalColumn("class", rng.integers(0, 2, n), [0, 1]))
        columns.append(CategoricalColumn("pred", rng.integers(0, 2, n), [0, 1]))
        explorer = DivergenceExplorer(Table(columns), "class", "pred", n_workers=0)

        def no_pool(n_workers):
            raise AssertionError(f"started a {n_workers}-worker pool")

        monkeypatch.setattr(sharded_module, "get_pool", no_pool)
        result = explorer.explore("fpr", min_support=0.01)
        dataset = explorer._dataset_for("fpr")
        assert dataset.n_physical == 72 and dataset.n_rows == n
        assert n >= AUTO_ROW_THRESHOLD and resolve_workers(0, dataset) == 1
        assert result.frequent.n_rows == n

    def test_rank_explorer_sharded_equals_serial(self):
        rng = np.random.default_rng(5)
        table = duplicate_table(rng, 3000, 20)
        scores = rng.normal(size=3000)
        explorer = RankDivergenceExplorer(
            table, scores, attributes=list(CATALOG.attributes)
        )
        assert explorer.item_layer.multiplicity is not None
        for model in ("exposure", "score"):
            serial = explorer.explore(model, 0.02, use_cache=False)
            routed = explorer.explore(model, 0.02, use_cache=False, n_workers=2)
            assert_same_table(routed.frequent, serial.frequent)
            plain = TransactionDataset(
                table.encoded_matrix(explorer.attributes),
                explorer.catalog,
                encode_weight_channels(explorer.weights(model)),
            )
            assert_same_table(serial.frequent, mine_frequent(plain, 0.02))
