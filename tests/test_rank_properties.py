"""Property pinning of the vectorized rank-divergence table.

The vectorized table (single array expressions over the sufficient-
statistic matrix) must be **bit-identical** to a brute-force oracle that
re-scans the rows of every frequent subgroup and applies the scalar
decode formulas — whichever mining backend produced the counts and
however the rows were sharded across workers. Any drift here would mean
the fixed-point channels or the Welch decode changed semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixedpoint import SCALE
from repro.rank import RankDivergenceExplorer, rank_weights
from repro.tabular.table import Table


def build_case(seed: int, n_rows: int = 300):
    """Random categorical table + scores with a planted score dip."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 3, n_rows)
    b = rng.integers(0, 2, n_rows)
    c = rng.integers(0, 4, n_rows)
    scores = rng.normal(0.0, 1.0, n_rows) - 0.5 * ((a == 0) & (b == 1))
    table = Table.from_dict(
        {"a": a.tolist(), "b": b.tolist(), "c": c.tolist()}
    )
    explorer = RankDivergenceExplorer(
        table, scores, attributes=["a", "b", "c"]
    )
    return explorer, scores


def oracle_check(explorer, result, weights):
    """Re-derive every subgroup's statistics from the raw rows."""
    catalog = explorer.catalog
    offsets = catalog.offsets[:-1]
    gids = explorer._matrix + offsets  # global item ids per row
    channels = np.column_stack(
        [
            np.round(weights * SCALE).astype(np.int64),
            np.round(weights * weights * SCALE).astype(np.int64),
        ]
    )
    n_rows = gids.shape[0]
    g_mean = int(channels[:, 0].sum()) / SCALE / n_rows
    g_var = max(
        int(channels[:, 1].sum()) / SCALE / n_rows - g_mean * g_mean, 0.0
    )
    assert result.global_mean == g_mean
    assert result.global_variance == g_var

    for key in result.frequent:
        mask = np.ones(n_rows, dtype=bool)
        for item in key:
            mask &= (gids == item).any(axis=1)
        n = int(mask.sum())
        counts = result.frequent.counts(key)
        assert counts[0] == n
        assert counts[1] == int(channels[mask, 0].sum())
        assert counts[2] == int(channels[mask, 1].sum())
        mean = counts[1] / SCALE / n
        variance = max(counts[2] / SCALE / n - mean * mean, 0.0)
        divergence = mean - g_mean
        se = np.sqrt(variance / n + g_var / n_rows)
        t = abs(divergence) / se if se > 0 else 0.0

        record = result.record_for_key(key)
        assert record.mean == mean, key
        assert record.variance == variance, key
        assert record.divergence == divergence, key
        assert record.t_statistic == t, key


class TestVectorizedTableMatchesOracle:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        algorithm=st.sampled_from(["bitset", "fpgrowth"]),
        model=st.sampled_from(["exposure", "reciprocal_rank", "score"]),
    )
    def test_serial_backends(self, seed, algorithm, model):
        explorer, scores = build_case(seed)
        result = explorer.explore(
            model, min_support=0.1, algorithm=algorithm, use_cache=False
        )
        oracle_check(explorer, result, rank_weights(scores, model))

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_workers=st.sampled_from([2, 3]),
        # exposure: positive weights; score: negative values (a
        # non-zero channel minimum); topk: both channels {0, SCALE},
        # whose bit planes merge into one.
        model=st.sampled_from([("exposure", None), ("score", None), ("topk", 40)]),
    )
    def test_sharded_any_row_partition(self, seed, n_workers, model):
        # Worker counts induce different row partitions; each must
        # reproduce the oracle statistics exactly.
        explorer, scores = build_case(seed)
        name, k = model
        result = explorer.explore(
            name, min_support=0.1, topk=k, n_workers=n_workers,
            use_cache=False,
        )
        oracle_check(explorer, result, rank_weights(scores, name, k=k))

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=300),
    )
    def test_topk_model(self, seed, k):
        explorer, scores = build_case(seed)
        result = explorer.explore(
            "topk", min_support=0.1, topk=k, use_cache=False
        )
        oracle_check(explorer, result, rank_weights(scores, "topk", k=k))

    def test_all_backends_same_table(self):
        explorer, scores = build_case(123)
        weights = rank_weights(scores, "exposure")
        for algorithm in ("bitset", "fpgrowth", "eclat", "apriori",
                          "bruteforce"):
            result = explorer.explore(
                "exposure", min_support=0.15, algorithm=algorithm,
                use_cache=False,
            )
            oracle_check(explorer, result, weights)


class TestFdrIntegration:
    def test_significant_patterns_consistent_across_backends(self):
        explorer, _ = build_case(7, n_rows=600)
        serial = explorer.explore(
            "exposure", min_support=0.1, use_cache=False
        )
        sharded = explorer.explore(
            "exposure", min_support=0.1, n_workers=2, use_cache=False
        )
        a = [str(r.itemset) for r in serial.significant(alpha=0.05)]
        b = [str(r.itemset) for r in sharded.significant(alpha=0.05)]
        assert a == b
        for r in serial.significant(alpha=0.05):
            assert r.t_statistic == pytest.approx(
                serial.record_for_key(serial.key_of(r.itemset)).t_statistic
            )
