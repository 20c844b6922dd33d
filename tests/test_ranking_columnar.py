"""Columnar ranking pinned to the sort-all oracles.

``top_k`` and ``significant`` select rows with array ops and build
records only for the rows they return. Their output must equal the
whole-table references in :mod:`tests.oracles` for every ranking key,
direction, filter and depth — on Boolean-outcome and rank-divergence
tables alike. The generated tables are tiny and low-cardinality, so
many patterns share identical count rows and the k-th position is often
a tie that only the string tie-break settles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.divergence import DivergenceExplorer
from repro.core.result import PatternDivergenceResult
from repro.exceptions import ReproError
from repro.rank import RankDivergenceExplorer
from repro.rank.result import RankDivergenceResult
from repro.tabular.table import Table
from tests.oracles import significant_reference, top_k_reference

RANK_KEYS = ["divergence", "abs_divergence", "support", "t_statistic", "rate"]


def comparable(records):
    """Records as tuples of plain values, with NaN made comparable."""
    return [
        tuple(
            "nan"
            if isinstance(value, float) and math.isnan(value)
            else value if isinstance(value, (int, float)) else str(value)
            for value in vars(record).values()
        )
        for record in records
    ]


def fresh(result):
    """A new result over the same counts, with no cached records."""
    return type(result)(
        result.frequent, result.catalog, result.metric, result.min_support
    )


# Mined row order follows the catalog (attribute order, then numeric
# category order); the string tie-break reads "b=100" < "b=12" < "b=3"
# and "a" < "d". The two orders disagree, so a selection that settles
# k-th-row ties by row order instead of by string shows up.
ATTRIBUTES = ["d", "c", "b", "a"]
VALUES = np.array([3, 12, 100])


def tied_table(seed: int, n_rows: int) -> Table:
    """Few rows over binary/ternary attributes: many equal count rows."""
    rng = np.random.default_rng(seed)
    columns = {
        name: VALUES[rng.integers(0, card, n_rows)].tolist()
        for name, card in zip(ATTRIBUTES, [2, 3, 3, 2])
    }
    columns["class"] = rng.integers(0, 2, n_rows).tolist()
    columns["pred"] = rng.integers(0, 2, n_rows).tolist()
    return Table.from_dict(columns)


def boolean_result(seed: int, n_rows: int, metric: str):
    explorer = DivergenceExplorer(
        tied_table(seed, n_rows), "class", "pred",
        attributes=ATTRIBUTES,
    )
    return explorer.explore(metric, min_support=0.05, use_cache=False)


def rank_result(seed: int, n_rows: int, model: str):
    table = tied_table(seed, n_rows)
    # Scores from a three-value set: equal-composition subgroups share
    # their mean weight exactly.
    scores = np.random.default_rng(seed + 1).integers(0, 3, n_rows)
    explorer = RankDivergenceExplorer(
        table, scores.astype(float), attributes=ATTRIBUTES
    )
    return explorer.explore(model, min_support=0.05, use_cache=False)


ranking_args = dict(
    by=st.sampled_from(RANK_KEYS),
    ascending=st.booleans(),
    min_support=st.sampled_from([None, 0.1, 0.25]),
    max_length=st.sampled_from([None, 1, 2, 3]),
    depth=st.sampled_from(["zero", "one", "mid", "all", "beyond"]),
)


def depth_to_k(depth: str, n: int, seed: int) -> int:
    return {
        "zero": 0,
        "one": 1,
        "mid": 2 + seed % max(n - 1, 1),
        "all": n,
        "beyond": n + 7,
    }[depth]


def check_top_k(result, seed, by, ascending, min_support, max_length, depth):
    k = depth_to_k(depth, len(result), seed)
    columnar = fresh(result)
    got = columnar.top_k(
        k, by=by, ascending=ascending, min_support=min_support,
        max_length=max_length,
    )
    want = top_k_reference(
        result, k, by=by, ascending=ascending, min_support=min_support,
        max_length=max_length,
    )
    assert comparable(got) == comparable(want)
    assert columnar._records is None
    # With the full record table cached, the same rows come back.
    assert comparable(
        result.top_k(
            k, by=by, ascending=ascending, min_support=min_support,
            max_length=max_length,
        )
    ) == comparable(want)


class TestTopKMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(6, 40),
        metric=st.sampled_from(["fpr", "error", "accuracy"]),
        **ranking_args,
    )
    def test_boolean_outcomes(
        self, seed, n_rows, metric, by, ascending, min_support, max_length,
        depth,
    ):
        result = boolean_result(seed, n_rows, metric)
        assert isinstance(result, PatternDivergenceResult)
        check_top_k(
            result, seed, by, ascending, min_support, max_length, depth
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(6, 40),
        model=st.sampled_from(["score", "exposure"]),
        **ranking_args,
    )
    def test_rank_outcomes(
        self, seed, n_rows, model, by, ascending, min_support, max_length,
        depth,
    ):
        result = rank_result(seed, n_rows, model)
        assert isinstance(result, RankDivergenceResult)
        check_top_k(
            result, seed, by, ascending, min_support, max_length, depth
        )

    def test_ties_at_the_kth_row_are_exercised(self):
        # The generator must actually produce k-th-row ties that only
        # the string tie-break resolves, or the pin above proves little.
        result = boolean_result(3, 12, "error")
        ranked = top_k_reference(result, len(result))
        numeric = [(-r.divergence, -r.support, r.length) for r in ranked]
        assert any(a == b for a, b in zip(numeric, numeric[1:]))


class TestSignificantMatchesOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(6, 60),
        family=st.sampled_from(["boolean", "rank"]),
        alpha=st.sampled_from([0.01, 0.05, 0.3, 1.0]),
        k=st.sampled_from([None, 0, 1, 5, 1000]),
    )
    def test_identical_output(self, seed, n_rows, family, alpha, k):
        result = (
            boolean_result(seed, n_rows, "error")
            if family == "boolean"
            else rank_result(seed, n_rows, "score")
        )
        columnar = fresh(result)
        got = columnar.significant(alpha=alpha, k=k)
        want = significant_reference(result, alpha=alpha, k=k)
        assert comparable(got) == comparable(want)
        assert columnar._records is None


class TestNoRecordTable:
    def test_explore_then_top_k_builds_no_record_table(self, small_explorer):
        result = small_explorer.explore("error", min_support=0.1)
        assert result.top_k(10)
        assert result._records is None

    def test_significant_builds_no_record_table(self, small_explorer):
        result = small_explorer.explore("error", min_support=0.1)
        result.significant(alpha=1.0)
        assert result._records is None


class TestTopKDepth:
    def test_zero_is_empty(self, small_explorer):
        result = small_explorer.explore("error", min_support=0.1)
        assert result.top_k(0) == []

    @pytest.mark.parametrize("k", [-1, -5])
    def test_negative_raises(self, small_explorer, k):
        result = small_explorer.explore("error", min_support=0.1)
        with pytest.raises(ReproError):
            result.top_k(k)

    def test_unknown_key_raises(self, small_explorer):
        result = small_explorer.explore("error", min_support=0.1)
        with pytest.raises(ReproError):
            result.top_k(3, by="nonsense")


class TestJournalRows:
    def test_rows_match_the_record_table(self, small_explorer):
        result = small_explorer.explore("fpr", min_support=0.1)
        rows = result.journal_rows()
        assert result._records is None
        want = [
            (
                result.key_of(r.itemset), str(r.itemset), r.divergence,
                r.support, r.t_signed,
            )
            for r in result.records()
        ]
        assert len(rows) == len(want)
        for got, expected in zip(rows, want):
            assert got[:2] == expected[:2]
            for a, b in zip(got[2:], expected[2:]):
                assert a == b or (math.isnan(a) and math.isnan(b))
