"""Tests for model comparison via divergence tables.

Covers the pairwise union semantics (one-sided patterns, signed t),
the vectorized engine pinned bit-identical against the dict-walk
reference oracles, and the shared-lattice multi-model engine
(``explore_compare``) pinned bit-identical against independent
explorations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compare import (
    CompareResult,
    compare_results,
    delta_columns,
    delta_divergence_score,
    explore_compare,
    regressions,
    resolve_models,
)
from repro.core.divergence import DivergenceExplorer
from repro.core.items import Item, Itemset
from repro.exceptions import DatasetError, ReproError
from repro.fpm.cache import MiningCache
from repro.tabular.column import CategoricalColumn
from repro.tabular.table import Table
from tests.oracles import compare_results_reference, regressions_reference


def _same_float(x: float, y: float) -> bool:
    return (math.isnan(x) and math.isnan(y)) or x == y


def same_shifts(got, expected) -> bool:
    """Bit-identical PatternShift lists, NaN-aware (NaN != NaN under ==)."""
    if len(got) != len(expected):
        return False
    for a, b in zip(got, expected):
        if a.itemset != b.itemset or a.in_a != b.in_a or a.in_b != b.in_b:
            return False
        for field in (
            "divergence_a", "divergence_b", "rate_a", "rate_b",
            "t_statistic", "delta_divergence",
        ):
            if not _same_float(getattr(a, field), getattr(b, field)):
                return False
    return True


def model_table(seed=0, n=4000):
    """Model A errs uniformly; model B additionally errs in g=1."""
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 2, n)
    h = rng.integers(0, 2, n)
    z = rng.integers(0, 5, n)
    truth = rng.integers(0, 2, n).astype(bool)
    err_a = rng.random(n) < 0.15
    err_b = rng.random(n) < np.where(g == 1, 0.40, 0.15)
    pred_a = np.where(err_a, ~truth, truth)
    pred_b = np.where(err_b, ~truth, truth)
    table = Table(
        [
            CategoricalColumn("g", g, [0, 1]),
            CategoricalColumn("h", h, [0, 1]),
            CategoricalColumn("z", z, [0, 1, 2, 3, 4]),
            CategoricalColumn("class", truth.astype(int), [0, 1]),
            CategoricalColumn("pred_a", pred_a.astype(int), [0, 1]),
            CategoricalColumn("pred_b", pred_b.astype(int), [0, 1]),
        ]
    )
    return table


def two_models(seed=0, n=4000, support_a=0.05, support_b=0.05, with_z=False):
    table = model_table(seed, n)
    attrs = ["g", "h", "z"] if with_z else ["g", "h"]
    result_a = DivergenceExplorer(
        table, "class", "pred_a", attributes=attrs
    ).explore("error", min_support=support_a)
    result_b = DivergenceExplorer(
        table, "class", "pred_b", attributes=attrs
    ).explore("error", min_support=support_b)
    return result_a, result_b


class TestCompare:
    def test_planted_regression_found(self):
        result_a, result_b = two_models()
        shifts = compare_results(result_a, result_b, k=3)
        assert shifts
        top = shifts[0]
        assert Item("g", 1) in top.itemset
        assert top.shift > 0.1

    def test_shift_matches_divergences(self):
        result_a, result_b = two_models()
        for s in compare_results(result_a, result_b, k=10):
            assert s.shift == pytest.approx(s.divergence_b - s.divergence_a)
            assert s.divergence_a == pytest.approx(
                result_a.divergence_of(s.itemset)
            )
            assert s.divergence_b == pytest.approx(
                result_b.divergence_of(s.itemset)
            )

    def test_sorted_by_absolute_shift(self):
        result_a, result_b = two_models()
        shifts = compare_results(result_a, result_b, k=20)
        magnitudes = [abs(s.shift) for s in shifts if not s.one_sided]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_min_t_filters(self):
        result_a, result_b = two_models()
        strict = compare_results(result_a, result_b, k=50, min_t=5.0)
        assert strict
        # the gate is on |t|: a large *improvement* (negative t) passes too
        assert all(
            s.one_sided or abs(s.t_statistic) >= 5.0 for s in strict
        )

    def test_identical_models_tiny_shifts(self):
        result_a, _ = two_models()
        shifts = compare_results(result_a, result_a, k=5)
        assert all(s.shift == 0.0 for s in shifts)

    def test_str_rendering(self):
        result_a, result_b = two_models()
        text = str(compare_results(result_a, result_b, k=1)[0])
        assert "shift" in text


class TestSignedT:
    def test_t_sign_follows_shift(self):
        result_a, result_b = two_models()
        for s in compare_results(result_a, result_b, k=20, min_t=2.0):
            if s.one_sided:
                continue
            # positive t = B's subgroup rate above A's; on "error" with a
            # planted B-only failure mode the big shifts go up with t > 0
            if abs(s.shift) > 0.1:
                assert (s.t_statistic > 0) == (s.rate_b > s.rate_a)

    def test_t_antisymmetric(self):
        result_a, result_b = two_models()
        forward = {
            s.itemset: s.t_statistic
            for s in compare_results(result_a, result_b, k=50)
            if not s.one_sided
        }
        backward = {
            s.itemset: s.t_statistic
            for s in compare_results(result_b, result_a, k=50)
            if not s.one_sided
        }
        assert forward
        for itemset, t in forward.items():
            assert backward[itemset] == pytest.approx(-t)

    def test_str_shows_sign(self):
        result_a, result_b = two_models()
        top = compare_results(result_a, result_b, k=1, min_t=2.0)[0]
        assert f"t={top.t_statistic:+.1f}" in str(top)


class TestUnionBlindSpot:
    """Patterns frequent only under one model must not vanish."""

    def setup_method(self):
        # Different supports guarantee B-only (and possibly A-only) keys.
        self.result_a, self.result_b = two_models(
            seed=3, support_a=0.2, support_b=0.03, with_z=True
        )

    def test_b_only_patterns_surface(self):
        assert len(self.result_b.frequent) > len(self.result_a.frequent)
        shifts = compare_results(self.result_a, self.result_b, k=10**6)
        one_sided = [s for s in shifts if s.one_sided]
        assert one_sided, "union walk must surface B-only patterns"
        for s in one_sided:
            assert not s.in_a and s.in_b
            assert math.isnan(s.divergence_a)
            assert math.isnan(s.t_statistic)
            assert not math.isnan(s.divergence_b)

    def test_union_covers_both_frequent_sets(self):
        shifts = compare_results(self.result_a, self.result_b, k=10**6)
        seen = {s.itemset for s in shifts}
        for result in (self.result_a, self.result_b):
            for key in result.frequent:
                if len(key) == 0:
                    continue
                record = result.record_for_key(key)
                if math.isnan(record.divergence):
                    continue
                assert record.itemset in seen

    def test_one_sided_exempt_from_min_t(self):
        strict = compare_results(
            self.result_a, self.result_b, k=10**6, min_t=10**9
        )
        assert strict
        assert all(s.one_sided for s in strict)

    def test_one_sided_sorted_after_two_sided(self):
        shifts = compare_results(self.result_a, self.result_b, k=10**6)
        flags = [s.one_sided for s in shifts]
        assert flags == sorted(flags)

    def test_regressions_exclude_one_sided(self):
        worse = regressions(self.result_a, self.result_b, k=10**6, min_t=0.0)
        assert all(not s.one_sided for s in worse)


class TestEngineMatchesReference:
    """The vectorized kernels are pinned to the dict-walk oracles."""

    def test_two_sided_and_one_sided(self):
        result_a, result_b = two_models(
            seed=5, support_a=0.1, support_b=0.03, with_z=True
        )
        for k in (3, 10, 10**6):
            for min_t in (0.0, 1.0, 3.0):
                assert same_shifts(
                    compare_results(result_a, result_b, k=k, min_t=min_t),
                    compare_results_reference(
                        result_a, result_b, k=k, min_t=min_t
                    ),
                )
                assert same_shifts(
                    regressions(result_a, result_b, k=k, min_t=min_t),
                    regressions_reference(
                        result_a, result_b, k=k, min_t=min_t
                    ),
                )

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(80, 300))
        cols = [
            CategoricalColumn("x", rng.integers(0, 3, n), [0, 1, 2]),
            CategoricalColumn("y", rng.integers(0, 2, n), [0, 1]),
            CategoricalColumn("class", rng.integers(0, 2, n), [0, 1]),
            CategoricalColumn("pa", rng.integers(0, 2, n), [0, 1]),
            CategoricalColumn("pb", rng.integers(0, 2, n), [0, 1]),
        ]
        table = Table(cols)
        metric = ["fpr", "error", "ppv"][seed % 3]
        support_a = float(rng.uniform(0.02, 0.3))
        support_b = float(rng.uniform(0.02, 0.3))
        result_a = DivergenceExplorer(
            table, "class", "pa", attributes=["x", "y"]
        ).explore(metric, min_support=support_a)
        result_b = DivergenceExplorer(
            table, "class", "pb", attributes=["x", "y"]
        ).explore(metric, min_support=support_b)
        min_t = float(rng.uniform(0.0, 2.0))
        assert same_shifts(
            compare_results(result_a, result_b, k=10**6, min_t=min_t),
            compare_results_reference(
                result_a, result_b, k=10**6, min_t=min_t
            ),
        )
        assert same_shifts(
            regressions(result_a, result_b, k=10**6, min_t=min_t),
            regressions_reference(result_a, result_b, k=10**6, min_t=min_t),
        )


class TestRegressions:
    def test_regressions_worse_only(self):
        result_a, result_b = two_models()
        worse = regressions(result_a, result_b, k=10)
        assert worse
        for s in worse:
            assert abs(s.divergence_b) > abs(s.divergence_a)
        # the planted group leads
        assert Item("g", 1) in worse[0].itemset

    def test_no_regressions_when_identical(self):
        result_a, _ = two_models()
        assert regressions(result_a, result_a, k=5) == []

    def test_large_k_not_sentinel(self):
        # the old implementation fed k=10**9 into a slice as a sentinel;
        # any huge k must behave like "everything that qualifies"
        result_a, result_b = two_models()
        everything = regressions(result_a, result_b, k=10**9)
        assert everything == regressions(result_a, result_b, k=len(everything))


class TestDeltaDivergence:
    def test_score_gated_on_incongruence(self):
        assert delta_divergence_score(0.3, 0.1, 0.5, 0.2) == 0.0
        assert delta_divergence_score(0.3, -0.1, 0.5, 0.2) == pytest.approx(0.2)
        assert math.isnan(delta_divergence_score(0.3, float("nan"), 0.5, 0.2))

    def test_rows_carry_score(self):
        result_a, result_b = two_models()
        for s in compare_results(result_a, result_b, k=20):
            if s.one_sided:
                continue
            assert s.delta_divergence == delta_divergence_score(
                s.rate_a, s.divergence_a, s.rate_b, s.divergence_b
            )


class TestDeltaColumns:
    def test_aligned_with_a_lattice(self):
        result_a, result_b = two_models(
            seed=7, support_a=0.1, support_b=0.05, with_z=True
        )
        columns = delta_columns(result_a, result_b)
        n = result_a.lattice_index().n_table_rows
        for name, arr in columns.items():
            assert arr.shape == (n,), name
        shift = columns["divergence_b"] - columns["divergence_a"]
        both = ~np.isnan(shift)
        assert np.array_equal(columns["shift"][both], shift[both])
        # rows B never mined map to -1 and carry NaN on the B side
        missing = columns["row_b"] < 0
        assert np.isnan(columns["divergence_b"][missing]).all()


class TestValidation:
    def test_metric_mismatch(self):
        result_a, _ = two_models()
        other = two_models()[0]
        other.metric = "fpr"
        with pytest.raises(ReproError):
            compare_results(result_a, other)

    def test_catalog_mismatch(self):
        result_a, _ = two_models()
        rng = np.random.default_rng(1)
        table = Table(
            [
                CategoricalColumn("z", rng.integers(0, 2, 100), [0, 1]),
                CategoricalColumn("class", rng.integers(0, 2, 100), [0, 1]),
                CategoricalColumn("pred", rng.integers(0, 2, 100), [0, 1]),
            ]
        )
        other = DivergenceExplorer(table, "class", "pred").explore(
            "error", min_support=0.1
        )
        with pytest.raises(ReproError):
            compare_results(result_a, other)


class _SpyCache(MiningCache):
    """Counts actual mining passes through the cache."""

    def __init__(self):
        super().__init__()
        self.mine_calls = 0

    def mine(self, *args, **kwargs):
        self.mine_calls += 1
        return super().mine(*args, **kwargs)


class TestExploreCompare:
    def _four_models(self, seed=11, n=3000):
        rng = np.random.default_rng(seed)
        g = rng.integers(0, 3, n)
        h = rng.integers(0, 2, n)
        truth = rng.integers(0, 2, n).astype(bool)
        table_cols = [
            CategoricalColumn("g", g, [0, 1, 2]),
            CategoricalColumn("h", h, [0, 1]),
            CategoricalColumn("class", truth.astype(int), [0, 1]),
        ]
        models = {}
        for i in range(4):
            err = rng.random(n) < 0.1 + 0.1 * i * (g == i % 3)
            pred = np.where(err, ~truth, truth).astype(bool)
            # column-name specs: the prediction columns are consumed,
            # leaving g and h as the default analysis attributes
            models[f"m{i}"] = f"m{i}"
            table_cols.append(
                CategoricalColumn(f"m{i}", pred.astype(int), [0, 1])
            )
        return Table(table_cols), models

    @pytest.mark.parametrize("metric", ["fpr", "error", "ppv", "accuracy"])
    def test_bit_identical_to_independent_explores(self, metric):
        # "fpr"/"error"/"accuracy" take the shared-BOTTOM derived layout,
        # "ppv" the paired layout — both must match independent runs.
        table, models = self._four_models()
        comparison = explore_compare(
            table, "class", models, metric=metric, min_support=0.05
        )
        for name in models:
            independent = DivergenceExplorer(
                table, "class", name, attributes=["g", "h"]
            ).explore(metric, min_support=0.05)
            shared = comparison[name]
            assert shared._keys == independent._keys
            assert np.array_equal(
                shared._count_matrix, independent._count_matrix
            )
            assert np.array_equal(
                shared._rates, independent._rates, equal_nan=True
            )
            assert np.array_equal(
                shared.divergence_vector(),
                independent.divergence_vector(),
                equal_nan=True,
            )

    def test_mines_once(self):
        table, models = self._four_models()
        cache = _SpyCache()
        explore_compare(
            table, "class", models, metric="fpr", min_support=0.05,
            mining_cache=cache,
        )
        assert cache.mine_calls == 1

    def test_permutation_invariant(self):
        table, models = self._four_models()
        forward = explore_compare(
            table, "class", models, metric="error", min_support=0.05
        )
        reversed_models = dict(reversed(list(models.items())))
        backward = explore_compare(
            table, "class", reversed_models, metric="error", min_support=0.05
        )
        assert backward.model_names == list(reversed(forward.model_names))
        for name in models:
            assert np.array_equal(
                forward[name]._count_matrix, backward[name]._count_matrix
            )
        assert same_shifts(
            forward.shifts("m3", baseline="m0", k=20),
            backward.shifts("m3", baseline="m0", k=20),
        )

    @pytest.mark.parametrize("algorithm", ["bitset", "fpgrowth"])
    def test_backends_agree(self, algorithm):
        table, models = self._four_models()
        baseline = explore_compare(
            table, "class", models, metric="fpr", min_support=0.05
        )
        other = explore_compare(
            table, "class", models, metric="fpr", min_support=0.05,
            algorithm=algorithm,
        )
        for name in models:
            # key order is backend-specific; the counted sets must match
            expected = {
                key: tuple(counts)
                for key, counts in baseline[name].frequent.items()
            }
            got = {
                key: tuple(counts)
                for key, counts in other[name].frequent.items()
            }
            assert got == expected

    def test_sharded_identical_to_serial(self):
        table, models = self._four_models()
        serial = explore_compare(
            table, "class", models, metric="fpr", min_support=0.05
        )
        sharded = explore_compare(
            table, "class", models, metric="fpr", min_support=0.05,
            n_workers=2,
        )
        for name in models:
            assert serial[name]._keys == sharded[name]._keys
            assert np.array_equal(
                serial[name]._count_matrix, sharded[name]._count_matrix
            )

    def test_column_name_models(self):
        table = model_table()
        comparison = explore_compare(
            table, "class", ["pred_a", "pred_b"], metric="error",
            min_support=0.05,
        )
        assert comparison.model_names == ["pred_a", "pred_b"]
        assert comparison.baseline == "pred_a"
        # prediction columns are consumed, not analysed
        assert set(comparison["pred_a"].catalog.attributes) == {"g", "h", "z"}
        worse = comparison.regressions("pred_b", k=5)
        assert worse and Item("g", 1) in worse[0].itemset

    def test_shifts_and_regressions_match_pairwise(self):
        table, models = self._four_models()
        comparison = explore_compare(
            table, "class", models, metric="error", min_support=0.05
        )
        pairwise = compare_results(
            comparison["m0"], comparison["m2"], k=15, min_t=1.0
        )
        assert same_shifts(
            comparison.shifts("m2", baseline="m0", k=15, min_t=1.0), pairwise
        )

    def test_delta_table(self):
        table, models = self._four_models()
        comparison = explore_compare(
            table, "class", models, metric="error", min_support=0.05
        )
        columns = comparison.delta_table("m1")
        n = comparison.lattice_index().n_table_rows
        assert columns["shift"].shape == (n,)
        # shared mine: every pattern is two-sided, the mapping is identity
        assert np.array_equal(columns["row_b"], np.arange(n))

    def test_needs_two_models(self):
        table = model_table()
        with pytest.raises(ReproError, match="at least two"):
            explore_compare(table, "class", ["pred_a"])

    def test_rejects_overlapping_attributes(self):
        table = model_table()
        with pytest.raises(ReproError, match="analysis attributes"):
            explore_compare(
                table, "class", ["pred_a", "pred_b"],
                attributes=["g", "pred_b"],
            )

    def test_rejects_bad_prediction_shape(self):
        table = model_table()
        with pytest.raises(ReproError, match="1-D array"):
            explore_compare(
                table, "class",
                {"a": "pred_a", "b": np.zeros((3, 2))},
            )

    def test_unknown_model_name(self):
        table = model_table()
        comparison = explore_compare(
            table, "class", ["pred_a", "pred_b"], min_support=0.05
        )
        with pytest.raises(ReproError, match="unknown model"):
            comparison.result("nope")

    def test_repr(self):
        table = model_table()
        comparison = explore_compare(
            table, "class", ["pred_a", "pred_b"], min_support=0.05
        )
        assert "pred_a" in repr(comparison)
        assert isinstance(comparison, CompareResult)


class TestResolveModels:
    def test_column_specs_pass_through(self):
        table = model_table()
        resolved = resolve_models(table, "class", ["pred_a", "pred_b"])
        assert resolved == {"pred_a": "pred_a", "pred_b": "pred_b"}

    def test_unknown_column(self):
        table = model_table()
        with pytest.raises(ReproError, match="unknown model column"):
            resolve_models(table, "class", ["pred_a", "nope"])

    def test_classifier_spec_trains(self):
        table = model_table()
        resolved = resolve_models(
            table, "class", ["pred_a", "classifier:tree"],
            attributes=["g", "h"], seed=0,
        )
        pred = resolved["classifier:tree"]
        assert isinstance(pred, np.ndarray)
        assert pred.shape == (table.n_rows,)
        assert pred.dtype == bool
        # deterministic under a fixed seed
        again = resolve_models(
            table, "class", ["pred_a", "classifier:tree"],
            attributes=["g", "h"], seed=0,
        )["classifier:tree"]
        assert np.array_equal(pred, again)

    def test_unknown_classifier(self):
        table = model_table()
        with pytest.raises(DatasetError, match="unknown classifier"):
            resolve_models(table, "class", ["pred_a", "classifier:bogus"])

    def test_resolved_specs_feed_explore_compare(self):
        table = model_table()
        resolved = resolve_models(
            table, "class", ["pred_a", "classifier:tree"],
            attributes=["g", "h"],
        )
        comparison = explore_compare(
            table, "class", resolved, metric="error", min_support=0.05,
            attributes=["g", "h"],
        )
        assert comparison.model_names == ["pred_a", "classifier:tree"]


class TestMitigationProducer:
    def test_pre_post_comparison(self):
        # The mitigation module's predict() output plugs straight into
        # explore_compare as a model: audit before/after thresholds.
        from repro.mitigation import SubgroupThresholdMitigator

        rng = np.random.default_rng(42)
        n = 4000
        g = rng.integers(0, 2, n)
        h = rng.integers(0, 2, n)
        truth = rng.integers(0, 2, n).astype(bool)
        scores = np.where(truth, 0.7, 0.3) + rng.normal(0, 0.15, n)
        # push negatives in g=1 over the base threshold: planted FPR spike
        scores = np.where(~truth & (g == 1), scores + 0.25, scores)
        scores = scores.clip(0.001, 0.999)
        table = Table(
            [
                CategoricalColumn("g", g, [0, 1]),
                CategoricalColumn("h", h, [0, 1]),
                CategoricalColumn("class", truth.astype(int), [0, 1]),
            ]
        )
        pattern = Itemset([Item("g", 1)])
        mitigator = SubgroupThresholdMitigator(
            table, truth, scores, metric="fpr"
        ).fit([pattern])
        comparison = explore_compare(
            table,
            "class",
            {"before": scores >= 0.5, "after": mitigator.predict()},
            metric="fpr",
            min_support=0.05,
        )
        before = comparison["before"].divergence_of(pattern)
        after = comparison["after"].divergence_of(pattern)
        assert abs(after) < abs(before)
        # the fix shows up as a negative shift on the mitigated pattern
        shifts = comparison.shifts("after", k=10**6)
        by_itemset = {s.itemset: s for s in shifts}
        assert by_itemset[pattern].shift < 0
        # and nothing regressed anywhere near as much as the fix helped
        worse = comparison.regressions("after", k=5)
        assert all(
            (abs(s.divergence_b) - abs(s.divergence_a)) < abs(before) - abs(after)
            for s in worse
        )
