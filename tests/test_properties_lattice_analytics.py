"""Property tests: vectorized lattice-index kernels vs dict-walk oracles.

Every analytics kernel rewritten over the columnar
:class:`~repro.core.lattice_index.LatticeIndex` — global item
divergence, ε-redundancy pruning, corrective search, batched Shapley —
is checked against its retained ``*_reference`` implementation on
random tables, across all exact mining backends. Orders must match
exactly (both paths share the deterministic tie-breaks); values match
within float tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corrective import find_corrective_items
from repro.core.divergence import DivergenceExplorer
from repro.core.global_divergence import global_item_divergence
from repro.core.pruning import (
    is_redundant,
    prune_redundant,
    pruned_count_by_epsilon,
)
from repro.core.shapley import shapley_batch, shapley_efficiency_gap
from repro.tabular.column import CategoricalColumn
from repro.tabular.table import Table
from tests.oracles import (
    find_corrective_items_reference,
    global_item_divergence_reference,
    is_redundant_reference,
    prune_redundant_reference,
    shapley_contributions_reference,
)

ALGORITHMS = ("bitset", "fpgrowth", "apriori", "eclat")


def random_result(seed, algorithm, support=0.05, n=150, cards=(2, 3, 2)):
    rng = np.random.default_rng(seed)
    cols = [
        CategoricalColumn(f"a{j}", rng.integers(0, m, n), list(range(m)))
        for j, m in enumerate(cards)
    ]
    cols.append(CategoricalColumn("class", rng.integers(0, 2, n), [0, 1]))
    cols.append(CategoricalColumn("pred", rng.integers(0, 2, n), [0, 1]))
    explorer = DivergenceExplorer(Table(cols), "class", "pred")
    return explorer.explore("fpr", min_support=support, algorithm=algorithm)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestKernelsMatchReferences:
    @given(seed=st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_global_item_divergence(self, algorithm, seed):
        result = random_result(seed, algorithm)
        vec = global_item_divergence(result)
        ref = global_item_divergence_reference(result)
        assert list(vec) == list(ref)
        for item in ref:
            assert vec[item] == pytest.approx(ref[item], abs=1e-12)

    @given(seed=st.integers(0, 2000), epsilon=st.floats(0.0, 0.2))
    @settings(max_examples=15, deadline=None)
    def test_prune_redundant(self, algorithm, seed, epsilon):
        result = random_result(seed, algorithm)
        vec = prune_redundant(result, epsilon)
        ref = prune_redundant_reference(result, epsilon)
        assert [r.itemset for r in vec] == [r.itemset for r in ref]
        assert [r.divergence for r in vec] == [r.divergence for r in ref]

    @given(seed=st.integers(0, 2000), epsilon=st.floats(0.0, 0.2))
    @settings(max_examples=10, deadline=None)
    def test_is_redundant(self, algorithm, seed, epsilon):
        result = random_result(seed, algorithm)
        for key in result.frequent:
            if len(key) == 0:
                continue
            assert is_redundant(result, key, epsilon) == (
                is_redundant_reference(result, key, epsilon)
            )

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=10, deadline=None)
    def test_sweep_counts_match_pruned_lists(self, algorithm, seed):
        result = random_result(seed, algorithm)
        epsilons = [0.0, 0.01, 0.05, 0.1]
        counts = pruned_count_by_epsilon(result, epsilons)
        for eps in epsilons:
            assert counts[eps] == len(prune_redundant_reference(result, eps))

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_find_corrective_items(self, algorithm, seed):
        result = random_result(seed, algorithm)
        vec = find_corrective_items(result, k=8)
        ref = find_corrective_items_reference(result, k=8)
        assert [(c.base, c.item) for c in vec] == [
            (c.base, c.item) for c in ref
        ]
        for v, r in zip(vec, ref):
            assert v.corrective_factor == pytest.approx(
                r.corrective_factor, abs=1e-12
            )
            if math.isinf(r.t_statistic):
                assert v.t_statistic == r.t_statistic
            else:
                assert v.t_statistic == pytest.approx(
                    r.t_statistic, abs=1e-9
                )

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=10, deadline=None)
    def test_shapley_batch(self, algorithm, seed):
        result = random_result(seed, algorithm)
        patterns = [
            result.itemset_of(key)
            for key in sorted(result.frequent, key=sorted)
            if len(key) >= 1
        ][:12]
        batched = shapley_batch(result, patterns)
        for pattern, contributions in zip(patterns, batched):
            ref = shapley_contributions_reference(result, pattern)
            assert set(contributions) == set(ref)
            for item in ref:
                assert contributions[item] == pytest.approx(
                    ref[item], abs=1e-12
                )
            assert shapley_efficiency_gap(result, pattern) < 1e-9
