"""Tests for the bitset miner and its packed-bitmap substrate.

The brute-force enumerator is the oracle: `BitsetMiner` must produce
exactly equal itemsets, supports and channel counts on any input
(Theorem 5.1 for the default backend), including non-one-hot channels,
tiles and frontier blocks shrunk to a few candidates, and both popcount
paths. The column filter is pinned against a per-node reference, and
the level-wise walk as genuinely non-recursive.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fpm.transactions as transactions_module
from repro.core.fixedpoint import encode_weight_channels
from repro.fpm.bitset import BitsetMiner, _as_words, candidate_starts
from repro.fpm.bruteforce import BruteForceMiner
from repro.fpm.miner import mine_frequent
from repro.fpm.transactions import (
    ItemCatalog,
    TransactionDataset,
    popcount,
    popcount_rows,
)
from repro.rank.weights import rank_weights
from tests.conftest import make_random_dataset
from tests.test_fpm_miners import tiny_dataset
from tests.test_fpm_planes import FIXTURE_OK, popcount_path  # noqa: F401


class TestHandChecked:
    def test_supports_exact(self):
        result = BitsetMiner().mine(tiny_dataset(), min_support=1 / 6)
        assert result.support_count(frozenset({0})) == 3
        assert result.support_count(frozenset({1, 3})) == 2

    def test_channel_sums_exact(self):
        result = BitsetMiner().mine(tiny_dataset(), min_support=1 / 6)
        assert result.counts(frozenset({0})).tolist() == [3, 2, 1]
        assert result.counts(frozenset({1, 3})).tolist() == [2, 1, 0]

    def test_max_length(self):
        result = BitsetMiner().mine(tiny_dataset(), min_support=0.1, max_length=1)
        assert result.max_length() == 1

    def test_max_length_zero(self):
        result = BitsetMiner().mine(tiny_dataset(), min_support=0.1, max_length=0)
        assert len(result) == 1

    def test_registered_in_dispatch(self):
        result = mine_frequent(tiny_dataset(), 0.2, algorithm="bitset")
        assert result.totals.tolist() == [6, 3, 2]

    def test_is_default_backend(self):
        named = mine_frequent(tiny_dataset(), 0.2, algorithm="bitset")
        default = mine_frequent(tiny_dataset(), 0.2)
        assert set(default) == set(named)
        for key in named:
            assert default.counts(key).tolist() == named.counts(key).tolist()


class TestAgreement:
    """Bitset output is exactly the brute-force oracle's."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("support", [0.02, 0.15, 0.5])
    def test_matches_bruteforce(self, seed, support):
        ds = make_random_dataset(seed)
        oracle = BruteForceMiner().mine(ds, support)
        result = BitsetMiner().mine(ds, support)
        assert set(result) == set(oracle)
        for key in oracle:
            assert result.counts(key).tolist() == oracle.counts(key).tolist()

    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(5, 60),
        n_attrs=st.integers(1, 4),
        card=st.integers(1, 4),
        support=st.floats(0.01, 0.9),
        max_length=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_agreement_property(
        self, seed, n_rows, n_attrs, card, support, max_length
    ):
        ds = make_random_dataset(seed, n_rows=n_rows, n_attrs=n_attrs, card=card)
        oracle = BruteForceMiner().mine(ds, support, max_length=max_length)
        result = BitsetMiner().mine(ds, support, max_length=max_length)
        assert set(result) == set(oracle)
        for key in oracle:
            assert result.counts(key).tolist() == oracle.counts(key).tolist()


class TestChannelFallback:
    """Non-one-hot channels take the gather path, same results."""

    def test_negative_channels(self):
        matrix = np.array([[0], [0], [1]])
        catalog = ItemCatalog(["a"], [[0, 1]])
        channels = np.array([[-5], [3], [7]])
        ds = TransactionDataset(matrix, catalog, channels)
        result = BitsetMiner().mine(ds, 0.3)
        assert result.counts(frozenset({0})).tolist() == [2, -2]
        assert result.counts(frozenset({1})).tolist() == [1, 7]

    def test_wide_channels_match_oracle(self):
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 3, size=(80, 3))
        catalog = ItemCatalog(["x", "y", "z"], [[0, 1, 2]] * 3)
        channels = rng.integers(-10, 10, size=(80, 4))
        ds = TransactionDataset(matrix, catalog, channels)
        oracle = BruteForceMiner().mine(ds, 0.05)
        result = BitsetMiner().mine(ds, 0.05)
        assert set(result) == set(oracle)
        for key in oracle:
            assert result.counts(key).tolist() == oracle.counts(key).tolist()

    def test_no_channels(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 2, size=(60, 3))
        catalog = ItemCatalog(["a", "b", "c"], [[0, 1]] * 3)
        ds = TransactionDataset(matrix, catalog)
        oracle = BruteForceMiner().mine(ds, 0.1)
        result = BitsetMiner().mine(ds, 0.1)
        assert set(result) == set(oracle)
        for key in oracle:
            assert result.counts(key).tolist() == oracle.counts(key).tolist()


class TestPackedSubstrate:
    def test_popcount_matches_python(self):
        rng = np.random.default_rng(3)
        packed = rng.integers(0, 256, size=37, dtype=np.uint8)
        expected = sum(bin(b).count("1") for b in packed.tolist())
        assert popcount(packed) == expected

    def test_popcount_rows_last_axis(self):
        rng = np.random.default_rng(4)
        packed = rng.integers(0, 256, size=(5, 3, 11), dtype=np.uint8)
        counts = popcount_rows(packed)
        assert counts.shape == (5, 3)
        for i in range(5):
            for j in range(3):
                assert counts[i, j] == popcount(packed[i, j])

    def test_item_bitmaps_match_masks(self):
        ds = make_random_dataset(11, n_rows=53)  # odd → padding bits in play
        bitmaps = ds.packed_item_bitmaps
        assert bitmaps.shape == (ds.catalog.n_items, ds.n_packed_bytes)
        for item_id in range(ds.catalog.n_items):
            expected = np.packbits(ds.item_mask(item_id))
            assert (bitmaps[item_id] == expected).all()

    def test_channel_bitmaps_one_hot_only(self):
        ds = make_random_dataset(5)
        assert ds.channels_binary
        bitmaps = ds.packed_channel_bitmaps
        for j in range(ds.n_channels):
            expected = np.packbits(ds.channels[:, j].astype(bool))
            assert (bitmaps[j] == expected).all()

    def test_channel_bitmaps_reject_non_binary(self):
        from repro.exceptions import MiningError

        matrix = np.array([[0], [1]])
        catalog = ItemCatalog(["a"], [[0, 1]])
        ds = TransactionDataset(matrix, catalog, np.array([[2], [0]]))
        assert not ds.channels_binary
        with pytest.raises(MiningError):
            ds.packed_channel_bitmaps

    def test_as_words_preserves_popcounts(self):
        rng = np.random.default_rng(6)
        for n_bytes in (1, 7, 8, 9, 16, 41):
            packed = rng.integers(0, 256, size=(4, n_bytes), dtype=np.uint8)
            words = _as_words(packed)
            assert (popcount_rows(words) == popcount_rows(packed)).all()

    def test_fingerprint_identity(self):
        a = make_random_dataset(0)
        b = make_random_dataset(0)
        c = make_random_dataset(1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_fingerprint_sees_channels(self):
        matrix = np.array([[0], [1]])
        catalog = ItemCatalog(["a"], [[0, 1]])
        with_ch = TransactionDataset(matrix, catalog, np.array([[1], [0]]))
        without = TransactionDataset(matrix, catalog)
        assert with_ch.fingerprint() != without.fingerprint()


class TestExplicitStack:
    def test_walker_survives_beyond_recursion_limit(self):
        """A lattice deeper than the recursion limit must mine fine.

        Every subset of a frequent itemset is frequent, so a real
        lattice cannot outgrow the default limit; the mine runs in a
        fresh thread under a limit just above the stack depth a shallow
        mine needs, on a chain dataset deeper than that limit.
        """

        def chain(depth: int) -> TransactionDataset:
            # Two all-zero rows and one all-one row: at s=0.5 every
            # subset of the zero items is frequent, nothing else is.
            matrix = np.zeros((3, depth), dtype=np.int64)
            matrix[2] = 1
            catalog = ItemCatalog(
                [f"a{j}" for j in range(depth)], [[0, 1]] * depth
            )
            return TransactionDataset(matrix, catalog, np.eye(3, 2, dtype=int))

        outcome = {}

        def run():
            deepest = 0

            def profile(frame, event, arg):
                nonlocal deepest
                depth = 1 if event == "c_call" else 0
                while frame is not None:
                    depth, frame = depth + 1, frame.f_back
                deepest = max(deepest, depth)

            sys.setprofile(profile)
            try:
                mine_frequent(chain(3), 0.5, algorithm="bitset")
            finally:
                sys.setprofile(None)
            limit = deepest + 2
            depth = outcome["depth"] = limit + 1
            if depth > 24:  # 2**depth itemsets: keep the test small
                return
            deep = chain(depth)
            saved = sys.getrecursionlimit()
            sys.setrecursionlimit(limit)
            try:
                outcome["result"] = mine_frequent(deep, 0.5, algorithm="bitset")
            except RecursionError as exc:  # pragma: no cover - the failure
                outcome["error"] = exc
            finally:
                sys.setrecursionlimit(saved)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        depth = outcome["depth"]
        assert depth <= 24, "a shallow mine already needs a deep stack"
        assert "error" not in outcome, outcome.get("error")
        result = outcome["result"]
        assert result.max_length() == depth
        assert len(result) == 2**depth
        assert result.counts(frozenset(range(0, 2 * depth, 2))).tolist() == [
            2, 1, 1,
        ]


def reference_starts(last, group_end, catalog):
    """Per node: the first later sibling outside its own column."""
    starts = []
    for j, item in enumerate(last.tolist()):
        k = j + 1
        while k < group_end[j] and catalog.column_of(int(last[k])) == (
            catalog.column_of(item)
        ):
            k += 1
        starts.append(k)
    return starts


@st.composite
def frontiers(draw):
    """A catalog plus a frontier: sibling groups of id-sorted items."""
    cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    catalog = ItemCatalog([f"c{j}" for j in range(len(cards))], [
        list(range(c)) for c in cards
    ])
    groups = draw(
        st.lists(
            st.sets(st.integers(0, catalog.n_items - 1), min_size=1),
            min_size=1,
            max_size=6,
        )
    )
    last = np.array([i for g in groups for i in sorted(g)], dtype=np.uint32)
    sizes = [len(g) for g in groups]
    group_end = np.repeat(np.cumsum(sizes), sizes)
    return catalog, last, group_end


def frontier_dataset(rng, n_rows: int, channel_kind: str) -> TransactionDataset:
    catalog = ItemCatalog(
        ["a", "b", "c", "d"], [[0, 1, 2], [0, 1], [0, 1, 2, 3], [0, 1]]
    )
    # Skewed values keep some low-support patterns below the threshold.
    matrix = np.column_stack(
        [
            np.minimum(rng.geometric(0.5, n_rows) - 1, m - 1)
            for m in catalog.cardinalities
        ]
    )
    if channel_kind == "binary":
        labels = rng.integers(0, 3, n_rows)
        channels = np.eye(3, dtype=np.int64)[labels][:, :2]  # ⊥ rows too
    else:
        scores = rng.normal(size=n_rows)
        k = int(rng.integers(1, n_rows + 1))
        channels = encode_weight_channels(rank_weights(scores, channel_kind, k=k))
    return TransactionDataset(matrix, catalog, channels)


class TestFrontierEngine:
    """The level-wise engine against the oracle, with tiny tiles/blocks."""

    @given(frontiers())
    @settings(max_examples=80, deadline=None)
    def test_candidate_starts_skip_own_column(self, frontier):
        catalog, last, group_end = frontier
        got = candidate_starts(last, group_end, catalog)
        assert got.tolist() == reference_starts(last, group_end, catalog)

    def test_candidate_starts_by_hand(self):
        catalog = ItemCatalog(["x", "y", "z"], [[0, 1, 2], [0, 1], [0]])
        # One group of items 0,1,2 (x), 3,4 (y), 5 (z); then {1, 4}.
        last = np.array([0, 1, 2, 3, 4, 5, 1, 4], dtype=np.uint32)
        group_end = np.array([6] * 6 + [8] * 2)
        starts = candidate_starts(last, group_end, catalog)
        assert starts.tolist() == [3, 3, 3, 5, 5, 6, 7, 8]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from((9, 63, 65, 130, 200)),
        channel_kind=st.sampled_from(("binary", "exposure", "topk")),
        max_length=st.sampled_from((None, 0, 1, 2)),
        support=st.sampled_from((0.01, 0.05, 0.2)),
        tile_nodes=st.integers(1, 5),
        block_nodes=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=FIXTURE_OK)
    def test_matches_bruteforce_with_tiny_tiles_and_blocks(
        self,
        popcount_path,
        monkeypatch,
        seed,
        n_rows,
        channel_kind,
        max_length,
        support,
        tile_nodes,
        block_nodes,
    ):
        rng = np.random.default_rng(seed)
        dataset = frontier_dataset(rng, n_rows, channel_kind)
        words = _as_words(dataset.packed_item_bitmaps)[:1]
        # Tiles of a few candidates mix broadcast (one node) and gather
        # tiles; blocks of a few candidates split every frontier.
        monkeypatch.setattr(
            transactions_module, "_PLANE_TILE", tile_nodes * words.shape[1]
        )
        monkeypatch.setattr(
            transactions_module, "_FRONTIER_BYTES", block_nodes * words.nbytes
        )
        want = mine_frequent(
            dataset, support, algorithm="bruteforce", max_length=max_length
        )
        got = mine_frequent(
            dataset, support, algorithm="bitset", max_length=max_length
        )
        assert set(got) == set(want)
        for key in want:
            assert got.counts(key).tolist() == want.counts(key).tolist()
