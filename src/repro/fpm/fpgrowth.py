"""FP-growth miner with outcome-channel augmentation.

Han, Pei & Yin's pattern-growth algorithm over an FP-tree whose node
counters are *vectors*: alongside the transaction count, every node
accumulates the sums of the outcome channels (the one-hot encoded T/F/⊥
indicators of the paper's Algorithm 1). Conditional trees propagate the
full vectors, so every emitted frequent itemset carries exact outcome
tallies at zero extra dataset passes — precisely the augmentation the
paper describes. Rows with a multiplicity add it, not 1, to the
transaction count, as the tree's own nodes do for shared prefixes.
"""

from __future__ import annotations

import numpy as np

from repro.fpm.miner import FrequentItemsets, ItemsetKey, Miner
from repro.fpm.transactions import TransactionDataset, exact_bincount
from repro.resilience import checkpoint


_MASK64 = (1 << 64) - 1


def _int64_sums(values: list[int]) -> np.ndarray:
    """Exact Python-int sums as int64, wrapped mod 2**64.

    The other backends sum channels in int64, which wraps; a sum that
    leaves the int64 range must wrap here too, not raise.
    """
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        wrapped = [v & _MASK64 for v in values]
        return np.array(wrapped, dtype=np.uint64).view(np.int64)


class _Node:
    """One FP-tree node: an item, vector counts, children and a parent link."""

    __slots__ = ("item", "counts", "children", "parent")

    def __init__(self, item: int, width: int, parent: "_Node | None") -> None:
        self.item = item
        self.counts = [0] * width
        self.children: dict[int, _Node] = {}
        self.parent = parent

    def add(self, vec: list[int]) -> None:
        """Accumulate a count vector into this node."""
        cnts = self.counts
        for i, v in enumerate(vec):
            cnts[i] += v


class _FPTree:
    """An FP-tree plus its header table of per-item node lists."""

    def __init__(self, width: int) -> None:
        self.root = _Node(-1, width, None)
        self.header: dict[int, list[_Node]] = {}
        self.item_totals: dict[int, list[int]] = {}
        self.width = width

    def insert(self, items: list[int], vec: list[int]) -> None:
        """Insert one (conditional) transaction with its count vector."""
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _Node(item, self.width, node)
                node.children[item] = child
                self.header.setdefault(item, []).append(child)
            child.add(vec)
            node = child
        totals = self.item_totals
        for item in items:
            tot = totals.get(item)
            if tot is None:
                totals[item] = list(vec)
            else:
                for i, v in enumerate(vec):
                    tot[i] += v

    def single_path(self) -> list[tuple[int, list[int]]] | None:
        """If the tree is one chain, return its ``(item, counts)`` list."""
        path: list[tuple[int, list[int]]] = []
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return None
            node = next(iter(node.children.values()))
            path.append((node.item, node.counts))
        return path


class FPGrowthMiner(Miner):
    """FP-growth with vector (outcome-augmented) counters."""

    name = "fpgrowth"

    def mine(
        self,
        dataset: TransactionDataset,
        min_support: float,
        max_length: int | None = None,
    ) -> FrequentItemsets:
        min_count = self._validate(dataset, min_support, max_length)
        n = dataset.n_rows
        width = 1 + dataset.n_channels
        out: dict[ItemsetKey, np.ndarray] = {frozenset(): dataset.totals()}
        if max_length == 0:
            return FrequentItemsets(out, n, min_support)

        # Pass 1: frequent single items, ordered by decreasing support.
        item_matrix = dataset.item_matrix
        flat = item_matrix.ravel()
        n_items = dataset.catalog.n_items
        multiplicity = dataset.multiplicity
        if multiplicity is None:
            item_counts = np.bincount(flat, minlength=n_items)
        else:
            weights = np.repeat(multiplicity, item_matrix.shape[1])
            item_counts = exact_bincount(flat, weights, n_items)
        frequent_items = [i for i in range(n_items) if item_counts[i] >= min_count]
        order = {
            item: rank
            for rank, item in enumerate(
                sorted(frequent_items, key=lambda i: (-item_counts[i], i))
            )
        }

        # Pass 2: build the tree. Rows sharing the same frequent-item
        # pattern are deduplicated first, so channel vectors aggregate
        # before insertion — a large win on low-cardinality data.
        tree = _FPTree(width)
        channels = dataset.channels
        grouped: dict[tuple[int, ...], list[int]] = {}
        for r in range(dataset.n_physical):
            if r % 4096 == 0:
                checkpoint("fpm.fpgrowth.build")
            row = [it for it in item_matrix[r] if it in order]
            row.sort(key=order.__getitem__)
            key = tuple(row)
            vec = grouped.get(key)
            weight = 1 if multiplicity is None else int(multiplicity[r])
            row_vec = [weight] + [int(c) for c in channels[r]]
            if vec is None:
                grouped[key] = row_vec
            else:
                for i, v in enumerate(row_vec):
                    vec[i] += v
        for key, vec in grouped.items():
            tree.insert(list(key), vec)

        self._grow(tree, [], min_count, max_length, out)
        return FrequentItemsets(out, n, min_support)

    # ------------------------------------------------------------------

    def _grow(
        self,
        tree: _FPTree,
        suffix: list[int],
        min_count: int,
        max_length: int | None,
        out: dict[ItemsetKey, np.ndarray],
    ) -> None:
        """Recursive pattern growth over conditional trees."""
        checkpoint("fpm.fpgrowth.grow")
        if max_length is not None and len(suffix) >= max_length:
            return
        path = tree.single_path()
        if path is not None:
            self._emit_single_path(path, suffix, min_count, max_length, out)
            return
        # Process items in increasing support order (deepest first).
        items = sorted(
            tree.item_totals, key=lambda i: (tree.item_totals[i][0], i)
        )
        for item in items:
            totals = tree.item_totals[item]
            if totals[0] < min_count:
                continue
            new_suffix = suffix + [item]
            out[frozenset(new_suffix)] = _int64_sums(totals)
            if max_length is not None and len(new_suffix) >= max_length:
                continue
            cond = _FPTree(tree.width)
            for node in tree.header.get(item, ()):  # conditional pattern base
                path_items: list[int] = []
                parent = node.parent
                while parent is not None and parent.item != -1:
                    path_items.append(parent.item)
                    parent = parent.parent
                if path_items:
                    path_items.reverse()
                    cond.insert(path_items, node.counts)
            # Filter the conditional tree's infrequent items by rebuilding
            # only if needed: insertions above may include items whose
            # conditional total is below min_count; _grow skips them.
            if cond.item_totals:
                self._grow(cond, new_suffix, min_count, max_length, out)

    @staticmethod
    def _emit_single_path(
        path: list[tuple[int, list[int]]],
        suffix: list[int],
        min_count: int,
        max_length: int | None,
        out: dict[ItemsetKey, np.ndarray],
    ) -> None:
        """Emit all combinations of a single-path tree directly.

        In a chain ``i1 -> i2 -> ... -> ik`` the counts of any subset of
        path items equal the counts of its deepest member, so every
        subset is enumerated without recursion.
        """
        frequent = [(item, cnt) for item, cnt in path if cnt[0] >= min_count]
        n_path = len(frequent)
        budget = None if max_length is None else max_length - len(suffix)
        for mask in range(1, 1 << n_path):
            if mask % 4096 == 0:
                checkpoint("fpm.fpgrowth.emit")
            size = mask.bit_count()
            if budget is not None and size > budget:
                continue
            members = [frequent[b] for b in range(n_path) if mask >> b & 1]
            deepest = members[-1][1]
            key = frozenset(suffix + [item for item, _ in members])
            out[key] = _int64_sums(deepest)
