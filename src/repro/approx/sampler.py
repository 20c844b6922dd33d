"""Seeded block row sampling for progressive exploration.

The sampler partitions the dataset into 64-aligned row *blocks*
(:func:`repro.fpm.transactions.plan_shards`), draws a seeded
permutation of the blocks, and materializes a sample as the ascending
concatenation of a permutation prefix: the sample's encoded rows and
channels are gathered by row index into a new ``TransactionDataset``,
which packs its own bitmaps at the first mine. Sampling a 10M-row
dataset therefore costs ``O(sample)`` and never packs the full rows.

Prefix selection makes samples *nested*: the rows of a smaller sample
are a subset of every larger sample under the same seed, which is what
lets the refinement driver double the sample without discarding the
statistical work of earlier rounds. Block sampling is cluster sampling:
for row-exchangeable data it matches simple random sampling, but when
adjacent rows are correlated the credible intervals of
:class:`~repro.approx.engine.ApproxResult` can undercover (see
``docs/approx.md``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.datasets.sampling import seeded_generator
from repro.exceptions import ReproError
from repro.fpm.transactions import TransactionDataset, plan_shards

# Row blocks are at least one shard-alignment unit (64 rows); the block
# count is capped so the permutation and the per-sample index gather
# stay cheap even at 10M+ rows.
BLOCK_ROWS = 64
MAX_BLOCKS = 4096

# Default first-round sample for auto mode: small enough that mining
# answers in tens of milliseconds, large enough that strong divergences
# separate immediately.
AUTO_SAMPLE_ROWS = 65_536


def auto_sample_rows(n_rows: int) -> int:
    """First-round sample size used by ``sample="auto"``.

    Capped both absolutely (:data:`AUTO_SAMPLE_ROWS`) and relatively
    (an eighth of the dataset, floored at 64 rows), so auto mode is a
    genuine sample — at least ~8x fewer rows than exact — whenever the
    dataset is large enough for sampling to pay at all; tiny datasets
    degenerate to the full (exact) row count.
    """
    return min(n_rows, AUTO_SAMPLE_ROWS, max(64, n_rows // 8))


def resolve_sample_rows(sample: float | int | str, n_rows: int) -> int:
    """Normalize a ``sample=`` spec (fraction, rows or ``"auto"``) to rows.

    Fractions in ``(0, 1]`` scale ``n_rows`` (ceil, at least one row);
    values ``> 1`` must be integral row counts. Validation beyond the
    structural checks here lives in :func:`repro.params.validate_sample`.
    """
    if sample == "auto":
        return auto_sample_rows(n_rows)
    value = float(sample)
    if not math.isfinite(value) or value <= 0:
        raise ReproError(f"sample must be positive and finite, got {sample!r}")
    if value <= 1.0:
        return max(1, min(n_rows, int(math.ceil(value * n_rows))))
    if value != int(value):
        raise ReproError(
            f"sample > 1 must be an integral row count, got {sample!r}"
        )
    return min(n_rows, int(value))


class SampleDesign:
    """A seeded block permutation over one dataset's rows.

    Built once per ``(n_rows, seed)`` and shared by every sample drawn
    from the dataset: ``blocks_for(target)`` returns the shortest
    permutation prefix covering ``target`` rows, so two targets under
    one design are nested samples.
    """

    def __init__(self, n_rows: int, seed: int | None = 0) -> None:
        if n_rows <= 0:
            raise ReproError("cannot sample an empty dataset")
        self.n_rows = n_rows
        self.seed = seed
        n_blocks = max(1, min(n_rows // BLOCK_ROWS, MAX_BLOCKS))
        bounds = plan_shards(n_rows, n_blocks)
        blocks = [
            (bounds[i], bounds[i + 1])
            for i in range(n_blocks)
            if bounds[i + 1] > bounds[i]
        ]
        order = seeded_generator(seed).permutation(len(blocks))
        self._blocks = [blocks[i] for i in order]
        self._cum = np.cumsum([stop - start for start, stop in self._blocks])

    def _prefix_length(self, target_rows: int) -> int:
        target = max(1, min(int(target_rows), self.n_rows))
        return int(np.searchsorted(self._cum, target, side="left")) + 1

    def rows_for(self, target_rows: int) -> int:
        """Actual sample size of the prefix covering ``target_rows``.

        Block granularity means the draw can only land on cumulative
        block widths; the returned size is the smallest achievable
        ``>= target_rows`` (capped at the dataset).
        """
        return int(self._cum[self._prefix_length(target_rows) - 1])

    def blocks_for(self, target_rows: int) -> list[tuple[int, int]]:
        """Row blocks of the sample, ascending by start, so the sample
        keeps the dataset's row order."""
        k = self._prefix_length(target_rows)
        return sorted(self._blocks[:k])

    def row_index(self, target_rows: int) -> np.ndarray:
        """Original-dataset row indices of the sample, ascending."""
        blocks = self.blocks_for(target_rows)
        if not blocks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.arange(start, stop, dtype=np.int64) for start, stop in blocks]
        )


def sample_dataset(
    dataset: TransactionDataset,
    design: SampleDesign,
    target_rows: int,
) -> TransactionDataset:
    """Materialize the sampled :class:`TransactionDataset`.

    Returns ``dataset`` itself when the target covers every row (the
    exact path — bit-identical by construction). Otherwise gathers the
    encoded matrix and channels by row index into a new dataset, so
    taking a sample never forces a full-dataset pack.
    """
    if dataset.multiplicity is not None:
        raise ReproError("samples are drawn from original rows, not distinct ones")
    if design.n_rows != dataset.n_rows:
        raise ReproError(
            f"sample design covers {design.n_rows} rows, dataset has "
            f"{dataset.n_rows}"
        )
    if design.rows_for(target_rows) >= dataset.n_rows:
        return dataset
    index = design.row_index(target_rows)
    return TransactionDataset(
        dataset.matrix[index], dataset.catalog, dataset.channels[index]
    )
