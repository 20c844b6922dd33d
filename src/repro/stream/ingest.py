"""Append-only ingestion buffer for streaming divergence analysis.

:class:`StreamBuffer` accepts batches of dictionary-encoded rows plus
their outcome channels and copies them into row buffers that grow by
amortized doubling, so appending a batch costs ``O(batch)`` however
many rows have accumulated; ``benchmarks/bench_stream_ingest.py``
measures it against rebuilding a packed ``TransactionDataset`` over the
whole history.

:meth:`StreamBuffer.window_dataset` builds a window as a new
``TransactionDataset`` over the window's rows, which packs its own
bitmaps at the first mine. The downstream miners, caches and divergence
analytics therefore run unchanged on live data, including the
row-sharded engine (:mod:`repro.fpm.sharded`) when the monitor is
configured with ``n_workers``. Each window's fingerprint names exactly
its rows, so a :class:`~repro.fpm.cache.MiningCache` entry of a shorter
buffer is never served for a longer one.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MiningError
from repro.fpm.transactions import ItemCatalog, TransactionDataset
from repro.obs import get_registry
from repro.resilience import checkpoint


class StreamBuffer:
    """Append-only store of encoded rows and their outcome channels.

    Parameters
    ----------
    catalog:
        The item catalog all appended rows are encoded against. Fixed
        for the lifetime of the buffer (streaming does not re-learn the
        schema).
    n_channels:
        Width of the outcome channel matrix (2 for the one-hot ``T``/
        ``F`` channels of Algorithm 1).
    initial_capacity:
        Starting row capacity of the backing buffers; grows by doubling.
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        n_channels: int = 2,
        initial_capacity: int = 1024,
    ) -> None:
        if n_channels < 0:
            raise MiningError(f"n_channels must be >= 0, got {n_channels}")
        self.catalog = catalog
        self.n_channels = int(n_channels)
        self._n_rows = 0
        self.batches = 0
        cap = max(8, int(initial_capacity))
        n_attrs = len(catalog.attributes)
        self._matrix = np.zeros((cap, n_attrs), dtype=np.int32)
        self._channels = np.zeros((cap, self.n_channels), dtype=np.int64)

    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Rows ingested so far."""
        return self._n_rows

    @property
    def capacity(self) -> int:
        """Current row capacity of the backing buffers."""
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """View of the ingested ``(n_rows, n_attrs)`` code matrix."""
        return self._matrix[: self._n_rows]

    @property
    def channels(self) -> np.ndarray:
        """View of the ingested ``(n_rows, n_channels)`` channel matrix."""
        return self._channels[: self._n_rows]

    def __len__(self) -> int:
        return self._n_rows

    # ------------------------------------------------------------------

    def append(self, matrix: np.ndarray, channels: np.ndarray) -> int:
        """Append a batch of rows; returns the new total row count.

        ``matrix`` is ``(b, n_attrs)`` dictionary-encoded codes and
        ``channels`` the matching ``(b, n_channels)`` outcome channels.
        Cost is proportional to the batch: its rows are copied behind
        the accumulated ones.
        """
        checkpoint("stream.append")
        mat = np.asarray(matrix)
        if mat.ndim != 2 or mat.shape[1] != len(self.catalog.attributes):
            raise MiningError(
                f"batch matrix must be (rows, {len(self.catalog.attributes)}), "
                f"got {mat.shape}"
            )
        ch = np.asarray(channels)
        if ch.ndim != 2 or ch.shape[0] != mat.shape[0] or ch.shape[1] != self.n_channels:
            raise MiningError(
                f"batch channels must be ({mat.shape[0]}, {self.n_channels}), "
                f"got {ch.shape}"
            )
        for j, m in enumerate(self.catalog.cardinalities):
            if mat.shape[0] and (mat[:, j].min() < 0 or mat[:, j].max() >= m):
                raise MiningError(f"codes out of range in column {j}")
        b = mat.shape[0]
        if b == 0:
            return self._n_rows
        old = self._n_rows
        self._reserve(old + b)
        self._matrix[old : old + b] = mat
        self._channels[old : old + b] = ch
        self._n_rows = old + b
        self.batches += 1
        registry = get_registry()
        registry.counter("stream.batches").inc()
        registry.counter("stream.rows").inc(b)
        registry.gauge("stream.buffer_rows").set(float(self._n_rows))
        return self._n_rows

    def _reserve(self, n_rows: int) -> None:
        """Grow the backing buffers to hold ``n_rows`` (doubling)."""
        cap = self.capacity
        if n_rows <= cap:
            return
        while cap < n_rows:
            cap *= 2
        matrix = np.zeros((cap, self._matrix.shape[1]), dtype=np.int32)
        matrix[: self._n_rows] = self._matrix[: self._n_rows]
        self._matrix = matrix
        channels = np.zeros((cap, self.n_channels), dtype=np.int64)
        channels[: self._n_rows] = self._channels[: self._n_rows]
        self._channels = channels
        get_registry().counter("stream.buffer_growths").inc()

    # ------------------------------------------------------------------

    def window_dataset(self, start: int, stop: int) -> TransactionDataset:
        """Rows ``[start, stop)`` as a new ``TransactionDataset``."""
        if not 0 <= start < stop <= self._n_rows:
            raise MiningError(
                f"window [{start}, {stop}) out of range for {self._n_rows} rows"
            )
        return TransactionDataset(
            self._matrix[start:stop], self.catalog, self._channels[start:stop]
        )

    def dataset(self) -> TransactionDataset:
        """The whole buffer as a ``TransactionDataset``."""
        return self.window_dataset(0, self._n_rows)
