"""Row-sharded parallel mining over shared-memory packed bitmaps.

Algorithm 1 computes every per-itemset statistic as a sum over rows, so
the packed vertical bitmaps of a :class:`~repro.fpm.transactions.
TransactionDataset` partition cleanly by row: each shard holds the bit
columns of its row range, mines the *same* prefix tree as the serial
:class:`~repro.fpm.bitset.BitsetMiner`, and the master adds the
per-itemset ``[support, channel sums...]`` vectors across shards.
Integer addition is exact, so the merged table is bit-identical to a
serial run — which is what lets :class:`~repro.fpm.cache.MiningCache`
keys ignore the shard plan entirely.

Layout and lifecycle:

- ``plan_shards`` cuts the row space at 64-row boundaries, so each
  shard's bitmaps are sliced with the byte-copy fast path of
  :func:`~repro.fpm.transactions.slice_packed_bits` and reinterpret as
  uint64 words.
- Each shard is exported once per mining run through
  ``multiprocessing.shared_memory``: its item bitmaps, the channel-sum
  kernel's bit planes (:attr:`~repro.fpm.transactions.
  TransactionDataset.kernel_planes`) and, for rows with multiplicities,
  the multiplicity planes. The bitmap payload itself is never pickled;
  only plane weights and small per-level index arrays cross the pipes.
  A worker copies its shard, closes the segment and answers the root
  counts in one ``load`` step; the master then unlinks every segment.
- Workers are persistent fork-server processes pooled per worker count
  (:func:`get_pool`); pools are reused across runs and torn down at
  interpreter exit (:func:`shutdown_pools`).
- The search itself is level-synchronous (count distribution): the
  master drives the exact prefix-tree frontier of the serial miner and
  broadcasts each level's candidate ranges (``supports``), then the
  survivor mask (``store``). A worker holds only its shard of the
  frontier coverage and runs the serial engine's code on it: the
  :func:`~repro.fpm.bitset.pair_tiles` tiles, the
  :func:`~repro.fpm.bitset.and_pairs` AND, the support kernel and
  :func:`~repro.fpm.transactions.plane_sums` for every channel, binary
  or dense. The master finishes the merged sums with
  :func:`~repro.fpm.transactions.channel_vectors`, as the serial miner
  does.
- Cancellation is cooperative and never orphans the pool: the master
  checkpoints while waiting on workers, and on abort it *drains* every
  in-flight reply, releases the per-run worker state, and leaves the
  pool reusable. A dead worker invalidates its pool (rebuilt on next
  use) and surfaces as a :class:`~repro.exceptions.MiningError`.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
from multiprocessing import shared_memory

import numpy as np

from repro.exceptions import MiningError
from repro.fpm import transactions
from repro.fpm.bitset import (
    _as_words,
    and_pairs,
    candidate_pairs,
    candidate_starts,
    group_ends,
    pair_tiles,
    weighted_supports,
)
from repro.fpm.miner import FrequentItemsets, Miner
from repro.fpm.transactions import (
    TransactionDataset,
    channel_vectors,
    plan_shards,
    plane_sums,
    popcount_rows,
    slice_packed_bits,
)
from repro.obs import get_registry, span
from repro.resilience import checkpoint

__all__ = [
    "AUTO_ROW_THRESHOLD",
    "MAX_AUTO_WORKERS",
    "get_pool",
    "mine_sharded",
    "resolve_workers",
    "shardable",
    "shutdown_pools",
]

# Below this many stored rows the auto heuristic (n_workers=0) stays
# serial: export + level synchronization overhead beats any kernel gain
# on small data.
AUTO_ROW_THRESHOLD = 200_000
# Auto mode caps the pool: shard counts beyond this see no further
# kernel-efficiency gain and only add merge traffic.
MAX_AUTO_WORKERS = 4

# Seconds between cancellation checkpoints while waiting on workers.
_POLL_SECONDS = 0.02


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


class _Shard:
    """One worker's per-run state: its shard of the frontier coverage.

    Built by ``load`` from private copies of the segment, which is
    closed before the root counts go back; dropped on ``release`` so a
    pooled worker carries nothing between mining runs.
    """

    def __init__(self, name, n_items, n_planes, words, weights, mult, tile):
        # Attaching re-registers the name with the resource tracker;
        # workers are forked after ensure_running(), so this is a
        # duplicate add to the master's tracker set and the master's
        # unlink clears it exactly once.
        shm = shared_memory.SharedMemory(name=name)
        n_rows = n_items + n_planes + (0 if mult is None else mult[0].shape[0])
        # Explicit shape: an empty shard (words == 0) must still yield
        # (n_items, 0) coverage, not a (0, 0) array.
        arr = np.frombuffer(
            shm.buf, dtype=np.uint64, count=n_rows * words
        ).reshape(n_rows, words)
        self.cov = arr[:n_items].copy()
        planes = arr[n_items : n_items + n_planes].copy()
        mult_planes = arr[n_items + n_planes :].copy()
        # No view into the segment may outlive close() ("cannot close:
        # exported pointers exist").
        del arr
        shm.close()
        self.sums = plane_sums(planes, weights)
        self.n_sums = weights.shape[1]
        self.support = (
            popcount_rows if mult is None else weighted_supports(mult_planes, *mult)
        )
        # Pairs per AND tile: the tile stays near ``tile`` words, so a
        # level's working set stays in cache.
        self.tile = max(1, tile // max(1, words))
        self.buf = np.empty((0, words), dtype=np.uint64)
        self.pairs: tuple[np.ndarray, np.ndarray] | None = None

    def roots(self) -> np.ndarray:
        """``[support, kernel sums...]`` of every item on this shard."""
        return np.concatenate(
            [self.support(self.cov)[:, None], self.sums(self.cov)], axis=1
        )

    def scratch(self, n: int) -> np.ndarray:
        """An ``(n, words)`` AND buffer, grown but never reallocated
        per tile."""
        if len(self.buf) < n:
            self.buf = np.empty((n, self.buf.shape[1]), dtype=np.uint64)
        return self.buf[:n]

    def supports(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Local supports of every candidate pair of one level."""
        parent, cand = self.pairs = candidate_pairs(starts, ends)
        out = np.empty(len(parent), dtype=np.int64)
        for first, stop in pair_tiles(np.cumsum(ends - starts), self.tile):
            p, c = parent[first:stop], cand[first:stop]
            out[first:stop] = self.support(
                and_pairs(self.cov, p, c, self.scratch(stop - first))
            )
        return out

    def store(self, keep: np.ndarray, keep_block: bool) -> np.ndarray:
        """Kernel sums of the survivors; with ``keep_block`` their
        coverage becomes the next frontier."""
        parent, cand = (pairs[keep] for pairs in self.pairs)
        self.pairs = None
        bounds = np.append(np.flatnonzero(np.diff(parent)) + 1, len(parent))
        tiles = pair_tiles(bounds, self.tile)
        if keep_block:
            child = np.empty((len(parent), self.cov.shape[1]), dtype=np.uint64)
            for first, stop in tiles:
                p, c = parent[first:stop], cand[first:stop]
                and_pairs(self.cov, p, c, child[first:stop])
            self.cov = child
            return self.sums(child)
        # Final level: sums only, tile by tile through the scratch buffer.
        out = np.empty((len(parent), self.n_sums), dtype=np.int64)
        for first, stop in tiles:
            p, c = parent[first:stop], cand[first:stop]
            out[first:stop] = self.sums(
                and_pairs(self.cov, p, c, self.scratch(stop - first))
            )
        return out


def _worker_main(conn) -> None:
    """Shard worker loop: one :class:`_Shard` per mining run."""
    shard = None
    try:
        while True:
            msg = conn.recv()
            kind, args = msg[0], msg[1:]
            if kind == "shutdown":
                conn.close()
                return
            if kind == "load":
                shard = _Shard(*args)
                conn.send(shard.roots())
            elif kind == "keep_roots":
                shard.cov = shard.cov[args[0]]
            elif kind == "supports":
                conn.send(shard.supports(*args))
            elif kind == "store":
                conn.send(shard.store(*args))
            elif kind == "release":
                shard = None
                conn.send("ok")
    except (EOFError, OSError, KeyboardInterrupt):
        # Master went away (or is shutting down); exit quietly.
        return


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------


class _WorkerDied(Exception):
    """Internal: a pooled worker process is gone mid-protocol."""


class _ShardPool:
    """A persistent set of fork workers, one per shard.

    One mining run holds :attr:`lock` for its whole duration — the
    level-synchronous protocol cannot interleave two runs on the same
    pipes. Message accounting (``_pending``) makes aborts drainable:
    whatever was broadcast is received before the pool is released.
    """

    def __init__(self, n_workers: int) -> None:
        from multiprocessing import resource_tracker

        # Start the resource tracker before forking so every worker
        # inherits (and shares) it: shm registrations then live in one
        # tracker set and attach/unlink pairs cancel exactly.
        resource_tracker.ensure_running()
        ctx = mp.get_context("fork")
        self.n = n_workers
        self.lock = threading.Lock()
        self.conns = []
        self.procs = []
        self._pending = [0] * n_workers
        for _ in range(n_workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child,), daemon=True
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self.procs)

    def send(self, index: int, msg: tuple, replies: bool = True) -> None:
        try:
            self.conns[index].send(msg)
        except (OSError, BrokenPipeError) as exc:
            raise _WorkerDied(str(exc)) from exc
        if replies:
            self._pending[index] += 1

    def broadcast(self, msg: tuple, replies: bool = True) -> None:
        for index in range(self.n):
            self.send(index, msg, replies=replies)

    def gather(self, phase: str = "fpm.shard.wait") -> list:
        """One reply per worker, checkpointing while waiting.

        The poll loop keeps the master responsive to deadlines and
        cancel tokens while workers crunch a level; a raised checkpoint
        leaves the un-received replies pending for :meth:`drain`.
        """
        out = []
        for index, conn in enumerate(self.conns):
            try:
                while not conn.poll(_POLL_SECONDS):
                    checkpoint(phase)
                    if not self.procs[index].is_alive():
                        raise _WorkerDied(f"worker {index} exited")
                reply = conn.recv()
            except (EOFError, OSError) as exc:
                raise _WorkerDied(str(exc)) from exc
            self._pending[index] -= 1
            out.append(reply)
        return out

    def drain(self) -> None:
        """Receive every outstanding reply (no checkpoints: bounded by
        the workers finishing their current level)."""
        for index, conn in enumerate(self.conns):
            try:
                while self._pending[index] > 0:
                    conn.recv()
                    self._pending[index] -= 1
            except (EOFError, OSError) as exc:
                raise _WorkerDied(str(exc)) from exc

    def release(self) -> None:
        """Drop per-run worker state; the pool stays reusable."""
        self.broadcast(("release",))
        self.drain()

    def shutdown(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("shutdown",))
            except (OSError, BrokenPipeError):
                pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            conn.close()


_POOLS: dict[int, _ShardPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(n_workers: int) -> _ShardPool:
    """The persistent pool for ``n_workers`` shards, (re)built on demand."""
    with _POOLS_LOCK:
        pool = _POOLS.get(n_workers)
        if pool is None or not pool.alive():
            if pool is not None:
                pool.shutdown()
            pool = _ShardPool(n_workers)
            _POOLS[n_workers] = pool
        return pool


def _discard_pool(pool: _ShardPool) -> None:
    with _POOLS_LOCK:
        if _POOLS.get(pool.n) is pool:
            del _POOLS[pool.n]
    pool.shutdown()


def shutdown_pools() -> None:
    """Terminate every pooled worker process (idempotent)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# dispatch heuristics
# ----------------------------------------------------------------------


def shardable(dataset: TransactionDataset) -> bool:
    """Whether the sharded engine supports this dataset.

    Requires fork-start workers (shared COW pages, no pickled setup)
    and at least one row. Binary channels ride as bitmap planes,
    non-binary (dense) channels — the fixed-point sufficient statistics
    of the rank weight models — as the bit planes of
    their offsets from the column minima.
    """
    if "fork" not in mp.get_all_start_methods():
        return False
    if dataset.n_rows == 0:
        return False
    return True


def resolve_workers(
    n_workers: int | None, dataset: TransactionDataset
) -> int:
    """Effective shard count for a request: 1 means the serial path.

    ``None`` and ``1`` are serial; ``0`` is auto — serial below
    :data:`AUTO_ROW_THRESHOLD` stored rows (a dataset of distinct rows
    counts its distinct rows, not the transactions they stand for),
    else ``min(cpu_count, MAX_AUTO_WORKERS)``; any explicit count >= 2
    shards unconditionally (tests use this to exercise degenerate 1-row
    and empty shards).
    Ineligible datasets always resolve to serial.
    """
    if n_workers is None:
        return 1
    try:
        workers = int(n_workers)
    except (TypeError, ValueError):
        raise MiningError(
            f"n_workers must be an integer >= 0, got {n_workers!r}"
        ) from None
    if workers < 0:
        raise MiningError(f"n_workers must be >= 0 (0 = auto), got {workers}")
    if workers == 0:
        if dataset.n_physical < AUTO_ROW_THRESHOLD:
            return 1
        workers = min(os.cpu_count() or 1, MAX_AUTO_WORKERS)
    if workers < 2 or not shardable(dataset):
        return 1
    return workers


# ----------------------------------------------------------------------
# the sharded mine
# ----------------------------------------------------------------------


def mine_sharded(
    dataset: TransactionDataset,
    min_support: float,
    n_workers: int,
    max_length: int | None = None,
) -> FrequentItemsets:
    """Mine ``dataset`` across ``n_workers`` row shards.

    Bit-identical to ``mine_frequent(dataset, min_support,
    algorithm="bitset")``: the master walks the identical prefix tree
    (same item order, same column filter, same ``min_count`` threshold)
    and merges per-shard count vectors by int64 addition.
    """
    if n_workers < 2:
        raise MiningError(
            f"mine_sharded needs n_workers >= 2, got {n_workers}"
        )
    if not shardable(dataset):
        raise MiningError("dataset is not shardable (see fpm.sharded.shardable)")
    min_count = Miner._validate(dataset, min_support, max_length)
    n = dataset.n_rows
    levels = [(np.empty((1, 0), dtype=np.uint32), dataset.totals()[None, :])]
    if max_length == 0:
        return FrequentItemsets.from_levels(levels, n, min_support)

    pool = get_pool(n_workers)
    with pool.lock:
        try:
            try:
                _mine_into(pool, dataset, min_count, max_length, levels)
            finally:
                # Success, abort or worker failure: drain whatever is
                # still in flight, then free the per-run worker state —
                # a cancelled run must leave the pool reusable, never
                # orphaned mid-protocol.
                pool.drain()
                pool.release()
        except _WorkerDied as exc:
            _discard_pool(pool)
            raise MiningError(
                f"sharded mining worker died ({exc}); pool discarded"
            ) from exc
    return FrequentItemsets.from_levels(levels, n, min_support)


def _export_shards(pool: _ShardPool, dataset: TransactionDataset) -> list:
    """Slice, pad and publish each shard through shared memory.

    Each segment holds the shard's item bitmaps, then its kernel planes
    (:attr:`~repro.fpm.transactions.TransactionDataset.kernel_planes`),
    whose weights ride in the load message; then, for rows with
    multiplicities, the multiplicity planes, likewise.
    """
    n_items = dataset.catalog.n_items
    bounds = plan_shards(dataset.n_physical, pool.n)
    planes, weights, _ = dataset.kernel_planes
    blocks = [dataset.packed_item_bitmaps, planes]
    mult = None
    if dataset.multiplicity is not None:
        mult_planes, mult_weights, mult_vmin = dataset.layer.multiplicity_planes
        blocks.append(mult_planes)
        mult = (mult_weights, mult_vmin)
    n_bitmaps = sum(block.shape[0] for block in blocks)
    segments = []
    for index in range(pool.n):
        start, stop = bounds[index], bounds[index + 1]
        words = (stop - start + 63) // 64
        segment = shared_memory.SharedMemory(
            create=True, size=max(8, n_bitmaps * words * 8)
        )
        if words:
            view = np.frombuffer(
                segment.buf, dtype=np.uint64, count=n_bitmaps * words
            ).reshape(-1, words)
            view[:] = np.concatenate(
                [_as_words(slice_packed_bits(b, start, stop)) for b in blocks]
            )
            del view  # release the exported buffer before any close()
        segments.append(segment)
        message = (segment.name, n_items, len(planes), words, weights, mult)
        # The tile rides along: workers forked earlier see it too.
        pool.send(index, ("load", *message, transactions._PLANE_TILE))
    return segments


def _mine_into(
    pool: _ShardPool,
    dataset: TransactionDataset,
    min_count: int,
    max_length: int | None,
    levels: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    k = dataset.n_channels
    vmin = dataset.kernel_planes[2]
    catalog = dataset.catalog
    registry = get_registry()

    segments = []
    try:
        with span("fpm.shard.export"):
            segments = _export_shards(pool, dataset)
            roots = sum(pool.gather())
    finally:
        # Workers closed their handles in ``load`` (or died); the
        # segments are dead weight from here.
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:
                pass

    with span("fpm.shard.merge"):
        frequent = roots[:, 0] >= min_count
    pool.broadcast(("keep_roots", frequent), replies=False)
    with span("fpm.shard.merge"):
        roots = roots[frequent]
        keys = np.flatnonzero(frequent).astype(np.uint32)[:, None]
        levels.append((keys, channel_vectors(roots[:, 0], roots[:, 1:], vmin, k)))
        group_end = np.full(len(keys), len(keys))
        starts = candidate_starts(keys[:, -1], group_end, catalog)

    # The frontier is the serial miner's: key matrix, candidate ranges.
    while max_length is None or keys.shape[1] < max_length:
        checkpoint("fpm.shard.level")
        if not (group_end - starts).any():
            break
        registry.counter("fpm.shard.levels").inc()
        pool.broadcast(("supports", starts, group_end))
        with span("fpm.shard.count"):
            supports = sum(pool.gather())
        with span("fpm.shard.merge"):
            keep = supports >= min_count
            if not keep.any():
                break
            parent, cand = candidate_pairs(starts, group_end)
            parent, cand = parent[keep], cand[keep]
            keys = np.concatenate([keys[parent], keys[cand, -1:]], axis=1)
            group_end = group_ends(parent)
            starts = candidate_starts(keys[:, -1], group_end, catalog)
            # When the next level cannot produce candidates (length cap
            # hit, or no cross-column siblings anywhere) the workers
            # sum channels without materializing the next frontier —
            # the largest write on survivor-heavy runs.
            keep_block = bool((group_end - starts).any()) and (
                max_length is None or keys.shape[1] < max_length
            )
        pool.broadcast(("store", keep, keep_block))
        with span("fpm.shard.count"):
            sums = sum(pool.gather())
        with span("fpm.shard.merge"):
            levels.append((keys, channel_vectors(supports[keep], sums, vmin, k)))
        if not keep_block:
            break
