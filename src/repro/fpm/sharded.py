"""Row-sharded parallel mining over shared-memory packed bitmaps.

Algorithm 1 computes every per-itemset statistic as a sum over rows, so
the packed vertical bitmaps of a :class:`~repro.fpm.transactions.
TransactionDataset` partition cleanly by row: each shard holds the bit
columns of its row range, mines the *same* prefix tree as the serial
:class:`~repro.fpm.bitset.BitsetMiner`, and the master adds the
per-itemset ``[support, ch...]`` count vectors across shards. Integer
addition is exact, so the merged table is bit-identical to a serial run
— which is what lets :class:`~repro.fpm.cache.MiningCache` keys ignore
the shard plan entirely.

Layout and lifecycle:

- ``plan_shards`` cuts the row space at 64-row boundaries, so each
  shard's bitmaps are sliced with the byte-copy fast path of
  :func:`~repro.fpm.transactions.slice_packed_bits` and reinterpret as
  uint64 words.
- Each shard is exported once per mining run through
  ``multiprocessing.shared_memory`` — the bitmap payload itself is
  never pickled; only small per-level candidate index arrays cross the
  pipes. Workers build their derived root blocks from the segment and
  close it immediately; the master unlinks every segment as soon as the
  roots are acknowledged, so no segment outlives the load phase.
- Workers are persistent fork-server processes pooled per worker count
  (:func:`get_pool`); pools are reused across runs and torn down at
  interpreter exit (:func:`shutdown_pools`).
- The search itself is level-synchronous (count distribution): the
  master drives the exact prefix-tree frontier of the serial miner,
  broadcasting per-level candidate ranges; workers answer with local
  count vectors that merge by addition. Items are in fixed id order, so
  a node's cross-column candidates form one contiguous sibling run —
  workers AND whole ranges with no index gathers.
- Cancellation is cooperative and never orphans the pool: the master
  checkpoints while waiting on workers, and on abort it *drains* every
  in-flight reply, releases the per-run worker state, and leaves the
  pool reusable. A dead worker invalidates its pool (rebuilt on next
  use) and surfaces as a :class:`~repro.exceptions.MiningError`.

When the one-hot outcome channels form a complete partition of the rows
(no ⊥ rows: channels disjoint and covering), the engine carries only
``k - 1`` channel bitmaps and reconstructs the last channel count as
``support - sum(others)`` — exact in integers — halving channel
traffic for the common (T, F) case.

Rows with multiplicities (a dataset of distinct rows) shard like any
rows. The multiplicity column rides as bit planes after the channel
planes; workers count every support as the multiplicity sum of the
covered rows through the serial engine's
:func:`~repro.fpm.bitset.weighted_supports`.

Non-binary (dense) channels — the fixed-point (Σw, Σw²) statistics of
the continuous and ranking extensions — ride as their bit planes
(:attr:`~repro.fpm.transactions.TransactionDataset.channel_planes`)
after the item bitmaps, with the plane weights in the load message.
Dense runs carry coverage only; workers sum survivors through the
serial miner's kernel (:func:`~repro.fpm.transactions.plane_sums`) over
a private copy of their planes, and the master adds ``support · vmin``
after the int64 merge, so dense results stay bit-identical too.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
from multiprocessing import shared_memory

import numpy as np

from repro.exceptions import MiningError
from repro.fpm.bitset import (
    _as_words,
    candidate_pairs,
    candidate_starts,
    group_ends,
    weighted_supports,
)
from repro.fpm.miner import FrequentItemsets, Miner
from repro.fpm.transactions import (
    TransactionDataset,
    add_offsets,
    plan_shards,
    plane_sums,
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
# Words per support-pass tile (~1 MiB of uint64): bounds the working
# set of the broadcast AND so survivor-heavy levels stay in cache.
_WORD_TILE = 1 << 17


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _worker_main(conn) -> None:
    """Shard worker loop: holds one shard's coverage blocks.

    Per-run state lives in ``state`` and is dropped on ``release`` so a
    pooled worker carries nothing between mining runs. The shared-memory
    segment is closed as soon as the derived root blocks exist (the
    ``roots`` step); only private copies survive it.
    """
    state: dict = {}

    def _release() -> None:
        shm = state.pop("shm", None)
        state.clear()
        if shm is not None:
            try:
                shm.close()
            except OSError:
                pass

    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "shutdown":
                _release()
                conn.close()
                return
            if kind == "load":
                _, name, n_items, k, words, weights, mult = msg
                # Attaching re-registers the name with the resource
                # tracker; workers are forked after ensure_running(),
                # so this is a duplicate add to the master's tracker
                # set and the master's unlink clears it exactly once.
                shm = shared_memory.SharedMemory(name=name)
                # Channel planes follow the item bitmaps: k binary
                # channel bitmaps, or the dense channels' bit planes.
                n_planes = k if weights is None else weights.shape[0]
                # Then the multiplicity planes, if the rows carry them.
                n_mult = 0 if mult is None else mult[0].shape[0]
                n_rows = n_items + n_planes + n_mult
                # Explicit shape: an empty shard (words == 0) must
                # still yield (n_items, 0) views, not a (0, 0) array.
                arr = np.frombuffer(
                    shm.buf, dtype=np.uint64, count=n_rows * words
                ).reshape(n_rows, words)
                planes_end = n_items + n_planes
                state.update(
                    shm=shm,
                    item_w=arr[:n_items],
                    chan_w=arr[n_items:planes_end],
                    words=words,
                    k=k,
                    n_items=n_items,
                    # Dense channels: a private copy of the planes (it
                    # must survive the segment's close at roots) and
                    # the kernel over them.
                    sums=None
                    if weights is None
                    else plane_sums(arr[n_items:planes_end].copy(), weights),
                    support=None
                    if mult is None
                    else weighted_supports(arr[planes_end:].copy(), *mult),
                )
                chan_w = state["chan_w"]
                if k and words and weights is None:
                    union = np.bitwise_or.reduce(chan_w, axis=0)
                    or_popc = int(np.bitwise_count(union).sum(dtype=np.int64))
                    sum_popc = int(
                        np.bitwise_count(chan_w).sum(dtype=np.int64)
                    )
                else:
                    or_popc = sum_popc = 0
                # Keep only the state-held views alive: a lingering
                # local would block shm.close() at the roots step
                # ("cannot close: exported pointers exist").
                del arr, chan_w
                conn.send((or_popc, sum_popc))
            elif kind == "roots":
                kk = msg[1]
                item_w = state.pop("item_w")
                chan_w = state.pop("chan_w")
                words = state["words"]
                n_items = state["n_items"]
                B = np.empty((n_items, 1 + kk, words), dtype=np.uint64)
                B[:, 0, :] = item_w
                if kk:
                    np.bitwise_and(
                        item_w[:, None, :], chan_w[None, :kk, :], out=B[:, 1:, :]
                    )
                counts = np.bitwise_count(B).sum(axis=-1, dtype=np.int64)
                if state["support"] is not None:
                    counts[:, 0] = state["support"](B[:, 0])
                if state["sums"] is not None:
                    # Dense: every root's offset sums, merged by int64
                    # addition at the master like the counts.
                    counts = np.concatenate(
                        [counts, state["sums"](B[:, 0])], axis=1
                    )
                # The derived blocks are private copies: drop every view
                # into the segment and close it now, so the master can
                # unlink without any exported-pointer noise.
                del item_w, chan_w
                shm = state.pop("shm", None)
                if shm is not None:
                    shm.close()
                state["B"] = B
                state["kk"] = kk
                conn.send(counts)
            elif kind == "keep_roots":
                state["B"] = np.ascontiguousarray(state["B"][msg[1]])
            elif kind == "supports":
                _, starts, ends, total = msg
                B = state["B"]
                w = state["words"]
                support = state["support"]
                # Candidates per AND tile: the broadcast AND of a huge
                # sibling run never spills the cache.
                tile = max(1, _WORD_TILE // max(w, 1))
                buf = state.get("buf")
                if buf is None or buf.shape != (tile, w):
                    buf = np.empty((tile, w), dtype=np.uint64)
                    state["buf"] = buf
                sups = np.empty(total, dtype=np.int64)
                pos = 0
                for j in range(len(starts)):
                    for a in range(starts[j], ends[j], tile):
                        e = min(a + tile, ends[j])
                        b = buf[: e - a]
                        np.bitwise_and(B[j, 0][None, :], B[a:e, 0], out=b)
                        if support is None:
                            np.bitwise_count(b, out=b)
                            sups[pos : pos + e - a] = b.sum(axis=1, dtype=np.int64)
                        else:
                            sups[pos : pos + e - a] = support(b)
                        pos += e - a
                conn.send(sups)
            elif kind == "store":
                _, nodes, offs, rows, n_next, keep_block = msg
                B = state["B"]
                kk = state["kk"]
                w = state["words"]
                sums = state["sums"]
                out_cols = kk if sums is None else state["k"]
                ch_counts = np.empty((n_next, out_cols), dtype=np.int64)
                max_m = int((offs[1:] - offs[:-1]).max()) if len(nodes) else 0
                scratch = np.empty(
                    (max(max_m, 1), max(kk, 1), w), dtype=np.uint64
                )
                if keep_block:
                    # Survivor blocks are written straight into the next
                    # level's array — no per-level concatenation.
                    NB = np.empty((n_next, 1 + kk, w), dtype=np.uint64)
                    c = 0
                    for i in range(len(nodes)):
                        j = nodes[i]
                        rv = rows[offs[i] : offs[i + 1]]
                        m = len(rv)
                        np.bitwise_and(
                            B[j, 0][None, :], B[rv, 0], out=NB[c : c + m, 0]
                        )
                        if kk:
                            np.bitwise_and(
                                B[j, 1:][None, :, :],
                                B[rv, 1:],
                                out=NB[c : c + m, 1:],
                            )
                            s = scratch[:m, :kk]
                            np.bitwise_count(NB[c : c + m, 1:], out=s)
                            ch_counts[c : c + m] = s.sum(axis=-1, dtype=np.int64)
                        c += m
                    if sums is not None:
                        ch_counts = sums(NB[:, 0])
                    state["B"] = NB
                else:
                    # Final level: counts only, skip materializing the
                    # next block entirely (dense channels still need the
                    # survivor coverage, ANDed into scratch).
                    c = 0
                    for i in range(len(nodes)):
                        j = nodes[i]
                        rv = rows[offs[i] : offs[i + 1]]
                        m = len(rv)
                        if kk:
                            s = scratch[:m, :kk]
                            np.bitwise_and(B[j, 1:][None, :, :], B[rv, 1:], out=s)
                            np.bitwise_count(s, out=s)
                            ch_counts[c : c + m] = s.sum(axis=-1, dtype=np.int64)
                        elif sums is not None:
                            s = scratch[:m, 0]
                            np.bitwise_and(B[j, 0][None, :], B[rv, 0], out=s)
                            ch_counts[c : c + m] = sums(s)
                        c += m
                conn.send(ch_counts)
            elif kind == "release":
                _release()
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
    of the continuous and ranking extensions — as the bit planes of
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

    Each segment holds the shard's item bitmaps followed by its channel
    planes (:attr:`~repro.fpm.transactions.TransactionDataset.
    channel_planes`): the binary channel bitmaps, or the dense channels'
    bit planes, whose weights ride in the load message; then, for rows
    with multiplicities, the multiplicity planes, likewise.
    """
    k = dataset.n_channels
    n_items = dataset.catalog.n_items
    bounds = plan_shards(dataset.n_physical, pool.n)
    planes, weights, _ = dataset.channel_planes
    blocks = [dataset.packed_item_bitmaps, planes]
    dense_weights = None if dataset.channels_binary else weights
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
        pool.send(
            index,
            ("load", segment.name, n_items, k, words, dense_weights, mult),
        )
    return segments


def _mine_into(
    pool: _ShardPool,
    dataset: TransactionDataset,
    min_count: int,
    max_length: int | None,
    levels: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    n = dataset.n_rows
    k = dataset.n_channels
    dense = not dataset.channels_binary
    vmin = dataset.channel_planes[2]
    catalog = dataset.catalog
    registry = get_registry()

    segments = []
    try:
        with span("fpm.shard.export"):
            segments = _export_shards(pool, dataset)
            stats = pool.gather()
            # Complete-partition detection must aggregate over shards:
            # one shard can look complete while another holds the ⊥
            # rows whose channels are all zero. Dense shards report
            # (0, 0), so they can never register as complete.
            or_total = sum(s[0] for s in stats)
            sum_total = sum(s[1] for s in stats)
            # The totals count stored rows: on distinct rows they reach
            # n (transactions) only when every multiplicity is 1.
            complete = not dense and k >= 1 and or_total == n and sum_total == n
            # Dense runs carry coverage only; workers sum the channels
            # through their private planes.
            kk = 0 if dense else (k - 1 if complete else k)
            pool.broadcast(("roots", kk))
            root_counts = sum(pool.gather())
    finally:
        # Workers closed their handles when building roots (or will on
        # release); the segments themselves are dead weight from here.
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:
                pass

    def full(sup: np.ndarray, ch: np.ndarray) -> np.ndarray:
        if dense:
            # Workers sum offsets from the channel minima; the merged
            # support restores them.
            ch = add_offsets(ch, sup, vmin)
        if not complete:
            return np.concatenate([sup[:, None], ch], axis=1)
        last = sup - ch.sum(axis=1)
        return np.concatenate([sup[:, None], ch, last[:, None]], axis=1)

    with span("fpm.shard.merge"):
        root_support = root_counts[:, 0]
        frequent = root_support >= min_count
        freq_items = np.flatnonzero(frequent)
    pool.broadcast(("keep_roots", frequent), replies=False)
    with span("fpm.shard.merge"):
        root_vectors = full(root_support[frequent], root_counts[frequent, 1:])
        keys = freq_items.astype(np.uint32)[:, None]
        levels.append((keys, root_vectors))
        group_end = np.full(len(keys), len(keys))
        starts = candidate_starts(keys[:, -1], group_end, catalog)

    # The frontier is the serial miner's: key matrix, candidate ranges.
    while max_length is None or keys.shape[1] < max_length:
        checkpoint("fpm.shard.level")
        total = int((group_end - starts).sum())
        if total == 0:
            break
        registry.counter("fpm.shard.levels").inc()
        pool.broadcast(("supports", starts, group_end, total))
        with span("fpm.shard.count"):
            supports = sum(pool.gather())
        with span("fpm.shard.merge"):
            parent, rows = candidate_pairs(starts, group_end)
            keep = supports >= min_count
            if not keep.any():
                break
            parent, rows = parent[keep], rows[keep]
            # Survivors of one node are one run of ``rows``.
            offs = np.flatnonzero(np.diff(parent, prepend=-1))
            nodes = parent[offs]
            offs = np.append(offs, len(parent))
            keys = np.concatenate([keys[parent], keys[rows, -1:]], axis=1)
            group_end = group_ends(parent)
            starts = candidate_starts(keys[:, -1], group_end, catalog)
            # When the next level cannot produce candidates (length cap
            # hit, or no cross-column siblings anywhere) the workers
            # count channels without materializing the next block at
            # all — the largest write on survivor-heavy runs.
            keep_block = bool((group_end - starts).any()) and (
                max_length is None or keys.shape[1] < max_length
            )
        pool.broadcast(("store", nodes, offs, rows, len(rows), keep_block))
        with span("fpm.shard.count"):
            channel_counts = sum(pool.gather())
        with span("fpm.shard.merge"):
            vectors = full(supports[keep], channel_counts)
            levels.append((keys, vectors))
        if not keep_block:
            break
