"""In-memory span recording around the program's public layer functions.

The benchmark never edits the program. In a traced run it replaces
selected public functions and methods with thin wrappers that record a
span per call (name, start, end, parent, op id) into a list kept in
memory; the list is written out once, at the end of the run. A layer's
self time is its span's duration minus the time covered by its child
spans. Spans recorded outside an op (set-up, warm-up) are dropped.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import statistics
import threading
import time

# Span record fields: [id, name, start, end, parent id, op id, count].
ID, NAME, START, END, PARENT, OP, COUNT = range(7)


class Tracer:
    """Collects spans per thread; each thread carries its current op id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_op(self, op_id) -> None:
        self._local.op = op_id
        self._local.stack = []

    def enter(self, name: str) -> list | None:
        op = getattr(self._local, "op", None)
        if op is None:
            return None
        stack = self._local.stack
        record = [
            next(self._ids), name, time.perf_counter(), None,
            stack[-1][ID] if stack else None, op, 0,
        ]
        stack.append(record)
        return record

    def exit(self, record: list | None) -> None:
        if record is None:
            return
        record[END] = time.perf_counter()
        stack = self._local.stack
        if stack and stack[-1] is record:
            stack.pop()
        # list.append is atomic under the interpreter lock, so worker
        # threads of the server may record concurrently.
        self.spans.append(record)

    def span(self, name: str):
        return _Span(self, name)

    def install_gc_hook(self) -> None:
        """Record each collection as a ``gc.pause`` span of the running op.

        The callback runs on the thread that triggered the collection, so
        the pause nests under (and is subtracted from) the layer that was
        allocating. ``COUNT`` holds the collected generation.
        """
        open_records: dict[int, list | None] = {}

        def hook(phase: str, info: dict) -> None:
            key = threading.get_ident()
            if phase == "start":
                open_records[key] = self.enter("gc.pause")
            else:
                record = open_records.pop(key, None)
                if record is not None:
                    record[COUNT] = info.get("generation", 0)
                    self.exit(record)

        gc.callbacks.append(hook)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.record = None

    def __enter__(self):
        self.record = self.tracer.enter(self.name)
        return self.record

    def __exit__(self, *exc) -> bool:
        self.tracer.exit(self.record)
        return False


def wrap(tracer: Tracer, owner, attr: str, name: str, on_result=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``on_result(record, result, args)`` may annotate the span (rename it
    or set its count) after the call returns. Properties are wrapped
    through their getter.
    """
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    fn = original.fget if isinstance(original, property) else original

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(record)
        if on_result is not None and record is not None:
            on_result(record, result, args)
        return result

    setattr(
        owner, attr, property(wrapper) if isinstance(original, property) else wrapper
    )


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.app.server as server
    import repro.core.divergence as divergence
    import repro.core.multi as multi
    import repro.fpm.cache as cache
    import repro.rank.explorer as rank_explorer
    from repro.core.lattice_index import LatticeIndex
    from repro.core.result import PatternDivergenceResult
    from repro.fpm.cache import MiningCache
    from repro.fpm.transactions import TransactionDataset
    from repro.rank.explorer import RankDivergenceExplorer

    def mined(record, result, args):
        record[COUNT] = len(result)
        if not args[0].channels_binary:
            record[NAME] = "fpm.mine_dense"

    for module in (divergence, cache, rank_explorer, multi):
        wrap(tracer, module, "mine_frequent", "fpm.mine", mined)
    wrap(tracer, MiningCache, "mine", "fpm.cache")
    wrap(tracer, divergence, "outcome_channels", "outcomes.encode")
    wrap(tracer, divergence.DivergenceExplorer, "outcome_array", "outcomes.encode")
    wrap(tracer, divergence.DivergenceExplorer, "explore", "explorer.explore")
    wrap(tracer, RankDivergenceExplorer, "explore", "explorer.explore")
    wrap(tracer, rank_explorer, "rank_weights", "rank.weights")
    wrap(tracer, rank_explorer, "encode_weight_channels", "rank.weights")
    wrap(tracer, TransactionDataset, "__init__", "transactions.init")
    wrap(tracer, TransactionDataset, "packed_item_bitmaps", "transactions.pack")
    wrap(tracer, TransactionDataset, "packed_channel_bitmaps", "transactions.pack")
    wrap(tracer, TransactionDataset, "fingerprint", "transactions.fingerprint")
    wrap(tracer, PatternDivergenceResult, "__init__", "result.build")
    wrap(tracer, PatternDivergenceResult, "top_k", "result.top_k")
    wrap(tracer, LatticeIndex, "__init__", "lattice_index.build")
    wrap(tracer, PatternDivergenceResult, "shapley", "kernel.shapley")
    wrap(tracer, PatternDivergenceResult, "lattice", "kernel.lattice")
    wrap(tracer, server, "prune_redundant", "kernel.prune")
    wrap(tracer, server, "explain_top_k", "kernel.explain")
    wrap(tracer, server, "global_item_divergence", "kernel.global")
    wrap(tracer, server, "individual_item_divergence", "kernel.global")
    wrap(tracer, server, "find_corrective_items", "kernel.corrective")
    # The handler has no public per-endpoint API; its endpoint methods
    # build the response rows from kernel output, which is rendering.
    wrap(tracer, server.AppState, "explore_rows", "app.serialize")
    for endpoint in ("_explore", "_explain", "_shapley", "_global", "_corrective", "_lattice"):
        wrap(tracer, server._Handler, endpoint, "app.serialize")
    wrap(tracer, server._Handler, "_send_json", "app.serialize")
    tracer.install_gc_hook()


def load_spans(path: str) -> list[list]:
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# summaries


def layer_table(
    per_op_self: dict[object, dict[str, float]], op_wall: dict[object, float]
) -> dict[str, dict[str, float]]:
    """Median self ms over the ops a layer ran in, and its share of op time."""
    total_wall = sum(op_wall.values())
    layers: dict[str, list[float]] = {}
    for op, by_layer in per_op_self.items():
        if op not in op_wall:
            continue
        for name, seconds in by_layer.items():
            layers.setdefault(name, []).append(seconds)
    return {
        name: {
            "median_ms": statistics.median(values) * 1e3,
            "share": sum(values) / total_wall if total_wall else 0.0,
        }
        for name, values in layers.items()
    }


def group_self_times(spans: list[list]) -> dict[object, dict[str, float]]:
    """``{op: {layer: self seconds}}`` for one process's spans.

    Parent ids resolve only within one process's list, so the load
    generator's and the server's spans are summarised separately.
    """
    child_time: dict[int, float] = {}
    for record in spans:
        if record[PARENT] is not None:
            child_time[record[PARENT]] = (
                child_time.get(record[PARENT], 0.0) + record[END] - record[START]
            )
    out: dict[object, dict[str, float]] = {}
    for record in spans:
        seconds = record[END] - record[START] - child_time.get(record[ID], 0.0)
        by_layer = out.setdefault(record[OP], {})
        by_layer[record[NAME]] = by_layer.get(record[NAME], 0.0) + seconds
    return out
