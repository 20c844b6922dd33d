"""End-to-end and per-layer benchmark of the DivExplorer reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload heart-cold --seed 1 --seconds 16 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

- ``heart-cold``   server, 1 client: cold ``/api/explore`` cells on heart.
- ``rows1m-cold``  library, 1 thread: cold explores of a uniform 1M-row table
                   (runnable, but not listed in ``BENCHMARK.json``).
- ``rank1m-cold``  library, 1 thread: cold rank explores of 1M ranking rows.
- ``session-warm`` server, 2 clients: analyst sessions on adult and compas.

Every answer is checked against a reference computed before timing with
``algorithm="fpgrowth"``. With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer table
of a separate traced replay of the same ops.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
LIBRARY = ("rows1m-cold", "rank1m-cold")
#: workload -> (clients, datasets to warm up, ops after which the peak RSS
#: is read). heart-cold's server keeps every cold lattice it answers, so
#: its memory grows per op; reading it after a fixed op count keeps it
#: independent of how many ops the run completes.
SERVER = {
    "heart-cold": (1, ("heart",), 6),
    "session-warm": (2, ("adult", "compas"), None),
}
WORKLOADS = ("heart-cold", "rows1m-cold", "rank1m-cold", "session-warm")
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170
COVERAGE_FLOOR = 0.95

#: Layers whose self time the traced run reports (``<layer>_ms`` median
#: per op over the ops it ran in, ``<layer>.share`` of all op time).
LAYERS = (
    "outcomes.encode", "transactions.init", "transactions.pack",
    "transactions.fingerprint", "explorer.explore", "fpm.cache", "fpm.mine",
    "fpm.mine_dense", "rank.weights", "result.build", "result.top_k",
    "lattice_index.build", "kernel.prune", "kernel.global", "kernel.corrective",
    "kernel.shapley", "kernel.explain", "kernel.lattice", "gc.pause",
    "app.handler", "app.serialize", "app.write", "app.transport",
)


# ----------------------------------------------------------------------
# statistics


def tail(latencies: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with >= 10 samples
    beyond it, i.e. the 11th-largest latency. Below 20 samples no
    percentile at or above the median qualifies, so the median is used.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


# ----------------------------------------------------------------------
# process hygiene


def child_pids() -> list[int]:
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


# ----------------------------------------------------------------------
# library workloads


def run_library(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import plans

    if workload == "rows1m-cold":
        plan = plans.rows1m_plan(seed)
        refs = plans.rows1m_reference(plans.rows1m_table(seed), plan)
    else:
        plan = plans.rank1m_plan(seed)
        refs = plans.rank1m_reference(*plans.rank1m_data(seed), plan)
    gc.collect()

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "libworker.py"), workload, str(seed),
           str(seconds), "1" if trace else "0", str(OUT_DIR)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    out = json.loads(stdout.decode().strip().splitlines()[-1])

    run = {
        "setup_s": out["setup_s"],
        "latencies": out["latencies"],
        "failures": [
            f"op {i}: answer differs from the fpgrowth reference for {plan[i]}"
            for i, digest in enumerate(out["digests"])
            if not plans.same(digest, refs[i])
        ],
        "wall": out["wall"],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    if trace:
        run["traced_failures"] = [
            f"traced op {i}: answer differs from the fpgrowth reference"
            for i, digest in enumerate(out["traced_digests"])
            if not plans.same(digest, refs[i])
        ]
        run["layers"] = library_layers(out)
    return run


def library_layers(out: dict) -> dict:
    from tracing import END, NAME, OP, START, group_self_times, load_spans

    spans = load_spans(out["spans"])
    os.unlink(out["spans"])
    per_op = group_self_times(spans)
    # The benchmark's own "op" span is the root; its self time is the
    # part of the op no layer accounts for.
    op_wall = {r[OP]: r[END] - r[START] for r in spans if r[NAME] == "op"}
    for by_layer in per_op.values():
        by_layer.pop("op", None)
    stats = out["mining_cache"]
    hits = stats["hits"] + stats["monotone_hits"]
    print_ops(per_op, op_wall)
    return layer_metrics(
        per_op, op_wall, spans, out["latencies"], out["traced_latencies"],
        fpm_hit_ratio=ratio(hits, hits + stats["misses"]),
        app_hit_ratio=0.0, server_ms=0.0,
    )


# ----------------------------------------------------------------------
# server workloads


def run_server(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import plans
    from httpload import ServerProcess, run_sessions

    clients, datasets, rss_after = SERVER[workload]
    if workload == "heart-cold":
        sessions = [[op] for op in plans.heart_plan(seed)]
    else:
        sessions = plans.session_plan(seed)

    # The plan and its reference answers are long-lived; freezing them
    # keeps this process's collections short while ops are timed.
    gc.collect()
    gc.freeze()
    setup = []
    server = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = ServerProcess(ROOT, seed)
            server.wait_ready(datasets)
            setup.append(time.perf_counter() - started)
        records, wall, peak = run_sessions(
            server, sessions, clients, seconds=seconds, rss_after=rss_after
        )
    finally:
        if server is not None:
            server.stop()
    kinds: dict[str, list[float]] = {}
    for record in records:
        kinds.setdefault(record.kind, []).append(record.seconds * 1e3)
    print("op kinds (count, median ms): " + ", ".join(
        f"{k} {len(v)} {statistics.median(v):.1f}" for k, v in sorted(kinds.items())))
    run = {
        "setup_s": setup,
        "latencies": [r.seconds for r in records],
        "failures": [f"op {r.op_id} ({r.kind}): {r.why}" for r in records if not r.ok],
        "wall": wall,
        "peak_rss_mb": peak,
    }
    if trace:
        run["traced_failures"], run["layers"] = traced_server_replay(
            workload, seed, sessions, clients, records
        )
    return run


def traced_server_replay(workload, seed, sessions, clients, untraced):
    """Replay the same number of ops against a fresh traced server.

    Returns the traced ops' failures and the per-layer metrics.
    """
    from httpload import ServerProcess, run_sessions
    from tracing import END, NAME, OP, START, group_self_times, load_spans

    spans_path = str(OUT_DIR / f"spans-{workload}-{os.getpid()}.json")
    server = ServerProcess(ROOT, seed, spans_path=spans_path)
    try:
        server.wait_ready(SERVER[workload][1])
        before = server.metrics()
        records, _, _ = run_sessions(server, sessions, clients, count=len(untraced))
        after = server.metrics()
    finally:
        server.stop()
    failures = [f"traced op {r.op_id} ({r.kind}): {r.why}" for r in records if not r.ok]
    spans = load_spans(spans_path)
    os.unlink(spans_path)
    for record in spans:
        record[OP] = int(record[OP])
    per_op = group_self_times(spans)
    op_wall = {r.op_id: r.seconds for r in records}
    # Server time of an op runs from handler entry to the start of its
    # last socket write. The rest of the client's wait is transport, and
    # that includes the last write: the client, on the same CPU, may read
    # the reply before the write call returns.
    handler_start, last_write = {}, {}
    for record in spans:
        if record[NAME] == "app.handler":
            handler_start[record[OP]] = record[START]
        elif record[NAME] == "app.write":
            if record[OP] not in last_write or record[START] > last_write[record[OP]][START]:
                last_write[record[OP]] = record
    for op, wall in op_wall.items():
        layers = per_op.setdefault(op, {})
        write = last_write.get(op)
        served = 0.0
        if write is not None:
            served = write[START] - handler_start.get(op, write[START])
            layers["app.write"] -= write[END] - write[START]
        layers["app.transport"] = wall - served

    def delta(kind: str, name: str) -> float:
        return after[kind].get(name, 0) - before[kind].get(name, 0)

    counters = ("hits", "monotone_hits", "misses")
    fpm = {c: delta("counters", f"mining_cache.{c}") for c in counters}
    app_hits = delta("counters", "app_cache.hits")
    app_misses = delta("counters", "app_cache.misses")
    seconds_sum = requests = 0.0
    for name, hist in after["histograms"].items():
        if name.startswith("http./api/") and name.endswith(".seconds") and "metrics" not in name:
            prior = before["histograms"].get(name, {"sum": 0.0, "count": 0})
            seconds_sum += hist["sum"] - prior["sum"]
            requests += hist["count"] - prior["count"]
    print_ops(per_op, op_wall)
    return failures, layer_metrics(
        per_op, op_wall, spans, [r.seconds for r in untraced], [r.seconds for r in records],
        fpm_hit_ratio=ratio(fpm["hits"] + fpm["monotone_hits"], sum(fpm.values())),
        app_hit_ratio=ratio(app_hits, app_hits + app_misses),
        server_ms=1e3 * ratio(seconds_sum, requests),
    )


# ----------------------------------------------------------------------
# per-layer table


def print_ops(per_op, op_wall, limit: int = 50) -> None:
    """One stdout line per traced op (first ``limit``): wall and self ms."""
    for op in sorted(op_wall)[:limit]:
        layers = {k: round(v * 1e3, 2) for k, v in sorted(per_op.get(op, {}).items())}
        print("trace_op " + json.dumps({"op": op, "wall_ms": round(op_wall[op] * 1e3, 2), "self_ms": layers}))


def layer_metrics(per_op, op_wall, spans, untraced, traced, *,
                  fpm_hit_ratio, app_hit_ratio, server_ms) -> dict:
    from tracing import COUNT, NAME, OP, layer_table

    table = layer_table(per_op, op_wall)
    metrics = {}
    for layer in LAYERS:
        row = table.get(layer, {"median_ms": 0.0, "share": 0.0})
        metrics[f"{layer}_ms"] = (row["median_ms"], "ms")
        metrics[f"{layer}.share"] = (row["share"], "share")
    unknown = sorted(set(table) - set(LAYERS))
    if unknown:
        raise RuntimeError(f"spans from layers missing in LAYERS: {unknown}")

    mine_layers = ("fpm.mine", "fpm.mine_dense")
    itemsets = [r[COUNT] for r in spans if r[NAME] in mine_layers and r[OP] in op_wall]
    mine_s = sum(
        seconds for op, by_layer in per_op.items() if op in op_wall
        for name, seconds in by_layer.items() if name in mine_layers
    )
    gen2 = sum(
        1 for r in spans if r[NAME] == "gc.pause" and r[COUNT] == 2 and r[OP] in op_wall
    )
    covered = sum(sum(by_layer.values()) for op, by_layer in per_op.items() if op in op_wall)
    base = statistics.median(untraced)
    overhead = statistics.median(traced) - base
    metrics.update({
        "fpm.itemsets": (statistics.median(itemsets) if itemsets else 0.0, "count"),
        "fpm.itemsets_per_s": (ratio(sum(itemsets), mine_s), "1/s"),
        "gc.gen2_collections": (gen2 / len(op_wall), "count/op"),
        "app.server_ms": (server_ms, "ms"),
        "fpm.cache.hit_ratio": (fpm_hit_ratio, "share"),
        "app.cache.hit_ratio": (app_hit_ratio, "share"),
        "trace.coverage": (covered / sum(op_wall.values()), "share"),
        "trace.overhead_ms": (overhead * 1e3, "ms"),
        "trace.overhead_share": (overhead / base, "share"),
        "trace.ops": (len(op_wall), "count"),
    })
    return metrics


# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so servers and workers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Every process of a run (this one, servers, workers) shares one CPU:
    # the program serves and mines on one core anyway, and on a shared
    # machine a second busy core doubles the exposure to other tenants.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    shm_before = shm_entries()

    runner = run_library if args.workload in LIBRARY else run_server
    run = runner(args.workload, args.seed, args.seconds, bool(args.trace))

    latencies = run["latencies"]
    attempted = len(latencies)
    if not attempted:
        raise RuntimeError("no op completed")
    failed = len(run["failures"])
    problems = run["failures"] + run.get("traced_failures", [])
    leftover = child_pids()
    if leftover:
        problems.append(f"child processes left running: {leftover}")
    new_shm = sorted(shm_entries() - shm_before)
    if new_shm:
        problems.append(f"/dev/shm segments left behind: {new_shm}")

    tail_value, tail_pct = tail(latencies)
    if args.trace:
        metrics = dict(run["layers"])
        # Both passes ran ``attempted`` ops.
        metrics["failed_share"] = (
            (failed + len(run["traced_failures"])) / (2 * attempted), "share"
        )
        coverage = metrics["trace.coverage"][0]
        if coverage < COVERAGE_FLOOR:
            problems.append(f"layer self times cover {coverage:.1%} of op time")
    else:
        metrics = {
            "setup_s": (statistics.median(run["setup_s"]), "s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "ops_per_s": ((attempted - failed) / run["wall"], "1/s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} ops={attempted} failed={failed} "
        f"failed_share={failed / attempted:.4f} tail=p{tail_pct:.1f} of {attempted} "
        f"setup_runs={[round(s, 3) for s in run['setup_s']]}"
    )
    shown = latencies if attempted <= 50 else sorted(latencies)[-20:]
    print(f"latencies_ms{'' if attempted <= 50 else '(top 20)'}="
          f"{[round(x * 1e3, 1) for x in shown]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
