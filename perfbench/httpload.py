"""Server process lifecycle and the closed-loop HTTP load generator."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlencode

import plans

READY_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 60


class OpRecord(NamedTuple):
    op_id: int
    kind: str
    seconds: float
    ok: bool
    why: str


class ServerProcess:
    """A fresh ``repro.app`` subprocess on a free loopback port.

    With ``spans_path`` the server runs under ``traced_server.py``, which
    writes its layer spans there when the server stops.
    """

    def __init__(self, root: Path, seed: int, spans_path: str | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        app_args = ["--port", "0", "--seed", str(seed)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.app", *app_args]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "traced_server.py"),
                   "--spans", spans_path, *app_args]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root)
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not report its address: {line!r}")
        return int(line.split("http://", 1)[1].split("/", 1)[0].rsplit(":", 1)[1])

    def get(self, path: str, params: dict | None = None, op_id=None):
        """``(status, body, seconds)``; status ``None`` on a transport error."""
        query = f"{path}?{urlencode(params)}" if params else path
        headers = {"X-Bench-Op": str(op_id)} if op_id is not None else {}
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        started = time.perf_counter()
        try:
            conn.request("GET", query, headers=headers)
            response = conn.getresponse()
            body = response.read()
            return response.status, body, time.perf_counter() - started
        except (OSError, http.client.HTTPException):
            return None, b"", time.perf_counter() - started
        finally:
            conn.close()

    def wait_ready(self, warm_datasets) -> None:
        """Poll until the server answers, then load each dataset.

        The warm-up explore uses a metric no op uses, at support 1, so it
        pays dataset generation, classifier training and explorer
        construction without leaving anything an op could reuse.
        """
        deadline = time.monotonic() + READY_TIMEOUT_S
        while self.get("/")[0] != 200:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server never became ready")
            time.sleep(0.02)
        for name in warm_datasets:
            status, body, _ = self.get("/api/explore", {
                "dataset": name, "metric": plans.WARMUP_METRIC, "support": 1, "top": 1,
            })
            if status != 200:
                raise RuntimeError(f"warm-up of {name} failed: {status} {body[:200]!r}")

    def metrics(self) -> dict:
        status, body, _ = self.get("/api/metrics")
        if status != 200:
            raise RuntimeError(f"/api/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        """SIGINT (the server closes its pools and exits), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_sessions(server: ServerProcess, sessions, clients: int,
                 seconds: float | None = None, count: int | None = None,
                 rss_after: int | None = None):
    """Closed-loop clients, each replaying whole sessions in order.

    Clients take the next session from the shared iterator and send its
    ops one after another, each after the previous reply. No op starts
    once ``seconds`` have passed or ``count`` ops have been issued.
    Returns ``(records, wall seconds, peak RSS MB)`` with one
    :class:`OpRecord` per op, in op-id order. The server's peak RSS is read
    when ``rss_after`` ops have completed, or at the end. Replies are
    checked after the loop, so client work never delays a measured op.
    """
    lock = threading.Lock()
    sessions = iter(sessions)
    replies: list[tuple] = []
    issued = [0]
    rss: list[float] = []
    started = time.perf_counter()

    def reserve():
        with lock:
            if seconds is not None and time.perf_counter() - started >= seconds:
                return None
            if count is not None and issued[0] >= count:
                return None
            issued[0] += 1
            return issued[0]

    def client() -> None:
        while True:
            with lock:
                session = next(sessions, None)
            if session is None:
                return
            for op in session:
                op_id = reserve()
                if op_id is None:
                    return
                status, body, elapsed = server.get(op["path"], op["params"], op_id)
                replies.append((op_id, op, elapsed, status, body))
                if len(replies) == rss_after:
                    rss.append(server.peak_rss_mb())

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    peak = rss[0] if rss else server.peak_rss_mb()
    records = [
        OpRecord(op_id, op["kind"], elapsed, *check(op, status, body))
        for op_id, op, elapsed, status, body in sorted(replies, key=lambda r: r[0])
    ]
    return records, wall, peak


def check(op: dict, status, body: bytes) -> tuple[bool, str]:
    """Whether a reply is a 200 whose answer matches the reference."""
    if status is None:
        return False, "timeout or transport error"
    if status != 200:
        return False, f"status {status}"
    digest = plans.response_digest(op["kind"], json.loads(body))
    if not plans.same(digest, op["ref"]):
        return False, f"answer differs from the fpgrowth reference: {op['params']}"
    return True, ""
