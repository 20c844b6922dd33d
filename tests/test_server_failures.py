"""Failure matrix of the exploration server.

Every routed endpoint is driven through every way a request can fail:
an internal error or a library ``KeyError`` raised inside the handler's
callee, an expired deadline and a cancellation (through the resilience
fault hooks), malformed and non-UTF-8 bodies, a bad ``Content-Length``
and each edge parameter the validators reject. Each case must answer
with strict JSON, the expected status and exactly one
``http.<path>.status.<code>`` increment, and leave no admission slot,
refinement key or cache entry behind.

Requests go over a raw socket and read until the server closes the
connection: the server records its metrics after writing the reply, so
end of stream means the handler has finished.
"""

import json
import logging
import socket
import threading

import pytest

import repro.app.server as server_module
import repro.core.compare as compare_module
from repro.app.server import AppState, _Handler, _MonitorSession, create_server
from repro.core.divergence import DivergenceExplorer
from repro.obs import get_registry
from repro.obs.metrics import MetricsRegistry
from repro.params import validate_labels
from repro.rank import RankDivergenceExplorer
from repro.resilience import inject_fault
from repro.store import PatternStore
from tests.test_server_concurrency import strict_json

EXPLORE = "dataset=compas&metric=fpr&support=0.37"
PATTERN = "pattern=sex%3DMale"
ACK = json.dumps({"items": [1]}).encode()
INGEST = json.dumps(
    {"rows": [{"sex": "Male"}], "truth": [True], "pred": [False]}
).encode()

# (method, path, query, body) of one well-formed request per endpoint.
ENDPOINTS = {
    "/": ("GET", "", None),
    "/api/datasets": ("GET", "", None),
    "/api/explore": ("GET", EXPLORE, None),
    "/api/compare": ("GET", EXPLORE + "&models=pred,classifier:tree", None),
    "/api/rank": ("GET", "dataset=ranking&support=0.37", None),
    "/api/shapley": ("GET", f"{EXPLORE}&{PATTERN}", None),
    "/api/explain": ("GET", EXPLORE, None),
    "/api/global": ("GET", EXPLORE, None),
    "/api/corrective": ("GET", EXPLORE, None),
    "/api/lattice": ("GET", f"{EXPLORE}&{PATTERN}", None),
    "/api/metrics": ("GET", "", None),
    "/api/monitor/status": ("GET", "", None),
    "/api/monitor/alerts": ("GET", "", None),
    "/api/patterns": ("GET", "", None),
    "/api/upload": ("POST", "name=t", b"a,class,pred\nx,1,0\ny,0,0\n"),
    "/api/monitor/ingest": ("POST", "", INGEST),
    "/api/patterns/ack": ("POST", "", ACK),
}
POSTS = [path for path, (method, _, _) in ENDPOINTS.items() if method == "POST"]

# The callee each endpoint's handler reaches first, where a failure is
# injected, and the cache key whose build it aborts (None: no cache).
EXPLORE_KEY = ("explore", "compas", "fpr", 0.37)
CALLEES = {
    "/": (_Handler, "_index", None),
    "/api/datasets": (server_module, "dataset_characteristics", None),
    "/api/explore": (DivergenceExplorer, "explore", EXPLORE_KEY),
    "/api/compare": (
        compare_module,
        "resolve_models",
        ("compare", "compas", "fpr", 0.37, ("pred", "classifier:tree")),
    ),
    "/api/rank": (
        RankDivergenceExplorer,
        "explore",
        ("rank", "ranking", "exposure", 0.37, None),
    ),
    "/api/shapley": (DivergenceExplorer, "explore", EXPLORE_KEY),
    "/api/explain": (DivergenceExplorer, "explore", EXPLORE_KEY),
    "/api/global": (DivergenceExplorer, "explore", EXPLORE_KEY),
    "/api/corrective": (DivergenceExplorer, "explore", EXPLORE_KEY),
    "/api/lattice": (DivergenceExplorer, "explore", EXPLORE_KEY),
    "/api/metrics": (MetricsRegistry, "snapshot", None),
    "/api/monitor/status": (AppState, "monitor_session", None),
    "/api/monitor/alerts": (AppState, "monitor_session", None),
    "/api/patterns": (PatternStore, "query", None),
    "/api/upload": (AppState, "register_upload", None),
    "/api/monitor/ingest": (_MonitorSession, "ingest", None),
    "/api/patterns/ack": (PatternStore, "entry", None),
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("store") / "patterns.jsonl"
    srv = create_server(port=0, seed=0, store_path=str(store))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def send(server, method, path, query="", body=None, headers=None):
    """One raw HTTP/1.0 exchange; returns ``(status, payload)``.

    ``Content-Length`` is set from ``body`` unless ``headers`` carries
    its own (or ``None`` to omit it).
    """
    headers = dict(headers or {})
    if body is not None:
        headers.setdefault("Content-Length", str(len(body)))
    lines = [f"{method} {path}{'?' + query if query else ''} HTTP/1.0"]
    lines += [f"{k}: {v}" for k, v in headers.items() if v is not None]
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode() + (body or b""))
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    assert head, f"{method} {path}: connection closed with no status"
    return int(head.split()[1]), strict_json(payload)


def status_count(path, code):
    return get_registry().counter(f"http.{path}.status.{code}").value


def check(server, expected, method, path, query="", body=None, headers=None):
    """Send one request and check status, payload and bookkeeping."""
    before = {code: status_count(path, code) for code in (400, 500, 503, 504)}
    status, payload = send(server, method, path, query, body, headers)
    assert status == expected, (path, query, payload)
    assert "error" in payload
    for code, count in before.items():
        assert status_count(path, code) == count + (code == expected), code
    state = server.app_state
    assert state.admission_busy() == 0
    assert not state._refining
    return payload


@pytest.mark.parametrize("path", list(ENDPOINTS))
@pytest.mark.parametrize("error", [RuntimeError, KeyError])
def test_internal_error_is_500(server, path, error, monkeypatch, caplog):
    method, query, body = ENDPOINTS[path]
    owner, attr, key = CALLEES[path]

    def boom(*args, **kwargs):
        raise error("injected")

    with caplog.at_level(logging.ERROR, logger="repro.app"):
        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, boom)
            payload = check(server, 500, method, path, query, body)
    assert payload == {"error": "internal error", "type": error.__name__}
    assert any(r.exc_info and r.exc_info[0] is error for r in caplog.records)
    if key is not None:
        assert key not in server.app_state._cache


@pytest.mark.parametrize("path", list(ENDPOINTS))
def test_deadline_is_504(server, path):
    method, query, _ = ENDPOINTS[path]
    # Support 1 has no coarser cached exploration to degrade to.
    query = query.replace("support=0.37", "support=1") + "&deadline=0.05"
    body = b"" if method == "POST" else None
    with inject_fault("app.dispatch", delay=0.2):
        payload = check(server, 504, method, path, query, body)
    assert payload["timeout"] is True


@pytest.mark.parametrize("path", list(ENDPOINTS))
def test_cancel_is_503(server, path):
    method, query, _ = ENDPOINTS[path]
    body = b"" if method == "POST" else None
    with inject_fault("app.dispatch", cancel_after=1):
        payload = check(server, 503, method, path, query, body)
    assert payload["cancelled"] is True


@pytest.mark.parametrize("path", POSTS)
@pytest.mark.parametrize(
    "body",
    [b'{"rows": [', b"\xff\xfe not utf-8"],
    ids=["malformed-json", "not-utf8"],
)
def test_bad_body_is_400(server, path, body):
    method, query, _ = ENDPOINTS[path]
    check(server, 400, method, path, query, body)


@pytest.mark.parametrize("path", POSTS)
@pytest.mark.parametrize("length", [None, "abc", "-1", "0"])
def test_bad_content_length_is_400(server, path, length):
    method, query, _ = ENDPOINTS[path]
    payload = check(
        server, 400, method, path, query, b"", {"Content-Length": length}
    )
    assert "Content-Length" in payload["error"] or "empty" in payload["error"]


@pytest.mark.parametrize(
    "method, path, query, word",
    [
        ("POST", "/api/upload", "name=t&bins=1", "bins"),
        ("POST", "/api/upload", "name=t&bins=many", "bins"),
        ("GET", "/api/monitor/alerts", "since=abc", "since"),
        ("GET", "/api/monitor/alerts", "since=-1", "since"),
        ("GET", "/api/patterns", "since_window=soon", "since_window"),
        ("GET", "/api/patterns", "since_window=-2", "since_window"),
        ("GET", "/api/patterns", "acked=maybe", "acked"),
        ("GET", "/api/lattice", f"{EXPLORE}&{PATTERN}&threshold=x", "threshold"),
        ("GET", "/api/lattice", f"{EXPLORE}&{PATTERN}&threshold=nan", "threshold"),
        ("GET", "/api/shapley", EXPLORE, "pattern"),
        ("GET", "/api/lattice", EXPLORE, "pattern"),
    ],
)
def test_edge_validation_is_400(server, method, path, query, word):
    body = b"" if method == "POST" else None
    payload = check(server, 400, method, path, query, body)
    assert word in payload["error"]
    assert EXPLORE_KEY not in server.app_state._cache


@pytest.mark.parametrize(
    "field, labels",
    [
        ("truth", ["false"]),
        ("truth", ["0"]),
        ("pred", [{"a": 1}]),
        ("pred", [None]),
        ("truth", [2]),
        ("pred", [0.0]),
        ("truth", "true"),
    ],
    ids=["string-false", "string-0", "object", "null", "two", "float", "not-a-list"],
)
def test_ingest_labels_validation_is_400(server, field, labels):
    body = {"rows": [{"sex": "Male"}], "truth": [True], "pred": [False]}
    body[field] = labels
    payload = check(
        server, 400, "POST", "/api/monitor/ingest", "", json.dumps(body).encode()
    )
    assert field in payload["error"]


def test_labels_accept_json_booleans_and_0_1():
    assert validate_labels([True, 0, 1, False], "truth") == [
        True, False, True, False
    ]


def test_ingest_unknown_algorithm_creates_no_session(server):
    payload = check(
        server, 400, "POST", "/api/monitor/ingest",
        "reset=1&algorithm=bogus", INGEST,
    )
    assert "algorithm" in payload["error"]
    assert send(server, "GET", "/api/monitor/status") == (200, {"active": False})
