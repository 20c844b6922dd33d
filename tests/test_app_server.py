"""Tests for the interactive exploration server (in-process HTTP)."""

import json
import threading
import urllib.request
from urllib.error import HTTPError

import pytest

from repro.app.server import AppState, create_server


@pytest.fixture(scope="module")
def server_url():
    server = create_server(port=0, seed=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}"
    server.shutdown()


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


class TestEndpoints:
    def test_index_page(self, server_url):
        with urllib.request.urlopen(server_url + "/", timeout=30) as response:
            body = response.read().decode()
        assert "DivExplorer" in body
        assert response.headers["Content-Type"].startswith("text/html")

    def test_datasets(self, server_url):
        data = get_json(server_url + "/api/datasets")
        names = {row["dataset"] for row in data["datasets"]}
        assert "compas" in names and "german" in names

    def test_explore(self, server_url):
        data = get_json(
            server_url
            + "/api/explore?dataset=compas&metric=fpr&support=0.1&top=5"
        )
        assert data["metric"] == "fpr"
        assert 0 < data["global_rate"] < 1
        assert len(data["patterns"]) == 5
        top = data["patterns"][0]
        assert set(top) == {"itemset", "support", "divergence", "t", "t_signed"}
        # ranked by divergence
        divs = [p["divergence"] for p in data["patterns"]]
        assert divs == sorted(divs, reverse=True)

    def test_explore_with_pruning(self, server_url):
        pruned = get_json(
            server_url
            + "/api/explore?dataset=compas&metric=fpr&support=0.1"
            + "&top=50&epsilon=0.05"
        )
        full = get_json(
            server_url
            + "/api/explore?dataset=compas&metric=fpr&support=0.1&top=50"
        )
        assert len(pruned["patterns"]) <= len(full["patterns"])

    def test_shapley(self, server_url):
        explore = get_json(
            server_url
            + "/api/explore?dataset=compas&metric=fpr&support=0.1&top=1"
        )
        pattern = explore["patterns"][0]["itemset"]
        data = get_json(
            server_url
            + "/api/shapley?dataset=compas&metric=fpr&support=0.1&pattern="
            + urllib.parse.quote(pattern)
        )
        total = sum(c["value"] for c in data["contributions"])
        assert total == pytest.approx(data["divergence"], abs=1e-9)

    def test_global(self, server_url):
        data = get_json(
            server_url + "/api/global?dataset=compas&metric=fpr&support=0.1&top=5"
        )
        assert len(data["items"]) == 5
        values = [row["global"] for row in data["items"]]
        assert values == sorted(values, reverse=True)

    def test_corrective(self, server_url):
        data = get_json(
            server_url
            + "/api/corrective?dataset=compas&metric=fpr&support=0.1&top=3"
        )
        assert data["corrective"]
        for row in data["corrective"]:
            assert row["factor"] > 0

    def test_lattice(self, server_url):
        explore = get_json(
            server_url
            + "/api/explore?dataset=compas&metric=fpr&support=0.1&top=1"
        )
        pattern = explore["patterns"][0]["itemset"]
        data = get_json(
            server_url
            + "/api/lattice?dataset=compas&metric=fpr&support=0.1&pattern="
            + urllib.parse.quote(pattern)
        )
        n_items = pattern.count(",") + 1
        assert len(data["nodes"]) == 2**n_items
        assert any(node["divergent"] for node in data["nodes"])

    def test_lattice_of_interval_pattern(self, server_url):
        # compas bins prior counts as intervals such as "[1,3]"; a
        # pattern naming one must parse back to itself.
        explore = get_json(
            server_url
            + "/api/explore?dataset=compas&metric=fpr&support=0.1&top=500"
        )
        pattern = next(
            p["itemset"]
            for p in explore["patterns"]
            if "#prior=[1,3], " in p["itemset"]
        )
        data = get_json(
            server_url
            + "/api/lattice?dataset=compas&metric=fpr&support=0.1&pattern="
            + urllib.parse.quote(pattern)
        )
        assert data["pattern"] == pattern
        n_items = pattern.count(", ") + 1
        assert n_items >= 2
        assert len(data["nodes"]) == 2**n_items


class TestErrors:
    def test_unknown_path_404(self, server_url):
        with pytest.raises(HTTPError) as err:
            get_json(server_url + "/api/nope")
        assert err.value.code == 404

    def test_unknown_dataset_400(self, server_url):
        with pytest.raises(HTTPError) as err:
            get_json(server_url + "/api/explore?dataset=mnist")
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert "unknown dataset" in body["error"]

    def test_bad_support_400(self, server_url):
        with pytest.raises(HTTPError) as err:
            get_json(server_url + "/api/explore?dataset=compas&support=banana")
        assert err.value.code == 400

    @pytest.mark.parametrize("support", ["0", "-0.1", "1.5", "nan"])
    def test_out_of_range_support_400(self, server_url, support):
        with pytest.raises(HTTPError) as err:
            get_json(
                server_url + f"/api/explore?dataset=compas&support={support}"
            )
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert "support must be in (0, 1]" in body["error"]

    @pytest.mark.parametrize(
        "path",
        [
            "/api/explore?dataset=compas",
            "/api/explain?dataset=compas",
            "/api/global?dataset=compas",
            "/api/corrective?dataset=compas",
        ],
    )
    @pytest.mark.parametrize("top", ["-1", "0", "two"])
    def test_bad_top_400(self, server_url, path, top):
        with pytest.raises(HTTPError) as err:
            get_json(server_url + f"{path}&support=0.1&top={top}")
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert "top must be" in body["error"]

    def test_negative_epsilon_400(self, server_url):
        with pytest.raises(HTTPError) as err:
            get_json(
                server_url
                + "/api/explore?dataset=compas&support=0.1&epsilon=-0.5"
            )
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert "epsilon" in body["error"]

    def test_infrequent_pattern_400(self, server_url):
        with pytest.raises(HTTPError) as err:
            get_json(
                server_url
                + "/api/shapley?dataset=compas&support=0.9&pattern="
                + urllib.parse.quote("sex=Male, race=Other")
            )
        assert err.value.code == 400


class TestExplain:
    def test_explain_top_k(self, server_url):
        data = get_json(
            server_url
            + "/api/explain?dataset=compas&metric=fpr&support=0.1&top=3"
        )
        assert data["metric"] == "fpr"
        assert len(data["patterns"]) == 3
        for entry in data["patterns"]:
            # exact Shapley: contributions sum to the pattern divergence
            total = sum(c["value"] for c in entry["contributions"])
            assert total == pytest.approx(entry["divergence"], abs=1e-9)
            assert entry["description"]

    def test_explain_matches_explore_ranking(self, server_url):
        explore = get_json(
            server_url
            + "/api/explore?dataset=compas&metric=fpr&support=0.1&top=3"
        )
        explain = get_json(
            server_url
            + "/api/explain?dataset=compas&metric=fpr&support=0.1&top=3"
        )
        assert [p["itemset"] for p in explain["patterns"]] == [
            p["itemset"] for p in explore["patterns"]
        ]


class TestCaching:
    def test_repeat_queries_share_state(self, server_url):
        a = get_json(
            server_url + "/api/explore?dataset=compas&metric=fpr&support=0.1"
        )
        b = get_json(
            server_url + "/api/explore?dataset=compas&metric=fpr&support=0.1"
        )
        assert a == b

    def test_result_cache_is_lru_bounded(self):
        state = AppState(seed=0, max_results=2)
        r1 = state.result("compas", "fpr", 0.2)
        state.result("compas", "fnr", 0.2)
        # touching the first entry makes it most-recently-used
        assert state.result("compas", "fpr", 0.2) is r1
        state.result("compas", "error", 0.2)  # evicts the fnr entry
        assert len(state._cache) == 2
        assert ("explore", "compas", "fnr", 0.2) not in state._cache
        assert state.result("compas", "fpr", 0.2) is r1

    def test_explore_rows_render_cache(self):
        state = AppState(seed=0, max_results=4)
        result, rows = state.explore_rows("compas", "fpr", 0.2, 5)
        result2, rows2 = state.explore_rows("compas", "fpr", 0.2, 5)
        assert result2 is result
        assert rows2 is rows  # rendered rows reused, not rebuilt
        _, pruned = state.explore_rows("compas", "fpr", 0.2, 5, epsilon=0.05)
        assert pruned is not rows  # distinct (top, epsilon) render
        assert len(pruned) <= len(rows)

    def test_cached_result_holds_no_record_table(self):
        # A ranked explore builds records for the rows it returns only,
        # so the cached result does not keep one object per pattern.
        state = AppState(seed=0, max_results=4)
        result, rows = state.explore_rows("compas", "fpr", 0.05, 10)
        assert len(rows) == 10
        assert result._records is None

    def test_render_cache_dropped_with_entry(self):
        state = AppState(seed=0, max_results=1)
        _, rows = state.explore_rows("compas", "fpr", 0.2, 5)
        state.result("compas", "fnr", 0.2)  # evicts the fpr entry
        _, rows2 = state.explore_rows("compas", "fpr", 0.2, 5)
        assert rows2 == rows  # re-rendered, same content
        assert rows2 is not rows


class TestMetrics:
    def test_metrics_snapshot_shape(self, server_url):
        get_json(
            server_url + "/api/explore?dataset=compas&metric=fpr&support=0.1"
        )
        snap = get_json(server_url + "/api/metrics")
        assert set(snap) >= {"counters", "gauges", "histograms"}
        # Live cache gauges are filled in under the state lock.
        assert snap["gauges"]["app_cache.entries"] >= 1
        assert snap["gauges"]["app_state.explorers"] >= 1
        # Mining/app cache counters mirror into the registry.
        assert snap["counters"].get("mining_cache.misses", 0) >= 1

    def test_metrics_track_requests_and_latency(self, server_url):
        before = get_json(server_url + "/api/metrics")
        get_json(
            server_url + "/api/explore?dataset=compas&metric=fpr&support=0.1"
        )
        after = get_json(server_url + "/api/metrics")

        def requests(snap):
            return snap["counters"].get("http./api/explore.requests", 0)

        assert requests(after) == requests(before) + 1
        hist = after["histograms"]["http./api/explore.seconds"]
        assert hist["count"] == requests(after)
        assert hist["p50"] is not None and hist["p50"] >= 0
        # /api/metrics itself is instrumented too.
        assert after["counters"]["http./api/metrics.requests"] >= 1

    def test_unknown_paths_aggregate_as_other(self, server_url):
        with pytest.raises(HTTPError):
            get_json(server_url + "/api/definitely-not-real")
        snap = get_json(server_url + "/api/metrics")
        assert snap["counters"]["http.other.status.404"] >= 1
        # The bogus path itself must not become a metric name.
        assert not any("definitely-not-real" in k for k in snap["counters"])


class TestUpload:
    CSV = (
        "region,employed,class,pred\n"
        + "\n".join(
            f"{'north' if i % 2 else 'south'},"
            f"{'yes' if i % 5 else 'no'},"
            f"{1 if i % 3 else 0},"
            f"{1 if (i % 3 and i % 7) else 0}"
            for i in range(200)
        )
        + "\n"
    )

    def upload(self, server_url, name="loans"):
        request = urllib.request.Request(
            server_url
            + f"/api/upload?name={name}&true_column=class&pred_column=pred",
            data=self.CSV.encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def test_upload_and_explore(self, server_url):
        handle = self.upload(server_url)["dataset"]
        assert handle == "upload:loans"
        data = get_json(
            server_url
            + f"/api/explore?dataset={handle}&metric=error&support=0.1&top=3"
        )
        assert data["patterns"]
        assert any("region" in p["itemset"] or "employed" in p["itemset"]
                   for p in data["patterns"])

    def test_unknown_upload_handle(self, server_url):
        with pytest.raises(HTTPError) as err:
            get_json(server_url + "/api/explore?dataset=upload:ghost")
        assert err.value.code == 400

    def test_empty_upload_rejected(self, server_url):
        request = urllib.request.Request(
            server_url + "/api/upload?name=x",
            data=b"",
            method="POST",
        )
        with pytest.raises(HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400

    def test_post_unknown_path_404(self, server_url):
        request = urllib.request.Request(
            server_url + "/api/nothing", data=b"x", method="POST"
        )
        with pytest.raises(HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 404

    def test_reupload_invalidates_cache(self, server_url):
        handle = self.upload(server_url, name="fresh")["dataset"]
        first = get_json(
            server_url
            + f"/api/explore?dataset={handle}&metric=error&support=0.1"
        )
        handle2 = self.upload(server_url, name="fresh")["dataset"]
        assert handle2 == handle
        second = get_json(
            server_url
            + f"/api/explore?dataset={handle}&metric=error&support=0.1"
        )
        assert first == second  # same CSV -> same result after refresh
