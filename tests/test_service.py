"""Tests for the cached design-query service: the content-addressed
artifact store, the query handlers, and the HTTP front end."""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.service import (
    SCHEMA_VERSION,
    ArtifactStore,
    QueryError,
    cache_key,
    canonical_json,
    compute,
    default_cache_dir,
    make_server,
    normalize_params,
    query,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "cache"))


class TestKeying:
    def test_canonical_json_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'
        # key independence from dict insertion order
        assert canonical_json({"x": 1, "y": 2}) == canonical_json(
            {"y": 2, "x": 1}
        )

    def test_cache_key_shape_and_sensitivity(self):
        k1 = cache_key("dims", {"ks": [2, 2, 2]})
        assert len(k1) == 64 and all(c in "0123456789abcdef" for c in k1)
        assert k1 == cache_key("dims", {"ks": [2, 2, 2]})
        assert k1 != cache_key("layout", {"ks": [2, 2, 2]})
        assert k1 != cache_key("dims", {"ks": [2, 2, 3]})

    def test_schema_version_in_key(self, monkeypatch):
        k_before = cache_key("dims", {"ks": [2, 2]})
        monkeypatch.setattr("repro.service.store.SCHEMA_VERSION",
                            SCHEMA_VERSION + 1)
        assert cache_key("dims", {"ks": [2, 2]}) != k_before

    def test_default_cache_dir_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/explicit")
        assert default_cache_dir() == "/tmp/explicit"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
        assert default_cache_dir() == os.path.join("/tmp/xdg", "repro")


class TestStore:
    def test_put_get_roundtrip(self, store):
        params = {"ks": [2, 2]}
        result = {"kind": "dims", "params": params, "answer": 42}
        key = store.put("dims", params, result)
        assert store.get("dims", params) == result
        assert key == cache_key("dims", params)
        entries = store.ls()
        assert [e.key for e in entries] == [key]
        assert entries[0].kind == "dims" and not entries[0].has_payload
        s = store.stats()
        assert s["entries"] == 1 and s["kinds"] == {"dims": 1}

    def test_miss_returns_none(self, store):
        assert store.get("dims", {"ks": [9, 9]}) is None
        assert store.load_arrays("dims", {"ks": [9, 9]}) is None

    def test_array_payload_roundtrip(self, store):
        params = {"n": 3}
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.zeros((2, 3), dtype=np.uint8),
        }
        store.put("benes", params, {"ok": True}, arrays)
        loaded = store.load_arrays("benes", params)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])
        assert store.ls()[0].has_payload

    def test_tampered_manifest_quarantined(self, store):
        params = {"ks": [2, 2]}
        key = store.put("dims", params, {"answer": 1})
        path = os.path.join(store.entry_dir(key), "manifest.json")
        with open(path) as fh:
            m = json.load(fh)
        m["result"]["answer"] = 999  # digest no longer matches
        with open(path, "w") as fh:
            json.dump(m, fh)
        assert store.get("dims", params) is None  # miss, not bad data
        assert not os.path.isdir(store.entry_dir(key))
        assert store.stats()["quarantined"] == 1

    def test_bitflipped_payload_quarantined(self, store):
        params = {"n": 3}
        key = store.put("benes", params, {"ok": True},
                        {"a": np.arange(100, dtype=np.int64)})
        path = os.path.join(store.entry_dir(key), "payload.npz")
        with open(path, "r+b") as fh:
            fh.seek(120)
            b = fh.read(1)
            fh.seek(120)
            fh.write(bytes([b[0] ^ 0xFF]))
        # cheap get still serves (manifest intact, size unchanged) ...
        assert store.get("benes", params) == {"ok": True}
        # ... but the hashed load refuses and quarantines
        assert store.load_arrays("benes", params) is None
        assert store.get("benes", params) is None
        assert store.stats()["quarantined"] == 1

    def test_payload_get_hashes_without_loading(self, store, monkeypatch):
        arrays_p, bare_p = {"n": 3}, {"n": 4}
        key = store.put("benes", arrays_p, {"ok": True},
                        {"a": np.arange(100, dtype=np.int64)})
        store.put("benes", bare_p, {"ok": False})

        def no_load(*args, **kwargs):
            raise AssertionError("get(payload=True) loaded the payload")

        monkeypatch.setattr(np, "load", no_load)
        assert store.get("benes", arrays_p, payload=True) == {"ok": True}
        # no declared payload: a miss for this read, but not corrupt
        assert store.get("benes", bare_p, payload=True) is None
        assert store.get("benes", bare_p) == {"ok": False}
        path = os.path.join(store.entry_dir(key), "payload.npz")
        with open(path, "r+b") as fh:
            fh.seek(120)
            b = fh.read(1)
            fh.seek(120)
            fh.write(bytes([b[0] ^ 0xFF]))
        assert store.get("benes", arrays_p) == {"ok": True}
        assert store.get("benes", arrays_p, payload=True) is None
        assert not os.path.isdir(store.entry_dir(key))
        assert store.stats()["quarantined"] == 1

    def test_verify_flags_corruption(self, store):
        good = {"ks": [2, 2]}
        bad = {"ks": [3, 3]}
        store.put("dims", good, {"a": 1})
        key = store.put("dims", bad, {"a": 2},
                        {"x": np.ones(50, dtype=np.int64)})
        path = os.path.join(store.entry_dir(key), "payload.npz")
        with open(path, "r+b") as fh:
            fh.seek(100)
            b = fh.read(1)
            fh.seek(100)
            fh.write(bytes([b[0] ^ 0xFF]))
        rep = store.verify()
        assert rep["checked"] == 2 and rep["ok"] == 1
        assert rep["corrupt"] == [key] and rep["quarantined"] == 1

    def test_gc_drops_quarantine_and_old_entries(self, store):
        key = store.put("dims", {"ks": [2, 2]}, {"a": 1})
        store.quarantine(key)
        store.put("dims", {"ks": [3, 3]}, {"a": 2})
        rep = store.gc()
        assert rep["removed"] == 1 and rep["freed_bytes"] > 0
        assert store.stats()["quarantined"] == 0
        assert len(store.ls()) == 1
        rep = store.gc(max_age_s=0.0)  # everything is "old"
        assert rep["removed"] == 1 and not store.ls()

    def test_gc_ages_by_last_access_not_creation(self, store):
        """Regression: age-based gc used to evict by *creation* time, so
        an entry read moments ago could vanish.  ``get`` must refresh
        the entry's clock."""
        store.put("dims", {"ks": [2, 2]}, {"a": 1})
        store.put("dims", {"ks": [3, 3]}, {"a": 2})
        hot = cache_key("dims", {"ks": [2, 2]})
        cold = cache_key("dims", {"ks": [3, 3]})
        for key in (hot, cold):  # backdate both far past any max_age
            manifest = os.path.join(store.entry_dir(key), "manifest.json")
            os.utime(manifest, (1.0, 1.0))
        assert store.get("dims", {"ks": [2, 2]}) == {"a": 1}
        rep = store.gc(max_age_s=3600.0)
        remaining = {e.key for e in store.ls()}
        assert rep["removed"] == 1
        assert hot in remaining and cold not in remaining

    def test_load_arrays_refreshes_access_clock(self, store):
        store.put("dims", {"ks": [2, 2]}, {"a": 1},
                  {"x": np.arange(4, dtype=np.int64)})
        key = cache_key("dims", {"ks": [2, 2]})
        manifest = os.path.join(store.entry_dir(key), "manifest.json")
        os.utime(manifest, (1.0, 1.0))
        arrays = store.load_arrays("dims", {"ks": [2, 2]})
        assert arrays is not None and list(arrays["x"]) == [0, 1, 2, 3]
        assert store.gc(max_age_s=3600.0)["removed"] == 0
        assert [e.key for e in store.ls()] == [key]

    def test_single_flight_mutual_exclusion(self, tmp_path):
        st = ArtifactStore(str(tmp_path / "c"), lock_timeout=10.0)
        key = "k" * 64
        order = []
        release = threading.Event()
        inside = threading.Event()

        def winner():
            with st.single_flight(key) as won:
                order.append(("w", won))
                inside.set()
                release.wait(5)

        def loser():
            inside.wait(5)
            with st.single_flight(key) as won:
                order.append(("l", won))

        tw = threading.Thread(target=winner)
        tl = threading.Thread(target=loser)
        tw.start()
        tl.start()
        time.sleep(0.1)
        assert order == [("w", True)]  # loser is blocked
        release.set()
        tw.join(5)
        tl.join(5)
        # loser acquired only after the winner released, and True-ly:
        # it must re-check the cache itself
        assert order == [("w", True), ("l", True)]

    def test_single_flight_timeout_yields_false(self, tmp_path):
        st = ArtifactStore(str(tmp_path / "c"), lock_timeout=0.1)
        key = "a" * 64
        with st.single_flight(key) as won:
            assert won
            with st.single_flight(key) as second:
                assert second is False

    def test_single_flight_breaks_stale_lock(self, tmp_path):
        st = ArtifactStore(str(tmp_path / "c"), stale_lock_s=1.0)
        key = "b" * 64
        path = st._lock_path(key)
        with open(path, "w") as fh:
            fh.write("999999")  # dead pid
        old = time.time() - 100
        os.utime(path, (old, old))
        with st.single_flight(key) as won:
            assert won  # abandoned lock was broken


class TestHandlers:
    def test_normalize_fills_defaults(self):
        p = normalize_params("layout", {"ks": "2,2,2"})
        assert p == {
            "ks": [2, 2, 2],
            "layers": 2,
            "node_side": 4,
            "track_order": "forward",
            "recirculating": False,
        }

    def test_normalize_rejects(self):
        with pytest.raises(QueryError):
            normalize_params("nope", {})
        with pytest.raises(QueryError):
            normalize_params("dims", {})  # ks required
        with pytest.raises(QueryError):
            normalize_params("dims", {"ks": [2, 2], "bogus": 1})
        with pytest.raises(QueryError):
            normalize_params("dims", {"ks": [0, 2]})
        with pytest.raises(QueryError):
            normalize_params("dims", {"ks": [13, 13]})  # sum cap
        with pytest.raises(QueryError):
            normalize_params("benes", {"n": 99})
        # int(inf) and float(10**400) raise OverflowError, not ValueError
        with pytest.raises(QueryError):
            normalize_params("benes", {"n": float("inf")})
        with pytest.raises(QueryError):
            normalize_params("sim", {"n": 4, "rate": 10**400})
        with pytest.raises(QueryError):
            normalize_params("layout", {"ks": [2, 2], "recirculating": "maybe"})
        with pytest.raises(QueryError):
            normalize_params("package", {"ks": [2, 2], "scheme": "hexagon"})
        # warmup == cycles leaves no measured window: acceptance would be 0
        with pytest.raises(QueryError):
            normalize_params(
                "sim", {"n": 4, "rate": 0.5, "cycles": 100, "warmup": 100}
            )

    def test_engine_valueerror_becomes_queryerror(self):
        # k_2 > k_1 passes _as_ks but the construction rejects it
        with pytest.raises(QueryError):
            compute("dims", normalize_params("dims", {"ks": [2, 3]}))

    def test_query_without_store(self):
        info = {}
        r = query("dims", {"ks": [2, 2, 2]}, store=None, info=info)
        assert info["cache"] == "off"
        assert r["kind"] == "dims" and r["summary"]["area"] > 0

    def test_query_miss_then_hit_byte_identical(self, store):
        info1, info2 = {}, {}
        r1 = query("dims", {"ks": [2, 2, 2]}, store=store, info=info1)
        r2 = query("dims", {"ks": "2,2,2"}, store=store, info=info2)
        assert info1["cache"] == "miss" and info2["cache"] == "hit"
        assert info1["key"] == info2["key"]  # spellings key identically
        assert canonical_json(r1) == canonical_json(r2)

    def test_layout_query_and_payload(self, store):
        r = query("layout", {"ks": [1, 1, 1]}, store=store)
        assert r["valid"] and r["errors"] == []
        assert r["summary"]["wires"] > 0
        assert "mean len" in r["wire_stats"]
        arrays = store.load_arrays(
            "layout", normalize_params("layout", {"ks": [1, 1, 1]})
        )
        assert arrays is not None
        nets = json.loads(bytes(arrays["nets_json"]).decode("utf-8"))
        assert len(nets) == r["summary"]["wires"]
        assert arrays["indptr"].shape == (r["summary"]["wires"] + 1,)

    def test_package_query(self, store):
        r = query("package", {"ks": [3, 3, 3]}, store=store)
        assert r["all_match"] and len(r["schemes"]) == 3
        row = next(s for s in r["schemes"] if s["scheme"] == "row")
        assert row["pins exact"] == 56  # Section 5.2's exact count

    def test_benes_query(self, store):
        r = query("benes", {"n": 4, "batch": 5, "seed": 7}, store=store)
        assert r["realized_ok"] and r["terminals"] == 16
        assert 0 <= r["crossed"]["min"] <= r["crossed"]["max"] <= r["switches"]
        arrays = store.load_arrays(
            "benes", normalize_params("benes", {"n": 4, "batch": 5, "seed": 7})
        )
        assert arrays["perms"].shape == (5, 16)
        assert arrays["crossed"].shape == (5, 7, 8)  # (B, 2n-1, N/2)

    def test_saturation_query(self):
        r = query("saturation", {"n": 3, "cycles": 300}, store=None)
        assert 0.0 < r["rate_per_node"] <= 1.0
        assert r["paper_wall"] == pytest.approx(1 / 4)

    def test_saturation_short_run_measures(self):
        """Probes of <= 200 cycles used to warm up for all of them and
        answer 0.0; they warm up for cycles // 10 now."""
        r = query("saturation", {"n": 3, "cycles": 120}, store=None)
        assert r["rate_per_node"] == 0.25

    def test_drain_zero_accepted(self):
        """The engine and ``repro sim --drain 0`` run without a drain;
        the service bound used to start at 1."""
        r = query("saturation", {"n": 3, "cycles": 300, "drain": 0},
                  store=None)
        assert 0.0 <= r["rate_per_node"] <= r["paper_wall"]
        p = normalize_params("sim", {"n": 3, "rate": 0.5, "drain": 0})
        assert p["drain"] == 0

    def test_sim_without_window_never_cached(self, store):
        params = {"n": 4, "rate": 0.5, "cycles": 100, "warmup": 100}
        with pytest.raises(QueryError):
            query("sim", params, store=store)
        assert store.stats()["entries"] == 0

    def test_sim_normalize_defaults_and_bounds(self):
        p = normalize_params("sim", {"n": 2, "rate": 0.5})
        assert p == {"n": 2, "rate": 0.5, "cycles": 600, "warmup": 100,
                     "seed": 0, "drain": None}
        with pytest.raises(QueryError):
            normalize_params("sim", {"n": 2})  # rate required
        with pytest.raises(QueryError):
            normalize_params("sim", {"n": 2, "rate": 0.0})
        with pytest.raises(QueryError):
            normalize_params("sim", {"n": 2, "rate": 1.5})
        with pytest.raises(QueryError):
            normalize_params("sim", {"n": 99, "rate": 0.5})

    def test_sim_query_matches_engine(self, store):
        from repro.algorithms.queued_routing import simulate_butterfly_queued

        params = {"n": 2, "rate": 0.6, "cycles": 150, "warmup": 20,
                  "seed": 3}
        r = query("sim", params, store=store)
        ref = simulate_butterfly_queued(2, 0.6, cycles=150, warmup=20, seed=3)
        assert r["offered"] == ref.offered
        assert r["delivered"] == ref.delivered_total
        assert r["accepted_fraction"] == pytest.approx(ref.accepted_fraction)
        assert r["max_queue"] == ref.max_queue
        info = {}
        r2 = query("sim", params, store=store, info=info)
        assert info["cache"] == "hit" and canonical_json(r2) == canonical_json(r)

    def test_use_cache_false_bypasses(self, store):
        info = {}
        query("dims", {"ks": [2, 2, 2]}, store=store, use_cache=False,
              info=info)
        assert info["cache"] == "off"
        assert store.get(
            "dims", normalize_params("dims", {"ks": [2, 2, 2]})
        ) is None


class TestExecParams:
    """Execution knobs: how to compute, never what to compute — they
    must not change result bytes, cache keys or stored params."""

    def test_split_pops_only_exec_keys(self):
        from repro.service.handlers import split_exec_params

        rest, ex = split_exec_params(
            "layout", {"ks": [2, 2], "workers": 2,
                       "memory_budget_bytes": 4096, "bogus": 1},
        )
        # unknown keys stay, ``workers`` included: it is no exec knob
        assert rest == {"ks": [2, 2], "workers": 2, "bogus": 1}
        assert ex == {"memory_budget_bytes": 4096}
        rest2, ex2 = split_exec_params("dims", {"ks": [2, 2], "workers": 2})
        assert rest2 == {"ks": [2, 2], "workers": 2} and ex2 == {}

    def test_chunked_result_and_key_match_monolithic(self, store):
        params = {"ks": [2, 2, 2]}
        info_mono, info_chunk = {}, {}
        mono = query("layout", dict(params), store=None, info=info_mono)
        chunk = query(
            "layout",
            dict(params, memory_budget_bytes=8192),
            store=store, info=info_chunk,
        )
        assert info_mono["key"] == info_chunk["key"]
        assert canonical_json(mono) == canonical_json(chunk)
        assert "memory_budget_bytes" not in chunk["params"]
        # the arrays payload is the same table the monolithic path stores
        arrays = store.load_arrays(
            "layout", normalize_params("layout", params)
        )
        assert arrays is not None
        assert arrays["indptr"].shape == (chunk["summary"]["wires"] + 1,)
        # a monolithic re-query is a cache hit on the chunked artifact
        info_hit = {}
        again = query("layout", dict(params), store=store, info=info_hit)
        assert info_hit["cache"] == "hit"
        assert canonical_json(again) == canonical_json(chunk)

    def test_exec_kwarg_equivalent_to_inline(self, store):
        params = {"ks": [2, 2, 2]}
        r1 = query("layout", dict(params, memory_budget_bytes=8192),
                   store=None)
        r2 = query("layout", dict(params), store=None,
                   exec_params={"memory_budget_bytes": 8192})
        assert canonical_json(r1) == canonical_json(r2)

    def test_exec_values_validated(self):
        for bad in (0, -3, "x", 1.5, True, float("inf")):
            with pytest.raises(QueryError):
                query("layout", {"ks": [2, 2], "memory_budget_bytes": bad},
                      store=None)
        with pytest.raises(QueryError):
            query("layout", {"ks": [2, 2]}, store=None,
                  exec_params={"memory_budget_bytes": 0})
        with pytest.raises(QueryError):
            query("layout", {"ks": [2, 2]}, store=None,
                  exec_params={"bogus": 1})
        # ``workers`` is no layout knob: an unknown parameter either way
        for val in (1, 2, "2"):
            with pytest.raises(QueryError, match="unknown parameter"):
                query("layout", {"ks": [2, 2], "workers": val}, store=None)
            with pytest.raises(QueryError, match="unknown exec parameter"):
                query("layout", {"ks": [2, 2]}, store=None,
                      exec_params={"workers": val})

    def test_exec_strings_coerce_like_http(self):
        r = query("layout",
                  {"ks": [2, 2, 2], "memory_budget_bytes": "8192"},
                  store=None)
        assert r["valid"]


@pytest.fixture
def http_server(store):
    srv = make_server(host="127.0.0.1", port=0, store=store, quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}", store
    srv.shutdown()
    thread.join(timeout=10)
    srv.server_close()


def _get(url):
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as e:
        return e.code, e.read(), dict(e.headers)


class TestHTTPServer:
    def test_health(self, http_server):
        base, _store = http_server
        status, body, _h = _get(f"{base}/v1/health")
        doc = json.loads(body)
        assert status == 200 and doc["ok"]
        assert doc["schema_version"] == SCHEMA_VERSION
        assert "layout" in doc["kinds"]

    @pytest.mark.parametrize("route", [
        "/v1/dims?ks=2,2,2&layers=4",
        "/v1/layout?ks=2,2,2&layers=4",  # carries an array payload
    ], ids=["dims", "layout"])
    def test_query_miss_then_hit(self, http_server, route):
        base, _store = http_server
        url = f"{base}{route}"
        s1, b1, h1 = _get(url)
        s2, b2, h2 = _get(url)
        assert s1 == s2 == 200
        assert h1["X-Repro-Cache"] == "miss"
        assert h2["X-Repro-Cache"] == "hit"
        assert h1["X-Repro-Key"] == h2["X-Repro-Key"]
        assert b1 == b2  # byte-identical warm hit
        assert json.loads(b1)["params"]["layers"] == 4

    def test_bad_params_400(self, http_server):
        base, _store = http_server
        status, body, _h = _get(f"{base}/v1/dims?ks=0,2")
        assert status == 400
        assert "ks" in json.loads(body)["error"]
        status, body, _h = _get(f"{base}/v1/layout?ks=2,2&workers=2")
        assert status == 400
        assert "unknown parameter" in json.loads(body)["error"]

    def test_unknown_kind_400(self, http_server):
        base, _store = http_server
        status, body, _h = _get(f"{base}/v1/frobnicate")
        assert status == 400
        assert "unknown query kind" in json.loads(body)["error"]

    def test_unknown_route_404(self, http_server):
        base, _store = http_server
        status, _body, _h = _get(f"{base}/nope")
        assert status == 404

    def test_cache_stats_route(self, http_server):
        base, _store = http_server
        _get(f"{base}/v1/dims?ks=2,2,2")
        status, body, _h = _get(f"{base}/v1/cache/stats")
        doc = json.loads(body)
        assert status == 200 and doc["entries"] == 1
        assert doc["kinds"] == {"dims": 1}

    def test_post_query(self, http_server):
        base, _store = http_server
        req = urllib.request.Request(
            f"{base}/v1/query",
            data=json.dumps(
                {"kind": "dims", "params": {"ks": [2, 2, 2]}}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as resp:
            assert resp.status == 200
            doc = json.loads(resp.read())
        assert doc["kind"] == "dims"
        # the GET spelling of the same query is a warm hit now
        _s, _b, h = _get(f"{base}/v1/dims?ks=2,2,2")
        assert h["X-Repro-Cache"] == "hit"

    def test_post_bad_body_400(self, http_server):
        base, _store = http_server
        req = urllib.request.Request(
            f"{base}/v1/query", data=b"[1, 2, 3]",
        )
        try:
            urllib.request.urlopen(req)
            status = 200
        except urllib.error.HTTPError as e:
            status = e.code
        assert status == 400

    def test_post_infinite_param_400(self, http_server):
        # json.loads accepts Infinity; int(inf) raises OverflowError
        base, _store = http_server
        req = urllib.request.Request(
            f"{base}/v1/query",
            data=b'{"kind": "benes", "params": {"n": Infinity}}',
        )
        try:
            urllib.request.urlopen(req)
            status = 200
        except urllib.error.HTTPError as e:
            status = e.code
        assert status == 400
