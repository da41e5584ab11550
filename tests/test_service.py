"""Service front-end tests: dedup, lifecycle, validation, graceful shutdown.

The server runs in-process on a background thread (``ServiceThread``) with
``workers=0`` — one in-process worker thread, no fork — which makes the
execution order deterministic: the computation counter in ``/metrics`` is
exact, so "N identical concurrent submissions → one pipeline execution" is
an assertion, not a probability.  One test exercises the fork-pool path
(``workers=1``) end to end as well.
"""

from __future__ import annotations

import json
import shutil
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import (
    CacheTelemetry,
    DecompositionCache,
    deserialize_decomposition,
    run_job,
    serialize_decomposition,
)
from repro.benchcircuits import comparator_spec, majority_spec
from repro.core import progressive_decomposition
from repro.service import ServiceThread, SpecError, jobs, parse_job_spec
from repro.service.jobs import MAX_WIDTH


def http_json(url, data=None, method=None, timeout=60.0):
    request = urllib.request.Request(
        url, data=data, method=method or ("POST" if data is not None else "GET")
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def post_spec(base_url, spec, wait=True, timeout=60.0):
    suffix = "?wait=1" if wait else ""
    return http_json(
        f"{base_url}/jobs{suffix}",
        json.dumps(spec).encode("utf-8"),
        timeout=timeout,
    )


@pytest.fixture()
def service(tmp_path):
    with ServiceThread(cache_dir=str(tmp_path / "store"), workers=0) as handle:
        yield handle


# ----------------------------------------------------------------------
# Spec parsing (no server needed)
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_minimal_spec_defaults(self):
        spec = parse_job_spec({"circuit": "majority", "width": 5})
        assert spec.kind == "decompose"
        assert spec.objective == "balanced"
        assert spec.options.k == 4
        assert spec.delay_ms == 0

    def test_digest_separates_distinct_jobs(self):
        base = parse_job_spec({"circuit": "majority", "width": 5})
        assert base.digest() == parse_job_spec({"circuit": "majority", "width": 5}).digest()
        for other in (
            {"circuit": "majority", "width": 7},
            {"circuit": "counter", "width": 5},
            {"kind": "synthesize", "circuit": "majority", "width": 5},
            {"circuit": "majority", "width": 5, "options": {"k": 3}},
            {"circuit": "majority", "width": 5, "verify": True},
            {"circuit": "majority", "width": 5, "delay_ms": 10},
        ):
            assert parse_job_spec(other).digest() != base.digest()

    @pytest.mark.parametrize("bad, field", [
        ({"circuit": "nope", "width": 5}, "circuit"),
        ({"width": 5}, "circuit"),
        ({"circuit": "majority"}, "width"),
        ({"circuit": "majority", "width": 0}, "width"),
        ({"circuit": "majority", "width": MAX_WIDTH + 1}, "width"),
        ({"circuit": "majority", "width": True}, "width"),
        ({"circuit": "majority", "width": 5, "kind": "transmogrify"}, "kind"),
        ({"circuit": "majority", "width": 5, "objective": "vibes"}, "objective"),
        ({"circuit": "majority", "width": 5, "options": {"nope": 1}}, "options"),
        ({"circuit": "majority", "width": 5, "options": {"k": "four"}}, "options"),
        ({"circuit": "majority", "width": 5, "options": {"use_identities": 1}}, "options"),
        ({"circuit": "majority", "width": 5, "delay_ms": -1}, "delay_ms"),
        ({"circuit": "majority", "width": 5, "frobnicate": True}, "frobnicate"),
    ])
    def test_rejections_carry_field(self, bad, field):
        with pytest.raises(SpecError) as excinfo:
            parse_job_spec(bad)
        assert excinfo.value.detail["field"] == field

    def test_non_object_spec_rejected(self):
        with pytest.raises(SpecError):
            parse_job_spec([1, 2, 3])


# ----------------------------------------------------------------------
# HTTP lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_submit_poll_and_metrics(self, service):
        base = service.base_url
        status, health = http_json(f"{base}/healthz")
        assert status == 200 and health["status"] == "ok"

        status, body = post_spec(base, {"circuit": "majority", "width": 5}, wait=False)
        assert status == 202
        assert body["state"] in ("queued", "running")
        job_id = body["id"]

        status, done = http_json(f"{base}/jobs/{job_id}?wait=1")
        assert status == 200 and done["state"] == "done"
        result = done["result"]
        assert result["blocks"] >= 1 and result["levels"] >= 1
        assert result["decomposition_cached"] is False

        # Same spec again: served from the on-disk store, not recomputed.
        status, warm = post_spec(base, {"circuit": "majority", "width": 5})
        assert warm["state"] == "done"
        assert warm["result"]["decomposition_cached"] is True

        status, metrics = http_json(f"{base}/metrics")
        assert metrics["jobs"]["submitted"] == 2
        assert metrics["jobs"]["completed"] == 2
        assert metrics["cache"]["misses"] == 1
        assert metrics["cache"]["hits"] == 1
        assert metrics["latency_seconds"]["count"] == 2
        assert metrics["latency_seconds"]["p99"] >= metrics["latency_seconds"]["p50"]

    def test_synthesize_job_reports_area_delay(self, service):
        status, body = post_spec(
            service.base_url,
            {"kind": "synthesize", "circuit": "adder", "width": 4},
        )
        assert body["state"] == "done"
        result = body["result"]
        assert result["area"] > 0 and result["delay"] > 0 and result["cells"] > 0
        # Synthesis metrics cache under <store>/synth: resubmitting is warm.
        status, again = post_spec(
            service.base_url,
            {"kind": "synthesize", "circuit": "adder", "width": 4},
        )
        assert again["result"]["synthesis_cached"] is True
        assert again["result"]["area"] == result["area"]

    def test_verify_flag(self, service):
        status, body = post_spec(
            service.base_url, {"circuit": "counter", "width": 5, "verify": True}
        )
        assert body["result"]["verified"] is True

    def test_events_stream_ends_terminal(self, service):
        status, body = post_spec(
            service.base_url, {"circuit": "majority", "width": 5, "delay_ms": 200},
            wait=False,
        )
        with urllib.request.urlopen(
            f"{service.base_url}/jobs/{body['id']}/events", timeout=60
        ) as stream:
            lines = [json.loads(line) for line in stream.read().splitlines() if line]
        assert lines[-1]["state"] == "done"

    def test_job_listing(self, service):
        post_spec(service.base_url, {"circuit": "majority", "width": 5})
        status, listing = http_json(f"{service.base_url}/jobs")
        assert status == 200
        assert listing["count"] == len(listing["jobs"]) >= 1


# ----------------------------------------------------------------------
# Validation over HTTP
# ----------------------------------------------------------------------
class TestValidation:
    def test_malformed_json_is_structured_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(f"{service.base_url}/jobs", b"{definitely not json")
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "not valid JSON" in body["error"]["message"]

    def test_bad_spec_is_structured_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(
                f"{service.base_url}/jobs",
                json.dumps({"circuit": "majority", "width": 99}).encode(),
            )
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["field"] == "width"
        _, metrics = http_json(f"{service.base_url}/metrics")
        assert metrics["jobs"]["rejected"] == 1

    def test_unknown_job_and_route_are_404(self, service):
        for path in ("/jobs/ffffffffffffffff", "/nope"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_json(service.base_url + path)
            assert excinfo.value.code == 404


# ----------------------------------------------------------------------
# In-flight deduplication
# ----------------------------------------------------------------------
class TestDedup:
    HERD = 8

    def test_identical_concurrent_specs_compute_once(self, service):
        spec = {"circuit": "counter", "width": 6, "delay_ms": 400}
        with ThreadPoolExecutor(self.HERD) as pool:
            results = list(pool.map(
                lambda _: post_spec(service.base_url, spec, timeout=120),
                range(self.HERD),
            ))
        assert all(body["state"] == "done" for _, body in results)
        deduplicated = [body for _, body in results if body["deduplicated"]]
        assert len(deduplicated) == self.HERD - 1
        primary_ids = {body.get("primary_id") for body in deduplicated}
        assert len(primary_ids) == 1

        _, metrics = http_json(f"{service.base_url}/metrics")
        # The assertion of the whole PR: one pipeline execution.
        assert metrics["cache"]["misses"] == 1
        assert metrics["dedup"]["inflight_hits"] == self.HERD - 1
        assert metrics["jobs"]["completed"] == self.HERD

    def test_distinct_specs_run_independently(self, service):
        specs = [
            {"circuit": "majority", "width": 5, "delay_ms": 200},
            {"circuit": "majority", "width": 6, "delay_ms": 200},
            {"circuit": "counter", "width": 5, "delay_ms": 200},
        ]
        with ThreadPoolExecutor(len(specs)) as pool:
            results = list(pool.map(
                lambda s: post_spec(service.base_url, s, timeout=120), specs
            ))
        assert all(body["state"] == "done" for _, body in results)
        assert not any(body["deduplicated"] for _, body in results)
        _, metrics = http_json(f"{service.base_url}/metrics")
        assert metrics["cache"]["misses"] == len(specs)
        assert metrics["dedup"]["inflight_hits"] == 0

    def test_dedup_on_fork_pool(self, tmp_path):
        """The same invariant through the multiprocessing pool path."""
        with ServiceThread(cache_dir=str(tmp_path / "store"), workers=1) as handle:
            spec = {"circuit": "majority", "width": 6, "delay_ms": 400}
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(
                    lambda _: post_spec(handle.base_url, spec, timeout=120),
                    range(4),
                ))
            assert all(body["state"] == "done" for _, body in results)
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["cache"]["misses"] == 1
            assert metrics["dedup"]["inflight_hits"] == 3


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_drains_inflight_and_refuses_new_jobs(self, tmp_path):
        handle = ServiceThread(cache_dir=str(tmp_path / "store"), workers=0)
        base = handle.base_url
        try:
            spec = {"circuit": "counter", "width": 6, "delay_ms": 800}
            with ThreadPoolExecutor(2) as pool:
                inflight = pool.submit(post_spec, base, spec, True, 120)
                # Let the submission land before asking for shutdown.
                for _ in range(200):
                    _, health = http_json(f"{base}/healthz")
                    if health["inflight"]:
                        break
                    time.sleep(0.01)
                status, body = http_json(f"{base}/shutdown", b"", method="POST")
                assert status == 202 and body["status"] == "draining"
                # New submissions are refused while draining...
                with pytest.raises((urllib.error.HTTPError, urllib.error.URLError)) as excinfo:
                    post_spec(base, {"circuit": "majority", "width": 5})
                if isinstance(excinfo.value, urllib.error.HTTPError):
                    assert excinfo.value.code == 503
                # ...but the in-flight job still completes with its result.
                status, finished = inflight.result(timeout=120)
                assert finished["state"] == "done"
                assert finished["result"]["blocks"] >= 1
        finally:
            handle.stop()
        assert not handle._thread.is_alive()


# ----------------------------------------------------------------------
# Engine-layer job API + cache telemetry (the seams the service rides on)
# ----------------------------------------------------------------------
class TestEngineJobApi:
    def test_run_job_round_trips_through_cache(self, tmp_path):
        cold = run_job(majority_spec, (5,), cache_dir=str(tmp_path))
        warm = run_job(majority_spec, (5,), cache_dir=str(tmp_path))
        assert cold.cache_hit is False and warm.cache_hit is True
        assert warm.record == cold.record
        assert warm.content_key == cold.content_key
        assert warm.job_key == cold.job_key is not None

    def test_cache_telemetry_counts_lookups_and_stores(self, tmp_path):
        telemetry = CacheTelemetry()
        cache = DecompositionCache(tmp_path, telemetry=telemetry)
        assert cache.load("missing") is None
        outcome = run_job(majority_spec, (5,), cache_dir=str(tmp_path))
        assert cache.load_raw(outcome.content_key) is not None
        assert telemetry.misses == 1 and telemetry.hits == 1
        cache.store_raw("extra", outcome.record)
        assert telemetry.stores == 1
        snap = telemetry.snapshot()
        assert snap["hit_rate"] == 0.5 and snap["stores"] == 1


# ----------------------------------------------------------------------
# Cold miss vs warm hit: the live decomposition stands in for the record
# ----------------------------------------------------------------------
def _without_timings(result: dict) -> dict:
    return {
        key: value for key, value in result.items()
        if key not in ("seconds", "engine_seconds") and not key.endswith("_cached")
    }


JOB_VARIANTS = [
    {"kind": "decompose"},
    {"kind": "decompose", "verify": True},
    {"kind": "synthesize", "objective": "delay"},
    {"kind": "synthesize", "objective": "area"},
    {"kind": "synthesize", "objective": "balanced", "verify": True},
]


class TestColdWarmParity:
    @pytest.mark.parametrize("circuit, width", [("comparator", 8), ("counter", 8)])
    @pytest.mark.parametrize("variant", JOB_VARIANTS,
                             ids=lambda v: "-".join(str(x) for x in v.values()))
    def test_miss_and_hit_return_the_same_result(self, tmp_path, monkeypatch,
                                                 circuit, width, variant):
        loads = []

        def counting_deserialize(record):
            loads.append(record)
            return deserialize_decomposition(record)

        monkeypatch.setattr(jobs, "deserialize_decomposition", counting_deserialize)
        payload = parse_job_spec({"circuit": circuit, "width": width, **variant}).payload()
        store = tmp_path / "store"
        cold = jobs.execute_job(payload, str(store))
        assert cold["decomposition_cached"] is False
        assert loads == []  # the miss uses the decomposition it computed
        # Synthesise the hit from the loaded record, not the metric cache.
        shutil.rmtree(store / "synth", ignore_errors=True)
        warm = jobs.execute_job(payload, str(store))
        assert warm["decomposition_cached"] is True
        assert len(loads) == 1
        assert _without_timings(warm) == _without_timings(cold)

    def test_outcome_carries_the_live_decomposition_on_a_miss_only(self, tmp_path):
        cold = run_job(majority_spec, (5,), cache_dir=str(tmp_path))
        warm = run_job(majority_spec, (5,), cache_dir=str(tmp_path))
        assert cold.decomposition is not None
        assert serialize_decomposition(cold.decomposition) == cold.record
        assert warm.decomposition is None

    def test_matrix_only_record_equals_materialised_record(self):
        spec = comparator_spec(8)
        live = progressive_decomposition(spec.outputs, input_words=spec.input_words)
        exprs = [*live.original.values(), *live.outputs.values(),
                 *(block.definition for block in live.blocks)]
        assert any(expr._terms is None for expr in exprs)  # matrix-only rows
        from_rows = serialize_decomposition(live)
        for expr in exprs:
            expr.terms  # materialise every frozenset
        assert serialize_decomposition(live) == from_rows
        from_sets = serialize_decomposition(deserialize_decomposition(from_rows))
        assert json.dumps(from_sets) == json.dumps(from_rows)
