"""Supervision tests: worker death, retries, timeouts, quarantine, 408s.

Worker deaths are injected deterministically through ``REPRO_FAULT_SPEC``
(see :mod:`repro.faults`) with ``REPRO_FAULT_STATE`` pointing at a shared
counter directory, so "the worker dies exactly once and the retry
succeeds" is an assertion, not a race.  The fault environment is set
*before* the ``ServiceThread`` starts, so forked pool workers inherit it.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.service import ServiceThread, parse_job_spec

from test_service import http_json, post_spec


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv(faults.ENV, raising=False)
    monkeypatch.delenv(faults.STATE_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


def arm_global(monkeypatch, tmp_path, spec: str) -> None:
    """Arm a fault spec with cross-process (flock-file) hit counters."""
    state = tmp_path / "fault-state"
    state.mkdir(exist_ok=True)
    monkeypatch.setenv(faults.ENV, spec)
    monkeypatch.setenv(faults.STATE_ENV, str(state))
    faults.reset()


# ----------------------------------------------------------------------
# Spec-level plumbing (no server needed)
# ----------------------------------------------------------------------
class TestReliabilitySpecFields:
    def test_timeout_and_retries_parse_and_round_trip(self):
        spec = parse_job_spec(
            {"circuit": "majority", "width": 5, "timeout": 2.5, "max_retries": 1}
        )
        assert spec.timeout == 2.5
        assert spec.max_retries == 1
        payload = spec.payload()
        assert payload["timeout"] == 2.5
        assert payload["max_retries"] == 1

    def test_scheduling_fields_do_not_change_the_dedup_digest(self):
        base = parse_job_spec({"circuit": "majority", "width": 5})
        tuned = parse_job_spec(
            {"circuit": "majority", "width": 5, "timeout": 9.0, "max_retries": 5}
        )
        assert base.digest() == tuned.digest()

    @pytest.mark.parametrize("bad, field", [
        ({"circuit": "majority", "width": 5, "timeout": 0}, "timeout"),
        ({"circuit": "majority", "width": 5, "timeout": -1}, "timeout"),
        ({"circuit": "majority", "width": 5, "timeout": 1e9}, "timeout"),
        ({"circuit": "majority", "width": 5, "timeout": "fast"}, "timeout"),
        ({"circuit": "majority", "width": 5, "max_retries": -1}, "max_retries"),
        ({"circuit": "majority", "width": 5, "max_retries": 99}, "max_retries"),
        ({"circuit": "majority", "width": 5, "max_retries": 1.5}, "max_retries"),
    ])
    def test_invalid_values_rejected(self, bad, field):
        from repro.service import SpecError

        with pytest.raises(SpecError) as excinfo:
            parse_job_spec(bad)
        assert excinfo.value.detail["field"] == field


# ----------------------------------------------------------------------
# Worker death -> retry -> recovery
# ----------------------------------------------------------------------
class TestWorkerDeathRecovery:
    def test_killed_worker_is_retried_and_job_completes(self, tmp_path, monkeypatch):
        arm_global(monkeypatch, tmp_path, "worker.job:kill@1")
        with ServiceThread(workers=1, retry_base_delay=0.05) as handle:
            status, body = post_spec(
                handle.base_url, {"circuit": "majority", "width": 5}, timeout=120.0
            )
            assert status == 200
            assert body["state"] == "done"
            assert body["attempts"] == 2  # died once, retry landed
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["reliability"]["worker_deaths"] == 1
            assert metrics["reliability"]["retries"] == 1
            assert metrics["reliability"]["quarantined_jobs"] == 0
            assert metrics["jobs"]["completed"] == 1
            assert metrics["jobs"]["failed"] == 0

    def test_dedup_subscribers_survive_worker_death(self, tmp_path, monkeypatch):
        # The herd gate: N identical submissions attach to one in-flight
        # computation, its worker dies, and every subscriber is served by
        # the retry — nobody is lost, and it still runs only once per attempt.
        arm_global(monkeypatch, tmp_path, "worker.job[majority-5]:kill@1")
        with ServiceThread(workers=1, retry_base_delay=0.05) as handle:
            spec = {"circuit": "majority", "width": 5, "delay_ms": 300}
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(post_spec, handle.base_url, spec, True, 120.0)
                    for _ in range(6)
                ]
                outcomes = [f.result() for f in futures]
            assert all(status == 200 for status, _ in outcomes)
            assert all(body["state"] == "done" for _, body in outcomes)
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["jobs"]["completed"] == 6
            assert metrics["jobs"]["failed"] == 0
            assert metrics["reliability"]["worker_deaths"] == 1
            assert metrics["dedup"]["inflight_hits"] >= 1

    def test_poisoned_spec_exhausts_retries_and_quarantines(self, tmp_path, monkeypatch):
        arm_global(monkeypatch, tmp_path, "worker.job:kill%1")  # kill every attempt
        with ServiceThread(workers=1, retry_base_delay=0.05,
                           quarantine_ttl=300.0) as handle:
            status, body = post_spec(
                handle.base_url,
                {"circuit": "majority", "width": 5, "max_retries": 1},
                timeout=120.0,
            )
            assert status == 200
            assert body["state"] == "failed"
            assert body["error_detail"]["type"] == "WorkerCrash"
            assert body["error_detail"]["attempts"] == 2
            # The digest is now quarantined: an identical resubmission fails
            # fast with a structured error instead of burning more workers.
            status, body = post_spec(
                handle.base_url,
                {"circuit": "majority", "width": 5, "max_retries": 1},
                timeout=30.0,
            )
            assert body["state"] == "failed"
            assert body["error_detail"]["type"] == "Quarantined"
            assert body["error_detail"]["retry_after_seconds"] > 0
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["reliability"]["worker_deaths"] == 2
            assert metrics["reliability"]["retries"] == 1
            assert metrics["reliability"]["quarantined_jobs"] == 1

    def test_service_survives_death_and_serves_fresh_jobs(self, tmp_path, monkeypatch):
        arm_global(monkeypatch, tmp_path, "worker.job[majority-3]:kill x9".replace(" ", ""))
        with ServiceThread(workers=1, retry_base_delay=0.05) as handle:
            status, body = post_spec(
                handle.base_url,
                {"circuit": "majority", "width": 3, "max_retries": 0},
                timeout=120.0,
            )
            assert body["state"] == "failed"
            # The pool was rebuilt: an unrelated spec still computes fine.
            status, body = post_spec(
                handle.base_url, {"circuit": "majority", "width": 5}, timeout=120.0
            )
            assert status == 200
            assert body["state"] == "done"


# ----------------------------------------------------------------------
# Per-job wall-clock timeout
# ----------------------------------------------------------------------
class TestJobTimeout:
    def test_job_past_its_deadline_fails_structured(self):
        with ServiceThread(workers=0) as handle:
            start = time.time()
            status, body = post_spec(
                handle.base_url,
                {"circuit": "majority", "width": 3, "delay_ms": 2000,
                 "timeout": 0.3},
                timeout=60.0,
            )
            elapsed = time.time() - start
            assert status == 200
            assert body["state"] == "failed"
            assert body["error_detail"]["type"] == "JobTimeout"
            assert body["error_detail"]["timeout_seconds"] == 0.3
            assert elapsed < 1.5  # failed at the deadline, not after the sleep
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["reliability"]["timeouts"] == 1

    def test_fast_job_is_untouched_by_its_timeout(self):
        with ServiceThread(workers=0) as handle:
            status, body = post_spec(
                handle.base_url,
                {"circuit": "majority", "width": 5, "timeout": 60.0},
                timeout=60.0,
            )
            assert body["state"] == "done"
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["reliability"]["timeouts"] == 0


# ----------------------------------------------------------------------
# Connection read timeout (slowloris)
# ----------------------------------------------------------------------
class TestRequestReadTimeout:
    def test_stalled_client_gets_structured_408(self):
        with ServiceThread(workers=0, read_timeout=0.4) as handle:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as sock:
                # Send a partial request and stall: never finish the headers.
                sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Le")
                response = b""
                sock.settimeout(30)
                while b"\r\n\r\n" not in response:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    response += chunk
                while True:
                    try:
                        chunk = sock.recv(4096)
                    except socket.timeout:
                        break
                    if not chunk:
                        break
                    response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert b"408 Request Timeout" in head
            payload = json.loads(body.decode("utf-8"))
            assert payload["error"]["type"] == "RequestTimeout"
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["reliability"]["request_timeouts"] == 1

    def test_prompt_requests_are_unaffected(self):
        with ServiceThread(workers=0, read_timeout=0.4) as handle:
            status, body = http_json(f"{handle.base_url}/healthz")
            assert status == 200
            assert body["status"] == "ok"


# ----------------------------------------------------------------------
# Corrupt cache records surface in /metrics
# ----------------------------------------------------------------------
class TestCacheCorruptionMetrics:
    def test_corrupt_record_counter(self, tmp_path):
        store = tmp_path / "store"
        with ServiceThread(workers=0, cache_dir=str(store)) as handle:
            spec = {"circuit": "majority", "width": 5}
            _, first = post_spec(handle.base_url, spec)
            assert first["state"] == "done"
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["cache"]["corrupt_records"] == 0
            # Damage the stored record on disk; the next submission must
            # quarantine it, recompute, and expose the counter.
            record = store / f"{first['result']['content_key']}.json"
            record.write_text("{torn-record")
            _, second = post_spec(handle.base_url, spec)
            assert second["state"] == "done"
            assert second["result"]["decomposition_cached"] is False
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["cache"]["corrupt_records"] == 1


# ----------------------------------------------------------------------
# Quarantine map hygiene: expired digests are swept, not leaked
# ----------------------------------------------------------------------
class TestQuarantineSweep:
    def test_expired_quarantine_entries_are_swept(self, tmp_path, monkeypatch):
        arm_global(monkeypatch, tmp_path, "worker.job:kill%1")  # every attempt dies
        with ServiceThread(workers=1, retry_base_delay=0.05,
                           quarantine_ttl=0.4) as handle:
            status, body = post_spec(
                handle.base_url,
                {"circuit": "majority", "width": 5, "max_retries": 0},
                timeout=120.0,
            )
            assert body["state"] == "failed"
            assert body["error_detail"]["type"] == "WorkerCrash"
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["reliability"]["quarantined_jobs"] == 1
            assert metrics["reliability"]["quarantine_size"] == 1
            # After the TTL the map is swept on the next scrape — even though
            # the poisoned digest is never resubmitted (the old leak).
            time.sleep(0.5)
            _, metrics = http_json(f"{handle.base_url}/metrics")
            assert metrics["reliability"]["quarantine_size"] == 0
            # The cumulative counter is history, not a gauge: it stays.
            assert metrics["reliability"]["quarantined_jobs"] == 1


# ----------------------------------------------------------------------
# Fork-pool workers must not hold client connections open
# ----------------------------------------------------------------------
def post_until_eof(port: int, spec: dict, eof_timeout: float = 10.0) -> dict:
    """POST ``spec`` with ``Connection: close`` and read to end-of-file.

    The job may take as long as it needs; once the whole response is in,
    the server's close must reach the client within ``eof_timeout``.
    """
    body = json.dumps(spec).encode("utf-8")
    request = (
        b"POST /jobs?wait=1&timeout=120 HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/json\r\nConnection: close\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
    )
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(request)
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = sock.recv(65536)
            assert chunk, "connection closed before the response headers"
            response += chunk
        head, _, payload = response.partition(b"\r\n\r\n")
        length = int(head.split(b"Content-Length:")[1].split(b"\r\n")[0])
        while len(payload) < length:
            chunk = sock.recv(65536)
            assert chunk, "connection closed before the response body"
            payload += chunk
        sock.settimeout(eof_timeout)
        try:
            trailing = sock.recv(65536)
        except socket.timeout:
            pytest.fail(f"response complete but no end-of-file within {eof_timeout} s")
        assert trailing == b""
    return json.loads(payload)


class TestConnectionClose:
    def test_first_fork_pool_response_reaches_eof(self, tmp_path):
        # The pool forks its workers at the first submit, while that
        # client's connection is open.
        with ServiceThread(cache_dir=str(tmp_path / "store"), workers=2) as handle:
            for width in (5, 7):
                body = post_until_eof(handle.port, {"circuit": "majority", "width": width})
                assert body["state"] == "done"

    def test_rebuilt_pool_response_reaches_eof(self, tmp_path, monkeypatch):
        # The first job forks the pool on another connection.  The second
        # kills its worker, and the replacement pool forks while the
        # connection waiting for the retry is open.
        arm_global(monkeypatch, tmp_path, "worker.job[majority-5]:kill@1")
        with ServiceThread(workers=1, retry_base_delay=0.05) as handle:
            post_spec(handle.base_url, {"circuit": "majority", "width": 3}, timeout=120.0)
            body = post_until_eof(handle.port, {"circuit": "majority", "width": 5})
            assert body["state"] == "done"
            assert body["attempts"] == 2
