"""The asyncio HTTP front-end of decomposition-as-a-service.

One event loop owns all bookkeeping (job table, in-flight map, metrics);
decompositions run in a forked :class:`~concurrent.futures.ProcessPoolExecutor`
(or an in-process worker thread with ``workers=0``) and come back as
JSON-ready summaries.

Execution is *supervised* (see ``docs/RELIABILITY.md``): every job gets a
wall-clock timeout (``JobTimeout`` on expiry); an attempt lost to a hard
worker death (the executor reports ``BrokenProcessPool``) is retried with
exponential backoff + jitter while its dedup subscribers stay attached;
a spec that crashes its worker through the whole retry budget fails with
a structured ``WorkerCrash`` error and is quarantined for a TTL; slow
clients are dropped with a structured HTTP 408.
The HTTP layer is deliberately ``http.server``-grade: a hand-rolled
HTTP/1.1 request parser over ``asyncio.start_server``, stdlib only, one
connection per request (``Connection: close``).

Endpoints
---------
* ``POST /jobs`` — submit a job spec (JSON body); ``?wait=1`` blocks until
  the job is terminal.  Identical in-flight submissions (equal canonical
  digests) attach to the running computation instead of spawning another.
* ``GET /jobs`` — brief listing of known jobs.
* ``GET /jobs/<id>`` — job status; ``?wait=1`` long-polls until terminal.
* ``GET /jobs/<id>/events`` — NDJSON stream of status snapshots (one line
  on subscribe, one per state change, final line on completion).
* ``GET /healthz`` — liveness + drain state.
* ``GET /metrics`` — operating-point counters (latency percentiles, cache
  hit rate, dedup rate, queue depth); see :mod:`repro.service.metrics`.
* ``POST /shutdown`` — graceful shutdown: stop accepting jobs, drain the
  in-flight queue, close the fork pool, stop the listener.

The module also provides :func:`run_service` (asyncio entry point used by
``python -m repro.service``) and :class:`ServiceThread` (an in-process
server on a background thread, used by the tests and the load generator).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import json
import math
import os
import random
import re
import stat
import threading
import time
import urllib.parse
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import faults
from ..engine.cache import DecompositionCache, corrupt_record_count
from ..engine.cost import estimate_cost
from ..parallel import mark_pool_worker, pool_context
from .admission import (
    ADMIT,
    CACHE_ONLY,
    SHED,
    THROTTLE,
    AdmissionConfig,
    AdmissionController,
    Decision,
    admission_config_from_env,
)
from .jobs import (
    MAX_CLIENT_LEN,
    Job,
    JobSpec,
    JobState,
    SpecError,
    new_job_id,
    parse_job_spec,
    execute_job,
)
from .metrics import ServiceMetrics

#: Largest accepted request body; job specs are a few hundred bytes.
MAX_BODY_BYTES = 64 * 1024

#: Longest a single ``?wait=1`` request may block.
MAX_WAIT_SECONDS = 600.0

#: Completed jobs kept in the table (oldest evicted first).
JOB_TABLE_LIMIT = 50_000


def _release_inherited_sockets() -> None:
    """Drop this process's copies of the sockets it inherited by fork.

    The fork pool starts its workers while client connections are open, so
    each worker holds a duplicate of those sockets (and of the listener).
    While any duplicate lives, the server's close of a connection sends no
    FIN and the client never sees end-of-file.  Workers never touch a
    socket (the executor talks over pipes), so every socket descriptor is
    pointed at ``/dev/null`` instead.  Reusing the descriptor number rather
    than closing it keeps a stale socket object in the worker from ever
    closing an unrelated file that later took the same number.
    """
    try:
        descriptors = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        try:
            descriptors = [int(name) for name in os.listdir("/dev/fd")]
        except OSError:  # pragma: no cover - no descriptor listing on this OS
            return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in descriptors:
            try:
                if fd != null and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                pass  # the listing's own descriptor, already closed
    finally:
        os.close(null)


def _init_service_worker() -> None:
    """Initializer of the service's fork-pool workers."""
    mark_pool_worker()
    _release_inherited_sockets()


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 8321
    cache_dir: Optional[str] = None
    #: >0: fork-pool worker processes; 0: one in-process worker thread
    #: (no fork — the fallback for restricted environments and tests).
    workers: int = 1
    #: Upper bound on waiting for in-flight jobs during graceful shutdown.
    drain_timeout: float = 120.0
    #: Default per-job wall-clock limit (seconds); a spec's ``timeout``
    #: field overrides it.  A job past its limit fails with a structured
    #: ``JobTimeout`` error (the worker slot drains when the task ends).
    job_timeout: float = 300.0
    #: Default retry budget for attempts lost to a worker crash; a spec's
    #: ``max_retries`` field overrides it.
    max_retries: int = 2
    #: Exponential-backoff base delay between crash retries (seconds);
    #: attempt n waits ~``base * 2**(n-1)`` with +-50% jitter.
    retry_base_delay: float = 0.1
    #: Ceiling on any single crash-retry backoff delay (seconds).
    retry_max_delay: float = 5.0
    #: How long a digest that exhausted its crash retries keeps failing
    #: fast (seconds) before a fresh submission may try again.
    quarantine_ttl: float = 300.0
    #: Per-connection limit on reading the request line + headers + body
    #: (seconds); a slow or stalled client gets a structured HTTP 408.
    read_timeout: float = 30.0
    #: Admission-control operating point (quotas, shedding watermarks,
    #: brownout).  ``None`` reads ``REPRO_ADMISSION_*`` from the
    #: environment at service construction; tests pass an explicit config.
    admission: Optional[AdmissionConfig] = None


class _InFlight:
    """One running computation plus every submission subscribed to it.

    The entry survives worker crashes: ``future`` is replaced on each retry
    attempt while the subscriber list (thundering-herd dedup) is preserved,
    so every submission attached to a crashed computation is served by the
    retry that finally lands.
    """

    __slots__ = ("primary", "subscribers", "future", "attempts",
                 "max_retries", "timeout", "timeout_handle", "settled",
                 "admission")

    def __init__(self, primary: Job, timeout: float, max_retries: int,
                 admission: Optional[Decision] = None) -> None:
        self.primary = primary
        self.subscribers: List[Job] = []
        self.future: Optional["asyncio.Future"] = None
        self.attempts = 0
        self.max_retries = max_retries
        self.timeout = timeout
        self.timeout_handle: Optional[asyncio.TimerHandle] = None
        self.settled = False
        #: Admission decision whose queued cost is released on settle.
        self.admission = admission


class HttpError(Exception):
    def __init__(self, status: int, message: str, detail: Optional[dict] = None,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = {"error": detail or {"message": message}}
        #: Extra response headers (e.g. ``Retry-After`` on a 429).
        self.headers = headers


class DecompositionService:
    """Event-loop-owned service state + request handlers."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(
            config.admission if config.admission is not None
            else admission_config_from_env()
        )
        #: Cache handle for pre-admission "already on disk?" probes; opened
        #: lazily so a cache-less service never creates a directory.
        self._admission_cache: Optional[DecompositionCache] = None
        self.jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._events: Dict[str, asyncio.Event] = {}
        self._inflight: Dict[str, _InFlight] = {}
        #: digest -> quarantine expiry (time.monotonic()): specs that
        #: exhausted their crash retries fail fast until the TTL passes.
        self._quarantine: Dict[str, float] = {}
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _make_pool(self):
        if self.config.workers > 0:
            # ProcessPoolExecutor rather than multiprocessing.Pool: a worker
            # that dies hard fails every pending future with
            # BrokenProcessPool instead of silently losing its task — the
            # signal the retry machinery is built on.
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=pool_context(),
                initializer=_init_service_worker,
            )
        # One worker thread keeps execution strictly sequential and
        # fork-free; numpy releases the GIL, so the loop stays live.
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-worker"
        )

    def _rebuild_pool(self) -> None:
        """Replace a crash-broken process pool with a fresh one.

        One worker death breaks the whole executor (every pending future
        fails), so several callbacks may request a rebuild for the same
        death — only the first finds the pool actually broken.
        """
        pool = self._pool
        if pool is None or self._draining:
            return
        if not isinstance(pool, concurrent.futures.ProcessPoolExecutor):
            return
        if not getattr(pool, "_broken", True):
            return  # already replaced by an earlier callback
        self._pool = self._make_pool()
        pool.shutdown(wait=False)

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._pool = self._make_pool()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Drain in-flight jobs, close the pool, stop the listener."""
        if self._draining:
            return
        self._draining = True
        pending = [
            entry.future for entry in self._inflight.values()
            if entry.future is not None and not entry.future.done()
        ]
        if pending:
            await asyncio.wait(pending, timeout=self.config.drain_timeout)
        # Settle anything still open (timed out the drain, or waiting on a
        # retry backoff) so no subscriber is left hanging forever.
        for entry in list(self._inflight.values()):
            self._settle(
                entry, None, "ServiceStopping: server shut down before the job finished",
                {"type": "ServiceStopping"},
            )
        pool, self._pool = self._pool, None
        if pool is not None:
            await self._loop.run_in_executor(None, pool.shutdown)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Job bookkeeping
    # ------------------------------------------------------------------
    def _register_job(self, job: Job) -> None:
        self.jobs[job.id] = job
        self._events[job.id] = asyncio.Event()
        while len(self.jobs) > JOB_TABLE_LIMIT:
            old_id, old_job = next(iter(self.jobs.items()))
            if old_job.state in (JobState.DONE, JobState.FAILED):
                del self.jobs[old_id]
                self._events.pop(old_id, None)
            else:
                break

    def _finish_job(self, job: Job, result: Optional[dict], error: Optional[str],
                    error_detail: Optional[dict] = None) -> None:
        job.finish(result, error, error_detail)
        self.metrics.record_completion(job.latency_seconds, failed=error is not None)
        event = self._events.get(job.id)
        if event is not None:
            event.set()

    def _submit_to_pool(self, payload: dict) -> "asyncio.Future":
        """Hand a job payload to the execution backend; returns a future."""
        cf_future = self._pool.submit(execute_job, payload, self.config.cache_dir)
        return asyncio.wrap_future(cf_future, loop=self._loop)

    def submit(self, job: Job, decision: Optional[Decision] = None) -> None:
        """Route a validated job: attach to an in-flight twin or execute.

        Quarantined digests (specs that crashed their worker through the
        whole retry budget) fail fast with a structured error until their
        TTL expires — one poisoned spec cannot grind the pool down forever.

        ``decision`` is the admission decision that let this job in; its
        registered queue cost is released when the job settles (or right
        here, for paths that never reach the executor).
        """
        self.metrics.jobs_submitted += 1
        self._register_job(job)
        expiry = self._quarantine.get(job.digest)
        if expiry is not None:
            if time.monotonic() < expiry:
                self._finish_job(
                    job, None,
                    "Quarantined: this spec repeatedly crashed its worker; "
                    "rejected until the quarantine expires",
                    {"type": "Quarantined",
                     "retry_after_seconds": round(expiry - time.monotonic(), 3)},
                )
                self.admission.settle(decision)
                return
            del self._quarantine[job.digest]
        entry = self._inflight.get(job.digest)
        if entry is not None:
            job.deduplicated = True
            job.primary_id = entry.primary.id
            job.state = JobState.RUNNING
            entry.subscribers.append(job)
            self.metrics.dedup_inflight_hits += 1
            self.admission.settle(decision)  # dedup registers no queue cost
            return
        job.state = JobState.RUNNING
        spec = job.spec
        entry = _InFlight(
            job,
            timeout=spec.timeout if spec.timeout is not None else self.config.job_timeout,
            max_retries=(spec.max_retries if spec.max_retries is not None
                         else self.config.max_retries),
            admission=decision,
        )
        self._inflight[job.digest] = entry
        self.metrics.queue_depth += 1
        self.metrics.inflight_unique = len(self._inflight)
        self._launch(entry)

    # ------------------------------------------------------------------
    # Supervision: attempts, timeouts, crash retries, quarantine
    # ------------------------------------------------------------------
    def _launch(self, entry: _InFlight) -> None:
        """Start (or restart) the computation behind an in-flight entry."""
        if entry.settled:
            return
        if self._pool is None:
            self._settle(
                entry, None, "ServiceStopping: server shut down before the job ran",
                {"type": "ServiceStopping"},
            )
            return
        entry.attempts += 1
        attempt = entry.attempts
        try:
            future = self._submit_to_pool(entry.primary.spec.payload())
        except (BrokenProcessPool, RuntimeError):
            # The pool broke between the death and this (re)launch.
            self._rebuild_pool()
            future = self._submit_to_pool(entry.primary.spec.payload())
        entry.future = future
        if entry.timeout_handle is not None:
            entry.timeout_handle.cancel()
        if entry.timeout:
            entry.timeout_handle = self._loop.call_later(
                entry.timeout, self._on_job_timeout, entry, attempt
            )
        future.add_done_callback(
            lambda fut: self._on_attempt_done(entry, attempt, fut)
        )

    def _settle(self, entry: _InFlight, result: Optional[dict],
                error: Optional[str], error_detail: Optional[dict] = None) -> None:
        """Terminal bookkeeping: finish the primary and every subscriber."""
        if entry.settled:
            return
        entry.settled = True
        if entry.timeout_handle is not None:
            entry.timeout_handle.cancel()
            entry.timeout_handle = None
        self._inflight.pop(entry.primary.digest, None)
        self.metrics.queue_depth = max(0, self.metrics.queue_depth - 1)
        self.metrics.inflight_unique = len(self._inflight)
        entry.primary.attempts = entry.attempts
        self.admission.settle(entry.admission)
        if error is None and isinstance(result, dict):
            self.metrics.record_outcome(bool(result.get("decomposition_cached")))
        for job in (entry.primary, *entry.subscribers):
            self._finish_job(job, result, error, error_detail)

    def _on_attempt_done(self, entry: _InFlight, attempt: int,
                         future: "asyncio.Future") -> None:
        if entry.settled or attempt != entry.attempts:
            return  # stale: the job already timed out or was re-launched
        try:
            result = future.result()
        except asyncio.CancelledError:
            self._settle(entry, None, "Cancelled: execution was cancelled",
                         {"type": "Cancelled", "attempts": entry.attempts})
            return
        except BrokenProcessPool:
            self._on_worker_death(entry)
            return
        except Exception as exc:  # in-band worker exception: every subscriber fails
            self._settle(
                entry, None, f"{type(exc).__name__}: {exc}",
                {"type": type(exc).__name__, "attempts": entry.attempts},
            )
            return
        self._settle(entry, result, None)

    def _on_worker_death(self, entry: _InFlight) -> None:
        """An attempt died with its worker: retry with backoff, or quarantine."""
        self.metrics.worker_deaths += 1
        self._rebuild_pool()
        if self._draining:
            self._settle(
                entry, None, "ServiceStopping: worker died during shutdown drain",
                {"type": "ServiceStopping"},
            )
            return
        if entry.attempts <= entry.max_retries:
            self.metrics.retries += 1
            base = self.config.retry_base_delay * (2 ** (entry.attempts - 1))
            delay = min(self.config.retry_max_delay, base)
            delay *= 0.5 + random.random()  # +-50% jitter breaks retry lockstep
            self._loop.call_later(delay, self._launch, entry)
            return
        self.metrics.quarantined_jobs += 1
        # Sweep expired digests before inserting: without this, a digest
        # that is never resubmitted would sit in the map forever (the only
        # other deletion path is a same-digest resubmission after expiry).
        self._sweep_quarantine()
        self._quarantine[entry.primary.digest] = (
            time.monotonic() + self.config.quarantine_ttl
        )
        self._settle(
            entry, None,
            f"WorkerCrash: worker died on all {entry.attempts} attempts; "
            f"spec quarantined for {self.config.quarantine_ttl:.0f}s",
            {"type": "WorkerCrash", "attempts": entry.attempts,
             "quarantine_seconds": self.config.quarantine_ttl},
        )

    def _on_job_timeout(self, entry: _InFlight, attempt: int) -> None:
        if entry.settled or attempt != entry.attempts:
            return
        self.metrics.timeouts += 1
        # A running process-pool task cannot be cancelled; the stale future
        # is abandoned (its late result is dropped by the attempt check)
        # and the worker slot drains when the task eventually ends.
        if entry.future is not None:
            entry.future.cancel()
        self._settle(
            entry, None,
            f"JobTimeout: job exceeded its {entry.timeout:g}s wall-clock limit",
            {"type": "JobTimeout", "timeout_seconds": entry.timeout,
             "attempts": entry.attempts},
        )

    def _sweep_quarantine(self, now: Optional[float] = None) -> None:
        """Drop every expired quarantine entry (leak fix: expiry used to be
        checked only on a same-digest resubmission)."""
        now = time.monotonic() if now is None else now
        expired = [d for d, expiry in self._quarantine.items() if now >= expiry]
        for digest in expired:
            del self._quarantine[digest]

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                # A slow or stalled client (slowloris, dripped headers,
                # missing body bytes) must not pin a connection handler
                # forever: the whole request read shares one deadline.
                method, path, query, body, headers = await asyncio.wait_for(
                    self._read_request(reader), self.config.read_timeout
                )
            except asyncio.TimeoutError:
                self.metrics.request_timeouts += 1
                await self._respond(writer, 408, {"error": {
                    "type": "RequestTimeout",
                    "message": "request was not received within "
                               f"{self.config.read_timeout:g}s",
                }})
                return
            except HttpError as exc:
                await self._respond(writer, exc.status, exc.body,
                                    extra_headers=exc.headers)
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return
            try:
                await self._route(writer, method, path, query, body, headers)
            except HttpError as exc:
                await self._respond(writer, exc.status, exc.body,
                                    extra_headers=exc.headers)
            except ConnectionError:
                pass
            except Exception as exc:  # never leak a traceback as a hung socket
                await self._respond(
                    writer, 500,
                    {"error": {"message": f"internal error: {type(exc).__name__}: {exc}"}},
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, dict, bytes, Dict[str, str]]:
        request_line = await reader.readline()
        if not request_line.strip():
            raise ValueError("empty request")
        try:
            method, target, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise HttpError(400, "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        parsed = urllib.parse.urlsplit(target)
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parsed.query).items()
        }
        return method.upper(), parsed.path, query, body, headers

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       body: dict, reason: str = "",
                       extra_headers: Optional[Dict[str, str]] = None) -> None:
        payload = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        reason = reason or {200: "OK", 202: "Accepted", 400: "Bad Request",
                            404: "Not Found", 405: "Method Not Allowed",
                            408: "Request Timeout", 413: "Payload Too Large",
                            429: "Too Many Requests",
                            500: "Internal Server Error",
                            503: "Service Unavailable"}.get(status, "")
        extras = "".join(
            f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
        )
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extras}"
            f"Connection: close\r\n\r\n".encode("latin-1") + payload
        )
        await writer.drain()

    async def _route(self, writer, method: str, path: str, query: dict,
                     body: bytes, headers: Optional[Dict[str, str]] = None
                     ) -> None:
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {
                "status": "draining" if self._draining else "ok",
                "uptime_seconds": round(time.time() - self.metrics.started_at, 3),
                "workers": self.config.workers,
                "inflight": len(self._inflight),
            })
            return
        if path == "/metrics" and method == "GET":
            # The scrape doubles as a periodic tick: expired quarantine
            # entries are swept and the brownout hold timers advance (via
            # the admission snapshot), so recovery never waits for traffic.
            self._sweep_quarantine()
            snapshot = self.metrics.snapshot(
                admission=self.admission.snapshot(),
                quarantine_size=len(self._quarantine),
            )
            snapshot["cache"]["corrupt_records"] = (
                corrupt_record_count(self.config.cache_dir)
                if self.config.cache_dir else 0
            )
            await self._respond(writer, 200, snapshot)
            return
        if path == "/jobs" and method == "POST":
            await self._handle_submit(writer, query, body, headers or {})
            return
        if path == "/jobs" and method == "GET":
            brief = [
                {"id": job.id, "state": job.state.value, "digest": job.digest,
                 "deduplicated": job.deduplicated}
                for job in self.jobs.values()
            ]
            await self._respond(writer, 200, {"count": len(brief), "jobs": brief})
            return
        if path == "/shutdown" and method == "POST":
            inflight = len(self._inflight)
            await self._respond(writer, 202, {"status": "draining", "inflight": inflight})
            asyncio.ensure_future(self.shutdown())
            return
        if path.startswith("/jobs/"):
            parts = path[len("/jobs/"):].split("/")
            job = self.jobs.get(parts[0])
            if job is None:
                raise HttpError(404, f"no such job: {parts[0]}")
            if len(parts) == 1 and method == "GET":
                await self._handle_status(writer, job, query)
                return
            if len(parts) == 2 and parts[1] == "events" and method == "GET":
                await self._handle_events(writer, job)
                return
        raise HttpError(404 if method in ("GET", "POST") else 405,
                        f"no route for {method} {path}")

    # Admission rejection -> typed ``error_detail`` for client branching.
    _ADMISSION_ERROR_TYPES = {
        THROTTLE: "ClientThrottled",
        SHED: "AdmissionShed",
        CACHE_ONLY: "BrownoutCacheOnly",
    }
    _ADMISSION_ERROR_MESSAGES = {
        THROTTLE: "per-client cost quota exhausted; retry after the bucket refills",
        SHED: "admission queue is past its cost watermark; expensive work is "
              "being shed",
        CACHE_ONLY: "server is in cache-only brownout; only cached, cheap or "
                    "deduplicated work is admitted",
    }

    def _spec_cached(self, spec: JobSpec) -> bool:
        """True when the spec's decomposition is already in the disk store
        (a submission that collapses to a record load, priced accordingly)."""
        if not self.config.cache_dir:
            return False
        if self._admission_cache is None:
            self._admission_cache = DecompositionCache(self.config.cache_dir)
        try:
            return self._admission_cache.load_index(spec.job_key()) is not None
        except Exception:
            return False

    def _admit(self, spec: JobSpec, headers: Dict[str, str]
               ) -> Tuple[JobSpec, Optional[Decision], bool]:
        """Run one submission through admission control.

        Returns the (possibly brownout-degraded) spec, the admission
        decision to settle at job completion, and whether optional work was
        stripped.  Raises a structured 429 :class:`HttpError` (with
        ``Retry-After``) when the submission is refused.
        """
        admission = self.admission
        if not admission.config.enabled:
            return spec, None, False
        client = _client_id(headers, spec)
        # Degrade before digesting: stripping ``verify`` changes the digest,
        # which is exactly what lets a degraded submission dedup against
        # (and be served by) the cheaper computation.
        degraded = False
        if spec.verify and admission.brownout_state() != "normal":
            spec = dataclasses.replace(spec, verify=False)
            degraded = True
        dedup = spec.digest() in self._inflight
        cached = False if dedup else self._spec_cached(spec)
        cost = estimate_cost(
            spec.circuit, spec.width, kind=spec.kind, verify=spec.verify,
            delay_ms=spec.delay_ms, cached=cached,
        )
        decision = admission.decide(client, cost, cached=cached, dedup=dedup)
        tag = f"{client}:{spec.circuit}-{spec.width}"
        if decision.action != ADMIT:
            faults.hit("admission.shed", tag=tag)
            retry_after = max(1, math.ceil(decision.retry_after))
            kind = self._ADMISSION_ERROR_TYPES[decision.action]
            raise HttpError(
                429, self._ADMISSION_ERROR_MESSAGES[decision.action],
                {
                    "type": kind,
                    "message": self._ADMISSION_ERROR_MESSAGES[decision.action],
                    "client": client,
                    "estimated_cost": round(decision.cost, 3),
                    "retry_after_seconds": retry_after,
                    "brownout": decision.brownout,
                },
                headers={"Retry-After": str(retry_after)},
            )
        # The fault site fires *before* the queue books are touched, so an
        # injected crash here can never leak admitted cost.
        faults.hit("admission.admit", tag=tag)
        admission.register(decision)
        if degraded:
            admission.degraded_jobs += 1
        return spec, decision, degraded

    async def _handle_submit(self, writer, query: dict, body: bytes,
                             headers: Dict[str, str]) -> None:
        if self._draining:
            raise HttpError(503, "server is draining; not accepting jobs")
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.metrics.jobs_rejected += 1
            raise HttpError(400, "bad json", {"message": f"request body is not valid JSON: {exc}"})
        try:
            spec = parse_job_spec(data)
        except SpecError as exc:
            self.metrics.jobs_rejected += 1
            raise HttpError(400, "bad spec", exc.detail)
        spec, decision, degraded = self._admit(spec, headers)
        job = Job(id=new_job_id(), spec=spec, digest=spec.digest(),
                  degraded=degraded)
        self.submit(job, decision)
        if _truthy(query.get("wait")):
            await self._await_job(job, query)
            await self._respond(writer, 200, job.status())
            return
        status = job.status()
        status["status_url"] = f"/jobs/{job.id}"
        await self._respond(writer, 202, status)

    async def _await_job(self, job: Job, query: dict) -> bool:
        """Wait until ``job`` is terminal; returns False on timeout."""
        timeout = min(MAX_WAIT_SECONDS, _float_param(query, "timeout", 60.0))
        event = self._events.get(job.id)
        if event is None or job.state in (JobState.DONE, JobState.FAILED):
            return True
        try:
            await asyncio.wait_for(event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def _handle_status(self, writer, job: Job, query: dict) -> None:
        timed_out = False
        if _truthy(query.get("wait")):
            timed_out = not await self._await_job(job, query)
        status = job.status()
        if timed_out:
            status["timed_out"] = True
        await self._respond(writer, 200, status)

    async def _handle_events(self, writer, job: Job) -> None:
        """NDJSON status stream: one snapshot now, one when terminal."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        writer.write((json.dumps(job.status(), sort_keys=True) + "\n").encode("utf-8"))
        await writer.drain()
        if job.state not in (JobState.DONE, JobState.FAILED):
            event = self._events.get(job.id)
            if event is not None:
                try:
                    await asyncio.wait_for(event.wait(), MAX_WAIT_SECONDS)
                except asyncio.TimeoutError:
                    pass
            writer.write(
                (json.dumps(job.status(), sort_keys=True) + "\n").encode("utf-8")
            )
            await writer.drain()


#: Characters kept from an ``X-Repro-Client`` header value.  The header is
#: sanitised rather than rejected (it is advisory identity, not a spec
#: field) so a stray quote or space cannot 400 an otherwise valid job —
#: but only this charset survives, bounding metric-key cardinality.
_CLIENT_SANITIZE_RE = re.compile(r"[^A-Za-z0-9._-]+")

#: Admission identity for requests that declare none.
DEFAULT_CLIENT = "default"


def _client_id(headers: Dict[str, str], spec: JobSpec) -> str:
    """Admission identity: ``X-Repro-Client`` header, else the spec's
    ``client`` field, else :data:`DEFAULT_CLIENT`."""
    raw = headers.get("x-repro-client", "") or spec.client or ""
    cleaned = _CLIENT_SANITIZE_RE.sub("", raw)[:MAX_CLIENT_LEN]
    return cleaned or DEFAULT_CLIENT


def _truthy(value: Optional[str]) -> bool:
    return value is not None and value.lower() not in ("", "0", "false", "no")


def _float_param(query: dict, name: str, default: float) -> float:
    try:
        return float(query.get(name, default))
    except (TypeError, ValueError):
        return default


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
async def run_service(config: ServiceConfig, ready=None) -> None:
    """Start a service and block until it is shut down.

    ``ready(service)`` is invoked once the listener is bound (the CLI uses
    it to print/record the actual port; tests use it to capture the
    service object).
    """
    service = DecompositionService(config)
    await service.start()
    if ready is not None:
        ready(service)
    await service.wait_stopped()


class ServiceThread:
    """An in-process service on a daemon thread (tests, load generator).

    The thread runs its own event loop; ``stop()`` triggers the same
    graceful shutdown as ``POST /shutdown`` and joins the thread.
    """

    def __init__(self, **config_kwargs) -> None:
        config_kwargs.setdefault("port", 0)
        self.config = ServiceConfig(**config_kwargs)
        self.service: Optional[DecompositionService] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("service thread did not start within 60 s")
        if self._error is not None:
            raise RuntimeError(f"service thread failed to start: {self._error}")

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # startup failures surface in __init__
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.service = DecompositionService(self.config)
        await self.service.start()
        self.port = self.service.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.service.wait_stopped()

    def stop(self, timeout: float = 60.0) -> None:
        if self._thread.is_alive() and self._loop is not None:
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.service.shutdown())
            )
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
