"""``warm_replay`` and ``mixed_churn``: open-loop traffic against the HTTP
job server.

Arrivals are scheduled before the run from the seed: per phase a fixed
number of requests at seeded uniform times (a Poisson process conditioned
on its count, so every run offers the same load).  The generator posts each
request when it is due (``202``) and never waits for an earlier job; one
long-poll connection collects completions from ``GET /jobs/<id>``.
Latency runs from a request's due time to the server's ``finished_at``.
The generator is one asyncio thread with at most ``nproc`` connections
open: ``nproc - 1`` for submissions and one for collection.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import subprocess
import sys
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import catalogue
import stats
from cold import tree_mb, vm_hwm_mb
from env import WORK

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    #: The two fixed arrival rates (requests per second).
    low_rps: float
    high_rps: float
    #: The ladder's first rate, as a multiple of ``high_rps``.
    ladder_start: float
    #: A rate meets its limit when its tail latency stays under this.
    limit_ms: float
    #: Share of arrivals replaced by a fresh cold spec.
    churn_share: float = 0.0
    #: Every ``herd_every`` seconds, ``herd_size`` identical cold specs
    #: arrive at once (0: no herds).
    herd_every: float = 0.0
    herd_size: int = 0


#: The rates, shares and herds below are the benchmark's operating points,
#: chosen while sizing it on a 2-core machine.  No request log exists to
#: take them from; they are assumptions, not observed traffic.
WARM_REPLAY = Workload("warm_replay", low_rps=10.0, high_rps=18.0, ladder_start=2.0,
                       limit_ms=500.0)
MIXED_CHURN = Workload("mixed_churn", low_rps=5.0, high_rps=8.0, ladder_start=3.0,
                       limit_ms=1500.0, churn_share=0.05, herd_every=3.0, herd_size=4)

#: Each ladder rung offers ``LADDER_STEP`` times the rate of the one
#: before; there are at most ``LADDER_RUNGS``.  The ladder stops at the
#: first rung that misses its limit, so it runs until it finds one unless
#: the server outgrows the top rung (then the result says so).
LADDER_STEP = 1.2
LADDER_RUNGS = 7
#: A rate meets its limit only if at most this share of its requests fail,
MAX_ERROR_SHARE = 0.01
#: and only if its backlog does not grow: by its last arrival the server
#: has finished at least this share of the requests per second it was sent.
MIN_SERVED_SHARE = 0.85

#: Shares of ``--seconds`` for the low and high phases and each ladder
#: rung.  The fixed rates keep the two workers lightly loaded, so the
#: median request seldom queues.
LOW_SHARE = 0.46
HIGH_SHARE = 0.34
RUNG_SHARE = 0.05
#: Simulated users; each request carries one id from this seeded pool.
CLIENTS = 32
#: A phase whose generator ran later than this at p99 is marked invalid.
LAG_BOUND_MS = 50.0
#: Seconds a phase may take to drain after its last arrival.
DRAIN_SECONDS = 60.0


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
@dataclass
class Phase:
    name: str
    rate: float
    seconds: float
    #: (offset seconds, spec, client id, phase name)
    arrivals: List[tuple]


#: The phases at the two fixed rates; they run interleaved.
FIXED_PHASES = ("low", "high")
#: The low and high phases run as this many alternating slices each, so
#: both sample the machine over the whole run instead of one stretch of it.
SLICES = 4


def interleave(low: Phase, high: Phase) -> Phase:
    """One timeline of alternating low and high slices (low first)."""
    arrivals, cursor = [], 0.0
    for index in range(SLICES):
        for phase in (low, high):
            width = phase.seconds / SLICES
            begin = index * width
            arrivals += [(cursor + offset - begin, *rest) for offset, *rest in phase.arrivals
                         if begin <= offset < begin + width
                         or (index == SLICES - 1 and offset >= begin + width)]
            cursor += width
    arrivals.sort(key=lambda arrival: arrival[0])
    return Phase("fixed", 0.0, cursor, arrivals)


def schedule(workload: Workload, table: dict, seed: int, seconds: float) -> List[Phase]:
    """Every phase's arrivals, from the seed alone."""
    rng = random.Random(f"{workload.name}-{seed}")
    warm = catalogue.warm_keys(table)
    cold = catalogue.churn_stream(table, rng)
    herd_key = {key["name"]: key for key in catalogue.drawable(table)}[catalogue.HERD_KEY]
    herds = 0
    clients = [f"user-{i:02d}" for i in range(CLIENTS)]
    plan = [("low", workload.low_rps, LOW_SHARE * seconds),
            ("high", workload.high_rps, HIGH_SHARE * seconds)]
    plan += [(f"ladder-{rung}", workload.high_rps * workload.ladder_start * LADDER_STEP ** rung,
              RUNG_SHARE * seconds) for rung in range(LADDER_RUNGS)]
    phases = []
    for name, rate, length in plan:
        n = round(rate * length)
        n_cold = round(workload.churn_share * n)
        specs = (catalogue.zipf_requests(warm, n - n_cold, rng)
                 + [next(cold) for _ in range(n_cold)])
        rng.shuffle(specs)
        arrivals = [(rng.uniform(0, length), spec, rng.choice(clients), name)
                    for spec in specs]
        if workload.herd_size:
            at = workload.herd_every / 2
            while at < length:
                spec = catalogue.request(
                    herd_key, max_iterations=catalogue.HERD_MAX_ITERATIONS - herds)
                herds += 1
                arrivals += [(at, spec, rng.choice(clients), name)
                             for _ in range(workload.herd_size)]
                at += workload.herd_every
        arrivals.sort(key=lambda arrival: arrival[0])
        phases.append(Phase(name, rate, length, arrivals))
    return phases


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _descendants(pid: int) -> List[int]:
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items() if ppid == parent]
        found += children
        frontier += children
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (not gone, not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


class Server:
    """One ``python -m repro.service`` process (optionally with spans)."""

    def __init__(self, store: Path, workers: int, span_dir: Optional[Path]) -> None:
        self.store = store
        self.workers = workers
        self.span_dir = span_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> float:
        """Launch; returns seconds from launch to the first 200 from /healthz."""
        port_file = WORK / "port"
        port_file.unlink(missing_ok=True)
        args = ["--host", "127.0.0.1", "--port", "0", "--port-file", str(port_file),
                "--cache-dir", str(self.store), "--workers", str(self.workers)]
        if self.span_dir is not None:
            cmd = [sys.executable, str(HERE / "serve.py"), str(self.span_dir), *args]
        else:
            cmd = [sys.executable, "-m", "repro.service", *args]
        start = time.perf_counter()
        with open(WORK / "server.log", "ab") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        deadline = start + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}; "
                                   f"see {WORK / 'server.log'}")
            if self.port is None and port_file.is_file():
                self.port = int(port_file.read_text())
            if self.port is not None and self._healthy():
                return time.perf_counter() - start
            time.sleep(0.002)
        self.kill()
        raise RuntimeError("server did not become healthy within 60 s")

    def _healthy(self) -> bool:
        try:
            status, _ = request_sync(self.port, "GET", "/healthz")
        except OSError:
            return False
        return status == 200

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of one process: the server or a worker."""
        pids = [self.proc.pid, *_descendants(self.proc.pid)]
        return max(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Shut the server down and wait until it and its workers are gone."""
        if self.proc is None:
            return
        workers = _descendants(self.proc.pid)
        try:
            request_sync(self.port, "POST", "/shutdown")
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        deadline = time.perf_counter() + 30.0
        while any(_running(pid) for pid in workers):
            if time.perf_counter() > deadline:
                for pid in workers:
                    try:
                        os.kill(pid, 9)
                    except OSError:
                        pass
            time.sleep(0.01)
        self.proc = None
        self.port = None

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            for pid in _descendants(self.proc.pid):
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
            self.proc.kill()
            self.proc.wait()


def request_sync(port: int, method: str, path: str, body: Optional[dict] = None
                 ) -> Tuple[int, Optional[dict]]:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"} if payload else {})
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Pre-fill (untimed)
# ----------------------------------------------------------------------
#: What a pre-fill process runs: its share of the warm keys, read as JSON
#: from its stdin.
PREFILL_CODE = (
    "import json, sys; sys.path.insert(0, {here!r}); import loadgen; "
    "loadgen.prefill_keys(json.load(sys.stdin), {store!r})"
)


def prefill_keys(keys: List[dict], store: str) -> None:
    from repro.service.jobs import execute_job, parse_job_spec

    for key in keys:
        execute_job(parse_job_spec(catalogue.request(key)).payload(), store)
        for objective in catalogue.OBJECTIVES:
            spec = catalogue.request(key, kind="synthesize", objective=objective)
            execute_job(parse_job_spec(spec).payload(), store)


def prefill(table: dict, store: Path, processes: int) -> None:
    """Store every warm key's decomposition and synthesis results, in
    ``processes`` fresh interpreters so their memory is returned before
    timing starts.  The keys are dealt out widest first."""
    keys = sorted(catalogue.warm_keys(table), key=lambda k: (k["circuit"] != "comparator",
                                                             -k["width"]))
    code = PREFILL_CODE.format(here=str(HERE), store=str(store))
    procs = []
    try:
        for index in range(processes):
            proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE)
            procs.append(proc)
            proc.stdin.write(json.dumps(keys[index::processes]).encode())
            proc.stdin.close()
        for proc in procs:
            if proc.wait() != 0:
                raise RuntimeError(f"a pre-fill process exited with {proc.returncode}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
class Generator:
    def __init__(self, port: int, connections: int) -> None:
        self.port = port
        self.submit_slots = asyncio.Semaphore(max(1, connections - 1))
        self.pending: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        self.metric_samples: List[dict] = []

    async def http(self, method: str, path: str, body: Optional[dict] = None,
                   headers: Optional[Dict[str, str]] = None) -> Tuple[int, dict]:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            payload = json.dumps(body).encode() if body is not None else b""
            head = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1",
                    f"Content-Length: {len(payload)}", "Connection: close"]
            head += [f"{name}: {value}" for name, value in (headers or {}).items()]
            if payload:
                head.append("Content-Type: application/json")
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload)
            await writer.drain()
            # Read by Content-Length, not to EOF: a pool worker forked while
            # this connection was open holds a copy of the server's socket,
            # so the server closing its end does not end the stream.
            head_bytes = await reader.readuntil(b"\r\n\r\n")
            lines = head_bytes.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            body_bytes = await reader.readexactly(length)
        finally:
            writer.close()
        return status, json.loads(body_bytes) if body_bytes else {}

    async def submit(self, record: dict) -> None:
        async with self.submit_slots:
            record["sent"] = time.time()
            start = time.perf_counter()
            try:
                status, body = await self.http("POST", "/jobs", record["spec"],
                                               {"X-Repro-Client": record["client"]})
            except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as exc:
                status, body = 0, {"error": f"transport: {exc}"}
            record["post_s"] = time.perf_counter() - start
        record["http_status"] = status
        if status == 202:
            record["job_id"] = body["id"]
            await self.pending.put(record)
        else:
            record["error"] = body.get("error") or body.get("detail") or f"HTTP {status}"
            record["done"].set()

    async def collect(self) -> None:
        """Long-poll each job in submission order until it is terminal."""
        while True:
            record = await self.pending.get()
            if record is None:
                return
            query = urllib.parse.urlencode({"wait": 1, "timeout": DRAIN_SECONDS})
            try:
                status, body = await self.http("GET", f"/jobs/{record['job_id']}?{query}")
            except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as exc:
                status, body = 0, {"error": f"transport: {exc}"}
            if status == 200 and body.get("state") in ("done", "failed"):
                record["status"] = body
            else:
                record["error"] = body.get("error", f"collection: HTTP {status}, "
                                                    f"state {body.get('state')}")
            record["done"].set()

    async def sample(self, stop: asyncio.Event) -> None:
        while not stop.is_set():
            async with self.submit_slots:
                try:
                    status, body = await self.http("GET", "/metrics")
                except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
                    status, body = 0, {}
            if status == 200:
                self.metric_samples.append(body)
            try:
                await asyncio.wait_for(stop.wait(), 0.25)
            except asyncio.TimeoutError:
                pass

    async def warm_up(self, table: dict, workers: int) -> List[str]:
        """Untimed: request every warm key once per worker, at once and
        with ``verify``, so every worker exists, has loaded every record and
        has verified it (its memory peak) before the first timed request.  The copies differ in
        kind so that dedup does not merge them.  Returns the trace ids of
        these jobs (traced runs), which the layer totals skip."""
        traces = []
        for key in catalogue.warm_keys(table):
            variants = [catalogue.request(key, verify=True)] + [
                catalogue.request(key, kind="synthesize", verify=True, objective=objective)
                for objective in catalogue.OBJECTIVES]
            replies = await asyncio.gather(*(
                self.http("POST", "/jobs?wait=1", spec) for spec in variants[:workers]))
            for status, body in replies:
                if status != 200 or body.get("state") != "done":
                    raise RuntimeError(f"warm-up request failed: HTTP {status} {body}")
                traces.append(body["result"].get("trace_id"))
        return traces

    async def run_phase(self, phase: Phase) -> dict:
        """Send every arrival when due; returns the records once all are
        collected (or the drain limit passes)."""
        loop = asyncio.get_running_loop()
        records, tasks = [], []
        t0, wall0 = loop.time(), time.time()
        for offset, spec, client, name in phase.arrivals:
            delay = t0 + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            record = {"phase": name, "due": wall0 + offset, "spec": spec, "client": client,
                      "lag": max(0.0, loop.time() - (t0 + offset)), "done": asyncio.Event()}
            records.append(record)
            tasks.append(asyncio.create_task(self.submit(record)))
        await asyncio.gather(*tasks)
        try:
            await asyncio.wait_for(
                asyncio.gather(*(record["done"].wait() for record in records)),
                DRAIN_SECONDS)
        except asyncio.TimeoutError:
            pass
        for record in records:
            if not record["done"].is_set():
                record.setdefault("error", "not finished within the drain limit")
            del record["done"]
        return {"start": wall0, "records": records}


async def _drive(port: int, phases: List[Phase], workload: Workload, workers: int,
                 sample_metrics: bool, table: dict, between: Callable[[], List[float]]
                 ) -> dict:
    """Warm up, run the fixed phases, call ``between`` in a thread (the
    server is idle then), and climb the ladder."""
    gen = Generator(port, connections=workers)
    warm_up_traces = await gen.warm_up(table, workers)
    collector = asyncio.create_task(gen.collect())
    stop = asyncio.Event()
    sampler = asyncio.create_task(gen.sample(stop)) if sample_metrics else None
    done = []
    try:
        low, high, *ladder = phases
        ran = await gen.run_phase(interleave(low, high))
        for phase in (low, high):
            records = [r for r in ran["records"] if r["phase"] == phase.name]
            done.append(analyse_phase(phase, ran["start"], records, workload, table))
        setup_between = await asyncio.to_thread(between)
        for phase in ladder:
            ran = await gen.run_phase(phase)
            result = analyse_phase(phase, ran["start"], ran["records"], workload, table)
            done.append(result)
            if not (result["meets_limit"] and result["valid"]):
                break
    finally:
        await gen.pending.put(None)
        await collector
        stop.set()
        if sampler is not None:
            await sampler
    return {"phases": done, "metric_samples": gen.metric_samples,
            "warm_up_traces": warm_up_traces, "setup_between": setup_between}


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def analyse_phase(phase: Phase, start: float, records: List[dict], workload: Workload,
                  table: dict) -> dict:
    """Check every response of one phase and summarise it.

    A request fails when it gets no answer, a non-2xx answer, a failed or
    timed-out job, a wrong result, or a degraded one (a brownout stripped
    the ``verify`` it asked for).  Every failure is wrong (``problems``,
    which make the run incorrect) except a ``429`` shed and a degraded
    answer: those are the server's admission policy at work.  Failures
    rank as the slowest requests in the summary.
    """
    latencies, failures, problems = [], 0, []
    last_finish = start
    for record in records:
        status = record.get("status")
        error = record.get("error")
        if status is not None and status["state"] == "failed":
            error = status.get("error", "job failed")
        policy = record.get("http_status") == 429
        if error is None:
            executed = status["spec"]
            mismatch = catalogue.check_result(table, executed, status.get("result"))
            if mismatch:
                error = "wrong result: " + "; ".join(mismatch)
            elif record["spec"].get("verify") and not executed.get("verify"):
                error, policy = "degraded: the server skipped verify", True
        if error is not None:
            failures += 1
            record["error"] = error
            if not policy:
                problems.append(f"{catalogue.spec_key_name(record['spec'])}: {error}")
            continue
        record["latency"] = status["finished_at"] - record["due"]
        latencies.append(record["latency"])
        last_finish = max(last_finish, status["finished_at"])
    attempted = len(records)
    summary = stats.summary(latencies, failures)
    last_due = max((record["due"] for record in records), default=start)
    drain = last_finish - last_due
    sent_rps = sustained_rate(phase, records)
    served_rps = sent_rps
    if phase.name not in FIXED_PHASES:
        # A rung runs in one stretch: what the server finished by its last
        # arrival, per second, shows whether it kept up.
        in_window = sum(1 for record in records if "latency" in record
                        and record["status"]["finished_at"] <= last_due)
        served_rps = in_window / max(1e-9, last_due - start)
    lag_p99_ms = 1000.0 * stats.percentile([record["lag"] for record in records], 0.99)
    return {
        "name": phase.name,
        "rate": phase.rate,
        "seconds": phase.seconds,
        "records": records,
        "attempted": attempted,
        "failed": failures,
        "problems": problems,
        "errors": sorted({str(record["error"])[:200] for record in records
                          if "error" in record})[:5],
        "summary": summary,
        "lag_p99_ms": lag_p99_ms,
        "valid": lag_p99_ms <= LAG_BOUND_MS,
        "drain_s": drain,
        "throughput_rps": sent_rps,
        "served_rps": served_rps,
        "meets_limit": (attempted > 0
                        and summary["tail_ms"] < workload.limit_ms
                        and failures <= MAX_ERROR_SHARE * attempted
                        and 1000.0 * drain < workload.limit_ms
                        and served_rps >= MIN_SERVED_SHARE * sent_rps),
    }


def sustained_rate(phase: Phase, records: List[dict]) -> float:
    """Requests per second the generator sent in the phase.

    A ladder rung runs in one stretch, so its rate is measured from the
    first and last send times.  The low and high phases run in slices;
    their rate is the requests sent over the phase's scheduled seconds.
    """
    sent = sorted(record["sent"] for record in records if "sent" in record)
    if phase.name in FIXED_PHASES or len(sent) < 2:
        return len(sent) / phase.seconds
    return (len(sent) - 1) / max(1e-9, sent[-1] - sent[0])


def launch_and_stop(store: Path, workers: int, times: int) -> List[float]:
    """Set-up probes: start a server, time it to healthy, stop it."""
    samples = []
    for _ in range(times):
        server = Server(store, workers, None)
        try:
            samples.append(server.start())
        finally:
            server.stop()
    return samples


def run(workload: Workload, table: dict, seed: int, seconds: float, trace: bool,
        setups: int, workers: int) -> dict:
    """Pre-fill, then the run.  ``setups`` timed launches are spread over
    three points: before the traffic (the last of them serves it), between
    the fixed phases and the ladder, and after the run."""
    store = WORK / f"{workload.name}-store"
    span_dir = WORK / "spans" if trace else None
    shutil.rmtree(store, ignore_errors=True)
    if span_dir is not None:
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
    phases = schedule(workload, table, seed, seconds)
    prefill(table, store, workers)
    prefill_mb = tree_mb(store)
    later = setups // 3
    setup = launch_and_stop(store, workers, setups - 2 * later - 1)
    server = Server(store, workers, span_dir)
    try:
        setup.append(server.start())
        driven = asyncio.run(_drive(server.port, phases, workload, workers,
                                    sample_metrics=trace, table=table,
                                    between=lambda: launch_and_stop(store, workers, later)))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    store_mb = tree_mb(store) - prefill_mb
    setup += driven.pop("setup_between") + launch_and_stop(store, workers, later)
    driven.update(setup=setup, peak_rss_mb=rss, store_mb=store_mb, span_dir=span_dir)
    return driven
