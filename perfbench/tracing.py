"""Spans around the public functions of each layer, for the traced run.

:func:`install` replaces module attributes with timing wrappers; nothing
under ``src/`` changes.  Each span records its name, its job, its parent,
its duration and its *self* time (duration minus the time its child spans
cover).  Spans stay in memory; :func:`dump` writes them out once, when the
run (or the worker process) ends.

The per-pass breakdown comes from the public
``repro.engine.profiling.collecting_pass_timings`` collector, recorded as
``core.pass.<name>`` children of ``core.decompose``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

PASS_PREFIX = "core.pass."


class Tracer:
    """Span recorder for one process (the engine is single-threaded per
    process, so one stack suffices)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: (job, name, parent name, duration s, self s, calls)
        self.spans: List[tuple] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[list] = []
        self._ids = itertools.count()
        self.job: Optional[str] = None

    def new_job(self) -> str:
        self.job = f"{self.pid}-{next(self._ids)}"
        return self.job

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((self.job, name, parent, duration, duration - child, 1))

    def add_child(self, name: str, seconds: float, calls: int) -> None:
        """A span measured elsewhere (pass timings), nested in the open one."""
        self._stack[-1][2] += seconds
        self.spans.append((self.job, name, self._stack[-1][0], seconds, seconds, calls))

    def payload(self) -> dict:
        return {"pid": self.pid, "spans": self.spans, "counters": self.counters}


_tracer: Optional[Tracer] = None
_span_dir: Optional[Path] = None
_main_pid: Optional[int] = None


def tracer() -> Tracer:
    """This process's tracer.  A forked worker starts its own and, when a
    span directory is set, writes it out as the worker exits."""
    global _tracer
    if _tracer is None or _tracer.pid != os.getpid():
        _tracer = Tracer()
        if _span_dir is not None and os.getpid() != _main_pid:
            from multiprocessing import util

            util.Finalize(None, dump, exitpriority=100)
    return _tracer


def dump() -> None:
    if _tracer is not None and _span_dir is not None and _tracer.spans:
        path = _span_dir / f"spans-{_tracer.pid}.json"
        with open(path, "w") as handle:
            json.dump(_tracer.payload(), handle)


def _wrap(func: Callable, name: str) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        t = tracer()
        t.enter(name)
        try:
            return func(*args, **kwargs)
        finally:
            t.exit()

    return wrapper


def _wrap_job(func: Callable) -> Callable:
    """Root span of one job; stamps the trace id into the result so the
    client can join its latency with the worker's spans."""

    @functools.wraps(func)
    def execute_job(payload, cache_dir):
        t = tracer()
        job = t.new_job()
        t.enter("service.execute_job")
        try:
            result = func(payload, cache_dir)
        finally:
            t.exit()
        result["trace_id"] = job
        return result

    return execute_job


def _wrap_run_job(func: Callable) -> Callable:
    @functools.wraps(func)
    def run_job(*args, **kwargs):
        t = tracer()
        t.enter("engine.run_job")
        try:
            outcome = func(*args, **kwargs)
        finally:
            t.exit()
        t.count("engine.cache.lookups")
        t.count("engine.cache.hits", int(outcome.cache_hit))
        return outcome

    return run_job


def _wrap_pipeline(func: Callable) -> Callable:
    from repro.engine.profiling import collecting_pass_timings

    @functools.wraps(func)
    def run(self, *args, **kwargs):
        t = tracer()
        t.enter("core.decompose")
        try:
            with collecting_pass_timings() as sink:
                result = func(self, *args, **kwargs)
            for name, entry in sink.items():
                t.add_child(PASS_PREFIX + name, entry["seconds"], int(entry["calls"]))
        finally:
            t.exit()
        return result

    return run


def _wrap_synth_load(func: Callable) -> Callable:
    @functools.wraps(func)
    def load(self, key):
        t = tracer()
        t.enter("synth.cache_load")
        try:
            record = func(self, key)
        finally:
            t.exit()
        t.count("synth.cache.lookups")
        t.count("synth.cache.hits", int(record is not None))
        return record

    return load


def install(span_dir: Optional[Path] = None) -> None:
    """Wrap every traced function; ``span_dir`` receives one file per
    process at exit (``None``: the caller collects :func:`tracer` itself)."""
    global _span_dir, _main_pid
    _span_dir = span_dir
    _main_pid = os.getpid()
    if span_dir is not None:
        import atexit

        atexit.register(dump)
    from repro.core.decompose import Decomposition
    from repro.engine import batch, cache, pipeline
    from repro.service import jobs, server

    jobs.CIRCUITS.update({name: _wrap(builder, "anf.build")
                          for name, builder in jobs.CIRCUITS.items()})
    batch.canonical_spec_digest = _wrap(batch.canonical_spec_digest, "anf.digest")
    pipeline.Pipeline.run = _wrap_pipeline(pipeline.Pipeline.run)
    Decomposition.verify = _wrap(Decomposition.verify, "core.verify")
    jobs.run_job = _wrap_run_job(jobs.run_job)
    store = cache.DecompositionCache
    store.load_index = _wrap(store.load_index, "engine.index_load")
    store.store_index = _wrap(store.store_index, "engine.index_store")
    store.load_raw = _wrap(store.load_raw, "engine.record_load")
    store.store = _wrap(store.store, "engine.record_store")
    cache.serialize_decomposition = _wrap(cache.serialize_decomposition, "engine.serialize")
    jobs.deserialize_decomposition = _wrap(jobs.deserialize_decomposition,
                                           "engine.deserialize")
    jobs.decomposition_digest = _wrap(jobs.decomposition_digest, "synth.cache_key")
    jobs.decomposition_to_netlist = _wrap(jobs.decomposition_to_netlist, "synth.structure")
    jobs.synthesize_netlist = _wrap(jobs.synthesize_netlist, "synth.map")
    cache.SynthesisCache.load = _wrap_synth_load(cache.SynthesisCache.load)
    cache.SynthesisCache.store = _wrap(cache.SynthesisCache.store, "synth.cache_store")
    # The server pickles the worker body by reference, so both names must
    # resolve to the same wrapper.
    jobs.execute_job = server.execute_job = _wrap_job(jobs.execute_job)


#: Enter/exit pairs timed by :func:`span_cost`.
SPAN_COST_SAMPLES = 20000


def span_cost() -> float:
    """Seconds one enter/exit pair costs on this machine."""
    t = Tracer()
    t.job = "calibration"
    start = time.perf_counter()
    for _ in range(SPAN_COST_SAMPLES):
        t.enter("x")
        t.exit()
    return (time.perf_counter() - start) / SPAN_COST_SAMPLES


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def load_dir(span_dir: Path) -> List[dict]:
    payloads = []
    for path in sorted(span_dir.glob("spans-*.json")):
        with open(path) as handle:
            payloads.append(json.load(handle))
    return payloads


def aggregate(payloads: List[dict]) -> dict:
    """``{name: {"s": self seconds, "calls": n}}`` plus summed counters."""
    totals: Dict[str, dict] = {}
    counters: Dict[str, int] = {}
    for payload in payloads:
        for _job, name, _parent, _duration, self_s, calls in payload["spans"]:
            entry = totals.setdefault(name, {"s": 0.0, "calls": 0})
            entry["s"] += self_s
            entry["calls"] += calls
        for name, value in payload["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": totals, "counters": counters}


def by_job(payloads: List[dict]) -> Dict[str, Dict[str, float]]:
    """``{trace id: {span name: self seconds}}``."""
    jobs: Dict[str, Dict[str, float]] = {}
    for payload in payloads:
        for job, name, _parent, _duration, self_s, _calls in payload["spans"]:
            spans = jobs.setdefault(job, {})
            spans[name] = spans.get(name, 0.0) + self_s
    return jobs


def span_count(payloads: List[dict]) -> int:
    return sum(len(payload["spans"]) for payload in payloads)
