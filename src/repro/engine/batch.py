"""Batch orchestrator: run many specifications through pipelines concurrently.

The evaluation harness, the benchmark sweeps and the online scanner all face
the same workload shape — dozens of independent ``(specification, pipeline
config)`` decomposition jobs — so this module gives them one engine-level
front door:

* :func:`decompose_cached` — decompose one spec, consulting an optional
  on-disk :class:`~repro.engine.cache.DecompositionCache` first;
* :func:`run_job` / :func:`job_fingerprint` — the job API surface: one
  builder-described job run end to end through both cache layers, returning
  a structured :class:`JobOutcome`.  This is the worker body shared by the
  orchestrator below and the HTTP front-end (``repro.service``);
* :class:`BatchOrchestrator` — fan a list of :class:`BatchJob` out over a
  ``multiprocessing`` pool, with every worker sharing the same cache
  directory (writes are atomic, no locking needed);
* :func:`map_parallel` — a generic fan-out helper for non-decomposition work
  (used by the online scanner's width sweeps).

Jobs carry a *spec builder* (an importable callable plus arguments) rather
than built expressions: ``Anf``/``Context`` objects are cheap to rebuild and
expensive to ship between processes.  Results come back as the cache's JSON
records and are rebuilt into full :class:`Decomposition` objects in the
parent, so a batch result is indistinguishable from an in-process run
(modulo context identity).
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

# Intra-decomposition pass sharding (REPRO_SHARD_PASSES) lives in
# ``repro.parallel`` — a layer below ``repro.core`` so the core procedures
# can use it without a core -> engine cycle; re-exported here because the
# orchestrator is the engine's parallelism front door.
from ..parallel import (  # noqa: F401  (re-exports)
    SHARD_ENV,
    in_pool_worker,
    mark_pool_worker,
    pool_context,
    shard_chunks,
    shard_map,
    shard_workers,
)
from ..anf.canonical import canonical_spec_digest
from ..anf.expression import Anf
from ..core.decompose import Decomposition, DecompositionOptions
from .cache import (
    ENGINE_CACHE_EPOCH,
    SCHEMA,
    DecompositionCache,
    cache_key,
    deserialize_decomposition,
    serialize_decomposition,
)
from .cost import estimate_batch_job
from .pipeline import Pipeline


# ----------------------------------------------------------------------
# Single-spec entry point (also the per-worker core)
# ----------------------------------------------------------------------
def decompose_cached(
    outputs: Mapping[str, Anf],
    options: DecompositionOptions | None = None,
    input_words: Sequence[Sequence[str]] | None = None,
    cache: DecompositionCache | None = None,
    pipeline: Pipeline | None = None,
) -> Tuple[Decomposition, bool]:
    """Decompose ``outputs``; returns ``(decomposition, cache_hit)``.

    With a ``cache``, the canonical spec digest plus the pipeline's config
    key is looked up first and the result is persisted after a miss.
    """
    pipeline = pipeline or Pipeline.from_options(options)
    if cache is None:
        return pipeline.run(outputs, input_words=input_words, options=options), False
    digest = canonical_spec_digest(outputs, input_words)
    key = cache_key(digest, pipeline.config_key())
    cached = cache.load(key)
    if cached is not None:
        return cached, True
    decomposition = pipeline.run(outputs, input_words=input_words, options=options)
    cache.store(key, decomposition)
    return decomposition, False


# ----------------------------------------------------------------------
# Batch jobs
# ----------------------------------------------------------------------
@dataclass
class BatchJob:
    """One decomposition job: a spec builder plus a pipeline configuration.

    ``builder(*args, **kwargs)`` must return either a mapping of output
    expressions or a spec bundle exposing ``outputs`` (and optionally
    ``input_words``), as every ``repro.benchcircuits`` builder does.  The
    builder must be picklable (any module-level function is).
    """

    name: str
    builder: Callable[..., object]
    args: tuple = ()
    kwargs: Dict[str, object] = field(default_factory=dict)
    options: Optional[DecompositionOptions] = None


@dataclass
class BatchResult:
    """One finished job: the decomposition plus orchestration metadata."""

    name: str
    decomposition: Decomposition
    seconds: float
    cache_hit: bool


def _spec_parts(spec: object) -> Tuple[Mapping[str, Anf], Optional[List[List[str]]]]:
    """Outputs and input words of whatever a spec builder returned."""
    if isinstance(spec, Mapping):
        return spec, None
    outputs = getattr(spec, "outputs", None)
    if outputs is None:
        raise TypeError(
            f"spec builder returned {type(spec).__name__}, which has no 'outputs'"
        )
    return outputs, getattr(spec, "input_words", None)


def job_fingerprint(builder: Callable, args: tuple, kwargs: Mapping[str, object],
                    config_key: str) -> str:
    """Stable fingerprint of a job's (builder identity, arguments, config).

    This is the *job-level* key: it identifies "run this builder with these
    arguments under this pipeline configuration" without building the spec.
    The content-addressed :func:`~repro.engine.cache.cache_key` stays the
    source of truth below it.  Public because the service front-end
    (``repro.service``) deduplicates in-flight submissions by exactly this
    fingerprint.
    """
    rendered = "|".join((
        SCHEMA,
        ENGINE_CACHE_EPOCH,
        f"{getattr(builder, '__module__', '?')}:{getattr(builder, '__qualname__', repr(builder))}",
        repr(args),
        repr(sorted(kwargs.items())),
        config_key,
    ))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


@dataclass
class JobOutcome:
    """The result of one decomposition job run through :func:`run_job`.

    ``record`` is the cache's JSON-serialisable decomposition record
    (rebuild with :func:`~repro.engine.cache.deserialize_decomposition`);
    ``cache_hit`` says whether the decomposition was loaded rather than
    computed; ``content_key``/``job_key`` are the cache coordinates it was
    stored (or found) under, when a cache was in play.

    ``decomposition`` is the live :class:`Decomposition` the job just
    computed, or ``None`` on a cache hit.  It is the object ``record`` was
    serialised from, so a caller in the same process can use it instead of
    rebuilding it from the record; it is not shipped across processes.
    """

    record: dict
    seconds: float
    cache_hit: bool
    content_key: Optional[str] = None
    job_key: Optional[str] = None
    decomposition: Optional[Decomposition] = None


def run_job(
    builder: Callable[..., object],
    args: tuple = (),
    kwargs: Mapping[str, object] | None = None,
    options: DecompositionOptions | None = None,
    cache_dir: str | os.PathLike | None = None,
    use_job_index: bool = True,
) -> JobOutcome:
    """Run one decomposition job end to end; the engine's job API surface.

    This is the worker body shared by the batch orchestrator and the service
    front-end: with a cache, the job index is consulted first (a hit skips
    rebuilding and re-hashing the specification entirely and streams the
    stored record back); on an index miss the spec is built, content-keyed,
    decomposed (or loaded), and both cache layers are updated.
    """
    kwargs = dict(kwargs or {})
    cache = DecompositionCache(cache_dir) if cache_dir else None
    start = time.perf_counter()
    pipeline = Pipeline.from_options(options)
    job_key = None
    if cache is not None and use_job_index:
        job_key = job_fingerprint(builder, args, kwargs, pipeline.config_key())
        content_key = cache.load_index(job_key)
        if content_key is not None:
            record = cache.load_raw(content_key)
            if record is not None:
                return JobOutcome(record, time.perf_counter() - start, True,
                                  content_key, job_key)
    spec = builder(*args, **kwargs)
    outputs, input_words = _spec_parts(spec)
    if cache is None:
        decomposition = pipeline.run(outputs, input_words=input_words, options=options)
        return JobOutcome(serialize_decomposition(decomposition),
                          time.perf_counter() - start, False,
                          decomposition=decomposition)
    digest = canonical_spec_digest(outputs, input_words)
    content_key = cache_key(digest, pipeline.config_key())
    record = cache.load_raw(content_key)
    decomposition = None
    if record is None:
        decomposition = pipeline.run(outputs, input_words=input_words, options=options)
        record = cache.store(content_key, decomposition)
    if job_key is not None:
        cache.store_index(job_key, content_key)
    return JobOutcome(record, time.perf_counter() - start, decomposition is None,
                      content_key, job_key, decomposition)


def _execute_job(payload: tuple) -> Tuple[str, dict, float, bool]:
    """Pool-worker wrapper around :func:`run_job` (picklable payload tuple)."""
    name, builder, args, kwargs, options, cache_dir, use_job_index = payload
    outcome = run_job(builder, args, kwargs, options, cache_dir, use_job_index)
    return name, outcome.record, outcome.seconds, outcome.cache_hit


# ----------------------------------------------------------------------
# Generic parallel map
# ----------------------------------------------------------------------
def _pool_processes(requested: Optional[int], num_items: int) -> int:
    if requested is not None:
        return max(1, min(requested, num_items))
    return max(1, min(os.cpu_count() or 1, num_items))


def map_parallel(func: Callable, items: Sequence, processes: Optional[int] = None) -> list:
    """Apply a picklable function to every item, forking when it pays off.

    ``processes=1`` (or a single item) degrades to a plain in-process loop,
    which keeps the orchestrator usable in environments where forking is
    restricted (set ``processes=1`` there).

    The pool is a :class:`~concurrent.futures.ProcessPoolExecutor`, whose
    broken-pool detection is the supervision primitive: when any worker dies
    mid-batch (OOM kill, segfault, SIGKILL) every pending future raises
    :class:`BrokenProcessPool` instead of hanging.  The whole map then
    re-runs serially in-process with a ``RuntimeWarning`` — ``func`` is pure,
    so the rerun produces identical results.
    """
    items = list(items)
    if not items:
        return []
    if in_pool_worker():
        # A job body already running under a worker pool must not fork a
        # second level of workers.
        return [func(item) for item in items]
    workers = _pool_processes(processes, len(items))
    if workers == 1:
        return [func(item) for item in items]
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=pool_context(),
            initializer=mark_pool_worker,
        ) as pool:
            return list(pool.map(func, items, chunksize=1))
    except BrokenProcessPool:
        warnings.warn(
            "a batch worker died mid-run; re-running the batch serially "
            "in-process (results are unaffected)",
            RuntimeWarning,
            stacklevel=2,
        )
        return [func(item) for item in items]


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------
class BatchOrchestrator:
    """Run decomposition jobs concurrently against a shared on-disk cache.

    The cache is content-addressed (canonical spec digest + pipeline config);
    on top of it a job index keyed by the builder's qualified name and
    arguments lets warm re-runs skip spec construction and hashing entirely.
    Pass ``use_job_index=False`` to force content-only keying (e.g. while
    iterating on a spec builder's implementation).
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        processes: Optional[int] = None,
        use_job_index: bool = True,
    ) -> None:
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.processes = processes
        self.use_job_index = use_job_index
        if self.cache_dir is not None:
            # Create the directory up front so concurrent workers never race
            # on mkdir, and so a bad path fails in the parent.
            DecompositionCache(self.cache_dir)

    def run(self, jobs: Sequence[BatchJob]) -> Dict[str, BatchResult]:
        """Execute every job; returns ``{job name: BatchResult}``.

        Job names must be unique — they key the result dict.
        """
        jobs = list(jobs)
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError("batch job names must be unique")
        # Dispatch longest-first (LPT): the cost model prices each job
        # pre-execution so the pool never starts its heaviest job last and
        # idles N-1 workers behind one straggler.  The sort key is the
        # estimate, the tiebreaker is submission order (sorted() is stable).
        order = sorted(
            range(len(jobs)),
            key=lambda i: -estimate_batch_job(
                jobs[i].builder, jobs[i].args, jobs[i].kwargs
            ),
        )
        payloads = [
            (job.name, job.builder, job.args, dict(job.kwargs), job.options,
             self.cache_dir, self.use_job_index)
            for job in (jobs[i] for i in order)
        ]
        raw = map_parallel(_execute_job, payloads, processes=self.processes)
        by_name: Dict[str, BatchResult] = {}
        for name, record, seconds, hit in raw:
            by_name[name] = BatchResult(
                name=name,
                decomposition=deserialize_decomposition(record),
                seconds=seconds,
                cache_hit=hit,
            )
        # Callers iterate results in submission order; undo the LPT shuffle.
        return {name: by_name[name] for name in names}
