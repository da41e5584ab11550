"""Chunked whole-slab kernel execution for the ``native`` backend.

Every whole-slab primitive spends its time in loops that release the GIL —
the compiled C primitives of :mod:`repro.anf.cnative`, or the numpy ufuncs
and sorts they fall back to per call.  This module exploits that: each
primitive is partitioned into independent chunks, the chunks run on a
shared ``ThreadPoolExecutor`` sized by ``REPRO_KERNEL_THREADS`` (``auto`` =
CPU count), and the partial results are recombined with *deterministic,
ordered* merges so the final slab is bit-identical to the serial kernel at
any thread count.

Determinism contract (what makes chunking invisible):

* **Row partitions are contiguous.**  A sorted slab is split into
  ``[lo, hi)`` row ranges, so chunk ``i``'s rows all sort below chunk
  ``i+1``'s and concatenating the partial outputs in chunk order *is* the
  sorted result — no re-sort, no tie-breaking.
* **Value partitions respect equal rows.**  ``xor_merge`` splits both
  operands at the same pivot values (``searchsorted`` with the same side),
  so rows that must cancel always land in the same chunk.
* **Parity is associative.**  ``parity_merge`` and ``product_rows`` reduce
  each chunk mod 2 and then reduce the partials mod 2 — a row's final
  parity is the parity of its total count however the multiset was split.

Everything below a size floor (``2 * CHUNK_MIN_ROWS`` rows) or on a single
configured thread runs the per-chunk kernel once, unchunked: thread fan-out
costs more than it saves on small slabs.  The module is installed/removed
via :func:`repro.anf.sortkernel.set_parallel` by the ``native`` backend's
``activate``/``deactivate`` hooks.  Chunks always call cnative's
``_*_serial`` kernels, so a chunk never re-enters the chunking layer.
"""

from __future__ import annotations

import os
import warnings
from array import array
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as _np

from . import cnative
from .sortkernel import WORD_CODE, merge_disjoint

THREADS_ENV = "REPRO_KERNEL_THREADS"


def _env_int(name: str, default: int, minimum: int = 0) -> int:
    """An integer tunable from the environment.

    Malformed values keep the default and values below ``minimum`` are
    clamped — in both cases with a :class:`RuntimeWarning` naming the
    variable, so a typo'd tunable is visible instead of silently running
    the wrong configuration (and never an import-time crash).
    """
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        parsed = int(value)
    except ValueError:
        warnings.warn(
            f"ignoring malformed ${name}={value!r} (expected an integer); "
            f"using the default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if parsed < minimum:
        warnings.warn(
            f"${name}={parsed} is below the minimum {minimum}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        return minimum
    return parsed


#: Minimum rows per chunk; inputs under ``2 *`` this run serially.  Chosen so
#: the per-chunk executor overhead (~tens of µs) stays well under the numpy
#: work it parallelises.  Tunable via ``REPRO_KERNEL_CHUNK_MIN_ROWS``; tests
#: monkeypatch it down to force chunk boundaries on small inputs.
CHUNK_MIN_ROWS = _env_int("REPRO_KERNEL_CHUNK_MIN_ROWS", 1 << 16)

_T = TypeVar("_T")
_R = TypeVar("_R")


def thread_count() -> int:
    """The configured worker count (``auto``/``0``/unset → CPU count).

    Malformed or negative ``REPRO_KERNEL_THREADS`` values warn once and
    fall back to the auto (CPU count) default instead of raising.
    """
    value = os.environ.get(THREADS_ENV, "").strip().lower()
    if value in ("", "auto", "0"):
        return os.cpu_count() or 1
    try:
        parsed = int(value)
    except ValueError:
        warnings.warn(
            f"ignoring malformed ${THREADS_ENV}={value!r} (expected an "
            "integer or 'auto'); using the CPU count",
            RuntimeWarning,
            stacklevel=2,
        )
        return os.cpu_count() or 1
    if parsed < 0:
        warnings.warn(
            f"${THREADS_ENV}={parsed} is out of range; using the CPU count",
            RuntimeWarning,
            stacklevel=2,
        )
        return os.cpu_count() or 1
    return max(1, parsed)


_executor: Optional[ThreadPoolExecutor] = None
_executor_size = 0


def _map(func: Callable[[_T], _R], jobs: Sequence[_T]) -> List[_R]:
    """Run ``func`` over ``jobs`` on the shared pool, results in job order."""
    global _executor, _executor_size
    size = thread_count()
    if _executor is None or _executor_size != size:
        if _executor is not None:
            _executor.shutdown(wait=False)
        _executor = ThreadPoolExecutor(
            max_workers=size, thread_name_prefix="repro-kernel"
        )
        _executor_size = size
    return list(_executor.map(func, jobs))


def _chunkable(total_rows: int) -> bool:
    return total_rows >= 2 * CHUNK_MIN_ROWS and thread_count() >= 2


def _chunk_bounds(total: int) -> List[int]:
    """Contiguous ``[lo, hi)`` boundaries: one chunk per worker, but never
    chunks smaller than :data:`CHUNK_MIN_ROWS`."""
    parts = min(thread_count(), max(2, total // CHUNK_MIN_ROWS))
    return [total * i // parts for i in range(parts + 1)]


def _row_chunks(words: array) -> List[array]:
    bounds = _chunk_bounds(len(words))
    return [words[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# ----------------------------------------------------------------------
# Split kernels
# ----------------------------------------------------------------------
def _merge_chunked_splits(
    results: Sequence[Tuple[List[Tuple[int, array]], array]]
) -> Tuple[List[Tuple[int, array]], array]:
    """Recombine per-chunk split results emitted in ascending-row chunk order.

    Within one bucket, chunk ``i``'s stripped rows all sort below chunk
    ``i+1``'s (contiguous row ranges of an ascending slab, minus a shared
    group part, plus a shared tag), so ``merge_disjoint`` recognises the
    pieces as already ordered and concatenates them.
    """
    per_bucket: Dict[int, List[array]] = {}
    rest_parts: List[array] = []
    for buckets, rest in results:
        for part, rows in buckets:
            pieces = per_bucket.get(part)
            if pieces is None:
                per_bucket[part] = pieces = []
            pieces.append(rows)
        if len(rest):
            rest_parts.append(rest)
    merged = [
        (part, merge_disjoint(per_bucket[part])) for part in sorted(per_bucket)
    ]
    remainder = merge_disjoint(rest_parts) if rest_parts else array(WORD_CODE)
    return merged, remainder


def split_runs_by_group(
    words: array, group_mask: int
) -> Tuple[List[Tuple[int, array]], array]:
    if not _chunkable(len(words)):
        return cnative._split_runs_serial(words, group_mask)
    results = _map(
        lambda chunk: cnative._split_runs_serial(chunk, group_mask),
        _row_chunks(words),
    )
    return _merge_chunked_splits(results)


def split_build_by_group(
    tagged_slabs: Sequence[Tuple[int, array]], group_mask: int
) -> Tuple[List[Tuple[int, array]], array]:
    total = sum(len(words) for _, words in tagged_slabs)
    if not _chunkable(total):
        return cnative._split_build_serial(tagged_slabs, group_mask)
    # Flatten every slab into row-range jobs, keeping (slab, row) order so
    # the per-bucket pieces recombine in the same order the serial fused
    # kernel emits them (tags ascend across slabs, rows ascend within one).
    jobs: List[Tuple[array, int]] = []
    for tag, words in tagged_slabs:
        if not len(words):
            continue
        if len(words) < 2 * CHUNK_MIN_ROWS:
            jobs.append((words, tag))
        else:
            jobs.extend((chunk, tag) for chunk in _row_chunks(words))
    results = _map(
        lambda job: cnative._split_runs_serial(
            job[0], group_mask, or_mask=job[1]
        ),
        jobs,
    )
    return _merge_chunked_splits(results)


def scatter_tag(words: array, bit: int) -> array:
    if not _chunkable(len(words)):
        return cnative._scatter_tag_serial(words, bit)
    pieces = _map(
        lambda chunk: cnative._scatter_tag_serial(chunk, bit),
        _row_chunks(words),
    )
    # Selected rows all shared ``bit``; stripping a shared bit preserves the
    # ascending cross-chunk order, so concatenation is already sorted.
    out = array(WORD_CODE)
    for piece in pieces:
        out.extend(piece)
    return out


# ----------------------------------------------------------------------
# Merge kernels
# ----------------------------------------------------------------------
def xor_merge(left: array, right: array) -> array:
    if not len(left):
        return right
    if not len(right):
        return left
    if not _chunkable(len(left) + len(right)):
        return cnative._xor_merge_serial(left, right)
    # Partition by *value*: pick pivot rows from the larger operand, cut both
    # operands at the same pivots (same searchsorted side), and symmetric-
    # difference each value range independently.  Equal rows land in the same
    # range on both sides, so every cancellation happens inside one chunk;
    # ranges ascend, so concatenating the partials in order is the result.
    big = left if len(left) >= len(right) else right
    big_rows = _np.frombuffer(big, dtype=_np.uint64)
    bounds = _chunk_bounds(len(big))
    pivots = big_rows[_np.asarray(bounds[1:-1], dtype=_np.intp)]
    left_rows = _np.frombuffer(left, dtype=_np.uint64)
    right_rows = _np.frombuffer(right, dtype=_np.uint64)
    left_cuts = [0, *_np.searchsorted(left_rows, pivots).tolist(), len(left)]
    right_cuts = [0, *_np.searchsorted(right_rows, pivots).tolist(), len(right)]
    jobs = [
        (left[llo:lhi], right[rlo:rhi])
        for llo, lhi, rlo, rhi in zip(
            left_cuts, left_cuts[1:], right_cuts, right_cuts[1:]
        )
    ]
    pieces = _map(
        lambda job: cnative._xor_merge_serial(job[0], job[1]), jobs
    )
    out = array(WORD_CODE)
    for piece in pieces:
        out.extend(piece)
    return out


def parity_merge(slabs: Sequence[array]) -> array:
    alive = [s for s in slabs if len(s)]
    total = sum(len(s) for s in alive)
    if len(alive) < 2 or not _chunkable(total):
        return cnative._parity_merge_serial(slabs)
    # Greedy contiguous grouping of the slab list into roughly row-balanced
    # jobs; each job reduces mod 2 independently and the partials reduce
    # mod 2 once more (parity of the total count = parity of group parities).
    target = max(CHUNK_MIN_ROWS, total // thread_count())
    groups: List[List[array]] = []
    current: List[array] = []
    current_rows = 0
    for slab in alive:
        current.append(slab)
        current_rows += len(slab)
        if current_rows >= target:
            groups.append(current)
            current, current_rows = [], 0
    if current:
        groups.append(current)
    if len(groups) < 2:
        return cnative._parity_merge_serial(alive)
    partials = _map(cnative._parity_merge_serial, groups)
    return cnative._parity_merge_serial(partials)


def product_rows(large: array, small_terms: Sequence[int]) -> array:
    total = len(large) * len(small_terms)
    if len(large) < 2 * CHUNK_MIN_ROWS or not _chunkable(total):
        return cnative._product_rows_serial(large, small_terms)
    terms = list(small_terms)
    partials = _map(
        lambda chunk: cnative._product_rows_serial(chunk, terms),
        _row_chunks(large),
    )
    # A product row can repeat across chunks (row1|term1 == row2|term2), so
    # the chunk parities reduce mod 2 once more.
    return cnative._parity_merge_serial(partials)


# ----------------------------------------------------------------------
# Scan kernels
# ----------------------------------------------------------------------
def shared_literal_count(left: array, right: array) -> int:
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    if not _chunkable(len(small)):
        return cnative._shared_literal_count_serial(left, right)
    partials = _map(
        lambda chunk: cnative._shared_literal_count_serial(chunk, large),
        _row_chunks(small),
    )
    return sum(partials)


def popcount_rows(words: array) -> int:
    if not isinstance(words, array) or not _chunkable(len(words)):
        return cnative._popcount_rows_serial(words)
    # Per-chunk popcounts sum: addition is associative, so any partition
    # gives the serial total.
    return sum(_map(cnative._popcount_rows_serial, _row_chunks(words)))
