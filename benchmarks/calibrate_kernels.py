#!/usr/bin/env python
"""Calibrate the kernel-chunking tunables on the comparator slab.

Sweeps ``REPRO_KERNEL_CHUNK_MIN_ROWS`` x ``REPRO_KERNEL_THREADS`` over the
hot whole-slab primitives (the fused radix split, the plain split, the
parity sweep and the two-pointer merge), measured on the real comparator
term slab — the same 2^width-ish-row memory the basis pass chews — under
both per-chunk floors of the ``native`` backend: the numpy kernels (what it
falls back to without the extension) and the compiled C kernels (when
built).

Prints a per-grid-point table, derives the fastest configuration per core,
and optionally writes the whole sweep as JSON::

    PYTHONPATH=src python benchmarks/calibrate_kernels.py --width 14 \
        --out benchmarks/calibration.json

The committed defaults (``CHUNK_MIN_ROWS = 2^16``, threads auto) should be
re-derived from this sweep on the machine that records the baselines; the
recommendation block names the winning grid point explicitly so the choice
is data, not folklore.  On a single-core box the sweep degenerates to
measuring the chunking overhead itself — expect "1 thread, chunking off"
to win there, and re-run on multi-core hardware before changing defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

from repro.anf import cnative, nativekernel, sortkernel  # noqa: E402
from repro.benchcircuits import comparator_spec  # noqa: E402

SCHEMA = "repro-kernel-calibration-v1"

#: A fresh tag bit above the 40-bit term universe, as the basis pass plants.
TAG = 1 << 50


def build_slab(width: int):
    """The packed term slab of the comparator's densest output."""
    spec = comparator_spec(width)
    best = None
    for expr in spec.outputs.values():
        matrix = expr.term_matrix(build=True)
        if matrix is not None and (best is None or matrix.count > best.count):
            best = matrix
    if best is None:
        raise SystemExit("comparator outputs did not pack — cannot calibrate")
    return best.words


def _group_mask(words, bits: int) -> int:
    """The ``bits`` lowest support variables — a realistic findGroup mask."""
    support = sortkernel.support_fold(words)
    mask = 0
    for _ in range(bits):
        if not support:
            break
        low = support & -support
        mask |= low
        support ^= low
    return mask


def kernel_jobs(words) -> Dict[str, Callable[[], object]]:
    """The timed primitives, closed over the slab (dispatch via nativekernel
    so the active ``CHUNK_MIN_ROWS``/thread settings decide the chunking)."""
    mask = _group_mask(words, 4)
    half = len(words) // 2
    left, right = words[:half], words[half:]
    return {
        "split_build": lambda: nativekernel.split_build_by_group([(TAG, words)], mask),
        "split_runs": lambda: nativekernel.split_runs_by_group(words, mask),
        "parity_merge": lambda: nativekernel.parity_merge([left, right]),
        "xor_merge": lambda: nativekernel.xor_merge(left, right),
    }


def run_grid(words, threads_list: List[int], chunks_list: List[int],
             repeats: int) -> List[Dict[str, object]]:
    # Each chunk runs cnative's kernels, which fall back to numpy per call
    # when no extension is loaded: unloading it selects the numpy floor.
    built = cnative._C
    cores = [("numpy", None)]
    if built is not None:
        cores.append(("cnative", built))
    else:
        print("note: C extension not built — sweeping the numpy core only")
    jobs = kernel_jobs(words)
    grid: List[Dict[str, object]] = []
    saved_env = os.environ.get(nativekernel.THREADS_ENV)
    saved_chunk = nativekernel.CHUNK_MIN_ROWS
    try:
        for core_name, core in cores:
            cnative._C = core
            for threads in threads_list:
                os.environ[nativekernel.THREADS_ENV] = str(threads)
                for chunk in chunks_list:
                    nativekernel.CHUNK_MIN_ROWS = chunk
                    for kernel, job in jobs.items():
                        best = min(
                            _timed(job) for _ in range(max(1, repeats))
                        )
                        grid.append({
                            "core": core_name,
                            "kernel": kernel,
                            "threads": threads,
                            "chunk_min_rows": chunk,
                            "seconds": round(best, 5),
                        })
    finally:
        cnative._C = built
        nativekernel.CHUNK_MIN_ROWS = saved_chunk
        if saved_env is None:
            os.environ.pop(nativekernel.THREADS_ENV, None)
        else:
            os.environ[nativekernel.THREADS_ENV] = saved_env
    return grid


def _timed(job) -> float:
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


def summarise(grid: List[Dict[str, object]]) -> Dict[str, object]:
    """Per core, the (threads, chunk) point minimising total kernel time."""
    totals: Dict[tuple, float] = {}
    for point in grid:
        key = (point["core"], point["threads"], point["chunk_min_rows"])
        totals[key] = totals.get(key, 0.0) + point["seconds"]
    recommendation: Dict[str, object] = {}
    for core in {point["core"] for point in grid}:
        core_points = {k: v for k, v in totals.items() if k[0] == core}
        (best_core, threads, chunk), seconds = min(
            core_points.items(), key=lambda kv: kv[1]
        )
        recommendation[core] = {
            "threads": threads,
            "chunk_min_rows": chunk,
            "total_seconds": round(seconds, 5),
        }
    return recommendation


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=14,
                        help="comparator width to build the slab from "
                             "(default 14; 15 is the 14.3M-row stress slab)")
    parser.add_argument("--threads", type=int, nargs="*", default=None,
                        help="worker counts to sweep (default: 1 2 4 and the "
                             "CPU count, deduplicated)")
    parser.add_argument("--chunks", type=int, nargs="*", default=None,
                        help="CHUNK_MIN_ROWS values to sweep "
                             "(default: 2^14..2^18)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per grid point (best is recorded)")
    parser.add_argument("--out", help="write the sweep to this JSON file")
    args = parser.parse_args(argv)

    cpu = os.cpu_count() or 1
    threads_list = args.threads or sorted({1, 2, 4, cpu})
    chunks_list = args.chunks or [1 << b for b in range(14, 19)]

    print(f"building the comparator-{args.width} slab ...", flush=True)
    words = build_slab(args.width)
    print(f"slab: {len(words)} rows ({len(words) * 8 / 1e6:.1f} MB), "
          f"cpu_count={cpu}\n")

    grid = run_grid(words, threads_list, chunks_list, args.repeats)

    print(f"{'core':8s} {'kernel':14s} {'threads':>7s} {'chunk':>8s} "
          f"{'seconds':>9s}")
    for point in grid:
        print(f"{point['core']:8s} {point['kernel']:14s} "
              f"{point['threads']:>7d} {point['chunk_min_rows']:>8d} "
              f"{point['seconds']:>9.5f}")

    recommendation = summarise(grid)
    print("\nfastest configuration per core (sum over kernels):")
    for core, best in sorted(recommendation.items()):
        print(f"  {core:8s} threads={best['threads']} "
              f"chunk_min_rows={best['chunk_min_rows']} "
              f"({best['total_seconds']:.5f}s)")
    if cpu == 1:
        print("  (single-core machine: this only measures chunking overhead; "
              "re-run on multi-core hardware before changing defaults)")

    record = {
        "schema": SCHEMA,
        "width": args.width,
        "rows": len(words),
        "cpu_count": cpu,
        "python": platform.python_version(),
        "repeats": args.repeats,
        "grid": grid,
        "recommendation": recommendation,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
