"""Job latency from spec to answer: the repository's benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_jobs --seed 1 --seconds 30 --trace 0

Workloads: ``cold_jobs`` (closed-loop in-process callers, every job cold),
``warm_replay`` (open-loop HTTP traffic, every job a store hit) and
``mixed_churn`` (the same traffic plus fresh cold specs and herds of
identical ones).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
runs with spans and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each ``{"value", "unit"}``); the lines before it carry the
provenance and per-phase detail.  Any failed request other than a ``429``
shed or a brownout-degraded answer (a wrong result, an error, a job that
raised) makes ``correct`` false and the exit code 1.  The metric names and
units are those of ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from env import ROOT, WORK, WORK_ROOT, NotACheckout, bootstrap, provenance  # noqa: E402

WORKLOADS = ("cold_jobs", "warm_replay", "mixed_churn")
FAMILIES = sorted(catalogue.WIDTHS)
#: Times the set-up is repeated in one run (its median is ``setup_s``).
SETUPS = {"cold_jobs": 9, "warm_replay": 7, "mixed_churn": 7}

#: The metric names and units come from ``BENCHMARK.json``: ``--trace 0``
#: prints its end-to-end metrics, ``--trace 1`` its per-layer ones.
with open(ROOT / "BENCHMARK.json") as _handle:
    _SPEC = json.load(_handle)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
#: Every span: each has ``<name>.s`` and ``<name>.calls`` per-layer metrics.
SPAN_NAMES = [name[:-len(".s")] for name in PER_LAYER_UNITS if name.endswith(".s")]


def emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def cost_drift(jobs: list) -> dict:
    """Per family: median of measured worker ms over ``estimate_cost``."""
    from repro.engine.cost import estimate_cost

    ratios = {family: [] for family in FAMILIES}
    for spec, result in jobs:
        units = estimate_cost(spec["circuit"], spec["width"], kind=spec["kind"],
                              verify=spec["verify"], cached=result["decomposition_cached"])
        ratios[spec["circuit"]].append(1000.0 * result["seconds"] / units)
    return {f"engine.cost.drift.{family}": stats.median(values)
            for family, values in ratios.items()}


def layer_metrics(payloads: list, job_seconds: float) -> dict:
    """Per-layer metrics shared by every workload's traced run."""
    agg = tracing.aggregate(payloads)
    metrics = {}
    for name in SPAN_NAMES:
        entry = agg["spans"].get(name, {"s": 0.0, "calls": 0})
        metrics[f"{name}.s"] = entry["s"]
        metrics[f"{name}.calls"] = entry["calls"]
    counters = agg["counters"]
    metrics["engine.cache.hit_ratio"] = ratio(counters.get("engine.cache.hits", 0),
                                              counters.get("engine.cache.lookups", 0))
    metrics["synth.cache.hit_ratio"] = ratio(counters.get("synth.cache.hits", 0),
                                             counters.get("synth.cache.lookups", 0))
    metrics["trace.overhead"] = ratio(tracing.span_count(payloads) * tracing.span_cost(),
                                      job_seconds)
    metrics["trace.unexplained_share"] = ratio(
        agg["spans"].get("service.execute_job", {"s": 0.0})["s"], job_seconds)
    return metrics


def accounting(breakdowns: list) -> dict:
    """Layer-by-layer split of the median job and of all jobs together.

    ``breakdowns`` holds ``(latency s, {component: s})`` per job; the
    components sum to the latency.  ``unexplained`` is the job body's time
    outside every layer span.
    """
    def by_layer(components: dict) -> dict:
        layers: dict = {}
        for name, seconds in components.items():
            layer = ("unexplained" if name == "service.execute_job"
                     else name.split(".")[0])
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    if not breakdowns:
        return {}
    ordered = sorted(breakdowns, key=lambda item: item[0])
    latency, components = ordered[len(ordered) // 2]
    total: dict = {}
    for _, parts in breakdowns:
        for layer, seconds in by_layer(parts).items():
            total[layer] = total.get(layer, 0.0) + seconds
    return {
        "median_job_ms": 1000.0 * latency,
        "median_job_layers_ms": {k: 1000.0 * v for k, v in by_layer(components).items()},
        "all_jobs_layer_share": {k: ratio(v, sum(total.values())) for k, v in total.items()},
    }


# ----------------------------------------------------------------------
# cold_jobs
# ----------------------------------------------------------------------
def check_cold(table: dict, phases: dict) -> tuple:
    """Check every ``cold_jobs`` job against the table and summarise each
    load point.  A job that raised or answered wrongly fails, is a problem
    (the run is incorrect) and ranks as the slowest job in the summaries.
    Returns ``(summaries, overall, ok jobs, attempted, failed, problems)``."""
    attempted = failed = 0
    problems, all_ok = [], []
    summaries = {}
    for name, phase in phases.items():
        ok = []
        for job in phase["jobs"]:
            attempted += 1
            error = job["error"]
            if error is None:
                mismatch = catalogue.check_result(table, job["spec"], job["result"])
                if mismatch:
                    error = "wrong result: " + "; ".join(mismatch)
            if error is None:
                ok.append(job)
            else:
                failed += 1
                job["error"] = error
                problems.append(f"{catalogue.spec_key_name(job['spec'])}: {error}")
        summaries[name] = stats.summary([job["seconds"] for job in ok],
                                        len(phase["jobs"]) - len(ok))
        summaries[name]["jobs_per_s"] = ratio(len(ok), phase["seconds"])
        all_ok += ok
    overall = stats.summary([job["seconds"] for job in all_ok], failed)
    return summaries, overall, all_ok, attempted, failed, problems


def run_cold(table: dict, seed: int, seconds: float, trace: bool) -> tuple:
    import cold

    callers = os.cpu_count() or 1
    out = cold.run(table, seed, seconds, trace, callers, SETUPS["cold_jobs"])
    phases = out["phases"]
    summaries, overall, all_ok, attempted, failed, problems = check_cold(table, phases)
    emit({"detail": "phases", "callers": {"low": 1, "high": callers},
          "phases": summaries, "overall": overall, "failed": failed, "setup_s": out["setup"],
          "problems": problems[:20]})
    if not trace:
        metrics = {
            "setup_s": statistics.median(out["setup"]),
            "tail_ms": overall["tail_ms"],
            "jobs_per_s": ratio(len(all_ok), phases["low"]["seconds"] + phases["high"]["seconds"]),
            "low.tail_ms": summaries["low"]["tail_ms"],
            "high.tail_ms": summaries["high"]["tail_ms"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        return metrics, attempted, failed, problems
    payloads = phases["low"]["trace"] + phases["high"]["trace"]
    job_seconds = sum(job["seconds"] for job in all_ok)
    metrics = layer_metrics(payloads, job_seconds)
    spans_by_job = tracing.by_job(payloads)
    breakdowns = [(job["seconds"], spans_by_job.get(job["result"]["trace_id"], {}))
                  for job in all_ok]
    metrics.update(cost_drift([(job["spec"], job["result"]) for job in all_ok]))
    metrics.update({
        "engine.store_mb": out["store_mb"],
        "service.http.s": 0.0, "service.http.calls": 0,
        "service.queue.s": 0.0, "service.queue.calls": 0,
        "service.worker.s": 0.0, "service.worker.calls": 0,
        "service.dedup_ratio": 0.0, "service.shed_ratio": 0.0,
        "service.degraded_ratio": 0.0, "service.queue_depth_max": 0,
        "loadgen.lag_p99_ms": 0.0,
        "error_rate": ratio(failed, attempted),
    })
    emit({"detail": "accounting", **accounting(breakdowns)})
    return metrics, attempted, failed, problems


# ----------------------------------------------------------------------
# warm_replay / mixed_churn
# ----------------------------------------------------------------------
def run_service(name: str, table: dict, seed: int, seconds: float, trace: bool) -> tuple:
    import loadgen

    workload = {"warm_replay": loadgen.WARM_REPLAY, "mixed_churn": loadgen.MIXED_CHURN}[name]
    out = loadgen.run(workload, table, seed, seconds, trace, SETUPS[name],
                      workers=os.cpu_count() or 1)
    phases = {phase["name"]: phase for phase in out["phases"]}
    attempted = sum(phase["attempted"] for phase in phases.values())
    failed = sum(phase["failed"] for phase in phases.values())
    problems = [p for phase in phases.values() for p in phase["problems"]]
    fixed = [phases["low"], phases["high"]]
    ok = [r for phase in fixed for r in phase["records"] if "latency" in r]
    overall = stats.summary([r["latency"] for r in ok],
                            sum(phase["failed"] for phase in fixed))
    emit({"detail": "phases", "workload": name, "limit_ms": workload.limit_ms,
          "overall": overall, "setup_s": out["setup"],
          "phases": [{key: phase[key] for key in (
              "name", "rate", "seconds", "attempted", "failed", "errors", "summary", "lag_p99_ms",
              "valid", "drain_s", "throughput_rps", "served_rps", "meets_limit")}
              for phase in out["phases"]],
          "problems": problems[:20]})
    for phase in out["phases"]:
        if not phase["valid"]:
            print(f"warning: phase {phase['name']} is invalid: the generator ran "
                  f"{phase['lag_p99_ms']:.1f} ms late at p99", file=sys.stderr)
    ladder = out["phases"][2:]
    top = ladder[-1]
    exhausted = top["meets_limit"] and top["valid"]
    if exhausted:
        print(f"warning: the top ladder rung ({top['rate']:.1f} rps) met the limit; "
              "max_rate_rps is capped by the ladder", file=sys.stderr)
    passing = [phase for phase in out["phases"] if phase["meets_limit"] and phase["valid"]]
    best = passing[-1] if passing else out["phases"][0]
    emit({"detail": "max_rate", "max_rate_rps": best["throughput_rps"], "phase": best["name"],
          "met_limit": bool(passing), "rungs_run": len(ladder), "ladder_exhausted": exhausted,
          "stopped_at": top["name"], "stopped_at_served_rps": top["served_rps"]})
    if not trace:
        metrics = {
            "setup_s": statistics.median(out["setup"]),
            "tail_ms": overall["tail_ms"],
            # The fixed phases offer a fixed load, so this is their arrival
            # rate unless requests fail or the backlog outlasts them.
            "jobs_per_s": ratio(len(ok), sum(phase["seconds"] + max(0.0, phase["drain_s"])
                                             for phase in fixed)),
            "low.tail_ms": phases["low"]["summary"]["tail_ms"],
            "high.tail_ms": phases["high"]["summary"]["tail_ms"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        return metrics, attempted, failed, problems
    return service_layers(out, failed, attempted), attempted, failed, problems


def service_layers(out: dict, failed: int, attempted: int) -> dict:
    records = [r for phase in out["phases"] for r in phase["records"]]
    skip = set(out["warm_up_traces"])
    payloads = [dict(payload, spans=[span for span in payload["spans"] if span[0] not in skip])
                for payload in tracing.load_dir(out["span_dir"])]
    spans_by_job = tracing.by_job(payloads)
    posts = [r for r in records if "post_s" in r]
    accepted = [r for r in records if r.get("http_status") == 202]
    done = [r for r in records if "latency" in r]
    primaries = {}
    for r in done:
        if not r["status"].get("deduplicated"):
            primaries[r["status"]["result"]["trace_id"]] = r
    worker = sum(r["status"]["result"]["seconds"] for r in primaries.values())
    queue = sum(r["status"]["latency_seconds"] - r["status"]["result"]["seconds"]
                for r in primaries.values())
    metrics = layer_metrics(payloads, worker)
    metrics.update(cost_drift([(r["status"]["spec"], r["status"]["result"])
                               for r in primaries.values()]))
    depths = [sample["queue"]["depth"] for sample in out["metric_samples"]]
    metrics.update({
        "engine.store_mb": out["store_mb"],
        "service.http.s": sum(r["post_s"] for r in posts),
        "service.http.calls": len(posts),
        "service.queue.s": queue,
        "service.queue.calls": len(primaries),
        "service.worker.s": worker,
        "service.worker.calls": len(primaries),
        "service.dedup_ratio": ratio(sum(1 for r in done if r["status"].get("deduplicated")),
                                     len(accepted)),
        "service.shed_ratio": ratio(sum(1 for r in records if r.get("http_status") == 429),
                                    len(posts)),
        "service.degraded_ratio": ratio(sum(1 for r in done if r["status"].get("degraded")),
                                        len(accepted)),
        "service.queue_depth_max": max(depths, default=0),
        "loadgen.lag_p99_ms": max(phase["lag_p99_ms"] for phase in out["phases"]),
        "error_rate": ratio(failed, attempted),
    })
    breakdowns = []
    for r in done:
        status = r["status"]
        worker_spans = spans_by_job.get(status["result"]["trace_id"], {})
        body = sum(worker_spans.values())
        parts = {"loadgen.lag": r["sent"] - r["due"],
                 "service.http": status["submitted_at"] - r["sent"],
                 "service.queue": r["latency"] - (status["submitted_at"] - r["due"]) - body,
                 **worker_spans}
        breakdowns.append((r["latency"], parts))
    emit({"detail": "accounting", **accounting(breakdowns)})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        scrubbed = bootstrap()
    except NotACheckout as exc:
        print(f"error: {exc}; run from the root of a repository checkout", file=sys.stderr)
        return 2
    table = catalogue.load_expected()
    emit({"detail": "provenance", **provenance(args.workload, args.seed, scrubbed)})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.workload == "cold_jobs":
            metrics, attempted, failed, problems = run_cold(
                table, args.seed, args.seconds, bool(args.trace))
        else:
            metrics, attempted, failed, problems = run_service(
                args.workload, table, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for problem in problems[:20]:
        print(f"failed: {problem}", file=sys.stderr)
    emit({"correct": not problems, "attempted": attempted, "failed": failed,
          "metrics": {name: {"value": metrics[name], "unit": unit}
                      for name, unit in units.items()}})
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
