"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py           # checks plus a smoke run per workload
    python3 perfbench/selftest.py --quick   # checks only (a few seconds)

Checks: the same seed yields the same spec sequence (and another seed a
different one); a tampered expected value or a corrupted response counts as
failed, in-process and through the service path; a shed, degraded, failed
or raising request counts as failed and never lowers a reported latency;
the benchmark refuses to run outside a checkout.  The smoke runs start
every workload for a few seconds, untraced and traced, and require exit
code 0 and a complete result line.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402
from env import ROOT, WORK, WORK_ROOT, bootstrap  # noqa: E402

HERE = Path(__file__).resolve().parent


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def first_passes(table: dict, stream: str, count: int = 2) -> list:
    passes = catalogue.cold_passes(table, stream)
    return [next(passes) for _ in range(count)]


def test_determinism(table: dict) -> None:
    import loadgen

    check(first_passes(table, "cold-low-7") == first_passes(table, "cold-low-7"),
          "cold_jobs: the same seed yields the same spec sequence")
    check(first_passes(table, "cold-low-7") != first_passes(table, "cold-low-8"),
          "cold_jobs: another seed yields another sequence")
    for workload in (loadgen.WARM_REPLAY, loadgen.MIXED_CHURN):
        one = loadgen.schedule(workload, table, 7, 10.0)
        two = loadgen.schedule(workload, table, 7, 10.0)
        other = loadgen.schedule(workload, table, 8, 10.0)
        check([p.arrivals for p in one] == [p.arrivals for p in two],
              f"{workload.name}: the same seed yields the same arrivals")
        check([p.arrivals for p in one] != [p.arrivals for p in other],
              f"{workload.name}: another seed yields other arrivals")
        check([len(p.arrivals) for p in one] == [len(p.arrivals) for p in other],
              f"{workload.name}: every seed offers the same number of requests")


def perfect_result(table: dict, spec: dict) -> dict:
    """The response a correct server gives for ``spec``."""
    entry = table["keys"][catalogue.spec_key_name(spec)]
    result = {"circuit": spec["circuit"], "width": spec["width"], "kind": spec["kind"],
              **{field: entry[field] for field in catalogue.DECOMPOSITION_FIELDS}}
    if spec["verify"]:
        result["verified"] = True
    if spec["kind"] == "synthesize":
        result.update(entry["synthesis"][spec["objective"]])
    return result


def test_gate(table: dict) -> None:
    import loadgen

    key = catalogue.drawable(table)[0]
    spec = catalogue.request(key, kind="synthesize", verify=True, objective="area")
    good = perfect_result(table, spec)
    check(catalogue.check_result(table, spec, good) == [], "a correct response passes")
    tampered = copy.deepcopy(table)
    tampered["keys"][key["name"]]["blocks"] += 1
    check(catalogue.check_result(tampered, spec, good) != [],
          "a tampered expected value is caught")
    for field, value in (("block_literals", good["block_literals"] + 1),
                         ("verified", False), ("area", good["area"] + 0.1),
                         ("kind", "decompose")):
        bad = dict(good, **{field: value})
        check(catalogue.check_result(table, spec, bad) != [],
              f"a corrupted response ({field}) is caught")
    check(catalogue.check_result(table, spec, None) != [], "a missing result is caught")

    # The service path: analyse_phase must count the corrupted one as failed.
    def record(result):
        return {"phase": "low", "due": 100.0, "sent": 100.0, "lag": 0.0, "spec": spec,
                "status": {"state": "done", "spec": spec, "result": result,
                           "finished_at": 100.5}}

    phase = loadgen.Phase("low", 1.0, 2.0, [])
    summary = loadgen.analyse_phase(
        phase, 100.0, [record(good), record(dict(good, cells=good["cells"] + 1))],
        loadgen.WARM_REPLAY, table)
    check(summary["failed"] == 1 and len(summary["problems"]) == 1,
          "the service gate counts a corrupted response as failed")


def test_failures_never_flatter(table: dict) -> None:
    """A run that sheds, degrades or fails its slowest requests reports a
    tail no better than the run that served them; only a 429 shed and a
    degraded answer leave the run correct."""
    import loadgen
    import run

    key = catalogue.drawable(table)[0]
    spec = catalogue.request(key, verify=True)
    result = perfect_result(table, spec)

    def record(index: int, kind: str = "ok") -> dict:
        executed = dict(spec, verify=False) if kind == "degraded" else spec
        served = dict(result, verified=None) if kind == "degraded" else result
        base = {"phase": "low", "due": 100.0, "sent": 100.0, "lag": 0.0, "spec": spec,
                "http_status": 202,
                "status": {"state": "done", "spec": executed, "result": served,
                           "finished_at": 100.0 + 0.01 * (index + 1)}}
        if kind == "shed":
            base.update(http_status=429, error="HTTP 429")
            del base["status"]
        elif kind == "transport":
            base.update(http_status=0, error="transport: reset")
            del base["status"]
        return base

    phase = loadgen.Phase("low", 1.0, 2.0, [])
    served = loadgen.analyse_phase(phase, 100.0, [record(i) for i in range(40)],
                                   loadgen.MIXED_CHURN, table)
    for kind, wrong in (("shed", False), ("degraded", False), ("transport", True)):
        records = [record(i, kind if i >= 36 else "ok") for i in range(40)]
        out = loadgen.analyse_phase(phase, 100.0, records, loadgen.MIXED_CHURN, table)
        check(out["failed"] == 4 and out["summary"]["tail_ms"] >= served["summary"]["tail_ms"]
              and out["summary"]["p50_ms"] >= served["summary"]["p50_ms"],
              f"service: failing the slowest requests ({kind}) never lowers the summary")
        check(bool(out["problems"]) == wrong,
              f"service: a {kind} failure {'makes' if wrong else 'leaves'} the run "
              f"{'incorrect' if wrong else 'correct'}")

    jobs = [{"spec": spec, "seconds": 0.01 * (i + 1), "result": result, "error": None}
            for i in range(40)]
    base = run.check_cold(table, {"low": {"jobs": jobs, "seconds": 1.0}})
    raised = [dict(job, result=None, error="RuntimeError: did not converge")
              if i >= 36 else job for i, job in enumerate(jobs)]
    summaries, overall, _, attempted, failed, problems = run.check_cold(
        table, {"low": {"jobs": raised, "seconds": 1.0}})
    check(failed == 4 and len(problems) == 4 and overall["tail_ms"] >= base[1]["tail_ms"],
          "cold_jobs: a job that raises fails, makes the run incorrect and ranks slowest")


def test_refuses_outside_checkout() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "cold_jobs",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "outside a checkout the benchmark exits non-zero without a result")


def session_processes(sid: int) -> list:
    """Command lines of the live processes in session ``sid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            cmdline = (stat.parent / "cmdline").read_bytes()
        except OSError:
            continue  # it exited meanwhile
        if int(fields[3]) == sid and fields[0] != "Z":
            found.append(cmdline.replace(b"\0", b" ").decode(errors="replace").strip())
    return found


def smoke(workload: str, trace: int, seconds: float) -> None:
    """A short run in a session of its own: every metric printed, every
    result correct, and no process of the run left once it has exited.
    Its output goes to files: a pipe would wait for every process holding
    it, and so hide one left running."""
    out, err = WORK / "smoke.out", WORK / "smoke.err"
    with open(out, "w") as stdout, open(err, "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=stdout, stderr=stderr, start_new_session=True)
    try:
        proc.wait(timeout=300)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    left = session_processes(proc.pid)
    stdout, stderr = out.read_text(), err.read_text()
    if proc.returncode != 0:
        print(stderr[-3000:], file=sys.stderr)
    result = json.loads(stdout.strip().splitlines()[-1])
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    expected = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    check(proc.returncode == 0 and result["correct"] and set(result["metrics"]) == expected,
          f"smoke: {workload} --trace {trace} prints every metric, all results correct")
    check(not left, f"smoke: {workload} --trace {trace} leaves no process running"
          + (f" (left: {left})" if left else ""))


def main() -> int:
    parser = argparse.ArgumentParser(description="self-tests of the benchmark")
    parser.add_argument("--quick", action="store_true", help="skip the smoke runs")
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="length of each smoke run (default 4)")
    args = parser.parse_args()
    bootstrap()
    table = catalogue.load_expected()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        test_determinism(table)
        test_gate(table)
        test_failures_never_flatter(table)
        test_refuses_outside_checkout()
        if not args.quick:
            for workload in ("cold_jobs", "warm_replay", "mixed_churn"):
                for trace in (0, 1):
                    smoke(workload, trace, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
