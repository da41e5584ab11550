"""Write ``expected.json``: the result of every key a generator can draw.

Run from the repository root (about a minute on two cores)::

    python3 perfbench/make_expected.py

Each key is decomposed once and synthesised for every objective.  Keys
whose options do not converge are kept with ``"converged": false`` so the
generators skip them.  Where a key matches a row of
``benchmarks/BENCH_full_expected.json`` (default options at a Table 1
width) the two must agree, or the script exits non-zero and writes nothing.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402
from env import ROOT, WORK, WORK_ROOT, bootstrap  # noqa: E402


def build_table() -> dict:
    from repro.service.jobs import execute_job, parse_job_spec

    store = WORK / "expected-store"
    shutil.rmtree(store, ignore_errors=True)
    keys = {}
    for key in catalogue.all_keys():
        entry: dict = {"converged": True}
        try:
            for objective in catalogue.OBJECTIVES:
                spec = catalogue.request(key, kind="synthesize", verify=True,
                                         objective=objective)
                result = execute_job(parse_job_spec(spec).payload(), str(store))
                if not result["verified"]:
                    raise SystemExit(f"{key['name']} does not verify")
                for field in catalogue.DECOMPOSITION_FIELDS:
                    entry[field] = result[field]
                record = store / f"{result['content_key']}.json"
                entry["record_bytes"] = record.stat().st_size
                entry.setdefault("synthesis", {})[objective] = {
                    field: result[field] for field in catalogue.SYNTHESIS_FIELDS}
        except RuntimeError as exc:
            if "did not converge" not in str(exc):
                raise
            entry = {"converged": False, "error": str(exc)}
        keys[key["name"]] = entry
        print(key["name"], entry.get("blocks", "no convergence"), flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run is using it
    return {"schema": "perfbench-expected-v1", "keys": keys}


def cross_check(table: dict) -> list:
    """Disagreements with the committed full-width engine results."""
    with open(ROOT / "benchmarks" / "BENCH_full_expected.json") as handle:
        full = json.load(handle)["circuits"]
    problems, checked = [], 0
    for circuit, row in sorted(full.items()):
        k, ident = catalogue.DEFAULT_OPTIONS
        entry = table["keys"].get(catalogue.key_name(circuit, row["width"], k, ident))
        if entry is None:
            continue
        checked += 1
        for field in catalogue.DECOMPOSITION_FIELDS:
            if entry.get(field) != row[field]:
                problems.append(f"{circuit}-{row['width']} {field}: "
                                f"{entry.get(field)} != {row[field]}")
    print(f"cross-checked {checked} keys against BENCH_full_expected.json", flush=True)
    return problems


def main() -> int:
    bootstrap()
    table = build_table()
    problems = cross_check(table)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(catalogue.EXPECTED_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
