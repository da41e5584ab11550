"""The spec catalogue every workload draws from, and the correctness gate.

A *decomposition key* names one decomposition: circuit, width and the two
``DecompositionOptions`` the benchmark varies (``k`` and
``use_identities``).  A *request* adds what the caller asks for on top of it:
``kind`` (``decompose`` or ``synthesize``), ``verify`` and, for synthesis,
the ``objective``.

``expected.json`` holds the result of every decomposition key a generator
can draw (``make_expected.py`` writes it).  Keys whose options do not
converge are recorded with ``"converged": false`` and are never drawn.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: circuit -> widths drawn.  Each range runs from the family's quick width
#: (``benchmarks/run_bench.py``) to its Table 1 width, except:
#: * comparator stops at 13: a cold comparator-13 job takes about 2 s and
#:   0.5 GB, comparator-15 about 20 s;
#: * LOD's Table 1 widths (28-32) are above the service's width ceiling
#:   (``repro.service.jobs.MAX_WIDTH`` = 20), so LOD is drawn at 18-20 and
#:   one catalogue serves the in-process and the HTTP workloads.
WIDTHS: Dict[str, tuple] = {
    "adder": (11, 12),
    "comparator": (12, 13),
    "counter": (14, 15, 16),
    "lod": (18, 19, 20),
    "lzd": (14, 15, 16),
    "majority": (13, 14, 15),
    "three_input_adder": (6,),
}

#: ``(k, use_identities)`` variants; ``(4, True)`` is the paper's default.
OPTION_VARIANTS = [(k, ident) for k in (3, 4, 5) for ident in (True, False)]
DEFAULT_OPTIONS = (4, True)

#: Comparator-13 is drawn at the default options only.  Its six variants
#: would be more than half of a cold pass on their own, and one per pass
#: keeps its 2-3 s jobs below the ten samples a run's tail leaves beyond
#: it, so that percentile falls among the comparator-12 jobs.
HEAVY = {("comparator", 13): [DEFAULT_OPTIONS]}

OBJECTIVES = ("delay", "area", "balanced")


def key_name(circuit: str, width: int, k: int, ident: bool) -> str:
    return f"{circuit}-{width}-k{k}-{'id' if ident else 'noid'}"


def all_keys() -> List[dict]:
    """Every decomposition key a generator may draw, converging or not."""
    keys = []
    for circuit, widths in sorted(WIDTHS.items()):
        for width in widths:
            for k, ident in HEAVY.get((circuit, width), OPTION_VARIANTS):
                keys.append({"name": key_name(circuit, width, k, ident),
                             "circuit": circuit, "width": width,
                             "k": k, "use_identities": ident})
    return keys


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as handle:
        table = json.load(handle)
    missing = [key["name"] for key in all_keys() if key["name"] not in table["keys"]]
    if missing:
        raise SystemExit(f"expected-results table lacks {len(missing)} keys, "
                         f"e.g. {missing[:3]}; rerun perfbench/make_expected.py")
    return table


def drawable(table: dict) -> List[dict]:
    """The converging keys, in catalogue order."""
    return [key for key in all_keys() if table["keys"][key["name"]]["converged"]]


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def request(key: dict, kind: str = "decompose", verify: bool = False,
            objective: str = "balanced", max_iterations: Optional[int] = None) -> dict:
    """A job spec as POSTed to ``/jobs`` (and fed to ``execute_job``).

    ``max_iterations`` above the iterations a key needs leaves its result
    unchanged but changes the pipeline configuration, so the spec is new to
    the store: a way to mint fresh cold specs of one fixed computation.
    """
    options = {"k": key["k"], "use_identities": key["use_identities"]}
    if max_iterations is not None:
        options["max_iterations"] = max_iterations
    spec = {"kind": kind, "circuit": key["circuit"], "width": key["width"],
            "options": options, "verify": verify}
    if kind == "synthesize":
        spec["objective"] = objective
    return spec


def spec_key_name(spec: dict) -> str:
    options = spec.get("options", {})
    return key_name(spec["circuit"], spec["width"], options.get("k", 4),
                    options.get("use_identities", True))


#: Shares of the request mix: a request verifies with ``VERIFY_SHARE`` and
#: is a synthesis job with ``SYNTH_SHARE`` (the two are independent).  No
#: request log exists to measure them from, so both are taken from the
#: service load generator's committed mixes (``benchmarks/run_loadgen.py``):
#: 8 of the 54 weight units of ``SPEC_MENU`` are synthesis jobs, and 1 of
#: the 5 ``OVERLOAD_LIGHT_SPECS`` verifies.  They are assumptions, not
#: observed traffic.
VERIFY_SHARE = 1 / 5
SYNTH_SHARE = 8 / 54


def dress(key: dict, rng: random.Random) -> dict:
    """Turn a key into a request with the benchmark's verify/synth shares."""
    kind = "synthesize" if rng.random() < SYNTH_SHARE else "decompose"
    return request(key, kind=kind, verify=rng.random() < VERIFY_SHARE,
                   objective=rng.choice(OBJECTIVES))


def balanced_order(keys: List[dict], rng: random.Random) -> List[dict]:
    """A seeded order in which every prefix holds each (circuit, width)
    group in proportion: a group's members sit at evenly spaced positions
    with a random phase, so a run cut short still sees a balanced mix."""
    placed = []
    for members in _groups(keys):
        rng.shuffle(members)
        phase = rng.random()
        for index, key in enumerate(members):
            placed.append(((index + phase) / len(members), rng.random(), key["name"], key))
    placed.sort(key=lambda item: item[:3])
    return [item[3] for item in placed]


def _groups(keys: List[dict]) -> List[List[dict]]:
    groups: Dict[tuple, List[dict]] = {}
    for key in keys:
        groups.setdefault((key["circuit"], key["width"]), []).append(key)
    return list(groups.values())


def dress_stratified(keys: List[dict], rng: random.Random) -> Dict[str, dict]:
    """Requests for ``keys`` whose verify and synthesis shares are split
    within every (circuit, width) group, so each group's work is the same
    from pass to pass; the seed picks which members carry the flags."""
    requests = {}
    for members in _groups(keys):
        verify = _flags(len(members), VERIFY_SHARE, rng)
        synth = _flags(len(members), SYNTH_SHARE, rng)
        for key, v, s in zip(members, verify, synth):
            requests[key["name"]] = request(key, kind="synthesize" if s else "decompose",
                                            verify=v, objective=rng.choice(OBJECTIVES))
    return requests


def cold_passes(table: dict, stream: str) -> Iterator[List[dict]]:
    """Endless passes over every drawable key, each in a balanced order
    seeded by ``stream``.

    Within a pass every decomposition key appears once, so a pass run
    against a fresh store misses the cache on every job.
    """
    rng = random.Random(stream)
    keys = drawable(table)
    while True:
        requests = dress_stratified(keys, rng)
        yield [requests[key["name"]] for key in balanced_order(keys, rng)]


#: Family popularity, most requested first: the families of the committed
#: replay mix ``SPEC_MENU`` in ``benchmarks/run_loadgen.py``, ranked by
#: their summed menu weight (majority 13, counter 13, adder 7, lzd 6,
#: lod 6, comparator 5, three_input_adder 4; ties in menu order).  Like the
#: shares above, this is an assumption about traffic, not a measurement.
FAMILY_POPULARITY = ("majority", "counter", "adder", "lzd", "lod", "comparator",
                     "three_input_adder")


def warm_keys(table: dict) -> List[dict]:
    """The warm catalogue, in Zipf rank order (most popular first).

    Every (circuit, width) at the default options, ranked round-robin over
    :data:`FAMILY_POPULARITY`: each family's narrowest width first, then its
    next width, and so on (the menu weights a family's narrower specs
    higher, as majority-7 at 8 against majority-9 at 2).
    """
    by_name = {key["name"]: key for key in drawable(table)}
    ranked = [(circuit, WIDTHS[circuit][index])
              for index in range(max(len(widths) for widths in WIDTHS.values()))
              for circuit in FAMILY_POPULARITY if index < len(WIDTHS[circuit])]
    return [by_name[key_name(circuit, width, *DEFAULT_OPTIONS)] for circuit, width in ranked]


def churn_keys(table: dict) -> List[dict]:
    """Cold keys for ``mixed_churn``: every drawable non-default variant
    (comparator-13 has none, so two of its 0.5 GB jobs never meet there)."""
    return [key for key in drawable(table)
            if (key["k"], key["use_identities"]) != DEFAULT_OPTIONS]


def churn_stream(table: dict, rng: random.Random) -> Iterator[dict]:
    """Endless cold specs for ``mixed_churn``, each new to the store.

    The first round runs every :func:`churn_keys` key once, in a balanced
    order.  Later rounds repeat the keys with ``max_iterations`` set to
    ``128 + round``: the result is unchanged but the spec is new (herds
    count down from :data:`HERD_MAX_ITERATIONS`, so the two never meet).
    """
    keys = churn_keys(table)
    for round_no in itertools.count():
        for key in balanced_order(keys, rng):
            spec = dress(key, rng)
            if round_no:
                spec["options"]["max_iterations"] = 128 + round_no
            yield spec


#: The computation every herd in ``mixed_churn`` asks for (a cold
#: comparator-12 job, about 0.6 s), minted fresh for each herd through
#: ``max_iterations`` so that herds cost the same in every run.
HERD_KEY = "comparator-12-k4-noid"
#: ``max_iterations`` of the first herd; each later herd counts down by one.
#: The key converges in far fewer iterations, so its result is unchanged.
HERD_MAX_ITERATIONS = 127


def _flags(total: int, share: float, rng: random.Random) -> List[bool]:
    """``total`` flags of which ``total * share`` are set, rounded up or down
    at random (so the share holds on average), in a seeded order."""
    exact = total * share
    count = int(exact) + (rng.random() < exact - int(exact))
    flags = [index < count for index in range(total)]
    rng.shuffle(flags)
    return flags


def zipf_requests(keys: List[dict], n: int, rng: random.Random) -> List[dict]:
    """``n`` requests over ``keys`` with Zipf(s=1) weights by list position.

    Counts are stratified rather than drawn one by one: each key gets its
    share of ``n`` (rounded at random), and within a key the verify and
    synthesis shares are split the same way.  Every run of a phase then
    offers the same mix; the seed moves the order, the rounding and which
    occurrences carry which flags.
    """
    weights = [1.0 / rank for rank in range(1, len(keys) + 1)]
    scale = n / sum(weights)
    counts = [int(w * scale) for w in weights]
    # Largest remainders first; ties broken at random.
    order = sorted(range(len(keys)),
                   key=lambda i: (counts[i] - weights[i] * scale, rng.random()))
    for i in order[:n - sum(counts)]:
        counts[i] += 1
    requests = []
    for key, count in zip(keys, counts):
        verify = _flags(count, VERIFY_SHARE, rng)
        synth = _flags(count, SYNTH_SHARE, rng)
        for v, s in zip(verify, synth):
            requests.append(request(key, kind="synthesize" if s else "decompose", verify=v,
                                    objective=rng.choice(OBJECTIVES)))
    rng.shuffle(requests)
    return requests


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
DECOMPOSITION_FIELDS = ("blocks", "levels", "block_literals", "output_literals")
SYNTHESIS_FIELDS = ("area", "delay", "cells")


def check_result(table: dict, spec: dict, result: Optional[dict]) -> List[str]:
    """Every way ``result`` differs from the table for ``spec`` ([] if none).

    ``spec`` is the request as executed (after any brownout degradation).
    """
    if not isinstance(result, dict):
        return ["no result"]
    entry = table["keys"].get(spec_key_name(spec))
    if entry is None or not entry["converged"]:
        return [f"{spec_key_name(spec)} is not in the expected table"]
    problems = []
    for field in ("circuit", "width", "kind"):
        if result.get(field) != spec.get(field, "decompose" if field == "kind" else None):
            problems.append(f"{field}: {result.get(field)!r} != {spec.get(field)!r}")
    for field in DECOMPOSITION_FIELDS:
        if result.get(field) != entry[field]:
            problems.append(f"{field}: {result.get(field)!r} != {entry[field]!r}")
    if spec.get("verify") and result.get("verified") is not True:
        problems.append(f"verified: {result.get('verified')!r}")
    if spec.get("kind") == "synthesize":
        synthesis = entry["synthesis"][spec.get("objective", "balanced")]
        for field in SYNTHESIS_FIELDS:
            if result.get(field) != synthesis[field]:
                problems.append(f"{field}: {result.get(field)!r} != {synthesis[field]!r}")
    return problems
