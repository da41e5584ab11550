"""On-disk result caches for decomposition and synthesis runs.

Decomposition entries are keyed by ``sha256(spec digest + pipeline config)``
— the spec digest is the canonical, context-independent hash of the output
functions (:func:`repro.anf.canonical_spec_digest`) and the config key is the
pipeline's exact pass configuration.  The stored value is a full JSON
serialisation of the :class:`~repro.core.decompose.Decomposition`, including
the per-iteration trace, so a warm cache reproduces the cold result exactly
(modulo the identity of the ``Context`` object, which is rebuilt with the
same variable ordering so all monomial bitmasks survive round-tripping).

:class:`SynthesisCache` applies the same recipe to the synthesis stage of
the evaluation flows: records are keyed by a canonical digest of the
*design* being synthesised (a decomposition's structure, a specification's
canonical spec digest, or a structural netlist) plus the synthesis
parameters and a fingerprint of the cell library, and hold the metric
surface of a :class:`~repro.synth.synthesize.SynthesisResult` (area, delay,
cell and depth counts) — warm Table-1/figure re-runs skip technology mapping
and timing entirely.

Writes are atomic (tmp file + rename), so many orchestrator workers can
share one cache directory without locking.  For *shared storage* with
concurrent writers from several machines, two opt-in hardening knobs exist:
``REPRO_CACHE_LOCK=1`` takes an advisory ``fcntl`` lock on ``<root>/.lock``
around every write (tmp create → rename), so index updates and record
stores from different hosts serialise instead of interleaving, and
``REPRO_CACHE_FSYNC=1`` fsyncs the record file and its directory before the
rename is considered durable (crash-consistency on filesystems that reorder
metadata).  Readers never need either: a record is only visible complete.

Torn or corrupt records (a killed writer on a non-atomic filesystem, bad
blocks, a foreign file at a key path) are *quarantined*: the damaged file is
atomically renamed to ``<name>.corrupt`` next to where it lay, the lookup
reports a miss (so the caller recomputes), and the telemetry ``corrupt``
counter advances — silent recompute loops on a poisoned record are visible
instead of invisible.  Write/read paths carry named fault-injection sites
(``cache.store``, ``cache.store.payload``, ``cache.store.rename``,
``cache.index.*``, ``cache.load`` — see :mod:`repro.faults`), which the
crash-consistency property tests drive.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional

from .. import faults

from ..anf.context import Context
from ..anf.expression import Anf
from ..core.decompose import Block, Decomposition, DecompositionOptions, IterationRecord
from ..core.identities import Identity

SCHEMA = "repro-decomposition-v1"

#: Folded into every cache key (content and job index).  Cache keys carry no
#: automatic code fingerprint, so bump this whenever an engine change is
#: *allowed* to alter decomposition results — every existing cache entry is
#: invalidated at once.  (Behaviour-preserving changes need no bump; the
#: parity tests enforce that they really are behaviour-preserving.)
ENGINE_CACHE_EPOCH = "epoch-1"


# ----------------------------------------------------------------------
# Decomposition (de)serialisation
# ----------------------------------------------------------------------
def _anf_to_list(expr: Anf) -> List[int]:
    return expr.sorted_term_list()


def _anf_from_list(ctx: Context, terms: List[int]) -> Anf:
    return Anf._raw(ctx, frozenset(terms))


def serialize_decomposition(decomposition: Decomposition) -> dict:
    """Full JSON-serialisable rendering of a decomposition result."""
    return {
        "schema": SCHEMA,
        "names": list(decomposition.ctx.names),
        "options": asdict(decomposition.options),
        "primary_inputs": list(decomposition.primary_inputs),
        "original": {
            port: _anf_to_list(expr) for port, expr in decomposition.original.items()
        },
        "outputs": {
            port: _anf_to_list(expr) for port, expr in decomposition.outputs.items()
        },
        "blocks": [
            {
                "name": block.name,
                "level": block.level,
                "definition": _anf_to_list(block.definition),
                "group": list(block.group),
            }
            for block in decomposition.blocks
        ],
        "iterations": [
            {
                "index": record.index,
                "group": list(record.group),
                "basis_definitions": [_anf_to_list(e) for e in record.basis_definitions],
                "block_names": list(record.block_names),
                "substitutions": [_anf_to_list(e) for e in record.substitutions],
                "identities_found": [
                    {
                        "expr": _anf_to_list(identity.expr),
                        "kind": identity.kind,
                        "description": identity.description,
                    }
                    for identity in record.identities_found
                ],
                "removed_blocks": {
                    name: _anf_to_list(expr)
                    for name, expr in record.removed_blocks.items()
                },
                "size_before": record.size_before,
                "size_after": record.size_after,
            }
            for record in decomposition.iterations
        ],
    }


def deserialize_decomposition(data: dict) -> Decomposition:
    """Rebuild a decomposition in a fresh :class:`Context`.

    The context declares the recorded variable names in their original order,
    so every stored monomial bitmask is valid as-is.
    """
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unsupported decomposition record schema: {data.get('schema')!r}")
    ctx = Context(data["names"])
    options = DecompositionOptions(**data["options"])
    blocks = [
        Block(
            name=entry["name"],
            level=entry["level"],
            definition=_anf_from_list(ctx, entry["definition"]),
            group=list(entry["group"]),
        )
        for entry in data["blocks"]
    ]
    iterations = [
        IterationRecord(
            index=entry["index"],
            group=list(entry["group"]),
            basis_definitions=[_anf_from_list(ctx, e) for e in entry["basis_definitions"]],
            block_names=list(entry["block_names"]),
            substitutions=[_anf_from_list(ctx, e) for e in entry["substitutions"]],
            identities_found=[
                Identity(
                    expr=_anf_from_list(ctx, identity["expr"]),
                    kind=identity["kind"],
                    description=identity["description"],
                )
                for identity in entry["identities_found"]
            ],
            removed_blocks={
                name: _anf_from_list(ctx, e)
                for name, e in entry["removed_blocks"].items()
            },
            size_before=entry["size_before"],
            size_after=entry["size_after"],
        )
        for entry in data["iterations"]
    ]
    return Decomposition(
        ctx=ctx,
        original={port: _anf_from_list(ctx, e) for port, e in data["original"].items()},
        outputs={port: _anf_from_list(ctx, e) for port, e in data["outputs"].items()},
        blocks=blocks,
        iterations=iterations,
        options=options,
        primary_inputs=list(data["primary_inputs"]),
    )


#: Advisory-lock and durability knobs for shared-storage cache directories.
LOCK_ENV = "REPRO_CACHE_LOCK"
FSYNC_ENV = "REPRO_CACHE_FSYNC"


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false", "no", "off")


@contextmanager
def _cache_lock(root: Path):
    """Advisory exclusive lock on ``<root>/.lock`` when ``REPRO_CACHE_LOCK`` is set.

    A no-op by default (atomic renames already keep single-host writers
    safe), and degrades to a no-op where ``fcntl`` does not exist.
    """
    if not _env_truthy(LOCK_ENV):
        yield
        return
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    with open(root / ".lock", "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - directory fsync is best-effort
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _atomic_write_bytes(root: Path, path: Path, payload: bytes, site: str) -> None:
    """Write ``payload`` via tmp-file + rename (crash-safe), with fault sites.

    ``site`` names the fault-injection point family: ``<site>`` fires before
    anything is written, ``<site>.payload`` may tear the bytes, and
    ``<site>.rename`` sits in the crash window between the tmp write and the
    atomic rename (a ``skip`` fault there abandons the rename exactly as a
    crash would, leaving the tmp file behind and the record absent).
    """
    tag = path.name
    faults.hit(site, tag=tag)
    payload = faults.mutate(f"{site}.payload", payload, tag=tag)
    directory = path.parent
    with _cache_lock(root):
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                if _env_truthy(FSYNC_ENV):
                    handle.flush()
                    os.fsync(handle.fileno())
            if faults.should_skip(f"{site}.rename", tag=tag):
                return  # simulated crash: tmp file left, record never lands
            os.replace(tmp_path, path)
            if _env_truthy(FSYNC_ENV):
                _fsync_dir(directory)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise


def _atomic_json_dump(root: Path, path: Path, data: dict,
                      site: str = "cache.store") -> None:
    """Write ``data`` as compact JSON via tmp-file + rename (crash-safe)."""
    payload = json.dumps(data, separators=(",", ":")).encode("utf-8")
    _atomic_write_bytes(root, path, payload, site)


# ----------------------------------------------------------------------
# Hit/miss telemetry
# ----------------------------------------------------------------------
class CacheTelemetry:
    """Shared hit/miss/store counters a cache instance can report into.

    Both caches accept an optional ``telemetry`` object and record every
    *lookup* (a raw-record read counts once even when the caller also
    deserialises it) plus every store.  One telemetry object may be shared
    by several cache instances — e.g. a decomposition cache and the
    synthesis cache living under the same store — to aggregate a service's
    overall hit rate.  Counter bumps are single bytecode increments, so the
    object is safe to share across threads for monitoring purposes;
    cross-process aggregation is the caller's job (the service sums
    worker-reported outcomes instead).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Torn/invalid records quarantined to ``*.corrupt`` sidecars.
        self.corrupt = 0

    def record_lookup(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def record_store(self) -> None:
        self.stores += 1

    def record_corrupt(self) -> None:
        self.corrupt += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 with no lookups)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CacheTelemetry(hits={self.hits}, misses={self.misses}, "
                f"stores={self.stores}, corrupt={self.corrupt})")


def corrupt_record_count(root: str | os.PathLike) -> int:
    """How many quarantined ``*.corrupt`` sidecars live under ``root``.

    Counts recursively (records, job index, synthesis sub-store), so a
    service can report shared-store damage even when the quarantining
    happened inside short-lived worker processes.
    """
    root_path = Path(root)
    if not root_path.is_dir():
        return 0
    return sum(1 for _ in root_path.rglob("*.corrupt"))


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------
def cache_key(spec_digest: str, config_key: str) -> str:
    """Combined cache key for (specification, pipeline configuration)."""
    combined = f"{SCHEMA}\n{ENGINE_CACHE_EPOCH}\n{spec_digest}\n{config_key}"
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()


class DecompositionCache:
    """Directory of ``<key>.json`` decomposition records.

    ``telemetry`` (optional) receives a lookup event per ``load``/``load_raw``
    call and a store event per write — the hook the service's ``/metrics``
    endpoint and any shared-store monitoring hang off.
    """

    def __init__(self, root: str | os.PathLike,
                 telemetry: CacheTelemetry | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.telemetry = telemetry

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def load(self, key: str) -> Optional[Decomposition]:
        """The cached decomposition for ``key``, or ``None``.

        A corrupt, truncated, or structurally invalid record (e.g. from a
        killed writer on a filesystem without atomic rename, or a foreign
        file at the key path) is treated as a miss and quarantined to a
        ``*.corrupt`` sidecar so the damage is visible and never re-read.
        """
        raw = self.load_raw(key)
        if raw is None:
            return None
        try:
            return deserialize_decomposition(raw)
        except (KeyError, TypeError, ValueError):
            self._quarantine(self._path(key))
            return None

    def load_raw(self, key: str) -> Optional[dict]:
        """The cached serialised record for ``key``, or ``None``.

        Records that parse but do not look like decomposition records (wrong
        schema, missing sections — e.g. a foreign or truncated file at the
        key path) are treated as misses, so callers that ship raw records
        across processes don't crash on deserialisation.
        """
        record = self._read_record(key)
        if self.telemetry is not None:
            self.telemetry.record_lookup(record is not None)
        return record

    def _quarantine(self, path: Path) -> None:
        """Atomically move a damaged record aside as ``<name>.corrupt``."""
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            return  # a concurrent reader already moved it, or it vanished
        if self.telemetry is not None:
            self.telemetry.record_corrupt()

    def _read_record(self, key: str) -> Optional[dict]:
        path = self._path(key)
        try:
            faults.hit("cache.load", tag=path.name)
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            return None  # transient I/O failure: miss, but nothing to blame
        try:
            record = json.loads(raw)
        except ValueError:
            self._quarantine(path)
            return None
        required = ("names", "options", "primary_inputs", "original",
                    "outputs", "blocks", "iterations")
        if (not isinstance(record, dict) or record.get("schema") != SCHEMA
                or any(field_name not in record for field_name in required)):
            self._quarantine(path)
            return None
        return record

    def store(self, key: str, decomposition: Decomposition) -> dict:
        """Serialise and persist a result; returns the stored record."""
        data = serialize_decomposition(decomposition)
        self.store_raw(key, data)
        return data

    def store_raw(self, key: str, data: dict) -> None:
        """Atomically persist an already-serialised record."""
        _atomic_json_dump(self.root, self._path(key), data)
        if self.telemetry is not None:
            self.telemetry.record_store()

    # ------------------------------------------------------------------
    # Job index: fingerprint of (builder, args, config) -> content key.
    #
    # The content-addressed records above are the source of truth; the index
    # is a shortcut that lets orchestrator workers skip rebuilding and
    # re-hashing a specification they have produced before.  It trusts spec
    # builders to be deterministic — delete the cache directory (or disable
    # the index) after changing a builder's semantics.
    # ------------------------------------------------------------------
    def _index_path(self, job_key: str) -> Path:
        return self.root / "index" / f"{job_key}.key"

    def load_index(self, job_key: str) -> Optional[str]:
        """The content key recorded for a job fingerprint, or ``None``."""
        try:
            content_key = self._index_path(job_key).read_text().strip()
        except OSError:
            return None
        return content_key or None

    def store_index(self, job_key: str, content_key: str) -> None:
        """Atomically record a job fingerprint -> content key association."""
        index_dir = self.root / "index"
        index_dir.mkdir(exist_ok=True)
        _atomic_write_bytes(
            self.root, self._index_path(job_key),
            content_key.encode("utf-8"), site="cache.index",
        )

    def clear(self) -> int:
        """Delete every record (and the job index); returns how many records."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        for pattern in ("index/*.key", "*.corrupt", "index/*.corrupt"):
            for path in self.root.glob(pattern):
                path.unlink()
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# ----------------------------------------------------------------------
# Synthesis-result cache (the evaluation flows' warm path)
# ----------------------------------------------------------------------
SYNTH_SCHEMA = "repro-synthesis-v1"

#: Metric fields every synthesis record must carry.
SYNTH_METRIC_FIELDS = ("area", "delay", "cells", "depth")


def decomposition_digest(decomposition) -> str:
    """Canonical digest of the *structure* a decomposition hands to synthesis.

    Hashes exactly what :func:`repro.core.structure.decomposition_to_netlist`
    consumes — blocks (name, level, group, definition), outputs and primary
    inputs — rendered through variable *names* (``to_str`` renders sorted
    canonical terms), so the digest is context- and process-independent and
    never touches the giant ``original`` expressions.
    """
    digest = hashlib.sha256()
    for block in decomposition.blocks:
        digest.update(
            f"{block.name}@{block.level}[{','.join(block.group)}]"
            f"={block.definition.to_str()}\n".encode("utf-8")
        )
    for port in sorted(decomposition.outputs):
        digest.update(f"{port}={decomposition.outputs[port].to_str()}\n".encode("utf-8"))
    digest.update("|".join(decomposition.primary_inputs).encode("utf-8"))
    return digest.hexdigest()


def netlist_digest(netlist) -> str:
    """Canonical digest of a structural netlist (inputs, gates, outputs)."""
    digest = hashlib.sha256()
    digest.update("|".join(netlist.inputs).encode("utf-8"))
    for gate in netlist.gates:
        digest.update(f"\n{gate.output}={gate.op}({','.join(gate.inputs)})".encode("utf-8"))
    for port in sorted(netlist.outputs):
        digest.update(f"\n{port}:{netlist.outputs[port]}".encode("utf-8"))
    return digest.hexdigest()


def library_fingerprint(library) -> str:
    """Stable fingerprint of a cell library's timing/area model."""
    cells = ";".join(
        f"{cell.name}:{cell.op}/{cell.arity}:{cell.area}:{cell.delay}:{cell.load_delay}"
        for _, cell in sorted(library.cells.items())
    )
    return hashlib.sha256(f"{library.name}|{cells}".encode("utf-8")).hexdigest()


def synthesis_cache_key(design_digest: str, library_fp: str, params: dict) -> str:
    """Combined cache key for (design, library, synthesis parameters)."""
    rendered = "|".join(f"{key}={params[key]!r}" for key in sorted(params))
    combined = (
        f"{SYNTH_SCHEMA}\n{ENGINE_CACHE_EPOCH}\n{design_digest}\n{library_fp}\n{rendered}"
    )
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()


class SynthesisCache:
    """Directory of ``<key>.json`` synthesis metric records.

    Records hold the metric surface of a synthesis run (``area``, ``delay``,
    ``cells``, ``depth`` plus the design name), not the mapped netlist:
    everything the evaluation tables and figures read from a
    :class:`~repro.eval.flows.FlowResult`, at a fraction of the bytes.
    Corrupt or foreign records are treated as misses, exactly like
    :class:`DecompositionCache`; an optional ``telemetry`` object receives
    the same lookup/store events.
    """

    def __init__(self, root: str | os.PathLike,
                 telemetry: CacheTelemetry | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.telemetry = telemetry

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        """The cached metric record for ``key``, or ``None``."""
        record = self._read_record(key)
        if self.telemetry is not None:
            self.telemetry.record_lookup(record is not None)
        return record

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            return
        if self.telemetry is not None:
            self.telemetry.record_corrupt()

    def _read_record(self, key: str) -> Optional[dict]:
        path = self._path(key)
        try:
            faults.hit("cache.load", tag=path.name)
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            record = json.loads(raw)
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(record, dict) or record.get("schema") != SYNTH_SCHEMA:
            self._quarantine(path)
            return None
        for field_name in SYNTH_METRIC_FIELDS:
            value = record.get(field_name)
            # bool is an int subclass; a true/false metric is still corrupt.
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                self._quarantine(path)
                return None
        return record

    def store(self, key: str, metrics: dict) -> dict:
        """Atomically persist a metric record; returns the stored record."""
        record = {"schema": SYNTH_SCHEMA, **metrics}
        _atomic_json_dump(self.root, self._path(key), record)
        if self.telemetry is not None:
            self.telemetry.record_store()
        return record

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        for path in self.root.glob("*.corrupt"):
            path.unlink()
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
