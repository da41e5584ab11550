"""Canonical, context-independent hashing of multi-output specifications.

The Reed-Muller form is canonical (two expressions denote the same function
iff their monomial sets are equal), so a specification has a well-defined
digest.  The canonical form relabels the support variables *densely in
declaration order*: bit *i* of a canonical monomial is the *i*-th support
variable as declared.  Two specs built in different contexts or processes —
e.g. by re-running the same deterministic builder — hash equal exactly when
they denote the same functions over the same named inputs declared in the
same order; variables outside the support (tags, other problems sharing the
context) never influence the digest.

Declaration order is deliberately part of the key: ``findGroup`` iterates
candidates and breaks ties in declaration order (and the default input word
is the declaration-ordered support), so the same functions declared in a
different order can legitimately decompose differently.  Folding order into
the digest keeps the result-cache contract exact — a warm hit is always the
result the cold run would have produced.

Flat Reed-Muller specs can carry hundreds of thousands of monomials (the
15-bit comparator is megabytes of terms), so the digest runs over the packed
``uint64`` term slabs the spec already lives in
(:meth:`~repro.anf.expression.Anf.term_matrix`), viewed through numpy
without a copy.  When the declaration-ordered support is exactly bits
``0..n-1`` of the context — every builder spec — the rows are already the
canonical masks in ascending order and are hashed as they lie.  Otherwise
the support bits are gathered into dense positions with one vectorised
shift-and-mask per distinct shift; the relabelling preserves bit order, so
the rows stay sorted.  Either way each mask is hashed as its low
``mask_bytes`` little-endian bytes.

Specs with a term wider than 64 bits (only possible in contexts of more
than 64 variables) do not pack; they take the reference path,
:func:`_canonical_parts`, which remaps masks through precomputed per-chunk
permutation tables and produces the same byte stream.

This digest keys the on-disk result cache of the batch orchestrator
(:mod:`repro.engine.batch`), together with the pipeline's ``config_key``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .expression import Anf

_CHUNK_BITS = 16


def _remap_tables(width: int, perm: Dict[int, int]) -> List[Dict[int, int]]:
    """Per-chunk lookup tables applying the bit permutation ``perm``.

    ``perm`` maps source bit positions to canonical bit positions (only bits
    that can actually occur need entries).  Table ``c`` maps every value of
    the ``c``-th :data:`_CHUNK_BITS`-bit chunk of a source mask to its
    remapped image, so remapping a mask costs one lookup per chunk instead
    of one iteration per set bit.
    """
    tables: List[Dict[int, int]] = []
    for base in range(0, max(width, 1), _CHUNK_BITS):
        chunk_bits = [
            (1 << offset, 1 << perm[base + offset])
            for offset in range(min(_CHUNK_BITS, width - base))
            if base + offset in perm
        ]
        table = {0: 0}
        for source_bit, target_bit in chunk_bits:
            # Extend the table by this bit: every existing entry, with and
            # without the new bit set.
            for value, image in list(table.items()):
                table[value | source_bit] = image | target_bit
        tables.append(table)
    return tables


def _canonical_parts(
    outputs: Mapping[str, Anf],
) -> tuple[List[str], Dict[str, List[int]]]:
    """Declaration-ordered support names and densely relabelled term masks."""
    if not outputs:
        return [], {}
    first = next(iter(outputs.values()))
    ctx = first.ctx
    support_mask = 0
    for expr in outputs.values():
        ctx.require_same(expr.ctx)
        support_mask |= expr.support_mask
    names = list(ctx.names_of(support_mask))
    perm = {ctx.index(name): position for position, name in enumerate(names)}
    tables = _remap_tables(len(ctx), perm)
    chunk_mask = (1 << _CHUNK_BITS) - 1
    rendered: Dict[str, List[int]] = {}
    for port in sorted(outputs):
        terms = outputs[port].terms
        # Flat Reed-Muller specs run to ~10^6 monomials, so the one- and
        # two-chunk cases (up to 32 variables) get loop-free remaps.
        if len(tables) == 1:
            table = tables[0]
            remapped = [table[mask] for mask in terms]
        elif len(tables) == 2:
            low, high = tables
            remapped = [
                low[mask & chunk_mask] | high[mask >> _CHUNK_BITS] for mask in terms
            ]
        else:
            remapped = []
            for mask in terms:
                canonical = 0
                chunk = 0
                while mask:
                    canonical |= tables[chunk][mask & chunk_mask]
                    mask >>= _CHUNK_BITS
                    chunk += 1
                remapped.append(canonical)
        remapped.sort()
        rendered[port] = remapped
    return names, rendered


def canonical_spec_payload(
    outputs: Mapping[str, Anf],
    input_words: Sequence[Sequence[str]] | None = None,
) -> dict:
    """The canonical form of a specification as a JSON-serialisable dict.

    ``support`` lists the support variables in declaration order; monomial
    bit *i* refers to ``support[i]``.
    """
    names, rendered = _canonical_parts(outputs)
    payload: dict = {"support": names, "outputs": rendered}
    if input_words is not None:
        payload["input_words"] = [list(word) for word in input_words]
    return payload


def _packed_parts(
    outputs: Mapping[str, Anf],
) -> Optional[Tuple[List[str], Dict[str, np.ndarray]]]:
    """:func:`_canonical_parts` over the packed slabs, as ``uint64`` arrays.

    Returns ``None`` when some port has a term wider than 64 bits.
    """
    if not outputs:
        return [], {}
    ctx = next(iter(outputs.values())).ctx
    support_mask = 0
    slabs: Dict[str, np.ndarray] = {}
    for port in sorted(outputs):
        expr = outputs[port]
        ctx.require_same(expr.ctx)
        matrix = expr.term_matrix(build=True)
        if matrix is None:
            return None
        support_mask |= expr.support_mask
        slabs[port] = np.frombuffer(matrix.words, dtype=np.uint64)
    names = list(ctx.names_of(support_mask))
    if support_mask == (1 << len(names)) - 1:
        # Identity relabelling: the sorted rows already are the canonical masks.
        return names, slabs
    # Gather the support bits into dense positions; bits sharing a shift
    # move together.  Declaration order is index order, so the relabelling
    # keeps every bit's rank: the highest bit in which two masks differ stays
    # the highest, and the gathered rows are still ascending.
    moves: Dict[int, int] = {}
    for position, name in enumerate(names):
        shift = ctx.index(name) - position
        moves[shift] = moves.get(shift, 0) | (1 << position)
    for port, rows in slabs.items():
        canonical = np.zeros_like(rows)
        for shift, mask in moves.items():
            canonical |= (rows >> np.uint64(shift)) & np.uint64(mask)
        slabs[port] = canonical
    return names, slabs


def _mask_bytes_of(rows, mask_bytes: int) -> bytes:
    """Each mask as ``mask_bytes`` little-endian bytes, concatenated."""
    if isinstance(rows, np.ndarray):
        octets = rows.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        return octets[:, :mask_bytes].tobytes()
    return b"".join(mask.to_bytes(mask_bytes, "little") for mask in rows)


def canonical_spec_digest(
    outputs: Mapping[str, Anf],
    input_words: Sequence[Sequence[str]] | None = None,
) -> str:
    """SHA-256 hex digest of the canonical form of a specification."""
    parts = _packed_parts(outputs)
    names, rendered = parts if parts is not None else _canonical_parts(outputs)
    digest = hashlib.sha256()
    header = {"support": names, "ports": sorted(rendered)}
    if input_words is not None:
        header["input_words"] = [list(word) for word in input_words]
    digest.update(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    mask_bytes = (len(names) + 7) // 8 or 1
    for port in sorted(rendered):
        digest.update(port.encode("utf-8") + b"\0")
        digest.update(_mask_bytes_of(rendered[port], mask_bytes))
    return digest.hexdigest()
