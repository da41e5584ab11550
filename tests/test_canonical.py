"""Parity of the packed-slab spec digest with the dict-table reference.

``canonical_spec_digest`` hashes the packed ``uint64`` term slabs directly
(identity relabelling) or after a vectorised bit gather.  The per-chunk
dict-table path, ``_canonical_parts``, is the reference: it is what the
digest used before the slab path existed and what specs with terms wider
than 64 bits still use.  Digests key every on-disk result cache, so the two
paths must agree byte for byte, and the builder digests pinned below must
never move.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.anf import Anf, Context, canonical
from repro.anf.canonical import canonical_spec_digest
from repro.anf.termmatrix import TermMatrix
from repro.engine.batch import _spec_parts
from repro.service.jobs import CIRCUITS


def reference_digest(outputs, input_words=None) -> str:
    """The digest with the slab path switched off (dict-table remap only)."""
    with mock.patch.object(canonical, "_packed_parts", lambda outputs: None):
        return canonical_spec_digest(outputs, input_words)


def assert_parts_match_reference(outputs) -> None:
    parts = canonical._packed_parts(outputs)
    assert parts is not None
    names, slabs = parts
    ref_names, rendered = canonical._canonical_parts(outputs)
    assert names == ref_names
    assert {port: rows.tolist() for port, rows in slabs.items()} == rendered


def make_anf(ctx: Context, terms, packed: bool) -> Anf:
    """Frozenset-backed, or matrix-only as the packed backend builds them."""
    expr = Anf(ctx, terms)
    if packed:
        return Anf._from_matrix(ctx, TermMatrix.from_terms(expr.terms))
    return expr


def relabel(expr: Anf, ctx: Context) -> Anf:
    """``expr`` rebuilt over the same variable names in ``ctx``."""
    terms = [
        sum(1 << ctx.index(name) for name in expr.ctx.names_of(term))
        for term in expr.term_list()
    ]
    return make_anf(ctx, terms, packed=True)


@st.composite
def specs(draw, max_vars: int = 20):
    """A random multi-output spec in a context it may share with others.

    Variables outside the spec's support (tags declared first, unused
    declarations in between, a second problem's inputs) shift the support
    away from bits ``0..n-1`` and force the gather path; a spec alone in its
    context takes the identity path.
    """
    declared = draw(st.lists(st.booleans(), min_size=0, max_size=max_vars))
    ctx = Context()
    support = []
    for index, used in enumerate(declared):
        ctx.add_var(f"v{index}")
        if used:
            support.append(index)
    bits = [1 << index for index in support]
    subsets = st.lists(st.booleans(), min_size=len(bits), max_size=len(bits)).map(
        lambda picks: sum(bit for bit, pick in zip(bits, picks) if pick)
    )
    ports = draw(st.lists(st.sampled_from("abcdefg"), unique=True, max_size=4))
    outputs = {}
    for port in ports:
        terms = draw(st.one_of(
            st.just([]),  # the zero function
            st.just([0]),  # the constant one
            st.lists(subsets, max_size=40),
        ))
        outputs[port] = make_anf(ctx, terms, packed=draw(st.booleans()))
    names = [ctx.name(index) for index in support]
    words = draw(st.one_of(
        st.none(),
        st.lists(st.lists(st.sampled_from(names), max_size=3), max_size=3)
        if names else st.just([]),
    ))
    return outputs, words


class TestPackedDigestParity:
    @given(specs())
    @settings(max_examples=300, deadline=None)
    def test_digest_matches_reference(self, spec):
        outputs, words = spec
        assert canonical_spec_digest(outputs, words) == reference_digest(outputs, words)
        assert_parts_match_reference(outputs)

    @given(specs(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_context_shared_with_another_problem(self, spec, extra):
        # Another problem's inputs declared first shift the support off
        # bits 0..n-1; they must not enter the digest.
        outputs, words = spec
        assume(outputs)
        source = next(iter(outputs.values())).ctx
        shared = Context([f"other{i}" for i in range(extra)] + list(source.names))
        moved = {port: relabel(expr, shared) for port, expr in outputs.items()}
        assert_parts_match_reference(moved)
        digest = canonical_spec_digest(moved, words)
        assert digest == reference_digest(moved, words)
        assert digest == canonical_spec_digest(outputs, words)

    def test_empty_outputs(self):
        assert canonical_spec_digest({}) == reference_digest({})
        assert canonical_spec_digest({}, []) == reference_digest({}, [])

    def test_identity_support_hashes_rows_in_place(self):
        ctx = Context(["a", "b", "c"])
        outputs = {"f": make_anf(ctx, [0b011, 0b100, 0b111], packed=True)}
        names, slabs = canonical._packed_parts(outputs)
        assert names == ["a", "b", "c"]
        assert slabs["f"].base is not None  # a view of the slab, not a copy
        assert canonical_spec_digest(outputs) == reference_digest(outputs)


class TestWideContextFallback:
    @given(st.integers(min_value=65, max_value=80), st.data())
    @settings(max_examples=40, deadline=None)
    def test_terms_past_bit_63_take_the_reference_path(self, width, data):
        ctx = Context([f"x{i}" for i in range(width)])
        high = data.draw(st.integers(min_value=64, max_value=width - 1))
        low = data.draw(st.lists(st.integers(min_value=0, max_value=63),
                                 unique=True, max_size=5))
        terms = [1 << high] + [1 << index for index in low] + [(1 << high) | 1]
        outputs = {"f": Anf(ctx, terms)}
        assert canonical._packed_parts(outputs) is None
        # The same functions in a small context pack, and hash the same.
        small = Context([ctx.name(index) for index in sorted(set(low) | {0, high})])
        packed = {"f": relabel(outputs["f"], small)}
        assert canonical._packed_parts(packed) is not None
        assert canonical_spec_digest(outputs) == canonical_spec_digest(packed)


#: Digests of every service circuit at the widths ``perfbench/catalogue.py``
#: draws, computed by the dict-table digest before the slab path existed.
#: Existing result caches are keyed by these values.
GOLDEN_DIGESTS = {
    "adder-11": "b455f064229908277c9b7da86fc037dcaa3fd2d583482fc217136beeb9f69efd",
    "adder-12": "10fa8f67ae9dab98d093057d05828bc90a7c8808580845874595f43b4688ea5c",
    "comparator-12": "e6b2a7a97a6c74f456528503147f30951ea66db93cad1678918a6c374ec35fc8",
    "comparator-13": "03569c62048a3b78ffd3f1da402420c686f0ff70262d104b4ed221ebd92ae992",
    "counter-14": "5697b31e8f8a6cc093ece0176ad1ccf800cbf8f94680b3317a5bf59e6af7fa6e",
    "counter-15": "3cd845b4e754ce93c16572339410dd5d524204c870e139ba9392f53e41f5e6da",
    "counter-16": "096b3d6dcb6c721465bb168350c0b8715c997018edddedbfe5d8476e23f12282",
    "lod-18": "67e2f659f80cf448c80de8654369a13cd05c66342f9857bbe87456693d67c61c",
    "lod-19": "995a2a5c37b7ef87387b215c4f0f18aa9c58fa8ca5410027d0f65be4bc5e833b",
    "lod-20": "a6404e5d8a5fb8096416775b26e4f9551e89b6b7b5741177777c051b44dbeee7",
    "lzd-14": "7ce7e0253a25c1355d9b727d57455ce44882f88d204498224b401466649077dd",
    "lzd-15": "c764b3e533ccfde478322dedad0538820687cf7dec06006dcd2332fb1f8db6fb",
    "lzd-16": "6c3be37c81dda167e0e404b328d231f3976596aeb2cbf755ab7f16326032bc59",
    "majority-13": "22061ac55ecb2c826cb175a376f89e93077fd15e635aad57c387c4356651565b",
    "majority-14": "54ce5d7215ae3e05e060ab74e46ccc9da24ba641df0b8cd0a1dd24c8f383f64a",
    "majority-15": "9ce21f4aa8ca6e014de3c83692ae078b44a13e5adbd8248241ae4b74078029dc",
    "three_input_adder-6": "a536c2b79eb4a73fd0bb5bf1c2d677944222846176ee231225a6b33f9ff3e639",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_builder_digests_are_pinned(key):
    circuit, width = key.rsplit("-", 1)
    outputs, words = _spec_parts(CIRCUITS[circuit](int(width)))
    assert canonical._packed_parts(outputs) is not None
    assert canonical_spec_digest(outputs, words) == GOLDEN_DIGESTS[key]
