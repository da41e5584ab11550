"""Property tests for the ``native`` backend's chunked-kernel layer.

Every chunked primitive in :mod:`repro.anf.nativekernel` must be
bit-identical to its serial twin in :mod:`repro.anf.sortkernel` — at any
thread count, with chunk boundaries forced through small inputs, and on the
degenerate masks (empty, all-bits).  The backend-level tests check that
activating the ``native`` backend installs the chunking module behind the
module-level kernel seam (so *every* caller runs chunked), that terms too
wide to pack still fall back to the set path, that a full engine run is
bit-identical to the ``packed`` backend, and that the retired ``threaded``
backend name is rejected.
"""

import os
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.anf import Context
from repro.anf import cnative, nativekernel, sortkernel
from repro.anf import backend
from repro.anf.backend import get_backend, set_backend, using_backend

terms_strategy = st.lists(
    st.integers(min_value=0, max_value=(1 << 40) - 1), unique=True, max_size=120
)
mask_strategy = st.integers(min_value=0, max_value=(1 << 40) - 1)


def _slab(terms):
    return array(sortkernel.WORD_CODE, sorted(terms))


@pytest.fixture(params=["numpy", "cnative"])
def forced_chunks(request, monkeypatch):
    """Force chunk boundaries through even tiny inputs: 4 workers, 4-row
    chunks, every kernel down the vectorised path — once on the numpy
    floor (extension unloaded) and once on the compiled C core, so every
    chunked primitive is checked against both floors."""
    if request.param == "cnative":
        if not cnative.available():
            pytest.skip("C extension not built")
    else:
        monkeypatch.setattr(cnative, "_C", None)
    monkeypatch.setenv(nativekernel.THREADS_ENV, "4")
    monkeypatch.setattr(nativekernel, "CHUNK_MIN_ROWS", 4)
    monkeypatch.setattr(sortkernel, "KERNEL_MIN_ROWS", 0)
    return 4


class TestThreadCount:
    def test_auto_and_zero_mean_cpu_count(self, monkeypatch):
        for value in ("", "auto", "0", "AUTO"):
            monkeypatch.setenv(nativekernel.THREADS_ENV, value)
            assert nativekernel.thread_count() == (os.cpu_count() or 1)
        monkeypatch.delenv(nativekernel.THREADS_ENV)
        assert nativekernel.thread_count() == (os.cpu_count() or 1)

    def test_explicit_and_malformed_values(self, monkeypatch):
        monkeypatch.setenv(nativekernel.THREADS_ENV, "3")
        assert nativekernel.thread_count() == 3
        monkeypatch.setenv(nativekernel.THREADS_ENV, "-2")
        with pytest.warns(RuntimeWarning, match="out of range"):
            assert nativekernel.thread_count() == (os.cpu_count() or 1)
        monkeypatch.setenv(nativekernel.THREADS_ENV, "many")
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert nativekernel.thread_count() == (os.cpu_count() or 1)

    def test_env_int_warns_on_bad_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_TUNABLE", "not-a-number")
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert nativekernel._env_int("REPRO_TEST_TUNABLE", 1024) == 1024
        monkeypatch.setenv("REPRO_TEST_TUNABLE", "-5")
        with pytest.warns(RuntimeWarning, match="below the minimum"):
            assert nativekernel._env_int("REPRO_TEST_TUNABLE", 1024, minimum=1) == 1
        # In-range and empty values stay silent.
        monkeypatch.setenv("REPRO_TEST_TUNABLE", "17")
        assert nativekernel._env_int("REPRO_TEST_TUNABLE", 1024) == 17
        monkeypatch.setenv("REPRO_TEST_TUNABLE", "")
        assert nativekernel._env_int("REPRO_TEST_TUNABLE", 1024) == 1024

    def test_single_thread_stays_serial(self, monkeypatch):
        """One worker (or a sub-threshold input) must bypass the pool."""
        monkeypatch.setenv(nativekernel.THREADS_ENV, "1")
        assert not nativekernel._chunkable(10**9)
        monkeypatch.setenv(nativekernel.THREADS_ENV, "4")
        assert not nativekernel._chunkable(2 * nativekernel.CHUNK_MIN_ROWS - 1)


class TestChunkedKernelParity:
    """Chunked vs serial, bit for bit, with forced chunk boundaries."""

    @given(terms=terms_strategy, group_mask=mask_strategy)
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_split_runs_by_group(self, forced_chunks, terms, group_mask):
        slab = _slab(terms)
        serial = sortkernel._split_runs_serial(slab, group_mask)
        chunked = nativekernel.split_runs_by_group(slab, group_mask)
        assert list(chunked[1]) == sorted(serial[1])
        assert [(p, list(r)) for p, r in chunked[0]] == [
            (p, list(r)) for p, r in sorted(serial[0])
        ]

    @given(groups=st.lists(terms_strategy, min_size=1, max_size=3),
           group_mask=mask_strategy)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_split_build_by_group(self, forced_chunks, groups, group_mask):
        slabs = [(1 << (50 + i), _slab(g)) for i, g in enumerate(groups)]
        serial = sortkernel._split_build_serial(slabs, group_mask)
        chunked = nativekernel.split_build_by_group(slabs, group_mask)
        assert list(chunked[1]) == list(serial[1])
        assert [(p, list(r)) for p, r in chunked[0]] == [
            (p, list(r)) for p, r in serial[0]
        ]

    @given(terms=terms_strategy)
    @settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_degenerate_masks(self, forced_chunks, terms):
        slab = _slab(terms)
        runs, remainder = nativekernel.split_runs_by_group(slab, 0)
        assert runs == [] and list(remainder) == list(slab)
        all_bits = (1 << 64) - 1
        runs, remainder = nativekernel.split_runs_by_group(slab, all_bits)
        assert sorted(p for p, _ in runs) == sorted(t for t in terms if t)
        assert list(remainder) == ([0] if 0 in terms else [])

    @given(left=terms_strategy, right=terms_strategy)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_xor_merge(self, forced_chunks, left, right):
        merged = nativekernel.xor_merge(_slab(left), _slab(right))
        assert list(merged) == list(
            sortkernel._xor_merge_serial(_slab(left), _slab(right))
        )
        assert list(merged) == sorted(set(left) ^ set(right))

    @given(slabs=st.lists(st.lists(st.integers(min_value=0, max_value=255), max_size=20), max_size=8))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_parity_merge(self, forced_chunks, slabs):
        arrays = [array(sortkernel.WORD_CODE, s) for s in slabs]
        assert list(nativekernel.parity_merge(arrays)) == list(
            sortkernel._parity_merge_serial(arrays)
        )

    @given(large=terms_strategy,
           small=st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                          unique=True, min_size=1, max_size=6))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_product_rows(self, forced_chunks, large, small):
        assert list(nativekernel.product_rows(_slab(large), small)) == list(
            sortkernel._product_rows_serial(_slab(large), small)
        )

    @given(terms=terms_strategy, bit=st.sampled_from([1, 1 << 7, 1 << 39]))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_scatter_tag(self, forced_chunks, terms, bit):
        assert list(nativekernel.scatter_tag(_slab(terms), bit)) == list(
            sortkernel._scatter_tag_serial(_slab(terms), bit)
        )

    @given(left=terms_strategy, right=terms_strategy)
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_shared_literal_count(self, forced_chunks, left, right):
        assert nativekernel.shared_literal_count(
            _slab(left), _slab(right)
        ) == sortkernel._shared_literal_count_serial(_slab(left), _slab(right))

    @given(terms=terms_strategy)
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_popcount_rows(self, forced_chunks, terms):
        assert nativekernel.popcount_rows(_slab(terms)) == sum(
            t.bit_count() for t in terms
        )

    def test_one_vs_many_threads(self, monkeypatch):
        """The same call at 1, 2 and 8 workers returns the same bytes."""
        monkeypatch.setattr(nativekernel, "CHUNK_MIN_ROWS", 8)
        monkeypatch.setattr(sortkernel, "KERNEL_MIN_ROWS", 0)
        slab = _slab(range(1, 1000))
        results = []
        for workers in ("1", "2", "8"):
            monkeypatch.setenv(nativekernel.THREADS_ENV, workers)
            runs, remainder = nativekernel.split_runs_by_group(slab, 0b1011)
            results.append(([(p, list(r)) for p, r in runs], list(remainder)))
        assert results[0] == results[1] == results[2]

    def test_chunk_boundary_exactly_at_threshold(self, monkeypatch):
        """Inputs at exactly ``2 * CHUNK_MIN_ROWS`` take the chunked path."""
        monkeypatch.setenv(nativekernel.THREADS_ENV, "4")
        monkeypatch.setattr(nativekernel, "CHUNK_MIN_ROWS", 16)
        monkeypatch.setattr(sortkernel, "KERNEL_MIN_ROWS", 0)
        assert nativekernel._chunkable(32)
        slab = _slab(range(1, 33))
        serial = sortkernel._split_runs_serial(slab, 0b11)
        chunked = nativekernel.split_runs_by_group(slab, 0b11)
        assert [(p, list(r)) for p, r in chunked[0]] == [
            (p, list(r)) for p, r in serial[0]
        ]
        assert list(chunked[1]) == list(serial[1])


class TestNativeChunkedBackend:
    def test_activation_installs_the_kernel_hook(self):
        # Step out to packed first so activating native is a real transition.
        with using_backend("packed"):
            assert sortkernel._parallel is None
            with using_backend("native"):
                assert sortkernel._parallel is nativekernel
                assert get_backend().name == "native"
            assert sortkernel._parallel is None

    def test_retired_threaded_backend_is_rejected(self):
        with pytest.raises(ValueError, match="native"):
            set_backend("threaded")

    def test_retired_threaded_backend_is_rejected_from_env(self, monkeypatch):
        monkeypatch.setenv(backend.BACKEND_ENV, "threaded")
        with pytest.raises(ValueError, match="native"):
            backend._initial_backend()

    def test_engine_parity_with_forced_chunking(self, monkeypatch):
        """A full decomposition under the native backend (chunking forced
        through tiny inputs; numpy chunks when the extension is absent) is
        bit-identical to the packed backend."""
        from repro.anf import majority, variables
        from repro.core import DecompositionOptions, progressive_decomposition
        from repro.anf.expression import xor_accumulate

        monkeypatch.setenv(nativekernel.THREADS_ENV, "4")
        monkeypatch.setattr(nativekernel, "CHUNK_MIN_ROWS", 4)
        results = {}
        for backend in ("packed", "native"):
            ctx = Context()
            bits = variables(ctx, [f"x{i}" for i in range(9)])
            outputs = {"maj": majority(bits, ctx), "parity": xor_accumulate(bits, ctx)}
            with using_backend(backend):
                d = progressive_decomposition(
                    outputs, DecompositionOptions(),
                    input_words=[[f"x{i}" for i in range(9)]],
                )
            assert d.verify()
            results[backend] = (
                [(b.name, sorted(b.definition.terms)) for b in d.blocks],
                {p: sorted(e.terms) for p, e in d.outputs.items()},
                [record.group for record in d.iterations],
            )
        assert results["packed"] == results["native"]
