"""Similarity measure, classification bands, fallback embedder, retrieval."""

from __future__ import annotations

import math
import random
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from helpers import (
    DEEP_JSON,
    FIXTURES,
    TOO_DEEP,
    TRANSPORT_FAILURES,
    CannedHTTPServer,
    failing_endpoint,
    function_texts,
    mk_unit,
)
from simaudit import simindex
from simaudit.corpus import load_index, new_index, save_index
from simaudit.errors import (
    EXIT_PROVIDER,
    DimensionMismatch,
    EmptyText,
    ProviderError,
    ProviderMismatch,
)
from simaudit.simindex import (
    DEFAULT_DELTA,
    EMBED_CHUNK,
    EMBED_SLAB,
    ENV_EMBED_ENDPOINT,
    FALLBACK_DIM,
    QUERY_TILE,
    Category,
    FallbackEmbedder,
    RemoteEmbedder,
    classify,
    embed_index,
    embed_texts,
    narrowest_int,
    query_top_k,
    similarity,
)


def _vec(*values):
    return np.array(values, dtype=float)


class TestSimilarityWorkedValues:
    def test_three_four_vs_six_eight(self):
        dist, sim = similarity(_vec(3, 4), _vec(6, 8))
        assert abs(dist - 1 / 3) < 1e-12
        assert abs(sim - 2 / 3) < 1e-12

    def test_opposite_unit_vectors(self):
        dist, sim = similarity(_vec(1, 0), _vec(-1, 0))
        assert abs(dist - 1.0) < 1e-12
        assert abs(sim - 0.0) < 1e-12

    def test_equal_nonzero_vectors(self):
        assert similarity(_vec(2, 5, -1), _vec(2, 5, -1)) == (0.0, 1.0)

    def test_both_zero_vectors_compare_identical(self):
        assert similarity(_vec(0, 0), _vec(0, 0)) == (0.0, 1.0)

    def test_one_zero_vector_is_maximally_distant(self):
        dist, sim = similarity(_vec(0, 0), _vec(3, 4))
        assert abs(dist - 1.0) < 1e-12
        assert abs(sim - 0.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            similarity(_vec(1, 2), _vec(1, 2, 3))


@st.composite
def vector_pairs(draw):
    dim = draw(st.integers(1, 16))
    elems = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    a = draw(st.lists(elems, min_size=dim, max_size=dim))
    b = draw(st.lists(elems, min_size=dim, max_size=dim))
    return a, b


class TestSimilarityProperties:
    @given(vector_pairs())
    def test_range(self, pair):
        a, b = pair
        dist, sim = similarity(a, b)
        assert 0.0 <= dist <= 1.0
        assert 0.0 <= sim <= 1.0
        assert sim == 1.0 - dist

    @given(vector_pairs())
    def test_symmetry_exact(self, pair):
        a, b = pair
        assert similarity(a, b) == similarity(b, a)

    @given(vector_pairs())
    def test_self_similarity(self, pair):
        a, _ = pair
        assert similarity(a, a) == (0.0, 1.0)

    @given(vector_pairs())
    def test_not_scale_invariant(self, pair):
        a, _ = pair
        assume(math.hypot(*a) > 1e-6)
        doubled = [2 * v for v in a]
        _, sim = similarity(a, doubled)
        # ||a - 2a|| / (||a|| + ||2a||) = 1/3 exactly; cosine would say 1.
        assert abs(sim - 2 / 3) < 1e-9
        assert sim < 1.0

    @given(vector_pairs())
    def test_matches_reference_formula(self, pair):
        a, b = pair
        got = similarity(a, b)
        want = oracles.reference_similarity(a, b)
        assert got == pytest.approx(want, abs=1e-9)


class TestClassify:
    def test_bands(self):
        assert classify(1.0) is Category.SIMILAR
        assert classify(1.0 - 1e-9) is Category.SIMILAR
        assert classify(1.0 - 2e-9) is Category.SIMILAR
        assert classify(0.8) is Category.SIMILAR
        assert classify(0.65 + 1e-9) is Category.SIMILAR
        assert classify(0.65) is Category.DISSIMILAR
        assert classify(0.5) is Category.DISSIMILAR
        assert classify(0.0) is Category.DISSIMILAR

    def test_custom_delta(self):
        assert classify(0.95, delta=0.9) is Category.SIMILAR
        assert classify(0.9, delta=0.9) is Category.DISSIMILAR
        assert classify(0.7, delta=0.9) is Category.DISSIMILAR

    def test_default_delta_constant(self):
        assert DEFAULT_DELTA == 0.65


class TestFallbackEmbedder:
    def test_deterministic_across_instances(self):
        text = "function f() { return 1; }"
        assert np.array_equal(FallbackEmbedder().embed_many([text])[0],
                              FallbackEmbedder().embed_many([text])[0])

    def test_dimension_and_provider_id(self):
        emb = FallbackEmbedder()
        assert emb.dimension == FALLBACK_DIM == 384
        assert emb.provider_id == "fallback-trigram-v1"
        assert len(emb.embed_many(["abc"])[0]) == 384

    def test_unit_norm(self):
        for text in ("x", "ab", "abc", "function transfer(address to) { }"):
            vec = FallbackEmbedder().embed_many([text])[0]
            assert abs(math.hypot(*vec) - 1.0) < 1e-9

    def test_different_texts_differ(self):
        emb = FallbackEmbedder()
        a = emb.embed_many(["function deposit() public { }"])[0]
        b = emb.embed_many(["function withdraw() public { }"])[0]
        assert any(x != y for x, y in zip(a, b))

    @given(st.text(max_size=50))
    def test_always_unit_norm(self, text):
        vec = FallbackEmbedder().embed_many([text])[0]
        assert abs(math.hypot(*vec) - 1.0) < 1e-9

    def test_zero_accumulator_guard(self):
        class TwoTaps(FallbackEmbedder):
            _TAPS = 2

        # "J" is a single-gram text whose two taps (under the real key) land
        # on the same index with opposite signs, cancelling exactly; found by
        # exhaustive search over 1-2 char texts.
        vec = TwoTaps().embed_many(["J"])[0]
        assert math.hypot(*vec) == 1.0
        assert np.array_equal(vec, TwoTaps().embed_many(["J"])[0])
        assert sum(1 for v in vec if v != 0.0) == 1


class TestFallbackMatchesReference:
    """The vectorized embedder against the per-tap loop it replaced, byte for
    byte: stored index rows and golden reports depend on every bit."""

    @given(st.text())
    @example("")
    @example("ab")
    def test_matches_per_tap_loop(self, text):
        got = FallbackEmbedder().embed_many([text])[0]
        assert got.tobytes() == oracles.reference_fallback_embedding(text).tobytes()

    def test_cancelling_taps(self):
        class TwoTaps(FallbackEmbedder):
            _TAPS = 2

        got = TwoTaps().embed_many(["J"])[0]
        assert got.tobytes() == oracles.reference_fallback_embedding("J", taps=2).tobytes()

    @pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.sol")), ids=lambda p: p.name)
    def test_fixture_sources(self, path):
        text = path.read_text(encoding="utf-8")
        got = FallbackEmbedder().embed_many([text])[0]
        assert got.tobytes() == oracles.reference_fallback_embedding(text).tobytes()

    @given(st.lists(st.text(), max_size=12))
    @example(["ab", "c"])   # a trigram never spans two texts
    @example(["xa", "bc"])
    @example(["", "ab", "abc"])
    @example(["function f() { return 1; }"] * 3)
    @example(["\U0010ffff" * 4])   # the top of the 21-bit code point packing
    def test_batch_rows_match_per_text_loop(self, texts):
        matrix = FallbackEmbedder().embed_many(texts)
        assert matrix.shape == (len(texts), FALLBACK_DIM)
        for row, text in zip(matrix, texts):
            assert row.tobytes() == oracles.reference_fallback_embedding(text).tobytes()

    def test_cancelling_taps_inside_a_batch(self):
        class TwoTaps(FallbackEmbedder):
            _TAPS = 2

        texts = ["function f() {}", "J", "abc"]
        for row, text in zip(TwoTaps().embed_many(texts), texts):
            assert row.tobytes() == oracles.reference_fallback_embedding(text, taps=2).tobytes()

    @pytest.mark.parametrize("texts", [["\ud800"], ["function f() {}", "a\udc00bc"]],
                             ids=["alone", "in_batch"])
    def test_lone_surrogate_is_an_encode_error(self, texts):
        with pytest.raises(UnicodeEncodeError):
            oracles.reference_fallback_embedding(texts[-1])
        with pytest.raises(UnicodeEncodeError):
            FallbackEmbedder().embed_many(texts)

    def test_embed_many_stacks_rows(self):
        texts = ["function a() { }", "x", "function b() { return 2; }"]
        matrix = FallbackEmbedder().embed_many(texts)
        assert matrix.shape == (3, FALLBACK_DIM) and matrix.dtype == np.float64
        for row, text in zip(matrix, texts):
            assert row.tobytes() == oracles.reference_fallback_embedding(text).tobytes()
        assert FallbackEmbedder().embed_many([]).shape == (0, FALLBACK_DIM)



# NUL and code points outside the BMP included; surrogates cannot be encoded.
_slab_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)


@st.composite
def _slab_batches(draw):
    """0-300 texts, often exactly a slab-boundary size, drawn from a small
    pool as well as fresh, so duplicates are common."""
    n = draw(st.one_of(st.sampled_from((31, 32, 33, 65)), st.integers(0, 300)))
    pool = draw(st.lists(_slab_text, min_size=1, max_size=6))
    return draw(st.lists(st.one_of(st.sampled_from(pool), _slab_text), min_size=n, max_size=n))


def _short_texts_placed(n):
    """n texts with ones of 0, 1 and 2 code points first, in the middle and
    last, and a NUL and a non-BMP code point among them."""
    texts = [f"function f{i % 9}() {{ x\x00{i % 4}; }}" for i in range(n)]
    texts[0], texts[n // 2], texts[-1] = "", "\x00", "\U0001F600\U0001F600"
    return texts


class TestEmbedSlabsMatchTheWholeBatch:
    """embed_many, EMBED_SLAB texts at a time, against the whole-batch arrays
    it replaced, byte for byte."""

    @given(_slab_batches())
    @example(_short_texts_placed(31))
    @example(_short_texts_placed(32))
    @example(_short_texts_placed(33))
    @example(_short_texts_placed(65))
    @example(["ab", "\U0001F600"] * 33)
    def test_matches_the_whole_batch_oracle(self, texts):
        got = FallbackEmbedder().embed_many(texts)
        want = oracles.reference_embed_many(texts)
        assert got.shape == want.shape == (len(texts), FALLBACK_DIM)
        assert got.tobytes() == want.tobytes()

    def test_slab_size(self):
        assert EMBED_SLAB == 32

    def test_peak_memory_is_a_few_times_the_result(self):
        texts = function_texts(256)
        embedder = FallbackEmbedder()
        tracemalloc.start()
        try:
            result = embedder.embed_many(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * result.nbytes


class TestEmbedSums:
    @given(st.lists(_slab_text, max_size=40))
    @example([])
    @example(["J", "", "ab"])
    @example(["a" * 200, "x"])   # sums past int8
    def test_embed_many_is_the_sums_over_the_norms(self, texts):
        sums, norms = FallbackEmbedder().embed_sums(texts)
        assert sums.dtype.kind == "i" and sums.shape == (len(texts), FALLBACK_DIM)
        assert norms.dtype == np.float64 and norms.shape == (len(texts),)
        assert (norms > 0).all()
        got = FallbackEmbedder().embed_many(texts)
        assert got.tobytes() == (sums / norms[:, None]).tobytes()
        assert got.tobytes() == oracles.reference_embed_many(texts).tobytes()

    @pytest.mark.parametrize("texts, dtype", [
        (["abc"], np.int8), (["a" * 200], np.int16), (["a" * 40_000], np.int32)])
    def test_sums_come_in_the_narrowest_type(self, texts, dtype):
        sums, _ = FallbackEmbedder().embed_sums(texts)
        assert sums.dtype == dtype


class _StubProvider:
    provider_id = "stub"

    def __init__(self, fail_times=0, reply=None):
        self.fails_left = fail_times
        self.reply = reply
        self.batches = 0

    def embed_many(self, texts):
        self.batches += 1
        if self.fails_left > 0:
            self.fails_left -= 1
            raise ProviderError("transient")
        if self.reply is not None:
            return [self.reply for _ in texts]
        return [[1.0, 0.0, 0.0] for _ in texts]


class TestEmbedTexts:
    def test_empty_text_rejected(self):
        for bad in ("", "   ", "\t\n"):
            with pytest.raises(EmptyText):
                embed_texts([bad], _StubProvider())

    def test_transient_failure_retried_once(self):
        provider = _StubProvider(fail_times=1)
        vectors = embed_texts(["a", "b"], provider)
        assert provider.batches == 2
        assert vectors.dtype == np.float64
        assert vectors.tolist() == [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]

    def test_two_failures_give_up(self):
        provider = _StubProvider(fail_times=2)
        with pytest.raises(ProviderError):
            embed_texts(["a"], provider)
        assert provider.batches == 2

    def test_non_finite_values_rejected(self):
        with pytest.raises(ProviderError):
            embed_texts(["a"], _StubProvider(reply=[1.0, float("nan"), 0.0]))

    def test_embed_single(self):
        vec = embed_texts(["hello"], FallbackEmbedder())[0]
        assert vec.shape == (384,)
        assert np.array_equal(vec, FallbackEmbedder().embed_many(["hello"])[0])

    @pytest.mark.parametrize("raw", [
        [["x", 1.0, 0.0]] * 2, [[None, 1.0, 0.0]] * 2, [[[1.0], 0.0, 0.0]] * 2,
        [{"a": 1.0}] * 2, [5.0, 5.0], [], [[1.0, 0.0, 0.0]], [[[1.0, 0.0, 0.0]]] * 2,
    ], ids=["string", "null", "nested", "object", "scalars", "empty", "short", "3d"])
    def test_malformed_batch_is_provider_unavailable(self, raw):
        class Fixed(_StubProvider):
            def embed_many(self, texts):
                return raw

        with pytest.raises(ProviderError):
            embed_texts(["a", "b"], Fixed())


def _index_with_vectors(labeled_values):
    index = new_index()
    for i, (entry_suffix, values) in enumerate(labeled_values):
        unit = mk_unit(f"f.sol::C::e{i}#0", name=f"e{i}")
        assert index.insert(unit, "pkg", "1")
    index.vectors = np.array([values for _, values in labeled_values], dtype=float)
    index.meta.embedder_id = "t"
    return index


class TestQueryTopK:
    def test_empty_index(self):
        assert query_top_k([_vec(1, 0)], new_index())[0] == []

    def test_orders_by_similarity_then_id(self):
        index = _index_with_vectors([
            ("e0", (0.0, 1.0)),   # orthogonal-ish
            ("e1", (3.0, 4.0)),   # same direction, different scale
            ("e2", (6.0, 8.0)),   # exactly the target
        ])
        matches = query_top_k([_vec(6, 8)], index, k=3)[0]
        assert [m.entry_id for m in matches] == [
            "pkg@1/f.sol::C::e2#0", "pkg@1/f.sol::C::e1#0", "pkg@1/f.sol::C::e0#0"]
        assert matches[0].category is Category.SIMILAR
        assert matches[0].similarity == 1.0
        assert abs(matches[1].similarity - 2 / 3) < 1e-12

    def test_ties_break_by_ascending_entry_id(self):
        index = _index_with_vectors([
            ("b", (1.0, 0.0)),
            ("a", (1.0, 0.0)),
        ])
        matches = query_top_k([_vec(1, 0)], index, k=2)[0]
        assert [m.entry_id for m in matches] == [
            "pkg@1/f.sol::C::e0#0", "pkg@1/f.sol::C::e1#0"]
        assert matches[0].similarity == matches[1].similarity

    def test_k_larger_than_index_returns_all(self):
        index = _index_with_vectors([("e0", (1.0, 0.0)), ("e1", (0.0, 1.0))])
        assert len(query_top_k([_vec(1, 0)], index, k=10)[0]) == 2

    def test_below_delta_still_returned_as_dissimilar(self):
        index = _index_with_vectors([("e0", (-1.0, 0.0))])
        (m,) = query_top_k([_vec(1, 0)], index, k=1)[0]
        assert m.category is Category.DISSIMILAR
        assert m.similarity == 0.0

    def test_missing_embedding_is_provider_mismatch(self):
        index = new_index()
        index.insert(mk_unit("f.sol::C::x#0"), "pkg", "1")
        with pytest.raises(ProviderMismatch):
            query_top_k([_vec(1, 0)], index)

    def test_matches_full_sort_oracle_on_random_index(self):
        rng = random.Random(7)
        entries = [(f"e{i}", tuple(rng.uniform(-5, 5) for _ in range(8)))
                   for i in range(50)]
        index = _index_with_vectors(entries)
        target = [rng.uniform(-5, 5) for _ in range(8)]
        for k in (1, 3, 10, 50, 75):
            got = [(m.entry_id, m.similarity) for m in query_top_k([target], index, k=k)[0]]
            want = oracles.full_sort_top_k(
                target,
                [(e.entry_id, tuple(v)) for e, v in zip(index.entries, index.vectors)],
                k)
            assert [g[0] for g in got] == [w[0] for w in want]
            for (_, gs), (_, ws) in zip(got, want):
                assert abs(gs - ws) < 1e-9


def _bit_exact_cases():
    """Seeded (rows, targets) in dimensions 2, 8 and 384: a zero row, rows at unit scale and
    scaled by 1e-300 and 1e300, duplicated rows for ties, and fallback-embedder
    vectors."""
    rng = np.random.default_rng(20261017)
    for dim in (2, 8, 384):
        rows = [np.zeros(dim)]
        for scale in (1.0, 1e-300, 1e300):
            rows += [rng.uniform(-1, 1, dim) * scale for _ in range(5)]
        rows += [rows[1].copy(), rows[6].copy(), rows[11].copy()]
        targets = rows + [rng.uniform(-1, 1, dim) * s for s in (1.0, 1e-300, 1e300)]
        yield rows, targets
    emb = FallbackEmbedder()
    rows = [emb.embed_many([f"function f{i}() public {{ return {i * i}; }}"])[0]
            for i in range(12)]
    rows.append(rows[3].copy())
    yield rows, rows + [emb.embed_many(["function g() { }"])[0]]


class TestBitExactScores:
    """Scores equal the scalar reference with no tolerance: a changed
    summation order would move golden reports and tie-breaks."""

    @pytest.mark.parametrize("rows,targets", list(_bit_exact_cases()),
                             ids=["d2", "d8", "d384", "fallback"])
    def test_similarity_and_top_k_match_scalar_reference(self, rows, targets):
        index = _index_with_vectors([(str(i), row) for i, row in enumerate(rows)])
        row_of = {e.entry_id: row for e, row in zip(index.entries, rows)}
        for target in targets:
            for row in rows:
                want = oracles.scalar_similarity(target, row)
                assert similarity(target, row) == want
            matches = query_top_k([target], index, k=len(rows))[0]
            got = [(m.entry_id, m.distance, m.similarity) for m in matches]
            want = sorted(((eid, *oracles.scalar_similarity(target, row))
                           for eid, row in row_of.items()),
                          key=lambda t: (-t[2], t[0]))
            assert got == want


class TestBatchedQueries:
    def test_k_below_one_is_refused(self):
        index = _index_with_vectors([("e0", (1.0, 0.0))])
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 1"):
                query_top_k([_vec(1, 0)], index, k=k)

    def test_empty_batch_does_not_read_the_index(self):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"index.{name} was read")

        assert query_top_k([], Untouchable()) == []
        assert query_top_k(np.empty((0, 384)), Untouchable()) == []


# Entry-id stems: a repeated stem gets a "~2", "~3" suffix from insert, and
# the non-ASCII ones sort by code point, after every ASCII one.
_ID_STEMS = ("a", "b", "B", "a~2", "_x", "é", "ä", "中", "\U0001d518")
_SCALES = (1.0, 0.0, 1e-300, 1e300, 5e-324)


@st.composite
def _batched_cases(draw):
    """(index, queries, k): rows at unit scale, zero, 1e-300, 1e300 and
    5e-324 (denormal) scale, a fifth of them copies of an earlier row; an
    index either small or larger than QUERY_TILE and not a multiple of it;
    queries that copy a row, are zero or are random at one of those scales."""
    dim = draw(st.sampled_from((1, 2, 3, 8, 384)))
    n = draw(st.one_of(
        st.integers(0, 12),
        st.integers(QUERY_TILE + 1, 3 * QUERY_TILE - 1).filter(lambda n: n % QUERY_TILE)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def scaled(count):
        return rng.uniform(-1, 1, (count, dim)) * rng.choice(_SCALES, count)[:, None]

    rows = scaled(n)
    for i in range(1, n):
        if rng.random() < 0.2:
            rows[i] = rows[rng.integers(i)]
    index = new_index()
    for i, stem in enumerate(rng.choice(_ID_STEMS, n)):
        assert index.insert(mk_unit(f"f.sol::C::{stem}#0", name="f", body=f"r{i}"), "pkg", "1")
    index.vectors = rows
    queries = scaled(draw(st.integers(0, 4)))
    for q in queries:
        kind = rng.integers(3)
        if kind == 0 and n:
            q[:] = rows[rng.integers(n)]
        elif kind == 1:
            q[:] = 0.0
    return index, queries, draw(st.integers(1, n + 2))


class TestBatchedKernelMatchesSingleQueryReference:
    """The batched, tiled kernel against the single-query kernel it
    replaced: every field equal with ==, ties in the same order."""

    @given(_batched_cases())
    def test_each_query_equals_the_reference(self, case):
        index, queries, k = case
        got = query_top_k(queries, index, k=k)
        assert len(got) == len(queries)
        for q, matches in zip(queries, got):
            want = oracles.reference_query_top_k(q, index, k=k)
            assert [(m.entry_id, m.distance, m.similarity, m.category) for m in matches] == [
                (m.entry_id, m.distance, m.similarity, m.category) for m in want]


class TestQueryBatchesAreCapped:
    def test_many_queries_go_to_the_prefilter_a_tile_at_a_time(self):
        rng = np.random.default_rng(7)
        rows = rng.uniform(-1, 1, (300, 16))
        index = _index_with_vectors([(f"e{i}", row) for i, row in enumerate(rows)])
        queries = rng.uniform(-1, 1, (2 * QUERY_TILE + 3, 16))
        queries[::5] = rows[: len(queries[::5])]
        queries[QUERY_TILE + 1] = 0.0  # scored against every row, between the batches
        with patch.object(simindex, "_gram_candidates",
                          wraps=simindex._gram_candidates) as prefilter:
            got = query_top_k(queries, index, k=3)
        sizes = [len(call.args[0]) for call in prefilter.call_args_list]
        assert sizes == [QUERY_TILE, QUERY_TILE, 2]
        for q, matches in zip(queries, got):
            assert matches == oracles.reference_query_top_k(q, index, k=3)


class TestGramPrefilterOnNearTies:
    """The Gram prefilter's rounding exceeds the gaps between these rows'
    exact distances, so only its margin keeps the exact top k among its
    candidates. A cluster of near-ties (one ulp apart, exact copies, or
    copies nudged so that 1 - d rounds to one similarity) sits among other
    rows, cluster ids descending as the rows ascend, with k at the edges of
    the cluster and of the index. A norm at 1e-300, 1e300, 5e-324 or 0 must
    send its query, or every query, to the full exact pass."""

    @given(dim=st.sampled_from((2, 3, 8, 384)),
           kind=st.sampled_from(("ulp", "copy", "nudge")),
           cluster=st.integers(2, 10),
           others=st.one_of(st.integers(0, 12), st.integers(QUERY_TILE, 2 * QUERY_TILE + 1)),
           scale=st.sampled_from((1.0, 1e-100, 1e100)),
           k_edge=st.sampled_from((-1, 0, 1, None)),
           zero_row=st.just(False),
           seed=st.integers(0, 2**32 - 1))
    @example(dim=384, kind="ulp", cluster=6, others=200, scale=1.0, k_edge=0,
             zero_row=False, seed=1)
    @example(dim=8, kind="nudge", cluster=5, others=0, scale=1e-300, k_edge=0,
             zero_row=False, seed=2)
    @example(dim=8, kind="ulp", cluster=5, others=3, scale=1e300, k_edge=-1,
             zero_row=False, seed=3)
    @example(dim=3, kind="copy", cluster=4, others=3, scale=5e-324, k_edge=1,
             zero_row=False, seed=4)
    @example(dim=384, kind="nudge", cluster=6, others=150, scale=1.0, k_edge=0,
             zero_row=True, seed=5)
    def test_matches_reference(self, dim, kind, cluster, others, scale, k_edge,
                               zero_row, seed):
        rng = np.random.default_rng(seed)
        base = rng.uniform(-1, 1, dim)
        members = np.repeat(base[None], cluster, axis=0)
        if kind == "ulp":
            for row in members[1:]:
                at = rng.integers(dim, size=rng.integers(1, dim + 1))
                row[at] = np.nextafter(row[at], rng.choice((-np.inf, np.inf), len(at)))
        elif kind == "nudge":
            members[1:] *= 1.0 + rng.uniform(-4, 4, (cluster - 1, dim)) * np.finfo(float).eps
        rows = rng.uniform(-1, 1, (others + zero_row, dim))
        if zero_row:
            rows[-1] = 0.0
        at = rng.integers(len(rows) + 1)
        rows = np.vstack((rows[:at], members, rows[at:])) * scale
        index = new_index()
        stems = [f"o{i:03d}" for i in range(at)] + [f"c{cluster - j:02d}" for j in range(cluster)]
        for i, stem in enumerate(stems + [f"o{i:03d}" for i in range(at, len(rows) - cluster)]):
            assert index.insert(mk_unit(f"f.sol::C::{stem}#0", name="f", body=f"r{i}"),
                                "pkg", "1")
        index.vectors = rows
        queries = np.array([base, base * (1 + 1e-9 * rng.uniform(-1, 1, dim)),
                            base + 1e-3 * rng.uniform(-1, 1, dim),
                            base + 0.3 * rng.uniform(-1, 1, dim),
                            rng.uniform(-1, 1, dim)]) * scale
        k = len(rows) - 1 if k_edge is None else min(max(cluster + k_edge, 1), len(rows))
        with patch.object(simindex, "_gram_candidates",
                          wraps=simindex._gram_candidates) as prefilter:
            got = query_top_k(queries, index, k=k)
        squarable = simindex._squarable(simindex._row_norms(queries))
        premise = k < len(rows) and simindex._squarable(simindex._row_norms(rows)).all()
        prefiltered = len(prefilter.call_args.args[0]) if prefilter.called else 0
        assert prefiltered == (squarable.sum() if premise else 0)
        for q, matches in zip(queries, got):
            want = oracles.reference_query_top_k(q, index, k=k)
            assert [(m.entry_id, m.distance, m.similarity) for m in matches] == [
                (m.entry_id, m.distance, m.similarity) for m in want]


def _integer_and_float_indexes(sums, norms, stems):
    """An index holding integer sums over norms, and a copy holding their
    float64 quotient, sums / norms[:, None], entry i named by stems[i]."""
    pair = []
    for stored in ((sums, norms), (sums / norms[:, None], None)):
        index = new_index()
        for i, stem in enumerate(stems):
            assert index.insert(mk_unit(f"f.sol::C::{stem}#0", name="f", body=f"r{i}"),
                                "pkg", "1")
        index.vectors, index.norms = stored
        pair.append(index)
    return pair


class TestIntegerRowsMatchTheirQuotient:
    """query_top_k over integer sums and norms against query_top_k over the
    float64 matrix sums / norms: the same ids in the same order and the same
    bytes in every distance and similarity. A cluster of near-ties (one sum
    row under norms some ulps or eps apart, or exact copies) sits among other
    rows, cluster ids descending as the rows ascend, with k at the edges of
    the cluster, or at or past the index size, where every row is scored."""

    @given(dim=st.sampled_from((2, 3, 8, 384)),
           kind=st.sampled_from(("ulp", "copy", "nudge")),
           cluster=st.integers(2, 10),
           others=st.one_of(st.integers(0, 12), st.integers(QUERY_TILE, 2 * QUERY_TILE + 1)),
           scale=st.sampled_from((1.0, 1e-100, 1e100, 1e300)),
           k_at=st.sampled_from(("cluster-1", "cluster", "cluster+1", "n-1", "n", "n+2")),
           seed=st.integers(0, 2**32 - 1))
    @example(dim=384, kind="ulp", cluster=6, others=200, scale=1.0, k_at="cluster",
             seed=1)
    @example(dim=8, kind="nudge", cluster=5, others=150, scale=1.0, k_at="n+2", seed=2)
    @example(dim=3, kind="copy", cluster=4, others=3, scale=1e300, k_at="cluster-1", seed=3)
    def test_scores_and_order_are_bit_identical(self, dim, kind, cluster, others, scale,
                                                k_at, seed):
        rng = np.random.default_rng(seed)
        base = rng.integers(-33, 34, dim)
        base[rng.integers(dim)] = rng.choice((-1, 1)) * rng.integers(1, 34)
        base_norm = np.linalg.norm(base) * scale
        member_norms = np.full(cluster, base_norm)
        if kind == "ulp":
            member_norms[1:] += rng.integers(-3, 4, cluster - 1) * np.spacing(base_norm)
        elif kind == "nudge":
            member_norms[1:] *= 1.0 + rng.uniform(-4, 4, cluster - 1) * np.finfo(float).eps
        rows = rng.integers(-33, 34, (others, dim))
        row_norms = np.linalg.norm(rows, axis=1) * scale
        row_norms[row_norms == 0.0] = scale  # a zero row: its query scores every row
        at = rng.integers(others + 1)
        sums = narrowest_int(np.vstack((rows[:at], np.repeat(base[None], cluster, axis=0),
                                        rows[at:])))
        norms = np.concatenate((row_norms[:at], member_norms, row_norms[at:]))
        stems = ([f"o{i:03d}" for i in range(at)] + [f"c{cluster - j:02d}" for j in range(cluster)]
                 + [f"o{i:03d}" for i in range(at, others)])
        integer, quotient = _integer_and_float_indexes(sums, norms, stems)
        q = base / base_norm
        spread = np.abs(q).max()
        queries = np.array([q, q * (1 + 1e-9 * rng.uniform(-1, 1, dim)),
                            q + 1e-3 * spread * rng.uniform(-1, 1, dim),
                            q + 0.3 * spread * rng.uniform(-1, 1, dim),
                            spread * rng.uniform(-1, 1, dim)])
        n = len(sums)
        k = {"cluster-1": cluster - 1, "cluster": cluster, "cluster+1": min(cluster + 1, n),
             "n-1": n - 1, "n": n, "n+2": n + 2}[k_at]

        def scored(index):
            return [[(m.entry_id, np.float64(m.distance).tobytes(),
                      np.float64(m.similarity).tobytes(), m.category) for m in matches]
                    for matches in query_top_k(queries, index, k=k)]

        assert scored(integer) == scored(quotient)


class TestGramPrefilterCutAtOne:
    def test_query_antiparallel_to_every_row_scores_every_row(self):
        """Rows -2**j * q, q of dyadic eighths with largest magnitude 1, so
        every norm and difference is exact and every distance is 1. The k-th
        Gram distance plus the margin then reaches 1, the prefilter hands on
        every row, and the top k is the k smallest ids, as in the reference."""
        rng = np.random.default_rng(7)
        dim, n, k = 8, 40, 3
        q = rng.integers(-8, 9, dim) / 8.0
        q[0] = 1.0
        index = new_index()
        for i, stem in enumerate(rng.permutation(n)):
            assert index.insert(mk_unit(f"f.sol::C::s{stem:02d}#0", name="f", body=f"r{i}"),
                                "pkg", "1")
        index.vectors = -(2.0 ** rng.integers(0, 6, n))[:, None] * q
        real, candidates = simindex._gram_candidates, []

        def spy(*args):
            out = real(*args)
            candidates.extend(out)
            return out

        with patch.object(simindex, "_gram_candidates", side_effect=spy):
            got = query_top_k(q[None], index, k=k)[0]
        assert len(candidates) == 1 and np.array_equal(candidates[0], np.arange(n))
        want = oracles.reference_query_top_k(q, index, k=k)
        assert [(m.entry_id, m.distance, m.similarity) for m in got] == [
            (m.entry_id, m.distance, m.similarity) for m in want]
        assert [m.distance for m in got] == [1.0] * k
        assert [m.entry_id for m in got] == sorted(index.entry_ids)[:k]


def _numpy_bytes_retained(call, *args):
    """call(*args), and the bytes of numpy array data allocated during the
    call that are still held after it."""
    tracemalloc.start()
    try:
        result = call(*args)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return result, sum(trace.size for trace in snapshot.filter_traces([numpy_data]).traces)


class TestEmbedIndex:
    def test_embeds_all_entries_and_stamps_provider(self):
        index = new_index()
        for i in range(3):
            index.insert(mk_unit(f"f.sol::C::fn{i}#0", name=f"fn{i}"), "pkg", "1")
        embed_index(index, FallbackEmbedder())
        assert index.meta.embedder_id == "fallback-trigram-v1"
        assert index.vectors.shape == (3, 384)
        for entry, row in zip(index.entries, index.rows()):
            want = oracles.reference_fallback_embedding(entry.normalized_source)
            assert row.tobytes() == want.tobytes()

    def test_remote_corpus_goes_in_chunks_in_entry_order(self):
        def reply(body):
            return {"vectors": [[float(len(t)), float(sum(map(ord, t)))] for t in body["texts"]]}

        index = new_index()
        for i in range(600):
            index.insert(mk_unit(f"f.sol::C::fn{i}#0", name=f"fn{i}"), "pkg", "1")
        texts = [e.normalized_source for e in index.entries]
        with CannedHTTPServer(reply) as server:
            embed_index(index, RemoteEmbedder(server.url))
            whole = embed_texts(texts, RemoteEmbedder(server.url))
        chunks = [r["body"]["texts"] for r in server.requests[:-1]]
        assert EMBED_CHUNK == 256
        assert [len(c) for c in chunks] == [256, 256, 88]
        assert [t for c in chunks for t in c] == texts
        assert np.array_equal(index.vectors, whole)

    def test_a_loaded_index_embeds_its_derived_sources(self, tmp_path):
        index = new_index()
        for i, text in enumerate(function_texts(40)):
            index.insert(mk_unit(f"f.sol::C::f{i}#0", body=text), "pkg", "1")
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(path)
        embed_index(loaded, FallbackEmbedder())
        embed_index(index, FallbackEmbedder())
        assert loaded.vectors.tobytes() == index.vectors.tobytes()
        assert loaded.norms.tobytes() == index.norms.tobytes()

    def test_a_fallback_index_keeps_the_sums_and_norms(self):
        index = new_index()
        texts = function_texts(300) + ["a" * 200]
        for i, text in enumerate(texts):
            index.insert(mk_unit(f"f.sol::C::f{i}#0", body=text), "pkg", "1")
        embed_index(index, FallbackEmbedder())
        sums, norms = index.vectors, index.norms
        want_sums, want_norms = FallbackEmbedder().embed_sums(texts)
        assert sums.dtype == want_sums.dtype == np.int16   # the last chunk's sums widen all
        assert np.array_equal(sums, want_sums) and norms.tobytes() == want_norms.tobytes()
        assert index.rows().tobytes() == FallbackEmbedder().embed_many(texts).tobytes()

    def test_a_remote_embedding_drops_the_sums_and_norms(self):
        index = new_index()
        index.insert(mk_unit("f.sol::C::f#0"), "pkg", "1")
        embed_index(index, FallbackEmbedder())
        assert index.norms is not None
        with CannedHTTPServer(lambda body: {"vectors": [[1.0, 2.0]]}) as server:
            embed_index(index, RemoteEmbedder(server.url))
        assert index.norms is None
        assert index.vectors.tolist() == [[1.0, 2.0]]

    def test_a_fallback_index_retains_no_float64_matrix(self, tmp_path):
        """The index keeps its sums and norms, not their float64 quotient:
        the numpy data it holds after embed_index, and after load_index of
        its file, is under a quarter of an (n, d) float64 matrix."""
        index = new_index()
        for i, text in enumerate(function_texts(512)):
            index.insert(mk_unit(f"f.sol::C::f{i}#0", body=text), "pkg", "1")
        bound = len(index.entries) * FALLBACK_DIM * 8 / 4
        assert _numpy_bytes_retained(embed_index, index, FallbackEmbedder())[1] < bound
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded, retained = _numpy_bytes_retained(load_index, path)
        assert retained < bound
        assert loaded.rows().tobytes() == index.rows().tobytes()

    def test_empty_index_just_stamps(self):
        index = new_index()
        embed_index(index, FallbackEmbedder())
        assert index.meta.embedder_id == "fallback-trigram-v1"
        assert index.entries == []
        assert index.vectors is None


class TestRemoteEmbedder:
    def test_wire_format_and_auth(self):
        def reply(body):
            return {"vectors": [[1.0, 2.0, 3.0] for _ in body["texts"]]}

        with CannedHTTPServer(reply) as server:
            provider = RemoteEmbedder(server.url, api_key="sekrit")
            out = provider.embed_many(["code a", "code b"])
        assert out == [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]
        (req,) = server.requests
        assert req["body"] == {"texts": ["code a", "code b"]}
        assert req["raw"] == b'{"texts": ["code a", "code b"]}'
        assert req["headers"]["Content-Type"] == "application/json"
        assert req["headers"]["Authorization"] == "Bearer sekrit"

    def test_provider_id_defaults_to_endpoint(self):
        with CannedHTTPServer({"vectors": []}) as server:
            provider = RemoteEmbedder(server.url)
            assert provider.provider_id == f"remote:{server.url}"
            named = RemoteEmbedder(server.url, provider_id="model-x")
            assert named.provider_id == "model-x"

    def test_http_failure_is_provider_unavailable(self):
        with CannedHTTPServer({"vectors": []}, status=500) as server:
            with pytest.raises(ProviderError, match="500"):
                RemoteEmbedder(server.url).embed_many(["a"])

    @pytest.mark.parametrize("kind", TRANSPORT_FAILURES)
    def test_transport_failure_is_provider_unavailable(self, kind):
        with failing_endpoint(kind) as url:
            with pytest.raises(ProviderError, match="embedding endpoint failed"):
                RemoteEmbedder(url, timeout=0.2).embed_many(["a"])

    def test_malformed_reply_is_provider_unavailable(self):
        replies = iter([{"nope": 1}, {"nope": 1}, {"vectors": [5]}])
        with CannedHTTPServer(lambda body: next(replies)) as server:
            for _ in range(2):
                with pytest.raises(ProviderError):
                    embed_texts(["a"], RemoteEmbedder(server.url))

    def test_short_batch_is_provider_unavailable(self):
        with CannedHTTPServer({"vectors": [[1.0]]}) as server:
            with pytest.raises(ProviderError, match=r"shape \(1, 1\) for 2 texts"):
                embed_texts(["a", "b"], RemoteEmbedder(server.url))

    def test_env_var_overrides_endpoint(self, monkeypatch):
        def reply(body):
            return {"vectors": [[9.0, 9.0] for _ in body["texts"]]}

        with CannedHTTPServer(reply) as server:
            monkeypatch.setenv(ENV_EMBED_ENDPOINT, server.url)
            provider = RemoteEmbedder("http://unreachable.invalid/")
            assert provider.endpoint == server.url
            assert provider.embed_many(["a"]) == [[9.0, 9.0]]

    @pytest.mark.parametrize("vector,message", [
        (["1.5", "2", "-0.25"], "provider returned non-numeric embeddings: '1.5'"),
        ([True, False, True], "provider returned non-numeric embeddings: True"),
        ([1.0, None, 0.5], "provider returned non-numeric embeddings: None"),
    ], ids=["strings", "booleans", "nulls"])
    def test_json_strings_and_booleans_are_not_numbers(self, vector, message):
        """np.array would read each as a float, a null as nan; a reply that
        is not numbers is a failure, and like any such reply it is not
        retried."""
        with CannedHTTPServer(lambda body: {"vectors": [vector for _ in body["texts"]]}
                              ) as server:
            with pytest.raises(ProviderError) as exc:
                embed_texts(["a", "b"], RemoteEmbedder(server.url))
        assert str(exc.value) == message
        assert len(server.requests) == 1

    def test_embed_texts_retries_remote_once(self):
        with CannedHTTPServer({"bad": True}) as server:
            with pytest.raises(ProviderError):
                embed_texts(["a"], RemoteEmbedder(server.url))
            assert len(server.requests) == 2

    def test_reply_nested_too_deep_is_retried_once(self):
        with CannedHTTPServer(b'{"vectors": ' + DEEP_JSON.encode("utf-8") + b"}") as server:
            with pytest.raises(ProviderError) as exc:
                embed_texts(["a"], RemoteEmbedder(server.url))
        assert str(exc.value) == f"embedding endpoint failed: {TOO_DEEP}"
        assert len(server.requests) == 2


class TestEmbeddingFailureMessages:
    """The exact message of every embedding failure."""

    @pytest.mark.parametrize("reply,status,message", [
        ({}, 200, "embedding endpoint failed: 'vectors'"),
        ([], 200, "embedding endpoint failed: list indices must be integers or slices, not str"),
        (b"<html>busy</html>", 200,
         "embedding endpoint failed: Expecting value: line 1 column 1 (char 0)"),
        ({}, 500, "embedding endpoint failed: HTTP Error 500: Internal Server Error"),
    ], ids=["no_vectors", "list", "not_json", "status_500"])
    def test_remote_reply(self, reply, status, message):
        with CannedHTTPServer(reply, status=status) as server:
            with pytest.raises(ProviderError) as exc:
                RemoteEmbedder(server.url).embed_many(["a", "b"])
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind,message", [
        ("refused",
         r"embedding endpoint failed: <urlopen error \[Errno \d+\] Connection refused>"),
        ("slow", r"embedding endpoint failed: timed out"),
    ])
    def test_transport(self, kind, message):
        with failing_endpoint(kind) as url:
            with pytest.raises(ProviderError) as exc:
                RemoteEmbedder(url, timeout=0.2).embed_many(["a"])
        assert re.fullmatch(message, str(exc.value))

    def test_endpoint_that_is_not_http(self, tmp_path):
        url = (tmp_path / "reply.json").as_uri()
        with pytest.raises(ProviderError) as exc:
            RemoteEmbedder(url).embed_many(["a"])
        assert str(exc.value) == f"embedding endpoint failed: not an http(s) URL: {url!r}"

    @pytest.mark.parametrize("vectors,message", [
        ([5, 5], "provider returned shape (2,) for 2 texts"),
        ([[1.0]], "provider returned shape (1, 1) for 2 texts"),
        ([[1, 0, 0], [1, 0]], "provider returned shape (2,) for 2 texts"),
        ([[], []], "provider returned shape (2, 0) for 2 texts"),
        ("1.5", "provider returned shape () for 2 texts"),
        ([[1.0, float("nan")], [1.0, 0.0]], "provider returned non-finite values"),
    ], ids=["scalars", "short", "ragged", "no_numbers", "string", "nan"])
    def test_malformed_vectors_cost_one_request(self, vectors, message):
        """What the vectors key holds is checked once, in embed_texts: a
        reply that a retry cannot mend is not sent for again."""
        with CannedHTTPServer({"vectors": vectors}) as server:
            with pytest.raises(ProviderError) as exc:
                embed_texts(["a", "b"], RemoteEmbedder(server.url))
        assert str(exc.value) == message
        assert exc.value.exit_code == EXIT_PROVIDER
        assert len(server.requests) == 1

    @pytest.mark.parametrize("reply,error,message", [
        (["x", 1.0, 0.0], ProviderError,
         "provider returned non-numeric embeddings: could not convert string to float: 'x'"),
        (5.0, ProviderError, "provider returned shape (2,) for 2 texts"),
        ([1.0, float("nan"), 0.0], ProviderError, "provider returned non-finite values"),
    ], ids=["non_numeric", "shape", "non_finite"])
    def test_embed_texts_reply(self, reply, error, message):
        with pytest.raises(error) as exc:
            embed_texts(["a", "b"], _StubProvider(reply=reply))
        assert str(exc.value) == message


class TestRedirects:
    """post_json follows 307 and 308 as the same POST, and a redirect to
    another origin never carries the key."""

    @pytest.mark.parametrize("code", [307, 308])
    def test_307_and_308_post_again_to_the_same_server(self, code):
        def reply(body):
            if len(server.requests) > 1:
                server.status = 200  # only the first request is redirected
            return {"vectors": [[1.0, 2.0]]}

        with CannedHTTPServer(reply, status=code, headers={"Location": "/moved"}) as server:
            out = RemoteEmbedder(server.url, api_key="sekrit").embed_many(["a"])
        assert out == [[1.0, 2.0]]
        assert [(r["method"], r["path"]) for r in server.requests] == [
            ("POST", "/"), ("POST", "/moved")]
        for req in server.requests:
            assert req["raw"] == b'{"texts": ["a"]}'
            assert req["headers"]["Content-Type"] == "application/json"
            assert req["headers"]["Authorization"] == "Bearer sekrit"

    @pytest.mark.parametrize("code,method,raw", [
        (302, "GET", b""), (307, "POST", b'{"texts": ["a"]}'),
    ])
    def test_redirect_to_another_server_drops_the_key(self, code, method, raw):
        with CannedHTTPServer({"vectors": [[1.0, 2.0]]}) as target:
            with CannedHTTPServer({}, status=code,
                                  headers={"Location": target.url + "moved"}) as origin:
                RemoteEmbedder(origin.url, api_key="sekrit").embed_many(["a"])
        assert origin.requests[0]["headers"]["Authorization"] == "Bearer sekrit"
        (req,) = target.requests
        assert (req["method"], req["path"], req["raw"]) == (method, "/moved", raw)
        assert "Authorization" not in req["headers"]
