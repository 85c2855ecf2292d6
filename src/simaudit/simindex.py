"""Embeddings, the similarity measure, and brute-force top-k retrieval.

The distance between two embeddings is the Euclidean distance divided by the
sum of their norms, which the triangle inequality keeps inside [0, 1];
similarity is one minus that. Note this measure is intentionally not
scale-invariant: similarity(a, 2a) < 1 even though the vectors point the same
way. Do not "fix" it to cosine; downstream thresholds were chosen for this
measure.

embed_texts returns one (len(texts), d) float64 matrix, and query_top_k
scores a (Q, d) batch of such queries against a corpus index: one row per
entry, all from one embedder (its `embedder_id`), kept as the fallback
embedder computes them, integer sums and one norm per row, or as float64.
query_top_k reads the rows as float64 through CorpusIndex.rows, QUERY_TILE
at a time, so no float64 copy of an integer matrix is ever built.

query_top_k is exact, yet scores few rows. A Gram prefilter bounds every
row's distance from the dot products q·r and the norms, QUERY_TILE rows at a
time, and keeps only the rows whose bound can reach a query's top k; those
are rescored with the arithmetic of similarity() and ranked. The bound's
rounding error is certified (Higham, §3.1), so it can only widen the
candidate set, never change a score or the order: reports stay bit-exact on
any BLAS. Where its premise fails (a zero, non-finite, tiny or huge norm),
a query is scored against every row.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, EmptyText, ProviderError, ProviderMismatch

if TYPE_CHECKING:
    from .corpus import CorpusIndex

DEFAULT_DELTA = 0.65
FALLBACK_DIM = 384
EMBED_CHUNK = 256  # texts per embed_texts call, for a corpus and for a scan
EMBED_SLAB = 32  # texts whose trigrams FallbackEmbedder.embed_many holds at once
QUERY_TILE = 128  # index rows scored per step of a query in query_top_k
SQUARABLE = (1e-150, 1e150)  # norms whose squares and products stay normal floats

ENV_EMBED_ENDPOINT = "SIMAUDIT_EMBED_ENDPOINT"


class Category(str, Enum):
    CLONE = "clone"
    SIMILAR = "similar"
    DISSIMILAR = "dissimilar"


@dataclass(frozen=True)
class SimilarityMatch:
    entry_id: str
    distance: float
    similarity: float
    category: Category


class FallbackEmbedder:
    """Deterministic offline embedder: hashed character-trigram bag pushed
    through a fixed sparse signed projection into 384 dimensions, then
    L2-normalized. A text shorter than three characters is its own gram.

    The projection row for each trigram is derived from a keyed BLAKE2b digest
    of the trigram itself, so the matrix never exists in memory and the output
    is identical on every platform and every run.

    embed_many builds one vocabulary per call: each distinct trigram of the
    whole batch is hashed once, and every text's row sums its trigrams' taps
    from that table. It works in slabs of EMBED_SLAB texts: the vocabulary is
    merged slab by slab, and each slab's trigrams are then keyed again and
    summed into its rows, so no array grows with the batch's characters. The
    sums are small integers, exact in any order, so each row is bit-identical
    to embedding its text on its own.

    embed_sums gives those integer sums and each row's norm; embed_many's
    rows are their quotients, sums / norms[:, None].
    """

    provider_id = "fallback-trigram-v1"
    dimension = FALLBACK_DIM

    _KEY = b"simaudit-fallback-v1"
    _TAPS = 8  # projection entries per trigram

    def embed_many(self, texts: list[str]) -> np.ndarray:
        sums, norms = self.embed_sums(texts)
        return sums / norms[:, None]

    def embed_sums(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(sums, norms): per text, its row of tap sums as narrowest_int
        stores them, and that row's float64 norm, which is never 0."""
        dim, n, taps = self.dimension, len(texts), self._TAPS
        slabs = [texts[start : start + EMBED_SLAB] for start in range(0, n, EMBED_SLAB)]
        # The vocabulary: every distinct trigram key of the batch, ascending.
        vocab = np.empty(0, dtype=np.uint64)
        for slab in slabs:
            vocab = _sorted_unique(np.concatenate((vocab, _trigram_keys(slab))))
        spelled = np.stack([vocab >> 42, (vocab >> 21) & 0x1FFFFF, vocab & 0x1FFFFF], axis=1)
        spelled = spelled.astype("<u4").tobytes().decode("utf-32-le")
        lens = np.fromiter(map(len, texts), dtype=np.intp, count=n)
        short = np.flatnonzero(lens < 3)
        grams = ([spelled[i : i + 3] for i in range(0, len(spelled), 3)]
                 + [texts[i] for i in short.tolist()])
        # Each gram's digest starts from a copy of one keyed state, which is
        # cheaper than keying a new one. It is keyed here, not once for the
        # class, as its digest size follows the taps a subclass may set.
        keyed = hashlib.blake2b(digest_size=3 * taps, key=self._KEY)
        digests = bytearray()
        for gram in grams:
            state = keyed.copy()
            state.update(gram.encode("utf-8"))
            digests += state.digest()
        del spelled, grams  # freed early, as is each table input below, to lower the peak
        # Three bytes per gram and tap: a big-endian 2-byte index, then a byte
        # whose low bit is the sign. The tables are tap-major, (taps, grams),
        # and an index below 384 fits in an int16.
        tap_bytes = np.frombuffer(digests, dtype=np.uint8).reshape(-1, taps, 3).T
        idx = ((256 * tap_bytes[0].astype(np.intp) + tap_bytes[1]) % dim).astype(np.int16)
        sign = np.where(tap_bytes[2] & 1, 1.0, -1.0)
        del tap_bytes, digests
        acc = np.zeros((n, dim))
        short_gram = len(vocab)  # the gram of the next short text
        for start, slab in zip(range(0, n, EMBED_SLAB), slabs):
            m = len(slab)
            slab_lens = lens[start : start + m]
            slab_short = np.flatnonzero(slab_lens < 3)
            # Every occurrence, trigrams in text order and then the short
            # texts: the offset of its text's row in rows, and its gram.
            base = np.concatenate([np.repeat(np.arange(m) * dim, np.maximum(slab_lens - 2, 0)),
                                   slab_short * dim])
            gram_of = np.concatenate([np.searchsorted(vocab, _trigram_keys(slab)),
                                      short_gram + np.arange(len(slab_short))])
            short_gram += len(slab_short)
            rows = acc[start : start + m].reshape(-1)
            for tap_idx, tap_sign in zip(idx, sign):
                at = tap_idx[gram_of] + base
                rows += np.bincount(at, weights=tap_sign[gram_of], minlength=m * dim)
        # One norm call per row, as for a lone text: a batched sum of squares
        # can round differently once it passes 2**53.
        norms = np.array([np.linalg.norm(row) for row in acc])
        for i in np.flatnonzero(norms == 0.0).tolist():
            # All taps cancelled; park the text on a hash-chosen axis so the
            # result is still deterministic and unit length.
            fallback_idx = int(hashlib.blake2b(texts[i].encode("utf-8"), digest_size=2,
                                               key=self._KEY).hexdigest(), 16) % dim
            acc[i, fallback_idx] = 1.0
            norms[i] = 1.0
        return narrowest_int(acc), norms


def narrowest_int(values: np.ndarray) -> np.ndarray:
    """Integer-valued values in the narrowest of int8, int16, int32 and int64
    that holds them all."""
    low, high = values.min(initial=0), values.max(initial=0)
    for dtype in (np.int8, np.int16, np.int32):
        if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max:
            return values.astype(dtype, copy=False)
    return values.astype(np.int64, copy=False)


def _trigram_keys(texts: list[str]) -> np.ndarray:
    """The trigrams of texts, in text order, each packed into one uint64 key:
    its three code points, 21 bits each. A trigram counts only where all
    three lie inside one text."""
    points = np.frombuffer("".join(texts).encode("utf-32-le"), dtype="<u4")
    keys = points[:-2].astype(np.uint64) << 42
    keys |= points[1:-1].astype(np.uint64) << 21
    keys |= points[2:]
    # No trigram starts at a text's last two code points.
    lens = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    ends = np.cumsum(lens)
    starts = np.ones(len(points), dtype=bool)
    starts[ends[lens > 0] - 1] = False
    starts[ends[lens > 1] - 2] = False
    return keys[starts[:-2]]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of keys, ascending. A sort, not np.unique: its
    hash-set path leaves about 1 MB more heap behind in the process."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def call_retried(call, *args):
    """Return call(*args), calling it a second time if the first raises
    ProviderError: every provider call is retried once, at once."""
    try:
        return call(*args)
    except ProviderError:
        return call(*args)


class RemoteEmbedder:
    """HTTP embedding provider: POST {"texts": [...]}, expect {"vectors": [[...]]}.

    The endpoint comes from configuration; SIMAUDIT_EMBED_ENDPOINT overrides
    it when set. The reply's vectors are returned as they are: embed_texts
    checks them.
    """

    def __init__(self, endpoint: str, api_key: str | None = None,
                 provider_id: str | None = None, timeout: float = 30.0):
        from .transport import JsonEndpoint

        self.endpoint = os.environ.get(ENV_EMBED_ENDPOINT) or endpoint
        self.provider_id = provider_id or f"remote:{self.endpoint}"
        self._transport = JsonEndpoint(self.endpoint, api_key, timeout, "embedding")

    def embed_many(self, texts: list[str]):
        return self._transport.post({"texts": texts}, "vectors")


def embed_texts(texts: list[str], provider) -> np.ndarray:
    """Embed a batch into one (len(texts), d) float64 matrix, retrying a provider
    failure once. A reply that is not len(texts) rows of one width d >= 1, all
    finite numbers, is a failure too, and is not retried."""
    _require_text(texts)
    raw = call_retried(provider.embed_many, texts)
    # As objects, a ragged batch is an array of shape (len(texts),), where a
    # float array would raise; rows of no numbers make no loadable index.
    cells = raw if isinstance(raw, np.ndarray) else np.array(raw, dtype=object)
    if cells.ndim != 2 or len(cells) != len(texts) or not cells.shape[1]:
        raise ProviderError(
            f"provider returned shape {cells.shape} for {len(texts)} texts")
    try:
        vectors = cells.astype(float)
    except (TypeError, ValueError) as exc:
        raise ProviderError(f"provider returned non-numeric embeddings: {exc}") from exc
    if cells.dtype == object:
        # astype reads a JSON string such as "1.5", or a boolean, as a
        # number, and a null as nan.
        for value in cells.flat:
            if value is None or isinstance(value, (str, bool)):
                raise ProviderError(f"provider returned non-numeric embeddings: {value!r}")
    if not np.isfinite(vectors).all():
        raise ProviderError("provider returned non-finite values")
    return vectors


def embed_sums(texts: list[str], provider: FallbackEmbedder) -> tuple[np.ndarray, np.ndarray]:
    """embed_texts for the fallback embedder, giving its (sums, norms) rather
    than their quotient. That embedder cannot fail, so nothing is retried."""
    _require_text(texts)
    return provider.embed_sums(texts)


def _require_text(texts: list[str]) -> None:
    for text in texts:
        if not text.strip():
            raise EmptyText("cannot embed empty text")


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array.

    norm(v) squares first, which underflows to 0 for denormal-range
    components; each row is divided by its largest magnitude before squaring
    so tiny nonzero rows keep a nonzero norm. A row whose largest magnitude
    is 0 or not finite gets that magnitude as its norm.
    """
    scale = np.abs(rows).max(axis=1, initial=0.0)
    ok = (scale != 0.0) & np.isfinite(scale)
    unit = rows / np.where(ok, scale, 1.0)[:, None]
    return np.where(ok, scale * np.sqrt(np.vecdot(unit, unit)), scale)


def similarity(a, b) -> tuple[float, float]:
    """Return (distance, similarity) for two embeddings of equal dimension.

    distance = ||a - b|| / (||a|| + ||b||), clamped into [0, 1] against
    last-ulp drift; similarity = 1 - distance. Two zero vectors compare as
    identical (distance 0); one zero vector falls out of the formula as
    maximally distant.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        raise DimensionMismatch(f"cannot compare {len(a)}-dim and {len(b)}-dim vectors")
    norm_a, norm_b, norm_ab = _row_norms(np.array((a, b, a - b))).tolist()
    if norm_a == 0.0 and norm_b == 0.0:
        return 0.0, 1.0
    dist = norm_ab / (norm_a + norm_b)
    dist = min(max(dist, 0.0), 1.0)
    return dist, 1.0 - dist


def classify(sim: float, delta: float = DEFAULT_DELTA) -> Category:
    """Similar above delta, 1 included, else Dissimilar. Equal embeddings need
    not be equal code: only CorpusIndex.find_clone's text match is a clone."""
    if sim > delta:
        return Category.SIMILAR
    return Category.DISSIMILAR


def _squarable(norms: np.ndarray) -> np.ndarray:
    """Norms whose squares and products neither underflow nor overflow, the
    premise of the Gram bound; False for 0, inf and nan."""
    return (norms >= SQUARABLE[0]) & (norms <= SQUARABLE[1])


def _gram_margin(dim: int) -> float:
    """How far above the k-th smallest Gram distance a row can lie and still
    reach the top k.

    With computed norms a, b and G = fl(q·r), the Gram numerator
    a² + b² - 2G is within γ_{d+9}·(a + b)² of ||q - r||² (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., §3.1), so the Gram
    distance and the exact one are each within √γ_{d+9} + γ_{d+12} of
    ||q - r|| / (a + b). Two such bounds, plus ulps of 1.0 for the rounding of
    1 - d, under which distances an ulp apart give one similarity, and for
    the rounding of the comparison itself.
    """
    gamma = (dim + 12) * 2.0**-53
    gamma /= 1.0 - gamma
    return 2.0 * (math.sqrt(gamma) + gamma) + 4.0 * np.finfo(float).eps


def _gram_candidates(qs: np.ndarray, q_norms: np.ndarray, index: "CorpusIndex",
                     norms: np.ndarray, k: int) -> list[np.ndarray]:
    """For each query, the ascending indices of the rows that can be in its
    exact top k: every row whose Gram distance is within _gram_margin of the
    k-th smallest one, or every row once that cut reaches 1, where the clip
    to [0, 1] can tie the rest. Index rows are read QUERY_TILE at a time; a
    row is set aside when it passes the cut of the rows read so far, which
    only falls, and the final cut then filters what was set aside."""
    margin = _gram_margin(index.vectors.shape[1])

    def cut(kth):
        # A bound of 1 or more comes from a k-th row within rounding of
        # distance 1, as for a query antiparallel to it. Every row is then
        # scored, since the clip to [0, 1] ties rows at 1 and ids break the
        # tie. By the margin, a row the bound alone would drop is farther
        # than the k-th anyway, so this rule guards and never decides.
        bound = kth + margin
        return np.where(bound < 1.0, bound, np.inf)

    kth = np.full((len(qs), k), np.inf)  # the k smallest Gram distances so far
    q_sq = q_norms * q_norms
    found = []
    for start in range(0, len(index.vectors), QUERY_TILE):
        tile = slice(start, start + QUERY_TILE)
        # A broadcast vecdot, one dot per pair: a matrix product would go to
        # a multithreaded gemm, whose buffers raise the process's peak RSS.
        gram = np.vecdot(index.rows(tile)[None], qs[:, None])
        approx = (np.sqrt(np.maximum(q_sq[:, None] + norms[tile] ** 2 - 2.0 * gram, 0.0))
                  / (q_norms[:, None] + norms[tile]))
        kth = np.partition(np.hstack((kth, approx)), k - 1, axis=1)[:, :k]
        qi, ri = np.nonzero(approx <= cut(kth[:, -1])[:, None])
        found.append((qi, ri + start, approx[qi, ri]))
    qi, ri, approx = (np.concatenate(parts) for parts in zip(*found))
    keep = approx <= cut(kth[:, -1])[qi]
    qi, ri = qi[keep], ri[keep]
    by_query = np.lexsort((ri, qi))
    return np.split(ri[by_query], np.cumsum(np.bincount(qi, minlength=len(qs)))[:-1])


def query_top_k(queries, index: "CorpusIndex", k: int = 3,
                delta: float = DEFAULT_DELTA) -> list[list[SimilarityMatch]]:
    """Exact brute-force top-k by similarity, ties broken by entry id, for
    each row of a (Q, d) batch of queries: one list of matches per row.

    Index rows are read through index.rows, QUERY_TILE at a time. Their
    norms and the entry-id order are computed once; the ids come from
    index.entry_ids, so no entry of a loaded index is built. A Gram prefilter
    (_gram_candidates) then picks, per query, the few rows that can be in its
    top k, and only those are scored, with the arithmetic of similarity():
    the norm of q - row over the sum of norms, clipped, two zero vectors at
    distance 0, then ranked by similarity and entry id. The prefilter's
    rounding is bounded, so it decides only which rows get scored, never a
    score: scores and order are bit-identical to scoring every pair. A query
    scores every row, QUERY_TILE at a time, when the bound's premise fails:
    k reaches the index size, or a norm of the query or of any row is zero,
    not finite or outside SQUARABLE.

    Matches are categorized by classify, never Clone; those below delta are
    still returned, as Dissimilar. An empty index yields an empty list per
    query; an empty batch yields [] without reading the index. The caller
    checks that queries and index come from one embedder, as run_scan does.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if len(queries) == 0 or not index.entries:
        return [[] for _ in queries]
    stored = index.vectors
    if stored is None or len(stored) != len(index.entries):
        raise ProviderMismatch(
            f"index holds {0 if stored is None else len(stored)} embeddings "
            f"for {len(index.entries)} entries")
    n, dim = stored.shape
    qs = np.asarray(queries, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != dim:
        raise DimensionMismatch(
            f"index holds {dim}-dim vectors, queries have shape {qs.shape}")
    ids = index.entry_ids
    id_rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))  # Python str order
    norms = np.concatenate([_row_norms(index.rows(slice(start, start + QUERY_TILE)))
                            for start in range(0, n, QUERY_TILE)])
    q_norms = _row_norms(qs)
    prefilter = _squarable(q_norms) & (k < n) & _squarable(norms).all()
    # At most QUERY_TILE queries per call, so its (queries, QUERY_TILE)
    # temporaries do not grow with the batch.
    pre_qs, pre_norms = qs[prefilter], q_norms[prefilter]
    candidates = chain.from_iterable(
        _gram_candidates(pre_qs[start:start + QUERY_TILE], pre_norms[start:start + QUERY_TILE],
                         index, norms, k)
        for start in range(0, len(pre_qs), QUERY_TILE))
    every_row = np.arange(n)
    results = []
    for q, norm_q, prefiltered in zip(qs, q_norms, prefilter):
        cand = next(candidates) if prefiltered else every_row
        denom = norm_q + norms[cand]
        with np.errstate(divide="ignore", invalid="ignore"):
            dists = np.clip(np.concatenate([
                _row_norms(q - index.rows(cand[start:start + QUERY_TILE]))
                for start in range(0, len(cand), QUERY_TILE)]) / denom, 0.0, 1.0)
        dists[denom == 0.0] = 0.0  # two zero vectors compare as identical
        sims = 1.0 - dists
        top = np.lexsort((id_rank[cand], -sims))[:k]
        results.append([SimilarityMatch(entry_id=ids[i], distance=dist, similarity=sim,
                                        category=classify(sim, delta))
                        for i, dist, sim in zip(cand[top].tolist(), dists[top].tolist(),
                                                sims[top].tolist())])
    return results


def embed_chunks(texts: list[str], provider, embed=embed_texts):
    """Embed texts through embed (embed_texts or embed_sums), EMBED_CHUNK of
    them per call, in order.

    Yields (span, result) per chunk, span being the chunk's slice of texts and
    result what embed returned, or the ProviderError that embedding it raised,
    after embed_texts' one retry. A chunk whose rows are not as wide as those
    of this call's first good chunk fails too, with its own ProviderError. A
    failed chunk does not stop the chunks after it.
    """
    width = None
    for start in range(0, len(texts), EMBED_CHUNK):
        span = slice(start, start + EMBED_CHUNK)
        try:
            result = embed(texts[span], provider)
            got = (result[0] if embed is embed_sums else result).shape[1]
            if width is not None and got != width:
                raise ProviderError(f"embedding endpoint returned {got} dims, expected {width}")
            width = got
        except ProviderError as exc:
            result = exc
        yield span, result


def embed_index(index: "CorpusIndex", provider) -> None:
    """Embed every entry's normalized source into the index matrix, row i
    for entries[i], and stamp the index with the provider id. Texts go to
    the provider EMBED_CHUNK at a time, in entry order, and each chunk's rows
    are copied into one preallocated matrix; the first chunk that fails, as
    embed_chunks defines it, raises its ProviderError.

    The fallback embedder's chunks come from embed_sums, and the matrix is
    their integer sums, with their norms in index.norms: the form save_index
    stores, and no float64 quotient is built. Any other provider's matrix is
    float64 rows, and index.norms is None.
    """
    texts = [index.normalized_source(pos) for pos in range(len(index.entries))]
    split = isinstance(provider, FallbackEmbedder)
    vectors, norms = None, (np.empty(len(texts)) if split else None)
    for span, result in embed_chunks(texts, provider, embed_sums if split else embed_texts):
        if isinstance(result, ProviderError):
            raise result
        if split:
            result, norms[span] = result
        if vectors is None:
            vectors = np.empty((len(texts), result.shape[1]), result.dtype)
        elif result.dtype.itemsize > vectors.itemsize:
            # An int16 chunk after int8 ones widens the matrix: still the
            # narrowest type that holds every sum.
            vectors = vectors.astype(result.dtype)
        vectors[span] = result
    if vectors is not None:
        index.vectors, index.norms = vectors, norms
    index.meta.embedder_id = provider.provider_id
