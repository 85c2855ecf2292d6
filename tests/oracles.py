"""Reference implementations used only by tests.

Each oracle recomputes a result through a mechanism deliberately different
from the package's own (placeholder substitution instead of a streaming
emitter, reachability closure instead of Tarjan, plain math instead of numpy),
so agreement between the two is evidence rather than tautology. Seven
exceptions keep the package's original code on purpose, to pin results bit
for bit: reference_tokenize (the character loop of the Solidity lexer),
reference_extract_units (extraction over that loop's token tuples),
reference_label_hits (every index entry scanned for each label row),
scalar_similarity (pair-at-a-time numpy arithmetic),
reference_fallback_embedding (the per-tap loop of the fallback embedder),
reference_embed_many (the fallback embedder's whole-batch arrays) and
reference_query_top_k (one query over the whole index matrix, ranked by a
Python sort).
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np

from simaudit.errors import (
    DimensionMismatch,
    ProviderMismatch,
    UnbalancedBraces,
    UnterminatedString,
)
from simaudit.extract import (
    _CONTRACT_KEYWORDS,
    _HEADER_KEYWORDS,
    _KIND_BY_KEYWORD,
    _NEVER_CALLS,
    _UNIT_KEYWORDS,
    BUILTIN_DENYLIST,
    FunctionUnit,
    UnitKind,
    content_hash,
)
from simaudit.simindex import DEFAULT_DELTA, SimilarityMatch, _row_norms, classify


class OracleUnterminatedComment(Exception):
    def __init__(self, offset: int):
        super().__init__(f"unterminated block comment at {offset}")
        self.offset = offset


class OracleUnterminatedString(Exception):
    def __init__(self, offset: int):
        super().__init__(f"unterminated string at {offset}")
        self.offset = offset


_WS_RUN = re.compile(r"[ \t\r\n\f\v]+")


def reference_normalize(raw: str) -> str:
    """Normalize by cutting the text into string/non-string segments, masking
    the strings behind NUL placeholders, regex-collapsing whitespace, then
    substituting the strings back. Precondition: no NUL in the input.
    """
    assert "\x00" not in raw
    strings: list[str] = []
    pieces: list[str] = []
    i, n = 0, len(raw)
    while i < n:
        c = raw[i]
        if raw.startswith("//", i):
            nl = raw.find("\n", i)
            i = n if nl == -1 else nl  # the newline itself stays, as whitespace
            pieces.append(" ")
        elif raw.startswith("/*", i):
            end = raw.find("*/", i + 2)
            if end == -1:
                raise OracleUnterminatedComment(i)
            pieces.append(" ")
            i = end + 2
        elif c in "'\"":
            j = i + 1
            while True:
                if j >= n or raw[j] == "\n":
                    raise OracleUnterminatedString(i)
                if raw[j] == "\\":
                    j += 2
                elif raw[j] == c:
                    break
                else:
                    j += 1
            strings.append(raw[i : j + 1])
            pieces.append("\x00")
            i = j + 1
        else:
            pieces.append(c)
            i += 1
    text = _WS_RUN.sub(" ", "".join(pieces)).strip(" ")
    out: list[str] = []
    k = 0
    for ch in text:
        if ch == "\x00":
            out.append(strings[k])
            k += 1
        else:
            out.append(ch)
    return "".join(out)


def count_distinct_normalized(texts: list[str]) -> int:
    """How many entries a dedup-on-normalized-text ingest should keep."""
    return len({reference_normalize(t) for t in texts})


_WHITESPACE = " \t\r\n\f\v"


def reference_tokenize(source: str) -> tuple[list[tuple[str, str, int, int]], int | None]:
    """The lexer's character loop kept as it was: (kind, text, start, end)
    tokens plus the offset of an unclosed "/*" (or None). Its str.isalpha /
    isdigit / isalnum tests are what any faster lexer must reproduce, Unicode
    included ('²' starts a number, '½' is punctuation)."""
    tokens: list[tuple[str, str, int, int]] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in _WHITESPACE:
            i += 1
        elif source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
        elif source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                return tokens, i
            i = j + 2
        elif ch in "\"'":
            j = i + 1
            while j < n and source[j] != ch and source[j] != "\n":
                j += 2 if source[j] == "\\" else 1
            kind = "str" if j < n and source[j] == ch else "open_str"
            j = min(j + 1, n)
            tokens.append((kind, source[i:j], i, j))
            i = j
        elif ch.isalpha() or ch in "_$":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            tokens.append(("id", source[i:j], i, j))
            i = j
        elif ch.isdigit():
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] in "._"):
                j += 1
            tokens.append(("num", source[i:j], i, j))
            i = j
        else:
            tokens.append(("punct", ch, i, i + 1))
            i += 1
    return tokens, None



_RefToken = tuple[str, str, int, int]


def _ref_text(tokens: list[_RefToken], j: int) -> str:
    """Text of tokens[j], or "" when j is outside the list."""
    return tokens[j][1] if 0 <= j < len(tokens) else ""


def _ref_join(tokens: list[_RefToken], file_path: str) -> str:
    """Normalized text of a run of tokens: their texts, one space wherever
    whitespace or a comment separated two of them. Raises UnterminatedString,
    naming file_path, at the first open string."""
    out: list[str] = []
    prev_end = tokens[0][2] if tokens else 0
    for kind, text, start, end in tokens:
        if kind == "open_str":
            raise UnterminatedString("unterminated string literal", file_path=file_path,
                                     offset=start)
        if start > prev_end:
            out.append(" ")
        out.append(text)
        prev_end = end
    return "".join(out)


def _ref_match_group(tokens: list[_RefToken], i: int, file_path: str,
                 pair: str = "()", unclosed: str = "unclosed parenthesis") -> int:
    """Return the index just past the closer matching the opener at tokens[i];
    pair holds the opening and closing bracket."""
    opener, closer = pair
    depth = 0
    for j in range(i, len(tokens)):
        text = tokens[j][1]
        if text == opener:
            depth += 1
        elif text == closer:
            depth -= 1
            if depth == 0:
                return j + 1
    raise UnbalancedBraces(unclosed, file_path=file_path, offset=tokens[i][2])


def _ref_header_calls(tokens: list[_RefToken], i: int, file_path: str) -> tuple[list[str], int]:
    """Scan a unit header for modifier invocations.

    Returns (names, end): tokens[end] is the first "{" (body follows) or ";"
    (bodyless declaration) at paren depth 0.
    """
    names: list[str] = []
    while i < len(tokens):
        kind, text = tokens[i][:2]
        if text in ("{", ";"):
            return names, i
        if text == "(":
            i = _ref_match_group(tokens, i, file_path)
            continue
        i += 1
        if kind != "id" or text in _HEADER_KEYWORDS:
            continue
        # Any other identifier is a modifier invocation or base-constructor
        # call; `returns (...)` and `override(...)` are skipped whole.
        if text not in ("returns", "override"):
            names.append(text)
        if _ref_text(tokens, i) == "(":
            i = _ref_match_group(tokens, i, file_path)
    raise UnbalancedBraces("unit header never terminated", file_path=file_path,
                           offset=tokens[i - 1][2] if i > 0 else 0)


def _ref_body_calls(tokens: list[_RefToken]) -> list[str]:
    names: list[str] = []
    for idx, (kind, text, _, _) in enumerate(tokens):
        if kind != "id" or _ref_text(tokens, idx + 1) != "(":
            continue
        if text in _NEVER_CALLS or text in BUILTIN_DENYLIST:
            continue
        # `new C()` builds a contract, `emit E()` fires an event, and
        # `revert E()` raises a custom error; none call a unit named C/E.
        prev = _ref_text(tokens, idx - 1)
        if prev in ("new", "emit", "revert"):
            continue
        if prev == "." and _ref_text(tokens, idx - 2) == "abi":
            continue
        names.append(text)
    return names


def reference_extract_units(source: str, file_path: str) -> list[FunctionUnit]:
    """Extraction kept as it was when every token was a (kind, text, start,
    end) tuple: a Python loop over the tuples for joins, bracket matching and
    calls. Every field of every unit, and the type, message, file and offset
    of any error, are what extract_units must reproduce."""
    tokens, _ = reference_tokenize(source)
    units: list[FunctionUnit] = []
    ordinals: dict[tuple[str, str], int] = {}
    # Stack of (contract name, brace depth at which it closes, open offset).
    contract_stack: list[tuple[str, int, int]] = []
    depth = 0
    i, n = 0, len(tokens)

    def make_unit(kind, name, contract, first, stop, calls):
        ordinal = ordinals.get((contract, name), 0)
        ordinals[(contract, name)] = ordinal + 1
        start, end = tokens[first][2], tokens[stop - 1][3]
        raw = source[start:end]
        norm = _ref_join(tokens[first:stop], file_path)
        unit = FunctionUnit(
            unit_id=f"{file_path}::{contract}::{name}#{ordinal}",
            kind=kind,
            name=name,
            contract=contract,
            file_path=file_path,
            raw_source=raw,
            normalized_source=norm,
            content_hash=content_hash(norm),
            declared_calls=tuple(dict.fromkeys(calls)),
            source_span=(start, end),
        )
        units.append(unit)

    while i < n:
        text = tokens[i][1]
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
            if contract_stack and depth == contract_stack[-1][1]:
                contract_stack.pop()
        elif text in _CONTRACT_KEYWORDS and depth == 0:
            j = i + 1
            name = ""
            while j < n and tokens[j][1] != "{":
                if name == "" and tokens[j][0] == "id" and tokens[j][1] not in ("is", "abstract"):
                    name = tokens[j][1]
                j += 1
            if j >= n:
                raise UnbalancedBraces("contract declaration without a body",
                                       file_path=file_path, offset=tokens[i][2])
            contract_stack.append((name, depth, tokens[j][2]))
            depth += 1
            i = j + 1
            continue
        elif text in _UNIT_KEYWORDS and (
                (contract_stack and depth == contract_stack[-1][1] + 1)
                or (depth == 0 and text == "function")):
            contract = contract_stack[-1][0] if contract_stack else ""
            kw = text
            kind = _KIND_BY_KEYWORD[kw]
            j = i + 1
            if kw in ("constructor", "fallback", "receive"):
                name = kw
                if _ref_text(tokens, j) != "(":
                    i += 1  # keyword used as a plain identifier in old code
                    continue
            elif j < n and tokens[j][0] == "id":
                name = tokens[j][1]
                j += 1
            elif kw == "function" and _ref_text(tokens, j) == "(":
                # Old-style unnamed `function() ... {}` is the legacy
                # fallback; the same shape ending in ";" is a function-type
                # state variable and is skipped below.
                name = "fallback"
                kind = UnitKind.FALLBACK
            else:
                i += 1
                continue
            if _ref_text(tokens, j) == "(":
                j = _ref_match_group(tokens, j, file_path)
            header_names, header_end = _ref_header_calls(tokens, j, file_path)
            if tokens[header_end][1] == ";":
                if not (name == "fallback" and kw == "function"):
                    make_unit(kind, name, contract, i, header_end + 1, header_names)
                i = header_end + 1
                continue
            body_close = _ref_match_group(tokens, header_end, file_path, "{}", "unclosed brace")
            calls = header_names + _ref_body_calls(tokens[header_end:body_close])
            make_unit(kind, name, contract, i, body_close, calls)
            i = body_close
            continue
        i += 1

    if contract_stack:
        raise UnbalancedBraces("contract body never closes", file_path=file_path,
                               offset=contract_stack[-1][2])
    return units


# Identifier immediately applied like a call. Only sound on deliberately plain
# fixture code: no comments, no strings, no builtins-as-calls, no new/emit.
_CALL_RE = re.compile(r"\b([A-Za-z_$][A-Za-z0-9_$]*)\s*\(")

_FLAT_FN_RE = re.compile(
    r"function\s+([A-Za-z_$][A-Za-z0-9_$]*)\s*\([^)]*\)[^{;]*\{([^{}]*)\}")


def reference_label_hits(entries, row) -> list[str]:
    """Entry ids a label row marks, found the original way: a scan of every
    entry for the row's package, version and name or hash, in entry order."""
    hits = []
    for entry in entries:
        if entry.package != row.package or entry.version != row.version:
            continue
        if row.match_kind == "name" and entry.name != row.match_value:
            continue
        if row.match_kind == "hash" and entry.content_hash != row.match_value:
            continue
        hits.append(entry.entry_id)
    return hits


def regex_calls(source: str) -> dict[str, list[str]]:
    """Per-function call names for flat one-brace-deep fixture functions."""
    out: dict[str, list[str]] = {}
    for m in _FLAT_FN_RE.finditer(source):
        name, body = m.group(1), m.group(2)
        seen: list[str] = []
        for call in _CALL_RE.finditer(body):
            if call.group(1) not in seen:
                seen.append(call.group(1))
        out[name] = seen
    return out


def reachability(vertices, edges) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
    reach: dict[str, set[str]] = {}
    for v in vertices:
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach[v] = seen
    return reach


def scc_partition(vertices, edges) -> dict[str, frozenset[str]]:
    """v and w share a component iff each reaches the other."""
    reach = reachability(vertices, edges)
    return {
        v: frozenset(w for w in vertices if w in reach[v] and v in reach[w])
        for v in vertices
    }


def check_schedule(order, vertices, edges) -> None:
    """Assert the callee-first contract directly from the edge list."""
    assert sorted(order) == sorted(vertices), "schedule is not a permutation"
    pos = {v: i for i, v in enumerate(order)}
    comp = scc_partition(vertices, edges)
    for caller, callee in edges:
        if comp[caller] != comp[callee]:
            assert pos[callee] < pos[caller], (
                f"callee {callee} scheduled after caller {caller}")
    for group in {c for c in comp.values() if len(c) > 1}:
        positions = sorted(pos[v] for v in group)
        assert positions == list(range(positions[0], positions[0] + len(group))), (
            f"cycle group {sorted(group)} is not scheduled consecutively")


def reference_schedule(vertices, edges) -> tuple[str, ...]:
    """The exact callee-first order, by repeated scans: among the components
    whose callee components are all out, the one whose smallest member id
    sorts first goes next, its members ascending."""
    comp = scc_partition(vertices, edges)
    callees = {c: {comp[b] for a, b in edges if a in c} - {c} for c in comp.values()}
    order: list[str] = []
    left = set(callees)
    while left:
        ready = [c for c in left if not callees[c] & left]
        first = min(ready, key=min)
        order.extend(sorted(first))
        left.remove(first)
    return tuple(order)


def cyclic_groups(vertices, edges) -> set[frozenset[str]]:
    """The strongly connected components of size > 1."""
    comp = scc_partition(vertices, edges)
    return {c for c in comp.values() if len(c) > 1}


def reference_similarity(a, b) -> tuple[float, float]:
    """(distance, similarity) with plain math, no numpy."""
    norm_a = math.hypot(*a) if a else 0.0
    norm_b = math.hypot(*b) if b else 0.0
    if norm_a == 0.0 and norm_b == 0.0:
        return 0.0, 1.0
    dist = math.dist(a, b) / (norm_a + norm_b)
    dist = min(max(dist, 0.0), 1.0)
    return dist, 1.0 - dist


def scalar_norm(values: np.ndarray) -> float:
    # norm(v) squares first, which underflows to 0 for denormal-range
    # components; scale out the magnitude so tiny nonzero vectors keep a
    # nonzero norm.
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * float(np.linalg.norm(values / scale))


def scalar_similarity(a, b) -> tuple[float, float]:
    """(distance, similarity) one vector at a time, with the same numpy
    summation order any faster scoring path must reproduce exactly."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    norm_a = scalar_norm(a)
    norm_b = scalar_norm(b)
    if norm_a == 0.0 and norm_b == 0.0:
        return 0.0, 1.0
    dist = scalar_norm(a - b) / (norm_a + norm_b)
    dist = min(max(dist, 0.0), 1.0)
    return dist, 1.0 - dist


def reference_fallback_embedding(text: str, taps: int = 8) -> np.ndarray:
    """The fallback embedder's original loop: each trigram's keyed BLAKE2b
    digest gives `taps` (index, sign) pairs, added one at a time."""
    dimension = 384
    key = b"simaudit-fallback-v1"
    grams: list[str]
    if len(text) < 3:
        grams = [text]
    else:
        grams = [text[i : i + 3] for i in range(len(text) - 2)]
    acc = np.zeros(dimension)
    for gram, count in Counter(grams).items():
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=3 * taps,
                                 key=key).digest()
        for t in range(taps):
            chunk = digest[3 * t : 3 * t + 3]
            idx = int.from_bytes(chunk[:2], "big") % dimension
            sign = 1.0 if chunk[2] & 1 else -1.0
            acc[idx] += sign * count
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        fallback_idx = int(hashlib.blake2b(text.encode("utf-8"), digest_size=2,
                                           key=key).hexdigest(), 16) % dimension
        acc[fallback_idx] = 1.0
        norm = 1.0
    return np.array(tuple((acc / norm).tolist()))


def reference_embed_many(texts: list[str], taps: int = 8) -> np.ndarray:
    """FallbackEmbedder.embed_many as it was before it worked in slabs: every
    array of the batch at once, one owner entry per code point."""
    dim, n = 384, len(texts)
    key = b"simaudit-fallback-v1"
    acc = np.zeros(n * dim)
    lens = np.fromiter(map(len, texts), dtype=np.intp, count=n)
    # A trigram is its three code points, 21 bits each, packed into one
    # key; it counts only where all three lie inside one text.
    points = np.frombuffer("".join(texts).encode("utf-32-le"), dtype="<u4")
    owner = np.repeat(np.arange(n, dtype=np.int32), lens)
    keys = points[:-2].astype(np.uint64) << 42
    keys |= points[1:-1].astype(np.uint64) << 21
    keys |= points[2:]
    keys = keys[owner[:-2] == owner[2:]]
    # A sort, not np.unique: its hash-set path leaves about 1 MB more heap
    # behind in the process.
    vocab = np.sort(keys)
    first = np.ones(len(vocab), dtype=bool)
    first[1:] = vocab[1:] != vocab[:-1]
    vocab = vocab[first]
    spelled = np.stack([vocab >> 42, (vocab >> 21) & 0x1FFFFF, vocab & 0x1FFFFF], axis=1)
    spelled = spelled.astype("<u4").tobytes().decode("utf-32-le")
    short = np.flatnonzero(lens < 3)
    grams = ([spelled[i : i + 3] for i in range(0, len(spelled), 3)]
             + [texts[i] for i in short.tolist()])
    digests = b"".join(hashlib.blake2b(gram.encode("utf-8"), digest_size=3 * taps,
                                       key=key).digest() for gram in grams)
    # Three bytes per gram and tap: a big-endian 2-byte index, then a byte
    # whose low bit is the sign. The tables are tap-major, (taps, grams).
    tap_bytes = np.frombuffer(digests, dtype=np.uint8).reshape(-1, taps, 3).T.copy()
    idx = (256 * tap_bytes[0].astype(np.intp) + tap_bytes[1]) % dim
    sign = np.where(tap_bytes[2] & 1, 1.0, -1.0)
    # Every occurrence, trigrams in text order and then the short texts:
    # the offset of its text's row in acc, and its gram.
    base = np.concatenate([np.repeat(np.arange(n) * dim, np.maximum(lens - 2, 0)),
                           short * dim])
    gram_of = np.concatenate([np.searchsorted(vocab, keys),
                              len(vocab) + np.arange(len(short))])
    # One tap at a time, through two reused buffers: all taps at once, or
    # fresh temporaries per tap, raise the process's peak RSS.
    at = np.empty_like(base)
    weight = np.empty(len(base))
    for tap_idx, tap_sign in zip(idx, sign):
        np.take(tap_idx, gram_of, out=at)
        at += base
        np.take(tap_sign, gram_of, out=weight)
        acc += np.bincount(at, weights=weight, minlength=n * dim)
    acc = acc.reshape(n, dim)
    # One norm call per row, as for a lone text: a batched sum of squares
    # can round differently once it passes 2**53.
    norms = np.array([np.linalg.norm(row) for row in acc])
    for i in np.flatnonzero(norms == 0.0).tolist():
        # All taps cancelled; park the text on a hash-chosen axis so the
        # result is still deterministic and unit length.
        fallback_idx = int(hashlib.blake2b(texts[i].encode("utf-8"), digest_size=2,
                                           key=key).hexdigest(), 16) % dim
        acc[i, fallback_idx] = 1.0
        norms[i] = 1.0
    acc /= norms[:, None]
    return acc


def reference_query_top_k(query, index, k: int = 3, delta: float = DEFAULT_DELTA):
    """The single-query retrieval kernel kept as it was: the whole index
    matrix in one pass, then a Python sort of (similarity, entry id,
    distance) tuples. Its scores and tie order are what the batched, tiled
    query_top_k must reproduce exactly."""
    if not index.entries:
        return []
    stored = index.vectors
    if stored is None or len(stored) != len(index.entries):
        raise ProviderMismatch(
            f"index holds {0 if stored is None else len(stored)} embeddings "
            f"for {len(index.entries)} entries")
    rows = index.rows()
    q = np.asarray(query, dtype=float)
    if rows.shape[1] != len(q):
        raise DimensionMismatch(
            f"index holds {rows.shape[1]}-dim vectors, query is {len(q)}-dim")
    norm_q = _row_norms(q[None, :])[0]
    denom = norm_q + _row_norms(rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        dists = np.clip(_row_norms(q - rows) / denom, 0.0, 1.0)
    dists[denom == 0.0] = 0.0  # two zero vectors compare as identical
    scored = sorted(zip((1.0 - dists).tolist(), (e.entry_id for e in index.entries),
                        dists.tolist()),
                    key=lambda t: (-t[0], t[1]))
    return [
        SimilarityMatch(entry_id=eid, distance=dist, similarity=sim,
                        category=classify(sim, delta))
        for sim, eid, dist in scored[:k]
    ]


def full_sort_top_k(target_values, labeled_vectors, k) -> list[tuple[str, float]]:
    """Score every entry, sort all of them, take k: the retrieval contract.

    labeled_vectors is a list of (entry_id, values); the result is
    [(entry_id, similarity)] in the promised order.
    """
    scored = []
    for entry_id, values in labeled_vectors:
        _, sim = reference_similarity(target_values, values)
        scored.append((entry_id, sim))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def reference_metrics(tp: int, tn: int, fp: int, fn: int) -> dict:
    """Confusion-matrix rates in exact rational arithmetic; None when the
    denominator vanishes."""
    def ratio(num, den):
        return None if den == 0 else Fraction(num, den)

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    accuracy = ratio(tp + tn, tp + tn + fp + fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    as_float = lambda x: None if x is None else float(x)  # noqa: E731
    return {
        "precision": as_float(precision),
        "recall": as_float(recall),
        "f1": as_float(f1),
        "accuracy": as_float(accuracy),
    }
