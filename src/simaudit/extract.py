"""Lexical extraction of Solidity function and modifier units.

Everything here works from one flat token stream and brace matching, not a
grammar, so sources that do not compile (snippets, truncated vendored files,
exotic pragma versions) still yield units. Normalized text is a join of a run
of the same tokens, never a second lexer. Call targets are collected
syntactically: any identifier applied like a call is reported, and the
resolver downstream decides what it actually names.

The token stream is the list one _LEXER.split pass returns (_Tokens), with
no object per token: structure comes from list.index and list.count over the
token texts, offsets are computed only where a unit starts or ends or an
error points, and a unit's normalized text is one join of a slice of the list.
Identifiers and numbers start where str.isalpha / str.isdigit say they do,
Unicode included; the regex word and digit classes disagree with those on a
fixed set of code points, committed as _NUMERIC_NOT_DIGIT and _DIGIT_NOT_DECIMAL.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count

from .errors import UnbalancedBraces, UnterminatedBlockComment, UnterminatedString

_ELEMENTARY_TYPES = (
    ["address", "payable", "bool", "string", "bytes", "byte"]
    + ["uint"] + [f"uint{8 * i}" for i in range(1, 33)]
    + ["int"] + [f"int{8 * i}" for i in range(1, 33)]
    + [f"bytes{i}" for i in range(1, 33)]
)

# Identifiers that look like calls but are language built-ins rather than
# user units: error handling, hashing, math/blocks, lifecycle, type
# conversions, and the built-in error types seen in catch clauses. Member
# names such as `transfer` or `call` are deliberately NOT here: an ERC20-style
# contract legitimately declares them, and unknown members surface harmlessly
# as unresolved calls instead.
BUILTIN_DENYLIST = frozenset(
    [
        "require", "assert", "revert",
        "keccak256", "sha256", "sha3", "ripemd160", "ecrecover",
        "addmod", "mulmod", "blockhash", "blobhash", "gasleft",
        "selfdestruct", "suicide",
        "type",
        "Error", "Panic",
    ]
    + _ELEMENTARY_TYPES
)

# Control-flow and declaration keywords that can precede a "(" without being
# calls at all.
_NEVER_CALLS = frozenset({
    "if", "else", "for", "while", "do", "return", "returns", "assembly",
    "unchecked", "try", "catch", "new", "emit", "delete", "function",
    "modifier", "constructor", "fallback", "receive", "using", "is",
})

# Keywords that may appear between a unit's parameter list and its body.
_HEADER_KEYWORDS = frozenset({
    "public", "private", "internal", "external", "pure", "view", "payable",
    "constant", "virtual", "immutable",
})

_CONTRACT_KEYWORDS = frozenset({"contract", "library", "interface"})


class UnitKind(str, Enum):
    FUNCTION = "function"
    MODIFIER = "modifier"
    CONSTRUCTOR = "constructor"
    FALLBACK = "fallback"
    RECEIVE = "receive"


_KIND_BY_KEYWORD = {kind.value: kind for kind in UnitKind}
_UNIT_KEYWORDS = frozenset(_KIND_BY_KEYWORD)


@dataclass(frozen=True)
class FunctionUnit:
    """One extracted function, modifier, constructor, fallback, or receive."""

    unit_id: str
    kind: UnitKind
    name: str
    contract: str
    file_path: str
    raw_source: str
    normalized_source: str
    content_hash: str
    declared_calls: tuple[str, ...]
    source_span: tuple[int, int]


def normalize(raw: str) -> str:
    """Strip comments and collapse whitespace runs to single spaces.

    String literals pass through verbatim, including anything that looks like
    a comment marker inside them. Strings must close on their own line and
    block comments must close: the output feeds content hashing and must be a
    fixed point. The lexing is extraction's; the strictness is _Tokens.join's.
    """
    tokens = _Tokens(raw)
    text = tokens.join(0, len(tokens.texts))
    if tokens.open_comment is not None:
        raise UnterminatedBlockComment("unterminated block comment", offset=tokens.open_comment)
    return text


def content_hash(normalized: str) -> str:
    """Hex SHA-256 of the UTF-8 bytes of a normalized source string."""
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


# Where the str predicates that start Solidity identifiers and numbers part
# ways with the regex classes: \w is exactly str.isalnum() or "_" on every
# code point, and \d lies inside str.isdigit(), so only these two sets of
# (first, last) code point ranges are missing. They hold for Unicode 13.0 to
# 15.1 (Python 3.10 to 3.13): the Kaktovik numerals U+1D2C0-U+1D2D3, new in
# 15.0, are excluded from identifier starts on every Python, which changes
# nothing where they are unassigned. tests/test_extract.py rebuilds both sets
# from the predicates and prints fresh constants when the running Python's
# tables need them.
# isalnum() but neither isalpha() nor isdigit(), such as "½" and "Ⅻ":
_NUMERIC_NOT_DIGIT = (
    (0x000BC, 0x000BE), (0x009F4, 0x009F9), (0x00B72, 0x00B77), (0x00BF0, 0x00BF2),
    (0x00C78, 0x00C7E), (0x00D58, 0x00D5E), (0x00D70, 0x00D78), (0x00F2A, 0x00F33),
    (0x01372, 0x0137C), (0x016EE, 0x016F0), (0x017F0, 0x017F9), (0x02150, 0x02182),
    (0x02185, 0x02189), (0x02469, 0x02473), (0x0247D, 0x02487), (0x02491, 0x0249B),
    (0x024EB, 0x024F4), (0x024FE, 0x024FE), (0x0277F, 0x0277F), (0x02789, 0x02789),
    (0x02793, 0x02793), (0x02CFD, 0x02CFD), (0x03007, 0x03007), (0x03021, 0x03029),
    (0x03038, 0x0303A), (0x03192, 0x03195), (0x03220, 0x03229), (0x03248, 0x0324F),
    (0x03251, 0x0325F), (0x03280, 0x03289), (0x032B1, 0x032BF), (0x0A6E6, 0x0A6EF),
    (0x0A830, 0x0A835), (0x10107, 0x10133), (0x10140, 0x10178), (0x1018A, 0x1018B),
    (0x102E1, 0x102FB), (0x10320, 0x10323), (0x10341, 0x10341), (0x1034A, 0x1034A),
    (0x103D1, 0x103D5), (0x10858, 0x1085F), (0x10879, 0x1087F), (0x108A7, 0x108AF),
    (0x108FB, 0x108FF), (0x10916, 0x1091B), (0x109BC, 0x109BD), (0x109C0, 0x109CF),
    (0x109D2, 0x109FF), (0x10A44, 0x10A48), (0x10A7D, 0x10A7E), (0x10A9D, 0x10A9F),
    (0x10AEB, 0x10AEF), (0x10B58, 0x10B5F), (0x10B78, 0x10B7F), (0x10BA9, 0x10BAF),
    (0x10CFA, 0x10CFF), (0x10E69, 0x10E7E), (0x10F1D, 0x10F26), (0x10F51, 0x10F54),
    (0x10FC5, 0x10FCB), (0x1105B, 0x11065), (0x111E1, 0x111F4), (0x1173A, 0x1173B),
    (0x118EA, 0x118F2), (0x11C5A, 0x11C6C), (0x11FC0, 0x11FD4), (0x12400, 0x1246E),
    (0x16B5B, 0x16B61), (0x16E80, 0x16E96), (0x1D2C0, 0x1D2D3), (0x1D2E0, 0x1D2F3),
    (0x1D360, 0x1D378), (0x1E8C7, 0x1E8CF), (0x1EC71, 0x1ECAB), (0x1ECAD, 0x1ECAF),
    (0x1ECB1, 0x1ECB4), (0x1ED01, 0x1ED2D), (0x1ED2F, 0x1ED3D), (0x1F10B, 0x1F10C),
)
# isdigit() but not \d, such as "²" and "①":
_DIGIT_NOT_DECIMAL = (
    (0x000B2, 0x000B3), (0x000B9, 0x000B9), (0x01369, 0x01371), (0x019DA, 0x019DA),
    (0x02070, 0x02070), (0x02074, 0x02079), (0x02080, 0x02089), (0x02460, 0x02468),
    (0x02474, 0x0247C), (0x02488, 0x02490), (0x024EA, 0x024EA), (0x024F5, 0x024FD),
    (0x024FF, 0x024FF), (0x02776, 0x0277E), (0x02780, 0x02788), (0x0278A, 0x02792),
    (0x10A40, 0x10A43), (0x10E60, 0x10E68), (0x11052, 0x1105A), (0x1F100, 0x1F10A),
)


def _class_body(ranges: tuple[tuple[int, int], ...]) -> str:
    # None of these code points is special inside a regex class, and literal
    # characters compile faster than escapes.
    return "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in ranges)


_SPACE = r"[ \t\r\n\f\v]*"
# A match never backtracks: the gap takes all it can and some token
# alternative always matches after it, "\Z" at the end of the text. So a
# token never starts with whitespace, and "[\s\S]" is any other character.
_LEXER = re.compile(
    # Group 1, skipped: whitespace, line comments and closed block comments.
    # Taking them into the match spares the engine a try of every token
    # alternative at each space.
    rf"({_SPACE}(?:(?://[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/){_SPACE})*)"
    # Group 2, the token; the likeliest alternatives come first.
    r"([!#%&()*+,\-.:;<=>?@\[\\\]^`{|}~]"  # ASCII punctuation but / " ' $ _
    r"|[A-Za-z_$][\w$]*"
    # Group 3, inside the token, is the same text when it is a string. A
    # string runs to its quote, a newline (kept) or the end of the text; a
    # backslash takes the next character with it, whatever it is.
    r'|("[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*["\n\\]?'
    r"|'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*['\n\\]?)"
    r"|/(?:\*[\s\S]*)?"  # "/", or a "/*" that never closes and takes the rest
    rf"|[^\W\d\x00-\x7f{_class_body(_NUMERIC_NOT_DIGIT + _DIGIT_NOT_DECIMAL)}][\w$]*"
    rf"|[\d{_class_body(_DIGIT_NOT_DECIMAL)}][\w.]*"
    r"|[\s\S]"
    r"|\Z)"
)


def _closed(string: str) -> bool:
    """Whether a string token ends in its own quote after an even run of
    backslashes."""
    body = string[1:-1]
    escapes = len(body) - len(body.rstrip("\\"))
    return len(string) > 1 and string[-1] == string[0] and escapes % 2 == 0


def _is_id(text: str) -> bool:
    """Whether a token is an identifier, by the same test the lexer applies."""
    return text[0].isalpha() or text[0] in "_$"


def _text(texts: list[str], j: int) -> str:
    """texts[j], or "" when j is outside the list."""
    return texts[j] if j < len(texts) else ""


class _Tokens:
    """One source's tokens, kept as the list that _LEXER.split returns.

    Lenient, since structure discovery has to survive junk: a string cut off
    by a newline or the end of the text is a token listed in open_strings,
    and an unclosed "/*" swallows the rest without becoming a token (its
    offset is open_comment). join() is where strictness lives.

    The split list, _parts, is [gap, skipped, token, string, gap, ...], four
    per match: every gap is empty, as each match starts where the last one
    ended, and string (group 3) is blanked to "" here, so texts[k] ==
    _parts[4k + 2] and the source is "".join(_parts). texts leaves out the
    empty token that the last match or two take at the end of the text.
    """

    __slots__ = ("texts", "open_strings", "open_comment", "_parts", "_norm", "_at", "_pos")

    def __init__(self, source: str):
        parts = _LEXER.split(source)
        strings = parts[3::4]
        parts[3::4] = [""] * len(strings)
        texts = parts[2::4]
        while texts and not texts[-1]:
            texts.pop()
        self.open_comment = None
        if texts and texts[-1].startswith("/*"):  # closed ones are skipped
            self.open_comment = len(source) - len(texts.pop())
        self._parts, self.texts = parts, texts
        self.open_strings = [k for k in compress(count(), strings) if not _closed(texts[k])]
        # _parts with each non-empty skipped run as one space.
        self._norm = parts.copy()
        self._norm[1::4] = [skipped and " " for skipped in parts[1::4]]
        self._at = self._pos = 0  # a cursor: _parts[:_at] hold _pos characters

    def offset(self, k: int) -> int:
        """Source offset of token k. Cheap when asked in ascending order,
        since the cursor only adds the parts it moves over."""
        at = 4 * k + 2
        if at < self._at:
            self._at = self._pos = 0
        self._pos += len("".join(self._parts[self._at:at]))
        self._at = at
        return self._pos

    def join(self, first: int, stop: int, file_path: str | None = None) -> str:
        """Normalized text of tokens [first, stop): their texts, one space
        wherever whitespace or a comment separated two of them. Raises
        UnterminatedString, naming file_path, at the first open string."""
        i = bisect_left(self.open_strings, first)
        if i < len(self.open_strings) and self.open_strings[i] < stop:
            raise UnterminatedString("unterminated string literal", file_path=file_path,
                                     offset=self.offset(self.open_strings[i]))
        return "".join(self._norm[4 * first + 2:4 * stop])


def _match_group(tokens: _Tokens, i: int, file_path: str,
                 pair: str = "()", unclosed: str = "unclosed parenthesis") -> int:
    """Return the index just past the closer matching the opener at
    texts[i]; pair holds the opening and closing bracket. Each step jumps to
    the next closer and counts the openers it passed."""
    opener, closer = pair
    texts = tokens.texts
    depth, j = 1, i + 1
    try:
        while depth:
            k = texts.index(closer, j)
            depth += texts[j:k].count(opener) - 1
            j = k + 1
    except ValueError:
        raise UnbalancedBraces(unclosed, file_path=file_path, offset=tokens.offset(i)) from None
    return j


def _header_calls(tokens: _Tokens, i: int, file_path: str) -> tuple[list[str], int]:
    """Scan a unit header for modifier invocations.

    Returns (names, end): texts[end] is the first "{" (body follows) or ";"
    (bodyless declaration) at paren depth 0.
    """
    texts = tokens.texts
    names: list[str] = []
    while i < len(texts):
        text = texts[i]
        if text in ("{", ";"):
            return names, i
        if text == "(":
            i = _match_group(tokens, i, file_path)
            continue
        i += 1
        if text in _HEADER_KEYWORDS or not _is_id(text):
            continue
        # Any other identifier is a modifier invocation or base-constructor
        # call; `returns (...)` and `override(...)` are skipped whole.
        if text not in ("returns", "override"):
            names.append(text)
        if _text(texts, i) == "(":
            i = _match_group(tokens, i, file_path)
    raise UnbalancedBraces("unit header never terminated", file_path=file_path,
                           offset=tokens.offset(i - 1))


def _body_calls(texts: list[str], lo: int, hi: int) -> list[str]:
    """Identifiers applied like calls in texts[lo:hi], a body from its "{":
    only the "(" tokens are visited, with the up to three tokens before
    each, which all lie in the body as texts[lo] is no identifier."""
    names: list[str] = []
    j = lo
    try:
        while True:
            j = texts.index("(", j + 1, hi)
            text = texts[j - 1]
            if text in _NEVER_CALLS or text in BUILTIN_DENYLIST or not _is_id(text):
                continue
            # `new C()` builds a contract, `emit E()` fires an event, and
            # `revert E()` raises a custom error; none call a unit named C/E.
            prev = texts[j - 2]
            if prev in ("new", "emit", "revert") or (prev == "." and texts[j - 3] == "abi"):
                continue
            names.append(text)
    except ValueError:
        return names



def extract_units(source: str, file_path: str) -> list[FunctionUnit]:
    """Extract every function-like unit from one Solidity source text.

    Units are returned in source order. Contracts, libraries, interfaces and
    abstract contracts are all scanned; free-standing file-level functions are
    picked up too, with an empty contract name. An input with no units is a
    valid empty result, not an error.
    """
    tokens = _Tokens(source)
    texts = tokens.texts
    units: list[FunctionUnit] = []
    ordinals: dict[tuple[str, str], int] = {}
    # Stack of (contract name, brace depth at which it closes, its "{" token).
    contract_stack: list[tuple[str, int, int]] = []
    depth = 0
    i, n = 0, len(texts)

    def make_unit(kind, name, contract, first, stop, calls):
        ordinal = ordinals.get((contract, name), 0)
        ordinals[(contract, name)] = ordinal + 1
        start = tokens.offset(first)
        norm = tokens.join(first, stop, file_path)
        end = tokens.offset(stop - 1) + len(texts[stop - 1])
        raw = source[start:end]
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
        text = texts[i]
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
            if contract_stack and depth == contract_stack[-1][1]:
                contract_stack.pop()
        elif text in _CONTRACT_KEYWORDS and depth == 0:
            try:
                j = texts.index("{", i + 1)
            except ValueError:
                raise UnbalancedBraces("contract declaration without a body",
                                       file_path=file_path, offset=tokens.offset(i)) from None
            names = [t for t in texts[i + 1:j] if _is_id(t) and t not in ("is", "abstract")]
            name = names[0] if names else ""
            contract_stack.append((name, depth, j))
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
                if _text(texts, j) != "(":
                    i += 1  # keyword used as a plain identifier in old code
                    continue
            elif j < n and _is_id(texts[j]):
                name = texts[j]
                j += 1
            elif kw == "function" and _text(texts, j) == "(":
                # Old-style unnamed `function() ... {}` is the legacy
                # fallback; the same shape ending in ";" is a function-type
                # state variable and is skipped below.
                name = "fallback"
                kind = UnitKind.FALLBACK
            else:
                i += 1
                continue
            if _text(texts, j) == "(":
                j = _match_group(tokens, j, file_path)
            header_names, header_end = _header_calls(tokens, j, file_path)
            if texts[header_end] == ";":
                if not (name == "fallback" and kw == "function"):
                    make_unit(kind, name, contract, i, header_end + 1, header_names)
                i = header_end + 1
                continue
            body_close = _match_group(tokens, header_end, file_path, "{}", "unclosed brace")
            calls = header_names + _body_calls(texts, header_end, body_close)
            make_unit(kind, name, contract, i, body_close, calls)
            i = body_close
            continue
        i += 1

    if contract_stack:
        raise UnbalancedBraces("contract body never closes", file_path=file_path,
                               offset=tokens.offset(contract_stack[-1][2]))
    return units
