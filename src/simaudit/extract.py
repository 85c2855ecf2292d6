"""Lexical extraction of Solidity function and modifier units.

Everything here works from one flat token stream (_tokenize) and brace
matching, not a grammar, so sources that do not compile (snippets, truncated
vendored files, exotic pragma versions) still yield units. Normalized text is
a join of a run of the same tokens, never a second lexer. Call targets are
collected syntactically: any identifier applied like a call is reported, and
the resolver downstream decides what it actually names.

A token is a plain (kind, text, start, end) tuple: kind is "id", "num",
"str", "open_str" or "punct", and source[start:end] == text. Structure is
decided by token text alone wherever the text cannot be ambiguous: only a
"punct" token is a lone bracket, ";" or ".", and only an "id" token is a
keyword, so such checks never look at the kind.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from .errors import UnbalancedBraces, UnterminatedBlockComment, UnterminatedString

# Version tag for the built-in deny-list below. Corpora remember which list
# they were built with only through this constant, so bump it on any change.
BUILTIN_DENYLIST_VERSION = "1"

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
_UNIT_KEYWORDS = frozenset({"function", "modifier", "constructor", "fallback", "receive"})

_WHITESPACE = " \t\r\n\f\v"


class UnitKind(str, Enum):
    FUNCTION = "function"
    MODIFIER = "modifier"
    CONSTRUCTOR = "constructor"
    FALLBACK = "fallback"
    RECEIVE = "receive"


_KIND_BY_KEYWORD = {
    "function": UnitKind.FUNCTION,
    "modifier": UnitKind.MODIFIER,
    "constructor": UnitKind.CONSTRUCTOR,
    "fallback": UnitKind.FALLBACK,
    "receive": UnitKind.RECEIVE,
}


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
    fixed point. The lexing is extraction's; the strictness is _join()'s.
    """
    tokens, open_comment = _tokenize(raw)
    text = _join(tokens, 0)
    if open_comment is not None:
        raise UnterminatedBlockComment("unterminated block comment", offset=open_comment)
    return text


def content_hash(normalized: str) -> str:
    """Hex SHA-256 of the UTF-8 bytes of a normalized source string."""
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


_Token = tuple[str, str, int, int]


def _tokenize(source: str) -> tuple[list[_Token], int | None]:
    """Tokens, plus the offset of an unclosed "/*" (or None). Lenient, since
    structure discovery has to survive junk: a string cut off by a newline or
    the end of the text is an "open_str" token, and an unclosed comment
    swallows the rest without becoming a token, so offsets taken from the
    tokens do not move. _join() is where strictness lives."""
    tokens: list[_Token] = []
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


def _text(tokens: list[_Token], j: int) -> str:
    """Text of tokens[j], or "" when j is outside the list."""
    return tokens[j][1] if 0 <= j < len(tokens) else ""


def _join(tokens: list[_Token], base: int) -> str:
    """Normalized text of a run of tokens: their texts, one space wherever
    whitespace or a comment separated two of them. Raises UnterminatedString
    at the first open string, offset relative to base."""
    out: list[str] = []
    prev_end = tokens[0][2] if tokens else 0
    for kind, text, start, end in tokens:
        if kind == "open_str":
            raise UnterminatedString("unterminated string literal", offset=start - base)
        if start > prev_end:
            out.append(" ")
        out.append(text)
        prev_end = end
    return "".join(out)


def _match_group(tokens: list[_Token], i: int, file_path: str,
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


def _header_calls(tokens: list[_Token], i: int, file_path: str) -> tuple[list[str], int]:
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
            i = _match_group(tokens, i, file_path)
            continue
        i += 1
        if kind != "id" or text in _HEADER_KEYWORDS:
            continue
        # Any other identifier is a modifier invocation or base-constructor
        # call; `returns (...)` and `override(...)` are skipped whole.
        if text not in ("returns", "override"):
            names.append(text)
        if _text(tokens, i) == "(":
            i = _match_group(tokens, i, file_path)
    raise UnbalancedBraces("unit header never terminated", file_path=file_path,
                           offset=tokens[i - 1][2] if i > 0 else 0)


def _body_calls(tokens: list[_Token]) -> list[str]:
    names: list[str] = []
    for idx, (kind, text, _, _) in enumerate(tokens):
        if kind != "id" or _text(tokens, idx + 1) != "(":
            continue
        if text in _NEVER_CALLS or text in BUILTIN_DENYLIST:
            continue
        # `new C()` builds a contract, `emit E()` fires an event, and
        # `revert E()` raises a custom error; none call a unit named C/E.
        prev = _text(tokens, idx - 1)
        if prev in ("new", "emit", "revert"):
            continue
        if prev == "." and _text(tokens, idx - 2) == "abi":
            continue
        names.append(text)
    return names


def extract_units(source: str, file_path: str) -> list[FunctionUnit]:
    """Extract every function-like unit from one Solidity source text.

    Units are returned in source order. Contracts, libraries, interfaces and
    abstract contracts are all scanned; free-standing file-level functions are
    picked up too, with an empty contract name. An input with no units is a
    valid empty result, not an error.
    """
    tokens, _ = _tokenize(source)
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
        try:
            norm = _join(tokens[first:stop], start)
        except UnterminatedString as exc:
            exc.file_path = file_path
            raise
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
                if _text(tokens, j) != "(":
                    i += 1  # keyword used as a plain identifier in old code
                    continue
            elif j < n and tokens[j][0] == "id":
                name = tokens[j][1]
                j += 1
            elif kw == "function" and _text(tokens, j) == "(":
                # Old-style unnamed `function() ... {}` is the legacy
                # fallback; the same shape ending in ";" is a function-type
                # state variable and is skipped below.
                name = "fallback"
                kind = UnitKind.FALLBACK
            else:
                i += 1
                continue
            if _text(tokens, j) == "(":
                j = _match_group(tokens, j, file_path)
            header_names, header_end = _header_calls(tokens, j, file_path)
            if tokens[header_end][1] == ";":
                if not (name == "fallback" and kw == "function"):
                    make_unit(kind, name, contract, i, header_end + 1, header_names)
                i = header_end + 1
                continue
            body_close = _match_group(tokens, header_end, file_path, "{}", "unclosed brace")
            calls = header_names + _body_calls(tokens[header_end:body_close])
            make_unit(kind, name, contract, i, body_close, calls)
            i = body_close
            continue
        i += 1

    if contract_stack:
        raise UnbalancedBraces("contract body never closes", file_path=file_path,
                               offset=contract_stack[-1][2])
    return units
