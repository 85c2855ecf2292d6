"""Extraction, normalization, and hashing."""

from __future__ import annotations

import re
import sys
import unicodedata
from itertools import chain

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from helpers import fixture_text
from simaudit.errors import (
    UnbalancedBraces,
    UnterminatedBlockComment,
    UnterminatedString,
)
from simaudit.extract import (
    _DIGIT_NOT_DECIMAL,
    _NUMERIC_NOT_DIGIT,
    BUILTIN_DENYLIST,
    UnitKind,
    _is_id,
    _Tokens,
    content_hash,
    extract_units,
    normalize,
)

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


class TestNormalize:
    def test_strips_line_and_block_comments(self):
        raw = "function f() { // add\n  return 1; /* done */ }"
        assert normalize(raw) == "function f() { return 1; }"

    def test_collapses_whitespace_runs(self):
        assert normalize("a \t\r\n\f\v b") == "a b"
        assert normalize("  a  ") == "a"
        assert normalize("") == ""
        assert normalize(" \n\t ") == ""
        assert normalize("/* only a comment */") == ""

    def test_string_literals_pass_verbatim(self):
        raw = 'require(ok, "two  spaces // not a comment /* nor this */");'
        assert normalize(raw) == raw
        assert normalize("x = 'a\\'b  c';") == "x = 'a\\'b  c';"

    def test_comment_between_tokens_leaves_one_space(self):
        assert normalize("a/*x*/b") == "a b"
        assert normalize("a /*x*/ /*y*/ b") == "a b"
        assert normalize("a//x\nb") == "a b"

    def test_line_comment_at_eof_without_newline(self):
        assert normalize("a = 1; // trailing") == "a = 1;"

    def test_unterminated_block_comment(self):
        with pytest.raises(UnterminatedBlockComment) as exc:
            normalize("a = 1; /* never closed")
        assert exc.value.offset == 7

    def test_unterminated_string_at_newline(self):
        with pytest.raises(UnterminatedString) as exc:
            normalize('x = "abc\ndef";')
        assert exc.value.offset == 4

    def test_unterminated_string_at_eof(self):
        with pytest.raises(UnterminatedString):
            normalize('x = "abc')
        with pytest.raises(UnterminatedString):
            normalize('x = "abc\\')  # escape with nothing left to escape

    def test_escaped_newline_inside_string_is_allowed(self):
        raw = 'x = "ab\\\ncd";'
        assert normalize(raw) == raw

    def test_idempotent_on_fixture_files(self):
        for name in ("reference_erc20.sol", "target_token.sol", "labeled_calls.sol"):
            once = normalize(fixture_text(name))
            assert normalize(once) == once


# Concentrated alphabet so comment/string/escape collisions actually happen.
_dense = st.text(alphabet="ab_ \t\n\"'\\/*(){};.=1", max_size=60)
_anything = st.text(
    st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
    max_size=200,
)


def _run_both(raw):
    """Run impl and oracle, reducing each to a comparable outcome."""
    try:
        got = ("ok", normalize(raw))
    except UnterminatedBlockComment as e:
        got = ("comment", e.offset)
    except UnterminatedString as e:
        got = ("string", e.offset)
    try:
        want = ("ok", oracles.reference_normalize(raw))
    except oracles.OracleUnterminatedComment as e:
        want = ("comment", e.offset)
    except oracles.OracleUnterminatedString as e:
        want = ("string", e.offset)
    return got, want


class TestNormalizeProperties:
    @given(_dense)
    @example('a = "x//y"; /* z */ b')
    @example('"\\"')
    @example("//")
    @example("/ /")
    @example("'a'/*")
    def test_matches_reference_normalizer_dense(self, raw):
        got, want = _run_both(raw)
        assert got == want

    @given(_anything)
    def test_matches_reference_normalizer_any(self, raw):
        got, want = _run_both(raw)
        assert got == want

    @given(_dense)
    def test_idempotent(self, raw):
        try:
            once = normalize(raw)
        except (UnterminatedBlockComment, UnterminatedString):
            assume(False)
        assert normalize(once) == once

    @given(_anything)
    def test_no_whitespace_runs_outside_strings(self, raw):
        try:
            out = normalize(raw)
        except (UnterminatedBlockComment, UnterminatedString):
            assume(False)
        # Mask string literals, then no run of two whitespace chars may remain.
        masked = []
        i = 0
        while i < len(out):
            if out[i] in "\"'":
                q = out[i]
                j = i + 1
                while out[j] != q:
                    j += 2 if out[j] == "\\" else 1
                masked.append("S")
                i = j + 1
            else:
                masked.append(out[i])
                i += 1
        code = "".join(masked)
        assert "  " not in code
        assert all(ws not in code for ws in "\t\r\n\f\v")
        assert code == code.strip(" \t\r\n\f\v")


class TestContentHash:
    def test_empty_string_constant(self):
        assert content_hash("") == SHA256_EMPTY

    def test_shape_and_sensitivity(self):
        h = content_hash("function f() { }")
        assert len(h) == 64 and h == h.lower()
        assert int(h, 16) >= 0
        assert h != content_hash("function f() {  }")


def _units_by_name(source, file_path="t.sol"):
    return {(u.contract, u.name, u.unit_id.rsplit("#", 1)[1]): u
            for u in extract_units(source, file_path)}


class TestExtractBasics:
    def test_single_function_fields(self):
        src = "contract C {\n  function add(uint a) public pure returns (uint) { return inc(a); }\n}"
        units = extract_units(src, "one.sol")
        assert len(units) == 1
        u = units[0]
        assert u.unit_id == "one.sol::C::add#0"
        assert u.kind is UnitKind.FUNCTION
        assert u.name == "add"
        assert u.contract == "C"
        assert u.file_path == "one.sol"
        assert u.declared_calls == ("inc",)
        assert src[u.source_span[0]:u.source_span[1]] == u.raw_source
        assert u.raw_source.startswith("function add")
        assert u.raw_source.endswith("}")
        assert u.normalized_source == normalize(u.raw_source)
        assert u.content_hash == content_hash(u.normalized_source)

    def test_no_units_is_empty_not_error(self):
        assert extract_units("", "e.sol") == []
        assert extract_units("pragma solidity ^0.8.0;", "e.sol") == []
        assert extract_units("contract Data { uint x; }", "e.sol") == []

    def test_overloads_get_ordinals(self):
        src = ("contract C { function f(uint a) public {} "
               "function f(uint a, uint b) public {} }")
        ids = [u.unit_id for u in extract_units(src, "o.sol")]
        assert ids == ["o.sol::C::f#0", "o.sol::C::f#1"]

    def test_old_style_unnamed_function_is_fallback(self):
        src = "contract Old { function() public payable { } }"
        units = extract_units(src, "old.sol")
        assert len(units) == 1
        assert units[0].kind is UnitKind.FALLBACK
        assert units[0].name == "fallback"

    def test_function_type_state_variable_is_skipped(self):
        src = ("contract Sv { function(uint) external returns (bool) handler; "
               "function real() public {} }")
        units = extract_units(src, "sv.sol")
        assert [u.name for u in units] == ["real"]

    def test_bodyless_declarations_are_units(self):
        src = "interface I { function ping() external; }"
        units = extract_units(src, "i.sol")
        assert len(units) == 1
        assert units[0].raw_source.endswith(";")
        assert units[0].declared_calls == ()

    def test_string_and_comment_contents_dont_confuse_structure(self):
        src = ('contract C { function f() public { emit Log("} // }"); } '
               "/* } function g() {} */ }")
        units = extract_units(src, "s.sol")
        assert [u.name for u in units] == ["f"]

    def test_unit_source_order_and_disjoint_spans(self):
        src = fixture_text("labeled_calls.sol")
        units = extract_units(src, "labeled_calls.sol")
        starts = [u.source_span[0] for u in units]
        assert starts == sorted(starts)
        for a, b in zip(units, units[1:]):
            assert a.source_span[1] <= b.source_span[0]

    def test_determinism(self):
        src = fixture_text("labeled_calls.sol")
        assert extract_units(src, "x.sol") == extract_units(src, "x.sol")


class TestExtractErrors:
    def test_contract_body_never_closes(self):
        src = "contract C { function f() public { }"
        with pytest.raises(UnbalancedBraces) as exc:
            extract_units(src, "bad.sol")
        assert exc.value.file_path == "bad.sol"
        assert exc.value.offset == src.index("{")

    def test_contract_without_body(self):
        with pytest.raises(UnbalancedBraces):
            extract_units("contract C", "bad.sol")

    def test_unclosed_parenthesis(self):
        src = "contract C { function f( }"
        with pytest.raises(UnbalancedBraces) as exc:
            extract_units(src, "bad.sol")
        assert exc.value.offset == src.index("(")

    def test_unclosed_body_brace(self):
        with pytest.raises(UnbalancedBraces):
            extract_units("contract C { function f() public { ", "bad.sol")

    def test_header_never_terminated(self):
        with pytest.raises(UnbalancedBraces):
            extract_units("contract C { function f() public", "bad.sol")

    def test_unterminated_string_in_unit_carries_file_and_offset(self):
        src = 'contract C { function f() public { s = "abc\n + 1; } }'
        with pytest.raises(UnterminatedString) as exc:
            extract_units(src, "bad.sol")
        assert exc.value.file_path == "bad.sol"
        assert src[exc.value.offset] == '"'
        assert str(exc.value) == "unterminated string literal in bad.sol at offset 39"


# (kind, contract, declared_calls) per unit, in source order. The fixture file
# is the other half of this table; edit them together.
LABELED = [
    ("price",      UnitKind.FUNCTION,    "IPriceOracle", ()),
    ("decimals",   UnitKind.FUNCTION,    "IPriceOracle", ()),
    ("clamp",      UnitKind.FUNCTION,    "MathLib",      ("min",)),
    ("min",        UnitKind.FUNCTION,    "MathLib",      ()),
    ("onlyOwner",  UnitKind.MODIFIER,    "Base",         ()),
    ("constructor", UnitKind.CONSTRUCTOR, "Base",        ()),
    ("setOwner",   UnitKind.FUNCTION,    "Base",         ("onlyOwner",)),
    ("constructor", UnitKind.CONSTRUCTOR, "Vault",       ("Base", "IPriceOracle")),
    ("receive",    UnitKind.RECEIVE,     "Vault",        ("credit",)),
    ("fallback",   UnitKind.FALLBACK,    "Vault",        ("credit",)),
    ("credit",     UnitKind.FUNCTION,    "Vault",        ("clamp",)),
    ("quote",      UnitKind.FUNCTION,    "Vault",        ("price",)),
    ("hashOf",     UnitKind.FUNCTION,    "Vault",        ()),
    ("mirror",     UnitKind.FUNCTION,    "Vault",        ("mirror",)),
    ("spawn",      UnitKind.FUNCTION,    "Vault",        ()),
    ("sweep",      UnitKind.FUNCTION,    "Vault",        ("onlyOwner", "quote", "transfer")),
    ("burn",       UnitKind.FUNCTION,    "Vault",        ("min",)),
    ("ping",       UnitKind.FUNCTION,    "Child",        ("tock",)),
    ("tock",       UnitKind.FUNCTION,    "Child",        ()),
    ("freeHelper", UnitKind.FUNCTION,    "",             ()),
]


class TestDeclaredCalls:
    def test_labeled_fixture_ground_truth(self):
        src = fixture_text("labeled_calls.sol")
        units = extract_units(src, "labeled_calls.sol")
        got = [(u.name, u.kind, u.contract, u.declared_calls) for u in units]
        assert got == LABELED

    def test_labeled_fixture_spans_slice_exactly(self):
        src = fixture_text("labeled_calls.sol")
        for u in extract_units(src, "labeled_calls.sol"):
            assert src[u.source_span[0]:u.source_span[1]] == u.raw_source

    def test_erc20_transfer_from(self):
        src = fixture_text("reference_erc20.sol")
        by_name = {u.name: u for u in extract_units(src, "reference_erc20.sol")}
        assert by_name["transferFrom"].declared_calls == ("_transfer", "_approve")
        assert by_name["_transfer"].declared_calls == ()
        assert by_name["_approve"].declared_calls == ()

    def test_target_transfer_from_lost_the_approve_call(self):
        src = fixture_text("target_token.sol")
        by_name = {u.name: u for u in extract_units(src, "target_token.sol")}
        assert by_name["transferFrom"].declared_calls == ("_transfer",)

    def test_regex_oracle_on_plain_functions(self):
        src = (
            "contract Chain {\n"
            "  function a(uint x) public returns (uint) { return b(c(x)); }\n"
            "  function b(uint x) public pure returns (uint) { return c (x); }\n"
            "  function c(uint x) public pure returns (uint) { uint y = x; return y; }\n"
            "}\n"
        )
        want = oracles.regex_calls(src)
        got = {u.name: list(u.declared_calls) for u in extract_units(src, "p.sol")}
        assert got == want
        assert want == {"a": ["b", "c"], "b": ["c"], "c": []}

    def test_duplicate_call_names_collapse_to_first(self):
        src = "contract C { function f() public { g(); h(); g(); } }"
        (u,) = extract_units(src, "d.sol")
        assert u.declared_calls == ("g", "h")

    def test_member_calls_are_kept_except_abi(self):
        src = ("contract C { function f(address t) public {"
               " IToken(t).transfer(1); abi.encode(t); } }")
        (u,) = extract_units(src, "m.sol")
        assert u.declared_calls == ("IToken", "transfer")


class TestDenyList:
    def test_core_members(self):
        for name in ("require", "assert", "revert", "keccak256", "ecrecover",
                     "selfdestruct", "type", "address", "uint256", "bytes32"):
            assert name in BUILTIN_DENYLIST

    def test_member_style_names_are_absent(self):
        # These are legitimate user function names in token contracts.
        for name in ("transfer", "call", "send", "approve", "balanceOf"):
            assert name not in BUILTIN_DENYLIST


def _normalized_equal(file_a, name_a, file_b, name_b):
    a = {u.name: u for u in extract_units(fixture_text(file_a), file_a)}[name_a]
    b = {u.name: u for u in extract_units(fixture_text(file_b), file_b)}[name_b]
    return a.normalized_source == b.normalized_source and a.content_hash == b.content_hash


class TestCrossFixtureEquivalence:
    def test_vendored_helpers_normalize_to_the_reference(self):
        # target_token.sol reformatted the helpers; dedup must see through it.
        assert _normalized_equal("reference_erc20.sol", "_transfer",
                                 "target_token.sol", "_transfer")
        assert _normalized_equal("reference_erc20.sol", "_approve",
                                 "target_token.sol", "_approve")

    def test_modified_function_does_not(self):
        assert not _normalized_equal("reference_erc20.sol", "transferFrom",
                                     "target_token.sol", "transferFrom")


_names = st.lists(
    st.from_regex(r"fn_[a-z0-9]{1,6}", fullmatch=True),
    min_size=1, max_size=5, unique=True,
)


@st.composite
def generated_contracts(draw):
    names = draw(_names)
    parts = []
    expected = []
    for name in names:
        callees = draw(st.lists(st.sampled_from(names), max_size=3))
        stmts = "".join(f" {c}(1);" for c in callees)
        lead = draw(st.sampled_from([" ", "\n", "\n  ", "\t", " /* gap */ "]))
        parts.append(f"{lead}function {name}(uint v) public {{{stmts} }}")
        expected.append((name, tuple(dict.fromkeys(callees))))
    cname = "K" + draw(st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True))
    return cname, expected, f"contract {cname} {{" + "".join(parts) + "\n}"


class TestExtractProperties:
    @given(generated_contracts())
    def test_generated_contracts_round_trip(self, case):
        cname, expected, src = case
        units = extract_units(src, "gen.sol")
        assert [(u.name, u.declared_calls) for u in units] == expected
        for u in units:
            assert u.contract == cname
            assert src[u.source_span[0]:u.source_span[1]] == u.raw_source
            assert u.normalized_source == normalize(u.raw_source)
            assert u.content_hash == content_hash(u.normalized_source)
        assert extract_units(src, "gen.sol") == units


_in_unit = _dense.map(lambda body: "contract K { function f() public { " + body + " } }")
# An unclosed comment in a header is not a token: the error stays at `public`.
_OPEN_COMMENT_HEADER = "contract C { function f() public /* oops"
_BROKEN_STRING_UNIT = 'contract C { function f() public { s = "ab\n + 1; } }'


# Members of both committed range constants (U+1D2C0 is assigned only from
# Unicode 15.0 on), non-ASCII letters and decimal digits, identifier symbols,
# quotes, escapes, comment markers, the lexer's six whitespace characters and
# whitespace that the lexer treats as punctuation.
_boundary = st.text(alphabet=st.sampled_from([
    "½", "Ⅻ", "\U0001F10B", "\U0001D2C0", "²", "①", "\U0001F100", "é", "١", "$", "_", "a",
    "1", ".",
    '"', "'", "\\", "/", "*", "\n", " ", "\t", "\r", "\f", "\v",
    "\x1c", "\xa0", "\u3000", "\u2028",
]), max_size=40)


def _token_tuples(src):
    """The token store seen as the reference loop's (kind, text, start, end)
    tuples plus the unclosed-comment offset, every offset from the store's
    cursor."""
    tokens = _Tokens(src)
    opened = set(tokens.open_strings)
    view = []
    for k, text in enumerate(tokens.texts):
        if k in opened:
            kind = "open_str"
        elif text[0] in "\"'":
            kind = "str"
        elif _is_id(text):
            kind = "id"
        elif text[0].isdigit():
            kind = "num"
        else:
            kind = "punct"
        start = tokens.offset(k)
        view.append((kind, text, start, start + len(text)))
    return view, tokens.open_comment


class TestSingleLexer:
    @given(st.one_of(_anything, _dense))
    @example("½function f() {}")
    @example("²$")
    @example("\\Ⅻ")
    @example('x = "abc\\')
    @example("a /* open")
    def test_tokens_match_reference_loop(self, src):
        """Token tuples and the unclosed-comment offset are exactly what the
        original character loop gives, for any text (Unicode letters, digits
        and numerics whose str methods and regex classes disagree included)."""
        assert _token_tuples(src) == oracles.reference_tokenize(src)

    @given(_boundary)
    @example("a½ ½a Ⅻ1 \U0001F10B")               # isalnum, not isalpha or isdigit
    @example("²x a² ①.5 \U0001F100")              # isdigit, not a decimal digit
    @example("é½ é1 çé")                          # non-ASCII letter
    @example("١é ١.١ ٣")                          # non-ASCII decimal digit
    @example("$_1 _$ a$")
    @example("'a\"' \"b\\\"c\" '\\\\' '")         # quotes and their escapes
    @example('"a\\\n b" \\')                      # an escaped newline stays in the string
    @example("/ /*/ */ /**/ //*\n*/ a/b")
    @example('"ab\ncd \'x')                       # open strings keep their newline
    @example("a\v1\f\r\t \nb\v")                  # the six whitespace characters
    @example("\x1c\xa0\u3000a\u2028")             # whitespace to Python, punctuation here
    def test_boundary_alphabet_matches_reference_loop(self, src):
        """The characters where a fast lexer and the str predicates can part
        ways, densely mixed: each must lex exactly as the original loop does."""
        assert _token_tuples(src) == oracles.reference_tokenize(src)

    @given(_in_unit, st.none())
    @example(_OPEN_COMMENT_HEADER,
             (UnbalancedBraces, _OPEN_COMMENT_HEADER.index("public")))
    @example(_BROKEN_STRING_UNIT, (UnterminatedString, _BROKEN_STRING_UNIT.index('"')))
    def test_unit_normalization_matches_reference(self, src, expected):
        """A unit's normalized text, joined from the file's token slice, is
        what the reference normalizer makes of its raw text."""
        try:
            units = extract_units(src, "k.sol")
        except (UnbalancedBraces, UnterminatedString) as exc:
            if expected is not None:
                assert (type(exc), exc.offset) == expected
            if isinstance(exc, UnterminatedString):
                unit_start = src.index("function")
                with pytest.raises(oracles.OracleUnterminatedString) as want:
                    oracles.reference_normalize(src[unit_start:])
                assert exc.offset == unit_start + want.value.offset
                assert exc.file_path == "k.sol"
            return
        assert expected is None
        for u in units:
            assert u.normalized_source == oracles.reference_normalize(u.raw_source)


# Generated Solidity-like sources for the extraction oracle: contracts whose
# members are units, state variables and soup, then a few tokens dropped or
# inserted so that unbalanced brackets, open strings and open comments turn
# up at every depth.
_SOUP = st.sampled_from([
    "(", ")", "{", "}", ";", ",", ".", "=", "+", "1", "0x2f", "x", "C", "é", "²",
    "function", "modifier", "constructor", "fallback", "receive", "contract",
    "returns", "override", "public", "new", "emit", "revert", "abi", "is",
    '"s"', "'t'", '"open', "'\\'", "/* c */", "/* open",
])
_CALLEE = st.sampled_from(["f", "_g", "$h", "é", "fé", "x1", "require", "if", "C"])
_leaf = st.one_of(
    st.builds(lambda c, args: [c, "(", *args, ")", ";"], _CALLEE,
              st.lists(st.sampled_from(["1", "x", '"s"', "a.b"]), max_size=2)),
    st.sampled_from([
        ["new", "C", "(", ")", ";"], ["emit", "E", "(", "1", ")", ";"],
        ["revert", "E", "(", ")", ";"], ["abi", ".", "encode", "(", "x", ")", ";"],
        ["a", ".", "b", "(", ")", ";"], ["s", "=", '"a\\"b"', ";"], ["return", "1", ";"],
    ]),
    _SOUP.map(lambda t: [t]),
)
_body = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda xs: ["{", *chain(*xs), "}"]),
        st.lists(inner, max_size=3).map(lambda xs: ["(", *chain(*xs), ")"]),
        st.lists(inner, min_size=2, max_size=4).map(lambda xs: list(chain(*xs))),
    ),
    max_leaves=10,
)
_header_word = st.sampled_from([
    ["public"], ["view"], ["payable"], ["virtual"], ["returns", "(", "uint", ")"],
    ["override"], ["override", "(", "A", ",", "B", ")"], ["onlyOwner"], ["m", "(", "1", ")"],
    ["B", "(", "x", ")"],
])


@st.composite
def _unit_tokens(draw):
    kw = draw(st.sampled_from(["function", "function", "modifier", "constructor",
                               "fallback", "receive"]))
    tokens = [kw]
    if kw in ("function", "modifier") and draw(st.integers(0, 5)) < 5:
        tokens.append(draw(st.sampled_from(["f", "g", "f", "é", "transfer"])))
    if kw != "modifier" or draw(st.booleans()):
        tokens += ["(", *draw(st.sampled_from([[], ["uint", "a"], ["uint", "a", ",", "b"]])), ")"]
    tokens += chain(*draw(st.lists(_header_word, max_size=3)))
    if draw(st.integers(0, 4)) < 4:
        tokens += ["{", *draw(_body), "}"]
    else:
        tokens.append(";")
    return tokens


_member = st.one_of(
    _unit_tokens(),
    st.sampled_from([
        ["uint", "x", ";"], ["event", "E", "(", ")", ";"],
        ["function", "(", "uint", ")", "external", "returns", "(", "bool", ")", "h", ";"],
        ["struct", "S", "{", "uint", "a", ";", "}"],
    ]),
    _SOUP.map(lambda t: [t]),
)


@st.composite
def solidity_like(draw):
    tokens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)) < 3:
            tokens += draw(st.sampled_from([["contract", "K"], ["library", "L"], ["interface", "I"],
                                            ["abstract", "contract", "A", "is", "K"]]))
            tokens += ["{", *chain(*draw(st.lists(_member, min_size=1, max_size=4))), "}"]
        else:
            tokens += draw(_unit_tokens())  # file level
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()) and at < len(tokens):
            del tokens[at]
        else:
            tokens.insert(at, draw(_SOUP))
    gaps = st.sampled_from([" ", " ", " ", "\n  ", "", "\t", "/* gap */", " // line\n"])
    return "".join(draw(gaps) + token for token in tokens)


def _extraction(extract, src):
    """Units, or the error's type, message, file and offset."""
    try:
        return extract(src, "gen.sol")
    except (UnbalancedBraces, UnterminatedString) as exc:
        return type(exc), exc.args, exc.file_path, exc.offset


class TestExtractMatchesReference:
    @given(solidity_like())
    @example("contract K { function f(uint a) public { if (a) { g((a)); { h(); } } } }")
    @example("contract K { function f() public { new C(); emit E(1); revert E(); "
             "abi.encode(x); a.b(); x.abi.f(); } }")
    @example("contract K { function f() public view returns (uint) { return 1; } "
             "function g() public override(A, B) returns (bool) { h(); } }")
    @example("contract K { modifier m(uint a) { _; } "
             "function f() public m(1) onlyOwner B(x) { g(); } }")
    @example('contract K { function f() public { s = "ab\n; } }')
    @example('contract K { function f() public { s = "ab\n; } } /* never closed')
    @example("contract K { function f() public { é(); fé(1); x.ñame(); } }")
    @example("contract K { function (uint) external returns (bool) h; "
             "function() public payable { } function g() public {} }")
    @example("contract K { function f() public {} ")                # contract "{"
    @example("contract K function f() public {} }")                 # contract without a body
    @example("contract K { function f(uint a public { } }")         # parameter "("
    @example("contract K { function f() public m(1 { } }")          # modifier argument "("
    @example("contract K { function f() public ")                   # header never ends
    @example("contract K { function f() public { g(); }")           # body "{", contract open
    @example("contract K { function f() public { if (x) { g(); } }")  # nested "{"
    @example("contract K { function f() public { g((1); } }")       # nested "(" in a body
    def test_units_or_error_match_reference(self, src):
        """Every field of every unit, or the error's type, message, file and
        offset, equal what extraction over the original token tuples gives."""
        assert _extraction(extract_units, src) == _extraction(oracles.reference_extract_units, src)

    @pytest.mark.parametrize("src,unit_ids", [
        ("contract K { function f() public (bool) { return true; } }", ["gen.sol::K::f#0"]),
        ("contract K { uint constructor; function g() public {} }", ["gen.sol::K::g#0"]),
    ], ids=["parenthesis_after_modifiers", "constructor_as_a_name"])
    def test_odd_headers_match_reference(self, src, unit_ids):
        units = extract_units(src, "gen.sol")
        assert [u.unit_id for u in units] == unit_ids
        assert units == oracles.reference_extract_units(src, "gen.sol")


def _runs(code_points) -> tuple[tuple[int, int], ...]:
    """Ascending code points as (first, last) runs of consecutive ones."""
    runs: list[list[int]] = []
    for cp in code_points:
        if runs and runs[-1][1] == cp - 1:
            runs[-1][1] = cp
        else:
            runs.append([cp, cp])
    return tuple((first, last) for first, last in runs)


def _literal(name: str, runs: tuple[tuple[int, int], ...]) -> str:
    """runs as the source text of the constant in extract.py."""
    pairs = [f"(0x{first:05X}, 0x{last:05X})" for first, last in runs]
    rows = [", ".join(pairs[i:i + 4]) + "," for i in range(0, len(pairs), 4)]
    return "\n".join([f"{name} = (", *(f"    {row}" for row in rows), ")"])


@pytest.fixture(scope="module")
def every_code_point():
    return "".join(map(chr, range(sys.maxunicode + 1)))


class TestCodePointRanges:
    def test_regex_classes_differ_from_str_predicates_only_in_start_classes(
            self, every_code_point):
        """What makes two range constants enough: the word class is exactly
        isalnum() or "_", every decimal digit is isdigit() and not isalpha(),
        and no code point is both a letter and a digit."""
        every = every_code_point
        assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]
        assert all(c.isdigit() and not c.isalpha() for c in re.findall(r"\d", every))
        assert not [c for c in every if c.isalpha() and c.isdigit()]

    def test_committed_ranges_match_the_str_predicates(self, every_code_point):
        """Both sets rebuilt from str methods and the regex digit class over
        every code point. Code points that only another Python's tables make
        numeric stay in the first set: this Python leaves them out of the
        word class, so excluding them changes nothing. On a mismatch the test
        prints the constants to paste."""
        every = every_code_point
        decimal = set(re.findall(r"\d", every))
        elsewhere = [cp for first, last in _NUMERIC_NOT_DIGIT for cp in range(first, last + 1)
                     if not chr(cp).isalnum()]
        fresh = (
            _runs(sorted({ord(c) for c in every
                          if c.isalnum() and not c.isalpha() and not c.isdigit()}
                         | set(elsewhere))),
            _runs(ord(c) for c in every if c.isdigit() and c not in decimal),
        )
        if fresh != (_NUMERIC_NOT_DIGIT, _DIGIT_NOT_DECIMAL):
            pytest.fail(
                "the committed code point ranges are not where the regex classes and the "
                f"str predicates disagree under Unicode {unicodedata.unidata_version} "
                f"(Python {sys.version.split()[0]}); replace the two constants in "
                "src/simaudit/extract.py with:\n\n"
                + _literal("_NUMERIC_NOT_DIGIT", fresh[0]) + "\n"
                + _literal("_DIGIT_NOT_DECIMAL", fresh[1]))
