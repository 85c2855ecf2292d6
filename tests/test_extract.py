"""Extraction, normalization, and hashing."""

from __future__ import annotations

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
    BUILTIN_DENYLIST,
    BUILTIN_DENYLIST_VERSION,
    UnitKind,
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
        raw = src[src.index("function"):]
        assert raw[exc.value.offset] == '"'


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
    def test_version_tag(self):
        assert BUILTIN_DENYLIST_VERSION == "1"

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


class TestSingleLexer:
    @given(_in_unit, st.none())
    @example(_OPEN_COMMENT_HEADER,
             (UnbalancedBraces, _OPEN_COMMENT_HEADER.index("public")))
    @example(_BROKEN_STRING_UNIT,
             (UnterminatedString,
              _BROKEN_STRING_UNIT.index('"') - _BROKEN_STRING_UNIT.index("function")))
    def test_unit_normalization_matches_reference(self, src, expected):
        """A unit's normalized text, joined from the file's token slice, is
        what the reference normalizer makes of its raw text."""
        try:
            units = extract_units(src, "k.sol")
        except (UnbalancedBraces, UnterminatedString) as exc:
            if expected is not None:
                assert (type(exc), exc.offset) == expected
            if isinstance(exc, UnterminatedString):
                with pytest.raises(oracles.OracleUnterminatedString) as want:
                    oracles.reference_normalize(src[src.index("function"):])
                assert exc.offset == want.value.offset
                assert exc.file_path == "k.sol"
            return
        assert expected is None
        for u in units:
            assert u.normalized_source == oracles.reference_normalize(u.raw_source)
