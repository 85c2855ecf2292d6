"""Debate orchestration: configs, prompts, parsing, the mock and HTTP providers."""

from __future__ import annotations

import hashlib
import json

import pytest

from helpers import FIXTURES, CannedHTTPServer, mk_unit
from simaudit.agents import (
    DEBATE_SEQUENCE,
    DEFAULT_MODEL,
    ENV_LLM_ENDPOINT,
    ENV_LLM_KEY,
    FORMAT_REMINDER,
    AgentConfig,
    Confidence,
    DecidedBy,
    DetectionTask,
    HttpLLMProvider,
    MockLLMProvider,
    Role,
    TaskMatch,
    TemplateSet,
    assemble_prompt,
    default_configs,
    parse_verdict,
    run_debate,
)
from simaudit.corpus import CorpusEntry, Label
from simaudit.errors import MissingTemplateSlot, ParseError, ProviderError
from simaudit.simindex import Category, SimilarityMatch

DET = 'Notes.\n```json\n{"findings": [{"vuln_type": "logic", "description": "x"}]}\n```'
CRI = '```json\n{"rebuttals": ["weak evidence"]}\n```'
SUP = '```json\n{"assessment": "finding stands"}\n```'
JUD = ('```json\n{"is_vulnerable": true, "vuln_type": "logic error", '
       '"explanation": "allowance never decreased", "confidence": "High"}\n```')

GOOD_DEFAULTS = {Role.DETECTOR: DET, Role.CRITIC: CRI,
                 Role.SUPPORTER: SUP, Role.JUDGE: JUD}


def _entry(entry_id="pkg@1.0/ref.sol::T::f#0", label=Label.CLEAN, note=None,
           body="function f() public { a(); }"):
    return CorpusEntry(entry_id=entry_id,
                       unit=mk_unit("ref.sol::T::f#0", file_path="ref.sol",
                                    contract="T", body=body),
                       package="pkg", version="1.0", label=label, vuln_note=note)


def _match(entry, similarity=0.9, category=Category.SIMILAR):
    return TaskMatch(
        match=SimilarityMatch(entry_id=entry.entry_id, distance=1 - similarity,
                              similarity=similarity, category=category),
        entry=entry)


def _task(category=Category.SIMILAR, matches=None, callee_summaries=(),
          unit=None):
    if matches is None:
        matches = (_match(_entry()),)
    return DetectionTask(
        unit=unit or mk_unit("t.sol::C::target#0", file_path="t.sol",
                             body="function target() public { b(); }"),
        callee_summaries=tuple(callee_summaries),
        matches=tuple(matches),
        category=category)


class TestConfigs:
    def test_defaults_per_role(self):
        configs = default_configs()
        assert set(configs) == set(DEBATE_SEQUENCE)
        assert configs[Role.DETECTOR].temperature == 0.8
        for role in (Role.CRITIC, Role.SUPPORTER, Role.JUDGE):
            assert configs[role].temperature == 0.0
        for cfg in configs.values():
            assert cfg.top_p == 1.0
            assert cfg.presence_penalty == 0.0
            assert cfg.frequency_penalty == 0.0
            assert cfg.model_name == DEFAULT_MODEL == "gpt-4-turbo"

    def test_model_name_override(self):
        configs = default_configs("other-model")
        assert all(c.model_name == "other-model" for c in configs.values())


class TestTemplates:
    def test_builtin_renders_all_roles(self):
        templates = TemplateSet.builtin()
        task = _task()
        priors = {Role.DETECTOR: "D", Role.CRITIC: "C", Role.SUPPORTER: "S"}
        for role in DEBATE_SEQUENCE:
            text = assemble_prompt(role, task, priors, templates)
            assert task.unit.raw_source.strip() in text

    def test_missing_slot_raises(self):
        templates = TemplateSet({role: "no slots here" for role in DEBATE_SEQUENCE})
        # Rendering succeeds (no slot needed); a template that wants a slot
        # the caller does not provide must fail loudly instead.
        wanting = TemplateSet({role: "$nonexistent_slot" for role in DEBATE_SEQUENCE})
        assemble_prompt(Role.DETECTOR, _task(), templates=templates)
        with pytest.raises(MissingTemplateSlot) as exc:
            assemble_prompt(Role.DETECTOR, _task(), templates=wanting)
        assert "nonexistent_slot" in str(exc.value)

    def test_malformed_placeholder_raises(self):
        broken = TemplateSet({role: "cost: 5$" for role in DEBATE_SEQUENCE})
        with pytest.raises(MissingTemplateSlot):
            assemble_prompt(Role.DETECTOR, _task(), templates=broken)

    def test_from_dir_override(self, tmp_path):
        for role in DEBATE_SEQUENCE:
            (tmp_path / f"{role.value.lower()}.txt").write_text(
                f"CUSTOM {role.value}: $target_code", encoding="utf-8")
        templates = TemplateSet.from_dir(tmp_path)
        text = assemble_prompt(Role.CRITIC, _task(),
                               {Role.DETECTOR: "D"}, templates)
        assert text.startswith("CUSTOM Critic:")

    def test_from_dir_missing_file(self, tmp_path):
        (tmp_path / "detector.txt").write_text("$target_code")
        with pytest.raises(MissingTemplateSlot):
            TemplateSet.from_dir(tmp_path)


class TestPromptAssembly:
    def test_detector_sees_references_in_order(self):
        entries = [_entry(entry_id=f"pkg@1.0/ref.sol::T::f{i}#0",
                          body=f"function f{i}() public {{ }}")
                   for i in range(3)]
        matches = tuple(_match(e, similarity=0.9 - i / 100)
                        for i, e in enumerate(entries))
        text = assemble_prompt(Role.DETECTOR, _task(matches=matches))
        i1 = text.index("reference 1: pkg@1.0")
        i2 = text.index("reference 2: pkg@1.0")
        i3 = text.index("reference 3: pkg@1.0")
        assert i1 < i2 < i3
        assert "similarity 0.9000" in text
        assert "function f0() public { }" in text

    def test_vulnerable_reference_carries_its_note(self):
        entry = _entry(label=Label.VULNERABLE, note="reentrancy in withdraw")
        text = assemble_prompt(Role.DETECTOR, _task(matches=(_match(entry),)))
        assert "known issue: reentrancy in withdraw" in text
        assert "vulnerable" in text

    def test_dissimilar_target_gets_no_references(self):
        entry = _entry()
        text = assemble_prompt(
            Role.DETECTOR,
            _task(category=Category.DISSIMILAR, matches=(_match(entry, 0.2),)))
        assert "Reference implementations" not in text
        assert entry.unit.raw_source not in text
        assert entry.entry_id.split("/")[0] not in text   # no pkg@version line

    def test_no_matches_gets_no_references(self):
        text = assemble_prompt(Role.DETECTOR, _task(matches=()))
        assert "Reference implementations" not in text
        assert "reference 1" not in text

    def test_callee_summaries_listed(self):
        task = _task(callee_summaries=(
            ("t.sol::C::helper#0", "no vulnerability found"),
            ("t.sol::C::sub#0", "vulnerable: overflow"),
        ))
        text = assemble_prompt(Role.DETECTOR, task)
        assert "t.sol::C::helper#0: no vulnerability found" in text
        assert "t.sol::C::sub#0: vulnerable: overflow" in text

    def test_later_roles_see_prior_outputs(self):
        task = _task()
        priors = {Role.DETECTOR: "DET-OUT", Role.CRITIC: "CRI-OUT",
                  Role.SUPPORTER: "SUP-OUT"}
        critic = assemble_prompt(Role.CRITIC, task, priors)
        assert "DET-OUT" in critic and "CRI-OUT" not in critic
        supporter = assemble_prompt(Role.SUPPORTER, task, priors)
        assert "DET-OUT" in supporter and "CRI-OUT" in supporter
        judge = assemble_prompt(Role.JUDGE, task, priors)
        assert all(out in judge for out in priors.values())

    def test_judge_sees_target_but_not_references(self):
        entry = _entry(note="known issue text", label=Label.VULNERABLE)
        task = _task(matches=(_match(entry),))
        priors = {Role.DETECTOR: "D", Role.CRITIC: "C", Role.SUPPORTER: "S"}
        judge = assemble_prompt(Role.JUDGE, task, priors)
        assert task.unit.raw_source.strip() in judge
        assert entry.unit.raw_source not in judge
        assert "known issue text" not in judge
        assert "Reference implementations" not in judge


class TestParseVerdict:
    def test_fenced_json_with_and_without_tag(self):
        assert parse_verdict('```json\n{"findings": []}\n```', Role.DETECTOR) == {
            "findings": []}
        assert parse_verdict('```\n{"findings": []}\n```', Role.DETECTOR) == {
            "findings": []}

    def test_prose_around_and_crlf(self):
        raw = 'Thinking...\r\n```json\r\n{"rebuttals": []}\r\n```\r\ndone'
        assert parse_verdict(raw, Role.CRITIC) == {"rebuttals": []}

    def test_first_block_wins(self):
        raw = '```json\n{"assessment": "a"}\n```\n```json\nnot json\n```'
        assert parse_verdict(raw, Role.SUPPORTER) == {"assessment": "a"}

    def test_no_fence(self):
        with pytest.raises(ParseError) as exc:
            parse_verdict('{"findings": []}', Role.DETECTOR)
        assert exc.value.raw == '{"findings": []}'

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_verdict("```json\n{oops\n```", Role.DETECTOR)

    def test_non_object(self):
        with pytest.raises(ParseError):
            parse_verdict("```json\n[1, 2]\n```", Role.DETECTOR)

    def test_role_key_requirements(self):
        with pytest.raises(ParseError):
            parse_verdict('```json\n{"rebuttals": []}\n```', Role.DETECTOR)
        with pytest.raises(ParseError):
            parse_verdict('```json\n{"findings": "not a list"}\n```', Role.DETECTOR)
        with pytest.raises(ParseError):
            parse_verdict('```json\n{"assessment": 3}\n```', Role.SUPPORTER)

    def test_judge_validation(self):
        ok = parse_verdict(JUD, Role.JUDGE)
        assert ok["is_vulnerable"] is True
        with pytest.raises(ParseError):  # missing confidence
            parse_verdict('```json\n{"is_vulnerable": false, "vuln_type": "", '
                          '"explanation": ""}\n```', Role.JUDGE)
        with pytest.raises(ParseError):  # unknown confidence value
            parse_verdict('```json\n{"is_vulnerable": false, "vuln_type": "", '
                          '"explanation": "", "confidence": "Sure"}\n```', Role.JUDGE)
        with pytest.raises(ParseError):  # bool typed as string
            parse_verdict('```json\n{"is_vulnerable": "yes", "vuln_type": "", '
                          '"explanation": "e", "confidence": "Low"}\n```', Role.JUDGE)
        with pytest.raises(ParseError):  # vulnerable but no explanation
            parse_verdict('```json\n{"is_vulnerable": true, "vuln_type": "t", '
                          '"explanation": "  ", "confidence": "Low"}\n```', Role.JUDGE)
        # not vulnerable needs no explanation text
        clean = parse_verdict('```json\n{"is_vulnerable": false, "vuln_type": "", '
                              '"explanation": "", "confidence": "Medium"}\n```',
                              Role.JUDGE)
        assert clean["is_vulnerable"] is False


class TestRunDebate:
    def test_four_roles_in_order_each_in_fresh_session(self):
        provider = MockLLMProvider(defaults=GOOD_DEFAULTS)
        verdict, transcript = run_debate(_task(), provider)
        assert [role for role, _ in provider.calls] == list(DEBATE_SEQUENCE)
        for _, messages in provider.calls:
            assert len(messages) == 1          # no conversational history
            assert messages[0]["role"] == "user"
        assert [e.role for e in transcript.entries] == list(DEBATE_SEQUENCE)
        assert verdict.is_vulnerable is True
        assert verdict.vuln_type == "logic error"
        assert verdict.confidence is Confidence.HIGH
        assert verdict.decided_by is DecidedBy.JUDGE

    def test_session_ids_are_distinct_and_reproducible(self):
        provider = MockLLMProvider(defaults=GOOD_DEFAULTS)
        task = _task()
        _, transcript = run_debate(task, provider)
        ids = [e.session_id for e in transcript.entries]
        assert len(set(ids)) == 4
        for ordinal, entry in enumerate(transcript.entries):
            seed = f"{task.unit.unit_id}|{entry.role.value}|{ordinal}".encode()
            assert entry.session_id == hashlib.sha256(seed).hexdigest()[:16]

    def test_transcript_byte_identical_across_runs(self):
        task = _task()
        _, t1 = run_debate(task, MockLLMProvider(defaults=GOOD_DEFAULTS))
        v2, t2 = run_debate(task, MockLLMProvider(defaults=GOOD_DEFAULTS))
        assert json.dumps(t1.to_list()) == json.dumps(t2.to_list())
        assert v2 == run_debate(task, MockLLMProvider(defaults=GOOD_DEFAULTS))[0]

    def test_scan_order_of_other_functions_is_irrelevant(self):
        task_a = _task(unit=mk_unit("t.sol::C::a#0", body="function a() public { }"))
        task_b = _task(unit=mk_unit("t.sol::C::b#0", body="function b() public { }"))
        p1 = MockLLMProvider(defaults=GOOD_DEFAULTS)
        first_a = run_debate(task_a, p1)[0]
        run_debate(task_b, p1)
        p2 = MockLLMProvider(defaults=GOOD_DEFAULTS)
        run_debate(task_b, p2)
        second_a = run_debate(task_a, p2)[0]
        assert first_a == second_a

    def test_reprompt_once_on_malformed_response(self):
        task = _task()
        prompt = assemble_prompt(Role.DETECTOR, task)
        sha = lambda s: hashlib.sha256(s.encode()).hexdigest()  # noqa: E731
        responses = {
            (Role.DETECTOR, sha(prompt)): "sorry, no JSON here",
            (Role.DETECTOR, sha(prompt + "\n\n" + FORMAT_REMINDER)): DET,
        }
        provider = MockLLMProvider(responses=responses, defaults={
            Role.CRITIC: CRI, Role.SUPPORTER: SUP, Role.JUDGE: JUD})
        verdict, transcript = run_debate(task, provider)
        assert verdict.decided_by is DecidedBy.JUDGE
        assert len(provider.calls) == 5     # detector twice, others once
        det_entry = transcript.entries[0]
        assert det_entry.prompt.endswith(FORMAT_REMINDER)
        assert det_entry.response == DET

    def test_two_malformed_responses_fail_the_unit(self):
        provider = MockLLMProvider(defaults={**GOOD_DEFAULTS,
                                             Role.CRITIC: "still not json"})
        with pytest.raises(ParseError):
            run_debate(_task(), provider)
        assert len(provider.calls) == 3     # detector, critic, critic re-prompt

    def test_provider_error_retried_once_per_call(self):
        class Flaky:
            def __init__(self, fail_times):
                self.fails_left = fail_times
                self.calls = []

            def complete(self, messages, config):
                self.calls.append((config.role, messages))
                if self.fails_left > 0:
                    self.fails_left -= 1
                    raise ProviderError("hiccup")
                return GOOD_DEFAULTS[config.role]

        flaky = Flaky(fail_times=1)
        verdict, _ = run_debate(_task(), flaky)
        assert verdict.decided_by is DecidedBy.JUDGE
        assert len(flaky.calls) == 5

        dead = Flaky(fail_times=2)
        with pytest.raises(ProviderError):
            run_debate(_task(), dead)
        assert len(dead.calls) == 2


class TestCloneShortCircuit:
    def test_clean_clone_zero_provider_calls(self):
        entry = _entry()
        provider = MockLLMProvider()     # would raise if ever called
        verdict, transcript = run_debate(
            _task(category=Category.CLONE,
                  matches=(_match(entry, 1.0, Category.CLONE),)),
            provider)
        assert provider.calls == []
        assert transcript.entries == ()
        assert verdict.is_vulnerable is False
        assert verdict.decided_by is DecidedBy.CLONE_SHORT_CIRCUIT
        assert entry.entry_id in verdict.explanation

    def test_vulnerable_clone_inherits_the_label(self):
        entry = _entry(label=Label.VULNERABLE, note="allowance bypass")
        verdict, _ = run_debate(
            _task(category=Category.CLONE,
                  matches=(_match(entry, 1.0, Category.CLONE),)),
            MockLLMProvider())
        assert verdict.is_vulnerable is True
        assert verdict.vuln_type == "allowance bypass"
        assert verdict.confidence is Confidence.HIGH
        assert entry.entry_id in verdict.explanation
        assert "allowance bypass" in verdict.explanation

    def test_vulnerable_clone_without_note_gets_generic_type(self):
        entry = _entry(label=Label.VULNERABLE, note=None)
        verdict, _ = run_debate(
            _task(category=Category.CLONE,
                  matches=(_match(entry, 1.0, Category.CLONE),)),
            MockLLMProvider())
        assert verdict.is_vulnerable is True
        assert verdict.vuln_type == "known vulnerable reference"

    def test_clone_without_matches_is_a_bug(self):
        with pytest.raises(ValueError):
            run_debate(_task(category=Category.CLONE, matches=()),
                       MockLLMProvider())


class TestMockProvider:
    def test_from_file(self, tmp_path):
        prompt = "the exact prompt"
        fixture = {
            "responses": [{
                "role": "Detector",
                "prompt_sha256": hashlib.sha256(prompt.encode()).hexdigest(),
                "response": DET,
            }],
            "defaults": {"Judge": JUD},
        }
        path = tmp_path / "mock.json"
        path.write_text(json.dumps(fixture))
        provider = MockLLMProvider.from_file(path)
        cfg = default_configs()
        out = provider.complete([{"role": "user", "content": prompt}],
                                cfg[Role.DETECTOR])
        assert out == DET
        assert provider.complete([{"role": "user", "content": "whatever"}],
                                 cfg[Role.JUDGE]) == JUD
        with pytest.raises(ProviderError):
            provider.complete([{"role": "user", "content": "whatever"}],
                              cfg[Role.CRITIC])

    def test_bundled_debate_fixture_loads(self):
        provider = MockLLMProvider.from_file(FIXTURES / "mock_debate.json")
        cfg = default_configs()
        for role in DEBATE_SEQUENCE:
            raw = provider.complete([{"role": "user", "content": "any"}], cfg[role])
            assert parse_verdict(raw, role)


class TestHttpProvider:
    def test_request_shape_and_auth(self):
        payload = {"choices": [{"message": {"content": "hello"}}]}
        with CannedHTTPServer(payload) as server:
            provider = HttpLLMProvider(server.url, api_key="k123")
            cfg = default_configs()[Role.DETECTOR]
            out = provider.complete([{"role": "user", "content": "p"}], cfg)
        assert out == "hello"
        (req,) = server.requests
        assert req["body"] == {
            "model": "gpt-4-turbo",
            "messages": [{"role": "user", "content": "p"}],
            "temperature": 0.8,
            "top_p": 1.0,
            "presence_penalty": 0.0,
            "frequency_penalty": 0.0,
        }
        assert req["headers"]["Authorization"] == "Bearer k123"

    def test_env_overrides(self, monkeypatch):
        payload = {"choices": [{"message": {"content": "via env"}}]}
        with CannedHTTPServer(payload) as server:
            monkeypatch.setenv(ENV_LLM_ENDPOINT, server.url)
            monkeypatch.setenv(ENV_LLM_KEY, "envkey")
            provider = HttpLLMProvider("http://unreachable.invalid/", api_key="cfgkey")
            cfg = default_configs()[Role.JUDGE]
            assert provider.complete([{"role": "user", "content": "p"}], cfg) == "via env"
        assert server.requests[0]["headers"]["Authorization"] == "Bearer envkey"

    def test_http_error_is_provider_error(self):
        with CannedHTTPServer({}, status=500) as server:
            with pytest.raises(ProviderError):
                HttpLLMProvider(server.url).complete(
                    [{"role": "user", "content": "p"}],
                    default_configs()[Role.CRITIC])

    def test_malformed_reply_is_provider_error(self):
        with CannedHTTPServer({"choices": []}) as server:
            with pytest.raises(ProviderError):
                HttpLLMProvider(server.url).complete(
                    [{"role": "user", "content": "p"}],
                    default_configs()[Role.CRITIC])
