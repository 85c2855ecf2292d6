"""Four-role debate over one function: Detector, Critic, Supporter, Judge.

Every role runs in a fresh session (a single-message conversation with no
shared history), in a fixed order, exactly once. Exact clones of corpus
references never reach a model at all: the reference's label decides the
verdict directly. Responses must carry a fenced JSON block; a malformed
response earns one re-prompt with a format reminder before the unit is given
up on.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import string
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

import requests

from .corpus import CorpusEntry, Label
from .errors import MissingTemplateSlot, ParseError, ProviderError
from .extract import FunctionUnit
from .simindex import Category, SimilarityMatch

ENV_LLM_ENDPOINT = "SIMAUDIT_LLM_ENDPOINT"
ENV_LLM_KEY = "SIMAUDIT_LLM_KEY"

# The Detector explores; everyone downstream of it is kept deterministic.
DETECTOR_TEMPERATURE = 0.8
DEFAULT_MODEL = "gpt-4-turbo"

FORMAT_REMINDER = (
    "Reminder: respond with exactly one fenced JSON block (```json ... ```) "
    "containing the keys required for your role, and nothing else."
)


class Role(str, Enum):
    DETECTOR = "Detector"
    CRITIC = "Critic"
    SUPPORTER = "Supporter"
    JUDGE = "Judge"


DEBATE_SEQUENCE = (Role.DETECTOR, Role.CRITIC, Role.SUPPORTER, Role.JUDGE)


class Confidence(str, Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


class DecidedBy(str, Enum):
    JUDGE = "Judge"
    CLONE_SHORT_CIRCUIT = "CloneShortCircuit"


@dataclass(frozen=True)
class AgentConfig:
    role: Role
    temperature: float
    top_p: float = 1.0
    presence_penalty: float = 0.0
    frequency_penalty: float = 0.0
    model_name: str = DEFAULT_MODEL

    @classmethod
    def for_role(cls, role: Role, model_name: str = DEFAULT_MODEL) -> "AgentConfig":
        temp = DETECTOR_TEMPERATURE if role is Role.DETECTOR else 0.0
        return cls(role=role, temperature=temp, model_name=model_name)


def default_configs(model_name: str = DEFAULT_MODEL) -> dict[Role, AgentConfig]:
    return {role: AgentConfig.for_role(role, model_name) for role in DEBATE_SEQUENCE}


@dataclass(frozen=True)
class TaskMatch:
    """A retrieval hit with the reference entry attached for prompting."""
    match: SimilarityMatch
    entry: CorpusEntry


@dataclass(frozen=True)
class DetectionTask:
    unit: FunctionUnit
    callee_summaries: tuple[tuple[str, str], ...]  # (unit_id, one-line verdict)
    matches: tuple[TaskMatch, ...]
    category: Category


@dataclass(frozen=True)
class Verdict:
    is_vulnerable: bool
    vuln_type: str
    explanation: str
    confidence: Confidence
    decided_by: DecidedBy

    def to_dict(self) -> dict:
        return {
            "is_vulnerable": self.is_vulnerable,
            "vuln_type": self.vuln_type,
            "explanation": self.explanation,
            "confidence": self.confidence.value,
            "decided_by": self.decided_by.value,
        }


@dataclass(frozen=True)
class TranscriptEntry:
    role: Role
    prompt: str
    response: str
    payload: dict
    session_id: str  # distinct per call; proof the session was not reused


@dataclass(frozen=True)
class DebateTranscript:
    entries: tuple[TranscriptEntry, ...] = ()

    def to_list(self) -> list[dict]:
        return [
            {
                "role": e.role.value,
                "session_id": e.session_id,
                "prompt": e.prompt,
                "response": e.response,
                "payload": e.payload,
            }
            for e in self.entries
        ]


class TemplateSet:
    """Prompt templates, one plain-text file per role, with $slot placeholders.

    The built-in set ships with the package; --templates <dir> swaps in files
    of the same names (detector.txt, critic.txt, supporter.txt, judge.txt).
    """

    def __init__(self, texts: dict[Role, str]):
        self._texts = dict(texts)

    @classmethod
    def builtin(cls) -> "TemplateSet":
        base = resources.files(__package__) / "templates"
        return cls({role: (base / f"{role.value.lower()}.txt").read_text(encoding="utf-8")
                    for role in DEBATE_SEQUENCE})

    @classmethod
    def from_dir(cls, path: str | Path) -> "TemplateSet":
        base = Path(path)
        texts = {}
        for role in DEBATE_SEQUENCE:
            f = base / f"{role.value.lower()}.txt"
            if not f.is_file():
                raise MissingTemplateSlot(f"template file {f} not found")
            texts[role] = f.read_text(encoding="utf-8")
        return cls(texts)

    def render(self, role: Role, slots: dict[str, str]) -> str:
        tpl = string.Template(self._texts[role])
        try:
            return tpl.substitute(slots)
        except KeyError as exc:
            raise MissingTemplateSlot(
                f"{role.value} template needs slot {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise MissingTemplateSlot(
                f"{role.value} template is malformed: {exc}") from exc


def _reference_block(task: DetectionTask) -> str:
    # Dissimilar targets get no reference section at all; weak neighbors would
    # only anchor the Detector on irrelevant code.
    if task.category is Category.DISSIMILAR or not task.matches:
        return ""
    lines = ["Reference implementations from audited packages, closest first:"]
    for i, tm in enumerate(task.matches, start=1):
        entry, match = tm.entry, tm.match
        header = (f"--- reference {i}: {entry.package}@{entry.version} "
                  f"{entry.unit.name} (similarity {match.similarity:.4f}, {entry.label.value})")
        if entry.label is Label.VULNERABLE and entry.vuln_note:
            header += f", known issue: {entry.vuln_note}"
        lines.append(header)
        lines.append(entry.unit.raw_source.strip())
    return "\n".join(lines) + "\n"


def _callee_block(task: DetectionTask) -> str:
    if not task.callee_summaries:
        return ""
    lines = ["Functions this one calls, already analyzed:"]
    for unit_id, summary in task.callee_summaries:
        lines.append(f"- {unit_id}: {summary}")
    return "\n".join(lines) + "\n"


def assemble_prompt(role: Role, task: DetectionTask,
                    prior_outputs: dict[Role, str] | None = None,
                    templates: TemplateSet | None = None) -> str:
    """Fill the role's template. Detector sees the target plus references and
    callee summaries; each later role additionally sees the raw outputs of the
    roles before it; the Judge sees all three outputs and the target code, but
    not the references."""
    templates = templates or TemplateSet.builtin()
    priors = prior_outputs or {}
    slots = {"target_code": task.unit.raw_source.strip()}
    if role is Role.DETECTOR:
        slots["reference_snippets"] = _reference_block(task)
        slots["callee_summaries"] = _callee_block(task)
    elif role is Role.CRITIC:
        slots["detector_output"] = priors[Role.DETECTOR]
    elif role is Role.SUPPORTER:
        slots["detector_output"] = priors[Role.DETECTOR]
        slots["critic_output"] = priors[Role.CRITIC]
    else:
        slots["detector_output"] = priors[Role.DETECTOR]
        slots["critic_output"] = priors[Role.CRITIC]
        slots["supporter_output"] = priors[Role.SUPPORTER]
    return templates.render(role, slots)


_FENCE_RE = re.compile(r"```(?:json)?[ \t]*\r?\n(.*?)```", re.DOTALL)

_CONFIDENCE_VALUES = {c.value for c in Confidence}


def parse_verdict(raw: str, role: Role) -> dict:
    """Extract and validate the first fenced JSON block of a role response."""
    m = _FENCE_RE.search(raw)
    if m is None:
        raise ParseError(f"{role.value} response has no fenced JSON block", raw=raw)
    try:
        payload = json.loads(m.group(1))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{role.value} response is not valid JSON: {exc}", raw=raw) from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{role.value} response must be a JSON object", raw=raw)

    def need(key, typ=None):
        if key not in payload:
            raise ParseError(f"{role.value} response is missing {key!r}", raw=raw)
        if typ is not None and not isinstance(payload[key], typ):
            raise ParseError(f"{role.value} response field {key!r} has the wrong type",
                             raw=raw)

    if role is Role.DETECTOR:
        need("findings", list)
    elif role is Role.CRITIC:
        need("rebuttals", list)
    elif role is Role.SUPPORTER:
        need("assessment", str)
    else:
        need("is_vulnerable", bool)
        need("vuln_type", str)
        need("explanation", str)
        need("confidence", str)
        if payload["confidence"] not in _CONFIDENCE_VALUES:
            raise ParseError(
                f"Judge confidence must be one of {sorted(_CONFIDENCE_VALUES)}", raw=raw)
        if payload["is_vulnerable"] and not payload["explanation"].strip():
            raise ParseError("Judge found a vulnerability but gave no explanation",
                             raw=raw)
    return payload


def _clone_verdict(task: DetectionTask) -> Verdict:
    if not task.matches:
        raise ValueError("clone task carries no reference match")
    entry = task.matches[0].entry
    if entry.label is Label.VULNERABLE:
        note = entry.vuln_note or "known vulnerable reference"
        return Verdict(
            is_vulnerable=True,
            vuln_type=note,
            explanation=f"Exact clone of vulnerable reference {entry.entry_id}: {note}",
            confidence=Confidence.HIGH,
            decided_by=DecidedBy.CLONE_SHORT_CIRCUIT,
        )
    return Verdict(
        is_vulnerable=False,
        vuln_type="",
        explanation=f"Exact clone of clean reference {entry.entry_id}",
        confidence=Confidence.HIGH,
        decided_by=DecidedBy.CLONE_SHORT_CIRCUIT,
    )


def _complete_once_retried(provider, config: AgentConfig, prompt: str) -> str:
    # Fresh session: the message list is only this prompt, never history.
    messages = [{"role": "user", "content": prompt}]
    try:
        return provider.complete(messages, config)
    except ProviderError:
        return provider.complete(messages, config)


def _session_marker(unit_id: str, role: Role, ordinal: int) -> str:
    seed = f"{unit_id}|{role.value}|{ordinal}".encode("utf-8")
    return hashlib.sha256(seed).hexdigest()[:16]


def run_debate(task: DetectionTask, provider,
               configs: dict[Role, AgentConfig] | None = None,
               templates: TemplateSet | None = None) -> tuple[Verdict, DebateTranscript]:
    """Run the single-round debate and return the Judge's verdict.

    Clone tasks return immediately from the reference's label with an empty
    transcript and zero provider calls. Otherwise the four roles are invoked
    sequentially, each in its own fresh session, and the Judge's payload
    becomes the verdict.
    """
    if task.category is Category.CLONE:
        return _clone_verdict(task), DebateTranscript(())
    configs = configs or default_configs()
    templates = templates or TemplateSet.builtin()
    priors: dict[Role, str] = {}
    entries: list[TranscriptEntry] = []
    payload: dict = {}
    for ordinal, role in enumerate(DEBATE_SEQUENCE):
        prompt = assemble_prompt(role, task, priors, templates)
        raw = _complete_once_retried(provider, configs[role], prompt)
        try:
            payload = parse_verdict(raw, role)
        except ParseError:
            prompt = prompt + "\n\n" + FORMAT_REMINDER
            raw = _complete_once_retried(provider, configs[role], prompt)
            payload = parse_verdict(raw, role)
        priors[role] = raw
        entries.append(TranscriptEntry(
            role=role, prompt=prompt, response=raw, payload=payload,
            session_id=_session_marker(task.unit.unit_id, role, ordinal)))
    verdict = Verdict(
        is_vulnerable=bool(payload["is_vulnerable"]),
        vuln_type=str(payload["vuln_type"]),
        explanation=str(payload["explanation"]),
        confidence=Confidence(payload["confidence"]),
        decided_by=DecidedBy.JUDGE,
    )
    return verdict, DebateTranscript(tuple(entries))


class MockLLMProvider:
    """Replays canned responses from a fixture; records every call it gets.

    The fixture maps (role, sha256 of the prompt) to a response, with an
    optional per-role default when no exact prompt matches. Calls are recorded
    as (role, messages) so tests can check both counts and session freshness.
    """

    def __init__(self, responses: dict[tuple[Role, str], str] | None = None,
                 defaults: dict[Role, str] | None = None):
        self._responses = dict(responses or {})
        self._defaults = dict(defaults or {})
        self.calls: list[tuple[Role, list[dict]]] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "MockLLMProvider":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        responses = {}
        for rec in data.get("responses", []):
            responses[(Role(rec["role"]), rec["prompt_sha256"])] = rec["response"]
        defaults = {Role(k): v for k, v in data.get("defaults", {}).items()}
        return cls(responses, defaults)

    def complete(self, messages: list[dict], config: AgentConfig) -> str:
        self.calls.append((config.role, messages))
        prompt = messages[-1]["content"]
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        key = (config.role, digest)
        if key in self._responses:
            return self._responses[key]
        if config.role in self._defaults:
            return self._defaults[config.role]
        raise ProviderError(f"mock fixture has no response for {config.role.value}")


class HttpLLMProvider:
    """Chat-completion style HTTP provider.

    Sends model, messages, and the four sampling knobs as JSON; expects the
    response text at choices[0].message.content. Endpoint and key come from
    configuration, overridden by SIMAUDIT_LLM_ENDPOINT / SIMAUDIT_LLM_KEY.
    """

    def __init__(self, endpoint: str, api_key: str | None = None, timeout: float = 120.0):
        self.endpoint = os.environ.get(ENV_LLM_ENDPOINT) or endpoint
        self.api_key = os.environ.get(ENV_LLM_KEY) or api_key
        self.timeout = timeout

    def complete(self, messages: list[dict], config: AgentConfig) -> str:
        body = {
            "model": config.model_name,
            "messages": messages,
            "temperature": config.temperature,
            "top_p": config.top_p,
            "presence_penalty": config.presence_penalty,
            "frequency_penalty": config.frequency_penalty,
        }
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = requests.post(self.endpoint, json=body, headers=headers,
                                 timeout=self.timeout)
            resp.raise_for_status()
            return resp.json()["choices"][0]["message"]["content"]
        except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(f"LLM endpoint failed: {exc}") from exc
