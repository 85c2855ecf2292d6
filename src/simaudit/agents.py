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
import os
import re
import string
from dataclasses import dataclass, fields
from enum import Enum
from importlib import resources
from pathlib import Path

from .corpus import CorpusEntry, Label, read_text
from .errors import FileCorrupt, MissingTemplateSlot, ParseError, ProviderError, decode_json
from .extract import FunctionUnit
from .simindex import Category, SimilarityMatch, call_retried

ENV_LLM_ENDPOINT = "SIMAUDIT_LLM_ENDPOINT"
ENV_LLM_KEY = "SIMAUDIT_LLM_KEY"

# The Detector explores; everyone downstream of it is kept deterministic.
DETECTOR_TEMPERATURE = 0.8
DEFAULT_MODEL = "gpt-4-turbo"
# Sampling settings every role sends unchanged; only temperature varies.
TOP_P = 1.0
PRESENCE_PENALTY = 0.0
FREQUENCY_PENALTY = 0.0

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


def _record(obj) -> dict:
    """A new dict of a dataclass instance's fields, enums as their values;
    the values themselves are not copied."""
    values = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {name: value.value if isinstance(value, Enum) else value for name, value in values}


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
        return _record(self)


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
        return [_record(e) for e in self.entries]


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
            texts[role] = read_text(f, "template")
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
                  f"{entry.name} (similarity {match.similarity:.4f}, {entry.label.value})")
        if entry.label is Label.VULNERABLE and entry.vuln_note:
            header += f", known issue: {entry.vuln_note}"
        lines.append(header)
        lines.append(entry.raw_source.strip())
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
    callee summaries; each later role sees the target and, as <role>_output,
    the raw output of every role before it in DEBATE_SEQUENCE, so the Judge
    sees all three outputs but not the references."""
    templates = templates or TemplateSet.builtin()
    priors = prior_outputs or {}
    slots = {"target_code": task.unit.raw_source.strip()}
    if role is Role.DETECTOR:
        slots["reference_snippets"] = _reference_block(task)
        slots["callee_summaries"] = _callee_block(task)
    for prior in DEBATE_SEQUENCE[:DEBATE_SEQUENCE.index(role)]:
        slots[f"{prior.value.lower()}_output"] = priors[prior]
    return templates.render(role, slots)


_FENCE_RE = re.compile(r"```(?:json)?[ \t]*\r?\n(.*?)```", re.DOTALL)

_CONFIDENCE_VALUES = {c.value for c in Confidence}
# The keys each role's reply must hold, with the type of each, in the order
# parse_verdict checks them.
_REPLY_KEYS = {
    Role.DETECTOR: {"findings": list},
    Role.CRITIC: {"rebuttals": list},
    Role.SUPPORTER: {"assessment": str},
    Role.JUDGE: {"is_vulnerable": bool, "vuln_type": str, "explanation": str,
                 "confidence": str},
}


def parse_verdict(raw: str, role: Role) -> dict:
    """Extract and validate the first fenced JSON block of a role response."""
    m = _FENCE_RE.search(raw)
    if m is None:
        raise ParseError(f"{role.value} response has no fenced JSON block", raw=raw)
    payload = decode_json(m.group(1), lambda exc: ParseError(
        f"{role.value} response is not valid JSON: {exc}", raw=raw))
    if not isinstance(payload, dict):
        raise ParseError(f"{role.value} response must be a JSON object", raw=raw)
    for key, typ in _REPLY_KEYS[role].items():
        if key not in payload:
            raise ParseError(f"{role.value} response is missing {key!r}", raw=raw)
        if not isinstance(payload[key], typ):
            raise ParseError(f"{role.value} response field {key!r} has the wrong type",
                             raw=raw)
    if role is Role.JUDGE:
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
    vulnerable = entry.label is Label.VULNERABLE
    note = (entry.vuln_note or "known vulnerable reference") if vulnerable else ""
    return Verdict(
        is_vulnerable=vulnerable,
        vuln_type=note,
        explanation=f"Exact clone of {entry.label.value} reference {entry.entry_id}"
                    + (f": {note}" if note else ""),
        confidence=Confidence.HIGH,
        decided_by=DecidedBy.CLONE_SHORT_CIRCUIT,
    )


def _session_marker(unit_id: str, role: Role, ordinal: int) -> str:
    seed = f"{unit_id}|{role.value}|{ordinal}".encode("utf-8")
    return hashlib.sha256(seed).hexdigest()[:16]


def run_debate(task: DetectionTask, provider,
               templates: TemplateSet | None = None) -> tuple[Verdict, DebateTranscript]:
    """Run the single-round debate and return the Judge's verdict.

    Clone tasks return immediately from the reference's label with an empty
    transcript and zero provider calls. Otherwise the four roles are invoked
    sequentially, each in its own fresh session, and the Judge's payload
    becomes the verdict.
    """
    if task.category is Category.CLONE:
        return _clone_verdict(task), DebateTranscript(())
    templates = templates or TemplateSet.builtin()
    priors: dict[Role, str] = {}
    entries: list[TranscriptEntry] = []
    payload: dict = {}
    for ordinal, role in enumerate(DEBATE_SEQUENCE):
        prompt = assemble_prompt(role, task, priors, templates)
        for reprompt in (False, True):
            # Fresh session: the message list is only this prompt, never history.
            raw = call_retried(provider.complete, [{"role": "user", "content": prompt}], role)
            try:
                payload = parse_verdict(raw, role)
                break
            except ParseError:
                if reprompt:
                    raise
                prompt += "\n\n" + FORMAT_REMINDER
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


class CallLog:
    """Forwards complete() to a provider and logs every attempt, retries and
    re-prompts included, as (role, messages) in calls. Threads may share
    one log, as list.append is atomic."""

    def __init__(self, provider):
        self.provider = provider
        self.calls: list[tuple[Role, list[dict]]] = []

    def complete(self, messages: list[dict], role: Role) -> str:
        self.calls.append((role, messages))
        return self.provider.complete(messages, role)


class MockLLMProvider:
    """Replays canned responses from a fixture.

    The fixture maps (role, sha256 of the prompt) to a response, with an
    optional per-role default when no exact prompt matches.
    """

    def __init__(self, responses: dict[tuple[Role, str], str] | None = None,
                 defaults: dict[Role, str] | None = None):
        self._responses = dict(responses or {})
        self._defaults = dict(defaults or {})

    @classmethod
    def from_file(cls, path: str | Path) -> "MockLLMProvider":
        def malformed(exc):
            return FileCorrupt(f"mock fixture {path} is malformed: {exc!r}")

        data = decode_json(read_text(path, "mock fixture"), malformed)
        try:
            responses = {(Role(rec["role"]), rec["prompt_sha256"]): rec["response"]
                         for rec in data.get("responses", [])}
            defaults = {Role(k): v for k, v in data.get("defaults", {}).items()}
            for text in (*responses.values(), *defaults.values()):
                if not isinstance(text, str):
                    raise TypeError(f"response {text!r:.60} is not a string")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # the wrong shape
            raise malformed(exc) from exc
        return cls(responses, defaults)

    def complete(self, messages: list[dict], role: Role) -> str:
        digest = hashlib.sha256(messages[-1]["content"].encode("utf-8")).hexdigest()
        if (role, digest) in self._responses:
            return self._responses[role, digest]
        if role in self._defaults:
            return self._defaults[role]
        raise ProviderError(f"mock fixture has no response for {role.value}")


class HttpLLMProvider:
    """Chat-completion style HTTP provider.

    Sends the model, the messages and the four sampling knobs as JSON, the
    role deciding only the temperature; expects the response text at
    choices[0].message.content, which must be a string. Endpoint and key come
    from configuration, overridden by SIMAUDIT_LLM_ENDPOINT / SIMAUDIT_LLM_KEY.
    """

    def __init__(self, endpoint: str, api_key: str | None = None,
                 model: str = DEFAULT_MODEL, timeout: float = 120.0):
        from .transport import JsonEndpoint

        self.endpoint = os.environ.get(ENV_LLM_ENDPOINT) or endpoint
        self.model = model
        self._transport = JsonEndpoint(self.endpoint, os.environ.get(ENV_LLM_KEY) or api_key,
                                       timeout, "LLM")

    def complete(self, messages: list[dict], role: Role) -> str:
        body = {
            "model": self.model,
            "messages": messages,
            "temperature": DETECTOR_TEMPERATURE if role is Role.DETECTOR else 0.0,
            "top_p": TOP_P,
            "presence_penalty": PRESENCE_PENALTY,
            "frequency_penalty": FREQUENCY_PENALTY,
        }
        content = self._transport.post(body, "choices", 0, "message", "content")
        if not isinstance(content, str):
            raise ProviderError(
                f"LLM endpoint returned {type(content).__name__} content, not a string")
        return content
