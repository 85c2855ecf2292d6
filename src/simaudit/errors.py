"""Exception hierarchy, the process exit codes the CLI maps them to, and the
one JSON decode of untrusted text."""

import json

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_PROVIDER = 4


class SimauditError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = EXIT_FORMAT


class SourceError(SimauditError):
    """Lexical problem in a Solidity source; carries file and offset when known."""

    def __init__(self, message, file_path=None, offset=None):
        self.file_path = file_path
        self.offset = offset
        where = ""
        if file_path is not None:
            where += f" in {file_path}"
        if offset is not None:
            where += f" at offset {offset}"
        super().__init__(message + where)


class UnbalancedBraces(SourceError):
    pass


class UnterminatedBlockComment(SourceError):
    pass


class UnterminatedString(SourceError):
    pass


class DuplicateUnitId(SimauditError):
    pass


class ArchiveCorrupt(SimauditError):
    exit_code = EXIT_IO


class LabelFileMalformed(SimauditError):
    pass


class FormatVersionMismatch(SimauditError):
    pass


class FileCorrupt(SimauditError):
    pass


class NotUtf8Text(FileCorrupt):
    """A text file read whole holds bytes that are not UTF-8."""


class IndexTooLarge(SimauditError):
    """An index's text would inflate past what its file may hold."""


class EmptyText(SimauditError):
    pass


class DimensionMismatch(SimauditError):
    pass


class ProviderMismatch(SimauditError):
    exit_code = EXIT_PROVIDER


class ProviderError(SimauditError):
    exit_code = EXIT_PROVIDER


class ParseError(SimauditError):
    """An agent response could not be parsed; keeps the raw text for the report."""

    exit_code = EXIT_PROVIDER

    def __init__(self, message, raw=None):
        self.raw = raw
        super().__init__(message)


class MissingTemplateSlot(SimauditError):
    pass


def decode_json(text, error):
    """json.loads(text), or error(exc) raised from exc if text is not JSON:
    a ValueError, or the RecursionError of JSON nested past the interpreter's
    recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(exc) from exc
