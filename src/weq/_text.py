"""Shared helpers for the line-oriented text formats."""

from __future__ import annotations


class ParseError(Exception):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NotText(Exception):
    """An input file that is not UTF-8 text."""


def read_text(path: str) -> str:
    """The text of the file at `path`, read as UTF-8; a file that is not
    UTF-8 raises NotText, whose message names it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise NotText(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def logical_lines(text: str, comment: str) -> list[tuple[int, list[str]]]:
    """Split into (line_number, tokens), dropping blanks and comment lines.

    A line is a comment iff its first non-blank character is `comment`;
    mid-line comments are not supported since the comment character may be
    a legitimate token elsewhere.
    """
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(comment):
            continue
        out.append((no, stripped.split()))
    return out
