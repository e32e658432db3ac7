"""Canonical normalization, word tokenization and sentence segmentation.

Every downstream signal number depends on these conventions:

- normalize(): NFC, lowercase, strip Unicode punctuation/symbol
  characters (categories P* and S*) except apostrophes and hyphens that
  sit between alphanumeric characters (the one before counted after
  lowercasing), collapse whitespace runs to a single space, strip
  leading/trailing space, and NFC again the words that lowercasing or
  stripping left decomposed. Normalizing twice gives the same text.
- normalization commutes with splitting at '\n': a newline is neither
  alphanumeric nor composing, so an apostrophe or hyphen next to one is
  at a line edge either way, and whitespace collapsing turns it into one
  space. analyze() relies on this: it normalizes line by line and joins
  the non-empty lines with a space, which equals normalize() of the
  whole text.
- a "word" is a maximal non-space run of the normalized text.
- a "sentence" is a segment terminated by '.', '!' or '?' followed by
  whitespace or end of text; a trailing unterminated segment containing
  at least one alphanumeric character counts as one sentence.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError

_KEEPABLE = {"'", "’", "-"}

# A sentence ends at a terminator followed by whitespace or the end of
# the text. Python's \s and [^\W_] match exactly the characters for which
# str.isspace() and str.isalnum() hold.
_SENTENCE_END = re.compile(r"[.!?](?=\s|\Z)")
_ALNUM = re.compile(r"[^\W_]")


def _is_stripped(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def _char_class(ch: str):
    """The translation value of one character: a space, None (dropped),
    the character itself for an apostrophe or hyphen (kept only between
    alphanumerics, which _LONE_EDGE decides), otherwise its lowercase."""
    if ch.isspace():
        return " "
    if _is_stripped(ch):
        return ch if ch in _KEEPABLE else None
    return ch.lower()


# An apostrophe or hyphen that does not sit between alphanumerics, the
# character before it counted after lowercasing: of all alphanumerics,
# only "İ" lowercases to a string that ends in a non-alphanumeric. The
# lookbehinds come after the character so that the scan looks for it
# first.
_LONE_EDGE = re.compile(r"['’-](?:(?<![^\W_].)|(?<=İ.)|(?![^\W_]))")


class _Translation(dict):
    """str.translate table from code point to _char_class of its
    character, added on first lookup. An apostrophe or hyphen maps to
    itself, as _LONE_EDGE has already removed those to drop. One entry
    per distinct code point ever seen, so it stays small. Annotate
    threads that race to fill an entry store the same value, so the
    table needs no lock."""

    def __missing__(self, code_point: int):
        value = self[code_point] = _char_class(chr(code_point))
        return value


_TRANSLATION = _Translation()


def normalize(text: str) -> str:
    """The canonical normalization described in the module docstring."""
    text = _LONE_EDGE.sub("", unicodedata.normalize("NFC", text))
    norm = " ".join(text.translate(_TRANSLATION).split())
    if unicodedata.is_normalized("NFC", norm):
        return norm
    return " ".join(unicodedata.normalize("NFC", word) for word in norm.split(" "))


def split_sentences(text: str) -> int:
    """Count sentences under the three-terminator rule."""
    count = 0
    start = 0
    for match in _SENTENCE_END.finditer(text):
        end = match.end()
        if _ALNUM.search(text, start, end):
            count += 1
        start = end
    if _ALNUM.search(text, start):
        count += 1
    return count


def line_spans(text: str) -> list[tuple[int, int]]:
    """Spans tiling [0, len(text)]: each span covers one line plus its
    trailing newline. Line count matches text.split("\\n") (so a trailing
    newline yields a final empty-line span); empty text has no lines."""
    if not text:
        return []
    spans = []
    start = 0
    for line in text.split("\n"):
        end = start + len(line) + 1
        spans.append((start, end))
        start = end
    spans[-1] = (spans[-1][0], len(text))
    return spans


@dataclass
class TokenizedView:
    """Pre-tokenized view of one document, shared by all signals.
    `normalized_lines[i]` is the normalization of the text of the span
    `lines[i]`, and `normalized` joins the non-empty ones with a space."""

    normalized: str
    normalized_lines: list[str]
    word_texts: list[str]
    lines: list[tuple[int, int]]
    sentences_count: int


def analyze(text: str) -> TokenizedView:
    normalized_lines = [normalize(line) for line in text.split("\n")] if text else []
    norm = " ".join(n for n in normalized_lines if n)
    return TokenizedView(
        normalized=norm,
        normalized_lines=normalized_lines,
        # words are separated by exactly one space in the normalized text
        word_texts=norm.split(" ") if norm else [],
        lines=line_spans(text),
        sentences_count=split_sentences(text),
    )


def normalized_word_positions(view: TokenizedView) -> list[tuple[int, int]]:
    """(start, end) of each word inside view.normalized. Words are
    separated by exactly one space there, so spans are reconstructible
    without a second scan."""
    spans = []
    pos = 0
    for w in view.word_texts:
        end = pos + len(w)
        spans.append((pos, end))
        pos = end + 1
    return spans


def load_wordlist(path) -> frozenset[str]:
    """One word/phrase per line, UTF-8; blank lines and '#' comments
    ignored. Entries are normalized with the pipeline convention."""
    try:
        with open(path, encoding="utf-8") as fh:
            entries = [line.strip() for line in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read word list {path}: {exc}") from exc
    return frozenset(
        normalize(e) for e in entries if e and not e.startswith("#")
    )


def load_stopwords(language: str, path=None) -> frozenset[str]:
    """Stop words for one language, from `path` if given, else from the
    vendored per-language lists."""
    if path is not None:
        return load_wordlist(path)
    ref = resources.files("corpusforge") / "data" / "stopwords" / f"{language}.txt"
    if not ref.is_file():
        raise ConfigError(f"no vendored stop-word list for language {language!r}")
    with resources.as_file(ref) as p:
        return load_wordlist(p)
