"""Canonical normalization, word tokenization and sentence segmentation.

Every downstream signal number depends on these conventions:

- normalize(): NFC, lowercase, strip Unicode punctuation/symbol
  characters (categories P* and S*) except apostrophes and hyphens that
  sit between alphanumeric characters, collapse whitespace runs to a
  single space, strip leading/trailing space.
- a "word" is a maximal non-space run of the normalized text.
- a "sentence" is a segment terminated by '.', '!' or '?' followed by
  whitespace or end of text; a trailing unterminated segment containing
  at least one alphanumeric character counts as one sentence.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError

_KEEPABLE = {"'", "’", "-"}
_TERMINATORS = {".", "!", "?"}


def _is_stripped(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def normalize_with_map(text: str) -> tuple[str, list[int]]:
    """Normalize text and return (normalized, raw_offsets) where
    raw_offsets[i] is the index in `text` the i-th normalized character
    came from (whitespace maps to the first character of its run)."""
    text = unicodedata.normalize("NFC", text)
    out: list[str] = []
    offsets: list[int] = []
    pending_space: int | None = None
    n = len(text)
    for i, ch in enumerate(text):
        if ch.isspace():
            if pending_space is None:
                pending_space = i
            continue
        if _is_stripped(ch):
            if ch in _KEEPABLE:
                prev_ok = i > 0 and text[i - 1].isalnum()
                next_ok = i + 1 < n and text[i + 1].isalnum()
                if not (prev_ok and next_ok):
                    continue
            else:
                continue
        if pending_space is not None:
            if out:
                out.append(" ")
                offsets.append(pending_space)
            pending_space = None
        for low in ch.lower():
            out.append(low)
            offsets.append(i)
    return "".join(out), offsets


def normalize(text: str) -> str:
    return normalize_with_map(text)[0]


@dataclass(frozen=True)
class WordSpan:
    text: str
    start: int
    end: int


def split_sentences(text: str) -> int:
    """Count sentences under the three-terminator rule."""
    count = 0
    has_content = False
    n = len(text)
    for i, ch in enumerate(text):
        if ch.isalnum():
            has_content = True
        if ch in _TERMINATORS and (i + 1 == n or text[i + 1].isspace()):
            if has_content:
                count += 1
            has_content = False
    if has_content:
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
    for i, ch in enumerate(text):
        if ch == "\n":
            spans.append((start, i + 1))
            start = i + 1
    spans.append((start, len(text)))
    return spans


@dataclass
class TokenizedView:
    """Pre-tokenized view of one document, shared by all signals."""

    raw: str
    normalized: str
    norm_to_raw: list[int]
    words: list[WordSpan]
    lines: list[tuple[int, int]]
    sentences_count: int

    @property
    def word_texts(self) -> list[str]:
        return [w.text for w in self.words]


def analyze(text: str) -> TokenizedView:
    norm, offsets = normalize_with_map(text)
    words: list[WordSpan] = []
    i, n = 0, len(norm)
    while i < n:
        if norm[i] == " ":
            i += 1
            continue
        j = i
        while j < n and norm[j] != " ":
            j += 1
        words.append(WordSpan(norm[i:j], offsets[i], offsets[j - 1] + 1))
        i = j
    return TokenizedView(
        raw=text,
        normalized=norm,
        norm_to_raw=offsets,
        words=words,
        lines=line_spans(text),
        sentences_count=split_sentences(text),
    )


def normalized_word_positions(view: TokenizedView) -> list[tuple[int, int]]:
    """(start, end) of each word inside view.normalized. Words are
    separated by exactly one space there, so spans are reconstructible
    without a second scan."""
    spans = []
    pos = 0
    first = True
    for w in view.words:
        if not first:
            pos += 1
        spans.append((pos, pos + len(w.text)))
        pos += len(w.text)
        first = False
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
