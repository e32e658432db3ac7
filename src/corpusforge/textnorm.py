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

import os
import re
import unicodedata
from dataclasses import dataclass
from importlib import resources
from itertools import chain

import numpy as np

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
    per distinct code point ever seen, so it stays small. Each forked
    shard worker fills its own copy."""

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


@dataclass
class TokenizedView:
    """One document split once and shared by every signal group.
    `raw_lines` is `text.split("\\n")` (empty text has no lines),
    `lines[i]` the span of raw_lines[i] and its newline (the spans tile
    [0, len(text)]), `normalized_lines[i]` the normalization of
    raw_lines[i], `normalized` the non-empty normalized lines joined with
    a space, and `word_texts` its words."""

    text: str
    raw_lines: list[str]
    lines: list[tuple[int, int]]
    normalized_lines: list[str]
    normalized: str
    word_texts: list[str]


def analyze(text: str) -> TokenizedView:
    raw_lines = text.split("\n") if text else []
    lines = []
    start = 0
    for line in raw_lines:
        end = start + len(line) + 1
        lines.append((start, end))
        start = end
    if lines:
        lines[-1] = (lines[-1][0], len(text))  # the last line has no newline
    normalized_lines = [normalize(line) for line in raw_lines]
    norm = " ".join(n for n in normalized_lines if n)
    return TokenizedView(
        text=text,
        raw_lines=raw_lines,
        lines=lines,
        normalized_lines=normalized_lines,
        normalized=norm,
        # words are separated by exactly one space in the normalized text
        word_texts=norm.split(" ") if norm else [],
    )


@dataclass
class NumberedWords:
    """The words of a batch of documents, numbered once: `vocab` holds
    each distinct word once, in order of first occurrence, `ids` the vocab
    index of every word occurrence, document after document, and `sizes`
    each document's word count."""

    vocab: list[str]
    ids: np.ndarray
    sizes: np.ndarray


def number_words(documents: list[list[str]]) -> NumberedWords:
    """The NumberedWords of `documents`, each a list of words."""
    words = list(chain.from_iterable(documents))
    number = {w: i for i, w in enumerate(dict.fromkeys(words))}
    return NumberedWords(
        vocab=list(number),
        ids=np.fromiter(map(number.__getitem__, words), np.int64, len(words)),
        sizes=np.fromiter(map(len, documents), np.int64, len(documents)),
    )


def load_wordlist(path) -> frozenset[str]:
    """One word/phrase per line, UTF-8; blank lines and '#' comments
    ignored. Entries are normalized with the pipeline convention."""
    try:
        with open(path, encoding="utf-8") as fh:
            entries = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read word list {path}: {exc}") from exc
    return frozenset(
        normalize(e) for e in entries if e and not e.startswith("#")
    )


def load_language_wordlist(kind: str, language: str, directory=None) -> frozenset[str]:
    """The `kind` word list ("stopwords" or "ldnoobw") of one language:
    `<directory>/<language>.txt` when a directory is given, else the
    vendored data/<kind>/<language>.txt."""
    if directory is not None:
        return load_wordlist(os.path.join(directory, f"{language}.txt"))
    ref = resources.files("corpusforge") / "data" / kind / f"{language}.txt"
    if not ref.is_file():
        raise ConfigError(f"no vendored {kind} list for language {language!r}")
    with resources.as_file(ref) as p:
        return load_wordlist(p)
