"""Canonical normalization, word tokenization and sentence segmentation.

Every downstream signal number depends on these conventions:

- normalize(): NFC, lowercase, strip Unicode punctuation/symbol
  characters (categories P* and S*) except apostrophes and hyphens that
  sit between alphanumeric characters (the one before counted after
  lowercasing), turn each whitespace character into a space, collapse
  runs of spaces to one, strip leading/trailing spaces, and NFC again
  the words that lowercasing or stripping left decomposed. Normalizing
  twice gives the same text.
- normalization commutes with splitting at '\n': a newline is neither
  alphanumeric nor composing, so an apostrophe or hyphen next to one is
  at a line edge either way, and whitespace collapsing turns it into one
  space. analyze() relies on this: it splits a whole shard's texts into
  lines once, normalizes line by line and joins each document's
  non-empty lines with a space, which equals normalize() of its text,
  and numbers the shard's words once (number_words).
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
from itertools import accumulate, chain

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
# After translation a space is the only whitespace left: _char_class maps
# each whitespace character to exactly " " and no other to a value
# holding whitespace. So collapsing runs of " " and stripping " " at the
# ends gives the words split at any whitespace, joined by one space.
_SPACE_RUN = re.compile("  +")


def normalize(text: str) -> str:
    """The canonical normalization described in the module docstring."""
    text = _LONE_EDGE.sub("", unicodedata.normalize("NFC", text))
    norm = text.translate(_TRANSLATION)
    if "  " in norm:
        norm = _SPACE_RUN.sub(" ", norm)
    norm = norm.strip(" ")
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


@dataclass
class ShardText:
    """A shard's documents split once and shared by every signal group.
    `texts` are the raw texts; `lines` the lines of every text, document
    after document (`text.split("\\n")`, and an empty text has none), and
    `line_counts` each document's number of lines; `normalized_lines[i]`
    is the normalization of lines[i]. `normalized[d]` is document d's
    non-empty normalized lines joined with a space, and `words` numbers
    its words."""

    texts: list[str]
    lines: list[str]
    line_counts: np.ndarray
    normalized_lines: list[str]
    normalized: list[str]
    words: NumberedWords

    def line_spans(self) -> tuple[list[int], list[int]]:
        """(starts, ends) of the lines, each offset within its document: a
        line's span holds its newline, so a document's spans tile
        [0, len(text)]."""
        counts = self.line_counts
        widths = np.fromiter(map(len, self.lines), np.int64, len(self.lines)) + 1
        firsts = np.cumsum(counts) - counts
        widths[(firsts + counts - 1)[counts > 0]] -= 1  # the last line has no newline
        ends = np.cumsum(widths)
        # less the ends of the lines of the documents before
        ends -= np.repeat(np.concatenate(([0], ends))[firsts], counts)
        return (ends - widths).tolist(), ends.tolist()


def analyze(texts: list[str]) -> ShardText:
    """The ShardText of a shard's raw texts."""
    split = [text.split("\n") if text else [] for text in texts]
    lines = list(chain.from_iterable(split))
    normalized_lines = list(map(normalize, lines))
    firsts = list(accumulate(map(len, split), initial=0))
    normalized = [" ".join(filter(None, normalized_lines[first:end]))
                  for first, end in zip(firsts, firsts[1:])]
    return ShardText(texts, lines, np.diff(firsts), normalized_lines, normalized,
                     # words are separated by exactly one space in the normalized text
                     number_words([norm.split(" ") if norm else [] for norm in normalized]))


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
