"""Canonical normalization, word tokenization and sentence segmentation.

Every downstream signal number depends on these conventions:

- normalize(): NFC, lowercase, strip Unicode punctuation/symbol
  characters (categories P* and S*) except apostrophes and hyphens that
  sit between alphanumeric characters (the one before counted after
  lowercasing), collapse whitespace runs to a single space, strip
  leading/trailing space, and NFC again the words that lowercasing or
  stripping left decomposed. Normalizing twice gives the same text.
- a "word" is a maximal non-space run of the normalized text.
- a "sentence" is a segment terminated by '.', '!' or '?' followed by
  whitespace or end of text; a trailing unterminated segment containing
  at least one alphanumeric character counts as one sentence.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError

_KEEPABLE = {"'", "’", "-"}

# Per-code-point normalization class: code point -> _SPACE, _DROP,
# _EDGE (an apostrophe or hyphen, kept only between alphanumerics) or,
# for a kept code point, its lowercase string. One entry per distinct
# code point ever seen, so it stays small. Annotate threads that race to
# fill an entry store the same value, so the cache needs no lock.
_SPACE, _DROP, _EDGE = 0, 1, 2
_CLASSES: dict[str, object] = {}

# A sentence ends at a terminator followed by whitespace or the end of
# the text. Python's \s and [^\W_] match exactly the characters for which
# str.isspace() and str.isalnum() hold.
_SENTENCE_END = re.compile(r"[.!?](?=\s|\Z)")
_ALNUM = re.compile(r"[^\W_]")


def _is_stripped(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def _char_class(ch: str):
    if ch.isspace():
        return _SPACE
    if _is_stripped(ch):
        return _EDGE if ch in _KEEPABLE else _DROP
    return ch.lower()


def normalize_with_map(text: str) -> tuple[str, list[int]]:
    """Normalize text and return (normalized, nfc_offsets), where
    nfc_offsets[i] is the index, in unicodedata.normalize("NFC", text),
    of the character the i-th normalized character came from (whitespace
    maps to the first character of its run). The offsets are
    non-decreasing. They index the NFC text, which differs from `text`
    when `text` holds decomposed sequences."""
    text = unicodedata.normalize("NFC", text)
    classes = _CLASSES
    out: list[str] = []
    offsets: list[int] = []
    pending_space = -1
    last = len(text) - 1
    for i, ch in enumerate(text):
        c = classes.get(ch)
        if c is None:
            c = classes[ch] = _char_class(ch)
        if c is _SPACE:
            if pending_space < 0:
                pending_space = i
            continue
        if c is _DROP:
            continue
        if c is _EDGE:
            # "İ" lowercases to "i" + U+0307, which is not alphanumeric
            if not (0 < i < last and text[i - 1].lower()[-1].isalnum()
                    and text[i + 1].isalnum()):
                continue
            c = ch
        if pending_space >= 0:
            if out:
                out.append(" ")
                offsets.append(pending_space)
            pending_space = -1
        out.append(c)
        offsets.append(i)
        if len(c) > 1:  # a lowercase mapping longer than one character
            offsets.extend([i] * (len(c) - 1))
    norm = "".join(out)
    if unicodedata.is_normalized("NFC", norm):
        return norm, offsets
    return _recompose(norm, offsets)


def _recompose(norm: str, offsets: list[int]) -> tuple[str, list[int]]:
    """NFC of each word of `norm` (composition never crosses a space),
    for the rare text where lowercasing or a stripped character left a
    base and its combining mark apart. A word that changes keeps the
    offsets of its first and last characters; the characters between
    take the offsets that follow the first, so the offsets stay
    non-decreasing."""
    words: list[str] = []
    new_offsets: list[int] = []
    pos = 0
    for word in norm.split(" "):
        end = pos + len(word)
        nfc = unicodedata.normalize("NFC", word)
        if nfc == word:
            new_offsets.extend(offsets[pos:end])
        else:
            # composing only shortens a word here
            new_offsets.extend(offsets[pos : pos + len(nfc) - 1])
            new_offsets.append(offsets[end - 1])
        if end < len(norm):
            new_offsets.append(offsets[end])  # the separating space
        words.append(nfc)
        pos = end + 1
    return " ".join(words), new_offsets


# An apostrophe or hyphen that does not sit between alphanumerics, the
# character before it counted after lowercasing: of all alphanumerics,
# only "İ" lowercases to a string that ends in a non-alphanumeric. The
# lookbehinds come after the character so that the scan looks for it
# first.
_LONE_EDGE = re.compile(r"['’-](?:(?<![^\W_].)|(?<=İ.)|(?![^\W_]))")


class _Translation(dict):
    """str.translate table from code point to normalized text: a space,
    None (dropped), or the character lowercased. An apostrophe or hyphen
    maps to itself, as _LONE_EDGE has already removed those to drop.
    Entries are added on first lookup from _CLASSES."""

    def __missing__(self, code_point: int):
        ch = chr(code_point)
        c = _CLASSES.get(ch)
        if c is None:
            c = _CLASSES[ch] = _char_class(ch)
        value = " " if c is _SPACE else None if c is _DROP else ch if c is _EDGE else c
        self[code_point] = value
        return value


_TRANSLATION = _Translation()


def normalize(text: str) -> str:
    """normalize_with_map(text)[0], without building the offsets."""
    text = _LONE_EDGE.sub("", unicodedata.normalize("NFC", text))
    norm = " ".join(text.translate(_TRANSLATION).split())
    if unicodedata.is_normalized("NFC", norm):
        return norm
    return " ".join(unicodedata.normalize("NFC", word) for word in norm.split(" "))


@dataclass(frozen=True)
class WordSpan:
    """A word and the [start, end) span it came from in the NFC form of
    the raw text (see normalize_with_map)."""

    text: str
    start: int
    end: int


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

    `norm_to_raw[i]` is the index, in the NFC form of `raw`, of the
    character the i-th character of `normalized` came from (see
    normalize_with_map); it indexes `raw` itself only when `raw` is
    already NFC."""

    raw: str
    normalized: str
    norm_to_raw: list[int]
    word_texts: list[str]
    lines: list[tuple[int, int]]
    sentences_count: int

    @functools.cached_property
    def words(self) -> list[WordSpan]:
        offsets = self.norm_to_raw
        return [
            WordSpan(w, offsets[start], offsets[end - 1] + 1)
            for w, (start, end) in zip(self.word_texts, normalized_word_positions(self))
        ]


def analyze(text: str) -> TokenizedView:
    norm, offsets = normalize_with_map(text)
    return TokenizedView(
        raw=text,
        normalized=norm,
        norm_to_raw=offsets,
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
