"""Rule-based quality signals.

Document-level natural-language signals, word n-gram repetition
statistics, blocklist content signals, per-line signals, and the code
file heuristics. Raw-text-based rows (curly brackets, all-caps words,
uppercase fraction) use the raw content; the rest use the normalized
view. All ratio signals are defined as 0 when their denominator is 0 so
every signal is total and filterable.
"""

from __future__ import annotations

import math
import os
import unicodedata
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError
from .records import Document
from .textnorm import TokenizedView, line_spans, load_wordlist, normalized_word_positions

ELLIPSIS_SUFFIXES = ("...", "…")

# Terminal punctuation set for the per-line signal: '.', '!', '?', '”'.
TERMINAL_PUNCTUATION = (".", "!", "?", "”")

# Bullet-point code points checked at line start.
BULLET_POINTS = (
    "•",  # bullet
    "‣",  # triangular bullet
    "▶",  # black right-pointing triangle
    "◀",  # black left-pointing triangle
    "◦",  # white bullet
    "–",  # en dash
    "■",  # black square
    "□",  # white square
    "▪",  # black small square
    "▫",  # white small square
)


@dataclass
class NatLangSignals:
    rps_doc_curly_bracket: float
    rps_doc_frac_all_caps_words: float
    rps_doc_frac_lines_end_with_ellipsis: float
    rps_doc_frac_no_alph_words: float
    rps_doc_lorem_ipsum: float
    rps_doc_mean_word_length: float
    rps_doc_stop_word_fraction: float
    rps_doc_symbol_to_word_ratio: float
    rps_doc_frac_unique_words: float
    rps_doc_unigram_entropy: float
    rps_doc_word_count: float
    rps_doc_num_sentences: float
    # Not part of the upstream catalog; needed by the Gopher and
    # custom-rules presets (stop-word count >= 2, mean line length).
    rps_doc_stop_word_count: float
    rps_doc_mean_line_length: float


def _count_symbols(text: str) -> int:
    """'#', non-overlapping '...' left-to-right, and U+2026. The three
    patterns share no character, so counting each on its own gives the
    same total as one left-to-right scan."""
    return text.count("#") + text.count("…") + text.count("...")


def _is_all_caps(word: str) -> bool:
    return word.isalpha() and all(map(str.isupper, word))


def _count_occurrences(haystack: str, needle: str) -> int:
    if not needle:
        return 0
    count = 0
    start = 0
    while True:
        idx = haystack.find(needle, start)
        if idx < 0:
            return count
        count += 1
        start = idx + len(needle)


def doc_natlang_signals(
    doc: Document, view: TokenizedView, stopwords: frozenset[str]
) -> NatLangSignals:
    raw = doc.raw_content
    words = view.word_texts
    word_count = len(words)
    raw_words = raw.split()

    raw_lines = raw.split("\n") if raw else []
    ellipsis_lines = sum(
        1 for line in raw_lines if line.rstrip().endswith(ELLIPSIS_SUFFIXES)
    )

    # first-occurrence order, which fixes the order of the entropy sum
    counts = Counter(words)
    entropy = 0.0
    if word_count:
        for c in counts.values():
            p = c / word_count
            entropy += -p * math.log(p)

    stop_count = sum(c for w, c in counts.items() if w in stopwords)
    no_alpha_count = sum(
        c for w, c in counts.items() if not any(map(str.isalpha, w))
    )

    return NatLangSignals(
        rps_doc_curly_bracket=(
            (raw.count("{") + raw.count("}")) / len(raw) if raw else 0.0
        ),
        rps_doc_frac_all_caps_words=(
            sum(1 for w in raw_words if _is_all_caps(w)) / len(raw_words)
            if raw_words
            else 0.0
        ),
        rps_doc_frac_lines_end_with_ellipsis=(
            ellipsis_lines / len(raw_lines) if raw_lines else 0.0
        ),
        rps_doc_frac_no_alph_words=(
            no_alpha_count / word_count
            if word_count
            else 0.0
        ),
        rps_doc_lorem_ipsum=(
            _count_occurrences(view.normalized, "lorem ipsum") / len(view.normalized)
            if view.normalized
            else 0.0
        ),
        rps_doc_mean_word_length=(
            sum(map(len, words)) / word_count if word_count else 0.0
        ),
        rps_doc_stop_word_fraction=(
            stop_count / word_count if word_count else 0.0
        ),
        rps_doc_symbol_to_word_ratio=(
            _count_symbols(raw) / word_count if word_count else 0.0
        ),
        rps_doc_frac_unique_words=(
            len(counts) / word_count if word_count else 0.0
        ),
        rps_doc_unigram_entropy=entropy,
        rps_doc_word_count=float(word_count),
        rps_doc_num_sentences=float(view.sentences_count),
        rps_doc_stop_word_count=float(stop_count),
        rps_doc_mean_line_length=(
            sum(map(len, raw_lines)) / len(raw_lines)
            if raw_lines
            else 0.0
        ),
    )


# ---------------------------------------------------------------------------
# Repetition signals

DUPE_NGRAM_SIZES = (5, 6, 7, 8, 9, 10)
TOP_NGRAM_SIZES = (2, 3, 4)


def _gram_ids(words: list[str], max_n: int) -> list[tuple[list[int], int]]:
    """Entry n - 1 is (ids, distinct) for word n-grams: ids[i] numbers
    the n-gram that starts at word i (equal n-grams get equal numbers,
    all below `distinct`, the number of different n-grams). An n-gram's
    number is that of the pair (number of its (n-1)-gram prefix, number
    of its last word), so no key is longer than two."""
    table: dict = {}
    word_ids = [table.setdefault(w, len(table)) for w in words]
    out = [(word_ids, len(table))]
    for n in range(2, max_n + 1):
        prev, distinct = out[-1]
        if distinct == len(prev):
            # every (n-1)-gram is distinct, so every n-gram is as well
            ids = list(range(len(words) - n + 1))
            distinct = len(ids)
        else:
            table = {}
            ids = [table.setdefault(k, len(table)) for k in zip(prev, word_ids[n - 1 :])]
            distinct = len(table)
        out.append((ids, distinct))
    return out


def _dupe_fraction(ids, distinct, positions, n, total) -> float:
    """Characters covered by the occurrences of n-grams that occur at
    least twice, over `total`. Occurrences come in order of their start,
    and so of their end, so their union is one merge pass. No n-grams
    (fewer than n words) means 0."""
    if distinct == len(ids):
        return 0.0
    counts = [0] * distinct
    for g in ids:
        counts[g] += 1
    covered = run_lo = run_hi = 0
    for i, g in enumerate(ids):
        if counts[g] > 1:
            lo = positions[i][0]
            if lo > run_hi:
                covered += run_hi - run_lo
                run_lo = lo
            run_hi = positions[i + n - 1][1]
    covered += run_hi - run_lo
    return covered / total


def _top_fraction(ids, distinct, positions, n, total) -> float:
    """Characters of the most frequent n-gram times its count, over
    `total`, clamped to 1. The value depends only on the maximal
    (count, character length), so no further tie-break is needed."""
    if not ids:
        return 0.0
    counts = [0] * distinct
    for g in ids:
        counts[g] += 1
    best = max(counts)
    length = max(
        positions[i + n - 1][1] - positions[i][0]
        for i, g in enumerate(ids)
        if counts[g] == best
    )
    return min(1.0, best * length / total)


def _ngram_fraction(view: TokenizedView, n: int, fraction) -> float:
    if n < 2:
        raise ValueError("n must be >= 2")
    ids, distinct = _gram_ids(view.word_texts, n)[n - 1]
    return fraction(
        ids, distinct, normalized_word_positions(view), n, len(view.normalized)
    )


def frac_chars_dupe_ngrams(view: TokenizedView, n: int) -> float:
    """Fraction of normalized-content characters covered by any word
    n-gram occurring at least twice. Characters inside an occurrence
    include the single internal separator spaces; each character is
    counted at most once even under overlapping occurrences."""
    return _ngram_fraction(view, n, _dupe_fraction)


def frac_chars_top_ngram(view: TokenizedView, n: int) -> float:
    """Fraction of normalized-content characters attributed to the most
    frequent word n-gram. Every occurrence is counted (overlaps
    included) and the ratio is clamped to 1.0; ties break toward the
    n-gram with greater character length, then lexicographically."""
    return _ngram_fraction(view, n, _top_fraction)


@dataclass
class RepetitionSignals:
    rps_doc_frac_chars_dupe_5grams: float
    rps_doc_frac_chars_dupe_6grams: float
    rps_doc_frac_chars_dupe_7grams: float
    rps_doc_frac_chars_dupe_8grams: float
    rps_doc_frac_chars_dupe_9grams: float
    rps_doc_frac_chars_dupe_10grams: float
    rps_doc_frac_chars_top_2gram: float
    rps_doc_frac_chars_top_3gram: float
    rps_doc_frac_chars_top_4gram: float


def doc_repetition_signals(view: TokenizedView) -> RepetitionSignals:
    """All repetition signals from one numbering of the document's word
    n-grams (see _gram_ids) and one list of word positions."""
    grams = _gram_ids(view.word_texts, max(DUPE_NGRAM_SIZES))
    positions = normalized_word_positions(view)
    total = len(view.normalized)
    values = {}
    for n in DUPE_NGRAM_SIZES:
        values[f"rps_doc_frac_chars_dupe_{n}grams"] = _dupe_fraction(
            *grams[n - 1], positions, n, total
        )
    for n in TOP_NGRAM_SIZES:
        values[f"rps_doc_frac_chars_top_{n}gram"] = _top_fraction(
            *grams[n - 1], positions, n, total
        )
    return RepetitionSignals(**values)


# ---------------------------------------------------------------------------
# Content signals (blocklists)


@dataclass
class ContentSignals:
    rps_doc_ldnoobw_words: int
    rps_doc_ut1_blacklist: list[int]


# first word -> every phrase that starts with it, as word tuples,
# longest first
Blocklist = dict[str, tuple[tuple[str, ...], ...]]


def compile_blocklist(phrases) -> Blocklist:
    """Index normalized (possibly multi-word) phrases by first word for
    count_blocklist_phrases; empty phrases are dropped."""
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for p in phrases:
        pw = tuple(p.split())
        if pw:
            by_first.setdefault(pw[0], []).append(pw)
    return {
        first: tuple(sorted(set(group), key=len, reverse=True))
        for first, group in by_first.items()
    }


def count_blocklist_phrases(words: list[str], blocklist: Blocklist) -> int:
    """Non-overlapping left-to-right matches of the blocklist's phrases
    against the normalized word sequence; longer phrases win at each
    position."""
    if blocklist.keys().isdisjoint(words):
        return 0
    count = 0
    i = 0
    n = len(words)
    while i < n:
        matched = 1
        for pw in blocklist.get(words[i], ()):
            if len(pw) == 1 or tuple(words[i : i + len(pw)]) == pw:
                count += 1
                matched = len(pw)
                break
        i += matched
    return count


def ut1_categories(domain: str, table: dict[str, set[int]]) -> list[int]:
    """Category ids for the domain and every parent-domain suffix."""
    categories: set[int] = set()
    parts = domain.lower().split(".")
    for start in range(len(parts)):
        suffix = ".".join(parts[start:])
        categories.update(table.get(suffix, ()))
    return sorted(categories)


def content_signals(
    doc: Document,
    view: TokenizedView,
    ldnoobw: Blocklist,
    ut1: dict[str, set[int]],
) -> ContentSignals:
    return ContentSignals(
        rps_doc_ldnoobw_words=count_blocklist_phrases(view.word_texts, ldnoobw),
        rps_doc_ut1_blacklist=ut1_categories(doc.source_domain, ut1),
    )


def load_ldnoobw(language: str, directory=None) -> Blocklist:
    """Per-language blocklist, one phrase per line, compiled once here
    rather than per document."""
    if directory is not None:
        path = os.path.join(directory, f"{language}.txt")
        if not os.path.exists(path):
            raise ConfigError(f"missing LDNOOBW blocklist {path}")
        return compile_blocklist(load_wordlist(path))
    ref = resources.files("corpusforge") / "data" / "ldnoobw" / f"{language}.txt"
    if not ref.is_file():
        raise ConfigError(f"no vendored LDNOOBW list for language {language!r}")
    with resources.as_file(ref) as p:
        return compile_blocklist(load_wordlist(p))


def load_ut1(directory=None) -> tuple[dict[str, set[int]], list[str]]:
    """UT1-style blocklist: a directory of category files, one domain per
    line. Category ids are assigned by sorted category-name order;
    returns (domain -> ids, category names by id)."""
    if directory is not None:
        try:
            names = sorted(
                f[:-4] for f in os.listdir(directory) if f.endswith(".txt")
            )
        except OSError as exc:
            raise ConfigError(f"cannot read UT1 directory {directory}: {exc}") from exc
        readers = [
            (name, open(os.path.join(directory, f"{name}.txt"), encoding="utf-8"))
            for name in names
        ]
    else:
        root = resources.files("corpusforge") / "data" / "ut1"
        names = sorted(
            ref.name[:-4] for ref in root.iterdir() if ref.name.endswith(".txt")
        )
        readers = [(name, (root / f"{name}.txt").open(encoding="utf-8")) for name in names]
    table: dict[str, set[int]] = {}
    for category_id, (_name, fh) in enumerate(readers):
        with fh:
            for line in fh:
                domain = line.strip().lower()
                if domain and not domain.startswith("#"):
                    table.setdefault(domain, set()).add(category_id)
    return table, names


# ---------------------------------------------------------------------------
# Line-level signals


@dataclass
class LineSignals:
    """Per-line values; spans (from textnorm.line_spans) tile the doc."""

    spans: list[tuple[int, int]]
    ending_with_terminal_punctution_mark: list[int]
    javascript_counts: list[int]
    num_words: list[int]
    numerical_chars_fraction: list[float]
    start_with_bulletpoint: list[int]
    uppercase_letter_fraction: list[float]


def line_signals(doc: Document, view: TokenizedView) -> LineSignals:
    """Per-line values. A line's normalized text is the part of
    view.normalized that came from the line, found by bisecting the
    offset map, minus the separator spaces at its ends: '\\n' is neither
    alphanumeric nor a composing character, so normalizing the whole
    document and cutting it at the newlines gives each line's own
    normalization."""
    raw = doc.raw_content
    spans = view.lines
    # norm_to_raw indexes the NFC text, whose lines can be shorter
    nfc = unicodedata.normalize("NFC", raw)
    nfc_spans = spans if nfc == raw else line_spans(nfc)
    normalized = view.normalized
    offsets = view.norm_to_raw
    terminal, javascript, num_words = [], [], []
    numerical, bullet, uppercase = [], [], []
    for (start, end), (nfc_start, nfc_end) in zip(spans, nfc_spans):
        line = raw[start:end].rstrip("\n")
        stripped = line.strip()
        norm = normalized[
            bisect_left(offsets, nfc_start) : bisect_left(offsets, nfc_end)
        ].strip(" ")
        norm_words = norm.split()
        terminal.append(1 if stripped.endswith(TERMINAL_PUNCTUATION) else 0)
        javascript.append(norm_words.count("javascript"))
        num_words.append(len(norm_words))
        numerical.append(
            sum(map(str.isdigit, norm)) / len(norm) if norm else 0.0
        )
        bullet.append(1 if stripped.startswith(BULLET_POINTS) else 0)
        uppercase.append(
            sum(map(str.isupper, line)) / len(line) if line else 0.0
        )
    return LineSignals(
        spans=spans,
        ending_with_terminal_punctution_mark=terminal,
        javascript_counts=javascript,
        num_words=num_words,
        numerical_chars_fraction=numerical,
        start_with_bulletpoint=bullet,
        uppercase_letter_fraction=uppercase,
    )


# ---------------------------------------------------------------------------
# Code file heuristics


@dataclass
class CodeFileMetrics:
    max_line_length: int
    avg_line_length: float
    alnum_prop: float
    alpha_token_ratio: float
    extension_ok: bool


def load_code_extensions() -> frozenset[str]:
    ref = resources.files("corpusforge") / "data" / "code_extensions.txt"
    with ref.open(encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


_CODE_EXTENSIONS: frozenset[str] | None = None


def code_quality_metrics(path: str, content: str) -> CodeFileMetrics:
    """Raw-content metrics behind the code-file keep/drop heuristics."""
    global _CODE_EXTENSIONS
    if _CODE_EXTENSIONS is None:
        _CODE_EXTENSIONS = load_code_extensions()
    lines = content.split("\n") if content else []
    tokens = content.split()
    alpha = sum(1 for ch in content if ch.isalpha())
    name = os.path.basename(path)
    if name in _CODE_EXTENSIONS:
        extension_ok = True
    else:
        dot = name.rfind(".")
        extension_ok = dot >= 0 and name[dot:] in _CODE_EXTENSIONS
    return CodeFileMetrics(
        max_line_length=max((len(l) for l in lines), default=0),
        avg_line_length=(
            sum(len(l) for l in lines) / len(lines) if lines else 0.0
        ),
        alnum_prop=(
            sum(1 for ch in content if ch.isalnum()) / len(content)
            if content
            else 0.0
        ),
        alpha_token_ratio=alpha / len(tokens) if tokens else 0.0,
        extension_ok=extension_ok,
    )
