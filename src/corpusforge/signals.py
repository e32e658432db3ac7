"""Rule-based quality signals.

Document-level natural-language signals, word n-gram repetition
statistics, blocklist content signals, per-line signals, and the code
file heuristics. The content, line and code groups read one document's
TokenizedView (see textnorm.analyze), the natlang and repetition groups
the views of a whole shard at once, the repetition group with the
shard's word numbering (textnorm.number_words); none splits a text
again. Raw-text-based rows (curly brackets, all-caps words, uppercase
fraction, line lengths) use view.text and view.raw_lines; the rest use
the normalized text. All ratio signals are defined as 0 when their
denominator is 0 so every signal is total and filterable.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .signal_catalog import REPETITION_SIGNALS
from .textnorm import NumberedWords, TokenizedView, split_sentences

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


def _count_symbols(text: str) -> int:
    """'#', non-overlapping '...' left-to-right, and U+2026. The three
    patterns share no character, so counting each on its own gives the
    same total as one left-to-right scan."""
    return text.count("#") + text.count("…") + text.count("...")


def _is_all_caps(word: str) -> bool:
    return word.isalpha() and all(map(str.isupper, word))


def _mean_line_length(lines: list[str]) -> float:
    return sum(map(len, lines)) / len(lines) if lines else 0.0


def doc_natlang_signals(views: list[TokenizedView],
                        stopwords: list[frozenset[str]]) -> list[dict[str, float]]:
    """The natural-language signals of each view (a shard's documents),
    stopwords[i] being view i's stop-word list. Each distinct raw
    whitespace word of the views is tested for all caps once."""
    all_caps: dict[str, bool] = {}
    rows = []
    for view, stop in zip(views, stopwords):
        words = view.text.split()
        all_caps.update((w, _is_all_caps(w)) for w in set(words).difference(all_caps))
        rows.append(_natlang_row(view, stop, sum(map(all_caps.__getitem__, words)), len(words)))
    return rows


def _natlang_row(view: TokenizedView, stopwords: frozenset[str], all_caps: int,
                 raw_word_count: int) -> dict[str, float]:
    """One view's natural-language signals, given how many of its
    raw_word_count raw whitespace words are all caps."""
    raw = view.text
    words = view.word_texts
    word_count = len(words)

    raw_lines = view.raw_lines
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

    return {
        "rps_doc_curly_bracket": (
            (raw.count("{") + raw.count("}")) / len(raw) if raw else 0.0
        ),
        "rps_doc_frac_all_caps_words": (
            all_caps / raw_word_count if raw_word_count else 0.0
        ),
        "rps_doc_frac_lines_end_with_ellipsis": (
            ellipsis_lines / len(raw_lines) if raw_lines else 0.0
        ),
        "rps_doc_frac_no_alph_words": (
            no_alpha_count / word_count
            if word_count
            else 0.0
        ),
        "rps_doc_lorem_ipsum": (
            view.normalized.count("lorem ipsum") / len(view.normalized)
            if view.normalized
            else 0.0
        ),
        "rps_doc_mean_word_length": (
            sum(map(len, words)) / word_count if word_count else 0.0
        ),
        "rps_doc_stop_word_fraction": (
            stop_count / word_count if word_count else 0.0
        ),
        "rps_doc_symbol_to_word_ratio": (
            _count_symbols(raw) / word_count if word_count else 0.0
        ),
        "rps_doc_frac_unique_words": (
            len(counts) / word_count if word_count else 0.0
        ),
        "rps_doc_unigram_entropy": entropy,
        "rps_doc_word_count": float(word_count),
        "rps_doc_num_sentences": float(split_sentences(raw)),
        "rps_doc_stop_word_count": float(stop_count),
        "rps_doc_mean_line_length": _mean_line_length(raw_lines),
    }


# ---------------------------------------------------------------------------
# Repetition signals

DUPE_NGRAM_SIZES = (5, 6, 7, 8, 9, 10)
TOP_NGRAM_SIZES = (2, 3, 4)


def doc_repetition_signals(views: list[TokenizedView],
                           words: NumberedWords) -> list[dict[str, float]]:
    """The repetition signals of each view (a shard's documents), where
    `words` numbers the words of all of them. Characters are those of the
    normalized content; an occurrence covers its internal separator
    spaces. A document with fewer than n words has no n-grams and reads 0
    for n."""
    word_ids, sizes, base = words.ids, words.sizes, len(words.vocab)
    doc = np.repeat(np.arange(len(views)), sizes)
    # words from each position to the end of its document
    left = np.repeat(np.cumsum(sizes), sizes) - np.arange(len(word_ids))
    # each word's span in all the normalized texts joined by one space, in
    # which no two documents' spans overlap
    lengths = np.fromiter(map(len, words.vocab), np.int64, base)[word_ids]
    ends = np.cumsum(lengths + 1) - 1
    starts = ends - lengths
    totals = np.fromiter((len(v.normalized) for v in views), np.int64, len(views))
    # The n-gram at each position is numbered by the pair (number of its
    # (n-1)-gram prefix, its last word), and the 1-grams by (document,
    # word), so equal n-grams of different documents differ. Positions
    # whose n-gram would cross into the next document drop out.
    _, grams = np.unique(doc * base + word_ids, return_inverse=True)
    columns = {}
    for n in range(min(TOP_NGRAM_SIZES), max(DUPE_NGRAM_SIZES) + 1):
        at = np.flatnonzero(left >= n)
        _, grams[at], counts = np.unique(grams[at] * base + word_ids[at + n - 1],
                                         return_inverse=True, return_counts=True)
        if n in TOP_NGRAM_SIZES:
            columns[f"rps_doc_frac_chars_top_{n}gram"] = _top_fractions(
                counts[grams[at]], ends[at + n - 1] - starts[at], doc[at], totals)
        else:
            at = at[counts[grams[at]] > 1]
            columns[f"rps_doc_frac_chars_dupe_{n}grams"] = _dupe_fractions(
                starts[at], ends[at + n - 1], doc[at], totals)
    return [dict(zip(REPETITION_SIGNALS, row))
            for row in zip(*(columns[name].tolist() for name in REPETITION_SIGNALS))]


def _top_fractions(repeats, lengths, owner, totals):
    """Per document: the largest count of one of its n-grams times the
    longest character length among its n-grams with that count, over its
    characters, clamped to 1; 0 without n-grams. An n-gram occurrence
    comes with its gram's count, its length and its document."""
    best = np.zeros(len(totals), np.int64)
    np.maximum.at(best, owner, repeats)
    top = repeats == best[owner]
    length = np.zeros(len(totals), np.int64)
    np.maximum.at(length, owner[top], lengths[top])
    return np.minimum(1.0, np.divide(best * length, totals, out=np.zeros(len(totals)),
                                     where=best > 0))


def _dupe_fractions(lo, hi, owner, totals):
    """Per document: the characters its repeated n-gram occurrences
    [lo, hi) cover, over its characters. Occurrences come in order of
    start and so of end, and no two documents' overlap, so each adds what
    lies past the previous one's end."""
    added = hi - np.maximum(lo, np.concatenate(([0], hi[:-1])))
    covered = np.bincount(owner, weights=added, minlength=len(totals))
    return np.divide(covered, totals, out=np.zeros(len(totals)), where=covered > 0)


# ---------------------------------------------------------------------------
# Content signals (blocklists)


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
    view: TokenizedView,
    source_domain: str,
    ldnoobw: Blocklist,
    ut1: dict[str, set[int]],
) -> dict:
    """The blocklist phrase count and the UT1 category ids (a list) of
    the source domain."""
    return {
        "rps_doc_ldnoobw_words": count_blocklist_phrases(view.word_texts, ldnoobw),
        "rps_doc_ut1_blacklist": ut1_categories(source_domain, ut1),
    }


def load_ut1(directory=None) -> dict[str, set[int]]:
    """UT1-style blocklist: a directory of category files, one domain per
    line. Returns domain -> category ids, assigned in sorted
    category-name order."""
    if directory is None:
        root = resources.files("corpusforge") / "data" / "ut1"
    else:
        root = Path(directory)
    table: dict[str, set[int]] = {}
    path = root
    try:
        names = sorted(ref.name[:-4] for ref in root.iterdir() if ref.name.endswith(".txt"))
        for category_id, name in enumerate(names):
            path = root / f"{name}.txt"
            with path.open(encoding="utf-8") as fh:
                for line in fh:
                    domain = line.strip().lower()
                    if domain and not domain.startswith("#"):
                        table.setdefault(domain, set()).add(category_id)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read UT1 list {path}: {exc}") from exc
    return table


# ---------------------------------------------------------------------------
# Line-level signals


def line_signals(view: TokenizedView) -> dict[str, list]:
    """Per-line values, one per line of view.raw_lines. The raw-text
    values read the line itself; the word and digit values read its
    normalized text from view.normalized_lines."""
    terminal, javascript, num_words = [], [], []
    numerical, bullet, uppercase = [], [], []
    for line, norm in zip(view.raw_lines, view.normalized_lines):
        stripped = line.strip()
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
    return {
        "rps_lines_ending_with_terminal_punctution_mark": terminal,
        "rps_lines_javascript_counts": javascript,
        "rps_lines_num_words": num_words,
        "rps_lines_numerical_chars_fraction": numerical,
        "rps_lines_start_with_bulletpoint": bullet,
        "rps_lines_uppercase_letter_fraction": uppercase,
    }


# ---------------------------------------------------------------------------
# Code file heuristics


@functools.cache
def _code_extensions() -> frozenset[str]:
    """The allow-list: file extensions (".py") and whole file names
    ("Makefile")."""
    ref = resources.files("corpusforge") / "data" / "code_extensions.txt"
    with ref.open(encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def code_signals(path: str, view: TokenizedView) -> dict[str, float]:
    """The raw-content metrics behind the code-file heuristics, for a
    file at `path` (annotate passes the path of the document's URL)."""
    content = view.text
    lines = view.raw_lines
    tokens = content.split()
    alpha = sum(1 for ch in content if ch.isalpha())
    name = os.path.basename(path)
    extensions = _code_extensions()
    dot = name.rfind(".")
    extension_ok = name in extensions or (dot >= 0 and name[dot:] in extensions)
    return {
        "rps_code_max_line_length": max((len(l) for l in lines), default=0),
        "rps_code_avg_line_length": _mean_line_length(lines),
        "rps_code_alnum_prop": (
            sum(1 for ch in content if ch.isalnum()) / len(content)
            if content
            else 0.0
        ),
        "rps_code_alpha_token_ratio": alpha / len(tokens) if tokens else 0.0,
        "rps_code_extension_ok": 1.0 if extension_ok else 0.0,
    }
