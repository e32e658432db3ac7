"""Rule-based quality signals.

Document-level natural-language signals, word n-gram repetition
statistics, blocklist content signals, per-line signals, and the code
file heuristics. Every group reads a whole shard at once, split once
into a textnorm.ShardText, and returns one column per signal: a value
per document, or per line for the line signals. Word tests run once per
distinct word of the shard's word numbering and are counted per
document with numpy; character classes (uppercase, digits, letters) are
counted by one table lookup over the UTF-32 code points of the shard's
lines. Raw-text-based values (curly brackets, all-caps words, uppercase
fraction, line lengths, the code metrics) use the raw texts and lines;
the rest use the normalized text. All ratio signals are defined as 0
when their denominator is 0 so every signal is total and filterable.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .signal_catalog import REPETITION_SIGNALS
from .textnorm import NumberedWords, ShardText, number_words, split_sentences

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


def _ratio(numerators, denominators) -> list[float]:
    """numerators / denominators, elementwise, 0 where a denominator is 0."""
    denominators = np.asarray(denominators)
    return np.divide(numerators, denominators, out=np.zeros(len(denominators)),
                     where=denominators != 0).tolist()


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sums of consecutive segments of `values` with the given
    lengths. The appended 0 is where an empty last segment starts."""
    sums = np.add.reduceat(np.append(values, False), np.cumsum(lengths) - lengths,
                           dtype=np.int64)
    return np.where(lengths > 0, sums, 0)


def _in_table(words: NumberedWords, tables: list) -> np.ndarray:
    """For each word occurrence, whether its document's table (tables[d]
    for document d, a set or a dict) holds it; each distinct word is
    looked up once per distinct table."""
    distinct = {id(table): table for table in tables}
    row = {key: i for i, key in enumerate(distinct)}
    member = np.array([[w in table for w in words.vocab] for table in distinct.values()],
                      bool).reshape(len(distinct), len(words.vocab))
    rows = np.fromiter((row[id(table)] for table in tables), np.int64, len(tables))
    return member[np.repeat(rows, words.sizes), words.ids]


def _mean_lengths(texts: list[str], counts: np.ndarray) -> list[float]:
    """The mean length of the counts[d] items of each text, items that
    one character separates: all of the text's characters but those."""
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    return _ratio(lengths - np.maximum(counts - 1, 0), counts)


def doc_natlang_signals(shard: ShardText,
                        stopwords: list[frozenset[str]]) -> dict[str, list[float]]:
    """The natural-language signals of a shard's documents, one column per
    signal, stopwords[d] being document d's stop-word list. The word tests
    run once per distinct normalized word (and per distinct raw whitespace
    word for all caps); the unigram entropy adds its terms in order of
    first occurrence within each document."""
    texts, words, sizes = shard.texts, shard.words, shard.words.sizes
    no_alpha = np.fromiter((not any(map(str.isalpha, w)) for w in words.vocab), bool,
                           len(words.vocab))
    stop = _segment_sums(_in_table(words, stopwords), sizes)
    raw = number_words([text.split() for text in texts])
    all_caps = np.fromiter(map(_is_all_caps, raw.vocab), bool, len(raw.vocab))

    # each document's distinct words in order of first occurrence, and
    # their counts, which fix the order of the entropy sum
    base = max(len(words.vocab), 1)
    owner = np.repeat(np.arange(len(texts)), sizes)
    _, first, counts = np.unique(owner * base + words.ids, return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    counts, distinct_owner = counts[order], owner[first[order]]
    p = counts / sizes[distinct_owner]
    terms = (-p * np.fromiter(map(math.log, p.tolist()), np.float64, len(p))).tolist()
    distinct = np.bincount(distinct_owner, minlength=len(texts))
    ends = np.cumsum(distinct).tolist()
    entropy = [functools.reduce(operator.add, terms[end - n:end], 0.0)
               for n, end in zip(distinct.tolist(), ends)]
    ellipsis = np.fromiter((line.rstrip().endswith(ELLIPSIS_SUFFIXES) for line in shard.lines),
                           bool, len(shard.lines))
    return {
        "rps_doc_curly_bracket": _ratio(
            [text.count("{") + text.count("}") for text in texts], list(map(len, texts))),
        "rps_doc_frac_all_caps_words": _ratio(
            _segment_sums(all_caps[raw.ids], raw.sizes), raw.sizes),
        "rps_doc_frac_lines_end_with_ellipsis": _ratio(
            _segment_sums(ellipsis, shard.line_counts), shard.line_counts),
        "rps_doc_frac_no_alph_words": _ratio(_segment_sums(no_alpha[words.ids], sizes), sizes),
        "rps_doc_lorem_ipsum": _ratio([norm.count("lorem ipsum") for norm in shard.normalized],
                                      list(map(len, shard.normalized))),
        "rps_doc_mean_word_length": _mean_lengths(shard.normalized, sizes),
        "rps_doc_stop_word_fraction": _ratio(stop, sizes),
        "rps_doc_symbol_to_word_ratio": _ratio(list(map(_count_symbols, texts)), sizes),
        "rps_doc_frac_unique_words": _ratio(distinct, sizes),
        "rps_doc_unigram_entropy": entropy,
        "rps_doc_word_count": sizes.tolist(),
        "rps_doc_num_sentences": list(map(split_sentences, texts)),
        "rps_doc_stop_word_count": stop.tolist(),
        "rps_doc_mean_line_length": _mean_lengths(texts, shard.line_counts),
    }


# ---------------------------------------------------------------------------
# Repetition signals

DUPE_NGRAM_SIZES = (5, 6, 7, 8, 9, 10)
TOP_NGRAM_SIZES = (2, 3, 4)


def doc_repetition_signals(shard: ShardText) -> dict[str, list[float]]:
    """The repetition signals of a shard's documents, one column per
    signal. Characters are those of the normalized content; an occurrence
    covers its internal separator spaces. A document with fewer than n
    words has no n-grams and reads 0 for n."""
    words = shard.words
    word_ids, sizes, base = words.ids, words.sizes, len(words.vocab)
    doc = np.repeat(np.arange(len(sizes)), sizes)
    # words from each position to the end of its document
    left = np.repeat(np.cumsum(sizes), sizes) - np.arange(len(word_ids))
    # each word's span in all the normalized texts joined by one space, in
    # which no two documents' spans overlap
    lengths = np.fromiter(map(len, words.vocab), np.int64, base)[word_ids]
    ends = np.cumsum(lengths + 1) - 1
    starts = ends - lengths
    totals = np.fromiter(map(len, shard.normalized), np.int64, len(sizes))
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
    return {name: columns[name].tolist() for name in REPETITION_SIGNALS}


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


def content_signals(shard: ShardText, domains: list[str], ldnoobw: list[Blocklist],
                    ut1: dict[str, set[int]]) -> dict[str, list]:
    """The blocklist phrase count of each of a shard's documents,
    ldnoobw[d] being document d's blocklist, and the UT1 category ids (a
    list) of each document's source domain. Only a document that holds the
    first word of a phrase of its blocklist is matched word by word."""
    words = shard.words
    ends = np.cumsum(words.sizes).tolist()
    counts = [0] * len(domains)
    for d in np.flatnonzero(_segment_sums(_in_table(words, ldnoobw), words.sizes)).tolist():
        doc_words = [words.vocab[i] for i in words.ids[ends[d] - words.sizes[d]:ends[d]]]
        counts[d] = count_blocklist_phrases(doc_words, ldnoobw[d])
    categories = {domain: ut1_categories(domain, ut1) for domain in dict.fromkeys(domains)}
    return {
        "rps_doc_ldnoobw_words": counts,
        "rps_doc_ut1_blacklist": [categories[domain] for domain in domains],
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


def line_signals(shard: ShardText) -> dict[str, list]:
    """Per-line values, one column per signal over all of a shard's lines,
    document after document. The raw-text values read the line itself;
    the word and digit values read its normalized text."""
    lines, norms = shard.lines, shard.normalized_lines
    return {
        "rps_lines_ending_with_terminal_punctution_mark": [
            line.rstrip().endswith(TERMINAL_PUNCTUATION) for line in lines],
        "rps_lines_javascript_counts": [
            norm.split().count("javascript") if "javascript" in norm else 0 for norm in norms],
        # a normalized text holds its words separated by one space
        "rps_lines_num_words": [norm.count(" ") + 1 if norm else 0 for norm in norms],
        "rps_lines_numerical_chars_fraction": _ratio(
            _count_chars(norms, str.isdigit), list(map(len, norms))),
        "rps_lines_start_with_bulletpoint": [
            line.lstrip().startswith(BULLET_POINTS) for line in lines],
        "rps_lines_uppercase_letter_fraction": _ratio(
            _count_chars(lines, str.isupper), list(map(len, lines))),
    }


@functools.cache
def _bmp_table(predicate) -> np.ndarray:
    """predicate, a str method such as str.isupper, of each code point
    below U+10000, computed once per process."""
    return np.fromiter(map(predicate, map(chr, range(0x10000))), bool, 0x10000)


def _count_chars(texts: list[str], predicate) -> np.ndarray:
    """How many characters of each text satisfy `predicate`, by one
    lookup over the UTF-32 code points of all the texts. A code point
    above U+FFFF is tested on its own, once per distinct one."""
    points = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), "<u4")
    hits = _bmp_table(predicate)[points.view("<u2")[::2]]  # by the low 16 bits
    astral = np.flatnonzero(points > 0xFFFF)
    if len(astral):
        distinct, inverse = np.unique(points[astral], return_inverse=True)
        hits[astral] = np.fromiter(map(predicate, map(chr, distinct.tolist())), bool,
                                   len(distinct))[inverse]
    return _segment_sums(hits, np.fromiter(map(len, texts), np.int64, len(texts)))


# ---------------------------------------------------------------------------
# Code file heuristics


@functools.cache
def _code_extensions() -> frozenset[str]:
    """The allow-list: file extensions (".py") and whole file names
    ("Makefile")."""
    ref = resources.files("corpusforge") / "data" / "code_extensions.txt"
    with ref.open(encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def code_signals(shard: ShardText, paths: list[str]) -> dict[str, list[float]]:
    """The raw-content metrics behind the code-file heuristics of a
    shard's documents, document d being a file at paths[d] (annotate
    passes the path of the document's URL)."""
    texts = shard.texts
    line_lengths = np.fromiter(map(len, shard.lines), np.int64, len(shard.lines))
    longest = np.zeros(len(texts), np.int64)
    np.maximum.at(longest, np.repeat(np.arange(len(texts)), shard.line_counts), line_lengths)
    extensions = _code_extensions()

    def extension_ok(path: str) -> bool:
        name = os.path.basename(path)
        dot = name.rfind(".")
        return name in extensions or (dot >= 0 and name[dot:] in extensions)

    return {
        "rps_code_max_line_length": longest.tolist(),
        "rps_code_avg_line_length": _mean_lengths(texts, shard.line_counts),
        "rps_code_alnum_prop": _ratio(_count_chars(texts, str.isalnum), list(map(len, texts))),
        "rps_code_alpha_token_ratio": _ratio(_count_chars(texts, str.isalpha),
                                             [len(text.split()) for text in texts]),
        "rps_code_extension_ok": list(map(extension_ok, paths)),
    }
