"""Shared fixtures: document construction, randomized text generation,
and on-disk corpus trees."""

from __future__ import annotations

import json
import random

import pytest

from corpusforge.records import Document, QualitySignalSet, content_digest
from corpusforge.signals import doc_repetition_signals
from corpusforge.textnorm import analyze, load_language_wordlist

# Vocabulary pools for randomized documents: ordinary words, stop words,
# punctuation-adjacent tokens, unicode, numerics, and trigger phrases.
PLAIN_WORDS = [
    "apple", "banana", "carrot", "delta", "echo", "foxtrot", "gamma",
    "harbor", "island", "jungle", "kernel", "lemon", "meadow", "nectar",
    "orbit", "pillar", "quartz", "river", "stone", "timber", "umbra",
    "velvet", "willow", "xenon", "yonder", "zephyr",
]
STOPPY = ["the", "and", "of", "to", "in", "a", "is", "that", "it", "for"]
SPICY = [
    "HELLO", "WORLD", "NASA", "{", "}", "{x}", "#tag", "#", "...", "…",
    "3.14", "1,000", "it's", "well-known", "co-op", "--", "''", "¡hola!",
    "naïve", "Ω", "№5", "javascript", "JavaScript", "lorem", "ipsum",
    "Lorem Ipsum", "•", "• item", "–dash", "end...", "maybe…", "42",
    "x2", "2x", "C3PO", "...start", "a.b", "e.g.", "etc.", "“quoted”",
]
LINE_ENDINGS = ["", ".", "!", "?", "...", "…", ",", ":", "”"]


def random_text(rng: random.Random, max_words: int = 200) -> str:
    """A randomized multi-line document exercising every signal path."""
    total = rng.randint(0, max_words)
    parts: list[str] = []
    while sum(len(p.split()) for p in parts) < total:
        n = rng.randint(1, 12)
        words = []
        for _ in range(n):
            pool = rng.choice((PLAIN_WORDS, PLAIN_WORDS, STOPPY, SPICY))
            words.append(rng.choice(pool))
        line = " ".join(words) + rng.choice(LINE_ENDINGS)
        if rng.random() < 0.1:
            line = "  " + line + " "
        parts.append(line)
        # occasionally repeat an earlier line to create duplicate n-grams
        if parts and rng.random() < 0.2:
            parts.append(rng.choice(parts))
    return "\n".join(parts)


# Pieces for hypothesis-generated text: decomposed combining marks (some
# with no precomposed capital, one on its own after whatever precedes
# it), characters whose NFC form or lowercase changes length, apostrophes and
# hyphens next to line breaks, blank and whitespace-only lines, and
# separators that are whitespace but not line breaks.
TRICKY_WORDS = [
    "a", "b", "Ab", "7", "x1", "A\u0300", "e\u0301", "T\u0308", "\u0301", "İ", "ß",
    "ﬁ", "ΑΣ",
    "it's", "'", "’", "-", "-x", "y'", "…", "...", "end.", "”", "•", "#",
    "{", "javascript", "JavaScript",
]
TRICKY_SEPARATORS = [
    "", " ", "  ", "\n", "\n\n", " \n ", "\n \n", "\t", "\r\n", "\x1c", "'", "-",
]


def tricky_text():
    """Hypothesis strategy for documents built from the pieces above:
    either any sequence of pieces, or a sequence drawn from a pool of at
    most four pieces, which repeats word n-grams."""
    from hypothesis import strategies as st

    piece = st.tuples(st.sampled_from(TRICKY_WORDS), st.sampled_from(TRICKY_SEPARATORS))
    repetitive = st.lists(piece, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=12, max_size=80)
    )
    return st.one_of(st.lists(piece, max_size=60), repetitive).map(
        lambda pieces: "".join(w + sep for w, sep in pieces)
    )


def rows(columns: dict[str, list]) -> list[dict]:
    """One dict per document of a shard's per-document signal columns."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def repetition_rows(texts: list[str]) -> list[dict]:
    """doc_repetition_signals of `texts`, the documents of one shard, one
    dict per document."""
    return rows(doc_repetition_signals(analyze(texts)))


def signal_records(lines: list[str]) -> list[QualitySignalSet]:
    """The records of signal sidecar lines, each triple a tuple."""
    records = []
    for line in lines:
        raw = json.loads(line)
        signals = {name: [tuple(t) for t in triples]
                   for name, triples in raw["quality_signals"].items()}
        records.append(QualitySignalSet(raw["id"], raw["id_int"], raw["metadata"], signals))
    return records


def make_doc(text: str, **overrides) -> Document:
    values = dict(
        url="http://example.com/page",
        date_download="2023-04-08T10:00:00Z",
        digest=content_digest(text),
        length=len(text),
        nlines=text.count("\n") + 1 if text else 0,
        source_domain="example.com",
        title="",
        raw_content=text,
        cc_segment="crawl-data/CC/segments/0/wet/0.warc.wet.gz",
        original_nlines=text.count("\n") + 1 if text else 0,
        original_length=len(text),
        line_ids=list(range(text.count("\n") + 1 if text else 0)),
        language="en",
        language_score=0.98,
        perplexity=320.5,
        bucket="head",
    )
    values.update(overrides)
    return Document(**values)


@pytest.fixture(scope="session")
def en_stopwords():
    return load_language_wordlist("stopwords", "en")


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)
