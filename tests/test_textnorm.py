"""Normalization, tokenization, sentence and line segmentation."""

from hypothesis import example, given
from hypothesis import strategies as st

from oracles import oracle_normalize, oracle_sentence_count

from corpusforge.textnorm import _char_class, analyze, normalize, split_sentences

from conftest import random_text, tricky_text


# runs of several kinds of whitespace, where they lead, trail, stand alone
# or surround characters that normalize drops
_MIXED_SPACE_RUNS = ["\u2003a\t \x1c\u3000b  ", " \u00a0\u2028 ", "a\x85\u2029\x0b\x0cb",
                     "x  - ’ ;  y\r\n\t", "\u205f\u3000", "c  \u1680d   e ", "  "]


def test_normalize_basics():
    assert normalize("Hello, World!") == "hello world"
    assert normalize("  a   b\t\nc ") == "a b c"
    assert normalize("") == ""
    assert normalize("!!! ... ???") == ""


def test_normalize_keeps_interior_apostrophes_and_hyphens():
    assert normalize("it's") == "it's"
    assert normalize("rock 'n' roll") == "rock n roll"  # edge apostrophes go
    assert normalize("well-known co-op") == "well-known co-op"
    # edge positions are stripped
    assert normalize("'quoted'") == "quoted"
    assert normalize("-dash- trail-") == "dash trail"
    assert normalize("a - b") == "a b"


def test_normalize_nfc_and_casefold():
    # decomposed e + combining acute composes, then lowercases
    assert normalize("Café") == "café"
    assert normalize("STRASSE Ω") == "strasse ω"


def test_normalize_collapses_mixed_whitespace_runs():
    assert [normalize(text) for text in _MIXED_SPACE_RUNS] == [
        "a b", "", "a b", "x y", "", "c d e", ""]
    assert [normalize(text) for text in _MIXED_SPACE_RUNS] == list(
        map(oracle_normalize, _MIXED_SPACE_RUNS))
    assert analyze(_MIXED_SPACE_RUNS).normalized == list(map(oracle_normalize, _MIXED_SPACE_RUNS))


def test_normalize_matches_oracle_randomized(rng):
    for _ in range(300):
        text = random_text(rng, max_words=60)
        assert normalize(text) == oracle_normalize(text)


def test_sentence_counting():
    assert split_sentences("One. Two! Three?") == 3
    assert split_sentences("No terminator here") == 1
    assert split_sentences("Version 3.14 is out.") == 1  # interior dot
    assert split_sentences("Ends mid way. And trails") == 2
    assert split_sentences("... ! ?") == 0  # no alphanumeric content
    assert split_sentences("") == 0


def test_sentence_counting_matches_oracle(rng):
    for _ in range(300):
        text = random_text(rng, max_words=40)
        assert split_sentences(text) == oracle_sentence_count(text)


def test_line_spans_tile_and_match_split():
    # the documents of one shard, each document's spans its own
    texts = ["", "a", "a\nb", "a\n", "\n", "a\n\nb\n", "x" * 5]
    shard = analyze(texts)
    starts, ends = shard.line_spans()
    firsts = [sum(shard.line_counts[:d]) for d in range(len(texts) + 1)]
    for d, text in enumerate(texts):
        spans = list(zip(starts, ends))[firsts[d]:firsts[d + 1]]
        assert len(spans) == (len(text.split("\n")) if text else 0)
        pos = 0
        for start, end in spans:
            assert start == pos and end >= start
            pos = end
        if text:
            assert pos == len(text)
            for (start, end), line in zip(spans, text.split("\n")):
                assert text[start:end].rstrip("\n") == line


def test_only_whitespace_translates_to_whitespace():
    # normalize collapses runs of " " alone, which equals splitting at any
    # whitespace only while every whitespace character becomes exactly " "
    # and no other character a value that holds whitespace
    wrong = []
    for code_point in range(0x110000):
        ch = chr(code_point)
        value = _char_class(ch)
        if ch.isspace():
            ok = value == " "
        else:
            ok = value is None or not any(map(str.isspace, value))
        if not ok:
            wrong.append((hex(code_point), value))
    assert wrong == []


@given(tricky_text())
def test_normalize_is_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once
    assert once == oracle_normalize(text)


@given(st.one_of(tricky_text(), st.text()))
@example("İ'a x-'y z'-w -v- ’")
@example("A\u0300\n1")
@example("x'\n'y")
@example("İ\n'a")
def test_analyze_matches_normalize(text):
    shard = analyze([text])
    assert shard.normalized == [normalize(text)] == [oracle_normalize(text)]
    assert normalize(shard.normalized[0]) == shard.normalized[0]
    lines = text.split("\n") if text else []
    assert shard.lines == lines
    assert shard.normalized_lines == [oracle_normalize(line) for line in lines]
