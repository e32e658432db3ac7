"""Rule-based quality signals against the brute-force references, plus
targeted edge cases for blocklists, line signals, and code heuristics."""

from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from corpusforge.signals import (
    code_signals,
    compile_blocklist,
    content_signals,
    count_blocklist_phrases,
    doc_natlang_signals,
    doc_repetition_signals,
    line_signals,
    load_ut1,
    ut1_categories,
)
from corpusforge.signal_catalog import SIGNAL_GROUPS
from corpusforge.textnorm import analyze, load_language_wordlist

from conftest import random_text, repetition_rows, rows, tricky_text


def _natlang(text, stopwords):
    """The natlang signals of `text` as the only document of its shard."""
    return rows(doc_natlang_signals(analyze([text]), [stopwords]))[0]


def _code(path, text):
    return rows(code_signals(analyze([text]), [path]))[0]


def test_natlang_signals_match_oracle(rng, en_stopwords):
    for _ in range(200):
        text = random_text(rng, max_words=120)
        got = _natlang(text, en_stopwords)
        expected = oracles.oracle_natlang(text, en_stopwords)
        assert got == expected, text


def test_natlang_empty_document(en_stopwords):
    values = _natlang("", en_stopwords)
    assert all(v == 0.0 for v in values.values())


def test_symbol_counting_is_left_to_right():
    # "...." = one "..." match then a lone dot; "……" = two ellipsis chars
    sig = _natlang("word .... more ……", frozenset())
    assert sig["rps_doc_symbol_to_word_ratio"] == 3 / 2


def test_all_caps_requires_alpha_only():
    sig = _natlang("NASA C3PO A HTTP2 OK!", frozenset())
    # raw whitespace words: NASA, C3PO, A, HTTP2, OK! -> caps: NASA, A
    assert sig["rps_doc_frac_all_caps_words"] == 2 / 5


def test_repetition_signals_match_oracle(rng):
    for _ in range(200):
        text = random_text(rng, max_words=120)
        got = repetition_rows([text])[0]
        assert got == oracles.oracle_repetition(text), text


def test_dupe_ngrams_counts_characters_once():
    # "a b c d e" twice: both occurrences of the repeated 5-gram are
    # covered (18 of 19 chars; the separating space is outside both)
    assert repetition_rows(["a b c d e a b c d e"])[0]["rps_doc_frac_chars_dupe_5grams"] == 18 / 19
    # no repeated 5-gram in distinct words
    assert repetition_rows(["a b c d e f g h i j"])[0]["rps_doc_frac_chars_dupe_5grams"] == 0.0


def test_top_ngram_tie_breaks_to_longer_gram():
    # "aa bb" and "c d" both occur twice; the longer one is attributed
    text = "aa bb x c d y aa bb z c d"
    got = repetition_rows([text])[0]["rps_doc_frac_chars_top_2gram"]
    assert got == 2 * len("aa bb") / len(analyze([text]).normalized[0])


def test_top_ngram_clamps_to_one():
    # "x x" occurs 5 times overlapping; 5 * 3 chars > 11 total, so clamp
    assert repetition_rows(["x x x x x x"])[0]["rps_doc_frac_chars_top_2gram"] == 1.0


def test_blocklist_phrase_matching(en_stopwords):
    phrases = frozenset({"bad", "very bad", "very bad thing"})
    words = "a very bad thing and a bad one plus very bad stuff".split()
    # longest-match: "very bad thing", then "bad", then "very bad"
    assert count_blocklist_phrases(words, compile_blocklist(phrases)) == 3
    assert count_blocklist_phrases(words, compile_blocklist(frozenset())) == 0
    assert oracles.oracle_blocklist_count(words, phrases) == 3


def _ut1_category_names():
    """The vendored UT1 category names in sorted order, which is the
    order of their ids."""
    root = resources.files("corpusforge") / "data" / "ut1"
    return sorted(ref.name[:-4] for ref in root.iterdir() if ref.name.endswith(".txt"))


def test_vendored_blocklists_load():
    for lang in ("en", "de", "fr", "es", "it"):
        assert compile_blocklist(load_language_wordlist("ldnoobw", lang))
    table, names = load_ut1(), _ut1_category_names()
    assert names == sorted(names) and len(names) >= 2
    assert ut1_categories("nsfw.example.com", table) == [names.index("adult")]
    # subdomain inherits the parent domain's categories
    assert ut1_categories("x.y.nsfw.example.com", table) == [names.index("adult")]
    assert ut1_categories("clean.example.org", table) == []


def test_content_signals(en_stopwords):
    table, names = load_ut1(), _ut1_category_names()
    blocklist = compile_blocklist(load_language_wordlist("ldnoobw", "en"))
    cs = rows(content_signals(analyze(["nothing objectionable here"]), ["nsfw.example.com"],
                              [blocklist], table))[0]
    assert cs == {
        "rps_doc_ldnoobw_words": 0,
        "rps_doc_ut1_blacklist": [names.index("adult")],
    }


def test_group_keys_are_the_catalog_names(en_stopwords):
    shard = analyze(["A first line, with words.\nA second line"])
    blocklist = compile_blocklist(load_language_wordlist("ldnoobw", "en"))
    groups = {
        "natlang": doc_natlang_signals(shard, [en_stopwords]),
        "repetition": doc_repetition_signals(shard),
        "content": content_signals(shard, ["x.org"], [blocklist], load_ut1()),
        "lines": line_signals(shard),
        "code": code_signals(shard, ["pkg/module.py"]),
    }
    for group, values in groups.items():
        assert tuple(values) == SIGNAL_GROUPS[group], group


def test_line_signals_match_oracle(rng):
    for _ in range(200):
        text = random_text(rng, max_words=80)
        shard = analyze([text])
        assert line_signals(shard) == oracles.oracle_line_signals(text)
        # spans tile the document and match nlines
        assert len(shard.line_spans()[0]) == (len(text.split("\n")) if text else 0)


# "A\u0300" composes to one NFC character, so the second line starts one
# character earlier in the NFC text than in the raw text.
@given(tricky_text())
@example("A\u0300\n1")
@example("e\u0301e\u0301 x\n\n'9 -\n- j'")
def test_line_signals_match_oracle_on_generated_text(text):
    shard = analyze([text])
    assert line_signals(shard) == oracles.oracle_line_signals(text)
    # the spans tile the text, one per line
    spans = list(zip(*shard.line_spans()))
    assert "".join(text[start:end] for start, end in spans) == text
    assert [text[start:end].removesuffix("\n") for start, end in spans] == (
        text.split("\n") if text else []
    )


@given(tricky_text())
def test_repetition_signals_match_oracle_on_generated_text(text):
    got = repetition_rows([text])[0]
    assert got == oracles.oracle_repetition(text)


# a shard of short documents over three words, so that n-grams repeat
# within and across documents; a document may be empty or shorter than n
_SMALL_SHARD = st.lists(st.lists(st.sampled_from("abc"), max_size=14).map(" ".join),
                        max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_SMALL_SHARD, st.lists(tricky_text(), max_size=4)))
# A's tail and B's head would repeat A's first 5-gram if they joined
@example(["a b c d e f g h i j a b c", "d e f g h i j"])
@example(["", "x", "a b c d e", "a b c d e"])
# Only positions whose (n-1)-gram repeats are numbered at n: a repeated
# 4-gram whose fifth words differ, a 10-gram repeated inside one document,
# a document with no repeated word beside one where every word repeats,
# and an empty and a one-word document
@example(["a b c d e x a b c d f"])
@example(["k a b c d e f g h i j x a b c d e f g h i j y"])
@example(["p q r s t u v w", "a b c a b c a b c a b c"])
@example(["", "a"])
def test_shard_repetition_signals_match_oracle_per_document(texts):
    got = repetition_rows(texts)
    assert got == [oracles.oracle_repetition(text) for text in texts]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_SMALL_SHARD, st.lists(tricky_text(), max_size=4)))
def test_shard_natlang_signals_match_oracle_per_document(en_stopwords, texts):
    # the unigram entropy adds each document's terms in the order of its
    # words' first occurrences, which a shard numbers across documents
    got = rows(doc_natlang_signals(analyze(texts), [en_stopwords] * len(texts)))
    assert got == [oracles.oracle_natlang(text, en_stopwords) for text in texts]


def test_line_signals_specifics():
    ls = line_signals(analyze(['He said. ”\n• bullet item\nJavaScript and javascript:\n12a']))
    assert ls["rps_lines_ending_with_terminal_punctution_mark"] == [1, 0, 0, 0]
    assert ls["rps_lines_start_with_bulletpoint"] == [0, 1, 0, 0]
    assert ls["rps_lines_javascript_counts"] == [0, 0, 2, 0]
    assert ls["rps_lines_numerical_chars_fraction"][3] == 2 / 3


def test_code_signals():
    assert _code("pkg/module.py", "abc def\nxy") == {
        "rps_code_max_line_length": 7,
        "rps_code_avg_line_length": (7 + 2) / 2,
        "rps_code_alnum_prop": 8 / 10,
        "rps_code_alpha_token_ratio": 8 / 3,
        "rps_code_extension_ok": 1.0,
    }

    def extension_ok(path):
        return _code(path, "x")["rps_code_extension_ok"]

    assert extension_ok("Dockerfile") == 1.0
    assert extension_ok("deep/path/Makefile") == 1.0
    assert extension_ok("notes.txt") == 0.0
    assert extension_ok("noext") == 0.0
    # extension matching is case-sensitive: .C is whitelisted, .c also is
    assert extension_ok("a.C") == 1.0
    empty = _code("a.py", "")
    assert empty["rps_code_max_line_length"] == 0
    assert empty["rps_code_avg_line_length"] == 0.0


@pytest.mark.parametrize("n", [5, 7, 10])
def test_dupe_fraction_handles_short_docs(n):
    name = f"rps_doc_frac_chars_dupe_{n}grams"
    assert repetition_rows(["one two three"])[0][name] == 0.0
    assert repetition_rows([""])[0][name] == 0.0
