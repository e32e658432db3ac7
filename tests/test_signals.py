"""Rule-based quality signals against the brute-force references, plus
targeted edge cases for blocklists, line signals, and code heuristics."""

import pytest
from hypothesis import example, given

import oracles

from corpusforge.signals import (
    code_quality_metrics,
    compile_blocklist,
    content_signals,
    count_blocklist_phrases,
    doc_natlang_signals,
    doc_repetition_signals,
    line_signals,
    load_ldnoobw,
    load_ut1,
    ut1_categories,
)
from corpusforge.signal_catalog import SIGNAL_GROUPS
from corpusforge.textnorm import analyze

from conftest import make_doc, random_text, tricky_text


def test_natlang_signals_match_oracle(rng, en_stopwords):
    for _ in range(200):
        text = random_text(rng, max_words=120)
        doc = make_doc(text)
        got = doc_natlang_signals(doc, analyze(text), en_stopwords)
        expected = oracles.oracle_natlang(text, en_stopwords)
        assert got == expected, text


def test_natlang_empty_document(en_stopwords):
    doc = make_doc("")
    values = doc_natlang_signals(doc, analyze(""), en_stopwords)
    assert all(v == 0.0 for v in values.values())


def test_symbol_counting_is_left_to_right():
    # "...." = one "..." match then a lone dot; "……" = two ellipsis chars
    doc = make_doc("word .... more ……")
    view = analyze(doc.raw_content)
    sig = doc_natlang_signals(doc, view, frozenset())
    assert sig["rps_doc_symbol_to_word_ratio"] == 3 / 2


def test_all_caps_requires_alpha_only():
    doc = make_doc("NASA C3PO A HTTP2 OK!")
    view = analyze(doc.raw_content)
    sig = doc_natlang_signals(doc, view, frozenset())
    # raw whitespace words: NASA, C3PO, A, HTTP2, OK! -> caps: NASA, A
    assert sig["rps_doc_frac_all_caps_words"] == 2 / 5


def test_repetition_signals_match_oracle(rng):
    for _ in range(200):
        text = random_text(rng, max_words=120)
        view = analyze(text)
        got = doc_repetition_signals(view)
        assert got == oracles.oracle_repetition(text), text


def test_dupe_ngrams_counts_characters_once():
    # "a b c d e" twice: both occurrences of the repeated 5-gram are
    # covered (18 of 19 chars; the separating space is outside both)
    view = analyze("a b c d e a b c d e")
    assert doc_repetition_signals(view)["rps_doc_frac_chars_dupe_5grams"] == 18 / 19
    # no repeated 5-gram in distinct words
    distinct = analyze("a b c d e f g h i j")
    assert doc_repetition_signals(distinct)["rps_doc_frac_chars_dupe_5grams"] == 0.0


def test_top_ngram_tie_breaks_to_longer_gram():
    # "aa bb" and "c d" both occur twice; the longer one is attributed
    view = analyze("aa bb x c d y aa bb z c d")
    got = doc_repetition_signals(view)["rps_doc_frac_chars_top_2gram"]
    assert got == 2 * len("aa bb") / len(view.normalized)


def test_top_ngram_clamps_to_one():
    # "x x" occurs 5 times overlapping; 5 * 3 chars > 11 total, so clamp
    view = analyze("x x x x x x")
    assert doc_repetition_signals(view)["rps_doc_frac_chars_top_2gram"] == 1.0


def test_blocklist_phrase_matching(en_stopwords):
    phrases = frozenset({"bad", "very bad", "very bad thing"})
    words = "a very bad thing and a bad one plus very bad stuff".split()
    # longest-match: "very bad thing", then "bad", then "very bad"
    assert count_blocklist_phrases(words, compile_blocklist(phrases)) == 3
    assert count_blocklist_phrases(words, compile_blocklist(frozenset())) == 0
    assert oracles.oracle_blocklist_count(words, phrases) == 3


def test_vendored_blocklists_load():
    for lang in ("en", "de", "fr", "es", "it"):
        assert load_ldnoobw(lang)
    table, names = load_ut1()
    assert names == sorted(names) and len(names) >= 2
    assert ut1_categories("nsfw.example.com", table) == [names.index("adult")]
    # subdomain inherits the parent domain's categories
    assert ut1_categories("x.y.nsfw.example.com", table) == [names.index("adult")]
    assert ut1_categories("clean.example.org", table) == []


def test_content_signals(en_stopwords):
    table, names = load_ut1()
    blocklist = load_ldnoobw("en")
    doc = make_doc("nothing objectionable here", source_domain="nsfw.example.com")
    cs = content_signals(doc, analyze(doc.raw_content), blocklist, table)
    assert cs == {
        "rps_doc_ldnoobw_words": 0,
        "rps_doc_ut1_blacklist": [names.index("adult")],
    }


def test_group_keys_are_the_catalog_names(en_stopwords):
    doc = make_doc("A first line, with words.\nA second line", source_domain="x.org")
    view = analyze(doc.raw_content)
    groups = {
        "natlang": doc_natlang_signals(doc, view, en_stopwords),
        "repetition": doc_repetition_signals(view),
        "content": content_signals(doc, view, load_ldnoobw("en"), load_ut1()[0]),
        "lines": line_signals(doc, view),
    }
    for group, values in groups.items():
        assert tuple(values) == SIGNAL_GROUPS[group], group


def test_line_signals_match_oracle(rng):
    for _ in range(200):
        text = random_text(rng, max_words=80)
        doc = make_doc(text)
        view = analyze(text)
        assert line_signals(doc, view) == oracles.oracle_line_signals(text)
        # spans tile the document and match nlines
        assert len(view.lines) == (len(text.split("\n")) if text else 0)


# "A\u0300" composes to one NFC character, so the second line starts one
# character earlier in the NFC text than in the raw text.
@given(tricky_text())
@example("A\u0300\n1")
@example("e\u0301e\u0301 x\n\n'9 -\n- j'")
def test_line_signals_match_oracle_on_generated_text(text):
    view = analyze(text)
    assert line_signals(make_doc(text), view) == oracles.oracle_line_signals(text)
    # the spans tile the text, one per line
    assert "".join(text[start:end] for start, end in view.lines) == text
    assert [text[start:end].removesuffix("\n") for start, end in view.lines] == (
        text.split("\n") if text else []
    )


@given(tricky_text())
def test_repetition_signals_match_oracle_on_generated_text(text):
    got = doc_repetition_signals(analyze(text))
    assert got == oracles.oracle_repetition(text)


def test_line_signals_specifics():
    doc = make_doc('He said. ”\n• bullet item\nJavaScript and javascript:\n12a')
    ls = line_signals(doc, analyze(doc.raw_content))
    assert ls["rps_lines_ending_with_terminal_punctution_mark"] == [1, 0, 0, 0]
    assert ls["rps_lines_start_with_bulletpoint"] == [0, 1, 0, 0]
    assert ls["rps_lines_javascript_counts"] == [0, 0, 2, 0]
    assert ls["rps_lines_numerical_chars_fraction"][3] == 2 / 3


def test_code_quality_metrics():
    m = code_quality_metrics("pkg/module.py", "abc def\nxy")
    assert m.max_line_length == 7
    assert m.avg_line_length == (7 + 2) / 2
    assert m.alnum_prop == 8 / 10
    assert m.alpha_token_ratio == 8 / 3
    assert m.extension_ok

    assert code_quality_metrics("Dockerfile", "FROM x").extension_ok
    assert code_quality_metrics("deep/path/Makefile", "all:").extension_ok
    assert not code_quality_metrics("notes.txt", "hi").extension_ok
    assert not code_quality_metrics("noext", "hi").extension_ok
    # extension matching is case-sensitive: .C is whitelisted, .c also is
    assert code_quality_metrics("a.C", "x").extension_ok
    empty = code_quality_metrics("a.py", "")
    assert empty.max_line_length == 0 and empty.avg_line_length == 0.0


@pytest.mark.parametrize("n", [5, 7, 10])
def test_dupe_fraction_handles_short_docs(n):
    name = f"rps_doc_frac_chars_dupe_{n}grams"
    assert doc_repetition_signals(analyze("one two three"))[name] == 0.0
    assert doc_repetition_signals(analyze(""))[name] == 0.0
