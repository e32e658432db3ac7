"""Signal-record assembly: selection, spans, metadata, and invariants."""

import math

import pytest

from corpusforge.annotate import (
    DEFAULT_SIGNALS,
    annotate_shard,
    load_resources,
    resolve_signal_names,
)
from corpusforge.errors import ConfigError, DataError
from corpusforge.kneser_ney import train_kn_lm
from corpusforge.mlmodels import train_classifier, train_hashed_lm
from corpusforge.pipeline import PipelineConfig
from corpusforge.records import document_id
from corpusforge.signal_catalog import CLASSIFIER_SIGNALS, IMPORTANCE_SIGNALS, SIGNAL_GROUPS

from conftest import make_doc, signal_records
from oracles import signal_invariant_warnings


@pytest.fixture(scope="module")
def resources():
    return load_resources(PipelineConfig(), resolve_signal_names(DEFAULT_SIGNALS))


def _signals_of(doc, res, names, doc_id):
    """The signals of `doc` as the only document of its shard."""
    return signal_records(annotate_shard([doc], [doc_id], res, names))[0]


def test_resolve_signal_names_expands_groups():
    names = resolve_signal_names(["natlang"])
    assert names == list(SIGNAL_GROUPS["natlang"])
    # duplicates collapse, order is first-mention
    names = resolve_signal_names(["rps_doc_word_count", "natlang"])
    assert names[0] == "rps_doc_word_count"
    assert names.count("rps_doc_word_count") == 1
    with pytest.raises(ConfigError, match="unknown signal"):
        resolve_signal_names(["rps_doc_bogus"])


@pytest.mark.parametrize("url, extension_ok", [
    ("https://example.org/src/app.py?raw=1#L2", 1.0),
    ("https://example.org/Makefile", 1.0),
    ("https://example.org/notes.txt", 0.0),
    ("https://example.py/", 0.0),  # the host is not a file name
    ("http://[::1/app.py", 0.0),  # urlsplit rejects it: no file name
])
def test_code_signals_read_the_url_path(resources, url, extension_ok):
    record = _signals_of(make_doc("x = 1", url=url), resources,
                         resolve_signal_names(["code"]), doc_id="seg/0")
    assert set(record.quality_signals) == set(SIGNAL_GROUPS["code"])
    assert record.quality_signals["rps_code_extension_ok"] == [(0, 5, extension_ok)]


def test_compute_signals_shapes(resources):
    text = "First line with several words here.\nSecond line also has words."
    doc = make_doc(text)
    docs = [make_doc("other")] * 3 + [doc]  # doc is the shard's fourth
    ids = [document_id(d, i) for i, d in enumerate(docs)]
    *_, record = signal_records(annotate_shard(
        docs, ids, resources, resolve_signal_names(DEFAULT_SIGNALS), "2023-14"))
    assert record.id == f"{doc.cc_segment}/3" and record.id_int == 3
    assert record.metadata["snapshot_id"] == "2023-14"
    assert record.metadata["language"] == "en"
    assert signal_invariant_warnings(record, doc_length=len(text)) == []
    # document-level signals span the whole document
    start, end, score = record.quality_signals["rps_doc_word_count"][0]
    assert (start, end) == (0, len(text)) and score == 11.0
    # line signals carry one triple per line
    assert len(record.quality_signals["rps_lines_num_words"]) == 2
    # default selection covers all non-ML groups
    for group in DEFAULT_SIGNALS:
        for name in SIGNAL_GROUPS[group]:
            assert name in record.quality_signals


def test_one_shard_or_three_give_the_same_signals():
    texts = [
        "the cat sat on the mat and the cat sat on the mat",
        "",
        "on the mat and the cat sat on the mat again",
        "short",  # one word: no bigram, and out of every vocabulary
        "A line that repeats.\nA line that repeats.\nA line that repeats.",
        "the cat sat on the mat and the cat sat on the mat",
        "on the",  # shorter than the Kneser-Ney order
        "zebra quokka zebra",  # out of every vocabulary
    ]
    docs = [make_doc(text) for text in texts]
    ids = [f"seg/{i}" for i in range(len(docs))]
    res = load_resources(PipelineConfig(), resolve_signal_names(DEFAULT_SIGNALS))
    reference = [text.lower().split() for text in texts[::2] if text]
    web = [["click", "here", "the", "cat"], ["buy", "now", "on", "sale"]]
    res.kn_lm = train_kn_lm(reference, order=3)
    res.classifiers = dict.fromkeys(CLASSIFIER_SIGNALS.values(),
                                    train_classifier(reference, web, epochs=3, dim=64))
    res.importance_models = dict.fromkeys(
        IMPORTANCE_SIGNALS.values(),
        (train_hashed_lm(reference, buckets=64), train_hashed_lm(web, buckets=64)))
    names = resolve_signal_names([*DEFAULT_SIGNALS, "ml"])
    whole = [r.quality_signals for r in signal_records(annotate_shard(docs, ids, res, names))]
    parts = [slice(0, 2), slice(2, 3), slice(3, None)]
    split = [r.quality_signals for part in parts
             for r in signal_records(annotate_shard(docs[part], ids[part], res, names))]
    assert split == whole
    assert whole[0]["rps_doc_frac_chars_dupe_5grams"][0][2] > 0.0
    empty = whole[1]
    assert empty["ccnet_perplexity"] == [(0, 0, math.inf)]
    for name in IMPORTANCE_SIGNALS:
        assert empty[name] == [(0, 0, 0.0)]
    for row in whole[2:]:
        assert 0.0 < row["ccnet_perplexity"][0][2] < math.inf


def test_compute_signals_emits_exactly_the_requested_names(resources):
    doc = make_doc("Some words.\nMore words on a line.")
    names = resolve_signal_names([g for g in SIGNAL_GROUPS if g != "ml"])
    record = _signals_of(doc, resources, names=names, doc_id="seg/0")
    assert sorted(record.quality_signals) == sorted(names)


def test_compute_signals_subset(resources):
    doc = make_doc("just a few words")
    record = _signals_of(doc, resources, names=["rps_doc_word_count"], doc_id="seg/0")
    assert list(record.quality_signals) == ["rps_doc_word_count"]


def test_ccnet_signals_come_from_metadata(resources):
    doc = make_doc("text", bucket="middle", perplexity=123.0)
    record = _signals_of(doc, resources, resolve_signal_names(["ccnet"]), doc_id="seg/0")
    assert record.quality_signals["ccnet_bucket"][0][2] == 1.0
    assert record.quality_signals["ccnet_perplexity"][0][2] == 123.0
    assert record.quality_signals["ccnet_original_length"][0][2] == float(
        doc.original_length
    )


def test_ut1_blacklist_is_categorical(resources):
    doc = make_doc("text", source_domain="nsfw.example.com")
    names = resolve_signal_names(["content"])
    record = _signals_of(doc, resources, names, doc_id="seg/0")
    triples = record.quality_signals["rps_doc_ut1_blacklist"]
    assert len(triples) == 1 and triples[0][2] == 0.0  # "adult" is category 0
    clean = _signals_of(make_doc("text"), resources, names, doc_id="seg/0")
    assert clean.quality_signals["rps_doc_ut1_blacklist"] == []


def test_ml_signals_require_models(resources):
    # a requested ML signal without a model fails when the resources load
    with pytest.raises(ConfigError, match="no classifier model"):
        load_resources(PipelineConfig(), ["rps_doc_ml_wikiref_score"])

    doc = make_doc("some text")

    loaded = load_resources(PipelineConfig(), resolve_signal_names(DEFAULT_SIGNALS))
    loaded.classifiers["wikiref"] = train_classifier(
        [["good"]] * 4, [["bad"]] * 4, epochs=3, seed=0
    )
    loaded.importance_models["books"] = (
        train_hashed_lm([["novel", "story"]], buckets=256),
        train_hashed_lm([["web", "page"]], buckets=256),
    )
    record = _signals_of(
        doc,
        loaded,
        names=["rps_doc_ml_wikiref_score", "rps_doc_books_importance"],
        doc_id="seg/0",
    )
    assert 0.0 <= record.quality_signals["rps_doc_ml_wikiref_score"][0][2] <= 1.0
    assert "rps_doc_books_importance" in record.quality_signals


def test_unknown_language_fails_fast(resources):
    # no word list loaded for the record's language: bad data, not config
    doc = make_doc("texto", language="es")
    with pytest.raises(DataError, match="stop-word"):
        _signals_of(doc, resources, resolve_signal_names(["natlang"]), doc_id="seg/0")


# the lines a json.dumps per record wrote, before annotate wrote records
# from columns
_NAN_PERPLEXITY_LINE = (
    '{"id":"seg/0","id_int":0,"metadata":{"cc_net_source":"corpusforge",'
    '"cc_segment":"crawl-data/CC/segments/0/wet/0.warc.wet.gz","language":"en",'
    '"snapshot_id":"2023-14","source_domain":"nsfw.example.com",'
    '"url":"http://example.com/page"},"quality_signals":{"ccnet_bucket":[[0,13,0.0]],'
    '"ccnet_language_score":[[0,13,0.98]],"ccnet_length":[[0,13,13.0]],'
    '"ccnet_nlines":[[0,13,2.0]],"ccnet_original_length":[[0,13,13.0]],'
    '"ccnet_original_nlines":[[0,13,2.0]],"ccnet_perplexity":[[0,13,NaN]],'
    '"rps_doc_ut1_blacklist":[[0,13,0.0]],"rps_lines_num_words":[[0,10,2.0],[10,13,1.0]]}}')
_EMPTY_UNDER_KN_LINE = (
    '{"id":"seg/1","id_int":0,"metadata":{"cc_net_source":"corpusforge",'
    '"cc_segment":"crawl-data/CC/segments/0/wet/0.warc.wet.gz","language":"en",'
    '"snapshot_id":"2023-14","source_domain":"example.com",'
    '"url":"http://example.com/page"},"quality_signals":{"ccnet_bucket":[[0,0,0.0]],'
    '"ccnet_language_score":[[0,0,0.98]],"ccnet_length":[[0,0,0.0]],'
    '"ccnet_nlines":[[0,0,0.0]],"ccnet_original_length":[[0,0,0.0]],'
    '"ccnet_original_nlines":[[0,0,0.0]],"ccnet_perplexity":[[0,0,Infinity]],'
    '"rps_doc_ut1_blacklist":[],"rps_lines_num_words":[]}}')


def test_non_finite_scores_keep_their_bytes():
    res = load_resources(PipelineConfig(), resolve_signal_names(DEFAULT_SIGNALS))
    names = resolve_signal_names(["ccnet", "rps_lines_num_words", "rps_doc_ut1_blacklist"])
    nan_doc = make_doc("One line.\nTwo", perplexity=math.nan,
                       source_domain="nsfw.example.com")
    assert annotate_shard([nan_doc], ["seg/0"], res, names, "2023-14") == [
        _NAN_PERPLEXITY_LINE]
    # Kneser-Ney perplexity is inf for a document without words
    res.kn_lm = train_kn_lm([["one", "line"], ["two"]], order=2)
    assert annotate_shard([make_doc("")], ["seg/1"], res, names, "2023-14") == [
        _EMPTY_UNDER_KN_LINE]
