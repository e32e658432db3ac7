"""Signal-record assembly: selection, spans, metadata, and invariants."""

import pytest

from corpusforge.annotate import (
    DEFAULT_SIGNALS,
    SignalResources,
    compute_signals,
    resolve_signal_names,
)
from corpusforge.errors import ConfigError, DataError
from corpusforge.mlmodels import train_classifier, train_hashed_lm
from corpusforge.pipeline import PipelineConfig, load_resources
from corpusforge.records import document_id
from corpusforge.signal_catalog import SIGNAL_GROUPS

from conftest import make_doc
from oracles import signal_invariant_warnings


@pytest.fixture(scope="module")
def resources():
    return SignalResources.load_default(languages=("en",))


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
    record = compute_signals(make_doc("x = 1", url=url), resources,
                             resolve_signal_names(["code"]), doc_id="seg/0", ordinal=0)
    assert set(record.quality_signals) == set(SIGNAL_GROUPS["code"])
    assert record.quality_signals["rps_code_extension_ok"] == [(0, 5, extension_ok)]


def test_compute_signals_shapes(resources):
    text = "First line with several words here.\nSecond line also has words."
    doc = make_doc(text)
    record = compute_signals(doc, resources, resolve_signal_names(DEFAULT_SIGNALS),
                             doc_id=document_id(doc, 3), ordinal=3, snapshot_id="2023-14")
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


def test_compute_signals_emits_exactly_the_requested_names(resources):
    doc = make_doc("Some words.\nMore words on a line.")
    names = resolve_signal_names([g for g in SIGNAL_GROUPS if g != "ml"])
    record = compute_signals(doc, resources, names=names, doc_id="seg/0", ordinal=0)
    assert sorted(record.quality_signals) == sorted(names)


def test_compute_signals_subset(resources):
    doc = make_doc("just a few words")
    record = compute_signals(doc, resources, names=["rps_doc_word_count"],
                             doc_id="seg/0", ordinal=0)
    assert list(record.quality_signals) == ["rps_doc_word_count"]


def test_ccnet_signals_come_from_metadata(resources):
    doc = make_doc("text", bucket="middle", perplexity=123.0)
    record = compute_signals(doc, resources, resolve_signal_names(["ccnet"]),
                             doc_id="seg/0", ordinal=0)
    assert record.quality_signals["ccnet_bucket"][0][2] == 1.0
    assert record.quality_signals["ccnet_perplexity"][0][2] == 123.0
    assert record.quality_signals["ccnet_original_length"][0][2] == float(
        doc.original_length
    )


def test_ut1_blacklist_is_categorical(resources):
    doc = make_doc("text", source_domain="nsfw.example.com")
    names = resolve_signal_names(["content"])
    record = compute_signals(doc, resources, names, doc_id="seg/0", ordinal=0)
    triples = record.quality_signals["rps_doc_ut1_blacklist"]
    assert len(triples) == 1 and triples[0][2] == 0.0  # "adult" is category 0
    clean = compute_signals(make_doc("text"), resources, names, doc_id="seg/0", ordinal=0)
    assert clean.quality_signals["rps_doc_ut1_blacklist"] == []


def test_ml_signals_require_models(resources):
    # a requested ML signal without a model fails when the resources load
    with pytest.raises(ConfigError, match="no classifier model"):
        load_resources(PipelineConfig(signals=["rps_doc_ml_wikiref_score"]))

    doc = make_doc("some text")

    loaded = SignalResources.load_default(languages=("en",))
    loaded.classifiers["wikiref"] = train_classifier(
        [["good"]] * 4, [["bad"]] * 4, epochs=3, seed=0
    )
    loaded.importance_models["books"] = (
        train_hashed_lm([["novel", "story"]], buckets=256),
        train_hashed_lm([["web", "page"]], buckets=256),
    )
    record = compute_signals(
        doc,
        loaded,
        names=["rps_doc_ml_wikiref_score", "rps_doc_books_importance"],
        doc_id="seg/0",
        ordinal=0,
    )
    assert 0.0 <= record.quality_signals["rps_doc_ml_wikiref_score"][0][2] <= 1.0
    assert "rps_doc_books_importance" in record.quality_signals


def test_unknown_language_fails_fast(resources):
    # no word list loaded for the record's language: bad data, not config
    doc = make_doc("texto", language="es")
    with pytest.raises(DataError, match="stop-word"):
        compute_signals(doc, resources, resolve_signal_names(["natlang"]),
                        doc_id="seg/0", ordinal=0)
