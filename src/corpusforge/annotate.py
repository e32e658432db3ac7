"""Builds the signal records of a shard's documents from loaded
resources (stop words, blocklists, optional ML models).

annotate_shard alone chooses the signal groups. A shard's documents are
analyzed once into a textnorm.ShardText, whose normalized words are
numbered once, and every group reads the whole shard at once and
returns one column per signal: natlang, repetition, content, lines and
code (see signals), the ML scores (each distinct word FNV-hashed once,
mlmodels.hash_words) and the Kneser-Ney perplexity (each distinct word
mapped to its model id once, one climb for the shard).
records.signal_lines writes the sidecar lines straight from those
columns, so no per-document record is built."""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlsplit

from .errors import ConfigError, DataError
from .kneser_ney import KneserNeyLM, perplexity
from .mlmodels import HashedNgramLM, LinearClassifier, dsir_importance, hash_words
from .records import signal_lines
from .signal_catalog import (
    ALL_SIGNALS,
    CCNET_SIGNALS,
    CODE_SIGNALS,
    CONTENT_SIGNALS,
    LINE_SIGNALS,
    ML_SIGNALS,
    NATLANG_SIGNALS,
    REPETITION_SIGNALS,
    SIGNAL_GROUPS,
)
from .signals import (
    Blocklist,
    code_signals,
    content_signals,
    doc_natlang_signals,
    doc_repetition_signals,
    line_signals,
)
from .textnorm import NumberedWords, analyze

_BUCKET_CODES = {"head": 0.0, "middle": 1.0, "tail": 2.0}

# Importance-weight signal name -> model pair key
IMPORTANCE_SIGNALS = {
    "rps_doc_books_importance": "books",
    "rps_doc_openwebtext_importance": "openwebtext",
    "rps_doc_wikipedia_importance": "wikipedia",
}

CLASSIFIER_SIGNALS = {
    "rps_doc_ml_wikiref_score": "wikiref",
    "rps_doc_ml_palm_score": "palm",
    "rps_doc_ml_wikipedia_score": "wikipedia",
}


@dataclass
class SignalResources:
    """Immutable lookups and models, loaded once by
    pipeline.load_resources; forked shard workers inherit them."""

    stopwords: dict[str, frozenset[str]] = field(default_factory=dict)
    ldnoobw: dict[str, Blocklist] = field(default_factory=dict)
    ut1: dict[str, set[int]] = field(default_factory=dict)
    classifiers: dict[str, LinearClassifier] = field(default_factory=dict)
    importance_models: dict[str, tuple[HashedNgramLM, HashedNgramLM]] = field(
        default_factory=dict
    )
    kn_lm: KneserNeyLM | None = None
    provenance: str = "corpusforge"


def resolve_signal_names(selection) -> list[str]:
    """Expand group names (see SIGNAL_GROUPS) and validate individual
    names against the catalog."""
    names: list[str] = []
    for item in selection:
        if item in SIGNAL_GROUPS:
            names.extend(SIGNAL_GROUPS[item])
        elif item in ALL_SIGNALS:
            names.append(item)
        else:
            raise ConfigError(
                f"unknown signal {item!r}; known: "
                + ", ".join(sorted(ALL_SIGNALS | set(SIGNAL_GROUPS)))
            )
    return list(dict.fromkeys(names))  # first mention wins


DEFAULT_SIGNALS = ("ccnet", "natlang", "repetition", "content", "lines")


def _by_language(table: dict, docs, ids, what: str) -> list:
    """table's entry for the language of each of a shard's documents; a
    DataError names the first document whose language has none loaded."""
    for doc, doc_id in zip(docs, ids):
        if doc.language not in table:  # a record's fault, not the config's
            raise DataError(
                f"document {doc_id}: no {what} loaded for its language {doc.language!r}")
    return [table[doc.language] for doc in docs]


def _url_path(url: str) -> str:
    """The path of a URL; "" when urlsplit rejects it (an unclosed IPv6
    bracket), so that no file name is known."""
    try:
        return urlsplit(url).path
    except ValueError:
        return ""


def annotate_shard(docs, ids, res: SignalResources, names, snapshot_id: str = "") -> list[str]:
    """The signal record lines of a shard's documents, in order, where
    `ids` are their document ids and `names` are signal names, as
    resolve_signal_names returns them (see the module docstring). `res`
    holds a model for every requested ML signal (load_resources checks
    that at startup)."""
    wanted = frozenset(names)
    shard = analyze([doc.raw_content for doc in docs])
    # each ccnet_<field> signal is the document's <field>, a bucket as its code
    columns = {name: [getattr(doc, name[len("ccnet_"):]) for doc in docs]
               for name in CCNET_SIGNALS}
    columns["ccnet_bucket"] = [_BUCKET_CODES.get(b, 2.0) for b in columns["ccnet_bucket"]]
    if not wanted.isdisjoint(NATLANG_SIGNALS):
        stopwords = _by_language(res.stopwords, docs, ids, "stop-word list")
        columns.update(doc_natlang_signals(shard, stopwords))
    if not wanted.isdisjoint(REPETITION_SIGNALS):
        columns.update(doc_repetition_signals(shard))
    columns.update(_model_columns(shard.words, res, wanted))
    if not wanted.isdisjoint(CONTENT_SIGNALS):
        blocklists = _by_language(res.ldnoobw, docs, ids, "LDNOOBW blocklist")
        columns.update(content_signals(shard, [doc.source_domain for doc in docs],
                                       blocklists, res.ut1))
    if not wanted.isdisjoint(LINE_SIGNALS):
        columns.update(line_signals(shard))
    if not wanted.isdisjoint(CODE_SIGNALS):
        columns.update(code_signals(shard, [_url_path(doc.url) for doc in docs]))
    metadata = {key: [getattr(doc, key) for doc in docs]
                for key in ("cc_segment", "url", "source_domain", "language")}
    metadata.update(cc_net_source=[res.provenance] * len(docs),
                    snapshot_id=[snapshot_id] * len(docs))
    return signal_lines(ids, metadata, list(map(len, shard.texts)),
                        (shard.line_counts.tolist(), *shard.line_spans()),
                        {name: column for name, column in columns.items() if name in wanted})


def _model_columns(words: NumberedWords, res: SignalResources, wanted) -> dict[str, list[float]]:
    """The wanted model signals of each document of a shard whose words
    are `words`: ccnet_perplexity when a Kneser-Ney model is loaded, and
    the classifier and importance scores."""
    columns = {}
    if res.kn_lm is not None and "ccnet_perplexity" in wanted:
        columns["ccnet_perplexity"] = perplexity(words, res.kn_lm)
    if not wanted.isdisjoint(ML_SIGNALS):
        hashed = hash_words(words)
        for name, key in CLASSIFIER_SIGNALS.items():
            if name in wanted:
                columns[name] = res.classifiers[key].score_words(hashed)
        for name, key in IMPORTANCE_SIGNALS.items():
            if name in wanted:
                target, source = res.importance_models[key]
                columns[name] = dsir_importance(hashed, target, source)
    return columns
