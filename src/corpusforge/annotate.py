"""Builds the full QualitySignalSet for a document from loaded
resources (stop words, blocklists, optional ML models)."""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlsplit

from .errors import ConfigError, DataError
from .kneser_ney import KneserNeyLM, perplexity
from .mlmodels import HashedNgramLM, LinearClassifier, dsir_importance, fnv1a64_batch
from .records import Document, QualitySignalSet
from .signal_catalog import (
    ALL_SIGNALS,
    CATEGORICAL_SIGNALS,
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
    compile_blocklist,
    content_signals,
    doc_natlang_signals,
    doc_repetition_signals,
    line_signals,
    load_ut1,
)
from .textnorm import analyze, load_language_wordlist

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
    """Immutable lookups and models, loaded once; forked shard workers
    inherit them."""

    stopwords: dict[str, frozenset[str]] = field(default_factory=dict)
    ldnoobw: dict[str, Blocklist] = field(default_factory=dict)
    ut1: dict[str, set[int]] = field(default_factory=dict)
    classifiers: dict[str, LinearClassifier] = field(default_factory=dict)
    importance_models: dict[str, tuple[HashedNgramLM, HashedNgramLM]] = field(
        default_factory=dict
    )
    kn_lm: KneserNeyLM | None = None
    provenance: str = "corpusforge"

    @classmethod
    def load_default(cls, languages=("en",), stopword_dir=None,
                     ldnoobw_dir=None, ut1_dir=None) -> "SignalResources":
        """The word lists of `languages` and the UT1 table, each from its
        directory when one is given, else the vendored copy."""
        res = cls()
        for lang in languages:
            res.stopwords[lang] = load_language_wordlist("stopwords", lang, stopword_dir)
            res.ldnoobw[lang] = compile_blocklist(
                load_language_wordlist("ldnoobw", lang, ldnoobw_dir))
        res.ut1 = load_ut1(ut1_dir)
        return res


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


def _for_language(table: dict, doc: Document, doc_id: str, what: str):
    if doc.language not in table:  # a record's fault, not the config's
        raise DataError(
            f"document {doc_id}: no {what} loaded for its language {doc.language!r}")
    return table[doc.language]


def _url_path(url: str) -> str:
    """The path of a URL; "" when urlsplit rejects it (an unclosed IPv6
    bracket), so that no file name is known."""
    try:
        return urlsplit(url).path
    except ValueError:
        return ""


def compute_signals(
    doc: Document,
    res: SignalResources,
    names,
    *,
    doc_id: str,
    ordinal: int,
    snapshot_id: str = "",
) -> QualitySignalSet:
    """Signals of the document `doc_id` at position `ordinal` of its
    shard. `names` are signal names, as resolve_signal_names returns
    them. `res` holds a model for every requested ML signal
    (load_resources checks that at startup)."""
    wanted = frozenset(names)
    view = analyze(doc.raw_content)
    values: dict = {
        "ccnet_bucket": _BUCKET_CODES.get(doc.bucket, 2.0),
        "ccnet_language_score": doc.language_score,
        "ccnet_length": doc.length,
        "ccnet_nlines": doc.nlines,
        "ccnet_original_length": doc.original_length,
        "ccnet_original_nlines": doc.original_nlines,
        "ccnet_perplexity": (
            perplexity(view.word_texts, res.kn_lm)
            if res.kn_lm is not None and "ccnet_perplexity" in wanted
            else doc.perplexity
        ),
    }
    if not wanted.isdisjoint(NATLANG_SIGNALS):
        stop = _for_language(res.stopwords, doc, doc_id, "stop-word list")
        values.update(doc_natlang_signals(view, stop))
    if not wanted.isdisjoint(REPETITION_SIGNALS):
        values.update(doc_repetition_signals(view))
    if not wanted.isdisjoint(CONTENT_SIGNALS):
        blocklist = _for_language(res.ldnoobw, doc, doc_id, "LDNOOBW blocklist")
        values.update(content_signals(view, doc.source_domain, blocklist, res.ut1))
    if not wanted.isdisjoint(LINE_SIGNALS):
        values.update(line_signals(view))
    if not wanted.isdisjoint(CODE_SIGNALS):
        values.update(code_signals(_url_path(doc.url), view))
    # the classifiers and the importance models share the word hashes
    word_hashes = (
        fnv1a64_batch(view.word_texts) if not wanted.isdisjoint(ML_SIGNALS) else None
    )
    for name, key in CLASSIFIER_SIGNALS.items():
        if name in wanted:
            values[name] = res.classifiers[key].score_words(view.word_texts, word_hashes)
    for name, key in IMPORTANCE_SIGNALS.items():
        if name in wanted:
            target, source = res.importance_models[key]
            values[name] = dsir_importance(view.word_texts, target, source, word_hashes)

    length = len(doc.raw_content)
    signals: dict[str, list[tuple[int, int, float]]] = {}
    for name, value in values.items():
        if name not in wanted:
            continue
        if name in LINE_SIGNALS:
            signals[name] = [
                (start, end, float(v)) for (start, end), v in zip(view.lines, value)
            ]
        elif name in CATEGORICAL_SIGNALS:
            # one triple per category id, none when clean
            signals[name] = [(0, length, float(v)) for v in value]
        else:
            signals[name] = [(0, length, float(value))]

    return QualitySignalSet(
        id=doc_id,
        id_int=ordinal,
        metadata={
            "cc_segment": doc.cc_segment,
            "cc_net_source": res.provenance,
            "url": doc.url,
            "source_domain": doc.source_domain,
            "language": doc.language,
            "snapshot_id": snapshot_id,
        },
        quality_signals=signals,
    )
