"""Builds the full QualitySignalSet for a document from loaded
resources (stop words, blocklists, optional ML models)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .kneser_ney import KneserNeyLM, perplexity
from .mlmodels import HashedNgramLM, LinearClassifier, dsir_importance
from .records import CATEGORICAL_SIGNALS, Document, QualitySignalSet, document_id
from .signal_catalog import (
    CONTENT_SIGNALS,
    LINE_SIGNALS,
    NATLANG_SIGNALS,
    REPETITION_SIGNALS,
    SIGNAL_GROUPS,
)
from .signals import (
    Blocklist,
    content_signals,
    doc_natlang_signals,
    doc_repetition_signals,
    line_signals,
    load_ldnoobw,
    load_ut1,
)
from .textnorm import analyze, load_stopwords

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
    """Immutable shared lookups and models; safe for parallel readers."""

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
    def load_default(cls, languages=("en",), stopword_paths=None,
                     ldnoobw_dir=None, ut1_dir=None) -> "SignalResources":
        res = cls()
        for lang in languages:
            path = (stopword_paths or {}).get(lang)
            res.stopwords[lang] = load_stopwords(lang, path)
            res.ldnoobw[lang] = load_ldnoobw(lang, ldnoobw_dir)
        res.ut1, _ = load_ut1(ut1_dir)
        return res


# Every signal compute_signals can emit. The catalog also lists names
# that rules may reference but annotate never writes (rps_code_*).
_EMITTABLE = frozenset(n for group in SIGNAL_GROUPS.values() for n in group)


def resolve_signal_names(selection) -> list[str]:
    """Expand group names (natlang, repetition, content, lines, ccnet,
    ml) and validate individual names against the signals annotate
    emits."""
    names: list[str] = []
    for item in selection:
        if item in SIGNAL_GROUPS:
            names.extend(SIGNAL_GROUPS[item])
        elif item in _EMITTABLE:
            names.append(item)
        else:
            raise ConfigError(
                f"unknown signal {item!r}; known: "
                + ", ".join(sorted(_EMITTABLE | set(SIGNAL_GROUPS)))
            )
    seen = set()
    unique = []
    for n in names:
        if n not in seen:
            seen.add(n)
            unique.append(n)
    return unique


DEFAULT_SIGNALS = ("ccnet", "natlang", "repetition", "content", "lines")
_DEFAULT_NAMES = frozenset(resolve_signal_names(DEFAULT_SIGNALS))


def _for_language(table: dict, language: str, what: str):
    if language not in table:
        raise ConfigError(f"no {what} loaded for language {language!r}")
    return table[language]


def compute_signals(
    doc: Document,
    res: SignalResources,
    names=None,
    ordinal: int | None = None,
    snapshot_id: str = "",
) -> QualitySignalSet:
    """Signals of one document. `names` may hold group names; a caller
    that annotates many documents passes the resolve_signal_names
    result, so that only signal names remain and nothing is resolved
    per document. None means the default groups."""
    wanted = _DEFAULT_NAMES if names is None else frozenset(names)
    if not wanted <= _EMITTABLE:
        wanted = frozenset(resolve_signal_names(names))
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
        stop = _for_language(res.stopwords, doc.language, "stop-word list")
        values.update(doc_natlang_signals(doc, view, stop))
    if not wanted.isdisjoint(REPETITION_SIGNALS):
        values.update(doc_repetition_signals(view))
    if not wanted.isdisjoint(CONTENT_SIGNALS):
        blocklist = _for_language(res.ldnoobw, doc.language, "LDNOOBW blocklist")
        values.update(content_signals(doc, view, blocklist, res.ut1))
    if not wanted.isdisjoint(LINE_SIGNALS):
        values.update(line_signals(doc, view))
    for name, key in CLASSIFIER_SIGNALS.items():
        if name not in wanted:
            continue
        clf = res.classifiers.get(key)
        if clf is None:
            raise ConfigError(f"signal {name} requested but no model loaded")
        values[name] = clf.score_words(view.word_texts)
    for name, key in IMPORTANCE_SIGNALS.items():
        if name not in wanted:
            continue
        pair = res.importance_models.get(key)
        if pair is None:
            raise ConfigError(f"signal {name} requested but no model pair loaded")
        values[name] = dsir_importance(view.word_texts, pair[0], pair[1])

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

    doc_id, id_int = document_id(doc, ordinal)
    return QualitySignalSet(
        id=doc_id,
        id_int=id_int,
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
