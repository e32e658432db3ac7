"""Builds the full QualitySignalSet for a document from loaded
resources (stop words, blocklists, optional ML models)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .kneser_ney import KneserNeyLM, perplexity
from .mlmodels import HashedNgramLM, LinearClassifier, dsir_importance
from .records import Document, QualitySignalSet, document_id
from .signal_catalog import (
    CCNET_SIGNALS,
    LINE_SIGNALS,
    ML_SIGNALS,
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
    ut1_categories: list[str] = field(default_factory=list)
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
        res.ut1, res.ut1_categories = load_ut1(ut1_dir)
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
    length = len(doc.raw_content)
    signals: dict[str, list[tuple[int, int, float]]] = {}

    def doc_signal(name, score):
        signals[name] = [(0, length, float(score))]

    ccnet_values = {
        "ccnet_bucket": _BUCKET_CODES.get(doc.bucket, 2.0),
        "ccnet_language_score": doc.language_score,
        "ccnet_length": float(doc.length),
        "ccnet_nlines": float(doc.nlines),
        "ccnet_original_length": float(doc.original_length),
        "ccnet_original_nlines": float(doc.original_nlines),
        "ccnet_perplexity": doc.perplexity,
    }
    for name in CCNET_SIGNALS:
        if name in wanted:
            if name == "ccnet_perplexity" and res.kn_lm is not None:
                doc_signal(name, perplexity(view.word_texts, res.kn_lm))
            else:
                doc_signal(name, ccnet_values[name])

    if not wanted.isdisjoint(SIGNAL_GROUPS["natlang"]):
        stop = res.stopwords.get(doc.language)
        if stop is None:
            raise ConfigError(
                f"no stop-word list loaded for language {doc.language!r}"
            )
        nl = doc_natlang_signals(doc, view, stop)
        for name in SIGNAL_GROUPS["natlang"]:
            if name in wanted:
                doc_signal(name, getattr(nl, name))

    if not wanted.isdisjoint(SIGNAL_GROUPS["repetition"]):
        rep = doc_repetition_signals(view)
        for name in SIGNAL_GROUPS["repetition"]:
            if name in wanted:
                doc_signal(name, getattr(rep, name))

    if not wanted.isdisjoint(SIGNAL_GROUPS["content"]):
        blocklist = res.ldnoobw.get(doc.language)
        if blocklist is None:
            raise ConfigError(
                f"no LDNOOBW blocklist loaded for language {doc.language!r}"
            )
        cs = content_signals(doc, view, blocklist, res.ut1)
        if "rps_doc_ldnoobw_words" in wanted:
            doc_signal("rps_doc_ldnoobw_words", cs.rps_doc_ldnoobw_words)
        if "rps_doc_ut1_blacklist" in wanted:
            # categorical: one triple per category id, empty when clean
            signals["rps_doc_ut1_blacklist"] = [
                (0, length, float(cid)) for cid in cs.rps_doc_ut1_blacklist
            ]

    if not wanted.isdisjoint(LINE_SIGNALS):
        ls = line_signals(doc, view)
        per_line = {
            "rps_lines_ending_with_terminal_punctution_mark":
                ls.ending_with_terminal_punctution_mark,
            "rps_lines_javascript_counts": ls.javascript_counts,
            "rps_lines_num_words": ls.num_words,
            "rps_lines_numerical_chars_fraction": ls.numerical_chars_fraction,
            "rps_lines_start_with_bulletpoint": ls.start_with_bulletpoint,
            "rps_lines_uppercase_letter_fraction": ls.uppercase_letter_fraction,
        }
        for name, values in per_line.items():
            if name in wanted:
                signals[name] = [
                    (start, end, float(v))
                    for (start, end), v in zip(ls.spans, values)
                ]

    for name in ML_SIGNALS:
        if name not in wanted:
            continue
        if name in CLASSIFIER_SIGNALS:
            clf = res.classifiers.get(CLASSIFIER_SIGNALS[name])
            if clf is None:
                raise ConfigError(f"signal {name} requested but no model loaded")
            doc_signal(name, clf.score_words(view.word_texts))
        else:
            pair = res.importance_models.get(IMPORTANCE_SIGNALS[name])
            if pair is None:
                raise ConfigError(f"signal {name} requested but no model pair loaded")
            doc_signal(name, dsir_importance(view.word_texts, pair[0], pair[1]))

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
