"""Declarative rule engine over signal names.

A ruleset is a conjunction of drop rules: a document survives only if no
document-level rule fires; line-level rules drop individual lines and
trigger a rewrite. Rule configurations are JSON; the presets shipped
under data/presets/ cover the C4, Gopher, custom-rules, and code
heuristics configurations. evaluate_shard decides the documents of a
shard one at a time, each from its signal record as the record is read.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable

from .errors import ConfigError, DataError
from .records import Document, rewrite_document
from .signal_catalog import ALL_SIGNALS, LINE_SIGNALS

_PRESET_DIR = resources.files("corpusforge") / "data" / "presets"
PRESET_NAMES = tuple(sorted(
    ref.name[: -len(".json")] for ref in _PRESET_DIR.iterdir()
    if ref.name.endswith(".json")
))

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "in": lambda v, t: v in t,
}


@dataclass(frozen=True)
class Rule:
    signal: str
    op: str
    threshold: object
    reason: str


@dataclass
class Ruleset:
    name: str
    doc_rules: list[Rule] = field(default_factory=list)
    line_rules: list[Rule] = field(default_factory=list)


@dataclass
class Decision:
    verdict: str  # keep | drop | rewrite
    fired_rules: list[tuple[str, float]] = field(default_factory=list)
    rewritten: Document | None = None


KEEP = Decision(verdict="keep")
DUPLICATE = Decision(verdict="drop", fired_rules=[("duplicate", 1.0)])


def _make_rule(signal: str, op: str, threshold, reason: str | None) -> Rule:
    if signal not in ALL_SIGNALS:
        raise ConfigError(
            f"unknown signal {signal!r}; known signals: "
            + ", ".join(sorted(ALL_SIGNALS))
        )
    if op not in _OPS:
        raise ConfigError(f"unknown comparator {op!r}; use one of {sorted(_OPS)}")
    if op == "in":
        if not isinstance(threshold, (list, tuple, set)):
            raise ConfigError(f"'in' threshold for {signal} must be a list")
        threshold = tuple(threshold)
    elif not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
        raise ConfigError(
            f"threshold for {signal} must be numeric, got {threshold!r}"
        )
    return Rule(
        signal=signal,
        op=op,
        threshold=threshold,
        reason=reason or f"{signal}{op}{threshold}",
    )


def _entry_rule(entry) -> Rule:
    if not (isinstance(entry, dict) and {"signal", "op", "value"} <= entry.keys()):
        raise ConfigError(f"rule entry {entry!r} needs signal, op and value")
    if not (isinstance(entry["signal"], str) and isinstance(entry["op"], str)):
        raise ConfigError(f"rule entry {entry!r}: signal and op must be strings")
    if not isinstance(entry.get("reason"), (str, type(None))):
        raise ConfigError(f"rule entry {entry!r}: reason must be a string or null")
    return _make_rule(entry["signal"], entry["op"], entry["value"],
                      entry.get("reason"))


def compile_ruleset(config: dict, name: str = "custom") -> Ruleset:
    """Compile a declarative rule document. Two accepted shapes:

    {"name": ..., "doc_rules": [{"signal":..., "op":..., "value":...,
     "reason":...}], "line_rules": [...]}

    or the shorthand mapping {"<signal>": {"<op>": <threshold>, ...}}
    which compiles to document rules (line rules for rps_lines_*)."""
    rs = Ruleset(name=config.get("name", name))
    if "doc_rules" in config or "line_rules" in config:
        for key in ("doc_rules", "line_rules"):
            if not isinstance(config.get(key, []), list):
                raise ConfigError(f"{key} must be a list of rule entries")
        for entry in config.get("doc_rules", []):
            rs.doc_rules.append(_entry_rule(entry))
        for entry in config.get("line_rules", []):
            rule = _entry_rule(entry)
            if rule.signal not in LINE_SIGNALS:
                raise ConfigError(
                    f"line rule on document-level signal {rule.signal!r}"
                )
            rs.line_rules.append(rule)
    else:
        for signal, spec in config.items():
            if signal == "name":
                continue
            if not isinstance(spec, dict):
                raise ConfigError(
                    f"rule spec for {signal!r} must be an object of comparators"
                )
            for op, threshold in spec.items():
                rule = _make_rule(signal, op, threshold, None)
                if signal in LINE_SIGNALS:
                    rs.line_rules.append(rule)
                else:
                    rs.doc_rules.append(rule)
    if not rs.doc_rules and not rs.line_rules:
        print(f"warning: ruleset {rs.name!r} is empty", file=sys.stderr)
    return rs


def _load_preset_config(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    with (_PRESET_DIR / f"{name}.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def preset(name: str) -> Ruleset:
    """Vendored preset by name; '+'-joined names compose, e.g.
    "gopher_natlang+c4_lines", and so does a preset whose JSON is
    {"compose": [<names>]}, such as gopher_full."""
    parts = [p.strip() for p in name.split("+") if p.strip()]
    if not parts:
        raise ConfigError("empty preset name")
    combined = Ruleset(name=name)
    for part in parts:
        config = _load_preset_config(part)
        if "compose" in config:
            rs = preset("+".join(config["compose"]))
        else:
            rs = compile_ruleset(config, name=part)
        combined.doc_rules.extend(rs.doc_rules)
        combined.line_rules.extend(rs.line_rules)
    return combined


def load_ruleset(spec: str) -> Ruleset:
    """Accepts a preset name (or composition) or a path to a rule JSON."""
    first = spec.split("+", 1)[0].strip()
    if first in PRESET_NAMES:
        return preset(spec)
    try:
        with open(spec, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(
            f"{spec!r} is neither a preset name nor a readable rule file: {exc}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"rule file {spec} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"rule file {spec} is not a JSON object")
    try:
        return compile_ruleset(config, name=spec)
    except ConfigError as exc:
        raise ConfigError(f"rule file {spec}: {exc}") from exc


def _scores(name: str, doc_id: str, signals: dict) -> list:
    """The score of each (start, end, score) triple of one signal of a
    record. A signal absent from the record (or null) is a ConfigError,
    never a silent pass: the ruleset does not fit the signals the corpus
    was annotated with. A value that is not a list of triples with int or
    float scores (a bool is not one) is a DataError."""
    triples = signals.get(name)
    if triples is None:
        raise ConfigError(f"signal {name} missing from record {doc_id}")
    if type(triples) is not list:
        raise DataError(f"record {doc_id}: signal {name} is not a list of triples: {triples!r}")
    scores = []
    for t in triples:
        if not (type(t) is list and len(t) == 3 and type(t[2]) in (int, float)):
            raise DataError(f"record {doc_id}: signal {name} has a malformed triple {t!r}")
        scores.append(t[2])
    return scores


def _decide(doc: Document, doc_id: str, signals: dict, rs: Ruleset) -> Decision:
    """The decision on one document from its record's signals. Document
    rules come first. Each compares one value by Python's operators, so an
    int stays exact beyond 2**53: the mean of a line signal's scores,
    another signal's first score, or 0.0 for an empty signal. Survivors with
    content go through line rules, which drop failing lines; dropping
    every line drops the document. A line signal whose span count is not
    nlines, or a document to rewrite whose raw_content lines or line_ids
    do not number nlines, is a DataError."""
    fired = []
    for rule in rs.doc_rules:
        scores = _scores(rule.signal, doc_id, signals)
        if not scores:
            value = 0.0
        elif rule.signal in LINE_SIGNALS:
            value = sum(scores) / len(scores)
        else:
            value = scores[0]
        if _OPS[rule.op](value, rule.threshold):
            fired.append((rule.reason, value))
    if fired:
        return Decision(verdict="drop", fired_rules=sorted(fired))
    if not rs.line_rules or not doc.raw_content:
        return KEEP

    nlines = doc.nlines
    per_rule = []
    for rule in rs.line_rules:
        scores = _scores(rule.signal, doc_id, signals)
        if len(scores) != nlines:
            raise DataError(f"record {doc_id}: signal {rule.signal} has {len(scores)} "
                            f"line spans, document has {nlines}")
        per_rule.append((rule, scores))
    kept = []
    for i in range(nlines):
        hits = [(rule.reason, scores[i]) for rule, scores in per_rule
                if _OPS[rule.op](scores[i], rule.threshold)]
        fired += hits
        if not hits:
            kept.append(i)
    if len(kept) == nlines:
        return KEEP
    if not kept:
        return Decision(verdict="drop", fired_rules=sorted(set(fired))
                        + [("emptied-by-line-rules", 0.0)])
    if doc.raw_content.count("\n") + 1 != nlines or len(doc.line_ids) != nlines:
        raise DataError(f"record {doc_id}: cannot rewrite it, its raw_content "
                        f"lines or line_ids do not number nlines={nlines}")
    return Decision(verdict="rewrite", fired_rules=sorted(set(fired)),
                    rewritten=rewrite_document(doc, kept))


def evaluate_shard(docs: list[Document], ids: list[str], records: Iterable[dict],
                   rs: Ruleset, duplicates=frozenset(), sidecar: str = "") -> list[Decision]:
    """The decision on each document of a shard from `records`, its
    signals in document order (records.iter_signal_records). A document
    whose id is in `duplicates` is DUPLICATE, and no rule reads its
    signals. After the first error of a decision the records are still
    read to their end, so that an error of the reader about a later record
    is the one raised; else the decision's error is, a DataError led by
    "<sidecar>: " when `sidecar` is given."""
    decisions, fault = [], None
    for signals, doc, doc_id in zip(records, docs, ids):
        if doc_id in duplicates:
            decisions.append(DUPLICATE)
        elif fault is None:
            try:
                decisions.append(_decide(doc, doc_id, signals, rs))
            except (ConfigError, DataError) as exc:
                fault = exc
    if sidecar and isinstance(fault, DataError):
        raise DataError(f"{sidecar}: {fault}") from fault
    if fault:
        raise fault
    return decisions
