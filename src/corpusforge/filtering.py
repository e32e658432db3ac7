"""Declarative rule engine over signal names.

A ruleset is a conjunction of drop rules: a document survives only if no
document-level rule fires; line-level rules drop individual lines and
trigger a rewrite. Rule configurations are JSON; the presets shipped
under data/presets/ cover the C4, Gopher, custom-rules, and code
heuristics configurations.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from importlib import resources

from .errors import ConfigError, DataError
from .records import Document, QualitySignalSet, rewrite_document
from .signal_catalog import ALL_SIGNALS, LINE_SIGNALS

_PRESET_DIR = resources.files("corpusforge") / "data" / "presets"
PRESET_NAMES = tuple(sorted(
    ref.name[: -len(".json")] for ref in _PRESET_DIR.iterdir()
    if ref.name.endswith(".json")
))

_OPS = {
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "==": lambda v, t: v == t,
    "in": lambda v, t: v in t,
}


class SignalMissingError(ConfigError):
    """A rule references a signal absent from the record; evaluation
    never silently passes on missing data. The ruleset does not fit the
    signals the corpus was annotated with, so this is a config error."""


@dataclass(frozen=True)
class Rule:
    signal: str
    op: str
    threshold: object
    reason: str

    def fires(self, value) -> bool:
        return _OPS[self.op](value, self.threshold)


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


def _compiled_preset(part: str) -> Ruleset:
    config = _load_preset_config(part)
    if "compose" in config:
        rs = Ruleset(name=config.get("name", part))
        for sub in config["compose"]:
            sub_rs = _compiled_preset(sub)
            rs.doc_rules.extend(sub_rs.doc_rules)
            rs.line_rules.extend(sub_rs.line_rules)
        return rs
    return compile_ruleset(config, name=part)


def preset(name: str) -> Ruleset:
    """Vendored preset by name; '+'-joined names compose, e.g.
    "gopher_natlang+c4_lines"."""
    parts = [p.strip() for p in name.split("+") if p.strip()]
    if not parts:
        raise ConfigError("empty preset name")
    combined = Ruleset(name=name)
    for part in parts:
        rs = _compiled_preset(part)
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
    except ValueError as exc:
        raise ConfigError(f"rule file {spec} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"rule file {spec} is not a JSON object")
    try:
        return compile_ruleset(config, name=spec)
    except ConfigError as exc:
        raise ConfigError(f"rule file {spec}: {exc}") from exc


def _scores(name: str, signals: QualitySignalSet) -> list:
    """The score of each (start, end, score) triple of one signal;
    DataError when the value is not a list of triples or a score is not
    a number (a bool is not one)."""
    triples = signals.quality_signals.get(name)
    if triples is None:
        raise SignalMissingError(f"signal {name} missing from record {signals.id}")
    if not isinstance(triples, list):
        raise DataError(
            f"record {signals.id}: signal {name} is not a list of triples: {triples!r}"
        )
    for t in triples:
        if not (isinstance(t, (list, tuple)) and len(t) == 3
                and type(t[2]) in (int, float)):
            raise DataError(
                f"record {signals.id}: signal {name} has a malformed triple {t!r}"
            )
    return [t[2] for t in triples]


def _doc_value(name: str, signals: QualitySignalSet):
    scores = _scores(name, signals)
    if not scores:
        return 0.0  # no lines, or a categorical signal with no category
    if name in LINE_SIGNALS:
        # Document-level rule over a line signal: mean of per-line scores.
        return sum(scores) / len(scores)
    return scores[0]


def _line_values(name: str, signals: QualitySignalSet, nlines: int):
    scores = _scores(name, signals)
    if len(scores) != nlines:
        raise DataError(
            f"record {signals.id}: signal {name} has {len(scores)} line spans, "
            f"document has {nlines}"
        )
    return scores


def evaluate(doc: Document, signals: QualitySignalSet, rs: Ruleset) -> Decision:
    """Document rules first; survivors go through line rules, which
    rewrite the content by dropping failing lines. A rewrite that
    empties the document converts to a drop. A document to rewrite whose
    raw_content lines or line_ids do not number nlines is a DataError."""
    fired = []
    for rule in rs.doc_rules:
        value = _doc_value(rule.signal, signals)
        if rule.fires(value):
            fired.append((rule.reason, value))
    if fired:
        return Decision(verdict="drop", fired_rules=sorted(fired))

    if not rs.line_rules or not doc.raw_content:
        return Decision(verdict="keep")

    nlines = doc.nlines
    per_rule = [(rule, _line_values(rule.signal, signals, nlines)) for rule in rs.line_rules]
    kept = []
    for i in range(nlines):
        ok = True
        for rule, values in per_rule:
            if rule.fires(values[i]):
                fired.append((rule.reason, values[i]))
                ok = False
        if ok:
            kept.append(i)
    if len(kept) == nlines:
        return Decision(verdict="keep")
    if not kept:
        return Decision(
            verdict="drop",
            fired_rules=sorted(set(fired)) + [("emptied-by-line-rules", 0.0)],
        )
    if doc.raw_content.count("\n") + 1 != nlines or len(doc.line_ids) != nlines:
        raise DataError(f"record {signals.id}: cannot rewrite it, its raw_content "
                        f"lines or line_ids do not number nlines={nlines}")
    return Decision(
        verdict="rewrite",
        fired_rules=sorted(set(fired)),
        rewritten=rewrite_document(doc, kept),
    )
