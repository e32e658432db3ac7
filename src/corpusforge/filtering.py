"""Declarative rule engine over signal names.

A ruleset is a conjunction of drop rules: a document survives only if no
document-level rule fires; line-level rules drop individual lines and
trigger a rewrite. Rule configurations are JSON; the presets shipped
under data/presets/ cover the C4, Gopher, custom-rules, and code
heuristics configurations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import ConfigError
from .records import Document, QualitySignalSet, rewrite_document
from .signal_catalog import LINE_SIGNALS, known_signal_names

PRESET_NAMES = (
    "c4_full",
    "c4_lines",
    "gopher_full",
    "gopher_natlang",
    "gopher_repetition",
    "custom_rules",
    "rpv1_wikiref",
    "rpv1_code",
)

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


def _make_rule(signal: str, op: str, threshold, reason: str | None, known) -> Rule:
    if signal not in known:
        raise ConfigError(
            f"unknown signal {signal!r}; known signals: {', '.join(sorted(known))}"
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


def compile_ruleset(config: dict, name: str = "custom") -> Ruleset:
    """Compile a declarative rule document. Two accepted shapes:

    {"name": ..., "doc_rules": [{"signal":..., "op":..., "value":...,
     "reason":...}], "line_rules": [...]}

    or the shorthand mapping {"<signal>": {"<op>": <threshold>, ...}}
    which compiles to document rules (line rules for rps_lines_*)."""
    known = known_signal_names()
    rs = Ruleset(name=config.get("name", name))
    if "doc_rules" in config or "line_rules" in config:
        for entry in config.get("doc_rules", []):
            rs.doc_rules.append(
                _make_rule(entry["signal"], entry["op"], entry["value"],
                           entry.get("reason"), known)
            )
        for entry in config.get("line_rules", []):
            rule = _make_rule(entry["signal"], entry["op"], entry["value"],
                              entry.get("reason"), known)
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
                rule = _make_rule(signal, op, threshold, None, known)
                if signal in LINE_SIGNALS:
                    rs.line_rules.append(rule)
                else:
                    rs.doc_rules.append(rule)
    if not rs.doc_rules and not rs.line_rules:
        import warnings

        warnings.warn(f"ruleset {rs.name!r} is empty", stacklevel=2)
    return rs


def _load_preset_config(name: str) -> dict:
    ref = resources.files("corpusforge") / "data" / "presets" / f"{name}.json"
    if not ref.is_file():
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    with ref.open(encoding="utf-8") as fh:
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"rule file {spec} is not valid JSON: {exc}") from exc
    return compile_ruleset(config, name=spec)


def _doc_value(name: str, signals: QualitySignalSet):
    triples = signals.quality_signals.get(name)
    if triples is None:
        raise SignalMissingError(f"signal {name} missing from record {signals.id}")
    if name in LINE_SIGNALS:
        # Document-level rule over a line signal: mean of per-line scores.
        if not triples:
            return 0.0
        return sum(t[2] for t in triples) / len(triples)
    if not triples:
        return 0.0  # categorical signals may be empty (no category)
    return triples[0][2]


def _line_values(name: str, signals: QualitySignalSet, nlines: int):
    triples = signals.quality_signals.get(name)
    if triples is None:
        raise SignalMissingError(f"signal {name} missing from record {signals.id}")
    if len(triples) != nlines:
        raise SignalMissingError(
            f"signal {name} has {len(triples)} line spans, document has {nlines}"
        )
    return [t[2] for t in triples]


def evaluate(doc: Document, signals: QualitySignalSet, rs: Ruleset) -> Decision:
    """Document rules first; survivors go through line rules, which
    rewrite the content by dropping failing lines. A rewrite that
    empties the document converts to a drop."""
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
    return Decision(
        verdict="rewrite",
        fired_rules=sorted(set(fired)),
        rewritten=rewrite_document(doc, kept),
    )
