"""Declarative rule engine over signal names.

A ruleset is a conjunction of drop rules: a document survives only if no
document-level rule fires; line-level rules drop individual lines and
trigger a rewrite. Rule configurations are JSON; the presets shipped
under data/presets/ cover the C4, Gopher, custom-rules, and code
heuristics configurations. evaluate_shard decides a whole shard at once,
each rule compared once over a column of its signal's values.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate, chain, compress, repeat

from .errors import ConfigError, DataError
from .records import Document, SignalColumn, rewrite_document
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

    def fires(self, values: list) -> list[bool]:
        """Whether the rule fires on each value, compared by Python's
        operators, so an int stays exact beyond 2**53."""
        return list(map(_OPS[self.op], values, repeat(self.threshold)))


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


def _first_fault(rules: list[Rule], columns: dict[str, SignalColumn], docs: list[int],
                 ids: list[str], nlines: list[int] | None = None) -> tuple[int, Exception | None]:
    """(position in `docs`, error) of the first of these documents with a
    value that one of `rules` cannot read, there the first such rule; else
    (len(docs), None). A missing signal is a ConfigError, never a silent
    pass: the ruleset does not fit the signals the corpus was annotated
    with. A malformed value is a DataError, and so, given `nlines`, is a
    line signal with another number of spans than its document has lines."""
    signals = [(rule.signal, columns[rule.signal]) for rule in rules]
    for p, d in enumerate(docs):
        for name, column in signals:
            if d in column.malformed:
                if column.malformed[d] is None:
                    return p, ConfigError(f"signal {name} missing from record {ids[d]}")
                return p, DataError(f"record {ids[d]}: signal {name} {column.malformed[d]}")
            if nlines is not None and column.counts[d] != nlines[p]:
                return p, DataError(f"record {ids[d]}: signal {name} has {column.counts[d]} "
                                    f"line spans, document has {nlines[p]}")
    return len(docs), None


def _doc_values(name: str, column: SignalColumn, docs: list[int]) -> list:
    """The value a document rule on signal `name` reads for each of these
    documents: its first score, or the mean score of a line signal; 0.0
    for none (no lines, or a categorical signal with no category)."""
    scores, counts = column.scores, column.counts
    starts = list(accumulate(counts, initial=0))
    mean = name in LINE_SIGNALS
    return [(sum(scores[starts[d]:starts[d + 1]]) / counts[d] if mean else scores[starts[d]])
            if counts[d] else 0.0 for d in docs]


def evaluate_shard(docs: list[Document], ids: list[str], columns: dict[str, SignalColumn],
                   rs: Ruleset, duplicates=frozenset()) -> list[Decision]:
    """The decision on each document of a shard, from `columns`, the
    SignalColumn of each signal the ruleset reads. A document whose id is
    in `duplicates` is DUPLICATE, and no rule reads its signals. Each rule
    is evaluated once over the shard: document rules first; survivors
    with content go through line rules, which rewrite the content by
    dropping failing lines. A rewrite that empties the document converts
    to a drop. The error raised is the first that reading the documents
    one at a time would meet (see _first_fault); a document to rewrite
    whose raw_content lines or line_ids do not number nlines is a
    DataError."""
    decisions = [DUPLICATE if doc_id in duplicates else KEEP for doc_id in ids]
    live = [d for d, decision in enumerate(decisions) if decision is KEEP]
    end, fault = _first_fault(rs.doc_rules, columns, live, ids)
    live = live[:end]  # no document after a fault changes the outcome
    values = {rule.signal: _doc_values(rule.signal, columns[rule.signal], live)
              for rule in rs.doc_rules}
    fires = [rule.fires(values[rule.signal]) for rule in rs.doc_rules]
    dropped = list(map(any, zip(*fires))) if fires else [False] * len(live)
    for p in compress(range(len(live)), dropped):
        decisions[live[p]] = Decision(verdict="drop", fired_rules=sorted(
            [(rule.reason, values[rule.signal][p])
             for rule, hits in zip(rs.doc_rules, fires) if hits[p]]))

    reach = [d for d, drop in zip(live, dropped)
             if not drop and docs[d].raw_content] if rs.line_rules else []
    nlines = [docs[d].nlines for d in reach]
    end, line_fault = _first_fault(rs.line_rules, columns, reach, ids, nlines)
    # a line fault is at a document before the document rules' fault
    reach, nlines, fault = reach[:end], nlines[:end], line_fault or fault
    scores = {}
    for rule in rs.line_rules:  # the scores of the lines of `reach`, in order
        column = columns[rule.signal]
        starts = list(accumulate(column.counts, initial=0))
        scores[rule.signal] = list(chain.from_iterable(
            column.scores[starts[d]:starts[d] + n] for d, n in zip(reach, nlines)))
    fires = [rule.fires(scores[rule.signal]) for rule in rs.line_rules]
    hit = list(map(any, zip(*fires)))
    last = 0
    for d, n in zip(reach, nlines):
        first, last = last, last + n
        if True not in hit[first:last]:
            continue
        fired = [(rule.reason, scores[rule.signal][j]) for j in range(first, last) if hit[j]
                 for rule, hits in zip(rs.line_rules, fires) if hits[j]]
        kept = [i for i, h in enumerate(hit[first:last]) if not h]
        doc = docs[d]
        if not kept:
            decisions[d] = Decision(verdict="drop", fired_rules=sorted(set(fired))
                                    + [("emptied-by-line-rules", 0.0)])
        elif doc.raw_content.count("\n") + 1 != n or len(doc.line_ids) != n:
            raise DataError(f"record {ids[d]}: cannot rewrite it, its raw_content "
                            f"lines or line_ids do not number nlines={n}")
        else:
            decisions[d] = Decision(verdict="rewrite", fired_rules=sorted(set(fired)),
                                    rewritten=rewrite_document(doc, kept))
    if fault:
        raise fault
    return decisions
