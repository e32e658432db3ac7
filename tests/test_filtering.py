"""Rule compilation, presets, and document/line evaluation."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusforge.annotate import (
    DEFAULT_SIGNALS,
    annotate_shard,
    load_resources,
    resolve_signal_names,
)
from corpusforge.errors import ConfigError, DataError
from corpusforge.filtering import (
    DUPLICATE,
    PRESET_NAMES,
    compile_ruleset,
    load_ruleset,
    preset,
)
from corpusforge.pipeline import PipelineConfig
from corpusforge.signal_catalog import SIGNAL_GROUPS

from conftest import decide, make_doc, shard_decisions, signal_records
from oracles import QualitySignalSet, oracle_evaluate


@pytest.fixture(scope="module")
def resources():
    return load_resources(PipelineConfig(), resolve_signal_names(DEFAULT_SIGNALS))


def _signals_for(doc, resources):
    return signal_records(annotate_shard([doc], ["seg/0"], resources,
                                         resolve_signal_names(DEFAULT_SIGNALS)))[0]


def test_compile_structured_ruleset():
    rs = compile_ruleset({
        "name": "demo",
        "doc_rules": [
            {"signal": "rps_doc_word_count", "op": "<", "value": 10},
        ],
        "line_rules": [
            {"signal": "rps_lines_num_words", "op": "<", "value": 2},
        ],
    })
    assert rs.name == "demo"
    assert len(rs.doc_rules) == 1 and len(rs.line_rules) == 1
    assert rs.doc_rules[0].reason == "rps_doc_word_count<10"


def test_compile_shorthand_routes_line_signals():
    rs = compile_ruleset({
        "rps_doc_word_count": {"<": 5},
        "rps_lines_num_words": {"<": 2},
    })
    assert len(rs.doc_rules) == 1 and len(rs.line_rules) == 1


def test_compile_errors(capsys):
    with pytest.raises(ConfigError, match="unknown signal"):
        compile_ruleset({"rps_doc_word_cnt": {"<": 5}})
    with pytest.raises(ConfigError, match="unknown comparator"):
        compile_ruleset({"rps_doc_word_count": {"!=": 5}})
    with pytest.raises(ConfigError, match="must be numeric"):
        compile_ruleset({"rps_doc_word_count": {"<": "five"}})
    with pytest.raises(ConfigError, match="line rule"):
        compile_ruleset({
            "line_rules": [
                {"signal": "rps_doc_word_count", "op": "<", "value": 1}
            ]
        })
    compile_ruleset({"name": "nothing"})
    assert capsys.readouterr().err.splitlines() == ["warning: ruleset 'nothing' is empty"]


def test_all_presets_compile():
    for name in PRESET_NAMES:
        rs = preset(name)
        assert rs.doc_rules or rs.line_rules, name
    combined = preset("gopher_natlang+c4_lines")
    assert combined.doc_rules and combined.line_rules
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("nope")


def test_every_preset_signal_belongs_to_a_signal_group():
    # a signal outside every group could be named by a rule but never
    # selected for annotate
    assert set(PRESET_NAMES) == {
        "c4_full", "c4_lines", "custom_rules", "gopher_full", "gopher_natlang",
        "gopher_repetition", "rpv1_code", "rpv1_wikiref",
    }
    grouped = {name for group in SIGNAL_GROUPS.values() for name in group}
    for name in PRESET_NAMES:
        rs = preset(name)
        for rule in rs.doc_rules + rs.line_rules:
            assert rule.signal in grouped, (name, rule.signal)


def test_gopher_full_is_composition():
    full = preset("gopher_full")
    parts = preset("gopher_natlang").doc_rules + preset("gopher_repetition").doc_rules
    assert len(full.doc_rules) == len(parts)


def test_load_ruleset_from_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rps_doc_word_count": {"<": 3}}))
    rs = load_ruleset(str(path))
    assert len(rs.doc_rules) == 1
    with pytest.raises(ConfigError):
        load_ruleset(str(tmp_path / "missing.json"))


def test_evaluate_doc_rules(resources):
    doc = make_doc("one two three")
    signals = _signals_for(doc, resources)
    rs = compile_ruleset({"rps_doc_word_count": {"<": 10}}, name="t")
    decision = decide(doc, signals, rs)
    assert decision.verdict == "drop"
    assert decision.fired_rules == [("rps_doc_word_count<10", 3.0)]
    keep_rs = compile_ruleset({"rps_doc_word_count": {"<": 2}}, name="t")
    assert decide(doc, signals, keep_rs).verdict == "keep"


def test_evaluate_line_rules_rewrite(resources):
    doc = make_doc("This line has plenty of words to keep.\nshort\nAnother long enough line survives here.")
    signals = _signals_for(doc, resources)
    rs = compile_ruleset({"rps_lines_num_words": {"<": 5}}, name="lines")
    decision = decide(doc, signals, rs)
    assert decision.verdict == "rewrite"
    assert decision.rewritten.nlines == 2
    assert "short" not in decision.rewritten.raw_content


def test_evaluate_line_rules_can_empty_document(resources):
    doc = make_doc("tiny\nalso tiny")
    signals = _signals_for(doc, resources)
    rs = compile_ruleset({"rps_lines_num_words": {"<": 5}}, name="lines")
    decision = decide(doc, signals, rs)
    assert decision.verdict == "drop"
    assert ("emptied-by-line-rules", 0.0) in decision.fired_rules


def test_missing_signal_raises(resources):
    doc = make_doc("hello world")
    empty = QualitySignalSet(id="x", id_int=0, metadata={}, quality_signals={})
    rs = compile_ruleset({"rps_doc_word_count": {"<": 10}}, name="t")
    with pytest.raises(ConfigError, match="signal rps_doc_word_count missing"):
        decide(doc, empty, rs)


def test_doc_rule_over_line_signal_uses_mean(resources):
    doc = make_doc("one\ntwo words\nthree words here")
    signals = _signals_for(doc, resources)
    rs = compile_ruleset(
        {"doc_rules": [
            {"signal": "rps_lines_num_words", "op": "<", "value": 2.5,
             "reason": "mean-words"}
        ]},
        name="m",
    )
    decision = decide(doc, signals, rs)
    # mean words per line = (1 + 2 + 3) / 3 = 2.0 < 2.5
    assert decision.verdict == "drop"
    assert decision.fired_rules == [("mean-words", 2.0)]


def test_c4_full_drops_braces_and_lorem(resources):
    brace = make_doc("This has a { brace in it somewhere. More text follows. And more.")
    signals = _signals_for(brace, resources)
    decision = decide(brace, signals, preset("c4_full"))
    assert decision.verdict == "drop"
    assert any("curly" in r for r, _ in decision.fired_rules)


# ---------------------------------------------------------------------------
# The shard-level evaluation against the per-document reference

_DOC_NAMES = ["rps_doc_word_count", "rps_doc_frac_no_alph_words"]
_CATEGORICAL = "rps_doc_ut1_blacklist"
_LINE_NAMES = ["rps_lines_num_words", "rps_lines_uppercase_letter_fraction"]
# ints and floats, equal ones among them, NaN, and ints past 2**53
_VALUES = [0, 1, 1.0, 2, 2.5, -0.0, 5, 0.2, 2**53, 2**53 + 1, 1e300]
_SCORES = st.sampled_from(_VALUES + [math.nan])
_THRESHOLDS = st.sampled_from([1, 2, 2.5, 0.2, 2**53])
_FAULTS = ["missing", "null", "not-a-list", "short-triple", "text-score", "bool-score",
           "one-span-short"]


def _rule(signals, ops=("<", "<=", ">", ">=", "==")):
    reasons = st.one_of(st.none(), st.just("shared reason"))
    numeric = st.fixed_dictionaries({"signal": st.sampled_from(signals),
                                     "op": st.sampled_from(ops), "value": _THRESHOLDS,
                                     "reason": reasons})
    member = st.fixed_dictionaries({"signal": st.sampled_from(signals), "op": st.just("in"),
                                    "value": st.lists(st.sampled_from(_VALUES), max_size=3),
                                    "reason": reasons})
    return st.one_of(numeric, member)


_RULESETS = st.fixed_dictionaries({
    "name": st.just("drawn"),
    "doc_rules": st.lists(_rule(_DOC_NAMES + [_CATEGORICAL] + _LINE_NAMES), max_size=3),
    "line_rules": st.lists(_rule(_LINE_NAMES), max_size=2),
})


def _record(doc_id: str, text: str, doc_scores, categories, line_scores,
            *faults) -> QualitySignalSet:
    """The signal record of a document with these scores; each fault is
    (kind, signal) for a value the rules cannot read."""
    length = len(text)
    signals = {name: [(0, length, score)] for name, score in zip(_DOC_NAMES, doc_scores)}
    signals[_CATEGORICAL] = [(0, length, c) for c in categories]
    for name, scores in zip(_LINE_NAMES, line_scores):
        signals[name] = [(i, i + 1, score) for i, score in enumerate(scores)]
    good = dict(signals)
    for kind, name in faults:
        bad = {"null": None, "not-a-list": 5, "short-triple": [[0, 5]],
               "text-score": [[0, 5, "many"]], "bool-score": [[0, 5, True]],
               "one-span-short": good[name][:-1] or [(0, 1, 1)]}
        if kind == "missing":
            signals.pop(name, None)
        else:
            signals[name] = bad[kind]
    return QualitySignalSet(doc_id, 0, {}, signals)


@st.composite
def _shards(draw):
    """(docs, records, duplicate ids) of a shard of up to six documents of
    0-3 lines (an empty one has none), some with faults in their signals."""
    docs, records, duplicates = [], [], set()
    for i in range(draw(st.integers(0, 6))):
        text = "\n".join(f"line {j}" for j in range(draw(st.integers(0, 3))))
        doc = make_doc(text)
        faults = draw(st.lists(st.tuples(
            st.sampled_from(_FAULTS), st.sampled_from(_DOC_NAMES + [_CATEGORICAL] + _LINE_NAMES)),
            max_size=2))
        line_scores = [draw(st.lists(_SCORES, min_size=doc.nlines, max_size=doc.nlines))
                       for _ in _LINE_NAMES]
        records.append(_record(f"seg/{i}", text, [draw(_SCORES) for _ in _DOC_NAMES],
                               draw(st.lists(_SCORES, max_size=2)), line_scores, *faults))
        docs.append(doc)
        if draw(st.integers(0, 3)) == 0:
            duplicates.add(f"seg/{i}")
    return docs, records, duplicates


def _reference(docs, records, rs, duplicates):
    """The decision on each document, one at a time, as oracle_evaluate
    makes it on the record read back from its sidecar line."""
    decisions = []
    for doc, record in zip(docs, records):
        if record.id in duplicates:
            decisions.append(DUPLICATE)
            continue
        parsed = json.loads(record.to_json())
        decisions.append(oracle_evaluate(doc, QualitySignalSet(
            record.id, record.id_int, parsed["metadata"], parsed["quality_signals"]), rs))
    return decisions


def _audit(records, decisions) -> list[str]:
    return [json.dumps({"doc_id": record.id, "verdict": decision.verdict,
                        "fired_rules": decision.fired_rules}, separators=(",", ":"))
            for record, decision in zip(records, decisions) if decision.verdict != "keep"]


# a malformed line-signal triple in a duplicate and in a document that a
# document rule drops, neither of which the rules read; a missing signal
_ONE_LINE = "line 0"
_UNREAD_FAULTS = (
    [make_doc(_ONE_LINE)] * 3,
    [_record("seg/0", _ONE_LINE, [1, 1], [], [[1], [1]], ("short-triple", _LINE_NAMES[0])),
     _record("seg/1", _ONE_LINE, [0, 1], [], [[1], [1]], ("text-score", _LINE_NAMES[0])),
     _record("seg/2", _ONE_LINE, [5, 1], [], [[1], [1]])],
    {"seg/0"},
)
_WORD_COUNT_AND_LINES = {
    "doc_rules": [{"signal": "rps_doc_word_count", "op": "<", "value": 1}],
    "line_rules": [{"signal": _LINE_NAMES[0], "op": "<", "value": 1}],
}


@settings(max_examples=400, deadline=None)
@given(_shards(), _RULESETS)
@example(_UNREAD_FAULTS, _WORD_COUNT_AND_LINES)
@example(([make_doc(_ONE_LINE)], [_record("seg/0", _ONE_LINE, [1, 1], [], [[1], [1]],
                                          ("missing", "rps_doc_word_count"))], set()),
         _WORD_COUNT_AND_LINES)
@example(([make_doc(_ONE_LINE)] * 2,
          [_record(f"seg/{i}", _ONE_LINE, [2**53 + i, 1], [], [[2**53 + 1], [1]])
           for i in range(2)], set()),
         {"doc_rules": [{"signal": "rps_doc_word_count", "op": ">", "value": 2**53}],
          "line_rules": [{"signal": _LINE_NAMES[0], "op": "==", "value": 2**53}]})
@example(([make_doc("line 0\nline 1")] * 2,
          [_record("seg/0", "line 0\nline 1", [1, 1], [], [[1, 1], [1, 1]],
                   ("one-span-short", _LINE_NAMES[0])),
           _record("seg/1", "line 0\nline 1", [1, 1], [], [[0, 1], [1, 1]])], set()),
         _WORD_COUNT_AND_LINES)
@example(([make_doc("line 0\nline 1", line_ids=[0])],
          [_record("seg/0", "line 0\nline 1", [1, 1], [], [[0, 1], [1, 1]])], set()),
         _WORD_COUNT_AND_LINES)
# the first error in document order, and at one document in rule order
@example(([make_doc(_ONE_LINE)] * 2,
          [_record("seg/0", _ONE_LINE, [1, 1], [], [[1], [1]], ("bool-score", _LINE_NAMES[0])),
           _record("seg/1", _ONE_LINE, [1, 1], [], [[1], [1]], ("null", _DOC_NAMES[0]))],
          set()),
         _WORD_COUNT_AND_LINES)
@example(([make_doc(_ONE_LINE)] * 2,
          [_record("seg/0", _ONE_LINE, [1, 1], [], [[1], [1]], ("null", _DOC_NAMES[0])),
           _record("seg/1", _ONE_LINE, [1, 1], [], [[1], [1]], ("bool-score", _LINE_NAMES[0]))],
          set()),
         _WORD_COUNT_AND_LINES)
@example(([make_doc(_ONE_LINE)],
          [_record("seg/0", _ONE_LINE, [1, 1], [], [[1], [1]], ("not-a-list", _DOC_NAMES[1]),
                   ("missing", _DOC_NAMES[0]))], set()),
         {"doc_rules": [{"signal": name, "op": "<", "value": 1} for name in _DOC_NAMES]})
def test_shard_decisions_equal_the_per_document_reference(shard, config):
    """Decisions, audit lines and errors of the whole shard at once are
    those of the documents one at a time, up to the first error."""
    docs, records, duplicates = shard
    rs = compile_ruleset(config)
    try:
        expected = _reference(docs, records, rs, duplicates)
    except (ConfigError, DataError) as exc:
        with pytest.raises(type(exc)) as info:
            shard_decisions(docs, records, rs, duplicates)
        assert str(info.value) == str(exc)
        return
    decisions = shard_decisions(docs, records, rs, duplicates)
    assert decisions == expected
    assert _audit(records, decisions) == _audit(records, expected)
