"""Rule compilation, presets, and document/line evaluation."""

import json

import pytest

from corpusforge.annotate import (
    DEFAULT_SIGNALS,
    annotate_shard,
    resolve_signal_names,
)
from corpusforge.errors import ConfigError
from corpusforge.filtering import (
    PRESET_NAMES,
    compile_ruleset,
    evaluate,
    load_ruleset,
    preset,
)
from corpusforge.pipeline import PipelineConfig, load_resources
from corpusforge.records import QualitySignalSet
from corpusforge.signal_catalog import SIGNAL_GROUPS

from conftest import make_doc, signal_records


@pytest.fixture(scope="module")
def resources():
    return load_resources(PipelineConfig())


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
    decision = evaluate(doc, signals, rs)
    assert decision.verdict == "drop"
    assert decision.fired_rules == [("rps_doc_word_count<10", 3.0)]
    keep_rs = compile_ruleset({"rps_doc_word_count": {"<": 2}}, name="t")
    assert evaluate(doc, signals, keep_rs).verdict == "keep"


def test_evaluate_line_rules_rewrite(resources):
    doc = make_doc("This line has plenty of words to keep.\nshort\nAnother long enough line survives here.")
    signals = _signals_for(doc, resources)
    rs = compile_ruleset({"rps_lines_num_words": {"<": 5}}, name="lines")
    decision = evaluate(doc, signals, rs)
    assert decision.verdict == "rewrite"
    assert decision.rewritten.nlines == 2
    assert "short" not in decision.rewritten.raw_content


def test_evaluate_line_rules_can_empty_document(resources):
    doc = make_doc("tiny\nalso tiny")
    signals = _signals_for(doc, resources)
    rs = compile_ruleset({"rps_lines_num_words": {"<": 5}}, name="lines")
    decision = evaluate(doc, signals, rs)
    assert decision.verdict == "drop"
    assert ("emptied-by-line-rules", 0.0) in decision.fired_rules


def test_missing_signal_raises(resources):
    doc = make_doc("hello world")
    empty = QualitySignalSet(id="x", id_int=0, metadata={}, quality_signals={})
    rs = compile_ruleset({"rps_doc_word_count": {"<": 10}}, name="t")
    with pytest.raises(ConfigError, match="signal rps_doc_word_count missing"):
        evaluate(doc, empty, rs)


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
    decision = evaluate(doc, signals, rs)
    # mean words per line = (1 + 2 + 3) / 3 = 2.0 < 2.5
    assert decision.verdict == "drop"
    assert decision.fired_rules == [("mean-words", 2.0)]


def test_c4_full_drops_braces_and_lorem(resources):
    brace = make_doc("This has a { brace in it somewhere. More text follows. And more.")
    signals = _signals_for(brace, resources)
    decision = evaluate(brace, signals, preset("c4_full"))
    assert decision.verdict == "drop"
    assert any("curly" in r for r, _ in decision.fired_rules)
