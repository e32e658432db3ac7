"""CLI behavior: subcommands, exit codes, env overrides, restartability."""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpusforge
from corpusforge import cli, pipeline
from corpusforge.cli import main
from corpusforge.records import (
    QualitySignalSet,
    ShardAddress,
    shard_path,
    write_jsonl_gz,
)

from conftest import make_doc


def _write_corpus(root, texts, snapshot="2023-14", language="en", bucket="head",
                  shard=0):
    addr = ShardAddress(snapshot, shard, language, bucket)
    path = os.path.join(root, shard_path(addr, "documents"))
    docs = [
        make_doc(
            t,
            language=language,
            bucket=bucket,
            cc_segment=f"{snapshot}/seg{shard}",
            url=f"http://site{i}.example.org/",
            source_domain=f"site{i}.example.org",
        )
        for i, t in enumerate(texts)
    ]
    write_jsonl_gz(path, (d.to_json() for d in docs))
    return path


LONG_A = " ".join(f"alpha{i} beta{i} gamma{i}" for i in range(20)) + "."
LONG_B = " ".join(f"delta{i} epsi{i} zeta{i}" for i in range(20)) + "."


@pytest.fixture()
def corpus(tmp_path):
    root = str(tmp_path / "corpus")
    _write_corpus(root, [LONG_A, LONG_B, LONG_A])
    return root


def test_annotate_dedup_filter_stats(corpus, capsys):
    common = ["--input", corpus, "--output", corpus,
              "--snapshots", "2023-14", "--languages", "en"]
    assert main(["annotate", *common]) == 0
    sig = os.path.join(
        corpus, "quality_signals/2023-14/0000/en_head.signals.json.gz"
    )
    assert os.path.exists(sig)

    assert main(["dedup", "--mode", "exact", *common]) == 0
    dup = os.path.join(
        corpus, "duplicates/2023-14/0000/en_head.duplicates.jsonl.gz"
    )
    with gzip.open(dup, "rt") as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 1 and records[0]["doc_id"] == "2023-14/seg0/2"

    out = corpus + "-filtered"
    assert main(["filter", "--preset", "c4_lines", "--input", corpus,
                 "--output", out, "--snapshots", "2023-14",
                 "--languages", "en"]) == 0
    captured = capsys.readouterr().out
    assert "duplicates 1" in captured

    assert main(["stats", *common]) == 0
    table = capsys.readouterr().out
    assert "Total" in table and "head_middle_dedupe" in table


def test_dedup_fuzzy_end_to_end(tmp_path, capsys):
    root = str(tmp_path / "corpus")
    # a cluster of three copies of LONG_A plus a near copy (one word
    # appended: Jaccard 48/49 over the 13-word shingles), and LONG_B alone
    near = LONG_A + " omega"
    _write_corpus(root, [LONG_A, LONG_B, LONG_A, LONG_A, near])
    assert main(["dedup", "--mode", "fuzzy", "--jaccard", "0.8",
                 "--input", root, "--output", root]) == 0
    # C(3, 2) pairs among the copies, plus 3 * 1 with the near copy
    assert capsys.readouterr().out == (
        "dedup[fuzzy] bands=6 rows=8: 5 docs, 6 candidate pairs, "
        "3 duplicates (60.00%)\n")
    addr = ShardAddress("2023-14", 0, "en", "head")
    with gzip.open(os.path.join(root, shard_path(addr, "duplicates")), "rt") as fh:
        records = [json.loads(line) for line in fh]
    assert records == [
        {"doc_id": f"2023-14/seg0/{i}", "shard": shard_path(addr, "documents"),
         "representative_id": "2023-14/seg0/0"}
        for i in (2, 3, 4)
    ]
    with gzip.open(os.path.join(root, shard_path(addr, "minhash")), "rt") as fh:
        sigs = [json.loads(line) for line in fh]
    assert [s["doc_id"] for s in sigs] == [f"2023-14/seg0/{i}" for i in range(5)]
    assert all(len(s["signature"]) == 128 and (s["bands"], s["rows"]) == (6, 8)
               for s in sigs)
    assert sigs[0]["signature"] == sigs[2]["signature"] == sigs[3]["signature"]
    assert sigs[0]["signature"] != sigs[4]["signature"]


def test_dedup_fuzzy_rewrites_minhash_sidecar_after_shard_changes(tmp_path):
    root = str(tmp_path / "corpus")
    argv = ["dedup", "--mode", "fuzzy", "--input", root, "--output", root]
    sidecar = os.path.join(
        root, shard_path(ShardAddress("2023-14", 0, "en", "head"), "minhash"))
    for texts in ([LONG_A, LONG_B], [LONG_A, LONG_B, LONG_A + " omega"]):
        _write_corpus(root, texts)
        assert main(argv) == 0
        with gzip.open(sidecar, "rt") as fh:
            sigs = [json.loads(line) for line in fh]
        assert [s["doc_id"] for s in sigs] == [
            f"2023-14/seg0/{i}" for i in range(len(texts))]


def test_annotate_is_restartable(corpus, capsys):
    common = ["--input", corpus, "--output", corpus,
              "--snapshots", "2023-14", "--languages", "en"]
    assert main(["annotate", *common]) == 0
    capsys.readouterr()
    assert main(["annotate", *common]) == 0
    assert "1 skipped" in capsys.readouterr().out
    assert main(["annotate", *common, "--force"]) == 0
    assert "1 shard(s) written" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path, capsys):
    # snapshots out of newest-first order
    assert main(["stats", "--input", str(tmp_path),
                 "--snapshots", "2022-05,2023-14"]) == 1
    assert "newest to oldest" in capsys.readouterr().err
    # filter without a ruleset
    assert main(["filter", "--input", str(tmp_path)]) == 1
    # unknown preset
    assert main(["filter", "--preset", "bogus", "--input", str(tmp_path)]) == 1


def test_data_error_exit_code(tmp_path, capsys):
    root = str(tmp_path / "corpus")
    addr = ShardAddress("2023-14", 0, "en", "head")
    path = os.path.join(root, shard_path(addr, "documents"))
    write_jsonl_gz(path, [make_doc("ok").to_json(), "{broken", "{also broken"])
    assert main(["annotate", "--input", root, "--output", root]) == 2
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("total, code", [(100, 0), (99, 2)])
def test_bad_record_threshold_boundary(tmp_path, capsys, total, code):
    # one bad record in `total`: a share of exactly 1% is processed, above it fails
    root = str(tmp_path / "corpus")
    addr = ShardAddress("2023-14", 0, "en", "head")
    lines = [make_doc(f"document number {i}.").to_json() for i in range(total - 1)]
    lines.insert(total // 2, "{broken")
    write_jsonl_gz(os.path.join(root, shard_path(addr, "documents")), lines)
    assert main(["annotate", "--input", root, "--output", root]) == code
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    signals = os.path.join(root, shard_path(addr, "quality_signals"))
    if code == 0:
        assert errors == []
        with gzip.open(signals, "rt") as fh:
            assert sum(1 for _ in fh) == total - 1
    else:
        assert len(errors) == 1 and "threshold" in errors[0]
        assert not os.path.exists(signals)


def test_env_overrides(corpus, capsys, monkeypatch):
    monkeypatch.setenv("CORPUSFORGE_INPUT_ROOT", corpus)
    monkeypatch.setenv("CORPUSFORGE_OUTPUT_ROOT", corpus)
    monkeypatch.setenv("CORPUSFORGE_SNAPSHOTS", "2023-14")
    monkeypatch.setenv("CORPUSFORGE_LANGUAGES", "en")
    assert main(["annotate"]) == 0
    assert "1 shard(s) written" in capsys.readouterr().out
    # values are coerced by the type of their config field
    monkeypatch.setenv("CORPUSFORGE_WORKERS", "2")
    monkeypatch.setenv("CORPUSFORGE_JACCARD", "0.8")
    monkeypatch.setenv("CORPUSFORGE_FORCE", "yes")
    monkeypatch.setenv("CORPUSFORGE_MODELS", '{"kn_lm": "kn.json"}')
    cfg = pipeline.PipelineConfig.load()
    assert (cfg.workers, cfg.jaccard, cfg.force) == (2, 0.8, True)
    assert cfg.models == {"kn_lm": "kn.json"} and cfg.languages == ["en"]


def test_flags_override_config(monkeypatch):
    for var in list(os.environ):
        if var.startswith(pipeline.ENV_PREFIX):
            monkeypatch.delenv(var)
    parser = cli.build_parser()
    common = ["--input", "in", "--output", "out", "--snapshots", "2023-14,2022-49",
              "--languages", "en,de", "--workers", "3", "--seed", "7", "--force"]
    cases = [
        (["annotate", *common, "--signals", "natlang,rps_doc_word_count"], {
            "input_root": "in", "output_root": "out",
            "snapshots": ["2023-14", "2022-49"], "languages": ["en", "de"],
            "workers": 3, "seed": 7, "force": True,
            "signals": ["natlang", "rps_doc_word_count"],
        }),
        (["dedup", "--jaccard", "0.8", "--bloom-capacity", "10",
          "--bloom-error-rate", "0.05"],
         {"jaccard": 0.8, "bloom_capacity": 10, "bloom_error_rate": 0.05}),
        (["filter", "--preset", "gopher_full", "--no-dedup"],
         {"ruleset": "gopher_full", "apply_dedup": False}),
        (["filter"], {"force": False, "apply_dedup": True}),
    ]
    for argv, want in cases:
        cfg = cli._config_from_args(parser.parse_args(argv))
        assert {key: getattr(cfg, key) for key in want} == want, argv
    # an environment value survives when its flag is absent
    monkeypatch.setenv("CORPUSFORGE_FORCE", "yes")
    monkeypatch.setenv("CORPUSFORGE_APPLY_DEDUP", "0")
    cfg = cli._config_from_args(parser.parse_args(["filter", "--preset", "c4_full"]))
    assert (cfg.force, cfg.apply_dedup) == (True, False)


def test_config_file_and_unknown_key(tmp_path, corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_root": corpus, "output_root": corpus,
                               "snapshots": ["2023-14"]}))
    assert main(["annotate", "--config", str(cfg)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert main(["annotate", "--config", str(bad)]) == 1


@pytest.mark.parametrize("env, config, argv", [
    pytest.param({"CORPUSFORGE_WORKERS": "abc"}, None, ["annotate"], id="env-int"),
    pytest.param({"CORPUSFORGE_MODELS": '["kn.json"]'}, None, ["annotate"],
                 id="env-models-not-object"),
    pytest.param({}, {"workers": "2"}, ["annotate"], id="json-workers-string"),
    pytest.param({}, None, ["annotate", "--signals", "rps_code_alnum_prop"],
                 id="annotate-signal-never-emitted"),
    pytest.param({}, None, ["filter", "--preset", "rpv1_code"],
                 id="ruleset-needs-missing-signals"),
    pytest.param({"CORPUSFORGE_FORCE": "ture"}, None, ["annotate"], id="env-bool-typo"),
    pytest.param({"CORPUSFORGE_MODELS": '{"classifiers": "x"}'}, None, ["annotate"],
                 id="env-models-classifiers-not-object"),
    pytest.param({"CORPUSFORGE_MODELS": '{"importance": {"books": "x"}}'}, None,
                 ["annotate"], id="env-models-importance-not-pair"),
    pytest.param({"CORPUSFORGE_MODELS": '{"kn_lm": "no_payload.json"}'}, None,
                 ["annotate"], id="model-file-without-payload"),
    pytest.param({}, None, ["filter", "--preset", "rules_list.json"],
                 id="rule-file-not-object"),
    pytest.param({}, None, ["filter", "--preset", "rules_no_op.json"],
                 id="rule-entry-without-op"),
    pytest.param({}, None, ["filter", "--preset", "rules_doc_rules_int.json"],
                 id="rule-doc-rules-not-list"),
    pytest.param({}, None, ["filter", "--preset", "rules_signal_list.json"],
                 id="rule-signal-not-string"),
    pytest.param({}, None, ["dedup", "--mode", "fuzzy", "--jaccard", "1.5"],
                 id="jaccard-above-1"),
])
def test_bad_config_exits_1_with_one_error_line(corpus, tmp_path, env, config, argv):
    # the corpus carries the default signals, which have no rps_code_*
    assert main(["annotate", "--input", corpus, "--output", corpus]) == 0
    # a model container without payload or hash, and two broken rule
    # files, for relative paths
    (tmp_path / "no_payload.json").write_text('{"kind": "kneser_ney"}')
    (tmp_path / "rules_list.json").write_text("[1, 2]")
    (tmp_path / "rules_no_op.json").write_text(
        '{"doc_rules": [{"signal": "rps_doc_word_count", "value": 5}]}')
    (tmp_path / "rules_doc_rules_int.json").write_text('{"doc_rules": 5}')
    (tmp_path / "rules_signal_list.json").write_text(
        '{"doc_rules": [{"signal": ["rps_doc_word_count"], "op": "<", "value": 5}]}')
    argv = [*argv, "--input", corpus, "--output", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    proc = _run_cli(argv, env, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    if argv[1] == "--preset" and argv[2].endswith(".json"):
        assert argv[2] in lines[0], proc.stderr  # the error names the rule file


def _run_cli(argv, env, cwd):
    """The CLI in its own process, so a traceback would reach stderr."""
    src = os.path.dirname(os.path.dirname(corpusforge.__file__))
    return subprocess.run(
        [sys.executable, "-m", "corpusforge.cli", *argv],
        env={**os.environ, "PYTHONPATH": src, **env},
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("damage", ["truncated-shard", "non-utf8-shard",
                                    "sidecar-not-json", "sidecar-without-doc-id"])
def test_bad_shard_or_sidecar_exits_2_with_one_error_line(tmp_path, damage):
    root = tmp_path / "corpus"
    shard = Path(_write_corpus(str(root), [f"document number {i}." for i in range(50)]))
    sidecar = root / shard_path(ShardAddress("2023-14", 0, "en", "head"), "duplicates")
    if damage == "truncated-shard":
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2])
        bad = shard
    elif damage == "non-utf8-shard":
        shard.write_bytes(gzip.compress(b"\xff\xfe\n"))
        bad = shard
    else:
        line = "{not json" if damage == "sidecar-not-json" else '{"id": 1}'
        write_jsonl_gz(sidecar, [line])
        bad = sidecar
    proc = _run_cli(["stats", "--input", str(root)], {}, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert str(bad) in lines[0]


@pytest.mark.parametrize("triple", [[0, 5], [0, 5, "many"]])
def test_malformed_signal_triple_exits_2_with_one_error_line(tmp_path, triple):
    root = tmp_path / "corpus"
    _write_corpus(str(root), ["one two three"])
    doc_id = "2023-14/seg0/0"
    signals = QualitySignalSet(doc_id, 0, {}, {"rps_doc_word_count": [triple]})
    write_jsonl_gz(root / shard_path(ShardAddress("2023-14", 0, "en", "head"),
                                     "quality_signals"), [signals.to_json()])
    (tmp_path / "rules.json").write_text('{"rps_doc_word_count": {"<": 2}}')
    proc = _run_cli(["filter", "--preset", "rules.json", "--input", str(root),
                     "--output", str(tmp_path / "out")], {}, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert doc_id in lines[0] and "rps_doc_word_count" in lines[0]


@pytest.mark.parametrize("line", ["{not json", "[1, 2]", '{"text": 5}'])
def test_bad_training_corpus_exits_2_with_one_error_line(tmp_path, line):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text('{"text": "a fine line"}\n' + line + "\n")
    proc = _run_cli(["train", "hashed_lm", "--corpus", str(corpus),
                     "--model-output", str(tmp_path / "lm.json")], {}, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"error: {corpus}: line 2: "), proc.stderr


def test_stats_json_stdout_is_one_object_despite_bad_record(tmp_path, capsys):
    root = str(tmp_path / "corpus")
    path = _write_corpus(root, [f"document number {i}." for i in range(99)])
    with gzip.open(path, "at") as fh:
        fh.write("{broken\n")  # 1 bad line in 100 is within the 1% threshold
    assert main(["stats", "--input", root, "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["rows"]["Total"]["all"][0] == 99
    assert captured.err.startswith("warning: ")


def test_train_commands(tmp_path, capsys):
    def jsonl(name, rows):
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return str(path)

    pos = jsonl("pos.jsonl", [{"text": "good fine great"} for _ in range(6)])
    neg = jsonl("neg.jsonl", [{"text": "bad awful poor"} for _ in range(6)])
    clf_path = str(tmp_path / "clf.json")
    assert main(["train", "classifier", "--positive", pos, "--negative", neg,
                 "--model-output", clf_path, "--epochs", "5"]) == 0
    assert "training accuracy 1.0000" in capsys.readouterr().out

    # distinct texts so calibration sees distinct perplexities
    corpus = jsonl(
        "corpus.jsonl",
        [
            {"text": "the cat sat on the mat again and again"},
            {"text": "a dog ran across the park rather quickly today"},
            {"text": "numbers one two three four five six seven"},
            {"text": "entirely different unseen words everywhere now"},
        ],
    )
    lm_path = str(tmp_path / "lm.json")
    assert main(["train", "hashed_lm", "--corpus", corpus,
                 "--model-output", lm_path, "--buckets", "512"]) == 0

    kn_path = str(tmp_path / "kn.json")
    assert main(["train", "kn_lm", "--corpus", corpus,
                 "--model-output", kn_path, "--order", "3"]) == 0

    cut_path = str(tmp_path / "cutoffs.json")
    assert main(["calibrate", "--corpus", corpus, "--kn-model", kn_path,
                 "--model-output", cut_path]) == 0
    assert json.loads((tmp_path / "cutoffs.json").read_text())["kind"] == "bucket_cutoffs"

    # missing required argument -> config error
    assert main(["train", "classifier", "--model-output", clf_path]) == 1


def test_classifier_models_feed_filtering(tmp_path, corpus, capsys):
    def jsonl(name, rows):
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return str(path)

    pos = jsonl("pos.jsonl", [{"text": LONG_A} for _ in range(4)])
    neg = jsonl("neg.jsonl", [{"text": "spam words here"} for _ in range(4)])
    clf_path = str(tmp_path / "clf.json")
    assert main(["train", "classifier", "--positive", pos, "--negative", neg,
                 "--model-output", clf_path]) == 0

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input_root": corpus,
        "output_root": corpus,
        "snapshots": ["2023-14"],
        "languages": ["en"],
        "signals": ["ccnet", "natlang", "repetition", "content", "lines",
                    "rps_doc_ml_wikiref_score"],
        "models": {"classifiers": {"wikiref": clf_path}},
    }))
    assert main(["annotate", "--config", str(cfg), "--force"]) == 0
    sig_path = os.path.join(
        corpus, "quality_signals/2023-14/0000/en_head.signals.json.gz"
    )
    with gzip.open(sig_path, "rt") as fh:
        first = json.loads(fh.readline())
    assert "rps_doc_ml_wikiref_score" in first["quality_signals"]
