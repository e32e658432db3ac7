"""Pipeline-level contracts: determinism, dedup mode containment,
filter bookkeeping, and stats rendering."""

import gzip
import json
import os
from pathlib import Path

import pytest

from corpusforge import pipeline
from corpusforge.errors import ConfigError
from corpusforge.records import ShardAddress, shard_path, write_jsonl_gz

from conftest import make_doc


def _write_corpus(root, texts, snapshot="2023-14", language="en",
                  bucket="head", shard=0, **doc_overrides):
    addr = ShardAddress(snapshot, shard, language, bucket)
    docs = [
        make_doc(t, language=language, bucket=bucket,
                 cc_segment=f"{snapshot}/seg{shard}", **doc_overrides)
        for t in texts
    ]
    write_jsonl_gz(
        os.path.join(root, shard_path(addr, "documents")),
        (d.to_json() for d in docs),
    )


def _cfg(root, **kw):
    values = dict(input_root=root, output_root=root,
                  snapshots=["2023-14"], languages=["en"])
    values.update(kw)
    return pipeline.PipelineConfig(**values)


def _read_dup_ids(root, snapshot="2023-14", shard=0, language="en", bucket="head"):
    path = os.path.join(
        root, f"duplicates/{snapshot}/{shard:04d}/{language}_{bucket}.duplicates.jsonl.gz"
    )
    if not os.path.exists(path):
        return set()
    with gzip.open(path, "rt") as fh:
        return {json.loads(line)["doc_id"] for line in fh}


LONG = "the quick " + " ".join(f"word{i} extra{i}" for i in range(30)) + " and done."
OTHER = "the brisk " + " ".join(f"alt{i} more{i}" for i in range(30)) + " and over."


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="newest to oldest"):
        pipeline.PipelineConfig(snapshots=["2022-05", "2023-14"]).validate()
    with pytest.raises(ConfigError, match="workers"):
        pipeline.PipelineConfig(workers=0).validate()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mystery": 1}))
    with pytest.raises(ConfigError, match="unknown config key"):
        pipeline.PipelineConfig.load(str(bad))


def test_empty_corpus_dedup_is_clean(tmp_path):
    root = str(tmp_path)
    addr = ShardAddress("2023-14", 0, "en", "head")
    write_jsonl_gz(os.path.join(root, shard_path(addr, "documents")), [])
    summary = pipeline.cmd_dedup(_cfg(root), "exact")
    assert summary == {"mode": "exact", "documents": 0, "duplicates": 0}
    assert _read_dup_ids(root) == set()
    with pytest.raises(ConfigError, match="unknown dedup mode"):
        pipeline.cmd_dedup(_cfg(root), "psychic")


def test_fuzzy_at_level_one_contains_exact_duplicates(tmp_path):
    root = str(tmp_path / "c")
    _write_corpus(root, [LONG, OTHER, LONG, OTHER, LONG])
    pipeline.cmd_dedup(_cfg(root), "exact")
    exact_ids = _read_dup_ids(root)
    assert len(exact_ids) == 3  # two extra LONGs, one extra OTHER

    fuzzy_root = str(tmp_path / "f")
    _write_corpus(fuzzy_root, [LONG, OTHER, LONG, OTHER, LONG])
    pipeline.cmd_dedup(_cfg(fuzzy_root, jaccard=1.0), "fuzzy")
    fuzzy_ids = _read_dup_ids(fuzzy_root)
    assert exact_ids <= fuzzy_ids


def test_newest_snapshot_keeps_the_representative(tmp_path):
    root = str(tmp_path)
    _write_corpus(root, [LONG], snapshot="2023-14")
    _write_corpus(root, [LONG], snapshot="2022-49")
    cfg = _cfg(root, snapshots=["2023-14", "2022-49"])
    pipeline.cmd_dedup(cfg, "exact")
    # the older snapshot's copy is the duplicate
    assert _read_dup_ids(root, snapshot="2023-14") == set()
    assert _read_dup_ids(root, snapshot="2022-49") == {"2022-49/seg0/0"}


def test_annotate_rerun_is_byte_identical(tmp_path):
    root = str(tmp_path)
    _write_corpus(root, [LONG, OTHER])
    sig_path = os.path.join(
        root, "quality_signals/2023-14/0000/en_head.signals.json.gz"
    )
    pipeline.cmd_annotate(_cfg(root))
    first = Path(sig_path).read_bytes()
    pipeline.cmd_annotate(_cfg(root, force=True))
    assert Path(sig_path).read_bytes() == first


def test_empty_ruleset_passes_documents_through(tmp_path):
    root = str(tmp_path / "in")
    out = str(tmp_path / "out")
    _write_corpus(root, [LONG, OTHER])
    rules = tmp_path / "empty.json"
    rules.write_text(json.dumps({"name": "noop"}))
    with pytest.warns(UserWarning, match="empty"):
        pipeline.cmd_filter(_cfg(root, output_root=out, ruleset=str(rules),
                                 apply_dedup=False))
    src = os.path.join(root, "documents/2023-14/0000/en_head.json.gz")
    dst = os.path.join(out, "documents/2023-14/0000/en_head.json.gz")
    with gzip.open(src, "rb") as a, gzip.open(dst, "rb") as b:
        assert a.read() == b.read()


def test_filter_audit_bookkeeping(tmp_path):
    root = str(tmp_path / "in")
    out = str(tmp_path / "out")
    short = "too short."
    _write_corpus(root, [LONG, short, LONG, OTHER])
    pipeline.cmd_annotate(_cfg(root))
    pipeline.cmd_dedup(_cfg(root), "exact")
    totals = pipeline.cmd_filter(_cfg(root, output_root=out, ruleset="gopher_full"))
    assert totals == {"kept": 2, "rewritten": 0, "dropped": 1, "duplicates": 1}
    audit = os.path.join(out, "documents/2023-14/0000/en_head.audit.jsonl.gz")
    with gzip.open(audit, "rt") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == totals["dropped"] + totals["rewritten"] + totals["duplicates"]
    assert all(entry["fired_rules"] for entry in lines)


def test_filter_requires_signal_sidecar(tmp_path):
    root = str(tmp_path / "in")
    _write_corpus(root, [LONG])
    with pytest.raises(ConfigError, match="missing signals sidecar"):
        pipeline.cmd_filter(_cfg(root, output_root=str(tmp_path / "out"),
                                 ruleset="gopher_full"))


def test_stats_tail_only_corpus(tmp_path, capsys):
    root = str(tmp_path)
    _write_corpus(root, [LONG, OTHER], bucket="tail")
    result = pipeline.cmd_stats(_cfg(root))
    row = result["rows"]["en"]
    assert row["head_middle"] == [0, 0]
    assert row["head_middle_dedupe"] == [0, 0]
    assert row["all"] == row["tail"]
    capsys.readouterr()
    machine = pipeline.cmd_stats(_cfg(root), as_json=True)
    printed = json.loads(capsys.readouterr().out)
    assert printed["rows"]["Total"] == {
        c: list(v) for c, v in machine["rows"]["Total"].items()
    }


def test_train_same_seed_identical_bytes(tmp_path):
    rows = [{"text": "good fine great"}] * 4
    neg_rows = [{"text": "bad awful poor"}] * 4
    pos = tmp_path / "pos.jsonl"
    neg = tmp_path / "neg.jsonl"
    pos.write_text("\n".join(json.dumps(r) for r in rows))
    neg.write_text("\n".join(json.dumps(r) for r in neg_rows))
    cfg = pipeline.PipelineConfig(seed=5)
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for out in (out1, out2):
        pipeline.cmd_train(cfg, "classifier", {
            "positive": str(pos), "negative": str(neg),
            "output": str(out), "epochs": 4,
        })
    assert out1.read_bytes() == out2.read_bytes()


def test_workers_parallel_matches_serial(tmp_path):
    serial = str(tmp_path / "serial")
    parallel = str(tmp_path / "par")
    for root in (serial, parallel):
        _write_corpus(root, [LONG, OTHER], shard=0)
        _write_corpus(root, [OTHER, LONG], shard=1)
    pipeline.cmd_annotate(_cfg(serial, workers=1))
    pipeline.cmd_annotate(_cfg(parallel, workers=4))
    for shard in (0, 1):
        rel = f"quality_signals/2023-14/{shard:04d}/en_head.signals.json.gz"
        assert Path(serial, rel).read_bytes() == Path(parallel, rel).read_bytes()
