"""Pipeline-level contracts: determinism, dedup mode containment,
filter bookkeeping, and stats rendering."""

import gzip
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge import pipeline
from corpusforge.errors import ConfigError
from corpusforge.records import ShardAddress, shard_path, write_jsonl_gz

from conftest import make_doc
from oracles import QualitySignalSet


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


@pytest.mark.parametrize("mode", ["exact", "fuzzy"])
@pytest.mark.parametrize("snapshots", [
    pytest.param(["2023-14", "2022-49"], id="newest-first"),
    pytest.param([], id="all"),
    pytest.param(["2022-49", "2023-14"], id="oldest-first"),
])
def test_newest_snapshot_keeps_the_representative(tmp_path, snapshots, mode):
    root = str(tmp_path)
    _write_corpus(root, [LONG], snapshot="2023-14")
    _write_corpus(root, [LONG], snapshot="2022-49")
    pipeline.cmd_dedup(_cfg(root, snapshots=snapshots), mode)
    # the older snapshot's copy is the duplicate, whatever order selects them
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


def test_empty_ruleset_passes_documents_through(tmp_path, capsys):
    root = str(tmp_path / "in")
    out = str(tmp_path / "out")
    _write_corpus(root, [LONG, OTHER])
    rules = tmp_path / "empty.json"
    rules.write_text(json.dumps({"name": "noop"}))
    pipeline.cmd_filter(_cfg(root, output_root=out, ruleset=str(rules), apply_dedup=False))
    assert capsys.readouterr().err.splitlines() == ["warning: ruleset 'noop' is empty"]
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


# One generated document: for each line whether the line rule fires on
# it, whether the document rule fires, and whether it is a duplicate.
_filter_doc = st.tuples(
    st.lists(st.booleans(), min_size=1, max_size=4), st.booleans(), st.booleans()
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(_filter_doc, max_size=5), min_size=1, max_size=3))
def test_filter_counts_reconcile(shards):
    """kept + rewritten + dropped + duplicates = docs read; written docs =
    kept + rewritten; audit lines = rewritten + dropped + duplicates."""
    with tempfile.TemporaryDirectory() as tmp:
        root, out = os.path.join(tmp, "in"), os.path.join(tmp, "out")
        rules = os.path.join(tmp, "rules.json")
        Path(rules).write_text(json.dumps({
            "doc_rules": [{"signal": "rps_doc_word_count", "op": "<", "value": 1}],
            "line_rules": [{"signal": "rps_lines_num_words", "op": "<", "value": 1}],
        }))
        for shard, docs in enumerate(shards):
            addr = ShardAddress("2023-14", shard, "en", "head")
            texts = ["\n".join(f"w{i}" for i in range(len(lines)))
                     for lines, _, _ in docs]
            _write_corpus(root, texts, shard=shard)
            signal_lines, dup_lines = [], []
            for i, (text, (lines, doc_fires, duplicate)) in enumerate(zip(texts, docs)):
                doc_id = f"2023-14/seg{shard}/{i}"
                # line k is "w<k>\n", three characters from 3 * k
                signal_lines.append(QualitySignalSet(doc_id, i, {}, {
                    "rps_doc_word_count": [(0, len(text), 0 if doc_fires else 5)],
                    "rps_lines_num_words": [
                        (3 * k, 3 * k + 3, 0 if fires else 1) for k, fires in enumerate(lines)
                    ],
                }).to_json())
                if duplicate:
                    dup_lines.append(json.dumps({"doc_id": doc_id}))
            write_jsonl_gz(os.path.join(root, shard_path(addr, "quality_signals")),
                           signal_lines)
            write_jsonl_gz(os.path.join(root, shard_path(addr, "duplicates")), dup_lines)

        totals = pipeline.cmd_filter(_cfg(root, output_root=out, ruleset=rules))
        written = audited = 0
        for shard in range(len(shards)):
            doc_path = os.path.join(
                out, shard_path(ShardAddress("2023-14", shard, "en", "head"), "documents"))
            with gzip.open(doc_path, "rt") as fh:
                written += sum(1 for _ in fh)
            with gzip.open(doc_path.replace(".json.gz", ".audit.jsonl.gz"), "rt") as fh:
                audited += sum(1 for _ in fh)
    assert sum(totals.values()) == sum(len(docs) for docs in shards)
    assert written == totals["kept"] + totals["rewritten"]
    assert audited == totals["rewritten"] + totals["dropped"] + totals["duplicates"]


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in Path(root).rglob("*") if p.is_file()}


def test_filter_rerun_after_crash_between_shard_writes(tmp_path, monkeypatch):
    """A crash between a shard's audit and documents writes leaves a
    shard that the rerun processes again, so the tree matches a clean
    run's."""
    root = str(tmp_path / "in")
    for shard in (0, 1):
        _write_corpus(root, [LONG, "too short.", LONG, OTHER], shard=shard)
    pipeline.cmd_annotate(_cfg(root))
    pipeline.cmd_dedup(_cfg(root), "exact")
    clean, crashed = str(tmp_path / "clean"), str(tmp_path / "crashed")
    pipeline.cmd_filter(_cfg(root, output_root=clean, ruleset="gopher_full"))

    write = pipeline.write_jsonl_gz
    calls = []

    def fail_second_write(path, lines):
        calls.append(path)
        if len(calls) == 2:  # the first shard's second write
            raise OSError(f"failed writing {path}: injected fault")
        return write(path, lines)

    monkeypatch.setattr(pipeline, "write_jsonl_gz", fail_second_write)
    with pytest.raises(OSError, match="injected fault"):
        pipeline.cmd_filter(_cfg(root, output_root=crashed, ruleset="gopher_full"))
    pipeline.cmd_filter(_cfg(root, output_root=crashed, ruleset="gopher_full"))
    assert _tree_bytes(crashed) == _tree_bytes(clean)


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


def test_workers_parallel_matches_serial(tmp_path, capsys):
    """annotate, fuzzy and exact dedup and filter write the same bytes,
    and stats prints the same JSON, with one worker and with two. A
    near-duplicate cluster spans both shards, so fuzzy group numbering
    and representatives are compared too."""
    near = LONG + " appendix"  # Jaccard 51/52 over LONG's 13-word shingles
    page = "A first sentence here.\nnav menu\nPlease enable javascript.\nA last sentence."
    trees, stats = {}, {}
    for workers in (1, 2):
        root = str(tmp_path / f"workers{workers}")
        _write_corpus(root, [LONG, OTHER, page, "too short."], shard=0)
        _write_corpus(root, [OTHER.upper(), near, page + "\nOne more.", LONG], shard=1)
        pipeline.cmd_annotate(_cfg(root, workers=workers))
        pipeline.cmd_dedup(_cfg(root, workers=workers), "fuzzy")
        pipeline.cmd_filter(_cfg(root, output_root=os.path.join(root, "filtered"),
                                 ruleset="c4_full+gopher_full", workers=workers))
        pipeline.cmd_dedup(_cfg(root, output_root=os.path.join(root, "exact"),
                                workers=workers), "exact")
        capsys.readouterr()
        pipeline.cmd_stats(_cfg(root, workers=workers), as_json=True)
        stats[workers] = capsys.readouterr().out
        trees[workers] = _tree_bytes(root)
    assert trees[1] == trees[2]
    assert stats[1] == stats[2]
    assert json.loads(stats[2])["rows"]["en"]["head_middle_dedupe"][0] == 5
    exact = "exact/duplicates/2023-14/0001/en_head.duplicates.jsonl.gz"
    with gzip.open(os.path.join(str(tmp_path / "workers2"), exact), "rt") as fh:
        assert [r["doc_id"] for r in map(json.loads, fh)] == ["2023-14/seg1/3"]
    for shard in (0, 1):
        stem = f"2023-14/{shard:04d}/en_head"
        assert {f"quality_signals/{stem}.signals.json.gz", f"minhash/{stem}.minhash.jsonl.gz",
                f"duplicates/{stem}.duplicates.jsonl.gz", f"filtered/documents/{stem}.json.gz",
                f"filtered/documents/{stem}.audit.jsonl.gz"} <= trees[2].keys()
    dup = "duplicates/2023-14/0001/en_head.duplicates.jsonl.gz"
    with gzip.open(os.path.join(str(tmp_path / "workers2"), dup), "rt") as fh:
        records = {r["doc_id"]: r["representative_id"] for r in map(json.loads, fh)}
    assert records == {"2023-14/seg1/0": "2023-14/seg0/1", "2023-14/seg1/1": "2023-14/seg0/0",
                       "2023-14/seg1/3": "2023-14/seg0/0"}
