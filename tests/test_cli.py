"""CLI behavior: subcommands, exit codes, env overrides, restartability."""

import base64
import gzip
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpusforge
from corpusforge import cli, dedup, pipeline
from corpusforge.cli import main
from corpusforge.kneser_ney import DEFAULT_ORDER, kn_from_payload, kn_payload, train_kn_lm
from corpusforge.mlmodels import (
    classifier_payload,
    hashed_lm_payload,
    save_model,
    train_classifier,
    train_hashed_lm,
)
from corpusforge.records import (
    ShardAddress,
    content_digest,
    shard_path,
    write_jsonl_gz,
)
from corpusforge.signal_catalog import SIGNAL_GROUPS
from corpusforge.textnorm import number_words

from conftest import make_doc
from oracles import QualitySignalSet


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
    # record i is document i's, exact copies included; no banding fields
    texts = [LONG_A, LONG_B, LONG_A, LONG_A, near]
    for i, (sig, text) in enumerate(zip(sigs, texts, strict=True)):
        assert list(sig) == ["doc_id", "digest", "signature", "version"]
        assert sig["version"] == dedup.SIGNATURE_VERSION == 3
        assert sig["doc_id"] == f"2023-14/seg0/{i}"
        assert sig["digest"] == content_digest(text)
        assert _decoded(sig) == dedup.content_signatures([text])[1][0].tolist()
    assert sigs[0]["signature"] == sigs[2]["signature"] == sigs[3]["signature"]
    assert sigs[0]["signature"] != sigs[4]["signature"]


def _decoded(record) -> list[int]:
    """The 128 components of a minhash record: base64 of little-endian uint16s."""
    data = base64.b64decode(record["signature"], validate=True)
    assert len(record["signature"]) == 344 and len(data) == 256
    return [int.from_bytes(data[i:i + 2], "little") for i in range(0, 256, 2)]


def _tree(root) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_dedup_fuzzy_rerun_reuses_matching_sidecars(tmp_path, monkeypatch):
    """A rerun at another --jaccard takes every shard's signatures from
    its minhash sidecar, and leaves the tree of a fresh run."""
    reused, fresh = str(tmp_path / "reused"), str(tmp_path / "fresh")
    # 14 words appended: estimated Jaccard 0.758 and 0.797 to the originals,
    # duplicates at 0.7 but not at 0.8; shard 0 holds LONG_A three times
    tail = " " + " ".join(f"tail{j}" for j in range(14))
    for root in (reused, fresh):
        _write_corpus(root, [LONG_A, LONG_B, LONG_A + tail, LONG_A, LONG_A])
        _write_corpus(root, [LONG_B + tail, LONG_A, LONG_B], shard=1)
    argv = ["dedup", "--mode", "fuzzy", "--workers", "1"]
    assert main([*argv, "--jaccard", "0.8", "--input", reused, "--output", reused]) == 0
    assert main([*argv, "--jaccard", "0.7", "--input", fresh, "--output", fresh]) == 0
    assert _tree(reused) != _tree(fresh)

    def refuse(contents):
        raise AssertionError("signatures recomputed")

    monkeypatch.setattr(dedup, "content_signatures", refuse)
    assert main([*argv, "--jaccard", "0.7", "--input", reused, "--output", reused]) == 0
    assert _tree(reused) == _tree(fresh)


def test_dedup_fuzzy_force_recomputes_signatures(tmp_path, monkeypatch):
    root = str(tmp_path / "corpus")
    _write_corpus(root, [LONG_A, LONG_B])
    _write_corpus(root, [LONG_B, LONG_A], shard=1)
    argv = ["dedup", "--mode", "fuzzy", "--input", root, "--output", root]
    assert main(argv) == 0
    before = _tree(root)
    calls = []
    compute = dedup.content_signatures
    monkeypatch.setattr(dedup, "content_signatures",
                        lambda contents: calls.append(contents) or compute(contents))
    assert main(argv) == 0
    assert calls == []
    assert main([*argv, "--force"]) == 0
    assert calls == [[LONG_A, LONG_B], [LONG_B, LONG_A]]
    assert _tree(root) == before
    # --force does not read the sidecar, so a malformed one is rewritten
    sidecar = os.path.join(root, shard_path(ShardAddress("2023-14", 1, "en", "head"), "minhash"))
    write_jsonl_gz(sidecar, ["{not json"])
    assert main([*argv, "--force"]) == 0
    assert _tree(root) == before


def test_dedup_fuzzy_rewrites_minhash_sidecar_after_shard_changes(tmp_path):
    root = str(tmp_path / "corpus")
    argv = ["dedup", "--mode", "fuzzy", "--input", root, "--output", root]
    sidecar = os.path.join(
        root, shard_path(ShardAddress("2023-14", 0, "en", "head"), "minhash"))
    # a record more, then the same ids with other digests: both are stale
    for texts in ([LONG_A, LONG_B], [LONG_A, LONG_B, LONG_A + " omega"],
                  [LONG_B, LONG_A + " omega", LONG_A]):
        _write_corpus(root, texts)
        assert main(argv) == 0
        with gzip.open(sidecar, "rt") as fh:
            sigs = [json.loads(line) for line in fh]
        assert [s["doc_id"] for s in sigs] == [
            f"2023-14/seg0/{i}" for i in range(len(texts))]
        assert [s["digest"] for s in sigs] == list(map(content_digest, texts))
        assert [_decoded(s) for s in sigs] == dedup.content_signatures(texts)[1].tolist()


def test_dedup_fuzzy_rewrites_sidecar_of_another_signature_version(tmp_path):
    """A sidecar of an earlier signature definition (the right ids and
    digests, the base64 of 128 uint64s as versions 1 and 2 wrote them,
    with no version or version 2) is stale: a plain rerun recomputes and
    rewrites it."""
    fresh = str(tmp_path / "fresh")
    _write_corpus(fresh, [LONG_A, LONG_B, LONG_A])
    assert main(["dedup", "--mode", "fuzzy", "--input", fresh, "--output", fresh]) == 0
    earlier = base64.b64encode(bytes(range(8)) * 128).decode("ascii")
    for version in (None, 2):
        old = str(tmp_path / f"version-{version}")
        _write_corpus(old, [LONG_A, LONG_B, LONG_A])
        assert main(["dedup", "--mode", "fuzzy", "--input", old, "--output", old]) == 0
        sidecar = os.path.join(
            old, shard_path(ShardAddress("2023-14", 0, "en", "head"), "minhash"))
        with gzip.open(sidecar, "rt") as fh:
            records = [json.loads(line) for line in fh]
        versioned = {} if version is None else {"version": version}
        write_jsonl_gz(sidecar, (json.dumps({"doc_id": r["doc_id"], "digest": r["digest"],
                                             "signature": earlier, **versioned})
                                 for r in records))
        assert main(["dedup", "--mode", "fuzzy", "--input", old, "--output", old]) == 0
        with gzip.open(sidecar, "rt") as fh:
            assert [json.loads(line)["version"] for line in fh] == [dedup.SIGNATURE_VERSION] * 3
        assert _tree(old) == _tree(fresh)


def test_dedup_fuzzy_never_pairs_documents_without_words(tmp_path, capsys):
    """Two different contents without words share the signature of no
    shingles; neither mode calls one a duplicate of the other."""
    root = str(tmp_path / "corpus")
    _write_corpus(root, ["!!! ???", "*** ...", LONG_A])
    sidecar = os.path.join(
        root, shard_path(ShardAddress("2023-14", 0, "en", "head"), "duplicates"))
    for mode in ("exact", "fuzzy"):
        assert main(["dedup", "--mode", mode, "--input", root, "--output", root]) == 0
        with gzip.open(sidecar, "rt") as fh:
            assert fh.read() == "", mode
    assert capsys.readouterr().out.endswith(
        ": 3 docs, 0 candidate pairs, 0 duplicates (0.00%)\n")


def test_dedup_fuzzy_reuse_follows_the_content_not_its_digest_field(tmp_path, capsys):
    """A document whose content changed while its digest field did not
    gets a new signature: the sidecar is keyed on the content's digest."""
    root = str(tmp_path / "corpus")
    path = _write_corpus(root, [LONG_A, LONG_B])
    argv = ["dedup", "--mode", "fuzzy", "--input", root, "--output", root]
    assert main(argv) == 0
    docs = [json.loads(line) for line in gzip.decompress(Path(path).read_bytes()).splitlines()]
    docs[1]["raw_content"] = LONG_A
    write_jsonl_gz(path, map(json.dumps, docs))
    capsys.readouterr()
    assert main(argv) == 0
    rerun = capsys.readouterr().out
    assert rerun.endswith(": 2 docs, 1 candidate pairs, 1 duplicates (50.00%)\n"), rerun
    assert main([*argv, "--force"]) == 0
    assert capsys.readouterr().out == rerun


def test_dedup_exact_follows_the_content_not_its_digest_field(tmp_path, capsys):
    """A copy of document 0's content under a stale digest field is a
    duplicate, and another content under document 0's digest field is not."""
    root = str(tmp_path / "corpus")
    path = _write_corpus(root, [LONG_A, LONG_B])
    docs = [json.loads(line) for line in gzip.decompress(Path(path).read_bytes()).splitlines()]
    argv = ["dedup", "--mode", "exact", "--input", root, "--output", root]
    sidecar = os.path.join(
        root, shard_path(ShardAddress("2023-14", 0, "en", "head"), "duplicates"))
    for content, digest, duplicates in ((LONG_A, docs[1]["digest"], 1),
                                        (LONG_B, docs[0]["digest"], 0)):
        write_jsonl_gz(path, map(json.dumps, [docs[0], {**docs[1], "raw_content": content,
                                                        "digest": digest}]))
        assert main(argv) == 0
        assert f"total: 2 docs, {duplicates} duplicates;" in capsys.readouterr().out
        with gzip.open(sidecar, "rt") as fh:
            assert [json.loads(line)["doc_id"] for line in fh] == ["2023-14/seg0/1"] * duplicates


_SIGNATURE_1016 = base64.b64encode(bytes(1016)).decode("ascii")
_VERSION = dedup.SIGNATURE_VERSION


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("line", [
    pytest.param("{not json", id="not-json"),
    pytest.param("[1, 2]", id="not-an-object"),
    pytest.param('{"doc_id": "2023-14/seg1/1", "digest": "x"}', id="signature-missing"),
    pytest.param(json.dumps({"doc_id": "2023-14/seg1/1", "digest": "x",
                             "signature": list(range(128))}), id="decimal-list"),
    pytest.param(json.dumps({"doc_id": "2023-14/seg1/1", "digest": "x",
                             "signature": "!" * 1368}), id="bad-base64"),
    pytest.param(json.dumps({"doc_id": "2023-14/seg1/1", "digest": "x",
                             "signature": _SIGNATURE_1016, "version": _VERSION}),
                 id="1016-bytes"),
])
def test_malformed_minhash_sidecar_exits_2_with_one_error_line(tmp_path, line, workers):
    root = tmp_path / "corpus"
    for shard in range(3):
        _write_corpus(str(root), [LONG_A, LONG_B, f"shard {shard} has words."], shard=shard)
    argv = ["dedup", "--mode", "fuzzy", "--workers", str(workers),
            "--input", str(root), "--output", str(root)]
    assert main(argv) == 0
    sidecar = root / shard_path(ShardAddress("2023-14", 1, "en", "head"), "minhash")
    lines = gzip.decompress(sidecar.read_bytes()).decode().splitlines()
    lines[1] = line
    write_jsonl_gz(sidecar, lines)
    proc = _run_cli(argv, {}, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = proc.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error: {sidecar}: line 2: "), proc.stderr
    assert errors[0].endswith("; dedup --force recomputes it"), proc.stderr
    assert not list(root.rglob("*.tmp"))


def test_annotate_is_restartable(corpus, capsys):
    common = ["--input", corpus, "--output", corpus,
              "--snapshots", "2023-14", "--languages", "en"]
    assert main(["annotate", *common]) == 0
    capsys.readouterr()
    assert main(["annotate", *common]) == 0
    assert "1 skipped" in capsys.readouterr().out
    assert main(["annotate", *common, "--force"]) == 0
    assert "1 shard(s) written" in capsys.readouterr().out


@pytest.mark.parametrize("stray", ["2023-14/0/en_head.json.gz", "2023-14/5000/en_head.json.gz",
                                   "2023-14/0000/en.json.gz"])
def test_file_that_is_not_a_shard_name_is_warned_and_skipped(tmp_path, capsys, stray):
    root = tmp_path / "corpus"
    _write_corpus(str(root), [LONG_A, LONG_B])
    stray_path = root / "documents" / stray
    write_jsonl_gz(stray_path, [make_doc(LONG_A).to_json()])
    assert main(["annotate", "--input", str(root), "--output", str(root)]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [f"warning: {stray_path}: not a shard file name, skipped"]
    assert "annotate: 1 shard(s) written, 0 skipped" in out
    sidecar = root / shard_path(ShardAddress("2023-14", 0, "en", "head"), "quality_signals")
    with gzip.open(sidecar, "rt") as fh:
        assert [json.loads(line)["id"] for line in fh] == ["2023-14/seg0/0", "2023-14/seg0/1"]


@pytest.mark.parametrize("argv", [
    ["annotate"],
    ["dedup", "--mode", "exact"],
    ["dedup", "--mode", "fuzzy"],
    ["filter", "--preset", "gopher_full"],
    ["stats", "--json"],
], ids=["annotate", "exact", "fuzzy", "filter", "stats"])
def test_empty_input_is_one_warning_line(tmp_path, capsys, argv):
    root = tmp_path / "empty"
    root.mkdir()
    assert main(argv + ["--input", str(root), "--output", str(tmp_path / "out")]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [f"warning: no document shards found under {root}"]
    if argv[0] == "stats":
        assert json.loads(out)["rows"]["Total"]["all"] == [0, 0]


def test_usage_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--help"])
    assert exc.value.code == 0


def test_config_error_exit_code(tmp_path, capsys):
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


@pytest.mark.parametrize("workers, signals", [
    pytest.param("1", [], id="1"), pytest.param("2", [], id="2"),
    pytest.param("1", ["--signals", "content"], id="content-1"),
    pytest.param("2", ["--signals", "content"], id="content-2"),
])
def test_document_in_unloaded_language_exits_2(tmp_path, capsys, workers, signals):
    # an en_head shard whose second record says "pt": no stop-word or
    # LDNOOBW list is loaded for it, which is a fault of the record; with
    # --signals content only the LDNOOBW list is looked up
    root = str(tmp_path / "corpus")
    path = os.path.join(root, shard_path(ShardAddress("2023-14", 0, "en", "head"), "documents"))
    docs = [make_doc("An English line.", cc_segment="2023-14/seg0"),
            make_doc("Uma linha em português.", cc_segment="2023-14/seg0", language="pt")]
    write_jsonl_gz(path, (d.to_json() for d in docs))
    assert main(["annotate", "--workers", workers, *signals,
                 "--input", root, "--output", root]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert path in err and "2023-14/seg0/1" in err and "'pt'" in err, err
    assert not list(Path(root).rglob("*.tmp"))


@pytest.mark.parametrize("env, argv, written", [
    pytest.param({}, ["--signals", "ccnet,repetition,lines", "--languages", "pt"], ["pt"],
                 id="no-stop-words-for-pt"),
    pytest.param({"CORPUSFORGE_UT1_DIR": "missing"}, ["--signals", "natlang"], ["en"],
                 id="no-ut1-for-natlang"),
    pytest.param({}, ["--signals", "ccnet,repetition,lines", "--languages", ""], ["en", "pt"],
                 id="language-free-groups-read-every-language"),
])
def test_annotate_loads_only_the_word_lists_its_signals_read(tmp_path, monkeypatch, capsys,
                                                            env, argv, written):
    # no stop-word list is vendored for pt, and no UT1 directory exists at
    # "missing": neither is read unless a natlang or content signal is
    root = str(tmp_path / "corpus")
    for language in ("en", "pt"):
        _write_corpus(root, [LONG_A], language=language)
    monkeypatch.chdir(tmp_path)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert main(["annotate", *argv, "--input", root, "--output", root]) == 0, \
        capsys.readouterr().err
    sidecars = Path(root).rglob("*.signals.json.gz")
    assert sorted(path.name.split("_")[0] for path in sidecars) == written


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
    pytest.param({}, None, ["annotate", "--signals", "rps_doc_bogus"],
                 id="annotate-unknown-signal"),
    pytest.param({}, None, ["annotate", "--signals", "rps_doc_ml_wikiref_score"],
                 id="classifier-signal-without-model"),
    pytest.param({}, None, ["annotate", "--signals", "rps_doc_books_importance"],
                 id="importance-signal-without-model"),
    pytest.param({}, None, ["filter", "--preset", "rpv1_code"],
                 id="ruleset-needs-missing-signals"),
    pytest.param({"CORPUSFORGE_FORCE": "ture"}, None, ["annotate"], id="env-bool-typo"),
    pytest.param({"CORPUSFORGE_MODELS": '{"classifiers": "x"}'}, None, ["annotate"],
                 id="env-models-classifiers-not-object"),
    pytest.param({"CORPUSFORGE_MODELS": '{"importance": {"books": "x"}}'}, None,
                 ["annotate"], id="env-models-importance-not-pair"),
    pytest.param({"CORPUSFORGE_MODELS": '{"kn_lm": "no_payload.json"}'}, None,
                 ["annotate"], id="model-file-without-payload"),
    pytest.param({"CORPUSFORGE_MODELS": '{"kn": "does_not_exist.json"}'}, None,
                 ["annotate"], id="models-unknown-key"),
    pytest.param({}, None, ["filter", "--preset", "rules_list.json"],
                 id="rule-file-not-object"),
    pytest.param({}, None, ["filter", "--preset", "rules_no_op.json"],
                 id="rule-entry-without-op"),
    pytest.param({}, None, ["filter", "--preset", "rules_doc_rules_int.json"],
                 id="rule-doc-rules-not-list"),
    pytest.param({}, None, ["filter", "--preset", "rules_signal_list.json"],
                 id="rule-signal-not-string"),
    pytest.param({}, None, ["filter", "--preset", "rules_reason_int.json"],
                 id="rule-reason-not-string"),
    pytest.param({}, None, ["filter", "--preset", "rules_reason_list.json"],
                 id="rule-reason-list"),
    pytest.param({}, None, ["dedup", "--mode", "fuzzy", "--jaccard", "1.5"],
                 id="jaccard-above-1"),
    pytest.param({}, None, ["dedup", "--mode", "exact", "--bloom-capacity", "1" + "0" * 30],
                 id="bloom-capacity-past-an-index"),
    pytest.param({}, None, ["annotate", "--config", "unreadable/config.json"],
                 id="config-not-utf8"),
    pytest.param({}, None, ["filter", "--preset", "unreadable/rules.json"],
                 id="rule-file-not-utf8"),
    pytest.param({"CORPUSFORGE_MODELS": '{"kn_lm": "unreadable/model.json"}'}, None,
                 ["annotate"], id="model-file-not-utf8"),
    pytest.param({"CORPUSFORGE_STOPWORD_DIR": "unreadable/stopwords"}, None, ["annotate"],
                 id="stopword-list-not-utf8"),
    pytest.param({"CORPUSFORGE_UT1_DIR": "unreadable/ut1"}, None, ["annotate"],
                 id="ut1-file-not-utf8"),
    pytest.param({"CORPUSFORGE_UT1_DIR": "unreadable/ut1_dir"}, None, ["annotate"],
                 id="ut1-txt-is-a-directory"),
    pytest.param({}, None, ["annotate", "--config", "deep.json"], id="config-nested-too-deep"),
    pytest.param({}, None, ["filter", "--preset", "deep.json"], id="rule-file-nested-too-deep"),
    pytest.param({"CORPUSFORGE_MODELS": '{"kn_lm": "deep.json"}'}, None, ["annotate"],
                 id="model-file-nested-too-deep"),
    pytest.param({"CORPUSFORGE_MODELS": '{"classifiers": {"wikiref": "bias_not_number.json"}}'},
                 None, ["annotate", "--signals", "rps_doc_ml_wikiref_score"],
                 id="model-file-bias-not-number"),
    pytest.param({}, None, ["annotate", "--languages", ""], id="languages-empty-flag"),
    pytest.param({"CORPUSFORGE_LANGUAGES": ""}, None, ["annotate"], id="languages-empty-env"),
    pytest.param({}, {"languages": []}, ["annotate"], id="languages-empty-config"),
    pytest.param({}, None, ["annotate", "--bogus"], id="unknown-option"),
    pytest.param({}, None, ["train", "classifier"], id="train-without-model-output"),
])
def test_bad_config_exits_1_with_one_error_line(corpus, tmp_path, env, config, argv):
    # the corpus carries the default signals, which have no rps_code_*
    assert main(["annotate", "--input", corpus, "--output", corpus]) == 0
    # a model container without payload or hash, a classifier whose bias
    # is not a number, and two broken rule files, for relative paths
    (tmp_path / "no_payload.json").write_text('{"kind": "kneser_ney"}')
    (tmp_path / "bias_not_number.json").write_text(json.dumps(
        {"kind": "classifier", "hash": "0", "payload": {"dim": 4, "bias": "x", "weights": {}}}))
    (tmp_path / "rules_list.json").write_text("[1, 2]")
    (tmp_path / "rules_no_op.json").write_text(
        '{"doc_rules": [{"signal": "rps_doc_word_count", "value": 5}]}')
    (tmp_path / "rules_doc_rules_int.json").write_text('{"doc_rules": 5}')
    (tmp_path / "rules_signal_list.json").write_text(
        '{"doc_rules": [{"signal": ["rps_doc_word_count"], "op": "<", "value": 5}]}')
    # rules that fire on every document of the corpus, one with a reason
    # that is not a string
    (tmp_path / "rules_reason_int.json").write_text(json.dumps({"doc_rules": [
        {"signal": "rps_doc_word_count", "op": ">=", "value": 0, "reason": 5},
        {"signal": "rps_doc_word_count", "op": ">=", "value": 0}]}))
    (tmp_path / "rules_reason_list.json").write_text(json.dumps({"line_rules": [
        {"signal": "rps_lines_num_words", "op": ">=", "value": 0, "reason": ["x"]}]}))
    # JSON nested deeper than the parser recurses
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    # Latin-1 files where UTF-8 is expected, and a UT1 category that is a
    # directory
    bad = tmp_path / "unreadable"
    for name in ("config.json", "rules.json", "model.json", "stopwords/en.txt", "ut1/adult.txt"):
        (bad / name).parent.mkdir(parents=True, exist_ok=True)
        (bad / name).write_bytes(b"caf\xe9\n")
    (bad / "ut1_dir" / "adult.txt").mkdir(parents=True)
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
    for value in [*argv, *env.values()]:
        for word in value.split('"'):
            if word.startswith("unreadable/"):
                assert word in lines[0], proc.stderr  # and the unreadable file


def _run_cli(argv, env, cwd):
    """The CLI in its own process, so a traceback would reach stderr."""
    src = os.path.dirname(os.path.dirname(corpusforge.__file__))
    return subprocess.run(
        [sys.executable, "-m", "corpusforge.cli", *argv],
        env={**os.environ, "PYTHONPATH": src, **env},
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _write_models(root):
    """Model files, valid and broken, under `root`."""
    lm = hashed_lm_payload(train_hashed_lm([["alpha0", "beta0"]], buckets=16))
    clf = classifier_payload(train_classifier([["alpha0"]], [["delta0"]], epochs=2, dim=64))
    kn = kn_payload(train_kn_lm([LONG_A.split()], order=3))
    for name, kind, payload in [
        ("lm16.json", "hashed_lm", lm),
        ("lm32.json", "hashed_lm", hashed_lm_payload(train_hashed_lm([["x"]], buckets=32))),
        ("lm_short.json", "hashed_lm", {**lm, "counts": lm["counts"][:-1]}),
        ("clf_at_dim.json", "classifier", {**clf, "weights": {"64": 0.5}}),
        ("clf_negative.json", "classifier", {**clf, "weights": {"-1": 0.5}}),
        # order-3 histories lose their order-2 suffixes
        ("kn_open.json", "kneser_ney", {**kn, "counts": {**kn["counts"], "2": {}}}),
        ("kn_discount.json", "kneser_ney", {**kn, "discount": 1.5}),
        ("kn_negative.json", "kneser_ney",
         {**kn, "counts": {**kn["counts"], "1": dict.fromkeys(kn["counts"]["1"], -1)}}),
        ("kn_fraction.json", "kneser_ney",
         {**kn, "counts": {**kn["counts"], "1": dict.fromkeys(kn["counts"]["1"], 1.5)}}),
    ]:
        save_model(str(root / name), kind, payload)


@pytest.mark.parametrize("models, signal", [
    pytest.param({"importance": {"wikipedia": {"target": "lm_short.json",
                                               "source": "lm16.json"}}},
                 "rps_doc_wikipedia_importance", id="hashed-lm-counts-short"),
    pytest.param({"importance": {"wikipedia": {"target": "lm16.json",
                                               "source": "lm32.json"}}},
                 "rps_doc_wikipedia_importance", id="importance-pair-bucket-mismatch"),
    pytest.param({"classifiers": {"wikiref": "clf_at_dim.json"}},
                 "rps_doc_ml_wikiref_score", id="classifier-weight-key-at-dim"),
    pytest.param({"classifiers": {"wikiref": "clf_negative.json"}},
                 "rps_doc_ml_wikiref_score", id="classifier-weight-key-negative"),
    pytest.param({"kn_lm": "kn_open.json"}, "ccnet_perplexity",
                 id="kn-not-suffix-closed"),
    pytest.param({"kn_lm": "kn_discount.json"}, "ccnet_perplexity",
                 id="kn-discount-out-of-range"),
    pytest.param({"kn_lm": "kn_negative.json"}, "ccnet_perplexity",
                 id="kn-count-negative"),
    pytest.param({"kn_lm": "kn_fraction.json"}, "ccnet_perplexity",
                 id="kn-count-not-an-integer"),
])
def test_malformed_model_exits_1_at_startup(corpus, tmp_path, models, signal):
    _write_models(tmp_path)
    out = tmp_path / "out"
    proc = _run_cli(["annotate", "--signals", signal, "--input", corpus, "--output", str(out)],
                    {"CORPUSFORGE_MODELS": json.dumps(models)}, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert ".json" in lines[0], proc.stderr  # the error names a model file
    assert not out.exists() or not any(out.rglob("*")), "annotate wrote output"


@pytest.mark.parametrize("argv", [
    ["annotate", "--signals", "natlang,rps_doc_ml_wikiref_score"],
    ["dedup", "--mode", "fuzzy"],
])
def test_lone_surrogate_is_a_bad_record(tmp_path, argv, monkeypatch):
    root = tmp_path / "corpus"
    addr = ShardAddress("2023-14", 0, "en", "head")
    lines = [make_doc(f"document number {i}.").to_json() for i in range(99)]
    # json.dumps escapes the surrogate as \ud800, the way it reaches a shard
    lines.insert(50, json.dumps(json.loads(make_doc("x").to_json())
                                | {"raw_content": "bad \ud800 text"}))
    write_jsonl_gz(root / shard_path(addr, "documents"), lines)
    save_model(str(tmp_path / "clf.json"), "classifier", classifier_payload(
        train_classifier([["document"]], [["number"]], epochs=2, dim=64)))
    monkeypatch.setenv("CORPUSFORGE_MODELS", json.dumps(
        {"classifiers": {"wikiref": str(tmp_path / "clf.json")}}))
    assert main([*argv, "--input", str(root), "--output", str(root)]) == 0
    kind = "quality_signals" if argv[0] == "annotate" else "minhash"
    with gzip.open(root / shard_path(addr, kind), "rt") as fh:
        assert sum(1 for _ in fh) == 99
    assert not list(root.rglob("*.tmp"))


@pytest.mark.parametrize("damage", ["truncated-shard", "non-utf8-shard", "corrupt-shard",
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
    elif damage == "corrupt-shard":
        # the first deflate byte after the 10-byte gzip header: an invalid block type
        data = bytearray(shard.read_bytes())
        data[10] = 0xFF
        shard.write_bytes(data)
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


# a number too large for a float, and an integer past Python's limit on
# the digits of an integer it converts from text
@pytest.mark.parametrize("field, value", [("perplexity", "1" * 401), ("nlines", "1" * 5001)],
                         ids=["float-overflow", "digit-limit"])
def test_huge_integer_in_a_document_is_a_bad_record(tmp_path, field, value):
    root = tmp_path / "corpus"
    lines = [make_doc(f"document number {i}.").to_json() for i in range(100)]
    good = {"perplexity": '"perplexity":320.5', "nlines": '"nlines":1'}[field]
    lines.insert(50, make_doc("x").to_json().replace(good, f'"{field}":{value}'))
    write_jsonl_gz(root / shard_path(ShardAddress("2023-14", 0, "en", "head"), "documents"),
                   lines)
    proc = _run_cli(["stats", "--json", "--input", str(root)], {}, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rows"]["Total"]["all"][0] == 100
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ") and ": line 51: " in err[0], err
    assert field in err[0] or "digits" in err[0], err


def test_carriage_return_inside_a_record_is_json_whitespace(tmp_path, capsys):
    """A raw \\r between the JSON tokens of line 6 leaves it one valid
    record on one line, so the one bad line, line 150, is the only
    warning and names its own line."""
    root = tmp_path / "corpus"
    lines = [make_doc(f"document number {i}.").to_json() for i in range(200)]
    lines[5] = lines[5].replace(',"date_download"', ',\r"date_download"', 1)
    lines[149] = "{broken"
    write_jsonl_gz(root / shard_path(ShardAddress("2023-14", 0, "en", "head"), "documents"),
                   lines)
    assert main(["stats", "--json", "--input", str(root)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["rows"]["Total"]["all"][0] == 199
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ") and ": line 150: " in err[0], err


def test_huge_integer_in_a_signals_sidecar_exits_2(tmp_path):
    root = tmp_path / "corpus"
    _write_corpus(str(root), ["one two three"])
    signals = QualitySignalSet("2023-14/seg0/0", 0, {}, {"rps_doc_word_count": [(0, 13, 3)]})
    sidecar = root / shard_path(ShardAddress("2023-14", 0, "en", "head"), "quality_signals")
    write_jsonl_gz(sidecar, [signals.to_json().replace("[0,13,3]", f"[0,13,{'1' * 5001}]")])
    (tmp_path / "rules.json").write_text('{"rps_doc_word_count": {"<": 2}}')
    proc = _run_cli(["filter", "--preset", "rules.json", "--input", str(root),
                     "--output", str(tmp_path / "out")], {}, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {sidecar}: line 1: "), lines


@pytest.mark.parametrize("argv, kind", [
    (["annotate"], "quality_signals"),
    (["dedup", "--mode", "fuzzy"], "minhash"),
    (["dedup", "--mode", "exact"], "duplicates"),
    (["stats"], "duplicates"),  # stats writes no files
])
@pytest.mark.parametrize("sizes, bad", [
    pytest.param((3000, 300), 0, id="cut-shard-first"),
    pytest.param((1500, 50), 1, id="cut-shard-second"),
])
def test_truncated_shard_under_workers_exits_2_and_stops(tmp_path, argv, kind, sizes, bad):
    """Shards 0 and 1 have `sizes` documents, and shard `bad` is cut in
    half; six small shards follow. When the cut shard comes first, its
    error terminates the worker busy writing shard 1, which must remove
    its .tmp file. When it comes second, the other worker is still busy
    with the large shard 0, and the small shards, not yet started, must
    not run."""
    root = tmp_path / "corpus"
    paths = [
        Path(_write_corpus(str(root), [f"shard {s} document {i} has a few words."
                                       for i in range((*sizes, *[50] * 6)[s])], shard=s))
        for s in range(8)
    ]
    data = paths[bad].read_bytes()
    paths[bad].write_bytes(data[: len(data) // 2])
    proc = _run_cli([*argv, "--workers", "2", "--input", str(root), "--output", str(root)],
                    {}, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"error: failed reading {paths[bad]}"), proc.stderr
    assert not list(root.rglob("*.tmp"))
    assert len(list(root.glob(f"{kind}/**/*.gz"))) <= 2


def test_filter_missing_sidecar_under_workers_exits_1(tmp_path):
    root = tmp_path / "corpus"
    for shard in range(4):
        _write_corpus(str(root), [f"document number {i} has a few words." for i in range(50)],
                      shard=shard)
    assert main(["annotate", "--input", str(root), "--output", str(root)]) == 0
    addr = ShardAddress("2023-14", 2, "en", "head")
    missing = root / shard_path(addr, "quality_signals")
    missing.unlink()
    out = tmp_path / "out"
    proc = _run_cli(["filter", "--preset", "gopher_natlang", "--workers", "2",
                     "--input", str(root), "--output", str(out)], {}, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines == [f"error: missing signals sidecar for shard "
                     f"{shard_path(addr, 'documents')}: {missing}"], proc.stderr
    assert not list(out.rglob("*.tmp"))


@pytest.mark.parametrize("output, force", [
    ("corpus", []), ("corpus", ["--force"]), ("corpus/../corpus/.", []),
], ids=["same", "same-force", "same-spelled-otherwise"])
def test_filter_output_equal_to_input_exits_1(tmp_path, capsys, output, force):
    root = tmp_path / "corpus"
    path = _write_corpus(str(root), [LONG_A, LONG_B, LONG_A, "short", "tiny text"])
    assert main(["annotate", "--input", str(root), "--output", str(root)]) == 0
    before = Path(path).read_bytes()
    capsys.readouterr()
    assert main(["filter", "--preset", "gopher_full", "--input", str(root),
                 "--output", str(tmp_path / output), *force]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert Path(path).read_bytes() == before


@pytest.mark.parametrize("argv", [["annotate"], ["dedup", "--mode", "fuzzy"],
                                  ["dedup", "--mode", "exact"], ["stats"]])
def test_worker_warning_reaches_stderr(tmp_path, argv):
    """A forked worker's warning reaches the command's stderr, which
    capsys cannot see, so the CLI runs in its own process."""
    root = tmp_path / "corpus"
    path = _write_corpus(str(root), [f"document number {i}." for i in range(100)])
    _write_corpus(str(root), [f"document number {i}." for i in range(100)], shard=1)
    with gzip.open(path, "at") as fh:
        fh.write("{broken\n")  # line 101: 1 bad line in 101 is within the threshold
    proc = _run_cli([*argv, "--workers", "2", "--input", str(root), "--output", str(root)],
                    {}, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"warning: {path}: line 101: "), proc.stderr


@pytest.mark.parametrize("argv", [["annotate"], ["dedup", "--mode", "exact"], ["stats"]])
def test_worker_warnings_reach_stderr_in_shard_order(tmp_path, argv):
    """Shard 0 is large and its bad line is its last; shards 1-3 each open
    with a bad line, which a second worker reads before shard 0's. The
    main process prints every warning, in shard order, so stderr is the
    same from 2 workers as from 1."""
    root = tmp_path / "corpus"
    for shard, size in enumerate([3000, 100, 100, 100]):
        lines = [make_doc(f"shard {shard} document {i} has words.",
                          cc_segment=f"2023-14/seg{shard}").to_json() for i in range(size)]
        lines.insert(size if shard == 0 else 0, "{broken")
        write_jsonl_gz(root / shard_path(ShardAddress("2023-14", shard, "en", "head"),
                                         "documents"), lines)
    errs = []
    for workers in ("1", "2"):
        proc = _run_cli([*argv, "--workers", workers, "--input", str(root),
                         "--output", str(tmp_path / f"out{workers}")], {}, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        errs.append(proc.stderr)
    assert errs[1] == errs[0]
    lines = errs[0].splitlines()
    assert len(lines) == 4 and all(line.startswith("warning: ") for line in lines), errs
    assert ": line 3001: " in lines[0] and all(": line 1: " in line for line in lines[1:])


# each case but the last is one bad triple in the signal's list; the last
# gives the signal the value 5, which is no list at all
@pytest.mark.parametrize("triple", [[0, 5], [0, 5, "many"],
                                    pytest.param(5, id="triple-not-a-list"),
                                    pytest.param([0, 5, True], id="score-bool"),
                                    pytest.param(None, id="value-not-a-list")])
def test_malformed_signal_triple_exits_2_with_one_error_line(tmp_path, triple):
    root = tmp_path / "corpus"
    _write_corpus(str(root), ["one two three"])
    doc_id = "2023-14/seg0/0"
    value = 5 if triple is None else [triple]
    signals = QualitySignalSet(doc_id, 0, {}, {"rps_doc_word_count": value})
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


def test_misaligned_record_after_a_malformed_triple_is_the_error(tmp_path):
    """A malformed triple in record 1 and a wrong id in record 3: the
    sidecar's misalignment is reported, though the triple comes first."""
    root = tmp_path / "corpus"
    _write_corpus(str(root), ["one two three"] * 3)
    records = [QualitySignalSet(f"2023-14/seg0/{i}", i, {}, {"rps_doc_word_count": [(0, 13, 3)]})
               for i in range(3)]
    records[0].quality_signals["rps_doc_word_count"] = [(0, 13, "three")]
    records[2].id = "2023-14/seg0/9"
    sidecar = root / shard_path(ShardAddress("2023-14", 0, "en", "head"), "quality_signals")
    write_jsonl_gz(sidecar, [r.to_json() for r in records])
    (tmp_path / "rules.json").write_text('{"rps_doc_word_count": {"<": 2}}')
    proc = _run_cli(["filter", "--preset", "rules.json", "--input", str(root),
                     "--output", str(tmp_path / "out")], {}, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: {sidecar}: line 3: record id '2023-14/seg0/9', expected '2023-14/seg0/2'"]


def _damage_sidecar(lines: list[str], damage: str) -> list[str]:
    """The records of a five-document sidecar with one fault."""
    third = json.loads(lines[2])
    if damage == "truncated-line":
        lines[2] = lines[2][: len(lines[2]) // 2]
    elif damage == "signals-not-object":
        lines[2] = json.dumps({**third, "quality_signals": []})
    elif damage == "record-missing":
        del lines[2]
    elif damage == "extra-record":
        lines.append(json.dumps({**third, "id": third["id"].rsplit("/", 1)[0] + "/5"}))
    elif damage == "records-swapped":
        lines[1], lines[2] = lines[2], lines[1]
    elif damage == "repeated-id":
        lines.insert(2, lines[1])
    return lines


@pytest.mark.parametrize("damage", ["truncated-line", "signals-not-object",
                                    "record-missing", "extra-record",
                                    "records-swapped", "repeated-id"])
def test_misaligned_signal_sidecar_exits_2_with_one_error_line(tmp_path, damage):
    root = tmp_path / "corpus"
    _write_corpus(str(root), [f"document number {i} has a few words." for i in range(5)])
    assert main(["annotate", "--input", str(root), "--output", str(root)]) == 0
    sidecar = root / shard_path(ShardAddress("2023-14", 0, "en", "head"),
                                "quality_signals")
    with gzip.open(sidecar, "rt") as fh:
        lines = fh.read().splitlines()
    write_jsonl_gz(sidecar, _damage_sidecar(lines, damage))
    out = tmp_path / "out"
    proc = _run_cli(["filter", "--preset", "gopher_natlang", "--input", str(root),
                     "--output", str(out)], {}, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {sidecar}"), proc.stderr
    assert not out.exists() or not list(out.rglob("*.json.gz"))


def test_document_changed_after_annotate_exits_2(tmp_path, capsys):
    root = str(tmp_path / "corpus")
    text = "A first line with enough words here.\nA second line with enough words."
    _write_corpus(root, [text])
    assert main(["annotate", "--input", root, "--output", root]) == 0
    _write_corpus(root, [text + "\nA third line the signals never saw."])
    argv = ["filter", "--preset", "c4_lines", "--input", root,
            "--output", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2023-14/seg0/0" in err and "rps_lines_num_words" in err


def test_line_ids_not_matching_nlines_exits_2(tmp_path, capsys):
    # seven lines, every other one too short for c4_lines, so the filter
    # rewrites the document, which names two line ids only
    root = str(tmp_path / "corpus")
    text = "\n".join("A line with plenty of words in it." if i % 2 == 0 else "short"
                     for i in range(7))
    doc = make_doc(text, cc_segment="2023-14/seg0", line_ids=[0, 1])
    addr = ShardAddress("2023-14", 0, "en", "head")
    write_jsonl_gz(os.path.join(root, shard_path(addr, "documents")), [doc.to_json()])
    assert main(["annotate", "--input", root, "--output", root]) == 0
    argv = ["filter", "--preset", "c4_lines", "--input", root,
            "--output", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2023-14/seg0/0" in err and "line_ids" in err


_DYING_WORKER = """
import multiprocessing, os, sys
from corpusforge import annotate, cli
annotate_shard = annotate.annotate_shard
def dying(docs, *args):
    for i, line in enumerate(annotate_shard(docs, *args)):
        if i == 1 and docs[0].raw_content == "shard 2 document 0 has words.":
            os._exit(3)  # as the OOM killer would end the worker, mid-write
        yield line
annotate.annotate_shard = dying
rc = cli.main(sys.argv[1:])
assert not multiprocessing.active_children()
sys.exit(rc)
"""


def test_dead_worker_exits_2_naming_its_shard(tmp_path):
    root = tmp_path / "corpus"
    paths = [_write_corpus(str(root), [f"shard {s} document {i} has words." for i in range(20)],
                           shard=s) for s in range(4)]
    src = os.path.dirname(os.path.dirname(corpusforge.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _DYING_WORKER, "annotate", "--workers", "2",
         "--input", str(root), "--output", str(root)],
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {paths[2]}: worker "), proc.stderr
    assert not list(root.rglob("*.tmp"))


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


@pytest.mark.parametrize("kind, inputs", [
    ("hashed_lm", ["--corpus"]),
    ("classifier", ["--positive", "--negative"]),
    ("kn_lm", ["--corpus"]),
], ids=["hashed_lm", "classifier", "kn_lm"])
def test_lone_surrogate_in_training_corpus_exits_2(tmp_path, kind, inputs):
    corpus = tmp_path / "bad.jsonl"
    # json.dumps escapes the surrogate as \ud800, the way it reaches a file
    corpus.write_text('{"text": "a fine line"}\n'
                      + json.dumps({"text": "bad \ud800 words"}) + "\n")
    model = tmp_path / "model.json"
    argv = ["train", kind, "--model-output", str(model)]
    for flag in inputs:
        argv += [flag, str(corpus)]
    proc = _run_cli(argv, {}, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"error: {corpus}: line 2: "), proc.stderr
    assert "surrogate" in lines[0]
    assert not model.exists()


def test_code_signals_feed_rpv1_code(tmp_path, capsys):
    root = str(tmp_path / "corpus")
    code = "def main():\n    return compute(value)\n"
    long_line = "a" * 1001 + "\n" + "\n".join(["abcd"] * 99)
    docs = [
        make_doc(code, url="https://example.org/src/app.py?raw=1"),
        make_doc(code, url="https://example.org/notes/app.txt"),
        make_doc(long_line, url="https://example.org/src/long.py"),
    ]
    addr = ShardAddress("2023-14", 0, "en", "head")
    write_jsonl_gz(os.path.join(root, shard_path(addr, "documents")),
                   (d.to_json() for d in docs))
    assert main(["annotate", "--signals", "code", "--input", root,
                 "--output", root]) == 0
    with gzip.open(os.path.join(root, shard_path(addr, "quality_signals")), "rt") as fh:
        names = {n for line in fh for n in json.loads(line)["quality_signals"]}
    assert names == set(SIGNAL_GROUPS["code"])

    out = str(tmp_path / "out")
    assert main(["filter", "--preset", "rpv1_code", "--input", root,
                 "--output", out]) == 0
    assert "kept 1, rewritten 0, dropped 2" in capsys.readouterr().out
    seg = docs[0].cc_segment
    audit = os.path.join(out, shard_path(addr, "documents")).replace(
        ".json.gz", ".audit.jsonl.gz")
    with gzip.open(audit, "rt") as fh:
        fired = {r["doc_id"]: [reason for reason, _ in r["fired_rules"]]
                 for r in map(json.loads, fh)}
    assert fired == {f"{seg}/1": ["extension-not-whitelisted"],
                     f"{seg}/2": ["max-line-length-above-1000"]}
    with gzip.open(os.path.join(out, shard_path(addr, "documents")), "rt") as fh:
        assert [json.loads(line)["url"] for line in fh] == [docs[0].url]


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

    # missing required argument -> config error
    assert main(["train", "classifier", "--model-output", clf_path]) == 1


def test_kn_lm_counts_grams_within_documents(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"text": "alpha beta"}\n{"text": "gamma delta"}\n')
    model = tmp_path / "kn.json"
    assert main(["train", "kn_lm", "--corpus", str(corpus),
                 "--model-output", str(model), "--order", "2"]) == 0
    payload = json.loads(model.read_text())["payload"]
    assert payload["order"] == 2
    assert sorted(payload["counts"]["2"]) == ["alpha\x1fbeta", "gamma\x1fdelta"]
    # the training perplexity scores each document from an empty history
    lm = kn_from_payload(payload)
    first, second = lm.sequence_logprobs(number_words([["alpha", "beta"], ["gamma", "delta"]]))
    logprob = first + second
    assert f"training perplexity {math.exp(-logprob / 4):.2f}" in capsys.readouterr().out


def test_train_flags_default_to_the_training_functions(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"text": "one two three four five six seven"}\n')
    model = tmp_path / "kn.json"
    assert main(["train", "kn_lm", "--corpus", str(corpus),
                 "--model-output", str(model)]) == 0
    payload = json.loads(model.read_text())["payload"]
    assert payload["order"] == DEFAULT_ORDER
    assert len(payload["counts"][str(DEFAULT_ORDER)]) == 3


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
