"""Acceptance suite: one test per quantitative guarantee of the
pipeline, from signal/oracle equivalence through an end-to-end
bit-reproducible run. Each test is self-contained and prints a single
pass/fail line under pytest -v."""

import hashlib
import json
import os
import random
import time

import numpy as np
import pytest

import oracles

from corpusforge import pipeline
from corpusforge.dedup import (
    BloomFilter,
    cluster_and_select,
    content_signatures,
    estimate_jaccard,
    exact_dedup_pass,
    lsh_candidates,
    minhash_signatures,
)
from corpusforge.filtering import evaluate, preset
from corpusforge.kneser_ney import train_kn_lm
from corpusforge.mlmodels import (
    dsir_importance,
    hash_documents,
    train_classifier,
    train_hashed_lm,
    training_accuracy,
)
from corpusforge.records import (
    QualitySignalSet,
    ShardAddress,
    content_digest,
    shard_path,
    write_jsonl_gz,
)
from corpusforge.signals import (
    code_signals,
    doc_natlang_signals,
    line_signals,
)
from corpusforge.textnorm import analyze, load_language_wordlist

from conftest import make_doc, random_text, repetition_rows, rows


# ---------------------------------------------------------------------------
# 1. Signal/oracle equivalence


def _equality_patterns(max_len: int, labels: int = 3):
    """Label sequences in canonical first-occurrence order. Every word
    sequence over a `labels`-letter alphabet maps to exactly one of
    these by renaming letters, and the n-gram signals depend only on
    the equality pattern (all letters have length 1, and tie-breaks can
    only choose between grams with identical count and character
    length, which yield the same value). Checking the canonical
    patterns therefore covers all sequences."""
    out = []
    frontier = [((), 0)]
    for _ in range(max_len):
        step = []
        for seq, used in frontier:
            for label in range(min(used + 1, labels)):
                step.append((seq + (label,), max(used, label + 1)))
        out.extend(seq for seq, _ in step)
        frontier = step
    return out


def test_acceptance_1_signals_match_oracle():
    started = time.monotonic()
    stop = load_language_wordlist("stopwords", "en")
    rng = random.Random(20230414)

    # randomized documents, every signal bit-identical to the reference
    for _ in range(1000):
        text = random_text(rng, max_words=200)
        shard = analyze([text])
        assert rows(doc_natlang_signals(shard, [stop]))[0] == oracles.oracle_natlang(text, stop)
        assert repetition_rows([text])[0] == oracles.oracle_repetition(text)
        assert line_signals(shard) == oracles.oracle_line_signals(text)

    # exhaustive n-gram check over all sequences of length <= 12 on a
    # 3-letter alphabet, via canonical equality patterns, all in one call
    # as the documents of one shard
    alphabet = "abc"
    sizes = (2, 3, 4, 5, 6, 7, 8, 9, 10)
    patterns = [[alphabet[i] for i in seq] for seq in _equality_patterns(12)]
    reps = repetition_rows([" ".join(words) for words in patterns])
    for words, rep in zip(patterns, reps):
        for n in sizes:
            if n in (2, 3, 4):
                got = rep[f"rps_doc_frac_chars_top_{n}gram"]
                want = oracles.oracle_top_ngram_fraction_words(words, n)
            else:
                got = rep[f"rps_doc_frac_chars_dupe_{n}grams"]
                want = oracles.oracle_dupe_ngram_fraction_words(words, n)
            assert got == want, (words, n)

    # relabeling spot-check: the signal value is invariant under letter
    # renaming, confirming canonical patterns stand in for all sequences
    letters = "xyzpq"
    for _ in range(500):
        length = rng.randint(2, 12)
        seq = [rng.randint(0, 2) for _ in range(length)]
        mapping = rng.sample(letters, 3)
        base = repetition_rows([" ".join(alphabet[i] for i in seq)])[0]
        renamed = repetition_rows([" ".join(mapping[i] for i in seq)])[0]
        assert base == renamed

    assert time.monotonic() - started < 120.0


# ---------------------------------------------------------------------------
# 2. Bloom filter error rate


def test_acceptance_2_bloom_error_rate():
    started = time.monotonic()
    n = 100_000
    bloom = BloomFilter(capacity=n, error_rate=0.01)
    present = [content_digest(f"present-{i}") for i in range(n)]
    for key in present:
        bloom.add(key)
    # zero false negatives
    misses = sum(1 for key in present if key not in bloom)
    assert misses == 0
    # false positives on fresh probes near the 1% design point
    false_positives = sum(1 for i in range(n) if content_digest(f"absent-{i}") in bloom)
    rate = false_positives / n
    assert 0.005 <= rate <= 0.015, rate
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# 3. MinHash estimation fidelity


def _keys(strings: set[str]) -> np.ndarray:
    """blake2b-64 of each string, as the uint64 shingle hashes MinHash
    takes."""
    return np.array([
        int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "little")
        for s in strings
    ], dtype=np.uint64)


def _signatures(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The MinHash signatures of two sets of shingle hashes, one row each."""
    texts = np.repeat([0, 1], [len(a), len(b)])
    return minhash_signatures(texts, np.concatenate((a, b)), 2)


def _jaccard_pair(level: float, tag: str, union: int = 1000):
    shared = round(level * union)
    extra_each = (union - shared) // 2
    shared_set = {f"s{tag}-{i}" for i in range(shared)}
    a = shared_set | {f"a{tag}-{i}" for i in range(extra_each)}
    b = shared_set | {f"b{tag}-{i}" for i in range(extra_each)}
    assert len(a & b) / len(a | b) == level
    return _keys(a), _keys(b)


def test_acceptance_3_minhash_fidelity():
    for level in (0.7, 0.8, 0.9):
        errors = []
        for i in range(200):
            a, b = _jaccard_pair(level, f"{level}:{i}")
            est = estimate_jaccard(*_signatures(a, b))
            errors.append(est - level)
        # the estimator is unbiased: the mean error over 200 pairs stays
        # within 0.02, and no single 128-component estimate strays far
        assert abs(sum(errors) / len(errors)) <= 0.02, level
        assert max(abs(e) for e in errors) <= 0.15, level


# ---------------------------------------------------------------------------
# 4. LSH banding detection rates


def _band_match(sig_a: np.ndarray, sig_b: np.ndarray, bands=9, rows=13) -> bool:
    return any(
        np.array_equal(
            sig_a[band * rows:(band + 1) * rows],
            sig_b[band * rows:(band + 1) * rows],
        )
        for band in range(bands)
    )


def test_acceptance_4_lsh_banding():
    # analytic detection probabilities with b=9, r=13:
    # J=0.9 -> 1-(1-0.9^13)^9 ~= 0.93; J=0.5 -> ~1.1e-3
    detected_high = 0
    detected_low = 0
    for i in range(1000):
        a, b = _jaccard_pair(0.9, f"hi:{i}", union=200)
        if _band_match(*_signatures(a, b)):
            detected_high += 1
        a, b = _jaccard_pair(0.5, f"lo:{i}", union=200)
        if _band_match(*_signatures(a, b)):
            detected_low += 1
    assert detected_high / 1000 >= 0.88, detected_high
    assert detected_low / 1000 <= 0.01, detected_low


# ---------------------------------------------------------------------------
# 5. Dedup semantics: one survivor per cluster, idempotent


def test_acceptance_5_dedup_semantics():
    rng = random.Random(99)
    cluster_sizes = [1, 1, 2, 2, 3, 4, 5, 6]
    texts = []
    cluster_of = {}
    doc_idx = 0
    for cluster_id, size in enumerate(cluster_sizes):
        body = " ".join(f"c{cluster_id}w{i}" for i in range(40))
        for _ in range(size):
            texts.append((f"d{doc_idx}", body))
            cluster_of[f"d{doc_idx}"] = cluster_id
            doc_idx += 1
    rng.shuffle(texts)
    order = {doc_id: i for i, (doc_id, _) in enumerate(texts)}

    def survivors_exact(entries):
        bloom = BloomFilter(capacity=1000)
        dropped = {r.doc_id for r in exact_dedup_pass(entries, bloom)}
        return [(d, t) for d, t in entries_docs if d not in dropped]

    entries_docs = texts
    entries = [(d, "shard", content_digest(t)) for d, t in texts]
    remaining = survivors_exact(entries)
    by_cluster = {}
    for doc_id, _ in remaining:
        by_cluster.setdefault(cluster_of[doc_id], []).append(doc_id)
    assert sorted(by_cluster) == list(range(len(cluster_sizes)))
    assert all(len(v) == 1 for v in by_cluster.values())
    # idempotent: a second pass over the survivors drops nothing
    again = [(d, "shard", content_digest(t)) for d, t in remaining]
    assert list(exact_dedup_pass(again, BloomFilter(capacity=1000))) == []

    # fuzzy path: identical texts collide in every band
    slots, sigs = content_signatures([text for _, text in texts])
    signatures = [sigs[slot] for slot in slots]
    docs = [(doc_id, "shard") for doc_id, _ in texts]
    records = cluster_and_select(lsh_candidates(signatures, 9, 13), docs)
    dropped = {r.doc_id for r in records}
    fuzzy_surv = [d for d, _ in texts if d not in dropped]
    per_cluster = {}
    for d in fuzzy_surv:
        per_cluster.setdefault(cluster_of[d], []).append(d)
    assert all(len(v) == 1 for v in per_cluster.values())
    assert len(per_cluster) == len(cluster_sizes)
    # the survivor is the earliest cluster member in canonical order
    for r in records:
        assert order[r.kept_representative_id] < order[r.doc_id]
    # idempotent
    surv = [i for i, (d, _) in enumerate(docs) if d not in dropped]
    assert cluster_and_select(
        lsh_candidates([signatures[i] for i in surv], 9, 13), [docs[i] for i in surv]
    ) == []


# ---------------------------------------------------------------------------
# 6. Filter threshold fidelity


def _signal_record(**scores) -> QualitySignalSet:
    return QualitySignalSet(
        id="t", id_int=0, metadata={},
        quality_signals={k: [(0, 1, float(v))] for k, v in scores.items()},
    )


def test_acceptance_6_threshold_fidelity():
    doc = make_doc("x")

    wikiref = preset("rpv1_wikiref")
    drop = evaluate(doc, _signal_record(rps_doc_ml_wikiref_score=0.2499), wikiref)
    keep = evaluate(doc, _signal_record(rps_doc_ml_wikiref_score=0.2501), wikiref)
    assert (drop.verdict, keep.verdict) == ("drop", "keep")

    custom = preset("custom_rules")
    passing = dict(
        rps_doc_word_count=100,
        rps_doc_mean_line_length=80,
        rps_doc_ml_wikiref_score=0.9,
    )
    drop = evaluate(doc, _signal_record(ccnet_perplexity=30.01, **passing), custom)
    keep = evaluate(doc, _signal_record(ccnet_perplexity=29.99, **passing), custom)
    assert (drop.verdict, keep.verdict) == ("drop", "keep")

    # code heuristics, each metric isolated at its boundary
    code = preset("rpv1_code")

    def code_verdict(path, content):
        record = _signal_record(**rows(code_signals(analyze([content]), [path]))[0])
        return evaluate(doc, record, code).verdict

    filler = "\n".join(["abcd"] * 99)
    assert code_verdict("x.py", "a" * 1000 + "\n" + filler) == "keep"
    assert code_verdict("x.py", "a" * 1001 + "\n" + filler) == "drop"

    assert code_verdict("x.py", "\n".join(["b" * 100] * 10)) == "keep"
    assert code_verdict("x.py", "\n".join(["b" * 101] * 10)) == "drop"

    assert code_verdict("x.py", "ab" + "_" * 6) == "keep"   # alnum 2/8 = 0.25
    assert code_verdict("x.py", "ab" + "_" * 7) == "drop"   # 2/9 < 0.25

    assert code_verdict("x.py", "abc 12") == "keep"  # alpha 3 / 2 tokens = 1.5
    assert code_verdict("x.py", "ab 12") == "drop"   # 2 / 2 = 1.0 < 1.5

    assert code_verdict("x.nope", "abc 12") == "drop"  # extension


# ---------------------------------------------------------------------------
# 7. ML-signal sanity


def test_acceptance_7_ml_sanity():
    rng = random.Random(2718)

    # DSIR with disjoint vocabularies separates with 100% sign accuracy
    t_vocab = [f"target{i}" for i in range(30)]
    s_vocab = [f"source{i}" for i in range(30)]
    t_docs = [[rng.choice(t_vocab) for _ in range(40)] for _ in range(40)]
    s_docs = [[rng.choice(s_vocab) for _ in range(40)] for _ in range(40)]
    target = train_hashed_lm(t_docs, buckets=10_000)
    source = train_hashed_lm(s_docs, buckets=10_000)
    t_scores = dsir_importance(hash_documents(t_docs), target, source)
    s_scores = dsir_importance(hash_documents(s_docs), target, source)
    assert all(s > 0 for s in t_scores)
    assert all(s < 0 for s in s_scores)

    # classifier reaches training accuracy 1.0 on separable data
    positive = [[rng.choice(t_vocab) for _ in range(20)] for _ in range(30)]
    negative = [[rng.choice(s_vocab) for _ in range(20)] for _ in range(30)]
    clf = train_classifier(positive, negative, epochs=20, seed=0)
    assert training_accuracy(clf, positive, negative) == 1.0

    # KN conditional distributions sum to 1 over 100 random histories
    vocab = [f"w{i}" for i in range(8)]
    tokens = [rng.choice(vocab) for _ in range(2000)]
    lm = train_kn_lm([tokens], order=5)
    history_pool = vocab + ["neverseen"]
    for _ in range(100):
        history = [rng.choice(history_pool) for _ in range(rng.randint(0, 6))]
        total = sum(oracles.kn_prob(lm, w, history) for w in lm.vocab)
        assert total == pytest.approx(1.0, abs=1e-6), history


# ---------------------------------------------------------------------------
# 8. End-to-end: annotate -> dedup -> filter -> stats, bit-reproducible


_E2E_LANGS = ("en", "de", "fr")
_E2E_SNAPSHOTS = ("2023-14", "2022-49")  # newest first

_E2E_VOCAB = {
    "en": ("the and for with from this that have house river morning people "
           "number market window garden history question answer evening "
           "mountain village station library picture").split(),
    "de": ("der die das und mit von nicht haben wasser strasse morgen leute "
           "nummer markt fenster garten geschichte frage antwort abend berg "
           "dorf bahnhof bibliothek bild").split(),
    "fr": ("le la les et avec de ne pas avoir maison riviere matin gens "
           "nombre marche fenetre jardin histoire question reponse soir "
           "montagne village gare bibliotheque image").split(),
}


def _e2e_text(rng: random.Random, lang: str) -> str:
    vocab = _E2E_VOCAB[lang]
    lines = []
    for _ in range(rng.randint(2, 5)):
        words = [rng.choice(vocab) for _ in range(rng.randint(8, 24))]
        lines.append(" ".join(words).capitalize() + ".")
    return "\n".join(lines)


def _generate_corpus(root: str, seed: int, total: int = 10_000) -> None:
    rng = random.Random(seed)
    combos = [
        (snap, shard, lang, bucket)
        for snap in _E2E_SNAPSHOTS
        for shard in (0, 1)
        for lang in _E2E_LANGS
        for bucket in ("head", "middle", "tail")
    ]
    per_shard = -(-total // len(combos))  # ceil: at least `total` docs
    recent_texts: list[str] = []
    for snap, shard, lang, bucket in combos:
        addr = ShardAddress(snap, shard, lang, bucket)
        lines = []
        for i in range(per_shard):
            if recent_texts and rng.random() < 0.06:
                text = rng.choice(recent_texts)  # exact duplicate
            else:
                text = _e2e_text(rng, lang)
                recent_texts.append(text)
            doc = make_doc(
                text,
                language=lang,
                bucket=bucket,
                cc_segment=f"{snap}/{shard:04d}/{lang}_{bucket}",
                url=f"http://{lang}{i}.example.org/page",
                source_domain=f"{lang}{i}.example.org",
                perplexity=rng.uniform(20.0, 600.0),
            )
            lines.append(doc.to_json())
        write_jsonl_gz(os.path.join(root, shard_path(addr, "documents")), lines)


def _run_pipeline(root: str) -> dict:
    cfg = pipeline.PipelineConfig(
        input_root=root,
        output_root=root,
        snapshots=list(_E2E_SNAPSHOTS),
        languages=list(_E2E_LANGS),
        ruleset="gopher_full",
    )
    pipeline.cmd_annotate(cfg)
    pipeline.cmd_dedup(cfg, "exact")
    filtered = pipeline.PipelineConfig(
        input_root=root,
        output_root=os.path.join(root, "filtered"),
        snapshots=list(_E2E_SNAPSHOTS),
        languages=list(_E2E_LANGS),
        ruleset="gopher_full",
    )
    pipeline.cmd_filter(filtered)
    return pipeline.cmd_stats(cfg)


def _tree_hashes(root: str) -> dict[str, str]:
    hashes = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def test_acceptance_8_end_to_end(tmp_path):
    started = time.monotonic()
    stats = []
    for run in (1, 2):
        root = str(tmp_path / f"run{run}")
        _generate_corpus(root, seed=777)
        stats.append(_run_pipeline(root))
    # bit-reproducible: every artifact identical across the two runs
    assert _tree_hashes(str(tmp_path / "run1")) == _tree_hashes(
        str(tmp_path / "run2")
    )

    table = stats[0]
    assert stats[0] == stats[1]
    columns = table["columns"]
    assert columns == ["all", "tail", "head_middle", "head_middle_dedupe"]
    rows = table["rows"]
    assert sorted(rows) == sorted(list(_E2E_LANGS) + ["Total"])
    for name, row in rows.items():
        docs_all, words_all = row["all"]
        assert (docs_all, words_all) == (
            row["tail"][0] + row["head_middle"][0],
            row["tail"][1] + row["head_middle"][1],
        ), name
        assert row["head_middle_dedupe"][0] <= row["head_middle"][0]
    for col in columns:
        assert rows["Total"][col][0] == sum(
            rows[lang][col][0] for lang in _E2E_LANGS
        )
        assert rows["Total"][col][1] == sum(
            rows[lang][col][1] for lang in _E2E_LANGS
        )
    assert rows["Total"]["all"][0] == 10_008  # 36 shards x 278 documents
    assert time.monotonic() - started < 300.0
