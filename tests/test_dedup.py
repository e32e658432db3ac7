"""Bloom filter, MinHash/LSH, clustering, and the dedup sidecars."""

import base64
import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from corpusforge import dedup
from corpusforge.dedup import (
    _DENSIFY_ORDER,
    _MH_A,
    _MH_B,
    BloomFilter,
    DuplicateRecord,
    SignatureGroups,
    cluster_and_select,
    content_signatures,
    estimate_jaccard,
    exact_dedup_pass,
    lsh_candidates,
    minhash_lines,
    minhash_signatures,
    pick_banding,
    shard_signatures,
    shingle_hashes,
)
from corpusforge.errors import ConfigError, DataError
from corpusforge.mlmodels import fnv1a64_spans, hash_documents
from corpusforge.records import content_digest, content_digests, iter_jsonl_gz, write_jsonl_gz
from corpusforge.textnorm import normalize
from oracles import oracle_lsh_candidates, oracle_minhash


def test_bloom_no_false_negatives():
    bloom = BloomFilter(capacity=1000, error_rate=0.01)
    keys = [content_digest(f"key-{i}") for i in range(1000)]
    for k in keys:
        bloom.add(k)
    assert all(k in bloom for k in keys)


def test_bloom_sizing_and_validation():
    bloom = BloomFilter(capacity=100_000, error_rate=0.01)
    assert bloom.num_bits == 958_506
    assert bloom.num_hashes == 7
    with pytest.raises(ConfigError):
        BloomFilter(capacity=0)
    with pytest.raises(ConfigError):
        BloomFilter(capacity=10, error_rate=1.5)


def test_bloom_too_large_for_memory_is_a_config_error(monkeypatch):
    # more bytes than an index holds, and a capacity past the largest float
    with pytest.raises(ConfigError, match=r"^bloom capacity 10{30} at error rate 0\.01 "
                                          r"asks for 1\.20e\+30 bytes, more than can be"):
        BloomFilter(capacity=10**30)
    with pytest.raises(ConfigError, match=r"asks for 1\.20e\+400 bytes"):
        BloomFilter(capacity=10**400)

    def no_memory(size):
        raise MemoryError

    # no array of that size is made: the allocation fails at once
    monkeypatch.setattr(dedup, "bytearray", no_memory, raising=False)
    with pytest.raises(ConfigError, match=r"^bloom capacity 1000000000000 at error rate 0\.001 "
                                          r"asks for 1\.80e\+12 bytes"):
        BloomFilter(capacity=10**12, error_rate=0.001)


def test_bloom_capacity_warning(capsys):
    bloom = BloomFilter(capacity=5, error_rate=0.01)
    for i in range(5):
        bloom.add(content_digest(str(i)))
    bloom.add(content_digest("overflow"))
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("warning: bloom filter past design capacity 5 ")


def test_bloom_fill_ratio_makes_no_copy_of_the_bits():
    bloom = BloomFilter(capacity=10**6, error_rate=0.01)
    bloom.bits[:] = random.Random(3).randbytes(len(bloom.bits))
    expected = int.from_bytes(bloom.bits, "little").bit_count() / bloom.num_bits
    tracemalloc.start()
    try:
        ratio = bloom.fill_ratio()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ratio == expected
    assert peak < len(bloom.bits) / 8, peak


def test_exact_dedup_keeps_first_occurrence():
    entries = [
        ("d0", "s0", content_digest("same")),
        ("d1", "s0", content_digest("other")),
        ("d2", "s1", content_digest("same")),
        ("d3", "s1", content_digest("same")),
    ]
    bloom = BloomFilter(capacity=100)
    records = list(exact_dedup_pass(entries, bloom))
    # the filter alone cannot name the first occurrence
    assert [(r.doc_id, r.kept_representative_id) for r in records] == [
        ("d2", None),
        ("d3", None),
    ]


def test_shingles():
    def windows(*lengths):
        words = [f"w{i}" for i in range(sum(lengths))]
        texts, _ = shingle_hashes(hash_documents([words]).words, np.array(lengths))
        return np.bincount(texts, minlength=len(lengths)).tolist()

    assert windows(15) == [3]  # 15 - 13 + 1
    # short documents fall back to one whole-document shingle
    assert windows(2) == [1]
    assert windows(0) == [0]
    # no window crosses into the next text
    assert windows(15, 0, 2, 13, 12, 14) == [3, 0, 1, 1, 1, 2]
    # repeated windows stay: a minimum does not need them distinct
    texts, hashes = shingle_hashes(hash_documents([["x"] * 20]).words, np.array([20]))
    assert len(hashes) == 8 and len(set(hashes.tolist())) == 1


def test_content_signatures_hash_words_in_one_call(monkeypatch):
    """One fnv1a64_spans call per content_signatures call, over every
    word occurrence of its distinct contents."""
    calls = []

    def counted(buf, starts, lengths):
        calls.append([buf[i:i + n].tobytes().decode() for i, n in zip(starts, lengths)])
        return fnv1a64_spans(buf, starts, lengths)

    monkeypatch.setattr(dedup, "fnv1a64_spans", counted)
    texts = ["the cat sat", "", "The dog sat!", "the cat sat", ""]
    slots, sigs = content_signatures(texts)
    assert slots == [0, 1, 2, 0, 1]
    assert calls == [["the", "cat", "sat", "the", "dog", "sat"]]
    monkeypatch.undo()
    for text, slot in zip(texts, slots):
        assert sigs[slot].tolist() == _oracle(normalize(text).split())
    assert content_signatures([])[1].shape == (0, 128)  # a shard with no documents


def _keys(strings) -> np.ndarray:
    """blake2b-64 of each string: uint64 shingle hashes for MinHash."""
    return np.array([
        int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "little")
        for s in strings
    ], dtype=np.uint64)


def _signatures(*hash_sets: np.ndarray) -> np.ndarray:
    """One minhash_signatures row for each array of shingle hashes."""
    texts = np.repeat(np.arange(len(hash_sets)), [len(h) for h in hash_sets])
    return minhash_signatures(texts, np.concatenate(hash_sets), len(hash_sets))


def _words_signature(words: list[str]) -> np.ndarray:
    """The MinHash of one text's words, as content_signatures computes a
    row: FNV-1a word hashes, shingle_hashes, then minhash_signatures."""
    texts, hashes = shingle_hashes(hash_documents([words]).words, np.array([len(words)]))
    return minhash_signatures(texts, hashes, 1)[0]


def _oracle(words: list[str]) -> list[int]:
    """The reference signature of `words`, each component cut to its low
    16 bits."""
    full = oracle_minhash(words, int(_MH_A), int(_MH_B), _DENSIFY_ORDER.tolist())
    return [value & 0xFFFF for value in full]


def test_minhash_identity_and_determinism():
    text = " ".join(["lorem"] + [f"tok{i}" for i in range(30)])
    sig1, sig2 = (content_signatures([text])[1][0] for _ in range(2))
    assert sig1.dtype == np.uint16 and len(sig1) == 128
    assert np.array_equal(sig1, sig2)
    assert estimate_jaccard(sig1, sig2) == 1.0
    (empty,) = _signatures(np.empty(0, dtype=np.uint64))
    assert np.all(empty == np.iinfo(np.uint16).max)


def test_estimate_jaccard_tracks_overlap():
    base = _keys(f"sh{i}" for i in range(200))
    other = _keys([f"sh{i}" for i in range(100)] + [f"xx{i}" for i in range(100)])
    est = estimate_jaccard(*_signatures(base, other))
    true_j = 100 / 300
    assert abs(est - true_j) < 0.15


_ORACLE_WORDS = ["a", "b", "ab", "é", "日本", "straße"]


@settings(deadline=None, max_examples=60)
@example([])
@example(["solo"])
@example([f"w{i}" for i in range(12)])
@example([f"w{i}" for i in range(13)])
@example([f"w{i}" for i in range(14)])
@example(["ab", "b"] * 20)  # repeated windows
@example(["naïve", "日本語", "straße", "ü"] * 5)
@given(st.lists(st.sampled_from(_ORACLE_WORDS) | st.text(min_size=1, max_size=4),
                max_size=40))
def test_minhash_matches_oracle(words):
    assert _words_signature(words).tolist() == _oracle(words)
    # the production path: one signature per distinct content, words of
    # the normalized text, hashed once across the call
    text = " ".join(words)
    other = "zz " + text
    slots, sigs = content_signatures([text, other, text])
    assert slots == [0, 1, 0]
    assert sigs[0].tolist() == _oracle(normalize(text).split())
    assert sigs[1].tolist() == _oracle(normalize(other).split())


@settings(deadline=None, max_examples=40)
@given(st.permutations([0, 1, 12, 13, 14]), st.data())
def test_content_signatures_keep_windows_within_each_text(lengths, data):
    """Texts of 0, 1, 12, 13 and 14 words side by side in one call: each
    row is the signature of that text alone."""
    texts = [data.draw(st.lists(st.sampled_from(_ORACLE_WORDS), min_size=n, max_size=n))
             for n in lengths]
    slots, sigs = content_signatures([" ".join(words) for words in texts])
    for words, slot in zip(texts, slots):
        assert sigs[slot].tolist() == _oracle(words)


def _windows(words: list[str]) -> set[tuple[str, ...]]:
    width = min(13, len(words))
    return {tuple(words[i:i + width]) for i in range(len(words) - width + 1)}


def test_minhash_is_unbiased():
    """The shingle hash adds no bias. As in acceptance_3, 200 pairs per
    level 0.7, 0.8 and 0.9: random word sequences and copies with one to
    three words replaced, sized so that the window-Jaccard is near the
    level, and the truth computed from the window tuples."""
    rng = random.Random(15)
    for level in (0.7, 0.8, 0.9):
        errors = []
        for i in range(200):
            edits = 1 + i % 3  # each changes 13 windows of each sequence
            n = round(13 * edits * (1 + level) / (1 - level)) + 12
            base = [f"v{rng.randrange(10_000)}" for _ in range(n)]
            other = list(base)
            for k in range(edits):
                other[(k + 1) * n // (edits + 1)] = f"edit{i}.{k}"
            wa, wb = _windows(base), _windows(other)
            truth = len(wa & wb) / len(wa | wb)
            assert abs(truth - level) < 0.01
            est = estimate_jaccard(_words_signature(base), _words_signature(other))
            errors.append(est - truth)
        assert abs(sum(errors) / len(errors)) <= 0.02, level
        assert max(abs(e) for e in errors) <= 0.15, level


def test_chance_matches_of_16_bit_components_stay_rare():
    """Two different bin winners agree in a 16-bit component with
    probability 2^-16, so over 1,000 pairs of disjoint shingle sets the
    mean estimate is expected at 2^-16 = 1.5e-5 (8 bits would give
    2^-8 = 0.0039)."""
    pairs, size = 1000, 300
    hashes = np.random.default_rng(25).integers(
        0, 1 << 64, size=2 * pairs * size, dtype=np.uint64, endpoint=False)
    assert len(np.unique(hashes)) == len(hashes)  # every pair disjoint
    sigs = minhash_signatures(np.repeat(np.arange(2 * pairs), size), hashes, 2 * pairs)
    assert estimate_jaccard(sigs[0::2], sigs[1::2]).mean() < 0.001


def test_distinct_one_window_texts_are_not_near_duplicates():
    """A text of fewer than 14 words is one window, so every component
    is a copy of one bin's value. 3,000 distinct such texts: were each
    copy's low 16 bits that value's, about 3000^2 / 2^17 = 69 pairs would
    agree in every component."""
    rng = random.Random(25)
    texts = sorted({" ".join(f"w{rng.randrange(10**6)}" for _ in range(5)) for _ in range(3000)})
    slots, sigs = content_signatures(texts)
    assert len({row.tobytes() for row in sigs}) == len(texts)
    groups = SignatureGroups()
    groups.add([f"d{i}" for i in range(len(texts))], "s", sigs[slots])
    assert groups.duplicates(*pick_banding(0.8), 0.8) == ([], 0)


def test_pick_banding():
    for level in (0.7, 0.8, 0.9, 1.0):
        b, r = pick_banding(level)
        assert b * r <= 128
        assert abs((1.0 / b) ** (1.0 / r) - level) < 0.05
    assert pick_banding(1.0) == (1, 128)


def test_lsh_candidates_find_identical_signatures():
    _, (sig_a, sig_c) = content_signatures([" ".join(f"{c}{i}" for i in range(20))
                                            for c in "ac"])
    pairs = lsh_candidates([sig_a, sig_a, sig_c], bands=9, rows=13)
    assert pairs.tolist() == [[0, 1]]
    with pytest.raises(ConfigError):
        lsh_candidates([], bands=10, rows=13)


_BANDINGS = [(1, 128), (128, 1), (32, 4), (9, 13), (6, 8), (2, 3)]


@settings(deadline=None, max_examples=80)
@given(pool=st.lists(st.lists(st.sampled_from([0, 1, 0xFFFF]), min_size=128, max_size=128),
                     min_size=1, max_size=4),
       picks=st.lists(st.integers(0, 3), max_size=12),
       banding=st.sampled_from(_BANDINGS))
@example(pool=[[0] * 128], picks=[], banding=(32, 4))
@example(pool=[[0] * 128], picks=[0], banding=(1, 128))
@example(pool=[[0] * 128, [1] * 64 + [0] * 64], picks=[0, 1, 0, 1, 0], banding=(2, 64))
def test_lsh_candidates_match_dict_reference(pool, picks, banding):
    """Signatures picked from a small pool of rows over a three-value
    alphabet, so that buckets reach three and more members: the numpy
    banding finds the pairs of the per-band dict reference, once each,
    in ascending order."""
    sigs = np.array([pool[p % len(pool)] for p in picks], dtype=np.uint16).reshape(-1, 128)
    pairs = lsh_candidates(sigs, *banding)
    assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
    assert [tuple(p) for p in pairs.tolist()] == sorted(oracle_lsh_candidates(sigs, *banding))


def test_cluster_and_select_deterministic_under_shuffle():
    docs = [(f"d{i}", "s") for i in range(6)]
    pairs = [(1, 0), (2, 1), (4, 5)]
    expected = [
        ("d1", "d0"), ("d2", "d0"), ("d5", "d4"),
    ]
    for seed in range(5):
        shuffled = list(pairs)
        random.Random(seed).shuffle(shuffled)
        records = cluster_and_select(shuffled, docs)
        assert [(r.doc_id, r.kept_representative_id) for r in records] == expected


def test_duplicate_record_json():
    rec = DuplicateRecord("d1", "shard", "d0")
    assert '"representative_id":"d0"' in rec.to_json()


_WORDS = [f"w{i}" for i in range(8)]


@st.composite
def _fuzzy_corpus(draw):
    """Documents drawn from a few sources (empty, shorter than a shingle,
    or longer): exact copies, copies that differ only in case and
    punctuation (a different content with the same signature), and near
    copies with one word appended (Jaccard n/(n+1) over n shingles)."""
    sources = draw(st.lists(
        st.lists(st.sampled_from(_WORDS), max_size=40).map(" ".join),
        min_size=1, max_size=4))
    texts = []
    for _ in range(draw(st.integers(1, 20))):
        words = draw(st.sampled_from(sources)).split()
        edit = draw(st.sampled_from(["copy", "copy", "shout", "near"]))
        if edit == "near":
            words.append(draw(st.sampled_from(_WORDS)))
        text = " ".join(words)
        texts.append(text.upper() + "!" if edit == "shout" else text)
    return texts


@settings(deadline=None)
@given(_fuzzy_corpus())
def test_signature_groups_match_per_document_reference(texts):
    docs = [(f"d{i}", f"s{i % 3}") for i in range(len(texts))]
    sigs = [_words_signature(normalize(t).split()) for t in texts]
    # a signature without shingles is never grouped or paired
    live = [p for p, sig in enumerate(sigs) if not np.all(sig == 0xFFFF)]
    # each shard's signatures, one per content distinct within the shard
    by_shard = {}
    for pos, (_, shard) in enumerate(docs):
        by_shard.setdefault(shard, []).append(pos)
    signed = {}
    for positions in by_shard.values():
        slots, shard_sigs = content_signatures([texts[p] for p in positions])
        assert len(shard_sigs) == len({texts[p] for p in positions})
        for p, slot in zip(positions, slots):
            assert np.array_equal(shard_sigs[slot], sigs[p])
            signed[p] = shard_sigs[slot]
    groups = SignatureGroups()
    for pos, (doc_id, shard) in enumerate(docs):
        groups.add([doc_id], shard, signed[pos][np.newaxis])
    for threshold in (0.5, 0.8, 1.0):
        bands, rows = pick_banding(threshold)
        pairs = {
            (live[a], live[b])
            for a, b in oracle_lsh_candidates([sigs[p] for p in live], bands, rows)
            if estimate_jaccard(sigs[live[a]], sigs[live[b]]) >= threshold
        }
        expected = cluster_and_select(pairs, docs)
        assert groups.duplicates(bands, rows, threshold) == (expected, len(pairs))


def test_signature_groups_pass_an_estimate_equal_to_the_threshold():
    """Two signatures that agree in 96 of 128 components estimate exactly
    0.75, which passes a threshold of 0.75."""
    sig = np.arange(128, dtype=np.uint16)
    other = sig.copy()
    other[:32] += 1000  # bands 1 to 3 of 4 stay equal
    groups = SignatureGroups()
    groups.add(["d0", "d1"], "s", np.stack((sig, other)))
    records, pairs = groups.duplicates(4, 32, 0.75)
    assert pairs == 1 and [(r.doc_id, r.kept_representative_id) for r in records] == [("d1", "d0")]


class _Recomputed(Exception):
    pass


def _refuse(contents):
    raise _Recomputed


def test_shard_signatures_one_row_and_record_per_document(tmp_path, monkeypatch):
    """One content three times in a shard: three sidecar records and
    three rows with equal signatures, the content signed once; a rerun
    reuses the sidecar."""
    path = tmp_path / "minhash" / "shard.minhash.jsonl.gz"
    contents = ["one text here", "another text", "one text here", "one text here"]
    ids = [f"seg/{i}" for i in range(len(contents))]
    signed = []
    monkeypatch.setattr(dedup, "content_signatures",
                        lambda c: signed.append(c) or content_signatures(c))
    rows = shard_signatures(path, ids, contents, force=False)
    assert signed == [contents] and len(content_signatures(contents)[1]) == 2
    assert rows.dtype == np.uint16 and rows.shape == (4, 128)
    records = [json.loads(line) for _, line in iter_jsonl_gz(path)]
    assert [r["doc_id"] for r in records] == ids
    assert [r["digest"] for r in records] == list(map(content_digest, contents))
    assert records[0]["signature"] == records[2]["signature"] == records[3]["signature"]
    assert records[0]["signature"] != records[1]["signature"]
    assert rows.tolist() == [content_signatures([c])[1][0].tolist() for c in contents]
    monkeypatch.setattr(dedup, "content_signatures", _refuse)
    assert np.array_equal(shard_signatures(path, ids, contents, force=False), rows)


_U16 = st.integers(0, 2**16 - 1)


@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(_U16, min_size=128, max_size=128), min_size=1, max_size=4),
       picks=st.lists(st.integers(0, 3), max_size=6))
@example(rows=[[0] * 127 + [2**16 - 1], [2**16 - 1] * 128], picks=[1, 0, 1])
def test_minhash_sidecar_roundtrip(tmp_path, monkeypatch, rows, picks):
    """A written sidecar reads back as the same signature per document,
    each component the little-endian uint16 of its 2 bytes; a sidecar
    for other ids, contents or another document count is stale, and so
    is any sidecar under force: their signatures are recomputed."""
    signatures = np.array(rows, dtype=np.uint16)
    slots = [pick % len(rows) for pick in picks]
    ids = [f"seg/{i}" for i in range(len(slots))]
    contents = [f"content {slot}" for slot in slots]
    path = tmp_path / "shard.minhash.jsonl.gz"
    write_jsonl_gz(path, minhash_lines(ids, content_digests(contents), slots, signatures))
    for line, slot in zip(iter_jsonl_gz(path), slots, strict=True):
        data = base64.b64decode(json.loads(line[1])["signature"], validate=True)
        assert [int.from_bytes(data[i:i + 2], "little") for i in range(0, 256, 2)] == rows[slot]
    decoded = []
    decode = dedup._signature_bytes
    with monkeypatch.context() as patch:
        patch.setattr(dedup, "_signature_bytes",
                      lambda text, where: decoded.append(text) or decode(text, where))
        patch.setattr(dedup, "content_signatures", _refuse)
        read = shard_signatures(path, ids, contents, force=False)
        assert read.dtype == np.uint16 and read.shape == (len(slots), 128)
        assert read.tolist() == [rows[s] for s in slots]
        # rows are decoded once: equal rows share one decoding
        assert len(decoded) == len({tuple(rows[s]) for s in slots})
        stale = [([*ids, "seg/x"], [*contents, "x"])]
        if slots:
            stale += [(ids[:-1], contents[:-1]), (ids, ["other", *contents[1:]]),
                      (["other", *ids[1:]], contents)]
        for stale_ids, stale_contents in stale:
            with pytest.raises(_Recomputed):
                shard_signatures(path, stale_ids, stale_contents, force=False)
        with pytest.raises(_Recomputed):
            shard_signatures(path, ids, contents, force=True)


def test_minhash_lines_are_the_text_json_dumps_gives():
    ids = ["seg/0", 'naïve "q"\\/\n\x00\u2028/1', "日本/\ud800/2"]
    digests = ["sha256:" + "0" * 64, 'd"\\é', ""]
    signatures = np.arange(2 * 128, dtype=np.uint16).reshape(2, 128) * 257
    slots = [1, 0, 1]

    def dumps(doc_id, digest, slot):
        signature = base64.b64encode(signatures[slot].astype("<u2").tobytes()).decode("ascii")
        return json.dumps({"doc_id": doc_id, "digest": digest, "signature": signature,
                           "version": dedup.SIGNATURE_VERSION}, separators=(",", ":"))

    assert list(minhash_lines(ids, digests, slots, signatures)) == list(
        map(dumps, ids, digests, slots))


@pytest.mark.parametrize("version", [None, 1, 2, "3", 4])
def test_shard_signatures_recompute_another_signature_version(tmp_path, version):
    path = tmp_path / "shard.minhash.jsonl.gz"
    ids, contents = ["seg/0", "seg/1"], ["some words", "some words"]
    current, other = map(json.loads, minhash_lines(
        ids, content_digests(contents), [0, 0], np.zeros((1, 128), np.uint16)))
    other["version"] = version
    if version is None:
        del other["version"]
    write_jsonl_gz(path, [json.dumps(current), json.dumps(other)])
    rows = shard_signatures(path, ids, contents, force=False)
    assert rows.tolist() == [content_signatures(["some words"])[1][0].tolist()] * 2
    versions = [json.loads(line)["version"] for _, line in iter_jsonl_gz(path)]
    assert versions == [dedup.SIGNATURE_VERSION] * 2


@pytest.mark.parametrize("signature, problem", [
    pytest.param(list(range(128)), "field signature is missing or not a string",
                 id="decimal-list"),
    pytest.param("A" * 340, "signature is not the base64 of 256 bytes", id="255-bytes"),
    pytest.param(base64.b64encode(bytes(256)).decode()[:-3] + "B==",
                 "signature is not the base64 of 256 bytes", id="nonzero-pad-bits"),
    pytest.param(base64.b64encode(bytes(256)).decode() + "\n", "signature is not the base64",
                 id="trailing-newline"),
    pytest.param("é" * 344, "signature is not the base64", id="not-ascii"),
])
def test_shard_signatures_reject_malformed_signature(tmp_path, signature, problem):
    path = tmp_path / "shard.minhash.jsonl.gz"
    good = next(minhash_lines(["seg/0"], ["d"], [0], np.zeros((1, 128), np.uint16)))
    bad = json.dumps({"doc_id": "seg/1", "digest": "d", "signature": signature,
                      "version": dedup.SIGNATURE_VERSION})
    write_jsonl_gz(path, [good, bad])
    # malformed wins over stale: these ids would not match either
    recompute = "; dedup --force recomputes it"
    with pytest.raises(DataError, match=f"^{path}: line 2: {problem}.*{recompute}$"):
        shard_signatures(path, ["other"], ["d"], force=False)
