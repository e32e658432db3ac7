"""Correctness checks on one measured pass.

Each check reads the pass's output tree (or the captured stdout of a
command) and returns a list of failure messages; an empty list means
the check passed. Signal values are compared bit for bit with the
brute-force references in tests/oracles.py, which are independent of
the library code.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import re
import sys

import workloads

_FILTER_LINE = re.compile(
    r"^filter\[.*\]: kept (\d+), rewritten (\d+), dropped (\d+), duplicates (\d+)$"
)


def _result_lines(stdout: str) -> list[str]:
    """Command output without the bad-record warnings, which the
    program currently prints to stdout too."""
    return [line for line in stdout.splitlines() if not line.startswith("warning: ")]


def _gz_lines(path: str):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield line


def _files(root: str, suffix: str) -> list[str]:
    out = []
    for dirpath, _dirs, files in os.walk(root):
        out.extend(os.path.join(dirpath, f) for f in files if f.endswith(suffix))
    return sorted(out)


def filter_counts(stdout: str) -> dict | None:
    for line in _result_lines(stdout):
        m = _FILTER_LINE.match(line)
        if m:
            return dict(zip(("kept", "rewritten", "dropped", "duplicates"),
                            map(int, m.groups())))
    return None


def check_filter(stdout: str, docs: int, pass_dir: str) -> list[str]:
    """kept + rewritten + dropped + duplicates == docs read, and the
    written documents and audit records agree with those counts."""
    counts = filter_counts(stdout)
    if counts is None:
        return ["filter printed no summary line"]
    errors = []
    if sum(counts.values()) != docs:
        errors.append(f"filter counts {counts} sum to {sum(counts.values())}, "
                      f"not the {docs} docs read")
    root = os.path.join(pass_dir, "filtered", "documents")
    written = sum(1 for p in _files(root, ".json.gz") if not p.endswith(".audit.jsonl.gz")
                  for _ in _gz_lines(p))
    verdicts = {"rewrite": 0, "drop": 0, "duplicate": 0}
    for path in _files(root, ".audit.jsonl.gz"):
        for line in _gz_lines(path):
            record = json.loads(line)
            if record["fired_rules"] == [["duplicate", 1.0]]:
                verdicts["duplicate"] += 1
            else:
                verdicts[record["verdict"]] += 1
    if written != counts["kept"] + counts["rewritten"]:
        errors.append(f"filter wrote {written} docs, summary says "
                      f"{counts['kept'] + counts['rewritten']}")
    expected = {"rewrite": counts["rewritten"], "drop": counts["dropped"],
                "duplicate": counts["duplicates"]}
    if verdicts != expected:
        errors.append(f"audit verdicts {verdicts} != summary {expected}")
    return errors


def stats_table(stdout: str) -> dict | None:
    rows = [line for line in _result_lines(stdout) if line.startswith("{")]
    return json.loads(rows[-1]) if rows else None


def check_stats(stdout: str, docs: int) -> list[str]:
    table = stats_table(stdout)
    if table is None:
        return ["stats --json printed no JSON object"]
    total = table["rows"]["Total"]["all"][0]
    if total != docs:
        return [f"stats Total.all = {total}, but {docs} docs were parsed"]
    return []


# ---------------------------------------------------------------------------
# Signals against the oracles


def _oracles():
    if workloads.TESTS not in sys.path:
        sys.path.insert(0, workloads.TESTS)
    import oracles

    return oracles


def _wordlist(oracles, kind: str, lang: str) -> frozenset[str]:
    path = os.path.join(workloads.SRC, "corpusforge", "data", kind, f"{lang}.txt")
    with open(path, encoding="utf-8") as fh:
        entries = [line.strip() for line in fh]
    return frozenset(oracles.oracle_normalize(e) for e in entries
                     if e and not e.startswith("#"))


def _shard_docs(path: str) -> list[dict]:
    docs = []
    for line in _gz_lines(path):
        try:
            docs.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return docs


def check_signals(pass_dir: str, seed: int, sample: int) -> tuple[int, list[str]]:
    """Compare the annotated natlang, repetition, ldnoobw and line
    signals of `sample` seeded documents with the oracles. Returns
    (docs checked, failures)."""
    oracles = _oracles()
    rng = random.Random(seed)
    shards = _files(os.path.join(pass_dir, "documents"), ".json.gz")
    picks = sorted(rng.choice(shards) for _ in range(sample))
    errors: list[str] = []
    checked = 0
    lists: dict[tuple[str, str], frozenset[str]] = {}
    for shard in sorted(set(picks)):
        docs = _shard_docs(shard)
        rel = os.path.relpath(shard, os.path.join(pass_dir, "documents"))
        sidecar = os.path.join(pass_dir, "quality_signals",
                               rel.replace(".json.gz", ".signals.json.gz"))
        signals = {}
        for line in _gz_lines(sidecar):
            record = json.loads(line)
            signals[record["id"]] = record["quality_signals"]
        for _ in range(picks.count(shard)):
            ordinal = rng.randrange(len(docs))
            doc = docs[ordinal]
            raw, lang = doc["raw_content"], doc["language"]
            got = signals.get(f"{doc['cc_segment']}/{ordinal}")
            if got is None:
                errors.append(f"{rel}#{ordinal}: no signal record")
                continue
            for kind in ("stopwords", "ldnoobw"):
                if (kind, lang) not in lists:
                    lists[kind, lang] = _wordlist(oracles, kind, lang)
            want = dict(oracles.oracle_natlang(raw, lists["stopwords", lang]))
            want.update(oracles.oracle_repetition(raw))
            want["rps_doc_ldnoobw_words"] = oracles.oracle_blocklist_count(
                oracles.oracle_words(raw), lists["ldnoobw", lang])
            for name, value in want.items():
                if got[name][0][2] != float(value):
                    errors.append(f"{rel}#{ordinal} {name}: {got[name][0][2]!r} != {value!r}")
            for name, values in oracles.oracle_line_signals(raw).items():
                if [t[2] for t in got[name]] != [float(v) for v in values]:
                    errors.append(f"{rel}#{ordinal} {name}: per-line values differ")
            checked += 1
    return checked, errors[:10]


# ---------------------------------------------------------------------------
# Fuzzy dedup against the generator's ground truth


def fuzzy_quality(pass_dir: str, setup_dir: str) -> tuple[float, float]:
    """(recall, precision) of the duplicate sidecars. A flagged doc is a
    true positive when its representative is in its ground-truth
    cluster; each cluster of n present members holds n - 1 duplicates."""
    with open(os.path.join(setup_dir, "truth.json"), encoding="utf-8") as fh:
        cluster_of = json.load(fh)["cluster_of"]
    sizes: dict[int, int] = {}
    for ci in cluster_of.values():
        sizes[ci] = sizes.get(ci, 0) + 1
    expected = sum(n - 1 for n in sizes.values())
    flagged = hits = 0
    for path in _files(os.path.join(pass_dir, "duplicates"), ".jsonl.gz"):
        for line in _gz_lines(path):
            record = json.loads(line)
            flagged += 1
            ci = cluster_of.get(record["doc_id"])
            if ci is not None and cluster_of.get(record["representative_id"]) == ci:
                hits += 1
    recall = hits / expected if expected else 0.0
    precision = hits / flagged if flagged else 0.0
    return recall, precision
