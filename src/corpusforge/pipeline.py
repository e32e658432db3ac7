"""Pipeline orchestration: shard discovery, per-shard jobs for
annotate/dedup/filter/stats, and model training entry points.

Every command reads its shards in shard jobs (`_run_shard_jobs`); with
`workers` > 1 they run in that many forked worker processes. Workers
inherit the loaded resources and models from the parent instead of
receiving them, and send back only each shard's small result, in shard
order.
Each worker adds its own memory (about 51 MB resident on a 240-page
annotate with ML models).

Every command is restartable per shard: annotate and filter skip shard
outputs that already exist unless force is set, and dedup rewrites both
its sidecars (duplicates/ and, in fuzzy mode, minhash/) on every run,
since whether a document is a duplicate depends on the whole corpus.
With a fixed config and seed the whole output tree is bit-reproducible
(gzip mtime is pinned to 0)."""

from __future__ import annotations

import glob
import json
import os
import signal
import sys
import typing
from collections import Counter
from dataclasses import dataclass, field

from . import annotate as annotate_mod
from . import dedup as dedup_mod
from .errors import ConfigError, DataError
from .filtering import Ruleset, evaluate, load_ruleset
from .kneser_ney import kn_from_payload, kn_payload, perplexity, train_kn_lm
from .mlmodels import (
    classifier_from_payload,
    classifier_payload,
    hashed_lm_from_payload,
    hashed_lm_payload,
    load_model,
    save_model,
    train_classifier,
    train_hashed_lm,
    training_accuracy,
)
from .records import (
    ShardAddress,
    document_id,
    iter_jsonl_gz,
    lone_surrogate,
    parse_shard_path,
    read_documents,
    read_signals,
    shard_path,
    write_jsonl_gz,
)
from .textnorm import normalize

ENV_PREFIX = "CORPUSFORGE_"


@dataclass
class PipelineConfig:
    input_root: str = "."
    output_root: str = "out"
    snapshots: list[str] = field(default_factory=list)  # newest -> oldest
    languages: list[str] = field(default_factory=lambda: ["en"])
    workers: int = 1
    seed: int = 0
    signals: list[str] = field(default_factory=lambda: list(annotate_mod.DEFAULT_SIGNALS))
    ruleset: str = ""
    models: dict = field(default_factory=dict)
    bloom_capacity: int = 100_000
    bloom_error_rate: float = 0.01
    jaccard: float = 0.8
    apply_dedup: bool = True
    force: bool = False
    stopword_dir: str = ""
    ldnoobw_dir: str = ""
    ut1_dir: str = ""

    @classmethod
    def load(cls, path: str | None = None, overrides: dict | None = None) -> "PipelineConfig":
        """Defaults, then the JSON config file, then CORPUSFORGE_*
        environment variables, then `overrides` (command-line flags).
        Every value is checked against the field's annotation."""
        values: dict = {}
        if path:
            try:
                with open(path, encoding="utf-8") as fh:
                    values = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            if not isinstance(values, dict):
                raise ConfigError(f"config {path} is not a JSON object")
        hints = typing.get_type_hints(cls)
        for key in values:
            if key not in hints:
                raise ConfigError(f"unknown config key {key!r}")
        # environment overrides, e.g. CORPUSFORGE_WORKERS=4
        for name, hint in hints.items():
            var = ENV_PREFIX + name.upper()
            if var in os.environ:
                values[name] = _from_env_string(var, os.environ[var], hint)
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        cfg = cls(**{k: _checked(k, v, hints[k]) for k, v in values.items()})
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.snapshots and self.snapshots != sorted(self.snapshots, reverse=True):
            raise ConfigError(
                "snapshots must be ordered newest to oldest: "
                + ", ".join(self.snapshots)
            )
        if not 0.0 < self.jaccard <= 1.0:
            raise ConfigError(f"jaccard must be in (0, 1], got {self.jaccard}")


_ENV_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _from_env_string(var: str, raw: str, hint):
    """Convert an environment string to the field's type: lists split on
    commas, dicts parse as JSON, bools accept 1/true/yes and 0/false/no
    in any case."""
    kind = typing.get_origin(hint) or hint
    if kind is list:
        return [x for x in raw.split(",") if x]
    if kind is bool:
        try:
            return _ENV_BOOLS[raw.lower()]
        except KeyError:
            raise ConfigError(
                f"{var}={raw!r} is not a valid bool: use 1/true/yes or 0/false/no"
            ) from None
    try:
        return json.loads(raw) if kind is dict else kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{var}={raw!r} is not a valid {kind.__name__}: {exc}") from exc


def _checked(name: str, value, hint):
    """value if it has the field's type (an int is accepted for a float,
    a bool is not accepted for an int), else ConfigError."""
    kind = typing.get_origin(hint) or hint
    if kind is float and type(value) is int:
        return float(value)
    ok = isinstance(value, kind) and not (kind is int and type(value) is bool)
    if ok and kind is list:
        (item,) = typing.get_args(hint)
        ok = all(isinstance(x, item) for x in value)
    if not ok:
        expected = hint.__name__ if isinstance(hint, type) else hint
        raise ConfigError(f"config value {name}={value!r} is not of type {expected}")
    return value


# ---------------------------------------------------------------------------
# Shard discovery


def discover_document_shards(
    cfg: PipelineConfig,
) -> list[tuple[str, ShardAddress, str]]:
    """(path relative to input_root, address, path) of the document
    shards under input_root, restricted to the configured
    snapshots/languages, in (config snapshot order, shard id, language,
    bucket) order."""
    pattern = os.path.join(cfg.input_root, "documents", "*", "*", "*.json.gz")
    found = []
    for path in glob.glob(pattern):
        rel = os.path.relpath(path, cfg.input_root)
        try:
            addr, _ = parse_shard_path(rel)
        except (ValueError, IndexError):
            continue
        if cfg.snapshots and addr.snapshot_id not in cfg.snapshots:
            continue
        if cfg.languages and addr.language not in cfg.languages:
            continue
        found.append((rel, addr, path))
    snap_order = {s: i for i, s in enumerate(cfg.snapshots)}
    found.sort(key=lambda item: (snap_order.get(item[1].snapshot_id, len(snap_order)), item[1]))
    return found


def _output_exists(path: str, force: bool) -> bool:
    return not force and os.path.exists(path) and os.path.getsize(path) > 0


# (job, shards, first_failed) of the running pooled _run_shard_jobs. The
# pool forks its workers after this is set, so they inherit the job's
# closure and the resources it holds (numpy model tables stay shared
# copy-on-write) instead of unpickling them.
_POOLED = None


def _unwind(signum, frame):
    raise SystemExit(128 + signum)


def _pooled_job(index: int):
    """Run shard job `index` in a worker. Once a job has raised, the jobs
    after it that have not started return None without running: the
    parent, taking results in shard order, raises that job's error
    before it reaches them. Jobs before it run, as they would serially."""
    job, shards, first_failed = _POOLED
    if index > first_failed.value:
        return None
    # Pool.terminate() sends SIGTERM: unwind as an exception, so that
    # write_jsonl_gz removes the .tmp file it is writing
    signal.signal(signal.SIGTERM, _unwind)
    try:
        return job(shards[index])
    except Exception:
        with first_failed.get_lock():
            first_failed.value = min(first_failed.value, index)
        raise
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _run_shard_jobs(cfg: PipelineConfig, shards: list, job):
    """job(shard) for each shard, yielded in shard order as each one
    finishes. Runs in-process with one worker or one shard, else in a
    pool of forked worker processes. A job's exception reaches the
    caller with its type and message."""
    global _POOLED
    workers = min(cfg.workers, len(shards))
    if workers <= 1:
        yield from map(job, shards)
        return
    # imported here: a serial run does not load it (about 0.2 MB resident)
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    _POOLED = (job, shards, ctx.Value("q", len(shards)))
    try:
        with ctx.Pool(workers) as pool:
            yield from pool.imap(_pooled_job, range(len(shards)), chunksize=1)
    finally:
        _POOLED = None


def _check_models(models: dict) -> None:
    """ConfigError unless `models` has the shape load_resources reads:
    {"classifiers": {name: path}, "importance": {name: {"target": path,
    "source": path}}, "kn_lm": path}, each part optional."""
    classifiers = models.get("classifiers", {})
    if not (isinstance(classifiers, dict)
            and all(isinstance(p, str) for p in classifiers.values())):
        raise ConfigError(f"models.classifiers={classifiers!r} must map names to model paths")
    importance = models.get("importance", {})
    if not (isinstance(importance, dict) and all(
            isinstance(pair, dict)
            and isinstance(pair.get("target"), str)
            and isinstance(pair.get("source"), str)
            for pair in importance.values())):
        raise ConfigError(
            f"models.importance={importance!r} must map names to "
            '{"target": path, "source": path}'
        )
    if not isinstance(models.get("kn_lm", ""), str):
        raise ConfigError(f"models.kn_lm={models['kn_lm']!r} must be a model path")


def _load_model_as(path: str, kind: str, from_payload):
    """(model, hash) of the model file at `path`; ConfigError when the
    file's payload does not fit `kind`."""
    _, payload, digest = load_model(path, kind)
    try:
        return from_payload(payload), digest
    except (ConfigError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"model {path} has a malformed {kind} payload: {exc!r}") from exc


def load_resources(cfg: PipelineConfig) -> annotate_mod.SignalResources:
    res = annotate_mod.SignalResources.load_default(
        languages=tuple(cfg.languages),
        stopword_dir=cfg.stopword_dir or None,
        ldnoobw_dir=cfg.ldnoobw_dir or None,
        ut1_dir=cfg.ut1_dir or None,
    )
    models = cfg.models or {}
    _check_models(models)
    for key, path in models.get("classifiers", {}).items():
        res.classifiers[key], digest = _load_model_as(
            path, "classifier", classifier_from_payload)
        res.provenance = f"{res.provenance}+{key}:{digest}"
    for key, pair in models.get("importance", {}).items():
        target, tdigest = _load_model_as(pair["target"], "hashed_lm", hashed_lm_from_payload)
        source, sdigest = _load_model_as(pair["source"], "hashed_lm", hashed_lm_from_payload)
        if target.bucket_count != source.bucket_count:
            raise ConfigError(
                f"importance pair {key!r}: target {pair['target']} has "
                f"{target.bucket_count} buckets, source {pair['source']} has "
                f"{source.bucket_count}")
        res.importance_models[key] = (target, source)
        res.provenance = f"{res.provenance}+{key}:{tdigest}/{sdigest}"
    if models.get("kn_lm"):
        res.kn_lm, digest = _load_model_as(models["kn_lm"], "kneser_ney", kn_from_payload)
        res.provenance = f"{res.provenance}+kn:{digest}"
    # fail at startup, not per document, when a requested ML signal has
    # no model behind it
    requested = set(annotate_mod.resolve_signal_names(cfg.signals))
    for name, key in annotate_mod.CLASSIFIER_SIGNALS.items():
        if name in requested and key not in res.classifiers:
            raise ConfigError(f"signal {name} requested but no classifier model configured")
    for name, key in annotate_mod.IMPORTANCE_SIGNALS.items():
        if name in requested and key not in res.importance_models:
            raise ConfigError(f"signal {name} requested but no importance model pair configured")
    return res


# ---------------------------------------------------------------------------
# annotate


def cmd_annotate(cfg: PipelineConfig) -> dict:
    res = load_resources(cfg)
    names = frozenset(annotate_mod.resolve_signal_names(cfg.signals))
    shards = discover_document_shards(cfg)
    if not shards:
        print("no document shards found", file=sys.stderr)

    def job(shard: tuple[str, ShardAddress, str]) -> tuple[str, int]:
        rel, addr, path = shard
        out_path = os.path.join(cfg.output_root, shard_path(addr, "quality_signals"))
        if _output_exists(out_path, cfg.force):
            return rel, -1
        docs = read_documents(path)
        lines = (
            annotate_mod.compute_signals(
                doc, res, names, ordinal=i, snapshot_id=addr.snapshot_id
            ).to_json()
            for i, doc in enumerate(docs)
        )
        try:
            count = write_jsonl_gz(out_path, lines)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
        return rel, count

    counts = [count for _, count in _run_shard_jobs(cfg, shards, job)]
    written = sum(1 for c in counts if c >= 0)
    skipped = len(counts) - written
    print(f"annotate: {written} shard(s) written, {skipped} skipped")
    return {"shards": len(counts), "written": written, "skipped": skipped}


# ---------------------------------------------------------------------------
# dedup


def cmd_dedup(cfg: PipelineConfig, mode: str) -> dict:
    if mode == "exact":
        return _dedup_exact(cfg)
    if mode == "fuzzy":
        return _dedup_fuzzy(cfg)
    raise ConfigError(f"unknown dedup mode {mode!r}")


def _dedup_exact(cfg: PipelineConfig) -> dict:
    """Shard jobs read each shard's (doc_id, shard, digest) entries; the
    parent runs them through the Bloom filter in shard order and writes
    each shard's sidecar before it takes the next shard's entries. So
    the parent holds the filter plus the entries of shards that finished
    early, never a shard's documents."""
    bloom = dedup_mod.BloomFilter(cfg.bloom_capacity, cfg.bloom_error_rate)
    docs_per_snapshot: Counter[str] = Counter()
    dups_per_snapshot: Counter[str] = Counter()

    def job(shard: tuple[str, ShardAddress, str]):
        rel, addr, path = shard
        docs = read_documents(path)
        return addr, [(document_id(doc, i), rel, doc.digest) for i, doc in enumerate(docs)]

    for addr, entries in _run_shard_jobs(cfg, discover_document_shards(cfg), job):
        records = dedup_mod.exact_dedup_pass(entries, bloom)
        docs_per_snapshot[addr.snapshot_id] += len(entries)
        dups_per_snapshot[addr.snapshot_id] += _write_duplicates(cfg, addr, records)
    for snapshot in cfg.snapshots or sorted(docs_per_snapshot, reverse=True):
        docs, dups = docs_per_snapshot[snapshot], dups_per_snapshot[snapshot]
        frac = dups / docs if docs else 0.0
        print(f"dedup[exact] {snapshot}: {docs} docs, {dups} duplicates ({frac:.2%})")
    total_docs, total_dups = docs_per_snapshot.total(), dups_per_snapshot.total()
    print(f"dedup[exact] total: {total_docs} docs, {total_dups} duplicates; "
          f"bloom fill {bloom.fill_ratio():.3f}")
    return {"mode": "exact", "documents": total_docs, "duplicates": total_dups}


def _write_duplicates(cfg: PipelineConfig, addr: ShardAddress, records) -> int:
    """The duplicates sidecar of one shard, empty when it has no
    duplicate records; returns the number of records written."""
    out_path = os.path.join(cfg.output_root, shard_path(addr, "duplicates"))
    return write_jsonl_gz(out_path, (r.to_json() for r in records))


def _dedup_fuzzy(cfg: PipelineConfig) -> dict:
    """Shard jobs compute the signatures of each shard's distinct contents
    and write its minhash sidecar; the parent groups them in canonical
    order, then runs LSH and clustering over the whole corpus."""
    shards = discover_document_shards(cfg)

    def job(shard: tuple[str, ShardAddress, str]):
        rel, addr, path = shard
        docs = read_documents(path)
        ids = [document_id(doc, i) for i, doc in enumerate(docs)]
        slots, sigs = dedup_mod.content_signatures([doc.raw_content for doc in docs])
        out_path = os.path.join(cfg.output_root, shard_path(addr, "minhash"))
        write_jsonl_gz(out_path, (
            json.dumps({"doc_id": doc_id, "digest": doc.digest,
                        "signature": sigs[slot].tolist()}, separators=(",", ":"))
            for doc_id, doc, slot in zip(ids, docs, slots)
        ))
        return rel, ids, slots, sigs

    index = dedup_mod.SignatureGroups()
    for rel, ids, slots, sigs in _run_shard_jobs(cfg, shards, job):
        for doc_id, slot in zip(ids, slots):
            index.add(doc_id, rel, sigs[slot])

    bands, rows = dedup_mod.pick_banding(cfg.jaccard)
    records, pairs = index.duplicates(bands, rows, cfg.jaccard)
    by_shard: dict[str, list] = {rel: [] for rel, _, _ in shards}
    for record in records:
        by_shard[record.shard].append(record)
    for rel, addr, _ in shards:
        _write_duplicates(cfg, addr, by_shard[rel])
    documents = len(index.docs)
    frac = len(records) / documents if documents else 0.0
    print(f"dedup[fuzzy] bands={bands} rows={rows}: {documents} docs, "
          f"{pairs} candidate pairs, {len(records)} duplicates ({frac:.2%})")
    return {
        "mode": "fuzzy",
        "documents": documents,
        "candidates": pairs,
        "duplicates": len(records),
    }


def _load_duplicate_ids(addr: ShardAddress, root: str) -> set[str]:
    path = os.path.join(root, shard_path(addr, "duplicates"))
    if not os.path.exists(path):
        return set()
    ids = set()
    for num, line in iter_jsonl_gz(path):
        try:
            ids.add(json.loads(line)["doc_id"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: line {num}: bad duplicate record: {exc!r}") from exc
    return ids


# ---------------------------------------------------------------------------
# filter


def _audit_line(doc_id: str, verdict: str, fired_rules) -> str:
    return json.dumps(
        {"doc_id": doc_id, "verdict": verdict,
         "fired_rules": [[r, v] for r, v in fired_rules]},
        separators=(",", ":"),
    )


def cmd_filter(cfg: PipelineConfig) -> dict:
    if not cfg.ruleset:
        raise ConfigError("filter requires a ruleset path or preset name")
    rs: Ruleset = load_ruleset(cfg.ruleset)
    shards = discover_document_shards(cfg)
    totals = {"kept": 0, "rewritten": 0, "dropped": 0, "duplicates": 0}

    def job(shard: tuple[str, ShardAddress, str]):
        rel, addr, path = shard
        out_path = os.path.join(cfg.output_root, shard_path(addr, "documents"))
        audit_path = out_path.replace(".json.gz", ".audit.jsonl.gz")
        if _output_exists(out_path, cfg.force):
            return None
        docs = read_documents(path)
        ids = [document_id(doc, i) for i, doc in enumerate(docs)]
        signals = None
        if rs.doc_rules or rs.line_rules:
            sig_path = os.path.join(cfg.input_root, shard_path(addr, "quality_signals"))
            if not os.path.exists(sig_path):
                raise ConfigError(f"missing signals sidecar for shard {rel}: {sig_path}")
            signals = read_signals(sig_path, ids)
        duplicates = (
            _load_duplicate_ids(addr, cfg.input_root) if cfg.apply_dedup else set()
        )
        out_lines, audit_lines = [], []
        counts = {"kept": 0, "rewritten": 0, "dropped": 0, "duplicates": 0}
        for i, (doc, doc_id) in enumerate(zip(docs, ids)):
            if doc_id in duplicates:
                counts["duplicates"] += 1
                audit_lines.append(_audit_line(doc_id, "drop", [("duplicate", 1.0)]))
                continue
            decision = None
            if signals is not None:
                try:
                    decision = evaluate(doc, signals[i], rs)
                except DataError as exc:
                    raise DataError(f"{sig_path}: {exc}") from exc
            if decision is None or decision.verdict == "keep":
                counts["kept"] += 1
                out_lines.append(doc.to_json())
                continue
            audit_lines.append(_audit_line(doc_id, decision.verdict, decision.fired_rules))
            if decision.verdict == "rewrite":
                counts["rewritten"] += 1
                out_lines.append(decision.rewritten.to_json())
            else:
                counts["dropped"] += 1
        # the documents file, written last, marks the shard as done
        write_jsonl_gz(audit_path, audit_lines)
        write_jsonl_gz(out_path, out_lines)
        return counts

    for counts in _run_shard_jobs(cfg, shards, job):
        if counts:
            for key in totals:
                totals[key] += counts[key]
    print(
        f"filter[{rs.name}]: kept {totals['kept']}, rewritten {totals['rewritten']}, "
        f"dropped {totals['dropped']}, duplicates {totals['duplicates']}"
    )
    return totals


# ---------------------------------------------------------------------------
# stats


def cmd_stats(cfg: PipelineConfig, as_json: bool = False) -> dict:
    """Per-language document/word counts in the partition-column layout
    (all / tail / head+middle / head+middle deduped). Word counts are a
    proxy for BPE token counts. as_json switches the rendering from the
    human table to one machine-readable JSON object."""
    columns = ("all", "tail", "head_middle", "head_middle_dedupe")

    def job(shard: tuple[str, ShardAddress, str]):
        _, addr, path = shard
        duplicates = _load_duplicate_ids(addr, cfg.input_root)
        counts = {c: [0, 0] for c in columns}
        for i, doc in enumerate(read_documents(path)):
            words = len(doc.raw_content.split())
            part = "tail" if doc.bucket == "tail" else "head_middle"
            cols = ["all", part]
            if part == "head_middle" and document_id(doc, i) not in duplicates:
                cols.append("head_middle_dedupe")
            for c in cols:
                counts[c][0] += 1
                counts[c][1] += words
        return addr.language, counts

    per_lang: dict[str, dict[str, list[int]]] = {}
    total = {c: [0, 0] for c in columns}
    for language, counts in _run_shard_jobs(cfg, discover_document_shards(cfg), job):
        row = per_lang.setdefault(language, {c: [0, 0] for c in columns})
        for c, (docs, words) in counts.items():
            for target in (row[c], total[c]):
                target[0] += docs
                target[1] += words
    table = {lang: per_lang[lang] for lang in sorted(per_lang)}
    table["Total"] = total
    result = {
        "columns": list(columns),
        "note": "word counts proxy for BPE token counts",
        "rows": table,
    }
    if as_json:
        print(json.dumps(result, separators=(",", ":"), sort_keys=True))
        return result

    header = f"{'lang':>6} " + " ".join(f"{c:>24}" for c in columns)
    print(header)
    print("note: word counts proxy for BPE token counts")
    for lang, row in table.items():
        cells = " ".join(
            f"{row[c][0]:>10} {row[c][1]:>13}" for c in columns
        )
        print(f"{lang:>6} {cells}")
    return result


# ---------------------------------------------------------------------------
# train


def _iter_training_texts(path: str):
    """Accepts JSONL(.gz) with either {"text": ...} or full document
    records; yields normalized word lists."""
    for num, line in iter_jsonl_gz(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {num}: malformed JSON: {exc}") from exc
        text = record.get("text", record.get("raw_content")) if isinstance(record, dict) else None
        if not isinstance(text, str):
            raise DataError(f"{path}: line {num}: not a JSON object with a string "
                            "text or raw_content field")
        if (at := lone_surrogate(text)) is not None:
            raise DataError(f"{path}: line {num}: text holds a lone surrogate "
                            f"at character {at}")
        yield normalize(text).split()


def cmd_train(cfg: PipelineConfig, kind: str, args: dict) -> dict:
    out_path = args.get("output")
    if not out_path:
        raise ConfigError("train requires an output model path")

    if kind == "classifier":
        pos = list(_iter_training_texts(_require(args, "positive")))
        neg = list(_iter_training_texts(_require(args, "negative")))
        clf = train_classifier(
            pos, neg,
            epochs=args.get("epochs", 20),
            lr=args.get("lr", 0.5),
            seed=cfg.seed,
        )
        digest = save_model(out_path, "classifier", classifier_payload(clf))
        acc = training_accuracy(clf, pos, neg)
        print(f"classifier saved to {out_path} (hash {digest}); "
              f"training accuracy {acc:.4f}")
        return {"kind": kind, "hash": digest, "accuracy": acc}

    if kind == "hashed_lm":
        corpus = list(_iter_training_texts(_require(args, "corpus")))
        lm = train_hashed_lm(corpus, buckets=args.get("buckets", 10_000))
        digest = save_model(out_path, "hashed_lm", hashed_lm_payload(lm))
        print(f"hashed LM saved to {out_path} (hash {digest}); "
              f"{lm.total} features over {lm.bucket_count} buckets")
        return {"kind": kind, "hash": digest, "total": lm.total}

    if kind == "kn_lm":
        tokens: list[str] = []
        for words in _iter_training_texts(_require(args, "corpus")):
            tokens.extend(words)
        lm = train_kn_lm(tokens, order=args.get("order", 5))
        digest = save_model(out_path, "kneser_ney", kn_payload(lm))
        ppl = perplexity(tokens, lm)
        print(f"KN LM saved to {out_path} (hash {digest}); "
              f"training perplexity {ppl:.2f}")
        return {"kind": kind, "hash": digest, "train_perplexity": ppl}

    raise ConfigError(f"unknown training kind {kind!r}")


def _require(args: dict, key: str) -> str:
    value = args.get(key)
    if not value:
        raise ConfigError(f"train is missing required argument --{key}")
    return value
