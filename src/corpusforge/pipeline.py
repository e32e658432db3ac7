"""Pipeline orchestration: the shard driver, the annotate/dedup/filter/
stats commands built on it, and model training entry points.

One driver, `_run_shard_jobs`, serves every command. It finds the shards
(`discover_document_shards`: newest snapshot first; a file that is not a
shard name is warned about and skipped), skips those whose output
exists, reads each shard's documents, builds their ids once and calls
the command's `job(addr, docs, ids)`. With `workers` > 1 the jobs run in
that many forked worker processes, which inherit annotate's inputs
(annotate.load_resources) instead of receiving them and send back only
each shard's small result and its read warnings, which the main process
prints in shard order; a worker that dies is a data error naming its
shard. Each worker adds its own memory (a peak of about 53 MB resident, as
RUSAGE_CHILDREN reports it, on a 240-page annotate with ML models, which
holds one 30-page shard's analyzed documents and word arrays at a time).

Both dedup modes key a document by content_digest of its content, never
by its own `digest` field, which nothing checks against the content.
filter reads a shard's signals sidecar one record at a time
(records.iter_signal_records) and decides each document from its record
as it is read (filtering.evaluate_shard).

Every command is restartable per shard: annotate and filter skip shard
outputs that already exist unless force is set. dedup rewrites its
duplicates/ sidecars on every run, since whether a document is a
duplicate depends on the whole corpus. In fuzzy mode it reuses a shard's
matching minhash/ sidecar unless force is set (dedup.shard_signatures).
With a fixed config and seed the whole output tree is bit-reproducible
(gzip mtime is pinned to 0)."""

from __future__ import annotations

import glob
import json
import math
import os
import sys
import typing
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import repeat

from . import annotate as annotate_mod
from . import dedup as dedup_mod
from .errors import ConfigError, DataError
from .filtering import DUPLICATE, Ruleset, evaluate_shard, load_ruleset
from .kneser_ney import kn_payload, train_kn_lm
from .mlmodels import (
    classifier_payload,
    hashed_lm_payload,
    save_model,
    train_classifier,
    train_hashed_lm,
    training_accuracy,
)
from .records import (
    ShardAddress,
    content_digests,
    document_id,
    iter_json_objects,
    iter_signal_records,
    lone_surrogate,
    parse_shard_path,
    read_documents,
    shard_path,
    write_jsonl_gz,
)
from .textnorm import normalize, number_words

ENV_PREFIX = "CORPUSFORGE_"


@dataclass
class PipelineConfig:
    input_root: str = "."
    output_root: str = "out"
    snapshots: list[str] = field(default_factory=list)
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
            except (OSError, ValueError, RecursionError) as exc:
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
# Shards


def discover_document_shards(cfg: PipelineConfig) -> list[ShardAddress]:
    """The document shards under input_root that the configured snapshots
    and languages select (all, when a list is empty): newest snapshot
    first, then by shard, language and bucket. Any other *.json.gz under
    documents/ is not read and gets one warning."""
    found = []
    for path in sorted(glob.glob(os.path.join(cfg.input_root, "documents/*/*/*.json.gz"))):
        try:
            addr, _ = parse_shard_path(os.path.relpath(path, cfg.input_root))
        except ValueError:
            print(f"warning: {path}: not a shard file name, skipped", file=sys.stderr)
            continue
        if ((not cfg.snapshots or addr.snapshot_id in cfg.snapshots)
                and (not cfg.languages or addr.language in cfg.languages)):
            found.append(addr)
    found.sort()
    found.sort(key=lambda addr: addr.snapshot_id, reverse=True)  # stable: newest first
    return found


# (cfg, job, shards, first_failed, pids) of the running pooled
# _run_shard_jobs. The pool forks its workers after this is set, so they
# inherit the job's closure and the resources it holds (numpy model
# tables stay shared copy-on-write) instead of unpickling them.
_POOLED = None
_POLL_S = 0.5  # seconds between checks that the awaited shard's worker lives


def _read_and_run(cfg: PipelineConfig, job, addr: ShardAddress):
    """(job's result, read_documents' warning lines) of one shard."""
    docs, warnings = read_documents(os.path.join(cfg.input_root, shard_path(addr, "documents")))
    return job(addr, docs, [document_id(doc, i) for i, doc in enumerate(docs)]), warnings


def _pooled_job(index: int):
    """Run shard job `index` in a worker and note the worker's pid. Once a
    job has raised, the jobs after it that have not started return no
    result and no warnings without running: the parent, taking results
    in shard order, raises that job's error before it reaches them. Jobs
    before it run, as they would serially."""
    cfg, job, shards, first_failed, pids = _POOLED
    if index > first_failed.value:
        return None, []
    pids[index] = os.getpid()
    try:
        return _read_and_run(cfg, job, shards[index])
    except Exception:
        with first_failed.get_lock():
            first_failed.value = min(first_failed.value, index)
        raise


def _run_shard_jobs(cfg: PipelineConfig, job, done_kind: str = ""):
    """The shard driver of every command: (addr, job(addr, docs, ids)) for
    each shard of discover_document_shards, in its order, where docs are
    the shard's documents and ids their document_ids. With `done_kind`, a
    shard whose done_kind output exists is skipped unless cfg.force, and
    comes first, as (addr, None). Jobs run in-process with one worker or
    one shard, else in forked pool workers; a job's exception reaches the
    caller as raised, and a worker that dies is a DataError naming its
    shard. Finding no shard at all is one warning line on stderr."""
    global _POOLED
    found = discover_document_shards(cfg)
    if not found:
        print(f"warning: no document shards found under {cfg.input_root}", file=sys.stderr)
    shards = []
    for addr in found:
        out = done_kind and os.path.join(cfg.output_root, shard_path(addr, done_kind))
        if out and not cfg.force and os.path.exists(out) and os.path.getsize(out):
            yield addr, None
        else:
            shards.append(addr)
    workers = min(cfg.workers, len(shards))
    if workers <= 1:
        for addr in shards:
            result, warnings = _read_and_run(cfg, job, addr)
            sys.stderr.writelines(warnings)  # in the main process, in shard order
            yield addr, result
        return
    # imported here: a serial run does not load it (about 0.2 MB resident)
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    pids = ctx.RawArray("q", len(shards))
    _POOLED = (cfg, job, shards, ctx.Value("q", len(shards)), pids)
    try:
        with ctx.Pool(workers) as pool:
            results = deque(pool.apply_async(_pooled_job, (i,)) for i in range(len(shards)))
            for index, addr in enumerate(shards):
                result = results.popleft()  # keep no result once passed on
                # Pool drops a dead worker's task (OOM killer, os._exit): watch for it
                while not result.ready():
                    pid = pids[index]
                    if pid and pid not in {p.pid for p in ctx.active_children()}:
                        path = os.path.join(cfg.input_root, shard_path(addr, "documents"))
                        raise DataError(f"{path}: worker process {pid} died running this shard")
                    result.wait(_POLL_S)
                value, warnings = result.get()
                sys.stderr.writelines(warnings)
                yield addr, value
    except BaseException:
        # leaving the pool killed its workers, which cannot remove the
        # .tmp files they were writing (named after the writer's pid)
        for addr, pid in zip(shards, pids):
            for tmp in glob.glob(os.path.join(cfg.output_root, "*", f"{addr.stem}.*.{pid}.tmp")):
                os.unlink(tmp)
        raise
    finally:
        _POOLED = None


# ---------------------------------------------------------------------------
# annotate


def cmd_annotate(cfg: PipelineConfig) -> dict:
    names = frozenset(annotate_mod.resolve_signal_names(cfg.signals))
    res = annotate_mod.load_resources(cfg, names)

    def job(addr: ShardAddress, docs, ids) -> int:
        out_path = os.path.join(cfg.output_root, shard_path(addr, "quality_signals"))
        try:
            return write_jsonl_gz(out_path, annotate_mod.annotate_shard(
                docs, ids, res, names, addr.snapshot_id))
        except DataError as exc:
            path = os.path.join(cfg.input_root, shard_path(addr, "documents"))
            raise DataError(f"{path}: {exc}") from exc

    counts = [count for _, count in _run_shard_jobs(cfg, job, "quality_signals")]
    written = sum(1 for c in counts if c is not None)
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
    """Shard jobs return each shard's (doc_id, shard, digest) entries,
    the digest being content_digest of the document's content. The
    parent runs them through the Bloom filter in shard order and writes
    each shard's sidecar before it takes the next shard's entries. So
    the parent holds the filter plus the entries of shards that finished
    early, never a shard's documents."""
    bloom = dedup_mod.BloomFilter(cfg.bloom_capacity, cfg.bloom_error_rate)
    docs_per_snapshot: Counter[str] = Counter()
    dups_per_snapshot: Counter[str] = Counter()

    def job(addr: ShardAddress, docs, ids):
        shard = shard_path(addr, "documents")
        digests = content_digests([doc.raw_content for doc in docs])
        return [(doc_id, shard, digest) for doc_id, digest in zip(ids, digests)]

    for addr, entries in _run_shard_jobs(cfg, job):
        records = dedup_mod.exact_dedup_pass(entries, bloom)
        docs_per_snapshot[addr.snapshot_id] += len(entries)
        dups_per_snapshot[addr.snapshot_id] += _write_duplicates(cfg, addr, records)
    for snapshot, docs in docs_per_snapshot.items():  # newest first, as processed
        dups = dups_per_snapshot[snapshot]
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
    """Shard jobs take each shard's signatures from dedup.shard_signatures,
    which reuses or writes its minhash sidecar. The parent groups them in
    canonical order, then runs LSH and clustering over the whole corpus."""

    def job(addr: ShardAddress, docs, ids):
        path = os.path.join(cfg.output_root, shard_path(addr, "minhash"))
        contents = [doc.raw_content for doc in docs]
        return ids, dedup_mod.shard_signatures(path, ids, contents, cfg.force)

    index = dedup_mod.SignatureGroups()
    by_shard: dict[str, tuple[ShardAddress, list]] = {}
    for addr, (ids, sigs) in _run_shard_jobs(cfg, job):
        shard = shard_path(addr, "documents")
        by_shard[shard] = (addr, [])
        index.add(ids, shard, sigs)

    bands, rows = dedup_mod.pick_banding(cfg.jaccard)
    records, pairs = index.duplicates(bands, rows, cfg.jaccard)
    for record in records:
        by_shard[record.shard][1].append(record)
    for addr, shard_records in by_shard.values():
        _write_duplicates(cfg, addr, shard_records)
    documents = len(index.docs)
    frac = len(records) / documents if documents else 0.0
    print(f"dedup[fuzzy] bands={bands} rows={rows}: {documents} docs, "
          f"{pairs} candidate pairs, {len(records)} duplicates ({frac:.2%})")
    return {"mode": "fuzzy", "documents": documents, "candidates": pairs,
            "duplicates": len(records)}


# ---------------------------------------------------------------------------
# filter


# counts key of each verdict
_VERDICT_COUNTS = {"keep": "kept", "rewrite": "rewritten", "drop": "dropped"}


def cmd_filter(cfg: PipelineConfig) -> dict:
    if not cfg.ruleset:
        raise ConfigError("filter requires a ruleset path or preset name")
    if os.path.realpath(cfg.output_root) == os.path.realpath(cfg.input_root):
        # each shard's output would be its own input documents file
        raise ConfigError(f"filter --output {cfg.output_root} is its --input; "
                          "write the filtered corpus to another directory")
    rs: Ruleset = load_ruleset(cfg.ruleset)

    def job(addr: ShardAddress, docs, ids) -> Counter:
        sig_path = os.path.join(cfg.input_root, shard_path(addr, "quality_signals"))
        records = repeat({})  # no rule reads a signal
        if rs.doc_rules or rs.line_rules:
            if not os.path.exists(sig_path):
                raise ConfigError(f"missing signals sidecar for shard "
                                  f"{shard_path(addr, 'documents')}: {sig_path}")
            records = iter_signal_records(sig_path, ids)
        dup_path = os.path.join(cfg.input_root, shard_path(addr, "duplicates"))
        duplicates = dedup_mod.read_duplicates(dup_path) if cfg.apply_dedup else set()
        decisions = evaluate_shard(docs, ids, records, rs, duplicates, sig_path)
        out_lines, audit_lines, counts = [], [], Counter()
        for doc, doc_id, decision in zip(docs, ids, decisions):
            key = "duplicates" if decision is DUPLICATE else _VERDICT_COUNTS[decision.verdict]
            counts[key] += 1
            if decision.verdict != "keep":
                audit_lines.append(json.dumps(
                    {"doc_id": doc_id, "verdict": decision.verdict,
                     "fired_rules": decision.fired_rules}, separators=(",", ":")))
            if decision.verdict != "drop":
                out_lines.append((decision.rewritten or doc).to_json())
        # the documents file, written last, marks the shard as done
        write_jsonl_gz(os.path.join(cfg.output_root, shard_path(addr, "audit")), audit_lines)
        write_jsonl_gz(os.path.join(cfg.output_root, shard_path(addr, "documents")), out_lines)
        return counts

    totals = dict.fromkeys(("kept", "rewritten", "dropped", "duplicates"), 0)
    for _, counts in _run_shard_jobs(cfg, job, "documents"):
        for key, n in (counts or {}).items():
            totals[key] += n
    print(f"filter[{rs.name}]: " + ", ".join(f"{key} {n}" for key, n in totals.items()))
    return totals


# ---------------------------------------------------------------------------
# stats


def cmd_stats(cfg: PipelineConfig, as_json: bool = False) -> dict:
    """Per-language document/word counts in the partition-column layout
    (all / tail / head+middle / head+middle deduped). Word counts are a
    proxy for BPE token counts. as_json switches the rendering from the
    human table to one machine-readable JSON object."""
    columns = ("all", "tail", "head_middle", "head_middle_dedupe")

    def job(addr: ShardAddress, docs, ids):
        dup_path = os.path.join(cfg.input_root, shard_path(addr, "duplicates"))
        duplicates = dedup_mod.read_duplicates(dup_path)
        counts = {c: [0, 0] for c in columns}
        for doc, doc_id in zip(docs, ids):
            words = len(doc.raw_content.split())
            part = "tail" if doc.bucket == "tail" else "head_middle"
            cols = ["all", part]
            if part == "head_middle" and doc_id not in duplicates:
                cols.append("head_middle_dedupe")
            for c in cols:
                counts[c][0] += 1
                counts[c][1] += words
        return counts

    per_lang: dict[str, dict[str, list[int]]] = {}
    total = {c: [0, 0] for c in columns}
    for addr, counts in _run_shard_jobs(cfg, job):
        row = per_lang.setdefault(addr.language, {c: [0, 0] for c in columns})
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
    for where, record in iter_json_objects(path):
        text = record.get("text", record.get("raw_content"))
        if not isinstance(text, str):
            raise DataError(f"{where}: no string text or raw_content field")
        if (at := lone_surrogate(text)) is not None:
            raise DataError(f"{where}: text holds a lone surrogate at character {at}")
        yield normalize(text).split()


def cmd_train(cfg: PipelineConfig, kind: str, args: dict) -> dict:
    out_path = args.get("output")
    if not out_path:
        raise ConfigError("train requires an output model path")

    if kind == "classifier":
        pos = list(_iter_training_texts(_require(args, "positive")))
        neg = list(_iter_training_texts(_require(args, "negative")))
        clf = train_classifier(pos, neg, seed=cfg.seed, **_given(args, "epochs", "lr"))
        digest = save_model(out_path, "classifier", classifier_payload(clf))
        acc = training_accuracy(clf, pos, neg)
        print(f"classifier saved to {out_path} (hash {digest}); "
              f"training accuracy {acc:.4f}")
        return {"kind": kind, "hash": digest, "accuracy": acc}

    if kind == "hashed_lm":
        corpus = list(_iter_training_texts(_require(args, "corpus")))
        lm = train_hashed_lm(corpus, **_given(args, "buckets"))
        digest = save_model(out_path, "hashed_lm", hashed_lm_payload(lm))
        print(f"hashed LM saved to {out_path} (hash {digest}); "
              f"{lm.total} features over {lm.bucket_count} buckets")
        return {"kind": kind, "hash": digest, "total": lm.total}

    if kind == "kn_lm":
        docs = list(_iter_training_texts(_require(args, "corpus")))
        lm = train_kn_lm(docs, **_given(args, "order"))
        digest = save_model(out_path, "kneser_ney", kn_payload(lm))
        # each document scored from an empty history, as annotate does
        logprob = 0.0
        for x in lm.sequence_logprobs(number_words(docs)):
            logprob += x
        ppl = math.exp(-logprob / sum(map(len, docs)))
        print(f"KN LM saved to {out_path} (hash {digest}); "
              f"training perplexity {ppl:.2f}")
        return {"kind": kind, "hash": digest, "train_perplexity": ppl}

    raise ConfigError(f"unknown training kind {kind!r}")


def _given(args: dict, *keys: str) -> dict:
    """The given options among `keys`; the trainers' defaults stand for the rest."""
    return {key: args[key] for key in keys if args.get(key) is not None}


def _require(args: dict, key: str) -> str:
    value = args.get(key)
    if not value:
        raise ConfigError(f"train is missing required argument --{key}")
    return value
