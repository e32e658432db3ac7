"""corpusforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload crawl_short --seed 777 --seconds 30 --trace 0

Builds the workload's inputs from the seed (three times, each in its own
process, to time set-up), then runs the workload's commands through
`corpusforge.cli.main` in one fresh child process, pass after pass on a
fresh copy of the inputs, for about --seconds seconds. It checks the
outputs and prints a report, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 the child runs one untraced pass and then one pass with
every public function of the layer modules wrapped in spans, and the
metrics are the per-layer ones. The exit code is 0 only when every
check passed. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

REPO = workloads.REPO
SETUPS = 3
ORACLE_SAMPLE = 24
# floors on fuzzy dedup quality against ground truth (dup_clusters)
MIN_FUZZY_RECALL = 0.8
MIN_FUZZY_PRECISION = 0.99
RUN_LIMIT_S = 170.0

COMMAND_LABELS = ("annotate", "dedup_exact", "dedup_fuzzy", "filter", "stats")


def _child(args: list[str], timeout: float) -> None:
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                   cwd=REPO, check=True, timeout=timeout)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int, spec) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    source = hashlib.sha256()
    for dirpath, _dirs, files in sorted(os.walk(os.path.join(workloads.SRC, "corpusforge"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha,
            "source_sha256": source.hexdigest(), "seed": seed, "workers": spec.workers}


def span_totals(result: dict) -> dict[str, dict]:
    """Span summary rows of all commands added up per span name."""
    totals: dict[str, dict] = {}
    for _cmd, name, row in result["spans"]:
        agg = totals.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        for key in agg:
            agg[key] += row[key]
    return totals


def layer_metrics(result: dict, docs: int, raw_mb: float, checks_out: dict) -> dict:
    """The per-layer metrics from the traced pass's span summary; the
    per-command rates and the tracing overhead come from comparing the
    untraced first pass with the traced second one."""
    untraced, traced = result["passes"]
    totals = span_totals(result)
    counters = result["counters"] or {}

    def total(*names):
        return sum(totals.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(name):
        return totals.get(name, {}).get("count", 0)

    def self_s(*names):
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    layer_self = {}
    for name, row in totals.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    lsh_pairs = counters.get("dedup.lsh_candidate_pairs", 0.0)
    m = {
        "textnorm.analyze_s": (total("textnorm.analyze"), "s"),
        "textnorm.analyze_calls": (calls("textnorm.analyze"), "count"),
        "textnorm.normalize_s": (total("textnorm.normalize"), "s"),
        "textnorm.normalize_calls": (calls("textnorm.normalize"), "count"),
        "signals.natlang_s": (total("signals.doc_natlang_signals"), "s"),
        "signals.repetition_s": (total("signals.doc_repetition_signals"), "s"),
        "signals.content_s": (total("signals.content_signals"), "s"),
        "signals.lines_s": (total("signals.line_signals"), "s"),
        "annotate.compute_signals_s": (total("annotate.compute_signals"), "s"),
        "annotate.self_s": (layer_self.get("annotate", 0.0), "s"),
        "annotate.resolve_signal_names_calls": (calls("annotate.resolve_signal_names"), "count"),
        "kneser_ney.perplexity_s": (total("kneser_ney.perplexity"), "s"),
        "mlmodels.score_s": (total("mlmodels.LinearClassifier.score_words",
                                   "mlmodels.dsir_importance"), "s"),
        "records.json_parse_s": (total("records.parse_document",
                                       "records.parse_signal_record"), "s"),
        "records.json_serialize_s": (total("records.Document.to_json",
                                           "records.QualitySignalSet.to_json"), "s"),
        "records.gzip_io_s": (self_s("records.write_jsonl_gz", "records.iter_jsonl_gz"), "s"),
        "records.docs_parsed": (calls("records.parse_document")
                                - totals.get("records.parse_document", {}).get("errors", 0),
                                "count"),
        "records.bad_records": (totals.get("records.parse_document", {}).get("errors", 0),
                                "count"),
        "records.bytes_written": (counters.get("records.bytes_written", 0.0), "B"),
        "dedup.bloom_s": (total("dedup.BloomFilter.add", "dedup.BloomFilter.__contains__"), "s"),
        "dedup.bloom_fill": (counters.get("dedup.bloom_fill", 0.0), "ratio"),
        "dedup.minhash_s": (total("dedup.minhash_for_words"), "s"),
        "dedup.minhash_calls": (calls("dedup.minhash_for_words"), "count"),
        "dedup.lsh_s": (total("dedup.lsh_candidates"), "s"),
        "dedup.lsh_candidate_pairs": (lsh_pairs, "count"),
        "dedup.lsh_useful_ratio": (counters.get("dedup.jaccard_pairs", 0.0) / lsh_pairs
                                   if lsh_pairs else 0.0, "ratio"),
        "dedup.cluster_s": (total("dedup.cluster_and_select"), "s"),
        "dedup.fuzzy_recall": (checks_out.get("fuzzy_recall", 0.0), "ratio"),
        "dedup.fuzzy_precision": (checks_out.get("fuzzy_precision", 0.0), "ratio"),
        "filtering.evaluate_s": (total("filtering.evaluate"), "s"),
        "filtering.evaluate_calls": (calls("filtering.evaluate"), "count"),
        "filtering.rewritten": (counters.get("filtering.rewritten", 0.0), "count"),
        "filtering.dropped": (counters.get("filtering.dropped", 0.0), "count"),
    }
    labels = [c["label"] for c in traced["commands"]]
    for label in COMMAND_LABELS:
        own = 0.0
        if label in labels:
            idx = labels.index(label)
            own = sum(row["self_s"] for cmd, name, row in result["spans"]
                      if cmd == idx and (name == "cli.main" or name.startswith("pipeline.")))
        m[f"pipeline.{label}_self_s"] = (own, "s")
    for label in COMMAND_LABELS:
        secs = [c["scaled_seconds"] for c in untraced["commands"] if c["label"] == label]
        m[f"pipeline.{label}_docs_per_s"] = (docs / secs[0] if secs else 0.0, "docs/s")
    plain = raw_mb / untraced["scaled_s"]
    with_spans = raw_mb / traced["scaled_s"]
    m["trace.untraced_mb_per_s"] = (plain, "MB/s")
    m["trace.traced_mb_per_s"] = (with_spans, "MB/s")
    m["trace.overhead_frac"] = (plain / with_spans - 1.0, "ratio")
    return m


def span_table(result: dict) -> list[str]:
    lines = [f"  {'span':<48} {'count':>9} {'total_s':>9} {'self_s':>9}"]
    for name, row in sorted(span_totals(result).items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<48} {row['count']:>9} {row['total_s']:>9.3f} "
                     f"{row['self_s']:>9.3f}")
    return lines


def run(args) -> int:
    spec = workloads.WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None else spec.default_seed
    started = time.monotonic()
    work = os.path.join(REPO, ".bench_work", f"{spec.name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(args, spec, seed, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def _run(args, spec, seed: int, work: str, started: float) -> int:
    failures: list[str] = []
    setups = []
    for k in range(SETUPS):
        out = os.path.join(work, f"setup{k}.json")
        _child(["setup", "--workload", spec.name, "--seed", str(seed), "--size", args.size,
                "--dir", os.path.join(work, f"setup{k}"), "--out", out], timeout=120)
        setups.append(_load(out))
    hashes = {s["tree_sha256"] for s in setups}
    if len(hashes) != 1:
        failures.append(f"set-up is not deterministic: {len(hashes)} distinct input trees")
    setup_dir = os.path.join(work, "setup0")
    for k in range(1, SETUPS):
        shutil.rmtree(os.path.join(work, f"setup{k}"))
    props = setups[0]["props"]
    docs, raw_mb = props["docs"], props["raw_mb"]

    out = os.path.join(work, "measure.json")
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    _child(["measure", "--workload", spec.name, "--dir", setup_dir,
            "--work", os.path.join(work, "passes"), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", out], timeout=max(10.0, remaining))
    result = _load(out)
    passes = result["passes"]
    last = result["last_pass_dir"]

    # -- checks ---------------------------------------------------------
    import checks

    attempted = failed = 0
    for p in passes:
        for c in p["commands"]:
            attempted += docs
            if c["rc"] != 0:
                failed += docs
                failures.append(f"{c['label']} exited {c['rc']}: "
                                f"{c['stderr'].strip().splitlines()[-1:] }")
    tree_hashes = {p["tree_sha256"] for p in passes}
    if len(tree_hashes) != 1:
        failures.append(f"output trees differ between passes: {sorted(tree_hashes)}")
    final = passes[-1]["commands"]
    by_label = {c["label"]: c for c in final}
    checks_out: dict = {}
    if "filter" in by_label:
        failures += checks.check_filter(by_label["filter"]["stdout"], docs, last)
    failures += checks.check_stats(by_label["stats"]["stdout"], docs)
    if "annotate" in by_label:
        checked, errs = checks.check_signals(last, seed, ORACLE_SAMPLE)
        checks_out["oracle_docs"] = checked
        failures += errs
    if "dedup_fuzzy" in by_label:
        recall, precision = checks.fuzzy_quality(last, setup_dir)
        checks_out.update(fuzzy_recall=recall, fuzzy_precision=precision)
        if recall < MIN_FUZZY_RECALL or precision < MIN_FUZZY_PRECISION:
            failures.append(f"fuzzy dedup recall {recall:.4f} / precision {precision:.4f} "
                            f"below {MIN_FUZZY_RECALL} / {MIN_FUZZY_PRECISION}")

    # -- report ---------------------------------------------------------
    env = environment(seed, spec)
    print(f"workload {spec.name}: {spec.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("input " + json.dumps(props, sort_keys=True))
    print("setup_s runs (scaled, raw): "
          f"{[(round(s['setup_scaled_s'], 4), round(s['setup_s'], 4)) for s in setups]}")
    untraced = [p for p in passes if not p["traced"]]
    for label in COMMAND_LABELS:
        cmds = [c for p in untraced for c in p["commands"] if c["label"] == label]
        if cmds:
            scaled = docs / statistics.median(c["scaled_seconds"] for c in cmds)
            raw = docs / statistics.median(c["seconds"] for c in cmds)
            print(f"{label}_docs_per_s {scaled:.2f} docs/s scaled, {raw:.2f} raw "
                  f"(median of {len(cmds)} pass(es))")
    pipeline_mb_s = statistics.median(raw_mb / p["scaled_s"] for p in untraced)
    loops = [r for p in passes for c in p["commands"] for r in c["reference_s"]]
    print(f"raw pipeline_mb_per_s {statistics.median(raw_mb / p['wall_s'] for p in untraced)}"
          f" MB/s; reference loop: {len(loops)} samples, median "
          f"{statistics.median(loops):.6f} s, quartiles "
          f"{[round(q, 6) for q in statistics.quantiles(loops, n=4)]}")
    bad = props.get("malformed_lines", 0) * len(spec.commands) * len(passes)
    print(f"failed_frac {(bad + failed) / attempted:.6f} "
          f"({bad} bad records read + {failed} docs in failed commands, of {attempted})")
    print(f"output_tree_sha256 {sorted(tree_hashes)[0]}")
    if "filter" in by_label:
        print("filter_counts " + json.dumps(checks.filter_counts(by_label["filter"]["stdout"])))
    for key, value in checks_out.items():
        print(f"check {key} {value}")
    for msg in failures:
        print(f"CHECK FAILED: {msg}")

    if args.trace:
        metrics = layer_metrics(result, docs, raw_mb, checks_out)
        print(f"trace run {result['run_id']}: spans per name, all commands")
        print("\n".join(span_table(result)))
    else:
        metrics = {
            "setup_s": (statistics.median(s["setup_scaled_s"] for s in setups), "s"),
            "pipeline_mb_per_s": (pipeline_mb_s, "MB/s"),
            "peak_rss_mb": (result["peak_rss_kb"] * 1024 / 1e6, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget; passes run until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args()
    missing = [p for p in ("src/corpusforge/cli.py", "tests/oracles.py",
                           "tests/test_acceptance.py")
               if not os.path.exists(os.path.join(REPO, p))]
    if missing:
        print(f"error: corpusforge sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: subprocess.run kills and reaps the running
    # child, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
