"""Child processes of the benchmark.

    python3 perfbench/child.py setup   --workload W --seed N --size S --dir D --out F
    python3 perfbench/child.py measure --workload W --dir D --work K --seconds T
                                      --trace 0|1 --out F

`setup` generates one workload's inputs (and trains its models) into D
and writes the set-up time and the input properties to F.

`measure` runs the workload's commands through `corpusforge.cli.main`
in this one process, pass after pass, each pass on a fresh copy of the
inputs, until the time budget is spent (at least one pass). Each
command's stdout is captured, never parsed here. With --trace 1 the
first pass is untraced and the second traced, and the span summary is
written too. Results go to F as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, workloads.SRC)


def tree_sha256(root: str) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    paths = []
    for dirpath, _dirs, files in os.walk(root):
        paths.extend(os.path.join(dirpath, f) for f in files)
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def cmd_setup(args) -> None:
    with probe.timed() as setup:
        props = workloads.GENERATORS[args.workload](args.dir, args.seed, args.size)
    props.update(workloads.scan_corpus(args.dir))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup.seconds, "setup_scaled_s": setup.scaled,
                   "props": props, "tree_sha256": tree_sha256(args.dir)}, fh)


def _link_inputs(src: str, dst: str) -> None:
    """Hard-link the input documents into a fresh pass directory. The
    program replaces files rather than writing into them, so links are
    never modified."""
    for dirpath, _dirs, files in os.walk(os.path.join(src, "documents")):
        rel = os.path.relpath(dirpath, src)
        os.makedirs(os.path.join(dst, rel), exist_ok=True)
        for name in files:
            os.link(os.path.join(dirpath, name), os.path.join(dst, rel, name))


def _argv(spec, argv_tail, pass_dir: str, setup_dir: str) -> list[str]:
    argv = list(argv_tail)
    out = pass_dir
    if argv[0] == "filter":
        out = os.path.join(pass_dir, "filtered")
    argv += ["--input", pass_dir, "--snapshots", ",".join(spec.snapshots),
             "--languages", ",".join(spec.languages),
             "--workers", str(spec.workers)]
    if argv[0] != "stats":
        argv += ["--output", out]
    config = os.path.join(setup_dir, "config.json")
    if argv[0] == "annotate" and os.path.exists(config):
        argv += ["--config", config]
    return argv


def run_pass(cli, spec, setup_dir: str, pass_dir: str, tracer=None) -> dict:
    """Run the commands once, timing each (raw and scaled, see probe.py)."""
    _link_inputs(setup_dir, pass_dir)
    commands = []
    for index, (label, tail) in enumerate(spec.commands):
        argv = _argv(spec, tail, pass_dir, setup_dir)
        out, err = io.StringIO(), io.StringIO()
        with probe.timed() as span, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    tracer.current_command = index
                    with tracer.span("cli.main"):
                        rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = 99
        commands.append({"label": label, "argv": argv, "rc": rc, "seconds": span.seconds,
                         "scaled_seconds": span.scaled, "reference_s": span.samples,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    return {"wall_s": sum(c["seconds"] for c in commands),
            "scaled_s": sum(c["scaled_seconds"] for c in commands), "commands": commands}


def cmd_measure(args) -> None:
    from corpusforge import cli

    # model paths in the set-up's config.json are relative to it
    os.chdir(args.dir)
    spec = workloads.WORKLOADS[args.workload]
    passes = []
    summary = counters = run_id = None
    tracer = None
    budget_used = 0.0
    while True:
        i = len(passes)
        pass_dir = os.path.join(args.work, f"pass{i}")
        if args.trace and i == 1:
            from tracer import Tracer

            tracer = Tracer(run_id=f"{args.workload}-trace")
            _install_hooks(tracer)
            tracer.install()
        try:
            result = run_pass(cli, spec, args.dir, pass_dir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["tree_sha256"] = tree_sha256(pass_dir)
        result["traced"] = tracer is not None
        passes.append(result)
        budget_used += result["wall_s"]
        if tracer is not None:
            summary = [[cmd, name, row] for (cmd, name), row in tracer.summary().items()]
            counters, run_id = tracer.counters, tracer.run_id
            break
        if i > 0:
            shutil.rmtree(os.path.join(args.work, f"pass{i - 1}"))
        if args.trace:
            continue
        mean = budget_used / len(passes)
        if budget_used + mean > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "peak_rss_kb": peak_kb,
                   "last_pass_dir": os.path.join(args.work, f"pass{len(passes) - 1}"),
                   "run_id": run_id, "spans": summary, "counters": counters}, fh)


def _install_hooks(tracer) -> None:
    def bytes_written(t, args, kwargs, result):
        t.count("records.bytes_written", os.path.getsize(args[0]))

    def lsh_pairs(t, args, kwargs, result):
        t.count("dedup.lsh_candidate_pairs", len(result))

    def cluster_pairs(t, args, kwargs, result):
        pairs = args[0] if args else kwargs["candidates"]
        t.count("dedup.jaccard_pairs", len(pairs))

    def bloom_fill(t, args, kwargs, result):
        t.put("dedup.bloom_fill", result)

    def verdict(t, args, kwargs, result):
        if result.verdict in ("rewrite", "drop"):
            t.count(f"filtering.{'rewritten' if result.verdict == 'rewrite' else 'dropped'}")

    tracer.hook("records.write_jsonl_gz", bytes_written)
    tracer.hook("dedup.lsh_candidates", lsh_pairs)
    tracer.hook("dedup.cluster_and_select", cluster_pairs)
    tracer.hook("dedup.BloomFilter.fill_ratio", bloom_fill)
    tracer.hook("filtering.evaluate", verdict)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("measure")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--dir", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        cmd_setup(args)
    else:
        cmd_measure(args)


if __name__ == "__main__":
    main()
