"""Command-line interface: ``repro-em``.

Subcommands::

    repro-em datasets                      # Table 1 statistics
    repro-em export --dataset wdc-small --out DIR
    repro-em match "desc a" "desc b" [--model NAME] [--prompt NAME]
    repro-em zero-shot [--model NAME] [--datasets a,b,...]
    repro-em finetune --model NAME --train wdc-small
        [--explanations STYLE] [--selection STRATEGY] [--eval a,b,...]
    repro-em sensitivity --model NAME --dataset NAME
    repro-em engine (--pairs FILE | --dataset NAME) [--model NAME]
        [--prompt NAME] [--batch-size N] [--cache-size N] [--stats] [--quiet]
    repro-em resolve --dataset NAME [--split test] [--limit N] [--model NAME]
        [--blocking token|embedding|minhash] [--top-k N] [--threshold F]
        [--mode transitive|correlation] [--min-agreement F]
        [--format text|json] [--golden] [--stats] [--no-short-circuit]
    repro-em index (--dataset NAME [--split test] | --synthetic N)
        [--num-perm N] [--threshold F] [--bands B --rows R]
        [--min-similarity F] [--seed N] [--top-k N]
        [--stats] [--format text|json]
    repro-em lint [PATHS ...] [--rule ID ...] [--format text|json]
        [--list-rules] [--deep] [--baseline FILE] [--update-baseline]
        [--changed-only] [--base REF] [--timings]
    repro-em chaos [--fault-rate F] [--seed N ...] [--kill-every N]
        [--pairs N] [--records N] [--journal FILE] [--format text|json]
    repro-em serve [--offered-load F] [--requests N] [--tenants N]
        [--persona NAME] [--dataset NAME] [--seed N] [--deadline F]
        [--queue-capacity N] [--batch-size N] [--max-concurrency N]
        [--rate F] [--burst F] [--quota N] [--shed-only]
        [--chaos [--fault-rate F]] [--format text|json]

Every ``--model``/``--persona`` option accepts canonical registry names
and paper aliases; an unknown name exits with a one-line ``unknown
persona: ...`` message listing the choices, never a traceback.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.pipeline import TailorMatch
from repro.core.sensitivity import prompt_sensitivity
from repro.datasets.io import write_dataset
from repro.datasets.registry import DATASET_NAMES, load_dataset, table1_statistics
from repro.eval.reports import format_table
from repro.llm.registry import MODEL_NAMES, get_persona
from repro.prompts.templates import get_prompt

__all__ = ["main", "build_parser"]


def _resolve_model(name: str) -> str:
    """Canonical persona for *name* (alias-aware); one-line exit on unknowns.

    Model names are validated here rather than with argparse ``choices``
    so paper aliases resolve and a typo produces the same structured
    message everywhere instead of argparse's usage dump.
    """
    try:
        return get_persona(name).name
    except ValueError:
        raise SystemExit(
            f"unknown persona: {name} (choose from {', '.join(MODEL_NAMES)})"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-em",
        description="TailorMatch reproduction: fine-tuning LLMs for entity matching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print Table 1 dataset statistics")

    export = sub.add_parser("export", help="write a dataset as JSONL")
    export.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    export.add_argument("--out", required=True)

    match = sub.add_parser("match", help="match a single pair of descriptions")
    match.add_argument("left")
    match.add_argument("right")
    match.add_argument("--model", default="gpt-4o-mini")
    match.add_argument("--prompt", default="default")

    zero = sub.add_parser("zero-shot", help="zero-shot F1 over benchmarks")
    zero.add_argument("--model", default="llama-3.1-8b")
    zero.add_argument("--datasets", default="wdc-small")

    ft = sub.add_parser("finetune", help="fine-tune and evaluate")
    ft.add_argument("--model", default="llama-3.1-8b")
    ft.add_argument("--train", default="wdc-small", choices=DATASET_NAMES)
    ft.add_argument("--explanations", default=None)
    ft.add_argument("--selection", default=None)
    ft.add_argument("--generation", action="store_true")
    ft.add_argument("--eval", dest="eval_datasets", default=None)

    sens = sub.add_parser("sensitivity", help="prompt-sensitivity analysis")
    sens.add_argument("--model", default="llama-3.1-8b")
    sens.add_argument("--dataset", default="wdc-small", choices=DATASET_NAMES)

    val = sub.add_parser("validate", help="integrity-check a dataset")
    val.add_argument("--dataset", help="built-in dataset name")
    val.add_argument("--path", help="directory written by 'repro-em export'")

    eng = sub.add_parser(
        "engine", help="match a candidate-pair workload through the online engine"
    )
    eng.add_argument(
        "--pairs",
        help="file of candidate pairs: JSONL objects with left/right "
        "(either description strings or record objects), or TAB-separated "
        "'left<TAB>right' lines",
    )
    eng.add_argument("--dataset", choices=DATASET_NAMES,
                     help="match a registered dataset's test split instead")
    eng.add_argument("--model", default="llama-3.1-8b")
    eng.add_argument("--prompt", default="default")
    eng.add_argument("--batch-size", type=int, default=32)
    eng.add_argument("--cache-size", type=int, default=4096)
    eng.add_argument("--stats", action="store_true",
                     help="print engine counters and latency percentiles")
    eng.add_argument("--quiet", action="store_true",
                     help="suppress per-pair verdict lines")

    res = sub.add_parser(
        "resolve",
        help="resolve a dataset's records into entity clusters "
        "(blocker -> engine -> clusters -> cluster-level report)",
    )
    res.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    res.add_argument("--split", default="test", choices=("train", "valid", "test"))
    res.add_argument("--limit", type=int, default=None, metavar="N",
                     help="resolve only the first N pairs of the split")
    res.add_argument("--model", default="llama-3.1-8b")
    res.add_argument("--prompt", default="default")
    res.add_argument("--blocker", "--blocking", dest="blocker", default="token",
                     choices=("token", "embedding", "minhash"))
    res.add_argument("--min-shared", type=int, default=1,
                     help="token blocker: min shared tokens per candidate")
    res.add_argument("--k", type=int, default=5,
                     help="embedding blocker: neighbours per record")
    res.add_argument("--top-k", type=int, default=10,
                     help="minhash blocker: candidates kept per record")
    res.add_argument("--threshold", type=float, default=0.5,
                     help="minhash blocker: target Jaccard threshold for "
                     "the LSH banding solver")
    res.add_argument("--mode", default="transitive",
                     choices=("transitive", "correlation"))
    res.add_argument("--min-agreement", type=float, default=0.5,
                     help="correlation mode: min cross-cluster agreement "
                     "for a merge")
    res.add_argument("--batch-size", type=int, default=32)
    res.add_argument("--cache-size", type=int, default=4096)
    res.add_argument("--no-short-circuit", action="store_true",
                     help="decide every candidate pair, even ones already "
                     "co-clustered")
    res.add_argument("--golden", action="store_true",
                     help="include one golden record per non-singleton cluster")
    res.add_argument("--stats", action="store_true",
                     help="include the engine stats snapshot "
                     "(cache hits, batches, fallbacks)")
    res.add_argument("--format", choices=("text", "json"), default="text")

    idx = sub.add_parser(
        "index",
        help="build a MinHash/LSH candidate index over a corpus and "
        "report its composition and recall-vs-candidate-size curve",
    )
    source = idx.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=DATASET_NAMES)
    source.add_argument("--synthetic", type=int, metavar="N",
                        help="index an N-record seeded synthetic dedup corpus")
    idx.add_argument("--split", default="test",
                     choices=("train", "valid", "test"))
    idx.add_argument("--corruption", type=float, default=0.25,
                     help="synthetic corpus: duplicate corruption level")
    idx.add_argument("--num-perm", type=int, default=128,
                     help="signature width (ignored when --bands/--rows set)")
    idx.add_argument("--threshold", type=float, default=0.5,
                     help="target Jaccard threshold for the banding solver")
    idx.add_argument("--bands", type=int, default=None)
    idx.add_argument("--rows", type=int, default=None)
    idx.add_argument("--min-similarity", type=float, default=0.0,
                     help="estimated-Jaccard floor on candidates")
    idx.add_argument("--seed", type=int, default=0)
    idx.add_argument("--top-k", type=int, default=10,
                     help="deepest rank cut-off in the recall curve")
    idx.add_argument("--stats", action="store_true",
                     help="include the recall-vs-candidate-size curve "
                     "against the corpus ground truth")
    idx.add_argument("--format", choices=("text", "json"), default="text")

    lint = sub.add_parser(
        "lint", help="check repro-specific invariants (determinism, "
        "marker safety, round-trips, engine hygiene)"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro, scripts, "
        "benchmarks)",
    )
    lint.add_argument(
        "--rule", action="append", dest="rules", metavar="ID",
        help="run only this rule (repeatable)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")
    lint.add_argument(
        "--deep", action="store_true",
        help="also run the whole-program analyzer (symbol table, call "
        "graph, taint/lock/exception rules) over src/repro",
    )
    lint.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="accepted-findings file; only non-baseline findings fail "
        "(default: lint-baseline.json when it exists, --deep only)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from the current findings and "
        "exit 0 (ratchet: review the diff — it should only shrink)",
    )
    lint.add_argument(
        "--changed-only", action="store_true",
        help="lint only files changed vs --base (git diff + untracked); "
        "--deep still analyzes the whole program and says so in the "
        "summary's scope block",
    )
    lint.add_argument(
        "--cache", metavar="DIR", default=None,
        help="incremental --deep cache directory: an unchanged tree "
        "reuses the previous findings verbatim, a changed one reuses "
        "per-file parse trees (safe to delete at any time)",
    )
    lint.add_argument(
        "--base", metavar="REF", default="HEAD",
        help="git ref --changed-only diffs against (default: HEAD)",
    )
    lint.add_argument(
        "--timings", action="store_true",
        help="include per-analysis wall-clock in the --deep JSON summary "
        "(off by default: timings break byte-identical output)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection invariant harness "
        "(swept fault rates, plus an optional kill/resume round-trip)",
    )
    chaos.add_argument(
        "--fault-rate", type=float, default=0.3,
        help="chaos fault rate; the sweep always also runs rate 0 "
        "(transparency check)",
    )
    chaos.add_argument(
        "--seed", action="append", type=int, dest="seeds", metavar="N",
        help="chaos seed (repeatable; default: 0 1 2)",
    )
    chaos.add_argument(
        "--kill-every", type=int, default=0, metavar="N",
        help="also run a kill/resume round-trip crashing every N backend "
        "batches (0 = skip)",
    )
    chaos.add_argument("--pairs", type=int, default=96,
                       help="matching workload size per run")
    chaos.add_argument("--records", type=int, default=30,
                       help="resolution workload size per run")
    chaos.add_argument(
        "--journal", default=None, metavar="FILE",
        help="journal path for the kill/resume round-trip "
        "(default: a temporary file)",
    )
    chaos.add_argument("--format", choices=("text", "json"), default="text")

    serve = sub.add_parser(
        "serve",
        help="replay a deterministic load session through the request "
        "gateway (router -> admission -> queue -> engine) on simulated time",
    )
    serve.add_argument("--offered-load", type=float, default=200.0,
                       help="mean arrival rate, requests/second (Poisson)")
    serve.add_argument("--requests", type=int, default=64,
                       help="total requests in the session")
    serve.add_argument("--tenants", type=int, default=2,
                       help="tenants cycled round-robin over the requests")
    serve.add_argument("--persona", default="default",
                       help="persona every request names ('default' routes "
                       "to the gateway default)")
    serve.add_argument("--dataset", default="wdc-small", choices=DATASET_NAMES,
                       help="dataset whose test split supplies the pairs")
    serve.add_argument("--seed", type=int, default=0,
                       help="load-generator seed (arrival gaps + pair draws)")
    serve.add_argument("--deadline", type=float, default=None, metavar="SECS",
                       help="per-request relative deadline (default: none)")
    serve.add_argument("--queue-capacity", type=int, default=32)
    serve.add_argument("--batch-size", type=int, default=8,
                       help="each engine's batch size, which also caps "
                       "the gateway's dispatch chunks")
    serve.add_argument("--max-concurrency", type=int, default=None,
                       help="global cap on admitted in-flight requests")
    serve.add_argument("--rate", type=float, default=None,
                       help="per-tenant sustained admissions/second")
    serve.add_argument("--burst", type=float, default=None,
                       help="per-tenant token-bucket capacity")
    serve.add_argument("--quota", type=int, default=None,
                       help="per-tenant lifetime admission ceiling")
    serve.add_argument("--shed-only", action="store_true",
                       help="shed on queue overflow instead of degrading "
                       "to the threshold baseline")
    serve.add_argument("--chaos", action="store_true",
                       help="run the gateway chaos sweep instead of a "
                       "load session")
    serve.add_argument("--fault-rate", type=float, default=0.3,
                       help="--chaos: fault rate; the sweep always also "
                       "runs rate 0 (transparency check)")
    serve.add_argument("--chaos-seed", action="append", type=int,
                       dest="chaos_seeds", metavar="N",
                       help="--chaos: sweep seed (repeatable; default: 0 1 2)")
    serve.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _cmd_datasets() -> int:
    rows = []
    for name, splits in table1_statistics().items():
        row = [name]
        for split in ("train", "valid", "test"):
            pos, neg = splits[split]
            row.extend([pos, neg])
        rows.append(row)
    print(
        format_table(
            ["dataset", "train+", "train-", "valid+", "valid-", "test+", "test-"],
            rows,
            title="Table 1: dataset statistics",
        )
    )
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    tm = TailorMatch(args.model)
    verdict = tm.match(args.left, args.right, prompt=args.prompt)
    print("MATCH" if verdict else "NO MATCH")
    return 0


def _cmd_zero_shot(args: argparse.Namespace) -> int:
    tm = TailorMatch(args.model)
    names = [n.strip() for n in args.datasets.split(",") if n.strip()]
    rows = []
    for name in names:
        result = tm.evaluate(None, name)
        rows.append(
            [name, f"{result.scores.precision:.2f}", f"{result.scores.recall:.2f}",
             f"{result.f1:.2f}"]
        )
    print(format_table(["dataset", "P", "R", "F1"], rows,
                       title=f"zero-shot: {args.model}"))
    return 0


def _cmd_finetune(args: argparse.Namespace) -> int:
    tm = TailorMatch(args.model)
    tuned = tm.fine_tune(
        args.train,
        explanations=args.explanations,
        selection=args.selection,
        generation=args.generation,
    )
    eval_names = (
        [n.strip() for n in args.eval_datasets.split(",") if n.strip()]
        if args.eval_datasets
        else [args.train]
    )
    rows = []
    for name in eval_names:
        zero = tm.evaluate(None, name)
        ft = tm.evaluate(tuned, name)
        rows.append([name, f"{zero.f1:.2f}", f"{ft.f1:.2f}", f"{ft.f1 - zero.f1:+.2f}"])
    print(
        format_table(
            ["dataset", "zero-shot F1", "fine-tuned F1", "delta"],
            rows,
            title=f"{args.model} fine-tuned on {args.train} "
            f"({tuned.describe()})",
        )
    )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    tm = TailorMatch(args.model)
    zero = prompt_sensitivity(tm.zero_shot, args.dataset)
    tuned = tm.fine_tune(args.dataset)
    post = prompt_sensitivity(tuned, args.dataset)
    rows = [
        ["zero-shot"] + [f"{zero.f1_by_prompt[p]:.2f}" for p in zero.f1_by_prompt]
        + [f"{zero.std:.2f}"],
        ["fine-tuned"] + [f"{post.f1_by_prompt[p]:.2f}" for p in post.f1_by_prompt]
        + [f"{post.std:.2f}"],
    ]
    print(
        format_table(
            ["state"] + list(zero.f1_by_prompt) + ["std"],
            rows,
            title=f"prompt sensitivity: {args.model} on {args.dataset}",
        )
    )
    return 0


def _read_pairs_file(path: str) -> list[tuple[str, str]]:
    """Parse a workload file: JSONL objects or TAB-separated lines.

    Every malformed line exits with a one-line ``path:lineno: reason``
    message instead of a traceback, so shell pipelines can surface the
    offending line directly.
    """
    import json

    def bad_line(lineno: int, reason: str) -> SystemExit:
        return SystemExit(f"{path}:{lineno}: {reason}")

    pairs: list[tuple[str, str]] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read pairs file {path}: {exc.strerror}")
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip("\n")
            if not line.strip():
                continue
            if line.lstrip().startswith("{"):
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise bad_line(lineno, f"invalid JSON: {exc.msg}") from None
                try:
                    left, right = obj["left"], obj["right"]
                except KeyError as exc:
                    raise bad_line(
                        lineno, f"JSON object is missing key {exc.args[0]!r}"
                    ) from None
                if isinstance(left, dict):  # dataset-export record objects
                    left = left.get("description")
                if isinstance(right, dict):
                    right = right.get("description")
                if not isinstance(left, str) or not isinstance(right, str):
                    raise bad_line(
                        lineno,
                        "left/right must be strings or records with a "
                        "'description' field",
                    )
            else:
                fields = line.split("\t")
                if len(fields) != 2:
                    raise bad_line(
                        lineno,
                        "expected JSON object or 'left<TAB>right', got "
                        f"{len(fields) - 1} tab(s): {line!r}",
                    )
                left, right = fields
            pairs.append((left, right))
    return pairs


def _cmd_engine(args: argparse.Namespace) -> int:
    from repro.engine import MatchingEngine, ResultCache

    if bool(args.pairs) == bool(args.dataset):
        print("specify exactly one of --pairs or --dataset")
        return 2
    engine = MatchingEngine.for_model(
        args.model,
        template=get_prompt(args.prompt),
        batch_size=args.batch_size,
        cache=ResultCache(max_size=args.cache_size),
    )
    if args.dataset:
        results = engine.match_split(load_dataset(args.dataset).test)
    else:
        results = engine.match_pairs(_read_pairs_file(args.pairs))
    matches = sum(r.decision for r in results)
    if not args.quiet:
        for result in results:
            verdict = "MATCH" if result.decision else "NO MATCH"
            print(f"{verdict}\t[{result.source}]\t{result.left}\t{result.right}")
    print(
        f"{len(results)} pairs matched through {engine.backend.name}: "
        f"{matches} matches, {len(results) - matches} non-matches"
    )
    if args.stats:
        print(engine.stats.render())
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    import json

    from repro.blocking import EmbeddingBlocker, TokenBlocker
    from repro.datasets.schema import Split
    from repro.engine import MatchingEngine, ResultCache
    from repro.resolve import (
        cluster_scores,
        gold_clustering,
        resolve_blocking,
        split_records,
    )

    split = load_dataset(args.dataset).split(args.split)
    if args.limit is not None:
        if args.limit <= 0:
            print("--limit must be positive")
            return 2
        split = Split(name=split.name, pairs=split.pairs[: args.limit])
    left, right = split_records(split)
    if args.blocker == "token":
        blocker = TokenBlocker(min_shared=args.min_shared)
    elif args.blocker == "minhash":
        from repro.index import MinHashBlocker

        blocker = MinHashBlocker(k=args.top_k, threshold=args.threshold)
    else:
        blocker = EmbeddingBlocker(k=args.k)
    blocking = blocker.block(left, right)
    engine = MatchingEngine.for_model(
        args.model,
        template=get_prompt(args.prompt),
        batch_size=args.batch_size,
        cache=ResultCache(max_size=args.cache_size),
    )
    report = resolve_blocking(
        engine,
        blocking,
        mode=args.mode,
        min_agreement=args.min_agreement,
        chunk_size=args.batch_size,
        short_circuit=not args.no_short_circuit,
    )
    scores = cluster_scores(report.clustering, gold_clustering(split))

    payload: dict[str, object] = {
        "schema_version": 1,
        "dataset": args.dataset,
        "split": args.split,
        "pairs": len(split),
        "model": args.model,
        "blocker": args.blocker,
        "mode": args.mode,
        "short_circuit": not args.no_short_circuit,
        **report.as_dict(),
        "scores": scores.as_dict(),
    }
    if args.golden:
        payload["golden"] = [
            {
                "cluster_id": cluster_id,
                "size": len(report.clustering.cluster_of(cluster_id)),
                "description": record.description,
                "attributes": dict(record.attributes),
            }
            for cluster_id, record in sorted(report.golden.items())
            if len(report.clustering.cluster_of(cluster_id)) > 1
        ]
    if args.stats:
        # Deterministic counters only: latency percentiles are wall-clock
        # and appear in the text rendering below, never in the JSON.
        payload["engine_stats"] = engine.stats.as_dict()

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"{args.dataset}/{args.split}: {payload['records']} records -> "
        f"{payload['clusters']} clusters "
        f"({report.candidates} candidates, {report.engine_calls} engine "
        f"calls, {report.short_circuited} short-circuited)"
    )
    histogram = report.clustering.size_histogram()
    sizes = ", ".join(f"{size}x{count}" for size, count in histogram.items())
    print(f"cluster sizes: {sizes}")
    rows = [
        ["B-cubed", f"{scores.b3_precision:.2f}", f"{scores.b3_recall:.2f}",
         f"{scores.b3_f1:.2f}"],
        ["pairwise", f"{scores.pairwise.precision:.2f}",
         f"{scores.pairwise.recall:.2f}", f"{scores.pairwise.f1:.2f}"],
    ]
    print(format_table(["metric", "P", "R", "F1"], rows,
                       title=f"cluster-level scores (ARI {scores.ari:.4f})"))
    if args.golden:
        for entry in payload["golden"]:
            print(f"golden[{entry['cluster_id']}] x{entry['size']}: "
                  f"{entry['description']}")
    if args.stats:
        print(engine.stats.render())
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.blocking.base import recall_curve
    from repro.index import MinHashCandidateIndex

    if (args.bands is None) != (args.rows is None):
        print("pass both of --bands/--rows, or neither")
        return 2
    if args.top_k <= 0:
        print("--top-k must be positive")
        return 2
    if args.synthetic is not None:
        from repro.datasets.synthetic import synthetic_dedup_corpus

        if args.synthetic <= 0:
            print("--synthetic must be positive")
            return 2
        corpus = synthetic_dedup_corpus(
            args.synthetic, seed=args.seed, corruption=args.corruption
        )
        records = list(corpus.records)
        true_pairs = set(corpus.true_pairs)
        source = f"synthetic:{args.synthetic}"
    else:
        from repro.resolve import split_records

        split = load_dataset(args.dataset).split(args.split)
        left, right = split_records(split)
        from dataclasses import replace

        # Side-prefixed ids keep the two collections' id spaces apart,
        # mirroring pipeline.node_id.
        records = [
            replace(record, record_id=f"{side}:{record.record_id}")
            for side, collection in (("l", left), ("r", right))
            for record in collection
        ]
        true_pairs = {
            tuple(sorted((f"l:{pair.left.record_id}",
                          f"r:{pair.right.record_id}")))
            for pair in split.pairs
            if pair.label
        }
        source = f"{args.dataset}/{args.split}"

    index = MinHashCandidateIndex(
        num_perm=args.num_perm,
        threshold=args.threshold,
        bands=args.bands,
        rows=args.rows,
        seed=args.seed,
        min_similarity=args.min_similarity,
    )
    start = time.perf_counter()
    for record in records:
        index.add(record.record_id, record.description)
    elapsed = time.perf_counter() - start

    payload: dict[str, object] = {
        "schema_version": 1,
        "source": source,
        "records": len(records),
        "seed": args.seed,
        "index": index.stats(),
    }
    if args.stats:
        ranked = {
            record.record_id: [
                entry.record_id
                for entry in index.top_candidates(
                    record.record_id, k=args.top_k
                )
            ]
            for record in records
        }
        ks = [k for k in (1, 2, 5, 10, 20, 50, 100) if k <= args.top_k]
        if args.top_k not in ks:
            ks.append(args.top_k)
        payload["true_pairs"] = len(true_pairs)
        payload["recall_curve"] = recall_curve(
            ranked, true_pairs, [*ks, None]
        )

    if args.format == "json":
        # Ingest timing is wall-clock — it stays out of the JSON payload
        # so two runs of the same command are byte-identical.
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    stats = payload["index"]
    print(
        f"{source}: {len(records)} records -> {stats['buckets']} buckets "
        f"(bands {stats['bands']} x rows {stats['rows']}, "
        f"{stats['unindexable']} unindexable)"
    )
    print(
        f"ingest: {len(records) / elapsed:.0f} records/sec "
        f"({elapsed:.2f}s), max bucket {stats['max_bucket']}"
    )
    if args.stats:
        rows = [
            [
                "all" if point["k"] is None else str(point["k"]),
                f"{point['recall']:.4f}",
                str(point["candidates"]),
                f"{point['candidates_per_record']:.2f}",
            ]
            for point in payload["recall_curve"]
        ]
        print(format_table(
            ["k", "recall", "cand pairs", "cand/record"], rows,
            title=f"recall vs candidate-set size "
            f"({payload['true_pairs']} true pairs)",
        ))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import RULES, format_json, format_text, run_lint
    from repro.lint.deep import run_deep
    from repro.lint.walker import changed_files

    if args.list_rules:
        # Importing the deep runner above registers project-scoped rules.
        for rule in sorted(RULES.values(), key=lambda r: (r.family, r.id)):
            print(f"{rule.id:24s} [{rule.family}/{rule.scope}] "
                  f"{rule.description}")
        return 0
    if not args.deep:
        if args.rules and any(
            RULES[r].scope == "project" for r in args.rules if r in RULES
        ):
            print("lint: project-scoped rules require --deep", file=sys.stderr)
            return 2
        if args.update_baseline:
            print("lint: --update-baseline requires --deep", file=sys.stderr)
            return 2
        if args.cache:
            print("lint: --cache requires --deep", file=sys.stderr)
            return 2
    paths = args.paths or None
    if args.changed_only:
        if paths:
            print("lint: --changed-only and explicit paths are mutually "
                  "exclusive", file=sys.stderr)
            return 2
        try:
            changed = changed_files(".", base=args.base)
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        paths = changed
    try:
        if args.changed_only and not paths:
            findings = []  # nothing changed: shallow phase has no input.
        else:
            findings = run_lint(".", paths=paths, rules=args.rules)
    except (ValueError, FileNotFoundError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    summary = None
    if args.deep:
        cache = None
        if args.cache:
            from repro.lint.cache import AnalysisCache

            cache = AnalysisCache(Path(args.cache))
        try:
            deep_findings, summary = run_deep(
                ".",
                rules=args.rules,
                timings=args.timings,
                cache=cache,
                changed=paths if args.changed_only else None,
            )
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        findings = sorted(findings + deep_findings, key=lambda f: f.sort_key())

    baseline_path = Path(args.baseline) if args.baseline else Path(
        "lint-baseline.json"
    )
    if args.update_baseline:
        from repro.lint.baseline import write_baseline

        payload = write_baseline(findings, baseline_path)
        print(f"lint: baseline updated: {payload['count']} accepted "
              f"finding(s) -> {baseline_path}")
        return 0
    if args.deep and (args.baseline or baseline_path.is_file()):
        from repro.lint.baseline import filter_baselined, load_baseline

        findings = filter_baselined(findings, load_baseline(baseline_path))

    if args.format == "json":
        print(format_json(findings, summary=summary))
    else:
        print(format_text(findings))
    return 1 if findings else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    import tempfile
    from pathlib import Path

    from repro.faults import kill_resume_roundtrip, sweep

    if not 0.0 <= args.fault_rate <= 1.0:
        print("--fault-rate must be in [0, 1]")
        return 2
    seeds = tuple(args.seeds) if args.seeds else (0, 1, 2)
    rates = (0.0,) if args.fault_rate == 0.0 else (0.0, args.fault_rate)
    reports = sweep(
        seeds=seeds,
        rates=rates,
        pair_count=args.pairs,
        record_count=args.records,
    )
    payload: dict[str, object] = {
        "schema_version": 1,
        "seeds": list(seeds),
        "fault_rates": list(rates),
        "runs": [report.as_dict() for report in reports],
        "ok": all(report.ok for report in reports),
    }
    if args.kill_every > 0:
        if args.journal:
            roundtrip = kill_resume_roundtrip(
                args.journal,
                seed=seeds[0],
                record_count=args.records,
                kill_every=args.kill_every,
            )
        else:
            with tempfile.TemporaryDirectory() as tmp:
                roundtrip = kill_resume_roundtrip(
                    Path(tmp) / "chaos-journal.jsonl",
                    seed=seeds[0],
                    record_count=args.records,
                    kill_every=args.kill_every,
                )
        payload["kill_resume"] = {
            "seed": roundtrip["seed"],
            "records": roundtrip["records"],
            "kill_every": roundtrip["kill_every"],
            "crashes": roundtrip["crashes"],
            "identical": roundtrip["identical"],
            "clusters": len(roundtrip["resumed"]["clusters"]),
            "decisions": len(roundtrip["resumed"]["decisions"]),
        }
        payload["ok"] = bool(payload["ok"]) and roundtrip["identical"]

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload["ok"] else 1

    rows = []
    for report in reports:
        rows.append([
            report.kind,
            report.seed,
            f"{report.fault_rate:.2f}",
            report.requests,
            sum(report.injected.values()),
            report.sources.get("fallback", 0),
            "ok" if report.ok else "FAIL",
        ])
    print(format_table(
        ["workload", "seed", "rate", "requests", "faults", "fallbacks", "verdict"],
        rows,
        title=f"chaos sweep ({len(reports)} runs, all invariants checked)",
    ))
    for report in reports:
        for violation in report.violations:
            print(f"VIOLATION [{report.kind} seed={report.seed} "
                  f"rate={report.fault_rate}]: {violation}")
    if args.kill_every > 0:
        verdict = payload["kill_resume"]
        state = "byte-identical" if verdict["identical"] else "DIVERGED"
        print(
            f"kill/resume: {verdict['crashes']} crashes every "
            f"{verdict['kill_every']} batches over {verdict['records']} "
            f"records -> {state} "
            f"({verdict['clusters']} clusters, {verdict['decisions']} decisions)"
        )
    return 0 if payload["ok"] else 1


def _cmd_serve_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.serve import serve_sweep

    if not 0.0 <= args.fault_rate <= 1.0:
        print("--fault-rate must be in [0, 1]")
        return 2
    seeds = tuple(args.chaos_seeds) if args.chaos_seeds else (0, 1, 2)
    rates = (0.0,) if args.fault_rate == 0.0 else (0.0, args.fault_rate)
    reports = serve_sweep(
        seeds=seeds, rates=rates, requests=args.requests, tenants=args.tenants
    )
    payload: dict[str, object] = {
        "schema_version": 1,
        "seeds": list(seeds),
        "fault_rates": list(rates),
        "runs": [report.as_dict() for report in reports],
        "ok": all(report.ok for report in reports),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload["ok"] else 1
    rows = [
        [
            report.seed,
            f"{report.fault_rate:.2f}",
            report.requests,
            sum(report.injected.values()),
            report.sources.get("fallback", 0)
            + report.sources.get("degraded", 0),
            "ok" if report.ok else "FAIL",
        ]
        for report in reports
    ]
    print(format_table(
        ["seed", "rate", "requests", "faults", "degraded", "verdict"],
        rows,
        title=f"gateway chaos sweep ({len(reports)} runs, "
        "all invariants checked)",
    ))
    for report in reports:
        for violation in report.violations:
            print(f"VIOLATION [serve seed={report.seed} "
                  f"rate={report.fault_rate}]: {violation}")
    return 0 if payload["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import math

    from repro.engine import MatchingEngine, ResultCache
    from repro.faults.clock import ManualClock
    from repro.serve import (
        AdmissionController,
        Gateway,
        LoadProfile,
        PersonaRouter,
        TenantPolicy,
        UnknownPersonaError,
        generate_arrivals,
        replay_simulated,
        summarize,
    )

    if args.chaos:
        return _cmd_serve_chaos(args)

    # Simulated time end to end (arrivals, deadlines, token buckets), so the whole session — JSON output included —
    # is byte-identical across runs and machines.
    clock = ManualClock()
    router = PersonaRouter(
        engine_factory=lambda name: MatchingEngine.for_model(
            name,
            batch_size=args.batch_size,
            cache=ResultCache(max_size=4096),
        ),
    )
    try:
        persona = router.resolve(args.persona)
    except UnknownPersonaError as exc:
        raise SystemExit(str(exc)) from None
    admission = AdmissionController(
        clock=clock,
        default_policy=TenantPolicy(
            rate=args.rate if args.rate is not None else math.inf,
            burst=args.burst if args.burst is not None else math.inf,
            quota=args.quota,
        ),
        max_concurrency=args.max_concurrency,
    )
    gateway = Gateway(
        router,
        admission,
        queue_capacity=args.queue_capacity,
        workers=0,
        clock=clock,
        degrade_on_overload=not args.shed_only,
    )
    try:
        profile = LoadProfile(
            offered_load=args.offered_load,
            requests=args.requests,
            tenants=args.tenants,
            persona=args.persona,
            deadline=args.deadline,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"serve: {exc}")
        return 2
    arrivals = generate_arrivals(profile, load_dataset(args.dataset).test.pairs)
    outcomes = asyncio.run(replay_simulated(gateway, arrivals, clock))
    summary = summarize(outcomes)
    violations = gateway.stats.violations(in_queue=gateway.queue_depth)
    violations += gateway.stats.reconcile_engines(router.engines())

    payload: dict[str, object] = {
        "schema_version": 1,
        "offered_load": args.offered_load,
        "requests": args.requests,
        "tenants": args.tenants,
        "persona": persona,
        "dataset": args.dataset,
        "seed": args.seed,
        "deadline": args.deadline,
        "queue_capacity": args.queue_capacity,
        "batch_size": args.batch_size,
        **summary,
        "gateway_stats": gateway.stats.as_dict(),
        "engine_stats": {
            name: engine.stats.as_dict()
            for name, engine in sorted(router.engines().items())
        },
        "violations": list(violations),
        "ok": not violations,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload["ok"] else 1
    latency = ", ".join(
        f"{name}={seconds * 1e3:.2f}ms"
        for name, seconds in summary["latency"].items()
    ) or "n/a"
    print(
        f"{args.dataset} via {persona}: {summary['answered']}/"
        f"{summary['requests']} answered at {args.offered_load:g} req/s "
        f"over {summary['duration']:.3f}s simulated "
        f"(goodput {summary['goodput']:g} req/s)"
    )
    print(f"latency: {latency}")
    print("statuses: " + ", ".join(
        f"{k}={v}" for k, v in summary["statuses"].items()
    ))
    print("sources: " + (", ".join(
        f"{k}={v}" for k, v in summary["sources"].items()
    ) or "n/a"))
    stats = gateway.stats.as_dict()
    rows = [
        [tenant, lane["submitted"], lane["rejected"], lane["admitted"],
         lane["completed"], lane["degraded"], lane["shed"], lane["expired"]]
        for tenant, lane in stats["tenants"].items()
    ]
    print(format_table(
        ["tenant", "submitted", "rejected", "admitted", "completed",
         "degraded", "shed", "expired"],
        rows,
        title=f"per-tenant funnel (queue high-water "
        f"{stats['queue_high_water']})",
    ))
    for violation in violations:
        print(f"VIOLATION: {violation}")
    return 0 if payload["ok"] else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.datasets.io import read_dataset
    from repro.datasets.validation import validate_dataset

    if bool(args.dataset) == bool(args.path):
        print("specify exactly one of --dataset or --path")
        return 2
    dataset = load_dataset(args.dataset) if args.dataset else read_dataset(args.path)
    report = validate_dataset(dataset)
    if report.ok:
        print(f"{dataset.name}: OK")
        return 0
    for problem in report.problems:
        print(f"PROBLEM: {problem}")
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "model", None) is not None:
        args.model = _resolve_model(args.model)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "export":
        write_dataset(load_dataset(args.dataset), args.out)
        print(f"wrote {args.dataset} to {args.out}")
        return 0
    if args.command == "match":
        return _cmd_match(args)
    if args.command == "zero-shot":
        return _cmd_zero_shot(args)
    if args.command == "finetune":
        return _cmd_finetune(args)
    if args.command == "sensitivity":
        return _cmd_sensitivity(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "engine":
        return _cmd_engine(args)
    if args.command == "index":
        return _cmd_index(args)
    if args.command == "resolve":
        return _cmd_resolve(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
