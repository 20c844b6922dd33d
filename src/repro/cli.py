"""Command-line interface: ``python -m repro <command> ...``.

Subcommands cover the full analysis surface:

- ``datasets``   — list bundled datasets and their characteristics
- ``explore``    — top divergent patterns for a metric
- ``shapley``    — item contributions of one pattern
- ``global``     — global vs individual item divergence
- ``corrective`` — top corrective items
- ``significant``— patterns surviving Benjamini-Hochberg FDR control
- ``lattice``    — render the subset lattice of a pattern (text or DOT)
- ``report``     — full markdown audit report
- ``study``      — run the simulated bias-injection user study
- ``rank``       — exposure/rank divergence of a ranking score over
  all subgroups (weight models: exposure, topk, reciprocal_rank,
  score); scores come from a continuous column or a trained
  classifier's predict_proba
- ``monitor``    — streaming divergence monitor: replay a dataset in
  shuffled batches (optionally with injected drift) and print the
  drift-alert timeline; ``--store`` journals every window into a
  durable pattern store
- ``patterns``   — inspect and manage a durable pattern store: list
  the ledger (filterable, paginated), acknowledge or reopen patterns,
  force compaction

Data can come from a bundled generator (``--dataset compas``) or from a
CSV file (``--csv data.csv --true-column y --pred-column yhat``), in
which case continuous columns are quantile-discretized.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.divergence import DivergenceExplorer
from repro.core.items import Itemset
from repro.core.result import records_as_rows
from repro.core.serialize import lattice_to_dot
from repro.datasets import DATASET_NAMES, dataset_characteristics, load
from repro.exceptions import ReproError
from repro.experiments.report import divergence_report
from repro.experiments.tables import format_table
from repro.fpm.miner import ALGORITHMS
from repro.obs import render_profile, span
from repro.params import (
    validate_alert_threshold,
    validate_batch_size,
    validate_bins,
    validate_confidence,
    validate_deadline,
    validate_epsilon,
    validate_limit,
    validate_min_t,
    validate_models,
    validate_offset,
    validate_rank_k,
    validate_sample,
    validate_step,
    validate_support,
    validate_top,
    validate_weight_model,
    validate_window,
    validate_workers,
)
from repro.resilience import DeadlineExceeded, cancel_scope
from repro.tabular.discretize import discretize_table
from repro.tabular.io import read_csv


def _arg(validator):
    """Adapt a ``repro.params`` validator into an argparse ``type=``.

    Bad values then fail at parse time with argparse's usage error
    (exit code 2) carrying the validator's message, instead of
    surfacing later as a runtime error.
    """

    def parse(text: str):
        try:
            return validator(text)
        except ReproError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DivExplorer reproduction — pattern divergence analysis",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage timing table after the command",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="abort the command after this many seconds "
        "(cooperative; exit code 2 on expiry)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_profile_arg(p: argparse.ArgumentParser) -> None:
        # Accepted after the subcommand too; SUPPRESS keeps the
        # subparser from clobbering a --profile/--deadline given
        # before it.
        p.add_argument(
            "--profile",
            action="store_true",
            default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )
        p.add_argument(
            "--deadline",
            type=float,
            default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )

    add_profile_arg(sub.add_parser("datasets", help="list bundled datasets"))

    def add_data_args(p: argparse.ArgumentParser) -> None:
        add_profile_arg(p)
        p.add_argument("--dataset", choices=DATASET_NAMES,
                       help="bundled dataset name")
        p.add_argument("--csv", help="CSV file with your own data")
        p.add_argument("--true-column", default="class")
        p.add_argument("--pred-column", default="pred")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--bins", type=_arg(validate_bins), default=3,
                       help="quantile bins for CSV continuous columns")

    def add_explore_args(p: argparse.ArgumentParser) -> None:
        add_data_args(p)
        p.add_argument("--metric", default="fpr")
        p.add_argument("--support", type=float, default=0.1)
        p.add_argument("--algorithm", default="bitset",
                       choices=ALGORITHMS)
        p.add_argument("--workers", type=_arg(validate_workers), default=None,
                       help="mining worker processes: 0 auto, 1 serial, "
                            ">=2 row-sharded (identical results)")
        p.add_argument("--sample", type=_arg(validate_sample), default=None,
                       help="mine a seeded row sample instead of the full "
                            "dataset: fraction in (0,1], row count, or "
                            "'auto'; results carry credible intervals")
        p.add_argument("--confidence", type=_arg(validate_confidence),
                       default=0.95,
                       help="credible-interval mass for --sample results")

    p_explore = sub.add_parser("explore", help="top divergent patterns")
    add_explore_args(p_explore)
    p_explore.add_argument("--top", type=_arg(validate_top), default=10)
    p_explore.add_argument("--epsilon", type=float,
                           help="apply ε-redundancy pruning first")

    p_shapley = sub.add_parser("shapley", help="item contributions")
    add_explore_args(p_shapley)
    p_shapley.add_argument("--pattern", required=True,
                           help='e.g. "sex=Male, #prior=>3"')

    p_global = sub.add_parser("global", help="global item divergence")
    add_explore_args(p_global)
    p_global.add_argument("--top", type=_arg(validate_top), default=12)

    p_corr = sub.add_parser("corrective", help="top corrective items")
    add_explore_args(p_corr)
    p_corr.add_argument("--top", type=_arg(validate_top), default=10)

    p_sig = sub.add_parser(
        "significant", help="patterns surviving FDR control"
    )
    add_explore_args(p_sig)
    p_sig.add_argument("--alpha", type=float, default=0.05)
    p_sig.add_argument("--top", type=_arg(validate_top), default=10)

    p_lattice = sub.add_parser("lattice", help="subset lattice of a pattern")
    add_explore_args(p_lattice)
    p_lattice.add_argument("--pattern", required=True)
    p_lattice.add_argument("--threshold", type=float, default=0.15)
    p_lattice.add_argument("--dot", action="store_true",
                           help="emit Graphviz DOT instead of text")

    p_report = sub.add_parser("report", help="full markdown audit report")
    add_data_args(p_report)
    p_report.add_argument("--support", type=float, default=0.05)
    p_report.add_argument("--metrics", default="fpr,fnr,error,accuracy")
    p_report.add_argument("--output", help="write report to this file")

    p_cmp = sub.add_parser(
        "compare",
        help="compare N models' divergence tables over one shared lattice",
    )
    add_data_args(p_cmp)
    p_cmp.add_argument(
        "--models", required=True, type=_arg(validate_models),
        help="comma-separated model specs: prediction columns and/or "
             "classifier:<name> (forest, tree, logistic, naive-bayes)",
    )
    p_cmp.add_argument("--baseline", default=None,
                       help="baseline model spec (default: first of --models)")
    p_cmp.add_argument("--metric", default="fpr")
    p_cmp.add_argument("--support", type=_arg(validate_support), default=0.1)
    p_cmp.add_argument("--algorithm", default="bitset",
                       choices=ALGORITHMS)
    p_cmp.add_argument("--workers", type=_arg(validate_workers), default=None,
                       help="mining worker processes: 0 auto, 1 serial, "
                            ">=2 row-sharded (identical results)")
    p_cmp.add_argument("--top", type=int, default=10,
                       help="shift/regression rows per challenger model")
    p_cmp.add_argument("--min-t", type=_arg(validate_min_t), default=0.0,
                       help="minimum |Welch t| for a shift to be reported")

    p_rank = sub.add_parser(
        "rank",
        help="exposure/rank divergence of a score over all subgroups",
    )
    add_data_args(p_rank)
    p_rank.add_argument(
        "--weight-model", type=_arg(validate_weight_model),
        default="exposure",
        help="per-instance weight: exposure (1/log2(rank+1)), "
             "topk (membership, needs --rank-k), reciprocal_rank, "
             "or score (raw value)",
    )
    p_rank.add_argument("--rank-k", type=_arg(validate_rank_k), default=None,
                        help="list size k for --weight-model topk")
    p_rank.add_argument("--score-column", default="score",
                        help="continuous column holding the ranking score; "
                             "when absent, scores come from --classifier")
    p_rank.add_argument("--classifier", default="logistic",
                        help="classifier whose predict_proba supplies scores "
                             "when --score-column is missing (forest, tree, "
                             "logistic, naive-bayes)")
    p_rank.add_argument("--support", type=_arg(validate_support), default=0.1)
    p_rank.add_argument("--algorithm", default="bitset",
                        choices=ALGORITHMS)
    p_rank.add_argument("--workers", type=_arg(validate_workers), default=None,
                        help="mining worker processes: 0 auto, 1 serial, "
                             ">=2 row-sharded (identical results)")
    p_rank.add_argument("--top", type=_arg(validate_top), default=10)

    p_study = sub.add_parser("study", help="simulated user study")
    add_profile_arg(p_study)
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--users", type=int, default=35)

    p_mon = sub.add_parser(
        "monitor",
        help="streaming divergence monitor (replay, optional injected drift)",
    )
    add_profile_arg(p_mon)
    p_mon.add_argument("--dataset", choices=DATASET_NAMES, required=True,
                       help="bundled dataset to replay as a stream")
    p_mon.add_argument("--metric", default="fpr")
    p_mon.add_argument("--support", type=_arg(validate_support), default=0.1)
    p_mon.add_argument("--algorithm", default="bitset",
                       choices=ALGORITHMS)
    p_mon.add_argument("--workers", type=_arg(validate_workers), default=None,
                       help="mining worker processes for window re-mining: "
                            "0 auto, 1 serial, >=2 row-sharded")
    p_mon.add_argument("--window", type=_arg(validate_window), default=1024,
                       help="window size in rows")
    p_mon.add_argument("--step", type=_arg(validate_step), default=None,
                       help="window step in rows (default: tumbling)")
    p_mon.add_argument("--batch-size", type=_arg(validate_batch_size),
                       default=256, help="ingestion batch size in rows")
    p_mon.add_argument("--alert-delta", type=_arg(validate_alert_threshold),
                       default=0.15,
                       help="min |divergence change| between windows")
    p_mon.add_argument("--alert-t", type=_arg(validate_alert_threshold),
                       default=3.0, help="min Welch t between windows")
    p_mon.add_argument("--churn", type=_arg(validate_alert_threshold),
                       default=0.6, help="top-k churn alert threshold")
    p_mon.add_argument("--top", type=int, default=10,
                       help="ranking depth for churn and window summaries")
    p_mon.add_argument("--inject", metavar="PATTERN",
                       help='inject synthetic drift into e.g. "sex=Male"')
    p_mon.add_argument("--inject-at", type=float, default=0.5,
                       help="stream position of the injection (fraction)")
    p_mon.add_argument("--max-rows", type=int, default=None,
                       help="truncate the replay to this many rows")
    p_mon.add_argument("--seed", type=int, default=0)
    p_mon.add_argument("--store", metavar="PATH", default=None,
                       help="journal every mined window into this durable "
                            "pattern store (inspect with 'patterns')")

    p_pat = sub.add_parser(
        "patterns",
        help="inspect and manage a durable pattern store",
    )
    add_profile_arg(p_pat)
    p_pat.add_argument("--store", metavar="PATH", required=True,
                       help="pattern store log written by 'monitor --store' "
                            "or the app server")
    p_pat.add_argument("--offset", type=_arg(validate_offset), default=0,
                       help="pagination offset into the filtered ledger")
    p_pat.add_argument("--limit", type=_arg(validate_limit), default=20,
                       help="patterns listed per invocation")
    state = p_pat.add_mutually_exclusive_group()
    state.add_argument("--acked", action="store_true",
                       help="list only acknowledged patterns")
    state.add_argument("--unacked", action="store_true",
                       help="list only unacknowledged patterns")
    p_pat.add_argument("--min-divergence",
                       type=_arg(validate_alert_threshold), default=None,
                       help="minimum latest |divergence| to list")
    p_pat.add_argument("--since-window", type=int, default=None,
                       help="list patterns last seen in window >= this")
    p_pat.add_argument("--ack", metavar="KEY", default=None,
                       help="acknowledge the pattern with this key "
                            "(comma-separated item ids from the listing)")
    p_pat.add_argument("--unack", metavar="KEY", default=None,
                       help="reopen (un-acknowledge) the pattern")
    p_pat.add_argument("--note", default=None,
                       help="note recorded with --ack")
    p_pat.add_argument("--compact", action="store_true",
                       help="rewrite the log to one record per live pattern")

    return parser


def _load_explorer(args: argparse.Namespace) -> DivergenceExplorer:
    """Build an explorer from --dataset or --csv arguments."""
    if args.dataset and args.csv:
        raise ReproError("pass either --dataset or --csv, not both")
    if args.dataset:
        data = load(args.dataset, seed=args.seed)
        return DivergenceExplorer(
            data.table, data.true_column, data.pred_column,
            attributes=data.attributes,
        )
    if args.csv:
        table = read_csv(args.csv)
        table = discretize_table(table, default_bins=args.bins)
        pred = args.pred_column if args.pred_column in table else None
        return DivergenceExplorer(table, args.true_column, pred)
    raise ReproError("one of --dataset or --csv is required")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
        with span(f"cli.{args.command}"):
            with cancel_scope(deadline=getattr(args, "deadline", None)):
                _dispatch(args)
    except DeadlineExceeded as exc:
        # Must precede ReproError (its base): an expired budget is a
        # distinct outcome, not a usage error.
        print(f"deadline exceeded: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # Tear down any sharded-mining worker pools deterministically:
        # relying on atexit alone leaves forked children alive for the
        # rest of embedding processes (tests, notebooks) that call
        # main() without exiting.
        from repro.fpm.sharded import shutdown_pools

        shutdown_pools()
        if getattr(args, "profile", False):
            table = render_profile()
            if table:
                print(f"\n-- profile ({args.command}) --")
                print(table)
    return 0


def _validate_args(args: argparse.Namespace) -> None:
    """Reject bad analysis parameters at the edge with a clear message.

    Without this, ``--support 0`` (or negative, or > 1) reaches the
    miners and fails with an opaque numpy error.
    """
    if getattr(args, "support", None) is not None:
        args.support = validate_support(args.support)
    if getattr(args, "epsilon", None) is not None:
        args.epsilon = validate_epsilon(args.epsilon)
    if getattr(args, "deadline", None) is not None:
        args.deadline = validate_deadline(args.deadline)


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "datasets":
        print(format_table(dataset_characteristics(), title="bundled datasets"))
        return

    if args.command == "study":
        from repro.userstudy import run_user_study

        result = run_user_study(seed=args.seed, n_users=args.users)
        rows = [
            {
                "group": g.group,
                "users": g.n_users,
                "hit %": round(100 * g.hit_rate, 1),
                "partial %": round(100 * g.partial_rate, 1),
            }
            for g in result.groups
        ]
        print(format_table(rows, title=f"injected: ({result.injected})"))
        return

    if args.command == "monitor":
        _run_monitor(args)
        return

    if args.command == "patterns":
        _run_patterns(args)
        return

    if args.command == "compare":
        _run_compare(args)
        return

    if args.command == "rank":
        _run_rank(args)
        return

    if args.command == "report":
        explorer = _load_explorer(args)
        text = divergence_report(
            explorer,
            metrics=[m.strip() for m in args.metrics.split(",") if m.strip()],
            min_support=args.support,
        )
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            print(f"report written to {args.output}")
        else:
            print(text)
        return

    explorer = _load_explorer(args)
    result = explorer.explore(
        args.metric,
        min_support=args.support,
        algorithm=args.algorithm,
        n_workers=args.workers,
        sample=args.sample,
        confidence=args.confidence,
        sample_seed=args.seed,
    )
    if getattr(result, "approximate", False):
        print(
            f"approximate: mined {result.sample_rows} of "
            f"{result.total_rows} rows (confidence {result.confidence:g}; "
            "omit --sample for the exact table)"
        )

    if args.command == "explore":
        if args.epsilon is not None:
            records = result.pruned(args.epsilon)[: args.top]
            title = (f"{args.metric.upper()} top patterns "
                     f"(s={args.support}, ε={args.epsilon})")
        else:
            records = result.top_k(args.top)
            title = f"{args.metric.upper()} top patterns (s={args.support})"
        print(f"overall {args.metric} = {result.global_rate:.4f}")
        print(format_table(
            records_as_rows(records, f"Δ_{args.metric}"), title=title
        ))
    elif args.command == "shapley":
        pattern = Itemset.parse(args.pattern)
        contributions = result.shapley(pattern)
        print(f"Δ({pattern}) = {result.divergence_of(pattern):+.4f}")
        for item, value in sorted(
            contributions.items(), key=lambda kv: -abs(kv[1])
        ):
            print(f"  {str(item):40s} {value:+.4f}")
    elif args.command == "global":
        global_div = result.global_item_divergence()
        individual = result.individual_item_divergence()
        rows = [
            {
                "item": str(item),
                "global": round(value, 4),
                "individual": round(individual.get(item, float("nan")), 4),
            }
            for item, value in sorted(
                global_div.items(), key=lambda kv: -kv[1]
            )[: args.top]
        ]
        print(format_table(rows, title="global vs individual item divergence"))
    elif args.command == "corrective":
        for c in result.corrective_items(args.top):
            print(c)
    elif args.command == "significant":
        records = result.significant(alpha=args.alpha, k=args.top)
        print(
            f"{len(records)} patterns survive BH FDR control "
            f"at alpha={args.alpha}"
        )
        print(format_table(
            records_as_rows(records, f"Δ_{args.metric}"),
            title=f"{args.metric.upper()} significant patterns",
        ))
    elif args.command == "lattice":
        lattice = result.lattice(Itemset.parse(args.pattern))
        if args.dot:
            print(lattice_to_dot(lattice, threshold=args.threshold))
        else:
            print(lattice.render(threshold=args.threshold))


def _run_rank(args: argparse.Namespace) -> None:
    """Exposure/rank divergence over all frequent subgroups."""
    from repro.rank import RankDivergenceExplorer, dataset_scores

    if args.dataset and args.csv:
        raise ReproError("pass either --dataset or --csv, not both")
    if args.weight_model == "topk" and args.rank_k is None:
        raise ReproError("--weight-model topk requires --rank-k")
    if args.dataset:
        data = load(args.dataset, seed=args.seed)
        table = data.table
        attributes = list(data.attributes)
        name = args.score_column
        if name in table and table.column(name).is_continuous:
            scores = table.continuous(name).values
        else:
            scores = dataset_scores(
                data, classifier=args.classifier, seed=args.seed
            )
    elif args.csv:
        raw = read_csv(args.csv)
        name = args.score_column
        if name not in raw or not raw.column(name).is_continuous:
            raise ReproError(
                f"CSV input needs a continuous score column "
                f"(--score-column {name!r} not found or not numeric)"
            )
        # Pull the scores out before discretization would bin them.
        scores = raw.continuous(name).values
        table = discretize_table(
            raw.without_columns([name]), default_bins=args.bins
        )
        excluded = {args.true_column, args.pred_column}
        attributes = [
            n for n in table.categorical_names if n not in excluded
        ]
    else:
        raise ReproError("one of --dataset or --csv is required")

    explorer = RankDivergenceExplorer(table, scores, attributes=attributes)
    result = explorer.explore(
        weight_model=args.weight_model,
        min_support=args.support,
        topk=args.rank_k,
        algorithm=args.algorithm,
        n_workers=args.workers,
    )
    print(
        f"global mean {result.metric} weight = {result.global_rate:.4f} "
        f"({len(result) - 1} patterns at s={args.support})"
    )
    records = result.top_k(args.top, by="abs_divergence")
    rows = [
        {
            "itemset": str(r.itemset),
            "sup": round(r.support, 3),
            "mean": round(r.mean, 4),
            f"Δ_{result.metric}": round(r.divergence, 4),
            "t": round(r.t_statistic, 1),
        }
        for r in records
    ]
    print(format_table(
        rows, title=f"{result.metric} divergence top patterns"
    ))


def _run_compare(args: argparse.Namespace) -> None:
    """Shared-lattice model comparison: shifts and regressions per model."""
    from repro.core.compare import explore_compare, resolve_models

    if args.dataset and args.csv:
        raise ReproError("pass either --dataset or --csv, not both")
    attributes = None
    if args.dataset:
        data = load(args.dataset, seed=args.seed)
        table, true_column = data.table, data.true_column
        attributes = [a for a in data.attributes if a not in set(args.models)]
    elif args.csv:
        table = discretize_table(read_csv(args.csv), default_bins=args.bins)
        true_column = args.true_column
    else:
        raise ReproError("one of --dataset or --csv is required")

    baseline = args.baseline or args.models[0]
    if baseline not in args.models:
        raise ReproError(
            f"baseline {baseline!r} must be one of --models {args.models}"
        )
    resolved = resolve_models(
        table, true_column, args.models, attributes=attributes, seed=args.seed
    )
    comparison = explore_compare(
        table,
        true_column,
        resolved,
        metric=args.metric,
        min_support=args.support,
        attributes=attributes,
        algorithm=args.algorithm,
        n_workers=args.workers,
    )
    print(
        f"compared {len(args.models)} models over "
        f"{comparison.n_patterns} shared patterns "
        f"(metric={args.metric}, s={args.support})"
    )
    for name, rate in comparison.global_rates.items():
        marker = "  (baseline)" if name == baseline else ""
        print(f"  overall {args.metric} {name} = {rate:.4f}{marker}")
    for name in comparison.model_names:
        if name == baseline:
            continue
        shifts = comparison.shifts(
            name, baseline=baseline, k=args.top, min_t=args.min_t
        )
        rows = [
            {
                "itemset": str(s.itemset),
                "Δ_a": _fmt(s.divergence_a),
                "Δ_b": _fmt(s.divergence_b),
                "shift": _fmt(s.shift),
                "t": _fmt(s.t_statistic, 1),
                "δ": _fmt(s.delta_divergence),
            }
            for s in shifts
        ]
        if rows:
            print(format_table(
                rows, title=f"top shifts: {baseline} -> {name}"
            ))
        else:
            print(f"no shifts pass |t| >= {args.min_t} for {name}")
        worse = comparison.regressions(
            name, baseline=baseline, k=args.top,
            min_t=max(args.min_t, 2.0),
        )
        if worse:
            rows = [
                {
                    "itemset": str(s.itemset),
                    "Δ_a": _fmt(s.divergence_a),
                    "Δ_b": _fmt(s.divergence_b),
                    "worse by": _fmt(abs(s.divergence_b) - abs(s.divergence_a)),
                    "t": _fmt(s.t_statistic, 1),
                }
                for s in worse
            ]
            print(format_table(
                rows, title=f"regressions: {baseline} -> {name}"
            ))
        else:
            print(f"no significant regressions: {baseline} -> {name}")


def _run_monitor(args: argparse.Namespace) -> None:
    """Replay a dataset through the streaming monitor and print alerts."""
    from repro.store import PatternStore
    from repro.stream import DriftConfig, DriftInjection, replay

    drift = DriftConfig(
        min_delta=args.alert_delta,
        min_t=args.alert_t,
        churn_threshold=args.churn,
        top_k=args.top,
    )
    injection = (
        DriftInjection(args.inject, at_fraction=args.inject_at)
        if args.inject
        else None
    )
    store = PatternStore(args.store) if args.store else None
    try:
        report = replay(
            args.dataset,
            metric=args.metric,
            batch_size=args.batch_size,
            window=args.window,
            step=args.step,
            min_support=args.support,
            algorithm=args.algorithm,
            drift=drift,
            injection=injection,
            seed=args.seed,
            max_rows=args.max_rows,
            n_workers=args.workers,
            store=store,
        )
    finally:
        if store is not None:
            stats = store.stats()
            store.close()
            print(
                f"pattern store {stats['path']}: {stats['patterns']} "
                f"patterns, {stats['bytes']} bytes, "
                f"{stats['alerted']} alerted"
            )
    monitor = report.monitor
    policy = monitor.policy
    print(
        f"replayed {args.dataset}: {report.n_rows} rows in "
        f"{report.n_batches} batches, {len(monitor.windows)} windows "
        f"(window={policy.size}, step={policy.step}, s={args.support})"
    )
    if report.injected_pattern is not None:
        print(
            f"injected drift into '{report.injected_pattern}' at row "
            f"{report.injection_row} (window {report.injection_window}); "
            f"{report.injected_rows} outcomes flipped"
        )
    alerts = report.alerts
    if not alerts:
        print("no drift alerts fired")
    else:
        rows = [
            {
                "window": a.kind == "rank_churn" and f"{a.window_index} *churn*"
                or a.window_index,
                "itemset": a.itemset or f"top-{drift.top_k} churn "
                f"{a.churn:.2f}",
                "Δ_prev": _fmt(a.prev_divergence),
                "Δ_cur": _fmt(a.cur_divergence),
                "delta": _fmt(a.delta),
                "t": _fmt(a.t_statistic, 1),
            }
            for a in alerts
        ]
        print(format_table(
            rows, title=f"drift alerts (δ>={drift.min_delta}, t>={drift.min_t})"
        ))
        print(f"{len(alerts)} alerts over {len(monitor.windows)} windows")
    if report.injected_key is not None:
        detected = report.detection_window()
        if detected is None:
            print("injected drift NOT detected")
        else:
            lag = detected - (report.injection_window or 0)
            print(
                f"injected drift detected in window {detected} "
                f"(lag {lag} windows, {len(report.matching_alerts())} "
                "matching alerts)"
            )


def _run_patterns(args: argparse.Namespace) -> None:
    """Inspect or manage a durable pattern store from the CLI."""
    import os

    from repro.store import PatternStore

    if not os.path.exists(args.store):
        raise ReproError(
            f"no pattern store at {args.store!r} "
            "(create one with 'monitor --store' or the app server)"
        )
    with PatternStore(args.store, auto_compact=False) as store:
        if args.ack or args.unack:
            raw = args.ack if args.ack else args.unack
            try:
                key = [int(part) for part in raw.split(",") if part.strip()]
            except ValueError:
                raise ReproError(
                    f"--ack/--unack key must be comma-separated item ids, "
                    f"got {raw!r}"
                ) from None
            entry = store.ack(key, acked=bool(args.ack), note=args.note)
            state = "acknowledged" if args.ack else "reopened"
            print(f"{state} {entry['itemset']} (key {entry['key']})")
            return
        if args.compact:
            before = store.stats()["bytes"]
            store.compact()
            after = store.stats()["bytes"]
            print(f"compacted {args.store}: {before} -> {after} bytes")
            return
        acked = True if args.acked else (False if args.unacked else None)
        payload = store.query(
            offset=args.offset,
            limit=args.limit,
            acked=acked,
            min_divergence=args.min_divergence,
            since_window=args.since_window,
        )
        stats = store.stats()
    rows = [
        {
            "key": ",".join(str(i) for i in entry["key"]),
            "itemset": entry["itemset"],
            "Δ": _fmt(
                entry["divergence"]
                if entry["divergence"] is not None
                else float("nan")
            ),
            "sup": _fmt(
                entry["support"]
                if entry["support"] is not None
                else float("nan")
            ),
            "windows": entry["windows_seen"],
            "alerts": entry["alerts"],
            "acked": "yes" if entry["acked"] else "",
            "last seen": entry["last_seen_window"],
        }
        for entry in payload["patterns"]
    ]
    title = (
        f"pattern store {args.store} "
        f"({payload['total']} matching of {stats['patterns']} patterns, "
        f"last window {payload['last_window']})"
    )
    if rows:
        print(format_table(rows, title=title))
    else:
        print(title)
        print("no patterns match the filters")
    shown_to = args.offset + len(rows)
    if shown_to < payload["total"]:
        print(
            f"showing {args.offset}..{shown_to} of {payload['total']}; "
            f"rerun with --offset {shown_to}"
        )


def _fmt(value: float, digits: int = 3) -> str:
    import math as _math

    return "-" if _math.isnan(value) else f"{value:+.{digits}f}"


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
