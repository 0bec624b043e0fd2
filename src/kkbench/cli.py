"""Command line front end for the benchmark harness.

Exit codes: 0 on success, 1 when the reader closes stdout early, 2 on a
configuration error, 3 when every realization diverged.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from .akkf import AkkfConfig
from .bench import (
    RunRecord,
    ScenarioConfig,
    read_run_csv,
    run_mc,
    summarize,
    sweep,
    write_run_csv,
    write_summary_csv,
)


def _nonempty(items: list) -> list:
    if not items:
        raise argparse.ArgumentTypeError("expected a nonempty comma-separated list")
    return items


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    return _nonempty([int(part) for part in text.split(",") if part])


def _str_list(text: str) -> list[str]:
    return _nonempty([part.strip() for part in text.split(",") if part.strip()])


def build_parser() -> argparse.ArgumentParser:
    # the options every command shares; each command adds its filter and
    # particle options
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--scenario", required=True)
    cell.add_argument("--realizations", type=int, required=True)
    cell.add_argument("--seed", type=int, required=True)
    cell.add_argument("--lambda", dest="lam", type=float, default=AkkfConfig.lambda_tilde)
    cell.add_argument("--kappa", type=float, default=AkkfConfig.kappa)
    cell.add_argument("--workers", type=_positive_int, default=1)
    cell.add_argument("--out", required=True)

    parser = argparse.ArgumentParser(prog="kkbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[cell], help="Monte Carlo run of one scenario/filter cell")
    run.add_argument("--filter", required=True)
    run.add_argument("--particles", type=int, required=True)

    sw = sub.add_parser("sweep", parents=[cell], help="summaries over a filter x particle grid")
    sw.add_argument("--filters", type=_str_list, required=True)
    sw.add_argument("--particles", type=_int_list, required=True)

    cmp = sub.add_parser("compare", help="paired comparison of two run CSVs")
    cmp.add_argument("a", metavar="A.csv")
    cmp.add_argument("b", metavar="B.csv")
    return parser


def _scenario_config(args: argparse.Namespace, filter_name: str, M: int) -> ScenarioConfig:
    return ScenarioConfig(
        scenario=args.scenario,
        filter=filter_name,
        M=M,
        realizations=args.realizations,
        seed=args.seed,
        lam=args.lam,
        kappa=args.kappa,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _scenario_config(args, args.filter, args.particles)
    records, summary = run_mc(cfg, workers=args.workers)
    write_run_csv(args.out, cfg, records)
    print(
        f"{cfg.scenario} {cfg.filter} M={cfg.M}: "
        f"metric mean {summary.metric_mean:.6g} std {summary.metric_std:.6g} "
        f"se {summary.metric_se:.3g} diverged {summary.diverged_count}/{cfg.realizations} "
        f"runtime {summary.runtime_mean_s:.4g} s"
    )
    if summary.diverged_count == cfg.realizations:
        return 3
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # the base is the grid's first cell, so it fails validation only when
    # sweep would reject that cell anyway
    base = _scenario_config(args, args.filters[0], args.particles[0])
    rows = sweep(base, args.particles, args.filters, workers=args.workers)
    write_summary_csv(args.out, rows)
    for cfg, summary in rows:
        print(
            f"{cfg.scenario} {cfg.filter} M={cfg.M}: metric mean {summary.metric_mean:.6g} "
            f"se {summary.metric_se:.3g} diverged {summary.diverged_count}/{cfg.realizations} "
            f"runtime {summary.runtime_mean_s:.4g} s"
        )
    total = sum(summary.diverged_count for _, summary in rows)
    if total == len(rows) * args.realizations:
        return 3
    return 0


def _read_by_realization(path: str) -> list[RunRecord]:
    try:
        records = read_run_csv(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    return sorted(records, key=lambda rec: rec.realization)


def _cmd_compare(args: argparse.Namespace) -> int:
    # runtime_s differs between any two runs, so only metric and diverged count
    a, b = _read_by_realization(args.a), _read_by_realization(args.b)
    if [rec.realization for rec in a] != [rec.realization for rec in b]:
        raise ValueError(f"{args.a} and {args.b} hold different realization sets")
    sides = {"A": a, "B": b}
    rows = {
        side: "".join(f"{rec.realization},{rec.metric!r},{int(rec.diverged)}\n" for rec in records)
        for side, records in sides.items()
    }
    if rows["A"] == rows["B"]:
        print(f"identical: {len(a)} realizations")
    else:
        # a pair counts as diverged when either side diverged
        paired = summarize(
            [RunRecord(ra.realization, rb.metric - ra.metric, 0.0, ra.diverged or rb.diverged)
             for ra, rb in zip(a, b)]
        )
        print(
            f"B - A: mean {paired.metric_mean:.6g} se {paired.metric_se:.3g} "
            f"over {len(a) - paired.diverged_count} realizations converged in both"
        )
    for side, records in sides.items():
        diverged = sum(rec.diverged for rec in records)
        digest = hashlib.sha256(rows[side].encode()).hexdigest()
        print(f"{side}: diverged {diverged}/{len(records)} sha256 {digest}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "compare":
            # fail before any realization runs, not when the CSV is written
            out_dir = os.path.dirname(args.out) or "."
            if not os.path.isdir(out_dir):
                raise ValueError(f"--out directory {out_dir!r} does not exist")
            if os.path.isdir(args.out):
                raise ValueError(f"--out {args.out!r} is a directory")
        code = {"run": _cmd_run, "sweep": _cmd_sweep, "compare": _cmd_compare}[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"kkbench: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the recipe in Python's signal docs: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
