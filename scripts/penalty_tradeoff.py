#!/usr/bin/env python3
"""Sweep the class-penalty ratio and print the missed-explosion trade-off.

Cross-validates the SVM at each ratio gamma = w1/w2, where w1 is the slack
cost on explosion samples and w2 the cost on safe ones, and tabulates the
type-I rate (missed explosions), type-II rate (false alarms) and whole error
rate.  Raising gamma buys down the safety-critical type-I rate at the price
of more false alarms; the reported choice is the smallest ratio minimizing
the type-I rate.  Label noise (default 10%) keeps the trade-off visible —
on a noiseless corpus every ratio can reach zero error.
"""

from __future__ import annotations

import argparse

from gasgate.data import atomic_write_text, load_csv
from gasgate.evaluate import (
    DEFAULT_GAMMA_GRID,
    SvmLearner,
    choose_ratio,
    penalty_sweep,
    sweep_text,
    sweep_tsv,
)
from gasgate.kernels import KernelSpec
from gasgate.svm import PenaltyConfig
from gasgate.synth import default_region, generate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--data", help="CSV corpus; omit to synthesize one")
    parser.add_argument("--n", type=int, default=200, help="synthetic corpus size")
    parser.add_argument("--seed", type=int, default=0, help="synthesis and fold seed")
    parser.add_argument(
        "--noise", type=float, default=0.10, help="label flip probability"
    )
    parser.add_argument(
        "--grid",
        default=",".join(f"{g:g}" for g in DEFAULT_GAMMA_GRID),
        help="comma-separated penalty ratios (each >= 1)",
    )
    parser.add_argument("--folds", type=int, default=5, help="CV folds")
    parser.add_argument(
        "--gamma", type=float, default=0.5, help="RBF kernel width for the SVM"
    )
    parser.add_argument(
        "--w2", type=float, default=1.0, help="slack cost on the safe class"
    )
    parser.add_argument("--out", help="also write the table as TSV to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.data:
        data = load_csv(args.data)
    else:
        data = generate(default_region(), n=args.n, seed=args.seed, noise=args.noise)
    grid = tuple(float(tok) for tok in args.grid.split(","))

    # the sweep scales the negative-class cost w2 by each ratio
    learner = SvmLearner(kernel=KernelSpec("rbf", gamma=args.gamma),
                         penalties=PenaltyConfig(args.w2, args.w2), seed=args.seed)
    report = penalty_sweep(data, learner, gamma_grid=grid, v=args.folds, seed=args.seed)
    print(f"corpus: {data.provenance or args.data} ({len(data)} samples)")
    print(f"{args.folds}-fold CV at each ratio, pooled over folds:\n")
    print(sweep_text(report), end="")
    chosen = choose_ratio(report)
    row = report.row(chosen)
    print(
        f"\nchosen ratio: {chosen:g} "
        f"(type1 {row.type1_rate:.2%}, whole error {row.whole_error_rate:.2%})"
    )
    if args.out:
        atomic_write_text(args.out, sweep_tsv(report))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
