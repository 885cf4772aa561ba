#!/usr/bin/env python3
"""The source paper's three studies, one subcommand each; ``--help`` on each lists its flags.

accuracy: the RBF-kernel SVM and logistic regression on the same repeated
cross-validation folds of one corpus (synthetic, or a CSV from --data).  At
the defaults the SVM edges out the logistic model on the noiseless
500-sample corpus, as in the test suite's acceptance gate.

penalty: SVM cross-validation at each ratio gamma = w1/w2 of the slack costs
on explosion (w1) and safe (w2) samples, tabulating the type-I rate (missed
explosions), type-II rate (false alarms) and whole error rate.  A larger
gamma buys down the safety-critical type-I rate with more false alarms; the
choice is the smallest ratio minimizing the type-I rate.  Label noise
(default 10%) keeps the trade-off visible: on a noiseless corpus every ratio
can reach zero error.

limits: the logistic surface fitted to a synthetic corpus, inverted into an
explosive HC interval at each oxygen level and set against the generating
limit curves.  The O2 window is pinned to the anchor span (15..20) so the
limits vary everywhere: the features (hc, o2, o2/hc) cannot represent the
flat extrapolation tails of the wider default window.  A noiseless corpus is
separable, so the fit warns "separation suspected"; the ridge keeps the
coefficients finite and the intervals well-defined.
"""

from __future__ import annotations

import argparse
import sys

from gasgate.cli import (
    NOISE,
    NON_NEGATIVE_FINITE,
    POSITIVE_FINITE,
    RATIOS,
    SEED,
    at_least,
    listed,
    ranged,
)
from gasgate.data import (
    atomic_write_text,
    check_output_path,
    featurize,
    fit_normalization,
    load_csv,
)
from gasgate.errors import GasgateError
from gasgate.evaluate import (
    DEFAULT_GAMMA_GRID,
    LogisticLearner,
    SvmLearner,
    choose_ratio,
    penalty_sweep,
    repeated_cv,
    summarize_repeats,
    sweep_text,
    sweep_tsv,
)
from gasgate.kernels import KernelSpec
from gasgate.logistic import explosion_interval, intervals_csv
from gasgate.svm import PenaltyConfig
from gasgate.synth import DEFAULT_LIMIT_KNOTS, OracleRegion, default_region, generate


def accuracy(args, data) -> None:
    """Repeated cross-validation shoot-out: RBF SVM versus logistic regression."""
    n_pos = int(data.exploded.sum())
    print(f"corpus: {data.provenance or args.data} "
          f"({n_pos} explosive / {len(data) - n_pos} safe)")
    svm = SvmLearner(kernel=KernelSpec("rbf", gamma=args.gamma),
                     penalties=PenaltyConfig(args.w_pos, args.w_neg))
    svm_reports, lr_reports = (
        repeated_cv(data, learner, v=args.folds, repeats=args.repeats, base_seed=args.base_seed)
        for learner in (svm, LogisticLearner(ridge=args.ridge))
    )
    print("\nrepeat  seed  svm accuracy  logistic accuracy")
    for i, (s, l) in enumerate(zip(svm_reports, lr_reports)):
        print(f"{i + 1:>6}  {args.base_seed + i:>4}  {s.mean:>11.2f}%  {l.mean:>16.2f}%")
    labels = (f"svm (rbf gamma={args.gamma:g}, w={args.w_pos:g}/{args.w_neg:g})",
              f"logistic (ridge={args.ridge:g})")
    print(f"\nmean over {args.repeats} repeats of {args.folds}-fold CV:")
    for label, reports in zip(labels, (svm_reports, lr_reports)):
        mean, std = summarize_repeats(reports)
        print(f"  {label:<{max(map(len, labels))}}  {mean:.2f}% +/- {std:.2f}%")


def penalty(args, data) -> None:
    """Sweep the class-penalty ratio and print the missed-explosion trade-off."""
    # the sweep scales the negative-class cost w2 by each ratio
    learner = SvmLearner(kernel=KernelSpec("rbf", gamma=args.gamma),
                         penalties=PenaltyConfig(args.w2, args.w2), seed=args.seed)
    report = penalty_sweep(data, learner, gamma_grid=args.grid, v=args.folds, seed=args.seed)
    print(f"corpus: {data.provenance or args.data} ({len(data)} samples)")
    print(f"{args.folds}-fold CV at each ratio, pooled over folds:\n")
    print(sweep_text(report), end="")
    chosen = choose_ratio(report)
    row = report.row(chosen)
    print(f"\nchosen ratio: {chosen:g} "
          f"(type1 {row.type1_rate:.2%}, whole error {row.whole_error_rate:.2%})")
    if args.out:
        atomic_write_text(args.out, sweep_tsv(report))
        print(f"wrote {args.out}")


def limits(args, data) -> None:
    """Recover flammable-limit curves from a fitted logistic probability surface."""
    params = fit_normalization(data)
    model = LogisticLearner(ridge=args.ridge).fit(featurize(params, data), data.exploded,
                                                  normalization=params)
    print(f"corpus: {data.provenance} ({int(data.exploded.sum())} explosive)")
    print(f"fitted coefficients: {model.beta}\n")
    print("   o2   true lower  fit lower   true upper  fit upper   max err")
    intervals = [explosion_interval(model, o2) for o2 in args.levels]
    for iv in intervals:
        if not iv.present:
            print(f"{iv.o2:>5.1f}   (no explosive interval found)")
            continue
        true_lo, true_hi = float(args.region.lower(iv.o2)), float(args.region.upper(iv.o2))
        err = max(abs(iv.lower - true_lo), abs(iv.upper - true_hi))
        print(f"{iv.o2:>5.1f}   {true_lo:>10.4f} {iv.lower:>10.4f}   "
              f"{true_hi:>10.4f} {iv.upper:>10.4f}   {err:>7.4f}")
    if args.out:
        atomic_write_text(args.out, intervals_csv(intervals))
        print(f"\nwrote {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    studies = parser.add_subparsers(dest="study", required=True)

    def study(run, n, seed, noise, seed_help="synthesis seed", region=None):
        """A subcommand for ``run`` with the corpus flags at its defaults."""
        p = studies.add_parser(run.__name__, help=run.__doc__, description=run.__doc__)
        p.set_defaults(run=run, region=region or default_region(), data=None, out=None)
        # limits tabulates against its own generating curves, so it reads no CSV
        if region is None:
            p.add_argument("--data", help="CSV corpus; omit to synthesize one")
        p.add_argument("--n", type=at_least(10), default=n, help="synthetic corpus size")
        p.add_argument("--seed", type=SEED, default=seed, help=seed_help)
        p.add_argument("--noise", type=NOISE, default=noise, help="label flip probability")
        return p

    p = study(accuracy, 500, 42, 0.0)
    p.add_argument("--folds", type=at_least(2), default=5, help="CV folds")
    p.add_argument("--repeats", type=at_least(1), default=10, help="CV repeats")
    p.add_argument("--base-seed", type=SEED, default=0, help="fold seed of the first repeat")
    p.add_argument("--gamma", type=POSITIVE_FINITE, default=0.5,
                   help="RBF kernel width for the SVM")
    p.add_argument("--w-pos", type=POSITIVE_FINITE, default=10.0,
                   help="slack cost for the explosion class")
    p.add_argument("--w-neg", type=POSITIVE_FINITE, default=10.0,
                   help="slack cost for the safe class")
    p.add_argument("--ridge", type=NON_NEGATIVE_FINITE, default=1e-6,
                   help="L2 penalty for the logistic model")

    p = study(penalty, 200, 0, 0.10, seed_help="synthesis and fold seed")
    p.add_argument("--grid", type=RATIOS,
                   default=",".join(f"{g:g}" for g in DEFAULT_GAMMA_GRID),
                   help="comma-separated penalty ratios (each >= 1)")
    p.add_argument("--folds", type=at_least(2), default=5, help="CV folds")
    p.add_argument("--gamma", type=POSITIVE_FINITE, default=0.5,
                   help="RBF kernel width for the SVM")
    p.add_argument("--w2", type=POSITIVE_FINITE, default=1.0,
                   help="slack cost on the safe class")
    p.add_argument("--out", help="also write the table as TSV to this path")

    # the default limit curves with the O2 window pinned to their anchor span
    o2s, lows, highs = zip(*DEFAULT_LIMIT_KNOTS)
    low, high = min(o2s), max(o2s)
    p = study(limits, 500, 42, 0.0,
              region=OracleRegion(o2s, lows, highs, o2_window=(low, high)))
    p.add_argument("--ridge", type=NON_NEGATIVE_FINITE, default=1e-6,
                   help="L2 penalty for the logistic fit")
    # outside the corpus's O2 window the fit extrapolates, and its explosive
    # region can run off the HC range (at 30 it does)
    p.add_argument("--levels", default="15,16,17,18,19,20",
                   type=listed(ranged(float, f"in [{low:g}, {high:g}]",
                                      lambda v: low <= v <= high)),
                   help=f"comma-separated oxygen levels to invert at, each in "
                        f"[{low:g}, {high:g}]")
    p.add_argument("--out", help="also write the intervals as CSV to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_output_path(args.out)
        if args.data:
            data = load_csv(args.data)
        else:
            data = generate(args.region, n=args.n, seed=args.seed, noise=args.noise)
        args.run(args, data)
    except (GasgateError, OSError) as exc:
        # one line and exit 2, as the gasgate CLI reports a runtime error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
