"""Command-line front end: generate, train, predict, cross-validate, sweep, intervals.

Exit codes form a stable scripting contract: 0 success, 1 usage error
(bad flags or config), 2 runtime/data error (missing files, malformed
rows, solver failures).  Every command is deterministic given identical
flags; the env var ``GASGATE_SEED`` supplies the seed when ``--seed`` is
absent.  A ``--config`` JSON file may supply any flag by its long name
(dashes or underscores); explicit flags override the file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .data import (
    FeatureConfig,
    RATIO_HC_OVER_O2,
    RATIO_O2_OVER_HC,
    featurize,
    fit_normalization,
    load_csv,
    write_csv,
    atomic_write_text,
)
from .errors import GasgateError
from .evaluate import (
    DEFAULT_GAMMA_GRID,
    ConfusionCounts,
    LogisticLearner,
    SvmLearner,
    choose_ratio,
    cross_validate,
    cv_report_csv,
    cv_report_text,
    penalty_sweep,
    repeated_cv,
    summarize_repeats,
    sweep_text,
    sweep_tsv,
)
from .kernels import KERNEL_KINDS, KernelSpec
from .logistic import LogisticModel, explosion_interval, intervals_csv, sigmoid
from .model_io import load_model, save_model
from .svm import DEFAULT_CACHE_MB, PenaltyConfig, SvmModel
from .synth import default_region, generate

SEED_ENV = "GASGATE_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    # allow_abbrev=False keeps argv tokens literal, which lets the config
    # merge tell explicitly-passed flags apart from defaulted ones
    parser = _Parser(
        prog="gasgate",
        description="Explosion-risk prediction from gas-concentration measurements.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file supplying flags by long name")
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV} or 0)")

    def add_features(p):
        p.add_argument("--features", default="hc,o2,ratio",
                       help="comma list of model attributes (default hc,o2,ratio)")
        p.add_argument("--ratio", default=RATIO_O2_OVER_HC,
                       choices=[RATIO_O2_OVER_HC, RATIO_HC_OVER_O2],
                       help="orientation of the ratio attribute")

    def add_svm_flags(p):
        p.add_argument("--kernel", default="rbf", choices=list(KERNEL_KINDS))
        p.add_argument("--gamma", type=float, default=None,
                       help="kernel width (default 1/n_features)")
        p.add_argument("--coef0", type=float, default=0.0)
        p.add_argument("--degree", type=int, default=3)
        p.add_argument("--max-passes", type=int, default=1000)
        p.add_argument("--cache-mb", type=float, default=DEFAULT_CACHE_MB,
                       help="most memory for cached kernel rows, in MiB; the cache "
                            "holds what SMO reads again, up to this (default "
                            "%(default)g; inf for no ceiling)")

    def add_penalty_flags(p):
        # not on sweep, whose penalties are ratio x --base-w2
        p.add_argument("--penalty-positive", type=float, default=10.0,
                       help="slack cost for explosive samples")
        p.add_argument("--penalty-negative", type=float, default=10.0,
                       help="slack cost for safe samples")

    def add_lr_flags(p):
        p.add_argument("--ridge", type=float, default=1e-6)
        p.add_argument("--max-iter", type=int, default=200)

    p = sub.add_parser("gen", allow_abbrev=False, help="generate a synthetic labeled corpus")
    add_common(p)
    p.add_argument("--n", type=int, default=500, help="number of rows (>= 10)")
    p.add_argument("--noise", type=float, default=0.0,
                   help="label-flip probability in [0, 0.5)")
    p.add_argument("--positive-fraction", type=float, default=0.78)
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_gen, _sub=p)

    p = sub.add_parser("train", allow_abbrev=False, help="fit a model on a full CSV and save JSON")
    add_common(p)
    add_features(p)
    add_svm_flags(p)
    add_penalty_flags(p)
    add_lr_flags(p)
    p.add_argument("--model", choices=["svm", "lr"])
    p.add_argument("--data", help="input CSV")
    p.add_argument("--out", help="output model JSON path")
    p.add_argument("--tol", type=float, default=None,
                   help="solver tolerance (default: svm 1e-3, lr 1e-8)")
    p.set_defaults(func=cmd_train, _sub=p)

    p = sub.add_parser("predict", allow_abbrev=False, help="apply a saved model to a CSV")
    add_common(p)
    p.add_argument("--model-file", help="model JSON from train")
    p.add_argument("--data", help="input CSV")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--scores", action="store_true",
                   help="append the raw decision score / linear score column")
    p.set_defaults(func=cmd_predict, _sub=p)

    p = sub.add_parser("cv", allow_abbrev=False, help="stratified v-fold cross-validation")
    add_common(p)
    add_features(p)
    add_svm_flags(p)
    add_penalty_flags(p)
    add_lr_flags(p)
    p.add_argument("--model", choices=["svm", "lr"])
    p.add_argument("--data", help="input CSV")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--repeats", type=int, default=1,
                   help="number of repeated runs (seeds seed, seed+1, ...)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(func=cmd_cv, _sub=p)

    p = sub.add_parser("sweep", allow_abbrev=False, help="penalty-ratio sweep of the class-weighted SVM")
    add_common(p)
    add_features(p)
    add_svm_flags(p)
    p.add_argument("--data", help="input CSV")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--grid",
                   default=",".join(str(int(g)) for g in DEFAULT_GAMMA_GRID),
                   help="comma list of penalty ratios (all >= 1)")
    p.add_argument("--base-w2", type=float, default=1.0,
                   help="negative-class slack cost; positive cost is ratio times this")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", help="report TSV path")
    p.set_defaults(func=cmd_sweep, _sub=p)

    p = sub.add_parser("intervals", allow_abbrev=False,
                       help="explosive HC intervals at fixed oxygen levels")
    add_common(p)
    add_features(p)
    add_lr_flags(p)
    p.add_argument("--model-file", help="saved logistic model JSON")
    p.add_argument("--data", help="CSV to fit a logistic model on")
    p.add_argument("--o2", help="comma list of oxygen levels, e.g. 15,16,18,20")
    p.add_argument("--hc-min", type=float, default=0.1)
    p.add_argument("--hc-max", type=float, default=5.0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_intervals, _sub=p)

    return parser


def _valid_dests(parser) -> set[str]:
    dests = set()
    stack = [parser]
    while stack:
        p = stack.pop()
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
            elif action.dest != argparse.SUPPRESS:
                dests.add(action.dest)
    return dests


def _action_for(parser, dest):
    stack = [parser]
    while stack:
        p = stack.pop()
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
            elif action.dest == dest:
                return action
    return None


def _explicitly_passed(action, argv) -> bool:
    """True when one of the action's option strings appears in argv."""
    for opt in action.option_strings:
        for token in argv:
            if token == opt or token.startswith(opt + "="):
                return True
    return False


def _apply_config(parser, args, argv) -> None:
    """Overlay config-file values onto parsed args; explicit flags win.

    Precedence is defaults < config file < explicit argv flags.  Keys are
    long flag names (dashes or underscores); a key valid for any subcommand
    is accepted, ones valid for none are usage errors.
    """
    path = args.config
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.exit(1, f"gasgate: error: cannot read config {path}: {exc}\n")
    if not isinstance(obj, dict):
        parser.exit(1, f"gasgate: error: config {path} must hold a JSON object\n")
    known = _valid_dests(parser)
    for key, value in obj.items():
        dest = key.replace("-", "_")
        if dest == "config":
            continue
        if dest not in known:
            parser.exit(1, f"gasgate: error: unknown config key {key!r}\n")
        action = _action_for(args._sub, dest) or _action_for(parser, dest)
        if action is None:
            continue
        if _explicitly_passed(action, argv):
            continue
        if action.type is not None and isinstance(value, str):
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                parser.exit(
                    1, f"gasgate: error: config key {key!r}: bad value {value!r}\n"
                )
        elif (
            action.type in (int, float)
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ):
            value = action.type(value)
        if action.choices is not None and value not in action.choices:
            parser.exit(
                1,
                f"gasgate: error: config key {key!r}: {value!r} is not one of "
                f"{tuple(action.choices)}\n",
            )
        setattr(args, dest, value)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        args._sub.error(f"${SEED_ENV} must be an integer, got {env!r}")


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) in (None, ""):
            args._sub.error(f"--{name} is required (flag or config)")


def _check(args, condition: bool, message: str):
    if not condition:
        args._sub.error(message)


def _positive_finite(value: float) -> bool:
    """0 < value < inf; false for nan."""
    return 0.0 < value < math.inf


def _parse_float_list(args, flag: str, text: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        args._sub.error(f"--{flag}: expected a comma list of numbers, got {text!r}")
    if not values:
        args._sub.error(f"--{flag}: empty list")
    return values


def _feature_config(args) -> FeatureConfig:
    names = tuple(t.strip() for t in args.features.split(",") if t.strip())
    try:
        return FeatureConfig(names, ratio=args.ratio)
    except ValueError as exc:
        args._sub.error(str(exc))


def _kernel_spec(args) -> KernelSpec:
    _check(args, args.gamma is None or _positive_finite(args.gamma),
           "--gamma must be positive and finite")
    _check(args, math.isfinite(args.coef0), "--coef0 must be finite")
    _check(args, args.degree >= 1, "--degree must be >= 1")
    try:
        return KernelSpec(
            kind=args.kernel, gamma=args.gamma, coef0=args.coef0, degree=args.degree
        )
    except ValueError as exc:
        args._sub.error(str(exc))


def _penalties(args) -> PenaltyConfig:
    _check(args, _positive_finite(args.penalty_positive),
           "--penalty-positive must be positive and finite")
    _check(args, _positive_finite(args.penalty_negative),
           "--penalty-negative must be positive and finite")
    return PenaltyConfig(positive=args.penalty_positive, negative=args.penalty_negative)


def _svm_learner(args, seed) -> SvmLearner:
    tol = 1e-3 if args.tol is None else args.tol
    _check(args, _positive_finite(tol), "--tol must be positive and finite")
    _check(args, args.max_passes >= 1, "--max-passes must be >= 1")
    _check(args, args.cache_mb > 0, "--cache-mb must be positive")
    return SvmLearner(
        kernel=_kernel_spec(args),
        penalties=_penalties(args),
        tol=tol,
        max_passes=args.max_passes,
        seed=seed,
        cache_mb=args.cache_mb,
    )


def _lr_learner(args) -> LogisticLearner:
    tol = 1e-8 if args.tol is None else args.tol
    _check(args, _positive_finite(tol), "--tol must be positive and finite")
    _check(args, 0.0 <= args.ridge < math.inf, "--ridge must be finite and >= 0")
    _check(args, args.max_iter >= 1, "--max-iter must be >= 1")
    return LogisticLearner(ridge=args.ridge, tol=tol, max_iter=args.max_iter)


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    _require(args, "out")
    _check(args, args.n >= 10, "--n must be >= 10")
    _check(args, 0.0 <= args.noise < 0.5, "--noise must be in [0, 0.5)")
    _check(args, 0.0 < args.positive_fraction < 1.0,
           "--positive-fraction must be in (0, 1)")
    data = generate(
        default_region(),
        n=args.n,
        seed=seed,
        noise=args.noise,
        positive_fraction=args.positive_fraction,
    )
    write_csv(data, args.out)
    n_pos, n_neg = data.class_counts()
    print(
        f"wrote {args.out}: {len(data)} rows, "
        f"{n_pos} explosive / {n_neg} safe ({100.0 * n_pos / len(data):.1f}% positive)"
    )
    return 0


def cmd_train(args) -> int:
    seed = _resolve_seed(args)
    _require(args, "model", "data", "out")
    learner = _svm_learner(args, seed) if args.model == "svm" else _lr_learner(args)
    data = load_csv(args.data)
    config = _feature_config(args)
    params = fit_normalization(data, config)
    features = featurize(params, data)
    model = learner.fit(features, data.exploded, normalization=params)
    save_model(model, args.out)
    counts = ConfusionCounts.from_outcomes(
        data.exploded, learner.predict_exploded(model, features)
    )
    if not model.converged:
        print("warning: solver did not converge; model saved anyway", file=sys.stderr)
    print(
        f"trained {args.model} on {len(data)} samples: "
        f"accuracy {100.0 * counts.accuracy:.2f}% "
        f"(tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn})"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    _require(args, "model-file", "data")
    model = load_model(args.model_file)
    data = load_csv(args.data)
    if model.normalization is None:
        raise GasgateError(
            "model carries no normalization parameters; cannot featurize raw rows"
        )
    features = featurize(model.normalization, data)
    is_lr = isinstance(model, LogisticModel)
    header = "row,prediction" + (",probability" if is_lr else "")
    if args.scores:
        header += ",score"
    lines = [header]
    # Score once and derive labels (and probabilities) from the scores, as
    # the models' own predict methods do.
    if is_lr:
        scores = model.scores(features)
        probabilities = sigmoid(scores)
        labels = np.where(probabilities >= 0.5, 1, 0)
    else:
        scores = model.decision_values(features)
        labels = np.where(scores >= 0, 1, -1)
    fields = [map(str, range(1, len(data) + 1)), map(str, labels.tolist())]
    if is_lr:
        fields.append(map(repr, probabilities.tolist()))
    if args.scores:
        fields.append(map(repr, scores.tolist()))
    lines.extend(map(",".join, zip(*fields)))
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}: {len(data)} predictions")
    else:
        sys.stdout.write(text)
    return 0


def cmd_cv(args) -> int:
    seed = _resolve_seed(args)
    _require(args, "model", "data")
    _check(args, args.folds >= 2, "--folds must be >= 2")
    _check(args, args.repeats >= 1, "--repeats must be >= 1")
    learner = _svm_learner(args, seed) if args.model == "svm" else _lr_learner(args)
    data = load_csv(args.data)
    config = _feature_config(args)
    if args.repeats == 1:
        report = cross_validate(data, learner, v=args.folds, seed=seed,
                                feature_config=config)
        reports = (report,)
        text = cv_report_csv(report)
        sys.stdout.write(cv_report_text(report))
    else:
        reports = repeated_cv(data, learner, v=args.folds, repeats=args.repeats,
                              base_seed=seed, feature_config=config)
        mean, std = summarize_repeats(reports)
        lines = ["repeat,seed,mean,std"]
        for i, rep in enumerate(reports, start=1):
            lines.append(f"{i},{rep.seed},{rep.mean!r},{rep.std!r}")
        lines.append(f"overall,,{mean!r},{std!r}")
        text = "\n".join(lines) + "\n"
        print(
            f"{args.repeats} runs of {args.folds}-fold CV ({args.model}): "
            f"mean accuracy {mean:.2f}% (std {std:.2f})"
        )
    unconverged = sum(r.unconverged for r in reports)
    if unconverged:
        print(
            f"warning: {unconverged} of {args.folds * args.repeats} fold fits "
            "did not converge; their counts are included",
            file=sys.stderr,
        )
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    _require(args, "data")
    _check(args, args.folds >= 2, "--folds must be >= 2")
    _check(args, _positive_finite(args.base_w2), "--base-w2 must be positive and finite")
    grid = _parse_float_list(args, "grid", args.grid)
    _check(args, all(1.0 <= g < math.inf for g in grid),
           "--grid ratios must all be finite and >= 1")
    tol = 1e-3 if args.tol is None else args.tol
    _check(args, _positive_finite(tol), "--tol must be positive and finite")
    _check(args, args.max_passes >= 1, "--max-passes must be >= 1")
    _check(args, args.cache_mb > 0, "--cache-mb must be positive")
    kernel = _kernel_spec(args)
    data = load_csv(args.data)
    report = penalty_sweep(
        data,
        kernel=kernel,
        base_w2=args.base_w2,
        gamma_grid=grid,
        v=args.folds,
        seed=seed,
        tol=tol,
        max_passes=args.max_passes,
        feature_config=_feature_config(args),
        cache_mb=args.cache_mb,
    )
    stalled = {r.gamma: r.unconverged for r in report.rows if r.unconverged}
    if stalled:
        detail = ", ".join(f"ratio {g!r}: {k}" for g, k in stalled.items())
        print(
            f"warning: {sum(stalled.values())} fold fits hit --max-passes "
            f"without converging ({detail}); their counts are pooled",
            file=sys.stderr,
        )
    sys.stdout.write(sweep_text(report))
    print(f"chosen gamma: {choose_ratio(report)!r}")
    if args.out:
        atomic_write_text(args.out, sweep_tsv(report))
        print(f"wrote {args.out}")
    return 0


def cmd_intervals(args) -> int:
    _require(args, "o2")
    _check(args, bool(args.model_file) != bool(args.data),
           "exactly one of --model-file / --data is required")
    _check(args, 0.0 < args.hc_min < args.hc_max <= 100.0,
           "--hc-min/--hc-max must satisfy 0 < min < max <= 100")
    levels = _parse_float_list(args, "o2", args.o2)
    for o2 in levels:
        # false for nan and +-inf too
        _check(args, o2 >= 0.0 and o2 + args.hc_max <= 100.0,
               f"--o2: level {o2:g} must be finite and in [0, {100.0 - args.hc_max:g}] "
               "(o2 + --hc-max <= 100)")
    if args.model_file:
        model = load_model(args.model_file)
        if not isinstance(model, LogisticModel):
            raise GasgateError("interval queries require a logistic model")
    else:
        learner = _lr_learner(args)
        data = load_csv(args.data)
        config = _feature_config(args)
        params = fit_normalization(data, config)
        model = learner.fit(featurize(params, data), data.exploded,
                            normalization=params)
    results = [
        explosion_interval(model, o2, hc_range=(args.hc_min, args.hc_max))
        for o2 in levels
    ]
    for iv in results:
        if iv.present:
            print(
                f"o2={iv.o2:g}: explosive hc in [{iv.lower:.4f}, {iv.upper:.4f}] "
                f"(width {iv.width:.4f})"
            )
        else:
            print(f"o2={iv.o2:g}: no explosive interval")
    if args.out:
        atomic_write_text(args.out, intervals_csv(results))
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(parser, args, argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except GasgateError as exc:
        print(f"gasgate: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gasgate: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
