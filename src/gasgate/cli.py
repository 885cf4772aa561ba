"""Command-line front end: generate, train, predict, cross-validate, sweep, intervals.

Exit codes form a stable scripting contract: 0 success, 1 usage error
(bad flags or config), 2 runtime/data error (missing files, malformed
rows, solver failures).  Every command is deterministic given identical
flags; the env var ``GASGATE_SEED`` supplies the seed when ``--seed`` is
absent.  A flag's argparse ``type`` checks its range at parse time, whether
or not the chosen ``--model`` reads it.  A ``--config`` JSON file may
supply any flag by its long name (dashes or underscores).  Each value is
read as ``--name=value`` placed before the command line's own flags, so
argparse checks it as it checks a typed flag and an explicit flag
overrides it.  Library warnings print as one ``warning:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .data import (
    FeatureConfig,
    RATIO_HC_OVER_O2,
    RATIO_O2_OVER_HC,
    check_output_path,
    csv_chunks,
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
from .svm import PenaltyConfig
from .synth import default_region, generate

SEED_ENV = "GASGATE_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def ranged(kind, rule: str, ok):
    """argparse ``type``: read ``kind`` (int or float), then require
    ``ok(value)``, else refuse with "must be <rule>"."""
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value
    convert.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return convert


def at_least(low: int):
    return ranged(int, f">= {low}", lambda v: v >= low)


def listed(item):
    """argparse ``type``: a non-empty comma list, each entry read by ``item``."""
    def convert(text):
        values = [item(t) for t in text.split(",") if t.strip()]
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values
    convert.__name__ = "comma list"
    return convert


# flag types by rule; scripts/paper_studies.py reads its flags with them too
SEED = at_least(0)
FINITE = ranged(float, "finite", math.isfinite)
# comparisons with nan are false, so these refuse it
POSITIVE = ranged(float, "positive", lambda v: v > 0.0)
POSITIVE_FINITE = ranged(float, "positive and finite", lambda v: 0.0 < v < math.inf)
NON_NEGATIVE_FINITE = ranged(float, "finite and >= 0", lambda v: 0.0 <= v < math.inf)
NOISE = ranged(float, "in [0, 0.5)", lambda v: 0.0 <= v < 0.5)
RATIOS = listed(ranged(float, "finite and >= 1", lambda v: 1.0 <= v < math.inf))


# subcommand names and help; the config reader finds its keys by these names
COMMANDS = {
    "gen": "generate a synthetic labeled corpus",
    "train": "fit a model on a full CSV and save JSON",
    "predict": "apply a saved model to a CSV",
    "cv": "stratified v-fold cross-validation",
    "sweep": "penalty-ratio sweep of the class-weighted SVM",
    "intervals": "explosive HC intervals at fixed oxygen levels",
}


def build_parser() -> _Parser:
    # allow_abbrev=False: a prefix of a flag is not that flag, so adding a
    # flag later never changes what an existing script's command line means
    parser = _Parser(
        prog="gasgate",
        description="Explosion-risk prediction from gas-concentration measurements.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func):
        p = sub.add_parser(name, allow_abbrev=False, help=COMMANDS[name])
        p.add_argument("--config", help="JSON file supplying flags by long name")
        p.add_argument("--seed", type=SEED, default=None,
                       help=f"RNG seed (default: ${SEED_ENV} or 0)")
        p.set_defaults(func=func, _sub=p)
        return p

    def add_features(p):
        p.add_argument("--features", default="hc,o2,ratio",
                       help="comma list of model attributes (default hc,o2,ratio)")
        p.add_argument("--ratio", default=RATIO_O2_OVER_HC,
                       choices=[RATIO_O2_OVER_HC, RATIO_HC_OVER_O2],
                       help="orientation of the ratio attribute")

    # solver defaults are those of the recipe classes the flags fill in
    def add_svm_flags(p):
        p.add_argument("--kernel", default=KernelSpec.kind, choices=list(KERNEL_KINDS))
        p.add_argument("--gamma", type=POSITIVE_FINITE, default=None,
                       help="kernel width (default 1/n_features)")
        p.add_argument("--coef0", type=FINITE, default=KernelSpec.coef0)
        p.add_argument("--degree", type=at_least(1), default=KernelSpec.degree)
        p.add_argument("--max-passes", type=at_least(1), default=SvmLearner.max_passes)
        p.add_argument("--cache-mb", type=POSITIVE, default=SvmLearner.cache_mb,
                       help="most memory for cached kernel rows, in MiB; the cache "
                            "holds what SMO reads again, up to this (default "
                            "%(default)g; inf for no ceiling)")

    def add_penalty_flags(p):
        # not on sweep, whose penalties are ratio x --base-w2
        p.add_argument("--penalty-positive", type=POSITIVE_FINITE,
                       default=PenaltyConfig.positive, help="slack cost for explosive samples")
        p.add_argument("--penalty-negative", type=POSITIVE_FINITE,
                       default=PenaltyConfig.negative, help="slack cost for safe samples")

    def add_lr_flags(p):
        p.add_argument("--ridge", type=NON_NEGATIVE_FINITE, default=LogisticLearner.ridge)
        p.add_argument("--max-iter", type=at_least(1), default=LogisticLearner.max_iter)

    def add_tol(p, help=None):
        # unset, it is the tol of the model's recipe (_svm_learner, _lr_learner)
        p.add_argument("--tol", type=POSITIVE_FINITE, help=help)

    p = command("gen", cmd_gen)
    p.add_argument("--n", type=at_least(10), default=500, help="number of rows (>= 10)")
    p.add_argument("--noise", type=NOISE, default=0.0,
                   help="label-flip probability in [0, 0.5)")
    p.add_argument("--positive-fraction", default=0.78,
                   type=ranged(float, "in (0, 1)", lambda v: 0.0 < v < 1.0))
    p.add_argument("--out", help="output CSV path")

    p = command("train", cmd_train)
    add_features(p)
    add_svm_flags(p)
    add_penalty_flags(p)
    add_lr_flags(p)
    p.add_argument("--model", choices=["svm", "lr"])
    p.add_argument("--data", help="input CSV")
    p.add_argument("--out", help="output model JSON path")
    add_tol(p, help="solver tolerance (default: svm 1e-3, lr 1e-8)")

    p = command("predict", cmd_predict)
    p.add_argument("--model-file", help="model JSON from train")
    p.add_argument("--data", help="input CSV")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--scores", action="store_true",
                   help="append the raw decision score / linear score column")

    p = command("cv", cmd_cv)
    add_features(p)
    add_svm_flags(p)
    add_penalty_flags(p)
    add_lr_flags(p)
    p.add_argument("--model", choices=["svm", "lr"])
    p.add_argument("--data", help="input CSV")
    p.add_argument("--folds", type=at_least(2), default=5)
    p.add_argument("--repeats", type=at_least(1), default=1,
                   help="number of repeated runs (seeds seed, seed+1, ...)")
    add_tol(p)
    p.add_argument("--out", help="report CSV path")

    p = command("sweep", cmd_sweep)
    add_features(p)
    add_svm_flags(p)
    p.add_argument("--data", help="input CSV")
    p.add_argument("--folds", type=at_least(2), default=5)
    p.add_argument("--grid", type=RATIOS,
                   default=",".join(str(int(g)) for g in DEFAULT_GAMMA_GRID),
                   help="comma list of penalty ratios (all >= 1)")
    p.add_argument("--base-w2", type=POSITIVE_FINITE, default=1.0,
                   help="negative-class slack cost; positive cost is ratio times this")
    add_tol(p)
    p.add_argument("--out", help="report TSV path")

    p = command("intervals", cmd_intervals)
    add_features(p)
    add_lr_flags(p)
    p.add_argument("--model-file", help="saved logistic model JSON")
    p.add_argument("--data", help="CSV to fit a logistic model on")
    p.add_argument("--o2", type=listed(float),
                   help="comma list of oxygen levels, e.g. 15,16,18,20")
    p.add_argument("--hc-min", type=float, default=0.1)
    p.add_argument("--hc-max", type=float, default=5.0)
    add_tol(p)
    p.add_argument("--out", help="output CSV path")

    return parser


def _config_tokens(parser, args) -> list[str]:
    """The ``--config`` file of ``args`` as ``--name=value`` tokens.

    Keys are long flag names (dashes or underscores).  A key no subcommand
    takes is a usage error; a key only other subcommands take is skipped, as
    is ``config``.  JSON ``true`` passes a switch and ``false`` leaves it
    unset; a string or number is passed as the flag's text.
    """
    path = args.config
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.exit(1, f"gasgate: error: cannot read config {path}: {exc}\n")
    if not isinstance(obj, dict):
        parser.exit(1, f"gasgate: error: config {path} must hold a JSON object\n")
    known = set().union(*(vars(parser.parse_args([name])) for name in COMMANDS))
    known -= {"command", "func", "_sub"}  # argparse's bookkeeping, not flags
    tokens = []
    for key, value in obj.items():
        dest = key.replace("-", "_")
        if dest not in known:
            parser.exit(1, f"gasgate: error: unknown config key {key!r}\n")
        if dest == "config" or dest not in vars(args) or value is False:
            continue
        flag = "--" + dest.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif isinstance(value, (str, int, float)):
            tokens.append(f"{flag}={value}")
        else:
            parser.exit(1, f"gasgate: error: config key {key!r}: bad value {value!r}\n")
    return tokens


def _resolve_seed(args) -> int:
    """``--seed`` (flag or config), else ``$GASGATE_SEED``, else 0; never negative."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is None:
        return 0
    try:
        return SEED(env)
    except ValueError:
        args._sub.error(f"${SEED_ENV} must be an integer, got {env!r}")
    except argparse.ArgumentTypeError as exc:
        args._sub.error(f"${SEED_ENV} {exc}")


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) in (None, ""):
            args._sub.error(f"--{name} is required (flag or config)")


def _check(args, condition: bool, message: str):
    if not condition:
        args._sub.error(message)


def _feature_config(args) -> FeatureConfig:
    names = tuple(t.strip() for t in args.features.split(",") if t.strip())
    try:
        return FeatureConfig(names, ratio=args.ratio)
    except ValueError as exc:
        args._sub.error(str(exc))


def _learner(args, seed):
    """The ``--model`` learner; every flag it reads was checked by its type."""
    if args.model == "lr":
        return _lr_learner(args)
    return _svm_learner(args, seed, args.penalty_positive, args.penalty_negative)


def _svm_learner(args, seed, positive, negative) -> SvmLearner:
    """The SVM recipe of the kernel, tolerance, budget and cache flags."""
    return SvmLearner(
        kernel=KernelSpec(kind=args.kernel, gamma=args.gamma, coef0=args.coef0,
                          degree=args.degree),
        penalties=PenaltyConfig(positive=positive, negative=negative),
        tol=SvmLearner.tol if args.tol is None else args.tol,
        max_passes=args.max_passes,
        seed=seed,
        cache_mb=args.cache_mb,
    )


def _lr_learner(args) -> LogisticLearner:
    tol = LogisticLearner.tol if args.tol is None else args.tol
    return LogisticLearner(ridge=args.ridge, tol=tol, max_iter=args.max_iter)


def _load_scoring_model(path):
    """A saved model that can featurize raw rows: one with normalization
    parameters."""
    model = load_model(path)
    if model.normalization is None:
        raise GasgateError(
            "model carries no normalization parameters; cannot featurize raw rows"
        )
    return model


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    _require(args, "out")
    check_output_path(args.out)
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
    learner = _learner(args, seed)
    config = _feature_config(args)
    check_output_path(args.out)
    data = load_csv(args.data)
    params = fit_normalization(data, config)
    features = featurize(params, data)
    model = learner.fit(features, data.exploded, normalization=params)
    save_model(model, args.out)
    counts = ConfusionCounts.from_outcomes(data.exploded, model.predict(features) == 1)
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
    check_output_path(args.out)
    model = _load_scoring_model(args.model_file)
    data = load_csv(args.data)
    features = featurize(model.normalization, data)
    is_lr = isinstance(model, LogisticModel)
    header = "row,prediction" + (",probability" if is_lr else "")
    if args.scores:
        header += ",score"
    # Score once and derive labels (and probabilities) from the scores, as
    # the models' own predict methods do.
    if is_lr:
        scores = model.scores(features)
        probabilities = sigmoid(scores)
        columns = [np.where(probabilities >= 0.5, 1, 0), probabilities]
    else:
        scores = model.decision_values(features)
        columns = [np.where(scores >= 0, 1, -1)]
    if args.scores:
        columns.append(scores)
    chunks = csv_chunks(header, [np.arange(1, len(data) + 1), *columns])
    if args.out:
        atomic_write_text(args.out, chunks)
        print(f"wrote {args.out}: {len(data)} predictions")
    else:
        sys.stdout.writelines(chunks)
    return 0


def cmd_cv(args) -> int:
    seed = _resolve_seed(args)
    _require(args, "model", "data")
    learner = _learner(args, seed)
    config = _feature_config(args)
    check_output_path(args.out)
    data = load_csv(args.data)
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
    top = max(args.grid)
    _check(args, top * args.base_w2 < math.inf,
           f"--grid ratio {top:g} times --base-w2 {args.base_w2:g} is not a finite penalty")
    config = _feature_config(args)
    check_output_path(args.out)
    data = load_csv(args.data)
    # the sweep reads the negative penalty alone and scales it by each ratio
    learner = _svm_learner(args, seed, args.base_w2, args.base_w2)
    sweep = penalty_sweep(data, learner, gamma_grid=args.grid, v=args.folds, seed=seed,
                          feature_config=config)
    stalled = {g: r.unconverged for g, r in sweep if r.unconverged}
    if stalled:
        detail = ", ".join(f"ratio {g!r}: {k}" for g, k in stalled.items())
        print(
            f"warning: {sum(stalled.values())} of {len(set(args.grid)) * args.folds} "
            f"fold fits did not converge ({detail}); their counts are pooled",
            file=sys.stderr,
        )
    sys.stdout.write(sweep_text(sweep))
    print(f"chosen gamma: {choose_ratio(sweep)!r}")
    if args.out:
        atomic_write_text(args.out, sweep_tsv(sweep))
        print(f"wrote {args.out}")
    return 0


def cmd_intervals(args) -> int:
    _require(args, "o2")
    _check(args, bool(args.model_file) != bool(args.data),
           "exactly one of --model-file / --data is required")
    _check(args, 0.0 < args.hc_min < args.hc_max <= 100.0,
           "--hc-min/--hc-max must satisfy 0 < min < max <= 100")
    for o2 in args.o2:
        # false for nan and +-inf too
        _check(args, o2 >= 0.0 and o2 + args.hc_max <= 100.0,
               f"--o2: level {o2:g} must be finite and in [0, {100.0 - args.hc_max:g}] "
               "(o2 + --hc-max <= 100)")
    config = _feature_config(args)
    check_output_path(args.out)
    if args.model_file:
        model = _load_scoring_model(args.model_file)
        if not isinstance(model, LogisticModel):
            raise GasgateError("interval queries require a logistic model")
    else:
        data = load_csv(args.data)
        params = fit_normalization(data, config)
        model = _lr_learner(args).fit(featurize(params, data), data.exploded,
                                      normalization=params)
    if not model.converged:
        print("warning: solver did not converge; intervals come from its last iterate",
              file=sys.stderr)
    results = [
        explosion_interval(model, o2, hc_range=(args.hc_min, args.hc_max))
        for o2 in args.o2
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


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A library warning as one ``warning: <message>`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        with warnings.catch_warnings():  # restores showwarning on return
            warnings.showwarning = _show_warning
            args = parser.parse_args(argv)
            if args.config:
                # argv[0] is the command; the last occurrence of a flag wins,
                # so defaults < config file < explicit flags
                tokens = _config_tokens(parser, args)
                args = parser.parse_args([argv[0], *tokens, *argv[1:]])
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
