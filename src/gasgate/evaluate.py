"""Cross-validation, error-type decomposition, and the penalty-ratio sweep.

Terminology used throughout: the positive class is "explosion".  A type-I
error is a missed explosion (predicted safe, actually explosive) — the
safety-critical direction; a type-II error is a false alarm.  The sweep
scales the positive-class slack penalty by a ratio gamma >= 1 to push
errors from type I toward type II.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import Dataset, FeatureConfig, featurize, fit_normalization
from .errors import NonFiniteScoreError, SingleClassError, TooFewSamplesError
from .kernels import KernelRows, KernelSpec
from .logistic import fit_logistic
from .svm import DEFAULT_CACHE_MB, PenaltyConfig, fit_svm, stays_optimal

DEFAULT_FOLDS = 5
DEFAULT_REPEATS = 10
DEFAULT_GAMMA_GRID = tuple(float(5 * k) for k in range(1, 13))


@dataclass(frozen=True)
class ConfusionCounts:
    """Outcome tallies with explosion as the positive class."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, name, int(value))

    @classmethod
    def from_outcomes(cls, actual, predicted) -> "ConfusionCounts":
        """Tally boolean explosion outcomes against boolean predictions."""
        actual = np.asarray(actual, dtype=bool)
        predicted = np.asarray(predicted, dtype=bool)
        if actual.shape != predicted.shape:
            raise ValueError("actual and predicted shapes differ")
        return cls(
            tp=int((actual & predicted).sum()),
            fp=int((~actual & predicted).sum()),
            tn=int((~actual & ~predicted).sum()),
            fn=int((actual & ~predicted).sum()),
        )

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp,
            self.fp + other.fp,
            self.tn + other.tn,
            self.fn + other.fn,
        )

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        """Fraction correct, in [0, 1]."""
        return (self.tp + self.tn) / self.n

    @property
    def type1_rate(self) -> float:
        """Missed explosions per evaluated sample."""
        return self.fn / self.n

    @property
    def type2_rate(self) -> float:
        """False alarms per evaluated sample."""
        return self.fp / self.n

    @property
    def whole_error_rate(self) -> float:
        return (self.fn + self.fp) / self.n


@dataclass(frozen=True)
class CvReport:
    """Per-fold confusion counts for one v-fold run plus summary accuracy.

    ``unconverged`` counts the fold fits that did not converge; their counts
    are included all the same.
    """

    fold_counts: tuple[ConfusionCounts, ...]
    seed: int = 0
    unconverged: int = 0

    def __post_init__(self):
        object.__setattr__(self, "fold_counts", tuple(self.fold_counts))
        if not self.fold_counts:
            raise ValueError("a CV report needs at least one fold")

    @property
    def v(self) -> int:
        return len(self.fold_counts)

    @property
    def fold_accuracies(self) -> tuple[float, ...]:
        """Held-out accuracy per fold, in percent."""
        return tuple(100.0 * c.accuracy for c in self.fold_counts)

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def std(self) -> float:
        """Sample standard deviation (divisor v - 1) of fold accuracies."""
        if self.v < 2:
            return 0.0
        return float(np.std(self.fold_accuracies, ddof=1))

    @cached_property
    def pooled(self) -> ConfusionCounts:
        """The folds' counts summed, once per report."""
        return sum(self.fold_counts, ConfusionCounts())


@dataclass(frozen=True)
class SvmLearner:
    """Fold-level SVM recipe: hyperparameters minus any fitted state.

    Each field is passed to ``fit_svm`` as the keyword of its name, so a
    field that is no such keyword fails with ``TypeError`` on the first fit.
    """

    kernel: KernelSpec = KernelSpec()
    penalties: PenaltyConfig = PenaltyConfig()
    tol: float = 1e-3
    max_passes: int = 1000
    seed: int = 0
    cache_mb: float = DEFAULT_CACHE_MB

    def fit(self, features, exploded, normalization=None, **warm):
        """``fit_svm`` with this recipe; ``warm`` passes a warm start (``start``,
        the model a refit refines) and a shared kernel-row ``cache`` on to it."""
        labels = np.where(np.asarray(exploded, dtype=bool), 1.0, -1.0)
        return fit_svm(features, labels, normalization=normalization, **vars(self), **warm)


@dataclass(frozen=True)
class LogisticLearner:
    """Fold-level logistic-regression recipe; each field is passed to
    ``fit_logistic`` as the keyword of its name, as ``SvmLearner``'s are."""

    ridge: float = 1e-6
    tol: float = 1e-8
    max_iter: int = 200

    def fit(self, features, exploded, normalization=None, **warm):
        """``fit_logistic`` with this recipe; ``warm`` passes a warm start
        (``start``, the model a refit refines) on to it."""
        labels = np.asarray(exploded, dtype=bool).astype(float)
        return fit_logistic(features, labels, normalization=normalization, **vars(self), **warm)


def stratified_kfold_indices(exploded, v: int, seed: int) -> list[np.ndarray]:
    """Fold assignment preserving the class balance of ``exploded``.

    Each class is shuffled and dealt round-robin, continuing the deal across
    classes so overall fold sizes still differ by at most 1.  Any class with
    at least two members lands in consecutive slots and so spans at least
    two folds, which keeps every training portion two-class.
    """
    exploded = np.asarray(exploded, dtype=bool)
    n = exploded.shape[0]
    if v < 2:
        raise ValueError(f"need at least 2 folds, got {v}")
    if v > n:
        raise TooFewSamplesError(f"{v} folds exceed {n} samples")
    if exploded.all() or (~exploded).all():
        raise SingleClassError("dataset contains a single class")
    rng = np.random.default_rng(seed)
    classes = [np.flatnonzero(exploded == value) for value in (True, False)]
    if min(len(members) for members in classes) == 1:
        raise SingleClassError(
            "a class with one sample cannot be spread over folds; "
            "its only training portion would be single-class"
        )
    # the sample dealt k-th, exploded class first, goes to fold k mod v
    order = np.concatenate([rng.permutation(members) for members in classes])
    fold_of = np.empty(n, dtype=np.intp)
    fold_of[order] = np.arange(n) % v
    return [np.flatnonzero(fold_of == k) for k in range(v)]


def make_fold(data: Dataset, train_idx, test_idx,
              feature_config: FeatureConfig = FeatureConfig()):
    """One fold's ``(normalization, X, exploded, X_test, test_exploded, test_idx)``.

    Normalization is fitted here from the training rows only, so held-out
    values can never leak into the feature scaling.
    """
    train = data.subset(train_idx)
    test = data.subset(test_idx)
    params = fit_normalization(train, feature_config)
    return (params, featurize(params, train), train.exploded,
            featurize(params, test), test.exploded, test_idx)


def fit_fold(fold, learner, **warm):
    """Fit ``learner`` on a made fold and score its held-out rows: ``(model,
    counts)``.  ``warm`` holds the learner's warm-start keywords, if any.
    A held-out row whose score is not finite is named by its row in the data."""
    params, X, exploded, X_test, test_exploded, test_idx = fold
    model = learner.fit(X, exploded, normalization=params, **warm)
    try:
        predicted = model.predict(X_test) == 1
    except NonFiniteScoreError as exc:
        raise NonFiniteScoreError(int(test_idx[exc.row]), exc.kind) from None
    return model, ConfusionCounts.from_outcomes(test_exploded, predicted)


def _stratified_folds(data: Dataset, v: int, seed: int, feature_config: FeatureConfig):
    """Yield each made fold of the stratified split (``make_fold``).

    A ratio that is not finite is refused up front, naming its row in ``data``
    rather than its place in a fold; a single-class dataset is refused first.
    """
    folds = stratified_kfold_indices(data.exploded, v, seed)
    feature_config.check_ratio(data)
    for fold in folds:
        yield make_fold(data, np.delete(np.arange(len(data)), fold), fold, feature_config)


def cross_validate(
    data: Dataset,
    learner,
    v: int = DEFAULT_FOLDS,
    seed: int = 0,
    feature_config: FeatureConfig = FeatureConfig(),
) -> CvReport:
    """Stratified v-fold cross-validation of one learner recipe.

    A logistic fold starts Newton from the previous fold's coefficients
    (DeCoste & Wagstaff 2000 seed SVM folds the same way).  The training
    rows of two folds differ only in the two folds' held-out parts, so the
    previous optimum is close, and each fit still stops at the same
    gradient tolerance as a cold one.  SVM folds start cold.
    """
    counts = []
    unconverged = 0
    start = None
    for fold in _stratified_folds(data, v, seed, feature_config):
        model, fold_counts = fit_fold(fold, learner, start=start)
        counts.append(fold_counts)
        unconverged += not model.converged
        if isinstance(learner, LogisticLearner):
            start = model
    return CvReport(tuple(counts), seed=seed, unconverged=unconverged)


def repeated_cv(
    data: Dataset,
    learner,
    v: int = DEFAULT_FOLDS,
    repeats: int = DEFAULT_REPEATS,
    base_seed: int = 0,
    feature_config: FeatureConfig = FeatureConfig(),
) -> tuple[CvReport, ...]:
    """One CvReport per repeat, with fold seeds base_seed, base_seed+1, ..."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    return tuple(
        cross_validate(data, learner, v, base_seed + i, feature_config)
        for i in range(repeats)
    )


def summarize_repeats(reports) -> tuple[float, float]:
    """(mean, sample std) of the per-repeat mean accuracies, in percent."""
    means = [r.mean for r in reports]
    spread = float(np.std(means, ddof=1)) if len(means) > 1 else 0.0
    return float(np.mean(means)), spread


def penalty_sweep(
    data: Dataset,
    learner: SvmLearner,
    gamma_grid=DEFAULT_GAMMA_GRID,
    v: int = DEFAULT_FOLDS,
    seed: int = 0,
    feature_config: FeatureConfig = FeatureConfig(),
) -> tuple[tuple[float, CvReport], ...]:
    """Cross-validate ``learner`` at each penalty ratio in ``gamma_grid``.

    Returns one ``(gamma, report)`` pair per entry of ``gamma_grid``, in its
    order with repeats kept.  Each report is what ``cross_validate`` returns
    for the SVM recipe at that ratio: the per-fold counts in fold order, the
    fold seed, and how many of the ratio's fold fits did not converge (by
    update budget or stall; their counts are included all the same).

    At ratio gamma the negative (safe) class slack cost is w2 =
    ``learner.penalties.negative`` and the positive (explosion) cost is
    gamma * w2; ``learner.penalties.positive`` is not read.  The kernel,
    tolerance, update budget, jitter seed and cache ceiling are the
    learner's.

    The folds are those of ``cross_validate`` with the same seed.  Within a
    fold the ratios are solved as a path (Hastie et al. 2004): normalization
    and features are computed once, one kernel-row cache with the learner's
    ceiling serves every ratio, holding as many rows as the largest free set
    of the fold's fits so far calls for (``fit_svm``), and the distinct
    ratios are fitted in ascending order, each starting SMO from the
    previous ratio's model (``start``): its multipliers and gradient.
    Raising the ratio only raises the positive-class cap, so that start is
    feasible, reads no kernel row, and every fit still stops at the same
    KKT tolerance as a cold one.

    A fold's path stops at its first fit that still solves the fold at the
    grid's largest ratio (``stays_optimal``): no explosion-class multiplier
    at its cap, none that the larger cap would take out of the free set,
    and the KKT conditions met within the tolerance.  From there the SVM
    path is constant (Hastie et al. 2004), and since caps only grow along
    it, the fit solves every ratio in between as well: a refit at any of
    them would make no update and return the same support vectors,
    coefficients and bias.  So the fold's remaining ratios take that fit's
    counts, as converged fits, without a refit.  On the sweep benchmark's
    500-row corpus the default grid's folds fit 6, 7, 7, 6 and 6 ratios,
    32 fits in place of 60.
    """
    grid = [float(g) for g in gamma_grid]
    if not grid:
        raise ValueError("gamma grid is empty")
    if any(g < 1.0 for g in grid):
        raise ValueError(f"all ratios must be >= 1, got {min(grid)}")
    ratios = sorted(set(grid))
    w2 = learner.penalties.negative
    path_learners = [replace(learner, penalties=PenaltyConfig(g * w2, w2)) for g in ratios]
    top = path_learners[-1].penalties
    counts = {g: [] for g in ratios}
    unconverged = dict.fromkeys(ratios, 0)
    for fold in _stratified_folds(data, v, seed, feature_config):
        cache = KernelRows(learner.kernel.resolved(fold[1].shape[1]), fold[1],
                           learner.cache_mb * 2**20)
        labels = np.where(fold[2], 1.0, -1.0)
        model = None
        saturated = False
        for gamma, path_learner in zip(ratios, path_learners):
            if not saturated:
                model, fold_counts = fit_fold(fold, path_learner, cache=cache, start=model)
                unconverged[gamma] += not model.converged
                saturated = stays_optimal(model, labels, top, learner.tol)
            counts[gamma].append(fold_counts)
        # dropped before the next fold is made: a sweep holds one fold's cache
        del fold, cache, model
    reports = {g: CvReport(counts[g], seed=seed, unconverged=unconverged[g]) for g in ratios}
    return tuple((g, reports[g]) for g in grid)


def choose_ratio(sweep) -> float:
    """Smallest gamma among those minimizing pooled type-I rate, then whole
    error, over ``penalty_sweep``'s ``(gamma, report)`` pairs.

    Type-I (missed explosion) dominates the ordering because that error is
    the safety-critical one; the whole error rate breaks ties, and the
    smallest gamma wins any remaining tie.  Pair order never matters.
    """
    ranks = []
    for gamma, report in sweep:
        c = report.pooled
        ranks.append((c.type1_rate, c.whole_error_rate, gamma))
    return min(ranks)[2]


def cv_report_csv(report: CvReport) -> str:
    """CSV rows ``fold,tp,fp,tn,fn,accuracy`` plus mean/std footer rows."""
    lines = ["fold,tp,fp,tn,fn,accuracy"]
    for i, c in enumerate(report.fold_counts, start=1):
        lines.append(f"{i},{c.tp},{c.fp},{c.tn},{c.fn},{100.0 * c.accuracy!r}")
    lines.append(f"mean,,,,,{report.mean!r}")
    lines.append(f"std,,,,,{report.std!r}")
    return "\n".join(lines) + "\n"


def cv_report_text(report: CvReport) -> str:
    """Aligned-column rendering of a CvReport for terminals."""
    header = f"{'fold':>4}  {'tp':>4} {'fp':>4} {'tn':>4} {'fn':>4}  {'accuracy':>9}"
    lines = [header]
    for i, c in enumerate(report.fold_counts, start=1):
        lines.append(
            f"{i:>4}  {c.tp:>4} {c.fp:>4} {c.tn:>4} {c.fn:>4}  "
            f"{100.0 * c.accuracy:>8.2f}%"
        )
    lines.append(f"mean accuracy: {report.mean:.2f}%")
    lines.append(f"std (sample):  {report.std:.2f}%")
    return "\n".join(lines) + "\n"


def sweep_tsv(sweep) -> str:
    """TSV ``gamma<TAB>type1<TAB>type2<TAB>whole`` of ``penalty_sweep``'s
    pairs, rates pooled over the folds, for external plotting."""
    lines = ["gamma\ttype1\ttype2\twhole"]
    for gamma, report in sweep:
        c = report.pooled
        lines.append(f"{gamma!r}\t{c.type1_rate!r}\t{c.type2_rate!r}\t{c.whole_error_rate!r}")
    return "\n".join(lines) + "\n"


def sweep_text(sweep) -> str:
    """Aligned-column rendering of ``penalty_sweep``'s pairs, rates pooled
    over the folds; the ratio column is as wide as its longest repr, and at
    least 6."""
    sweep = tuple(sweep)
    width = max([6] + [len(repr(gamma)) for gamma, _ in sweep])
    lines = [f"{'gamma':>{width}}  {'type1':>7} {'type2':>7} {'whole':>7}"]
    for gamma, report in sweep:
        c = report.pooled
        lines.append(
            f"{gamma!r:>{width}}  {c.type1_rate:>7.2%} {c.type2_rate:>7.2%} "
            f"{c.whole_error_rate:>7.2%}"
        )
    return "\n".join(lines) + "\n"
