"""Explosion-risk prediction for oil-gas mixtures.

Measurements of hydrocarbon, oxygen, CO and CO2 concentrations feed two
from-scratch classifiers — a class-weighted soft-margin SVM trained by
sequential minimal optimization and a Newton-fitted logistic regression —
plus the tooling around them: synthetic corpus generation against a
closed-form explosive-region oracle, stratified cross-validation with
type-I/type-II error decomposition, a penalty-ratio sweep for
safety-weighted training, and inversion of the logistic probability
surface into explosive HC concentration intervals at fixed oxygen levels.
"""

from .data import (
    DEFAULT_ATTRIBUTES,
    Dataset,
    FeatureConfig,
    GasSample,
    NormalizationParams,
    RATIO_HC_OVER_O2,
    RATIO_O2_OVER_HC,
    apply_normalization,
    featurize,
    fit_normalization,
    load_csv,
    write_csv,
)
from .errors import (
    DataFormatError,
    GasgateError,
    GenerationError,
    IntervalSolverError,
    PerfectSeparationError,
    SingleClassError,
    TooFewSamplesError,
)
from .evaluate import (
    ConfusionCounts,
    CvReport,
    DEFAULT_GAMMA_GRID,
    LogisticLearner,
    SvmLearner,
    SweepReport,
    SweepRow,
    choose_ratio,
    cross_validate,
    penalty_sweep,
    repeated_cv,
    stratified_kfold_indices,
)
from .kernels import KERNEL_KINDS, KernelRows, KernelSpec, kernel_matrix
from .logistic import (
    ExplosionInterval,
    LogisticModel,
    explosion_interval,
    fit_logistic,
    sigmoid,
)
from .model_io import load_model, save_model
from .svm import PenaltyConfig, SvmModel, fit_svm
from .synth import OracleRegion, default_region, generate

__version__ = "0.1.0"

__all__ = [
    "ConfusionCounts",
    "CvReport",
    "DEFAULT_ATTRIBUTES",
    "DEFAULT_GAMMA_GRID",
    "DataFormatError",
    "Dataset",
    "ExplosionInterval",
    "FeatureConfig",
    "GasSample",
    "GasgateError",
    "GenerationError",
    "IntervalSolverError",
    "KERNEL_KINDS",
    "KernelRows",
    "KernelSpec",
    "LogisticLearner",
    "LogisticModel",
    "NormalizationParams",
    "OracleRegion",
    "PenaltyConfig",
    "PerfectSeparationError",
    "RATIO_HC_OVER_O2",
    "RATIO_O2_OVER_HC",
    "SingleClassError",
    "SvmLearner",
    "SvmModel",
    "SweepReport",
    "SweepRow",
    "TooFewSamplesError",
    "apply_normalization",
    "choose_ratio",
    "cross_validate",
    "default_region",
    "explosion_interval",
    "featurize",
    "fit_logistic",
    "fit_normalization",
    "fit_svm",
    "generate",
    "kernel_matrix",
    "load_csv",
    "load_model",
    "penalty_sweep",
    "repeated_cv",
    "save_model",
    "sigmoid",
    "stratified_kfold_indices",
    "write_csv",
]
