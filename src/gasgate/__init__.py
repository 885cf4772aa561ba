"""Explosion-risk prediction for oil-gas mixtures.

Measurements of hydrocarbon, oxygen, CO and CO2 concentrations feed two
from-scratch classifiers — a class-weighted soft-margin SVM trained by
sequential minimal optimization and a Newton-fitted logistic regression —
plus the tooling around them: synthetic corpus generation against a
closed-form explosive-region oracle, stratified cross-validation with
type-I/type-II error decomposition, a penalty-ratio sweep for
safety-weighted training, and inversion of the logistic probability
surface into explosive HC concentration intervals at fixed oxygen levels.
The package binds only ``__version__``; import each name from its module.
"""

__version__ = "0.1.0"
