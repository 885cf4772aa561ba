"""Model persistence as JSON.

Floats are encoded in Python's shortest-round-trip decimal form, so a
save/load cycle reproduces every IEEE-754 double bit-exactly and therefore
every prediction.  Fit-time diagnostics (multipliers, gradient, objective
trace) are deliberately not persisted; a loaded model predicts identically
but carries no training history.  A model that could not score, such as an
RBF kernel without gamma, a fractional kernel degree or a normalization of
another width than the model, is refused on load.
"""

from __future__ import annotations

import json

from .data import FeatureConfig, NormalizationParams, atomic_write_text
from .errors import DataFormatError
from .kernels import KernelSpec
from .logistic import LogisticModel
from .svm import PenaltyConfig, SvmModel

FORMAT_VERSION = 1

MODEL_KINDS = ("svm", "logistic")


def _normalization_to_obj(params: NormalizationParams | None):
    if params is None:
        return None
    return {
        "attributes": list(params.feature_config.attributes),
        "ratio": params.feature_config.ratio,
        "mins": [float(v) for v in params.mins],
        "maxs": [float(v) for v in params.maxs],
    }


def _normalization_from_obj(obj) -> NormalizationParams | None:
    if obj is None:
        return None
    config = FeatureConfig(tuple(obj["attributes"]), ratio=obj["ratio"])
    return NormalizationParams(config, tuple(obj["mins"]), tuple(obj["maxs"]))


def model_to_obj(model) -> dict:
    """Plain-JSON representation of a fitted model."""
    if isinstance(model, SvmModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "svm",
            "kernel": {
                "kind": model.kernel.kind,
                "gamma": None if model.kernel.gamma is None else float(model.kernel.gamma),
                "coef0": float(model.kernel.coef0),
                "degree": int(model.kernel.degree),
            },
            "penalties": {
                "positive": float(model.penalties.positive),
                "negative": float(model.penalties.negative),
            },
            "normalization": _normalization_to_obj(model.normalization),
            "support_vectors": model.support_vectors.tolist(),
            "dual_coef": model.dual_coef.tolist(),
            "bias": float(model.bias),
            "converged": bool(model.converged),
        }
    if isinstance(model, LogisticModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "logistic",
            "beta": model.beta.tolist(),
            "normalization": _normalization_to_obj(model.normalization),
            "ridge": float(model.ridge),
            "converged": bool(model.converged),
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_from_obj(obj):
    """Rebuild a model from ``model_to_obj`` output.

    Schema errors raise ``DataFormatError``: among them a ``format_version``
    other than ``FORMAT_VERSION``, a ``converged`` that is not a JSON
    boolean, and a boolean, string or null where a number belongs
    (``_misplaced_leaf``), which is checked before any field is read.
    """
    try:
        kind = obj["kind"]
        if kind not in MODEL_KINDS:
            raise DataFormatError(f"unknown model kind {kind!r}; expected {MODEL_KINDS}")
        version = obj["format_version"]
        if type(version) is not int or version != FORMAT_VERSION:
            raise ValueError(f"format_version {version!r} is not {FORMAT_VERSION}")
        if type(obj["converged"]) is not bool:
            raise ValueError(f"converged must be true or false, got {obj['converged']!r}")
        for key, value in obj.items():
            what = _misplaced_leaf(value, (key,))
            if what:
                raise ValueError(f"{key} holds {what} where a number belongs")
        if kind == "svm":
            k = obj["kernel"]
            model = SvmModel(
                support_vectors=obj["support_vectors"],
                dual_coef=obj["dual_coef"],
                bias=obj["bias"],
                kernel=KernelSpec(
                    kind=k["kind"],
                    gamma=k["gamma"],
                    coef0=k["coef0"],
                    degree=k["degree"],
                ),
                penalties=PenaltyConfig(
                    positive=obj["penalties"]["positive"],
                    negative=obj["penalties"]["negative"],
                ),
                normalization=_normalization_from_obj(obj["normalization"]),
                converged=obj["converged"],
            )
        else:
            model = LogisticModel(
                beta=obj["beta"],
                normalization=_normalization_from_obj(obj["normalization"]),
                ridge=obj["ridge"],
                converged=obj["converged"],
            )
        return model
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed model object: {exc}") from None


#: the places in a model object whose leaves are not numbers: names, which
#: their constructors check, and ``converged``, checked on its own
_NOT_NUMBERS = {("kind",), ("kernel", "kind"), ("normalization", "attributes"),
                ("normalization", "ratio"), ("converged",)}

#: the places that may hold null: an open gamma, and no normalization
_NULLABLE = {("kernel", "gamma"), ("normalization",)}


def _misplaced_leaf(value, path) -> str | None:
    """What the JSON value at ``path`` (its keys from the top) holds where a
    number belongs, at any depth: "a boolean", "a string" or "null"; None
    if every leaf is in its place."""
    if path in _NOT_NUMBERS:
        return None
    if isinstance(value, dict):
        found = (_misplaced_leaf(v, (*path, k)) for k, v in value.items())
        return next(filter(None, found), None)
    if isinstance(value, list):
        return next(filter(None, (_misplaced_leaf(v, path) for v in value)), None)
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, str):
        return "a string"
    if value is None and path not in _NULLABLE:
        return "null"
    return None


def save_model(model, path) -> None:
    """Serialize to JSON (atomic write: temp file in place, then rename)."""
    text = json.dumps(model_to_obj(model), indent=2, sort_keys=True)
    atomic_write_text(path, text + "\n")


def load_model(path):
    """Load a model JSON; malformed input raises ``DataFormatError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise DataFormatError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise DataFormatError(f"model file {path} does not hold a JSON object")
    return model_from_obj(obj)
