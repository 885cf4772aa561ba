import json

import numpy as np
import pytest

from gasgate.data import featurize, fit_normalization
from gasgate.errors import DataFormatError
from gasgate.evaluate import LogisticLearner, SvmLearner
from gasgate.kernels import KernelSpec
from gasgate.logistic import LogisticModel
from gasgate.model_io import (
    FORMAT_VERSION,
    MODEL_KINDS,
    load_model,
    model_from_obj,
    model_to_obj,
    save_model,
)
from gasgate.svm import SvmModel


@pytest.fixture(scope="module")
def fitted_pair(small_corpus):
    params = fit_normalization(small_corpus)
    X = featurize(params, small_corpus)
    svm = SvmLearner(kernel=KernelSpec("rbf", gamma=0.5)).fit(
        X, small_corpus.exploded, normalization=params
    )
    lr = LogisticLearner(ridge=0.1).fit(X, small_corpus.exploded, normalization=params)
    return svm, lr


class TestRoundTrip:
    def test_svm_arrays_bit_exact(self, fitted_pair, tmp_path):
        svm, _ = fitted_pair
        path = tmp_path / "svm.json"
        save_model(svm, path)
        back = load_model(path)
        assert isinstance(back, SvmModel)
        assert np.array_equal(back.support_vectors, svm.support_vectors)
        assert np.array_equal(back.dual_coef, svm.dual_coef)
        assert back.bias == svm.bias
        assert back.kernel == svm.kernel
        assert back.penalties == svm.penalties
        assert back.converged == svm.converged

    def test_logistic_arrays_bit_exact(self, fitted_pair, tmp_path):
        _, lr = fitted_pair
        path = tmp_path / "lr.json"
        save_model(lr, path)
        back = load_model(path)
        assert isinstance(back, LogisticModel)
        assert np.array_equal(back.beta, lr.beta)
        assert back.ridge == lr.ridge
        assert back.converged == lr.converged

    def test_normalization_restored(self, fitted_pair, tmp_path):
        svm, _ = fitted_pair
        path = tmp_path / "svm.json"
        save_model(svm, path)
        back = load_model(path)
        assert back.normalization.mins == svm.normalization.mins
        assert back.normalization.maxs == svm.normalization.maxs
        assert (
            back.normalization.feature_config.attributes
            == svm.normalization.feature_config.attributes
        )

    def test_predictions_identical_after_reload(self, fitted_pair, tmp_path, rng):
        svm, lr = fitted_pair
        probes = rng.uniform(-1.5, 1.5, size=(200, 3))
        for name, model in (("svm", svm), ("lr", lr)):
            path = tmp_path / f"{name}.json"
            save_model(model, path)
            back = load_model(path)
            if name == "svm":
                assert np.array_equal(back.decision_values(probes), model.decision_values(probes))
            else:
                assert np.array_equal(back.predict_proba(probes), model.predict_proba(probes))
            assert np.array_equal(back.predict(probes), model.predict(probes))

    def test_diagnostics_not_persisted(self, fitted_pair, tmp_path):
        svm, _ = fitted_pair
        assert svm.alpha is not None
        path = tmp_path / "svm.json"
        save_model(svm, path)
        back = load_model(path)
        assert back.alpha is None
        assert back.objective_trace is None

    def test_save_is_deterministic(self, fitted_pair, tmp_path):
        svm, _ = fitted_pair
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(svm, a)
        save_model(svm, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_normalization_round_trips_as_none(self, tmp_path):
        model = LogisticModel(np.array([0.5, -1.0, 2.0]))
        path = tmp_path / "bare.json"
        save_model(model, path)
        assert load_model(path).normalization is None


class TestFileFormat:
    def test_versioned_sorted_json(self, fitted_pair, tmp_path):
        _, lr = fitted_pair
        path = tmp_path / "lr.json"
        save_model(lr, path)
        obj = json.loads(path.read_text())
        assert obj["format_version"] == FORMAT_VERSION
        assert obj["kind"] in MODEL_KINDS
        assert list(obj) == sorted(obj)

    def test_obj_round_trip_without_files(self, fitted_pair):
        svm, _ = fitted_pair
        back = model_from_obj(model_to_obj(svm))
        assert np.array_equal(back.dual_coef, svm.dual_coef)


def svm_obj(**changes):
    """A small valid SVM model object, with top-level keys replaced."""
    obj = {
        "format_version": 1,
        "kind": "svm",
        "kernel": {"kind": "rbf", "gamma": 0.5, "coef0": 0.0, "degree": 3},
        "penalties": {"positive": 1.0, "negative": 1.0},
        "normalization": None,
        "support_vectors": [[0.0, 1.0], [1.0, 0.0]],
        "dual_coef": [0.5, -0.5],
        "bias": 0.0,
        "converged": True,
    }
    obj.update(changes)
    return obj


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(DataFormatError, match="unknown model kind"):
            model_from_obj({"kind": "forest"})

    def test_missing_field(self):
        with pytest.raises(DataFormatError, match="malformed model object"):
            model_from_obj({"kind": "logistic", "beta": [0.0, 1.0]})

    def test_unserializable_type(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            model_to_obj(object())

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="no such file"):
            load_model(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_model(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(DataFormatError, match="JSON object"):
            load_model(path)

    @pytest.mark.parametrize("section, key, value", [
        ("kernel", "gamma", float("inf")),
        ("kernel", "coef0", float("nan")),
        ("penalties", "positive", float("inf")),
        ("penalties", "negative", float("-inf")),
    ])
    def test_non_finite_parameters_rejected_on_load(self, tmp_path, section, key, value):
        obj = {
            "format_version": 1,
            "kind": "svm",
            "kernel": {"kind": "sigmoid", "gamma": 0.5, "coef0": 0.0, "degree": 3},
            "penalties": {"positive": 1.0, "negative": 1.0},
            "normalization": None,
            "support_vectors": [[0.0]],
            "dual_coef": [0.5],
            "bias": 0.0,
            "converged": True,
        }
        model_from_obj(obj)  # loads as it stands
        obj[section][key] = value
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(obj))  # Python's json writes NaN and Infinity
        with pytest.raises(DataFormatError, match="malformed model object.*finite"):
            load_model(path)

    @pytest.mark.parametrize("changes", [
        {"bias": float("nan")},
        {"dual_coef": [float("nan"), -0.5]},
        {"support_vectors": [[0.0, float("inf")], [1.0, 0.0]]},
    ], ids=["bias", "dual_coef", "support_vectors"])
    def test_non_finite_numbers_rejected_on_load(self, tmp_path, changes):
        model_from_obj(svm_obj())  # loads as it stands
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(svm_obj(**changes)))
        with pytest.raises(DataFormatError, match="malformed model object.*must be finite"):
            load_model(path)

    def test_missing_format_version(self):
        obj = svm_obj()
        del obj["format_version"]
        with pytest.raises(DataFormatError, match="malformed model object: 'format_version'"):
            model_from_obj(obj)

    @pytest.mark.parametrize("version", [99, 0, "1", 1.0, True, None])
    def test_unknown_format_version(self, version):
        with pytest.raises(DataFormatError, match=f"format_version {version!r} is not 1"):
            model_from_obj(svm_obj(format_version=version))

    def test_out_of_box_coefficients_rejected_on_load(self, tmp_path):
        obj = {
            "format_version": 1,
            "kind": "svm",
            "kernel": {"kind": "rbf", "gamma": 0.5, "coef0": 0.0, "degree": 3},
            "penalties": {"positive": 1.0, "negative": 1.0},
            "normalization": None,
            "support_vectors": [[0.0]],
            "dual_coef": [5.0],
            "bias": 0.0,
            "converged": True,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataFormatError, match="malformed model object"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["rbf", "polynomial", "sigmoid"])
    def test_kernel_without_gamma_rejected(self, kind):
        kernel = {"kind": kind, "gamma": None, "coef0": 0.0, "degree": 3}
        with pytest.raises(DataFormatError, match=f"{kind} kernel has no gamma"):
            model_from_obj(svm_obj(kernel=kernel))

    def test_linear_kernel_needs_no_gamma(self):
        kernel = {"kind": "linear", "gamma": None, "coef0": 0.0, "degree": 3}
        assert model_from_obj(svm_obj(kernel=kernel)).kernel.gamma is None

    @pytest.mark.parametrize("attributes", [["hc"], ["hc", "o2", "ratio"]])
    def test_normalization_of_another_width_rejected(self, attributes):
        def norm(names):
            return {"attributes": names, "ratio": "o2_over_hc",
                    "mins": [0.0] * len(names), "maxs": [1.0] * len(names)}

        lr = {"format_version": 1, "kind": "logistic", "beta": [0.0, 1.0, -1.0],
              "ridge": 0.0, "converged": True}
        message = f"normalization has {len(attributes)} attributes for a model of 2 features"
        for obj in (svm_obj(), lr):
            model_from_obj(dict(obj, normalization=norm(["hc", "o2"])))  # loads as it stands
            with pytest.raises(DataFormatError, match=message):
                model_from_obj(dict(obj, normalization=norm(attributes)))
