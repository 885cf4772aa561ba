import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gasgate import cli, evaluate
from gasgate.cli import main
from gasgate.data import BLOCK_ROWS, Dataset, GasSample, featurize, load_csv, write_csv
from gasgate.evaluate import LogisticLearner, SvmLearner, choose_ratio, penalty_sweep, sweep_text
from gasgate.kernels import KernelSpec
from gasgate.logistic import LogisticModel, sigmoid
from gasgate.model_io import load_model, save_model
from gasgate.svm import PenaltyConfig, SvmModel
from gasgate.synth import default_region, generate

from .support import traced_peak_mb

pytestmark = pytest.mark.filterwarnings("ignore:separation suspected")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_csv(workdir):
    path = workdir / "corpus.csv"
    assert main(["gen", "--n", "120", "--seed", "3", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def noisy_csv(workdir):
    """Noisy enough that one pass of SMO (``--max-passes 1``) leaves the RBF
    fits on it unconverged, while the default budget converges them."""
    path = workdir / "noisy.csv"
    assert main(["gen", "--n", "120", "--seed", "0", "--noise", "0.2", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def span_csv(workdir, span_corpus):
    path = workdir / "span.csv"
    write_csv(span_corpus, path)
    return path


@pytest.fixture(scope="module")
def lr_model(workdir, corpus_csv):
    path = workdir / "lr.json"
    rc = main(
        ["train", "--model", "lr", "--ridge", "0.1",
         "--data", str(corpus_csv), "--out", str(path)]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def svm_model(workdir, corpus_csv):
    path = workdir / "svm.json"
    rc = main(
        ["train", "--model", "svm", "--gamma", "0.5",
         "--data", str(corpus_csv), "--out", str(path)]
    )
    assert rc == 0
    return path


class TestParsing:
    def test_no_command_is_a_usage_error(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["transmogrify"]) == 1

    def test_unknown_flag(self):
        assert main(["gen", "--frobnicate", "1"]) == 1

    def test_abbreviated_flag_rejected(self, workdir):
        # a prefix of a flag is not that flag, so adding a flag never
        # changes what an existing command line means
        out = workdir / "abbrev.csv"
        assert main(["gen", "--se", "3", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["gen", "train", "predict", "cv", "sweep", "intervals"]
    )
    def test_help_exits_zero(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: gasgate {command} ")


class TestSolverDefaults:
    """A command line that sets no solver flag builds the default recipes."""

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_train_and_cv(self, command):
        parser = cli.build_parser()
        svm_args = parser.parse_args([command, "--model", "svm"])
        assert cli._learner(svm_args, 0) == SvmLearner()
        lr_args = parser.parse_args([command, "--model", "lr"])
        assert cli._learner(lr_args, 0) == LogisticLearner()

    def test_sweep_and_intervals(self):
        parser = cli.build_parser()
        sweep_args = parser.parse_args(["sweep"])
        assert (cli._svm_learner(sweep_args, 0, 1.0, 1.0)
                == SvmLearner(penalties=PenaltyConfig(1.0, 1.0)))
        assert cli._lr_learner(parser.parse_args(["intervals"])) == LogisticLearner()


class TestGen:
    def test_writes_corpus_with_exact_class_split(self, corpus_csv, capsys):
        data = load_csv(corpus_csv)
        assert len(data) == 120
        assert data.class_counts() == (94, 26)

    def test_report_line(self, workdir, capsys):
        out = workdir / "report.csv"
        assert main(["gen", "--n", "50", "--seed", "1", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"wrote {out}: 50 rows, 39 explosive / 11 safe (78.0% positive)" in stdout

    def test_same_seed_same_bytes(self, workdir):
        a, b = workdir / "a.csv", workdir / "b.csv"
        assert main(["gen", "--n", "40", "--seed", "7", "--out", str(a)]) == 0
        assert main(["gen", "--n", "40", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_flag(self):
        assert main(["gen", "--n", "40"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n", "5"],
            ["--noise", "0.7"],
            ["--positive-fraction", "1.5"],
        ],
    )
    def test_rejected_parameters(self, workdir, flags):
        out = str(workdir / "never.csv")
        assert main(["gen", *flags, "--out", out]) == 1

    @pytest.mark.parametrize("fraction, empty", [("0.01", "explosive"), ("0.999", "safe")])
    def test_one_class_corpus_refused(self, workdir, capsys, fraction, empty):
        out = workdir / "never.csv"
        assert main(["gen", "--n", "10", "--positive-fraction", fraction, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"gasgate: error: 10 rows at positive fraction {fraction} leave no {empty} row\n")
        assert not out.exists()


class TestTrain:
    def test_lr_training_summary(self, lr_model, corpus_csv, workdir, capsys):
        again = workdir / "lr2.json"
        rc = main(
            ["train", "--model", "lr", "--ridge", "0.1",
             "--data", str(corpus_csv), "--out", str(again)]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "trained lr on 120 samples" in stdout
        assert isinstance(load_model(again), LogisticModel)

    def test_penalties_too_small_to_move_are_refused(self, corpus_csv, tmp_path, capsys):
        out = tmp_path / "tiny.json"
        rc = main(["train", "--model", "svm", "--penalty-positive", "1e-13",
                   "--penalty-negative", "1e-13", "--data", str(corpus_csv), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == ("gasgate: error: optimizer made no progress; "
                                "no support vectors found\n")
        assert captured.out == "" and not out.exists()

    def test_svm_model_is_loadable(self, svm_model):
        model = load_model(svm_model)
        assert isinstance(model, SvmModel)
        assert model.normalization is not None

    def test_missing_model_choice(self, corpus_csv, workdir):
        rc = main(["train", "--data", str(corpus_csv), "--out", str(workdir / "x.json")])
        assert rc == 1

    def test_missing_data_file(self, workdir):
        rc = main(
            ["train", "--model", "lr", "--data", str(workdir / "absent.csv"),
             "--out", str(workdir / "x.json")]
        )
        assert rc == 2

    def test_malformed_csv(self, workdir):
        bad = workdir / "bad.csv"
        bad.write_text("hc,o2,co,co2,exploded\n1.0,abc,0,0,1\n")
        rc = main(
            ["train", "--model", "lr", "--data", str(bad),
             "--out", str(workdir / "x.json")]
        )
        assert rc == 2

    def test_non_utf8_csv_names_its_line(self, workdir, capsys):
        bad = workdir / "latin.csv"
        bad.write_bytes(b"hc,o2,co,co2,exploded\n1.0,20.0,0,0,1\xff\n")
        rc = main(
            ["train", "--model", "lr", "--data", str(bad),
             "--out", str(workdir / "latin.json")]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "gasgate: error: line 2: not UTF-8 (byte 0xff)\n"
        assert not (workdir / "latin.json").exists()

    def test_unconverged_solver_warns_but_saves(self, noisy_csv, workdir, capsys):
        out = workdir / "stunted.json"
        rc = main(
            ["train", "--model", "svm", "--max-passes", "1",
             "--data", str(noisy_csv), "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "did not converge" in captured.err
        assert not load_model(out).converged

    def test_separable_data_with_zero_ridge_fails_cleanly(self, workdir, capsys):
        rows = [
            GasSample(0.5, 15.0, 0.05, 10.0, False),
            GasSample(2.0 - 1e-6, 15.5, 0.05, 10.0, False),
            GasSample(2.0 + 1e-6, 15.2, 0.05, 10.0, True),
            GasSample(3.5, 15.8, 0.05, 10.0, True),
        ]
        path = workdir / "separable.csv"
        write_csv(Dataset.from_columns(*zip(*rows)), path)
        rc = main(
            ["train", "--model", "lr", "--ridge", "0", "--features", "hc",
             "--data", str(path), "--out", str(workdir / "never.json")]
        )
        assert rc == 2
        assert "ridge" in capsys.readouterr().err


class TestPredict:
    def test_lr_output_shape(self, lr_model, corpus_csv, capsys):
        rc = main(["predict", "--model-file", str(lr_model), "--data", str(corpus_csv)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "row,prediction,probability"
        assert len(lines) == 121
        row, label, prob = lines[1].split(",")
        assert row == "1" and label in ("0", "1")
        assert 0.0 <= float(prob) <= 1.0

    @pytest.mark.parametrize("field", ["bias", "dual_coef", "support_vectors"])
    def test_non_finite_svm_model_is_refused(self, svm_model, corpus_csv, tmp_path,
                                             capsys, field):
        # such a model once labelled every row -1, "safe"
        obj = json.loads(svm_model.read_text())
        if field == "bias":
            obj["bias"] = float("nan")
        elif field == "dual_coef":
            obj["dual_coef"][0] = float("nan")
        else:
            obj["support_vectors"][0][0] = float("inf")
        model, out = tmp_path / "bad.json", tmp_path / "pred.csv"
        model.write_text(json.dumps(obj))
        rc = main(["predict", "--model-file", str(model), "--data", str(corpus_csv),
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "must be finite" in captured.err
        assert captured.out == "" and not out.exists()

    def test_svm_output_has_no_probability(self, svm_model, corpus_csv, capsys):
        rc = main(["predict", "--model-file", str(svm_model), "--data", str(corpus_csv)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "row,prediction"
        assert {line.split(",")[1] for line in lines[1:]} <= {"-1", "1"}

    def test_scores_column(self, svm_model, corpus_csv, capsys):
        rc = main(
            ["predict", "--model-file", str(svm_model), "--data", str(corpus_csv),
             "--scores"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "row,prediction,score"
        label, score = lines[1].split(",")[1:]
        assert (float(score) >= 0) == (label == "1")

    def test_out_file(self, lr_model, corpus_csv, workdir, capsys):
        out = workdir / "predictions.csv"
        rc = main(
            ["predict", "--model-file", str(lr_model), "--data", str(corpus_csv),
             "--out", str(out)]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        assert out.read_text().startswith("row,prediction,probability\n")

    def test_zero_hc_row_is_named(self, lr_model, corpus_csv, workdir, capsys):
        rows = corpus_csv.read_text().splitlines()
        fields = rows[5].split(",")
        rows[5] = ",".join(["0.0", *fields[1:]])  # data row 5
        path = workdir / "zero_hc.csv"
        path.write_text("\n".join(rows) + "\n")
        rc = main(["predict", "--model-file", str(lr_model), "--data", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "undefined ratio: hc is 0 in row 5" in captured.err

    def test_zero_coefficient_model_predicts_explosion_at_half(
        self, workdir, corpus_csv, capsys
    ):
        reference = load_model_normalization(workdir)
        path = workdir / "zero.json"
        save_model(LogisticModel(np.zeros(4), normalization=reference), path)
        rc = main(["predict", "--model-file", str(path), "--data", str(corpus_csv)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert all(line.split(",")[1] == "1" for line in lines)
        assert all(float(line.split(",")[2]) == 0.5 for line in lines)

    def test_model_without_normalization_is_rejected(self, workdir, corpus_csv, capsys):
        path = workdir / "bare.json"
        save_model(LogisticModel(np.zeros(4)), path)
        rc = main(["predict", "--model-file", str(path), "--data", str(corpus_csv)])
        assert rc == 2
        assert "normalization" in capsys.readouterr().err


def as_text(values, k):
    """Write the number at ``values[k]`` of a model object as a JSON string."""
    values[k] = str(values[k])


class TestInconsistentModelFiles:
    """A model file that loads but cannot score exits 2 with one error line
    and writes nothing."""

    @staticmethod
    def assert_refused(capsys, argv, out, message):
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("gasgate: error: ") and message in captured.err
        assert captured.out == "" and not out.exists()

    @staticmethod
    def edited(source, tmp_path, edit):
        obj = json.loads(source.read_text())
        edit(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("kind", ["rbf", "polynomial", "sigmoid"])
    def test_svm_kernel_without_gamma(self, svm_model, corpus_csv, tmp_path, capsys, kind):
        # such a model once loaded and then died scoring, with a traceback
        path = self.edited(svm_model, tmp_path,
                           lambda obj: obj["kernel"].update(kind=kind, gamma=None))
        self.assert_refused(capsys, ["predict", "--model-file", str(path),
                                     "--data", str(corpus_csv)],
                            tmp_path / "pred.csv", f"{kind} kernel has no gamma")

    @pytest.mark.parametrize("degree, message", [
        (2.5, "degree must be an integer"),
        # no boolean passes the model file's leaf rule
        (True, "kernel holds a boolean where a number belongs"),
    ], ids=["2.5", "True"])
    def test_svm_non_integer_degree(self, svm_model, corpus_csv, tmp_path, capsys,
                                    degree, message):
        # 2.5 once labelled every row "safe" with exit 0; True loaded as degree 1
        path = self.edited(svm_model, tmp_path,
                           lambda obj: obj["kernel"].update(kind="polynomial", degree=degree))
        self.assert_refused(capsys, ["predict", "--model-file", str(path),
                                     "--data", str(corpus_csv)],
                            tmp_path / "pred.csv", message)

    def test_svm_two_dimensional_dual_coef(self, svm_model, corpus_csv, tmp_path, capsys):
        # such a model once loaded and then died scoring, with a traceback
        path = self.edited(svm_model, tmp_path,
                           lambda obj: obj.update(dual_coef=[[c] for c in obj["dual_coef"]]))
        self.assert_refused(capsys, ["predict", "--model-file", str(path),
                                     "--data", str(corpus_csv)],
                            tmp_path / "pred.csv", "dual coefficients a 1-D array")

    def test_intervals_model_without_normalization(self, lr_model, tmp_path, capsys):
        # such a model once died with a traceback here, while predict refused it
        path = self.edited(lr_model, tmp_path, lambda obj: obj.update(normalization=None))
        self.assert_refused(capsys, ["intervals", "--model-file", str(path), "--o2", "16"],
                            tmp_path / "out.csv",
                            "model carries no normalization parameters; "
                            "cannot featurize raw rows")

    def test_svm_normalization_narrower_than_its_support_vectors(
            self, svm_model, corpus_csv, tmp_path, capsys):
        def drop_ratio(obj):
            norm = obj["normalization"]
            for key in ("attributes", "mins", "maxs"):
                norm[key] = norm[key][:2]
        path = self.edited(svm_model, tmp_path, drop_ratio)
        self.assert_refused(capsys, ["predict", "--model-file", str(path),
                                     "--data", str(corpus_csv)],
                            tmp_path / "pred.csv",
                            "normalization has 2 attributes for a model of 3 features")

    @pytest.mark.parametrize("which,edit,message", [
        # each once loaded, a string "false" as converged and a boolean as 1.0
        ("lr", lambda obj: obj.update(converged="false"), "converged must be true or false"),
        ("svm", lambda obj: obj.update(converged=0), "converged must be true or false"),
        ("svm", lambda obj: obj.update(bias=True), "bias holds a boolean"),
        ("svm", lambda obj: obj["dual_coef"].__setitem__(0, True), "dual_coef holds a boolean"),
        ("svm", lambda obj: obj["kernel"].update(gamma=True), "kernel holds a boolean"),
        ("svm", lambda obj: obj["support_vectors"][0].__setitem__(1, False),
         "support_vectors holds a boolean"),
        ("lr", lambda obj: obj.update(ridge=True), "ridge holds a boolean"),
        ("lr", lambda obj: obj["beta"].__setitem__(1, True), "beta holds a boolean"),
        ("lr", lambda obj: obj["normalization"]["mins"].__setitem__(0, True),
         "normalization holds a boolean"),
    ])
    def test_boolean_out_of_place(self, request, corpus_csv, tmp_path, capsys,
                                  which, edit, message):
        source = request.getfixturevalue(f"{which}_model")
        capsys.readouterr()  # a fixture made here has printed
        path = self.edited(source, tmp_path, edit)
        self.assert_refused(capsys, ["predict", "--model-file", str(path),
                                     "--data", str(corpus_csv)],
                            tmp_path / "pred.csv", f"malformed model object: {message}")

    @pytest.mark.parametrize("which,edit,message", [
        # each once loaded and scored
        ("lr", lambda obj: as_text(obj["beta"], 1), "beta holds a string"),
        ("svm", lambda obj: as_text(obj["dual_coef"], 0), "dual_coef holds a string"),
        ("svm", lambda obj: as_text(obj["support_vectors"][0], 1),
         "support_vectors holds a string"),
        ("lr", lambda obj: as_text(obj["normalization"]["mins"], 0),
         "normalization holds a string"),
        ("svm", lambda obj: as_text(obj["normalization"]["maxs"], 2),
         "normalization holds a string"),
        # each once refused with a message from Python's internals
        ("lr", lambda obj: obj.update(ridge="0.000001"), "ridge holds a string"),
        ("svm", lambda obj: obj.update(bias="0.5"), "bias holds a string"),
        ("svm", lambda obj: obj["penalties"].update(positive="10"), "penalties holds a string"),
        ("svm", lambda obj: obj["kernel"].update(gamma="0.5"), "kernel holds a string"),
        ("svm", lambda obj: obj.update(bias=None), "bias holds null"),
    ])
    def test_string_or_null_where_a_number_belongs(self, request, corpus_csv, tmp_path,
                                                   capsys, which, edit, message):
        source = request.getfixturevalue(f"{which}_model")
        capsys.readouterr()  # a fixture made here has printed
        path = self.edited(source, tmp_path, edit)
        self.assert_refused(capsys, ["predict", "--model-file", str(path),
                                     "--data", str(corpus_csv)],
                            tmp_path / "pred.csv",
                            f"malformed model object: {message} where a number belongs")

    @pytest.mark.parametrize("command", ["predict", "intervals"])
    def test_lr_normalization_wider_than_its_coefficients(
            self, lr_model, corpus_csv, tmp_path, capsys, command):
        # intervals once zipped the shorter list and printed "no explosive
        # interval" with exit 0
        path = self.edited(lr_model, tmp_path, lambda obj: obj.update(beta=obj["beta"][:3]))
        source = ["--data", str(corpus_csv)] if command == "predict" else ["--o2", "16"]
        self.assert_refused(capsys, [command, "--model-file", str(path), *source],
                            tmp_path / "out.csv",
                            "normalization has 3 attributes for a model of 2 features")


def reference_predictions(model_path, data_path, scores: bool) -> bytes:
    """The bytes ``predict`` writes, formatted here row by row."""
    model = load_model(model_path)
    features = featurize(model.normalization, load_csv(data_path))
    if isinstance(model, LogisticModel):
        raw = model.scores(features)
        prob = sigmoid(raw)
        header = "row,prediction,probability"
        rows = [[int(p >= 0.5), p] for p in prob.tolist()]
    else:
        raw = model.decision_values(features)
        header = "row,prediction"
        rows = [[1 if v >= 0 else -1] for v in raw.tolist()]
    if scores:
        header += ",score"
        rows = [[*row, v] for row, v in zip(rows, raw.tolist())]
    lines = [",".join(map(repr, [i, *row])) for i, row in enumerate(rows, start=1)]
    return "\n".join([header, *lines, ""]).encode()


class TestPredictBlocks:
    """``predict`` formats and writes one block of rows at a time."""

    @pytest.mark.parametrize(
        "n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    def test_bytes_across_block_edges(self, tmp_path, capsys, lr_model, svm_model, n):
        data = tmp_path / "rows.csv"
        write_csv(generate(default_region(), n=n, seed=n, noise=0.05), data)
        out = tmp_path / "pred.csv"
        for model in (lr_model, svm_model):
            for scores in ([], ["--scores"]):
                want = reference_predictions(model, data, bool(scores))
                argv = ["predict", "--model-file", str(model), "--data", str(data), *scores]
                assert main([*argv, "--out", str(out)]) == 0
                assert out.read_bytes() == want
                capsys.readouterr()
                assert main(argv) == 0
                assert capsys.readouterr().out.encode() == want

    def test_memory_beyond_loading_is_one_block(self, tmp_path, lr_model):
        data, out = tmp_path / "big.csv", tmp_path / "pred.csv"
        write_csv(generate(default_region(), n=100_000, seed=5, noise=0.05), data)
        argv = ["predict", "--model-file", str(lr_model), "--data", str(data),
                "--scores", "--out", str(out)]
        # loading peaks at 13 MB here; formatted whole, predict took 33 MB
        loading = traced_peak_mb(lambda: load_csv(data))
        assert traced_peak_mb(lambda: main(argv)) < loading + 3.0


def load_model_normalization(workdir):
    return load_model(workdir / "lr.json").normalization


class TestCv:
    def test_single_run_report(self, corpus_csv, workdir, capsys):
        out = workdir / "cv.csv"
        rc = main(
            ["cv", "--model", "lr", "--ridge", "0.1", "--data", str(corpus_csv),
             "--folds", "4", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        assert "mean accuracy:" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "fold,tp,fp,tn,fn,accuracy"
        assert len(lines) == 7  # 4 folds + mean + std
        assert lines[-2].startswith("mean,")

    def test_repeated_runs_report(self, corpus_csv, workdir, capsys):
        out = workdir / "cv3.csv"
        rc = main(
            ["cv", "--model", "lr", "--ridge", "0.1", "--data", str(corpus_csv),
             "--folds", "4", "--repeats", "3", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        assert "3 runs of 4-fold CV (lr)" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "repeat,seed,mean,std"
        assert [line.split(",")[0] for line in lines] == ["repeat", "1", "2", "3", "overall"]
        assert lines[2].split(",")[1] == "3"  # second repeat runs at seed + 1

    def test_same_seed_identical_bytes(self, corpus_csv, workdir):
        a, b = workdir / "cva.csv", workdir / "cvb.csv"
        base = ["cv", "--model", "lr", "--ridge", "0.1", "--data", str(corpus_csv),
                "--folds", "4", "--seed", "9"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("repeats", ["1", "2"])
    def test_unconverged_folds_warn_on_stderr_only(self, noisy_csv, capsys, repeats):
        base = ["cv", "--model", "svm", "--gamma", "0.5", "--data", str(noisy_csv),
                "--folds", "4", "--repeats", repeats]
        assert main(base) == 0
        assert capsys.readouterr().err == ""
        assert main(base + ["--max-passes", "1"]) == 0
        stunted = capsys.readouterr()
        assert stunted.err.count("\n") == 1
        assert stunted.err.startswith("warning: ")
        assert f"of {4 * int(repeats)} fold fits did not converge" in stunted.err
        assert "warning" not in stunted.out

    def test_bad_fold_count(self, corpus_csv):
        rc = main(["cv", "--model", "lr", "--data", str(corpus_csv), "--folds", "1"])
        assert rc == 1


class TestSweep:
    def test_small_grid_sweep(self, corpus_csv, workdir, capsys):
        out = workdir / "sweep.tsv"
        rc = main(
            ["sweep", "--data", str(corpus_csv), "--grid", "1,8", "--folds", "4",
             "--gamma", "0.5", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "chosen gamma:" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma\ttype1\ttype2\twhole"
        assert len(lines) == 3
        assert lines[1].split("\t")[0] == "1.0"

    def test_unconverged_fits_warn_on_stderr_only(self, noisy_csv, capsys):
        base = ["sweep", "--data", str(noisy_csv), "--grid", "1,8", "--folds", "4",
                "--gamma", "0.5", "--base-w2", "10"]
        assert main(base) == 0
        converged = capsys.readouterr()
        assert converged.err == ""
        assert main(base + ["--max-passes", "1"]) == 0
        stunted = capsys.readouterr()
        assert stunted.err.count("\n") == 1
        assert stunted.err.startswith("warning: ")
        assert "fold fits did not converge" in stunted.err
        assert "ratio 1.0: " in stunted.err
        # stdout is the report alone, exactly as rendered by the library
        learner = SvmLearner(KernelSpec("rbf", gamma=0.5), PenaltyConfig(10.0, 10.0),
                             max_passes=1)
        report = penalty_sweep(load_csv(noisy_csv), learner, gamma_grid=(1.0, 8.0), v=4)
        assert stunted.out == sweep_text(report) + f"chosen gamma: {choose_ratio(report)!r}\n"

    def test_stalled_fits_are_not_blamed_on_the_budget(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "stall.csv"
        assert main(["gen", "--n", "60", "--seed", "0", "--noise", "0.3",
                     "--out", str(corpus)]) == 0
        capsys.readouterr()
        fits = []
        fit_svm = evaluate.fit_svm

        def recording(features, labels, **kwargs):
            model = fit_svm(features, labels, **kwargs)
            budget = kwargs["max_passes"] * len(labels)
            fits.append((model.converged, len(model.objective_trace) - 1 < budget))
            return model

        monkeypatch.setattr(evaluate, "fit_svm", recording)
        assert main(["sweep", "--data", str(corpus), "--tol", "1e-12", "--base-w2", "1e6",
                     "--grid", "1,5"]) == 0
        # every fit stopped inside its update budget, when no pair made progress
        assert fits == [(False, True)] * 10
        assert capsys.readouterr().err == (
            "warning: 10 of 10 fold fits did not converge (ratio 1.0: 5, ratio 5.0: 5); "
            "their counts are pooled\n")

    def test_ratios_below_one_rejected(self, corpus_csv):
        assert main(["sweep", "--data", str(corpus_csv), "--grid", "0.5,2"]) == 1

    def test_missing_data(self):
        assert main(["sweep", "--grid", "1,8"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--grid", "1e10", "--base-w2", "1e300"],
        ["--grid", "1,2e8", "--base-w2", "1e301"],
    ])
    def test_overflowing_penalty_is_a_usage_error(self, tmp_path, capsys, flags):
        # each ratio x --base-w2 is a positive penalty; an infinite one once
        # ended in a traceback.  The rule joins two flags, so it is checked
        # after parsing and before the data file is opened.
        out = tmp_path / "sweep.tsv"
        rc = main(["sweep", "--data", "/nonexistent.csv", *flags, "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("gasgate sweep: error: --grid ratio ")
        assert "--base-w2" in captured.err and "not a finite penalty" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--penalty-positive", "--penalty-negative"])
    def test_fixed_penalty_flags_are_unknown(self, corpus_csv, capsys, flag):
        # a sweep's penalties are ratio x --base-w2
        rc = main(["sweep", "--data", str(corpus_csv), "--grid", "1,8", flag, "5"])
        assert rc == 1
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    def test_fixed_penalty_config_key_is_accepted_and_ignored(self, corpus_csv, workdir, capsys):
        # a config key valid for any subcommand is accepted
        config = workdir / "sweep_penalty.json"
        config.write_text('{"penalty-positive": 5}')
        base = ["sweep", "--data", str(corpus_csv), "--grid", "1,8", "--folds", "2",
                "--gamma", "0.5"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--config", str(config)]) == 0
        assert capsys.readouterr().out == plain


class TestMissingOutputDirectory:
    """An ``--out`` that cannot be written fails before any input is read:
    exit 2, one error line naming the path, nothing on stdout."""

    @pytest.mark.parametrize("command", ["sweep", "cv", "predict", "predict-no-data"])
    def test_error_names_the_path_asked_for(self, corpus_csv, lr_model, tmp_path, capsys,
                                            command):
        out = tmp_path / "missing" / "out.txt"
        argv = {"sweep": ["sweep", "--data", str(corpus_csv), "--folds", "3", "--grid", "1,2"],
                "cv": ["cv", "--model", "lr", "--data", str(corpus_csv), "--folds", "3"],
                "predict": ["predict", "--model-file", str(lr_model),
                            "--data", str(corpus_csv)],
                # the data file is never opened
                "predict-no-data": ["predict", "--model-file", str(lr_model),
                                    "--data", "/nonexistent.csv"]}[command]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gasgate: error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_directory_as_out_is_named(self, tmp_path, capsys):
        assert main(["gen", "--n", "40", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gasgate: error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def corpus_200(workdir):
    path = workdir / "corpus200.csv"
    assert main(["gen", "--n", "200", "--seed", "3", "--out", str(path)]) == 0
    return path


class TestFoldedZeroRatio:
    """A zero ratio denominator fails CV and the sweep naming its row in the
    file, as ``train`` does, not its place inside a fold."""

    @pytest.mark.parametrize("column", ["hc", "o2"])
    @pytest.mark.parametrize("command", [
        ["cv", "--model", "lr", "--ridge", "0.1"],
        ["sweep", "--grid", "1,8", "--gamma", "0.5"],
    ], ids=lambda c: c[0])
    def test_error_names_the_dataset_row(self, corpus_200, workdir, capsys, command, column):
        rows = corpus_200.read_text().splitlines()
        fields = rows[151].split(",")  # data row 151
        fields[0 if column == "hc" else 1] = "0.0"
        rows[151] = ",".join(fields)
        path = workdir / f"zero_{column}.csv"
        path.write_text("\n".join(rows) + "\n")
        ratio = [] if column == "hc" else ["--ratio", "hc_over_o2"]
        rc = main([*command, *ratio, "--data", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"undefined ratio: {column} is 0 in row 151" in captured.err


class TestOverflowingRatio:
    """A tiny ratio denominator that passes every row rule makes the quotient
    overflow.  Every command that featurizes the rows exits 2 with one line
    naming the row, and writes nothing: it once ended in a traceback, and
    ``predict`` scored the row from an infinite feature."""

    @pytest.mark.parametrize("comment", [False, True], ids=["plain", "comment"])
    @pytest.mark.parametrize("column", ["hc", "o2"])
    @pytest.mark.parametrize("command", [
        ["train", "--model", "lr", "--ridge", "0.1"],
        ["cv", "--model", "lr", "--ridge", "0.1"],
        ["sweep", "--grid", "1,8", "--gamma", "0.5"],
        ["intervals", "--o2", "16"],
        ["predict"],
    ], ids=lambda c: c[0])
    def test_error_names_the_row(self, corpus_200, tmp_path, capsys, command, column, comment):
        ratio = [] if column == "hc" else ["--ratio", "hc_over_o2"]
        if command == ["predict"]:
            model = tmp_path / "model.json"
            assert main(["train", "--model", "lr", "--ridge", "0.1", *ratio,
                         "--data", str(corpus_200), "--out", str(model)]) == 0
            command, ratio = ["predict", "--model-file", str(model)], []
            capsys.readouterr()
        rows = corpus_200.read_text().splitlines()
        fields = rows[151].split(",")  # data row 151
        fields[0 if column == "hc" else 1] = "1e-320"
        rows[151] = ",".join(fields)
        if comment:  # not the plain form, so the line-by-line parser reads it
            rows.insert(0, "# row 151 has a tiny ratio denominator")
        path = tmp_path / "tiny.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.csv"
        assert main([*command, *ratio, "--data", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        quotient = "o2/hc" if column == "hc" else "hc/o2"
        assert captured.err == f"gasgate: error: ratio {quotient} overflows in row 151\n"
        assert captured.out == "" and not out.exists()


class TestNonFiniteKernel:
    """Kernel values that overflow fail with one error line, exit 2: a fit
    once ended in a traceback, and ``predict`` once labelled a row "safe"
    from a nan score."""

    @pytest.mark.parametrize("command", [
        ["train", "--model", "svm"],
        ["cv", "--model", "svm"],
        ["sweep", "--grid", "1,8"],
    ], ids=lambda c: c[0])
    def test_fit_is_refused(self, corpus_csv, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        rc = main([*command, "--kernel", "polynomial", "--coef0", "1e200",
                   "--data", str(corpus_csv), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("gasgate: error: polynomial kernel values are not "
                                "finite on the training features\n")

    def test_predict_names_the_row(self, corpus_csv, tmp_path, capsys):
        model = tmp_path / "poly.json"
        assert main(["train", "--model", "svm", "--kernel", "polynomial", "--degree", "3",
                     "--gamma", "1", "--coef0", "1", "--data", str(corpus_csv),
                     "--out", str(model)]) == 0
        capsys.readouterr()
        rows = tmp_path / "rows.csv"
        # the o2/hc feature of row 2 is about 2e301, and its cube overflows
        rows.write_text("hc,o2,co,co2,exploded\n1,20,0.05,13,1\n1e-300,20,0.05,13,1\n")
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model-file", str(model), "--data", str(rows),
                   "--scores", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("gasgate: error: the decision value of row 2 is not "
                                "finite: its polynomial kernel values overflow\n")


    # k(x, x) = 0 on every row, while k(-1, 1) = (-2e103)^3 overflows: the
    # fit itself, or (in the folds) every step SMO tries, meets the overflow,
    # and each is refused for the kernel rather than for SMO's lack of progress
    @pytest.mark.parametrize("command", [
        ["train", "--model", "svm"],
        ["cv", "--model", "svm", "--folds", "2"],
        ["sweep", "--folds", "2"],
    ], ids=["train", "cv", "sweep"])
    def test_overflow_off_the_diagonal_prints_one_line(self, tmp_path, capsys, command):
        path = tmp_path / "six.csv"
        path.write_text("hc,o2,co,co2,exploded\n1,15,0,0,1\n2,15,0,0,0\n1,16,0,0,0\n"
                        "2,16,0,0,1\n1,17,0,0,1\n2,17,0,0,0\n")
        out = tmp_path / "out.txt"
        rc = main([*command, "--features", "hc", "--kernel", "polynomial", "--gamma", "1e103",
                   "--coef0=-1e103", "--degree", "3", "--data", str(path), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == ("gasgate: error: polynomial kernel values are not "
                                "finite on the training features\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", [["cv", "--model", "svm"], ["sweep"], ["predict"]],
                             ids=lambda c: c[0])
    def test_held_out_overflow_names_the_dataset_row(self, tmp_path, capsys, command):
        corpus = tmp_path / "corpus.csv"
        assert main(["gen", "--n", "200", "--seed", "7", "--noise", "0.05",
                     "--out", str(corpus)]) == 0
        kernel = ["--kernel", "polynomial", "--gamma", "1", "--coef0", "1"]
        if command == ["predict"]:
            model = tmp_path / "poly.json"
            assert main(["train", "--model", "svm", *kernel, "--data", str(corpus),
                         "--out", str(model)]) == 0
            command, kernel = ["predict", "--model-file", str(model)], []
        capsys.readouterr()
        rows = corpus.read_text().splitlines()
        fields = rows[151].split(",")  # data row 151
        fields[0] = "1e-300"
        rows[151] = ",".join(fields)
        path = tmp_path / "tiny_hc.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main([*command, *kernel, "--data", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("gasgate: error: the decision value of row 151 is not "
                                "finite: its polynomial kernel values overflow\n")


class TestFoldsAboveTheRowCount:
    """More folds than rows is a data error: exit 2 and one line, no traceback."""

    @pytest.mark.parametrize("command", [
        ["cv", "--model", "lr", "--ridge", "0.1"],
        ["sweep", "--grid", "1,8", "--gamma", "0.5"],
    ], ids=lambda c: c[0])
    def test_one_error_line(self, workdir, capsys, command):
        path = workdir / "corpus20.csv"
        assert main(["gen", "--n", "20", "--seed", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main([*command, "--data", str(path), "--folds", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gasgate: error: 50 folds exceed 20 samples\n"


class TestCacheBudget:
    """``--cache-mb`` bounds kernel-row memory without changing any output."""

    def test_tiny_budget_gives_identical_outputs(self, corpus_csv, workdir, capsys):
        outputs = []
        for budget in ("256", "0.001"):
            model, report = workdir / f"cache{budget}.json", workdir / f"cache{budget}.tsv"
            assert main(["train", "--model", "svm", "--gamma", "0.5", "--cache-mb", budget,
                         "--data", str(corpus_csv), "--out", str(model)]) == 0
            assert main(["sweep", "--data", str(corpus_csv), "--grid", "1,8", "--folds", "4",
                         "--gamma", "0.5", "--cache-mb", budget, "--out", str(report)]) == 0
            outputs.append((model.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("command", [
        ["train", "--model", "svm", "--out", "never.json"],
        ["cv", "--model", "svm"],
        ["sweep"],
    ], ids=lambda c: c[0])
    def test_non_positive_budget_rejected(self, corpus_csv, capsys, command, budget):
        rc = main([*command, "--data", str(corpus_csv), "--cache-mb", budget])
        assert rc == 1
        assert "argument --cache-mb: must be positive, got" in capsys.readouterr().err


    def test_infinite_budget_means_no_ceiling(self, corpus_csv, workdir, capsys):
        models = []
        for budget in ("16", "inf"):
            model = workdir / f"budget-{budget}.json"
            assert main(["train", "--model", "svm", "--gamma", "0.5", "--cache-mb", budget,
                         "--data", str(corpus_csv), "--out", str(model)]) == 0
            models.append(model.read_bytes())
        assert models[0] == models[1]


class TestNonFiniteFlags:
    """A non-finite number is a usage error naming its flag, raised before
    any file is read or written."""

    COMMANDS = {
        "train-svm": ["train", "--model", "svm", "--kernel", "sigmoid", "--gamma", "0.5"],
        "train-lr": ["train", "--model", "lr"],
        "cv-svm": ["cv", "--model", "svm", "--kernel", "sigmoid"],
        "cv-lr": ["cv", "--model", "lr"],
        "sweep": ["sweep", "--kernel", "sigmoid", "--grid", "1,8", "--folds", "2"],
        "intervals": ["intervals", "--o2", "16"],
    }

    @pytest.mark.parametrize("command, flag, value", [
        ("train-svm", "--gamma", "inf"),
        ("train-svm", "--gamma", "nan"),
        ("train-svm", "--coef0", "nan"),
        ("train-svm", "--coef0", "inf"),
        ("train-svm", "--penalty-positive", "inf"),
        ("train-svm", "--penalty-negative", "inf"),
        ("train-svm", "--tol", "inf"),
        ("train-lr", "--ridge", "inf"),
        ("train-lr", "--tol", "inf"),
        ("cv-svm", "--penalty-positive", "inf"),
        ("cv-svm", "--tol", "inf"),
        ("cv-lr", "--ridge", "inf"),
        ("sweep", "--base-w2", "inf"),
        ("sweep", "--grid", "5,inf"),
        ("sweep", "--grid", "nan"),
        ("sweep", "--gamma", "inf"),
        ("sweep", "--coef0", "-inf"),
        ("sweep", "--tol", "inf"),
        ("intervals", "--ridge", "inf"),
        ("intervals", "--tol", "inf"),
    ])
    def test_rejected_before_any_file(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        # the data file does not exist either: the flag is checked first
        rc = main([*self.COMMANDS[command], f"{flag}={value}",
                   "--data", str(tmp_path / "absent.csv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: argument {flag}: " in err and "finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_config_value_rejected_too(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"penalty-positive": Infinity}')
        out = tmp_path / "model.json"
        rc = main(["train", "--model", "svm", "--config", str(config),
                   "--data", str(tmp_path / "absent.csv"), "--out", str(out)])
        assert rc == 1
        assert ("argument --penalty-positive: must be positive and finite, got inf"
                in capsys.readouterr().err)
        assert not out.exists()


class TestFlagsTheModelIgnores:
    """Every flag a command takes is range-checked when it is parsed,
    whichever --model is chosen and whether or not the run reads it."""

    COMMANDS = {
        "cv-lr": ["cv", "--model", "lr", "--data", "absent.csv"],
        "train-svm": ["train", "--model", "svm", "--data", "absent.csv", "--out", "m.json"],
        "intervals-file": ["intervals", "--model-file", "absent.json", "--o2", "16",
                           "--out", "i.csv"],
    }
    BAD = {
        "cv-lr": ["--gamma", "nan", "--penalty-positive", "-1", "--cache-mb", "0",
                  "--max-passes", "0"],
        "train-svm": ["--ridge", "nan", "--max-iter", "0"],
        "intervals-file": ["--ridge", "-1", "--tol", "nan"],
    }
    CASES = [(command, bad[i], bad[i + 1])
             for command, bad in BAD.items() for i in range(0, len(bad), 2)]

    @staticmethod
    def argv(tmp_path, command):
        return [str(tmp_path / a) if a.endswith((".csv", ".json")) else a
                for a in TestFlagsTheModelIgnores.COMMANDS[command]]

    FIRST_ERROR = {
        "cv-lr": "gasgate cv: error: argument --gamma: must be positive and finite, got nan",
        "train-svm": "gasgate train: error: argument --ridge: must be finite and >= 0, got nan",
        "intervals-file":
            "gasgate intervals: error: argument --ridge: must be finite and >= 0, got -1.0",
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_all_bad_flags_at_once(self, tmp_path, capsys, command):
        assert main(self.argv(tmp_path, command) + self.BAD[command]) == 1
        captured = capsys.readouterr()
        assert captured.err == self.FIRST_ERROR[command] + "\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag, value", CASES)
    def test_each_flag(self, tmp_path, capsys, command, flag, value):
        assert main(self.argv(tmp_path, command) + [flag, value]) == 1
        captured = capsys.readouterr()
        assert f"error: argument {flag}: must be " in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag, value", CASES)
    def test_each_flag_from_config(self, tmp_path, capsys, command, flag, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag[2:]: value}))
        assert main(self.argv(tmp_path, command) + ["--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert f"error: argument {flag}: must be " in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == [config]


class TestRepeatedFeature:
    def test_usage_error(self, corpus_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        rc = main(["train", "--model", "lr", "--ridge", "0", "--features", "hc,o2,ratio,ratio",
                   "--data", str(corpus_csv), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "gasgate train: error: attribute 'ratio' is repeated\n")
        assert not out.exists()


class TestLibraryWarnings:
    def test_one_line_on_stderr(self, corpus_csv, capsys):
        argv = ["cv", "--model", "lr", "--features", "hc,o2,co", "--data", str(corpus_csv)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        shown = warnings.showwarning
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == quiet.out
        assert captured.err == (
            "warning: constant attribute(s) ('co',): normalized value is pinned to 0\n")
        assert warnings.showwarning is shown  # restored when main returns


class TestIntervals:
    def test_fit_and_query(self, span_csv, workdir, capsys):
        out = workdir / "intervals.csv"
        rc = main(
            ["intervals", "--data", str(span_csv), "--o2", "16,18",
             "--out", str(out)]
        )
        assert rc == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""  # the fit converged
        assert "o2=16: explosive hc in [" in stdout
        assert "o2=18: explosive hc in [" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "o2,lower,upper,present"
        assert len(lines) == 3
        low16, up16 = map(float, lines[1].split(",")[1:3])
        low18, up18 = map(float, lines[2].split(",")[1:3])
        assert low18 < low16 < up16 < up18

    def test_saved_model_query(self, span_csv, workdir, capsys):
        model_path = workdir / "span_lr.json"
        assert main(
            ["train", "--model", "lr", "--data", str(span_csv),
             "--out", str(model_path)]
        ) == 0
        capsys.readouterr()
        rc = main(
            ["intervals", "--model-file", str(model_path), "--o2", "16"]
        )
        assert rc == 0
        assert "o2=16: explosive hc in [" in capsys.readouterr().out

    def test_unconverged_fit_warns_from_either_source(self, span_csv, tmp_path, capsys):
        # the same one-iteration fit, refitted from --data or loaded from a
        # saved model, gives one warning and the same stdout and CSV bytes
        model_path = tmp_path / "stunted.json"
        assert main(["train", "--model", "lr", "--max-iter", "1", "--data", str(span_csv),
                     "--out", str(model_path)]) == 0
        assert not load_model(model_path).converged
        capsys.readouterr()
        outputs = []
        for name, source in [("data", ["--data", str(span_csv), "--max-iter", "1"]),
                             ("model", ["--model-file", str(model_path)])]:
            out = tmp_path / f"{name}.csv"
            assert main(["intervals", *source, "--o2", "15,18", "--out", str(out)]) == 0
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1
            assert captured.err.startswith("warning: solver did not converge; ")
            stdout = captured.out.replace(str(out), "OUT")
            outputs.append((stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].startswith("o2=15: ")

    def test_exactly_one_source_required(self, span_csv, workdir, lr_model):
        both = main(
            ["intervals", "--data", str(span_csv), "--model-file", str(lr_model),
             "--o2", "16"]
        )
        neither = main(["intervals", "--o2", "16"])
        assert both == 1 and neither == 1

    def test_svm_model_rejected(self, svm_model, capsys):
        rc = main(["intervals", "--model-file", str(svm_model), "--o2", "16"])
        assert rc == 2
        assert "logistic" in capsys.readouterr().err

    def test_absent_levels_print_and_write_no_interval(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        assert main(["gen", "--n", "500", "--seed", "1", "--noise", "0.05",
                     "--out", str(corpus)]) == 0
        capsys.readouterr()
        out = tmp_path / "intervals.csv"
        assert main(["intervals", "--data", str(corpus), "--ridge", "0.1",
                     "--o2", "2,5,8,16", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[:3] == [f"o2={o2}: no explosive interval" for o2 in (2, 5, 8)]
        assert stdout[3].startswith("o2=16: explosive hc in [")
        rows = out.read_text().splitlines()
        assert rows[1:4] == ["2.0,,,0", "5.0,,,0", "8.0,,,0"]
        assert rows[4].startswith("16.0,") and rows[4].endswith(",1")

    def test_empty_o2_list(self, span_csv, capsys):
        rc = main(["intervals", "--data", str(span_csv), "--o2", ","])
        assert rc == 1
        assert capsys.readouterr().err.endswith(
            "gasgate intervals: error: argument --o2: empty list\n")

    def test_bad_o2_list(self, span_csv):
        rc = main(["intervals", "--data", str(span_csv), "--o2", "sixteen"])
        assert rc == 1

    @pytest.mark.parametrize("level", ["99", "-1", "nan", "inf"])
    def test_o2_outside_the_input_contract(self, span_csv, workdir, capsys, level):
        # with the default --hc-max 5 the levels allowed are [0, 95]
        out = workdir / f"intervals_{level}.csv"
        rc = main(["intervals", "--data", str(span_csv), "--o2", f"16,{level}",
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"--o2: level {level} must be finite and in [0, 95]" in captured.err
        assert "Traceback" not in captured.err and "row 1" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("hc_max", ["101", "inf"])
    def test_hc_max_above_100_blames_the_range(self, span_csv, capsys, hc_max):
        rc = main(["intervals", "--data", str(span_csv), "--o2", "16", "--hc-max", hc_max])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--hc-min/--hc-max must satisfy 0 < min < max <= 100" in err
        assert "--o2" not in err

    @pytest.mark.parametrize("flag, value", [("--grid-points", "2000"), ("--root-tol", "1e-6")])
    def test_grid_and_tolerance_flags_are_unknown(self, span_csv, capsys, flag, value):
        # the limits are closed-form roots: there is no grid or tolerance
        rc = main(["intervals", "--data", str(span_csv), "--o2", "16", flag, value])
        assert rc == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_hc_over_o2_at_zero_oxygen_is_a_data_error(self, span_csv, workdir, capsys):
        out = workdir / "intervals_zero_o2.csv"
        rc = main(["intervals", "--data", str(span_csv), "--ratio", "hc_over_o2",
                   "--o2", "0", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "gasgate: error: undefined ratio: o2 is 0\n"
        assert not out.exists()


class TestSeedEnv:
    def test_env_seed_matches_explicit_flag(self, workdir, monkeypatch):
        a, b = workdir / "env.csv", workdir / "flag.csv"
        monkeypatch.setenv("GASGATE_SEED", "42")
        assert main(["gen", "--n", "40", "--out", str(a)]) == 0
        monkeypatch.delenv("GASGATE_SEED")
        assert main(["gen", "--n", "40", "--seed", "42", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_env(self, workdir, monkeypatch):
        a, b = workdir / "beats_env.csv", workdir / "plain.csv"
        monkeypatch.setenv("GASGATE_SEED", "1")
        assert main(["gen", "--n", "40", "--seed", "5", "--out", str(a)]) == 0
        monkeypatch.delenv("GASGATE_SEED")
        assert main(["gen", "--n", "40", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_integer_env_seed(self, workdir, monkeypatch):
        monkeypatch.setenv("GASGATE_SEED", "many")
        rc = main(["gen", "--n", "40", "--out", str(workdir / "never2.csv")])
        assert rc == 1


class TestNegativeSeed:
    """A negative seed is a usage error that names where it came from."""

    @staticmethod
    def argv(command, corpus_csv, out):
        data = ["--data", str(corpus_csv)]
        return {"gen": ["gen", "--n", "40"],
                "train": ["train", "--model", "svm", *data],
                "cv": ["cv", "--model", "svm", *data],
                "sweep": ["sweep", *data]}[command] + ["--out", str(out)]

    COMMANDS = pytest.mark.parametrize("command", ["gen", "train", "cv", "sweep"])

    @COMMANDS
    def test_flag(self, corpus_csv, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(self.argv(command, corpus_csv, out) + ["--seed=-3"]) == 1
        assert "argument --seed: must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @COMMANDS
    def test_env(self, corpus_csv, tmp_path, capsys, monkeypatch, command):
        out = tmp_path / "out"
        monkeypatch.setenv("GASGATE_SEED", "-2")
        assert main(self.argv(command, corpus_csv, out)) == 1
        assert "$GASGATE_SEED must be >= 0, got -2" in capsys.readouterr().err
        assert not out.exists()

    @COMMANDS
    def test_config(self, corpus_csv, tmp_path, capsys, command):
        out = tmp_path / "out"
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"seed": -3}))
        assert main(self.argv(command, corpus_csv, out) + ["--config", str(config)]) == 1
        assert "argument --seed: must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()


class TestConfig:
    def write_config(self, workdir, name, obj):
        path = workdir / name
        path.write_text(json.dumps(obj))
        return path

    def test_config_supplies_flags(self, workdir):
        out = workdir / "from_config.csv"
        config = self.write_config(
            workdir, "gen.json", {"n": 40, "seed": 7, "out": str(out)}
        )
        assert main(["gen", "--config", str(config)]) == 0
        direct = workdir / "direct.csv"
        assert main(["gen", "--n", "40", "--seed", "7", "--out", str(direct)]) == 0
        assert out.read_bytes() == direct.read_bytes()

    def test_explicit_flag_overrides_config(self, workdir):
        out = workdir / "override.csv"
        config = self.write_config(
            workdir, "gen_n20.json", {"n": 20, "seed": 7, "out": str(out)}
        )
        assert main(["gen", "--config", str(config), "--n", "40"]) == 0
        assert len(load_csv(out)) == 40

    def test_string_values_are_coerced(self, workdir):
        out = workdir / "coerced.csv"
        config = self.write_config(
            workdir, "gen_str.json", {"n": "30", "seed": "7", "out": str(out)}
        )
        assert main(["gen", "--config", str(config)]) == 0
        assert len(load_csv(out)) == 30

    def test_dashed_keys_accepted(self, workdir):
        out = workdir / "dashed.csv"
        config = self.write_config(
            workdir, "gen_dash.json",
            {"n": 40, "positive-fraction": 0.5, "out": str(out)},
        )
        assert main(["gen", "--config", str(config), "--seed", "0"]) == 0
        assert load_csv(out).class_counts() == (20, 20)

    @pytest.mark.parametrize("key,value", [
        ("frobnicate", 1),
        # argparse's own names in a parsed namespace are no flags
        ("func", "x"), ("command", "train"), ("_sub", 1),
    ])
    def test_unknown_key_rejected(self, workdir, capsys, key, value):
        config = self.write_config(workdir, "bad_key.json", {key: value})
        assert main(["gen", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"gasgate: error: unknown config key {key!r}\n"

    def test_malformed_config(self, workdir):
        path = workdir / "broken.json"
        path.write_text("{nope")
        assert main(["gen", "--config", str(path)]) == 1

    def test_non_object_config(self, workdir):
        path = workdir / "list.json"
        path.write_text("[1,2]")
        assert main(["gen", "--config", str(path)]) == 1

    def test_missing_config_file(self, workdir):
        assert main(["gen", "--config", str(workdir / "absent.json")]) == 1

    def test_explicit_equals_flag_overrides_config(self, workdir):
        out = workdir / "override_eq.csv"
        config = self.write_config(
            workdir, "gen_n20_eq.json", {"n": 20, "seed": 7, "out": str(out)}
        )
        assert main(["gen", "--config", str(config), "--n=40"]) == 0
        assert len(load_csv(out)) == 40

    @pytest.mark.parametrize("obj, command", [
        ({"kernel": "foo"}, ["train", "--model", "svm"]),
        ({"model": "foo"}, ["train"]),
    ], ids=["kernel", "model"])
    def test_value_outside_choices_rejected(self, tmp_path, capsys, obj, command):
        config = self.write_config(tmp_path, "choice.json", obj)
        out = tmp_path / "model.json"
        rc = main([*command, "--config", str(config),
                   "--data", str(tmp_path / "absent.csv"), "--out", str(out)])
        assert rc == 1
        assert "'foo'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scores", [True, False])
    def test_boolean_switch(self, workdir, svm_model, corpus_csv, capsys, scores):
        base = ["predict", "--model-file", str(svm_model), "--data", str(corpus_csv)]
        assert main(base + (["--scores"] if scores else [])) == 0
        direct = capsys.readouterr().out
        config = self.write_config(workdir, f"scores_{scores}.json", {"scores": scores})
        assert main(base + ["--config", str(config)]) == 0
        assert capsys.readouterr().out == direct
        assert direct.startswith("row,prediction,score\n" if scores else "row,prediction\n")

    def test_config_key_in_the_file_is_ignored(self, workdir):
        out = workdir / "nested_config.csv"
        config = self.write_config(
            workdir, "nested.json",
            {"config": str(workdir / "absent.json"), "n": 40, "out": str(out)},
        )
        assert main(["gen", "--config", str(config)]) == 0
        assert len(load_csv(out)) == 40

    def test_config_seed_beats_env(self, workdir, monkeypatch):
        a, b, c = (workdir / f"seed_{name}.csv" for name in ("config", "flag", "env"))
        monkeypatch.setenv("GASGATE_SEED", "1")
        config = self.write_config(
            workdir, "seed7.json", {"n": 40, "seed": 7, "out": str(a)}
        )
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["gen", "--n", "40", "--out", str(c)]) == 0
        monkeypatch.delenv("GASGATE_SEED")
        assert main(["gen", "--n", "40", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("obj, key, shown", [
        ({"n": None}, "n", "None"),
        ({"out": ["x"]}, "out", "['x']"),
        ({"out": {"path": "x"}}, "out", "{'path': 'x'}"),
    ], ids=["null", "array", "object"])
    def test_non_scalar_value_rejected(self, tmp_path, capsys, obj, key, shown):
        config = self.write_config(
            tmp_path, "bad.json", {"n": 40, "out": str(tmp_path / "o.csv"), **obj}
        )
        assert main(["gen", "--config", str(config)]) == 1
        assert f"gasgate: error: config key {key!r}: bad value {shown}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("n", [40.5, 40.0])
    def test_integer_flag_needs_json_integer(self, tmp_path, capsys, n):
        # as --n=40.5 on the command line: no silent truncation
        out = tmp_path / "o.csv"
        config = self.write_config(tmp_path, "float_n.json", {"n": n, "out": str(out)})
        assert main(["gen", "--config", str(config)]) == 1
        assert f"--n: invalid int value: '{n!r}'" in capsys.readouterr().err
        assert not out.exists()

    def test_other_subcommands_value_is_not_checked(self, corpus_csv, workdir, capsys):
        # sweep takes no --penalty-positive, so its value is never read
        config = self.write_config(workdir, "sweep_bad_penalty.json",
                                   {"penalty-positive": "abc"})
        assert main(["sweep", "--data", str(corpus_csv), "--grid", "1,8", "--folds", "2",
                     "--gamma", "0.5", "--config", str(config)]) == 0


class TestInputsUntouched:
    def test_commands_never_rewrite_their_inputs(self, corpus_csv, workdir):
        digest = hashlib.sha256(corpus_csv.read_bytes()).hexdigest()
        main(["cv", "--model", "lr", "--ridge", "0.1", "--data", str(corpus_csv),
              "--folds", "4"])
        main(["train", "--model", "lr", "--data", str(corpus_csv),
              "--out", str(workdir / "again.json")])
        assert hashlib.sha256(corpus_csv.read_bytes()).hexdigest() == digest


class TestChildProcess:
    """``python -m gasgate.cli`` as its own process, where ``sys.exit(main())``
    makes each command's return value the exit code."""

    def test_exit_codes_and_one_error_line(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "gasgate.cli", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=120)

        runs = [run("gen", "--n", "60", "--seed", "2", "--out", "c.csv"),
                run("train", "--model", "svm", "--data", "c.csv", "--out", "m.json"),
                run("predict", "--model-file", "m.json", "--data", "c.csv", "--out", "p.csv")]
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text((tmp_path / "m.json").read_text()[:100])  # cut short
        runs.append(run("predict", "--model-file", str(corrupt), "--data", "c.csv"))
        assert [r.returncode for r in runs] == [0, 0, 0, 2]
        assert [r.stderr for r in runs[:3]] == ["", "", ""]
        assert runs[3].stdout == ""
        assert runs[3].stderr.count("\n") == 1
        assert runs[3].stderr.startswith("gasgate: error: invalid JSON in ")
