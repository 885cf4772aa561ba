import hashlib
import json

import numpy as np
import pytest

from gasgate.cli import main
from gasgate.data import Dataset, GasSample, load_csv, write_csv
from gasgate.evaluate import choose_ratio, penalty_sweep, sweep_text
from gasgate.kernels import KernelSpec
from gasgate.logistic import LogisticModel
from gasgate.model_io import load_model, save_model
from gasgate.svm import SvmModel

pytestmark = pytest.mark.filterwarnings("ignore:separation suspected")


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
        write_csv(Dataset(tuple(rows)), path)
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
        assert "fold fits hit --max-passes" in stunted.err
        assert "ratio 1.0: " in stunted.err
        # stdout is the report alone, exactly as rendered by the library
        report = penalty_sweep(load_csv(noisy_csv), KernelSpec("rbf", gamma=0.5),
                               base_w2=10.0, gamma_grid=(1.0, 8.0), v=4, max_passes=1)
        assert stunted.out == sweep_text(report) + f"chosen gamma: {choose_ratio(report)!r}\n"

    def test_ratios_below_one_rejected(self, corpus_csv):
        assert main(["sweep", "--data", str(corpus_csv), "--grid", "0.5,2"]) == 1

    def test_missing_data(self):
        assert main(["sweep", "--grid", "1,8"]) == 1

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


class TestFoldedZeroRatio:
    """A zero ratio denominator fails CV and the sweep naming its row in the
    file, as ``train`` does, not its place inside a fold."""

    @pytest.fixture(scope="class")
    def corpus_200(self, workdir):
        path = workdir / "corpus200.csv"
        assert main(["gen", "--n", "200", "--seed", "3", "--out", str(path)]) == 0
        return path

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
        assert "--cache-mb must be positive" in capsys.readouterr().err


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
        assert f"error: {flag} " in err and "finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_config_value_rejected_too(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"penalty-positive": Infinity}')
        out = tmp_path / "model.json"
        rc = main(["train", "--model", "svm", "--config", str(config),
                   "--data", str(tmp_path / "absent.csv"), "--out", str(out)])
        assert rc == 1
        assert "--penalty-positive must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestIntervals:
    def test_fit_and_query(self, span_csv, workdir, capsys):
        out = workdir / "intervals.csv"
        rc = main(
            ["intervals", "--data", str(span_csv), "--o2", "16,18",
             "--out", str(out)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
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

    def test_unknown_key_rejected(self, workdir):
        config = self.write_config(workdir, "bad_key.json", {"frobnicate": 1})
        assert main(["gen", "--config", str(config)]) == 1

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


class TestInputsUntouched:
    def test_commands_never_rewrite_their_inputs(self, corpus_csv, workdir):
        digest = hashlib.sha256(corpus_csv.read_bytes()).hexdigest()
        main(["cv", "--model", "lr", "--ridge", "0.1", "--data", str(corpus_csv),
              "--folds", "4"])
        main(["train", "--model", "lr", "--data", str(corpus_csv),
              "--out", str(workdir / "again.json")])
        assert hashlib.sha256(corpus_csv.read_bytes()).hexdigest() == digest
