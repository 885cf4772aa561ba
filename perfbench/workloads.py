"""The three workloads: their inputs, their CLI commands and output checks.

Every workload is one closed-loop client: a pass runs the workload's
``gasgate`` commands back to back in this process, and the next pass starts
when the last one has returned.  Inputs are CSV files drawn by
``gasgate.synth.generate``; the program sees nothing else.

The corpora that an SVM is trained on have fixed seeds.  The number of SMO
updates swings with the corpus: at 4000 rows it ranged over 9k-24k updates
for generator seeds 1-6, and over 33k-140k for the 500-row sweep, so a
seed-dependent training set would turn the timings into a measure of the
draw.  The workload seed drives the rows that are scored: the held-out rows
of ``fit`` and the 50 000 rows of ``score``.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from gasgate import cli, synth
from gasgate.data import write_csv

from oracles import CheckFailed, check_intervals, check_svm_model, choose_ratio

NOISE = 0.05
SVM_FLAGS = ("--kernel", "rbf", "--gamma", "0.5",
             "--penalty-positive", "10", "--penalty-negative", "10")
LR_FLAGS = ("--ridge", "0.1")
SWEEP_GRID = tuple(5.0 * k for k in range(1, 13))
O2_LEVELS = tuple(15.0 + 0.25 * k for k in range(21))
HC_RANGE = (0.1, 5.0)  # the intervals command's default --hc-min/--hc-max
INTERVAL_TOL = 1e-5
AGREEMENT_FLOOR_PCT = 90.0
CV_ACCURACY_FLOOR_PCT = 85.0

#: fixed seeds of the SVM training corpora (see the module docstring)
FIT_TRAIN_SEED = 1
SWEEP_SEED = 3
SCORE_SVM_SEED = 1
#: the workload seed plus this offset draws the scored rows, so that they
#: never coincide with a fixed training corpus
SCORED_SEED_OFFSET = 100_000


@dataclass
class Command:
    """One CLI invocation and the check of its outputs.

    ``check(stdout)`` raises ``CheckFailed`` or returns quality metrics.
    ``rows`` is the number of input rows a predict command scores.
    """

    label: str
    argv: list[str]
    check: Callable[[str], dict]
    rows: int = 0


@dataclass
class Plan:
    commands: list[Command]
    inputs: dict = field(default_factory=dict)  # file name -> (rows, seed)


def run_cli(argv) -> tuple[int, str]:
    """``gasgate.cli.main(argv)`` with its stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _corpus(path: Path, n: int, seed: int):
    data = synth.generate(synth.default_region(), n=n, seed=seed, noise=NOISE)
    write_csv(data, path)
    hc = np.array([s.hc for s in data])
    o2 = np.array([s.o2 for s in data])
    return synth.default_region().contains(hc, o2)


def _check_svm_file(path: Path) -> dict:
    check_svm_model(json.loads(path.read_text()))
    return {}


def _check_predictions(path: Path, band) -> dict:
    """Row numbers 1..n, labels +-1, and agreement with the noiseless band."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (len(band), 2) or (table[:, 0] != np.arange(1, len(band) + 1)).any():
        raise CheckFailed(f"{path.name}: expected rows 1..{len(band)}, got shape {table.shape}")
    if not np.isin(table[:, 1], (-1, 1)).all():
        raise CheckFailed(f"{path.name}: SVM labels outside {{-1, 1}}")
    agreement = 100.0 * float(np.mean((table[:, 1] == 1) == band))
    if not agreement >= AGREEMENT_FLOOR_PCT:
        raise CheckFailed(f"oracle agreement {agreement:.2f}% below {AGREEMENT_FLOOR_PCT}%")
    return {"oracle_agreement_pct": agreement}


def _check_sweep(path: Path, stdout: str) -> dict:
    rows = [tuple(float(v) for v in line.split("\t"))
            for line in path.read_text().splitlines()[1:]]
    if tuple(r[0] for r in rows) != SWEEP_GRID:
        raise CheckFailed(f"sweep rows {[r[0] for r in rows]} do not match the grid")
    chosen = float(stdout.rsplit("chosen gamma:", 1)[1].split()[0])
    if chosen not in SWEEP_GRID or chosen != choose_ratio(rows):
        raise CheckFailed(f"chosen ratio {chosen} is not the grid's minimum-type-I ratio")
    type1 = next(r[1] for r in rows if r[0] == chosen)
    return {"sweep_type1_pct": 100.0 * type1}


def _check_lr_file(path: Path) -> dict:
    model = json.loads(path.read_text())
    if model["kind"] != "logistic" or not np.isfinite(model["beta"]).all():
        raise CheckFailed(f"{path.name} is not a finite logistic model")
    return {}


def _check_intervals(path: Path, model_path: Path) -> dict:
    rows = []
    for line in path.read_text().splitlines()[1:]:
        o2, lower, upper, present = line.split(",")
        present = present == "1"
        rows.append((float(o2), float(lower) if present else None,
                     float(upper) if present else None, present))
    model = json.loads(model_path.read_text())
    err = check_intervals(model, rows, O2_LEVELS, *HC_RANGE, INTERVAL_TOL)
    return {"interval_err": err}


def _check_cv(path: Path, n_rows: int, folds: int) -> dict:
    lines = path.read_text().splitlines()[1:]
    counts = [[int(v) for v in line.split(",")[1:5]] for line in lines[:folds]]
    if len(counts) != folds or sum(map(sum, counts)) != n_rows:
        raise CheckFailed(f"{folds} folds should hold {n_rows} rows, got {counts}")
    accuracies = [100.0 * (tp + tn) / (tp + fp + tn + fn) for tp, fp, tn, fn in counts]
    mean = float(lines[folds].split(",")[-1])
    if abs(mean - statistics.fmean(accuracies)) > 1e-9 or not mean >= CV_ACCURACY_FLOOR_PCT:
        raise CheckFailed(f"cv mean accuracy {mean} (folds {accuracies})")
    return {"cv_accuracy_pct": mean}


def _train_svm(data: Path, model: Path) -> Command:
    return Command("train", ["train", "--model", "svm", *SVM_FLAGS,
                             "--data", str(data), "--out", str(model)],
                   lambda out: _check_svm_file(model))


def _predict(model: Path, data: Path, out_path: Path, band) -> Command:
    return Command("predict", ["predict", "--model-file", str(model), "--data", str(data),
                               "--out", str(out_path)],
                   lambda out: _check_predictions(out_path, band), rows=len(band))


def prepare_fit(work: Path, seed: int) -> Plan:
    """One SMO solve over a dense 4000 x 4000 Gram, then scoring 4000 new rows."""
    n = 4000
    train, heldout = work / "train.csv", work / "heldout.csv"
    _corpus(train, n, FIT_TRAIN_SEED)
    band = _corpus(heldout, n, SCORED_SEED_OFFSET + seed)
    model = work / "svm.json"
    return Plan(
        [_train_svm(train, model), _predict(model, heldout, work / "pred.csv", band)],
        {"train.csv": (n, FIT_TRAIN_SEED), "heldout.csv": (n, SCORED_SEED_OFFSET + seed)},
    )


def prepare_sweep(work: Path, seed: int) -> Plan:
    """60 cold SVM fits: 12 penalty ratios x 5 folds on 500 rows."""
    n = 500
    data, report = work / "sweep.csv", work / "sweep.tsv"
    _corpus(data, n, SWEEP_SEED)
    argv = ["sweep", "--data", str(data), *SVM_FLAGS[:4], "--out", str(report)]
    return Plan([Command("sweep", argv, lambda out: _check_sweep(report, out))],
                {"sweep.csv": (n, SWEEP_SEED)})


def prepare_score(work: Path, seed: int) -> Plan:
    """No SMO in the pass: scoring, a logistic fit, intervals and logistic CV."""
    n, n_svm, folds = 50_000, 2000, 5
    rows, svm_rows = work / "rows.csv", work / "svm_train.csv"
    band = _corpus(rows, n, SCORED_SEED_OFFSET + seed)
    _corpus(svm_rows, n_svm, SCORE_SVM_SEED)
    svm_model, lr_model = work / "svm.json", work / "lr.json"
    setup = _train_svm(svm_rows, svm_model)
    code, stdout = run_cli(setup.argv)
    if code != 0:
        raise RuntimeError(f"set-up command {setup.argv} exited {code}")
    setup.check(stdout)
    ivs, cv_out = work / "intervals.csv", work / "cv.csv"
    return Plan(
        [
            _predict(svm_model, rows, work / "pred.csv", band),
            Command("train", ["train", "--model", "lr", *LR_FLAGS, "--data", str(rows),
                              "--out", str(lr_model)],
                    lambda out: _check_lr_file(lr_model)),
            Command("intervals", ["intervals", "--model-file", str(lr_model),
                                  "--o2", ",".join(f"{v:g}" for v in O2_LEVELS),
                                  "--out", str(ivs)],
                    lambda out: _check_intervals(ivs, lr_model)),
            Command("cv", ["cv", "--model", "lr", *LR_FLAGS, "--data", str(rows),
                           "--folds", str(folds), "--out", str(cv_out)],
                    lambda out: _check_cv(cv_out, n, folds)),
        ],
        {"rows.csv": (n, SCORED_SEED_OFFSET + seed), "svm_train.csv": (n_svm, SCORE_SVM_SEED)},
    )


WORKLOADS = {"fit": prepare_fit, "sweep": prepare_sweep, "score": prepare_score}
