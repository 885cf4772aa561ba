"""Smoke tests for the experiment scripts under scripts/.

Each script is imported by path and its ``main`` run on a small synthetic
corpus; the check is only that it finishes cleanly and prints a report.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("ignore:separation suspected")
@pytest.mark.parametrize("name, argv", [
    ("compare_learners", ["--n", "60", "--repeats", "1", "--folds", "3"]),
    ("penalty_tradeoff", ["--n", "60", "--grid", "1,4", "--folds", "3"]),
    ("limit_curves", ["--n", "150", "--levels", "16,18"]),
    ("output_digests", ["--workload", "sweep", "--seed", "1"]),
])
def test_script_runs(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out.strip()
