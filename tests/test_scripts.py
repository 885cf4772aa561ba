"""Smoke tests for the experiment scripts under scripts/.

Each script is imported by path and its ``main`` run on a small synthetic
corpus; the check is that it finishes cleanly, prints a report and writes
any table it is asked for in its documented layout.
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
    ("paper_studies", ["accuracy", "--n", "60", "--repeats", "1", "--folds", "3"]),
    ("paper_studies", ["penalty", "--n", "60", "--grid", "1,4", "--folds", "3"]),
    ("paper_studies", ["limits", "--n", "150", "--levels", "16,18"]),
    ("output_digests", ["--workload", "sweep", "--seed", "1"]),
])
def test_script_runs(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.filterwarnings("ignore:separation suspected")
@pytest.mark.parametrize("argv, keys, header, sep", [
    (["penalty", "--n", "60", "--folds", "3", "--grid"], [1.0, 2.0, 4.0],
     "gamma\ttype1\ttype2\twhole", "\t"),
    (["limits", "--n", "150", "--levels"], [15.0, 16.5, 18.0, 20.0],
     "o2,lower,upper,present", ","),
])
def test_study_table(argv, keys, header, sep, tmp_path, capsys):
    # one row per grid ratio or oxygen level, in the order asked for
    out = tmp_path / "table.txt"
    argv = [*argv, ",".join(f"{k:g}" for k in keys), "--out", str(out)]
    assert load_script("paper_studies").main(argv) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert [float(line.split(sep)[0]) for line in lines[1:]] == keys


@pytest.mark.parametrize("argv, message", [
    (["penalty", "--grid", "0.5"], "argument --grid: must be finite and >= 1, got 0.5"),
    (["limits", "--levels", "16,x"], "argument --levels: invalid comma list value: '16,x'"),
    (["accuracy", "--noise", "2"], "argument --noise: must be in [0, 0.5), got 2.0"),
    (["limits", "--levels", "30"], "argument --levels: must be in [15, 20], got 30.0"),
])
def test_bad_flag_value_is_a_usage_error(argv, message, capsys):
    # argparse refuses the value before any corpus is drawn: one error line
    # after the usage, exit 2, no traceback
    with pytest.raises(SystemExit) as exc:
        load_script("paper_studies").main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(f" {argv[0]}: error: {message}")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore:separation suspected")
@pytest.mark.parametrize("argv, message", [
    (["limits", "--n", "10"],
     "explosive region at o2=15.0 touches the hc_range edge; widen hc_range"),
    (["accuracy", "--data", "/nonexistent.csv"], "no such file: /nonexistent.csv"),
    (["penalty", "--n", "10", "--folds", "20"], "20 folds exceed 10 samples"),
    # a rule that joins two flags; it once ended in a traceback
    (["penalty", "--w2", "1e300", "--grid", "1,1e10"],
     "--grid ratio 1e+10 times --w2 1e+300 is not a finite penalty"),
    # the path asked for, not the temp file the write would have renamed
    (["penalty", "--n", "60", "--grid", "1,4", "--folds", "3", "--out", "/nonexistent/t.tsv"],
     "[Errno 2] No such file or directory: '/nonexistent/t.tsv'"),
])
def test_runtime_error_is_one_line(argv, message, capsys):
    # a failure after the flags parse, as gasgate reports one: exit 2 and
    # one error line, no traceback
    assert load_script("paper_studies").main(argv) == 2
    out, err = capsys.readouterr()
    assert err.splitlines() == [f"error: {message}"]
    assert "Traceback" not in err
    if argv[0] != "limits":  # limits prints its fit before the level that fails
        assert out == ""
