#!/usr/bin/env python3
"""Closed-loop benchmark of the gasgate CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

The workload's inputs are generated, then its ``gasgate`` commands run back
to back in this process for ``--seconds`` and every output is checked.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured with no
instrumentation.  With ``--trace 1`` untraced and traced passes alternate;
the traced ones wrap the program's functions at their import sites and give
the per-layer metrics, and the spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: one BLAS thread, so timings do not depend on what else the machine runs
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBE = "import sys; sys.path.insert(0, {src!r}); import gasgate.cli"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit", "sweep", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_cli() -> None:
    """Import the CLI in a fresh interpreter, NumPy included, as a user's shell would."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC))],
                   capture_output=True, timeout=120, check=True)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '?')}",
        "blas_threads": blas_threads(np),
    }


def blas_threads(np):
    """Thread count reported by NumPy's bundled OpenBLAS, else the request."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            return ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            continue
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                   resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_pass(plan, run_cli, failures: list, recorder=None) -> dict:
    """Run every command once; return its CLI-level metrics.

    A command's time covers the whole ``cli.main`` call, CSV load and write
    included; the output check runs after the clock stops.
    """
    metrics = {}
    for cmd in plan.commands:
        code, stdout, err = None, "", None
        t0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            if recorder is None:
                code, stdout = run_cli(cmd.argv)
            else:
                with recorder.span(f"cli.{cmd.argv[0]}"):
                    code, stdout = run_cli(cmd.argv)
        except Exception:  # a crash counts as a failed command; the loop goes on
            err = traceback.format_exc()
        metrics[f"{cmd.argv[0]}_s"] = time.perf_counter() - t0
        metrics[f"{cmd.argv[0]}_cpu_s"] = cpu_seconds() - cpu0
        if err is None and code != 0:
            err = f"exit code {code}"
        if err is None:
            try:
                metrics.update(cmd.check(stdout))
            except Exception:  # an output that cannot be checked fails too
                err = traceback.format_exc()
        if err is not None:
            failures.append(f"{' '.join(cmd.argv)}: {err}")
    return metrics


def medians(runs: list[dict]) -> dict:
    """Median of each metric over runs; counts repeat, so they pass through."""
    names = dict.fromkeys(k for r in runs for k in r)
    return {k: statistics.median(r[k] for r in runs if k in r) for k in names}


def cli_figures(plan, passes: list[dict]) -> dict:
    """Per-command medians over passes, plus the workload's wall time.

    ``wall_s`` sums the commands' medians rather than taking the median of
    pass sums, so a burst of outside load on one command of one pass does
    not move it.
    """
    figures = medians(passes)
    figures["wall_s"] = sum(figures[f"{cmd.argv[0]}_s"] for cmd in plan.commands)
    figures["cpu_s"] = sum(figures.pop(f"{cmd.argv[0]}_cpu_s") for cmd in plan.commands)
    for cmd in plan.commands:
        if cmd.rows:
            figures["predict_rows_per_s"] = cmd.rows / figures.pop(f"{cmd.argv[0]}_s")
    return figures


def pass_walls(plan, passes: list[dict]) -> str:
    walls = (sum(p[f"{cmd.argv[0]}_s"] for cmd in plan.commands) for p in passes)
    return ", ".join(f"{w:.3f}" for w in walls) or "none"


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gasgate" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {SRC / 'gasgate'} or {spec_path} is missing; "
              "run from the root of a gasgate checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import layers
    import workloads
    from spans import Recorder, instrumented, write_jsonl

    prepare = workloads.WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups, generate_s = [], []
        for _ in range(SETUP_REPEATS):
            # CPU seconds: on a shared VM, stolen time swung the wall time
            # of the 0.4 s fit set-up between 0.35 and 0.71 s
            cpu0 = cpu_seconds()
            import_cli()
            recorder = Recorder()
            if args.trace:
                with instrumented(recorder, layers.SETUP_POINTS):
                    plan = prepare(work, args.seed)
            else:
                plan = prepare(work, args.seed)
            setups.append(cpu_seconds() - cpu0)
            generate_s.append(sum(s.duration for s in recorder.spans))

        failures: list[str] = []
        plain, traced, recorders = [], [], []
        start = time.perf_counter()
        while (not plain or (args.trace and not traced)
               or time.perf_counter() - start < args.seconds):
            if args.trace and len(traced) < len(plain):
                recorders.append(Recorder())
                with instrumented(recorders[-1], layers.POINTS):
                    traced.append(run_pass(plan, workloads.run_cli, failures, recorders[-1]))
            else:
                plain.append(run_pass(plan, workloads.run_cli, failures))
        attempted = len(plan.commands) * (len(plain) + len(traced))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        trace_file.unlink(missing_ok=True)
        for number, recorder in enumerate(recorders, start=1):
            write_jsonl(recorder.spans, trace_file, trace=number)

    cli_metrics = cli_figures(plan, plain)
    if args.trace:
        found = medians([layers.layer_metrics(r.spans) for r in recorders])
        found["synth.generate_s"] = statistics.median(generate_s)
        traced_wall = cli_figures(plan, traced)["wall_s"]
        found["trace.overhead_frac"] = traced_wall / cli_metrics["wall_s"] - 1.0
        for name, value in cli_metrics.items():
            found[f"cli.{name}" if name.endswith("_s") else f"check.{name}"] = value
        wanted = spec["per_layer"]
    else:
        found = {
            "setup_s": statistics.median(setups),
            "cpu_s": cli_metrics["cpu_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment().items()))
    print("inputs: " + ", ".join(f"{name} {n} rows (generator seed {seed})"
                                 for name, (n, seed) in plan.inputs.items()))
    print(f"set-up runs: {', '.join(f'{s:.3f}' for s in setups)} s; untraced passes: "
          f"{pass_walls(plan, plain)} s; traced passes: {pass_walls(plan, traced)} s")
    for name, value in cli_metrics.items():
        print(f"  {name:<22} {value:.6g}")
    print(f"  {'failed_frac':<22} {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)

    undeclared = sorted(set(found) - {m["name"] for m in wanted})
    if undeclared:
        print(f"perfbench: measured but not in BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 1
    # a per-layer metric of a layer the workload never enters reads 0
    metrics = {m["name"]: {"value": float(found[m["name"]] if not args.trace
                                          else found.get(m["name"], 0.0)),
                           "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
