#!/usr/bin/env python3
"""Print the sha256 of every output of the benchmark workloads.

Builds a workload's inputs as ``perfbench/workloads.py`` does, runs its
``gasgate`` commands once in a temporary directory, and prints one line per
file left there (inputs included) and per command's stdout:
``<sha256>  <workload>/<name>``.  Run it on two checkouts at the same
``--seed`` and compare the lines to show that a change keeps every output
byte-identical:

    python3 scripts/output_digests.py --workload sweep --seed 1

The temporary directory's path is replaced by ``<work>`` in stdout before
hashing, so the digests do not depend on where it was made.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=("fit", "sweep", "score"),
                        help="one workload; all three by default")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    return parser


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workload_digests(workloads, name: str, seed: int) -> list[str]:
    """``<sha256>  <name>/<output>`` lines for one pass of a workload."""
    lines = []
    with tempfile.TemporaryDirectory(prefix="gasgate-digests-") as tmp:
        work = Path(tmp)
        plan = workloads.WORKLOADS[name](work, seed)
        for k, cmd in enumerate(plan.commands, start=1):
            code, stdout = workloads.run_cli(cmd.argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(cmd.argv)} exited {code}")
            stdout = stdout.replace(str(work), "<work>")
            lines.append(f"{digest(stdout.encode())}  {name}/stdout-{k}-{cmd.label}")
        for path in sorted(work.iterdir()):
            lines.append(f"{digest(path.read_bytes())}  {name}/{path.name}")
    return lines


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the checkout's own package, and the benchmark's modules as its runner
    # imports them
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    workloads = importlib.import_module("workloads")
    for name in [args.workload] if args.workload else list(workloads.WORKLOADS):
        print("\n".join(workload_digests(workloads, name, args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
