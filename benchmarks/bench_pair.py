#!/usr/bin/env python3
"""Run perfbench on two checkouts and record both results in one file.

    python3 benchmarks/bench_pair.py --parent DIR --change DIR --tag NAME \
        [--seed 7] [--seconds 40] [--workload W ...]

DIR is the root of a checkout (for the parent, for example, a
`git archive` of the parent commit unpacked somewhere).  For each
workload the two trees run one after the other, parent first, with the
same seed, each as `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` from its own root, so each builds what it runs
from its own source.  The last stdout line of every run, perfbench's
JSON result, goes into benchmarks/BENCH_<NAME>.json.  A run that exits
non-zero or prints no JSON stops the script.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("small-mixed", "large-verify", "reject")


def run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    out = {
        "command": f"perfbench/run.py --seed {args.seed} --seconds {args.seconds} --trace 0",
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        out["workloads"][workload] = {
            tree: run(root.resolve(), workload, args.seed, args.seconds)
            for tree, root in (("parent", args.parent), ("change", args.change))
        }
    path = HERE / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
