#!/usr/bin/env python3
"""Time parse, attack and certificate-free verify at n = 32 to 96 on two checkouts.

    python3 benchmarks/bench_scale.py --parent DIR --change DIR --tag NAME [--reps 5]

DIR is the root of a checkout.  Each cell of the grid (k, n, m) =
(15, 32, 16), (3, 64, 32) and (3, 96, 48), seed 1, is run --reps times (default 5)
per tree, each run in a fresh interpreter that imports the tree's own
`src/`.  The parent runs first in even repetitions and the change in odd
ones.  A run generates the instance (untimed), writes its public part to
JSON and then times, in process time:

  parse   both public lattices read back from that JSON,
  attack  hull_attack on them,
  verify  verify_isomorphism on lattices parsed again, with no
          certificate, so it takes its own inverse of G1.

On a shared host the same stage can take up to 1.8 times as long while a
neighbour loads the sibling hyperthread.  So each stage sits between two
samples of perfbench's fixed reference kernel (perfbench/calibrate.py,
taken from this script's own checkout, so both trees are gauged alike),
and beside its raw process time it gets a load-corrected time: the raw
time divided by the mean of the two samples, times REFERENCE_S, which
reads as seconds on an unshared core.

It also records the sha256 of the attack's result JSON; the script stops
if the two trees disagree on it, or if an attack is not verified.
benchmarks/BENCH_<NAME>.json keeps every run (raw and corrected) and,
per cell and tree, the median of each stage's corrected time, with the
parent-to-change ratio of those medians.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
import calibrate  # noqa: E402  (perfbench/calibrate.py)

GRID = ((15, 32, 16), (3, 64, 32), (3, 96, 48))
SEED = 1
STAGES = ("parse", "attack", "verify")
TREES = ("parent", "change")


def timed(fn, out: dict, stage: str):
    """fn(), with its process time in out["raw_s"][stage] and the
    load-corrected time (see the module docstring) in out["corrected_s"]."""
    before = calibrate.sample()
    t0 = time.process_time()
    result = fn()
    t = time.process_time() - t0
    after = calibrate.sample()
    out["raw_s"][stage] = t
    out["corrected_s"][stage] = t * calibrate.REFERENCE_S / ((before + after) / 2)
    return result


def child(root: str, k: int, n: int, m: int, seed: int) -> None:
    """One run in this interpreter, on the checkout at root; prints JSON."""
    sys.path.insert(0, str(Path(root) / "src"))
    from hullattack.attack import hull_attack, verify_isomorphism
    from hullattack.instances import generate_instance
    from hullattack.lattices import LatticeBasis

    text = json.dumps(generate_instance(k, n, m, seed).to_dict(include_secret=False))

    def parse():
        pub = json.loads(text)["public"]
        return LatticeBasis.from_dict(pub["L1"]), LatticeBasis.from_dict(pub["L2"])

    out = {"raw_s": {}, "corrected_s": {}}
    l1, l2 = timed(parse, out, "parse")
    res = timed(lambda: hull_attack(l1, l2), out, "attack")
    l1, l2 = parse()
    out["ok"] = timed(lambda: verify_isomorphism(l1, l2, res.o_star.matrix), out, "verify")
    out["sha256"] = hashlib.sha256(json.dumps(res.to_dict(), sort_keys=True).encode()).hexdigest()
    print(json.dumps(out))


def run(root: Path, cell: tuple[int, int, int]) -> dict:
    argv = [sys.executable, __file__, "--child", str(root), *map(str, cell), str(SEED)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: {cell} failed (exit {proc.returncode}):\n{proc.stderr}")
    out = json.loads(lines[-1])
    if not out["ok"]:
        sys.exit(f"{root}: {cell} attack not verified")
    return out


def main(argv=None) -> int:
    if argv is None and len(sys.argv) > 1 and sys.argv[1] == "--child":
        root, *nums = sys.argv[2:]
        child(root, *map(int, nums))
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--reps", type=int, default=5)
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error("--reps must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = {
        "command": f"benchmarks/bench_scale.py --reps {args.reps}",
        "clock": "process time, load-corrected by perfbench/calibrate.py",
        "reference_s": calibrate.REFERENCE_S,
        "seed": SEED,
        "reps": args.reps,
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "cells": {},
    }
    for cell in GRID:
        runs = []
        for i in range(args.reps):
            order = TREES if i % 2 == 0 else TREES[::-1]
            rep = {"first": order[0]}
            for tree in order:
                rep[tree] = run(roots[tree], cell)
            if rep["parent"]["sha256"] != rep["change"]["sha256"]:
                sys.exit(f"{cell}: the two trees return different attack results")
            runs.append(rep)
            print(f"{cell} rep {i + 1}/{args.reps} done", file=sys.stderr)
        medians = {
            tree: {s: statistics.median(r[tree]["corrected_s"][s] for r in runs) for s in STAGES}
            for tree in TREES
        }
        ratio = {s: medians["parent"][s] / medians["change"][s] for s in STAGES}
        out["cells"]["k={} n={} m={}".format(*cell)] = {
            "median_corrected_s": medians,
            "parent_over_change": ratio,
            "runs": runs,
        }
    path = HERE / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
