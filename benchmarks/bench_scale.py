#!/usr/bin/env python3
"""Time generation, parse, attack and certificate-free verify at n = 32 to 128 on two checkouts.

    python3 benchmarks/bench_scale.py --parent DIR --change DIR --tag NAME [--reps 5]

DIR is the root of a checkout.  Each cell of the grid, seed 1, is run
--reps times (default 5) per tree, each run in a fresh interpreter that
imports the tree's own `src/`.  The parent runs first in even
repetitions and the change in odd ones.  The cells are instances
(k, n, m) = (15, 32, 16), (3, 64, 32), (2, 64, 32) (SPEP on the 3n
closure, with a graph-isomorphism search of 129 nodes), (3, 96, 48) and
(3, 128, 64) (the largest cell of the scale gate in tests/test_scale.py); one mixed
instance at (3, 32, 16), whose public bases B_i are replaced by U_i.B_i
for U_i a seeded product of 5n elementary row additions r_a += s.r_b
with s = +-1, so the two Gram matrices differ and their entries grow;
and non-LCD pairs at (5, 32, 16) and (3, 64, 32) (the first two of the
scale gate's refusals): two rotations of the Construction A lattice of
the first code of m random rows over Z_k that is not LCD, which the
attack must refuse; and one unimodular cell, k.(Z^m + E8) at n = m + 8,
on a basis mixed by 5n row additions as above and rotated, attacked
against itself, which the attack must refuse with ZlipFailed (its unit
form is unimodular with m < n norm-1 vectors, so it is not Z^n).  A run
times, in process time:

  gen     the cell's input built and its public part written to JSON
          (for an instance, `generate_instance` and `to_dict`; for the
          other cells, the construction above),
  parse   both public lattices read back from that JSON,
  attack  hull_attack on them (on a pair it must refuse, until it raises
          HullNotTrivial or ZlipFailed),
  verify  verify_isomorphism on lattices parsed again, with no
          certificate, so it solves for the change of basis on G1's
          fraction-free elimination (instances and the mixed instance
          only),
  spep    the part of attack spent in `spep` (instances and the mixed
          instance only), corrected by the attack's two samples.

On a shared host the same stage can take up to 1.8 times as long while a
neighbour loads the sibling hyperthread.  So each stage sits between two
samples of perfbench's fixed reference kernel (perfbench/calibrate.py,
taken from this script's own checkout, so both trees are gauged alike),
and beside its raw process time it gets a load-corrected time: the raw
time divided by the mean of the two samples, times REFERENCE_S, which
reads as seconds on an unshared core.

The two samples gauge the load at the ends of a stage, not the load it
ran under, so for a stage of seconds the corrected time can drift where
the raw one does not; both are kept.

It also records the sha256 of the attack's result JSON (of the error and
transcript on a refused pair); the script stops if the two trees
disagree on it, if an attack is not verified, or if a pair that must be
refused is not.  benchmarks/BENCH_<NAME>.json keeps every run (raw and
corrected) and, per cell and tree, the median of each stage's raw and
corrected time, with the parent-to-change ratio of each kind of median.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
import calibrate  # noqa: E402  (perfbench/calibrate.py)

GRID = (
    ("instance", 15, 32, 16),
    ("instance", 3, 64, 32),
    ("instance", 2, 64, 32),
    ("instance", 3, 96, 48),
    ("instance", 3, 128, 64),
    ("mixed", 3, 32, 16),
    ("non_lcd", 5, 32, 16),
    ("non_lcd", 3, 64, 32),
    ("unimodular", 3, 26, 18),
)
SEED = 1
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


def child(root: str, kind: str, k: int, n: int, m: int, seed: int) -> None:
    """One run in this interpreter, on the checkout at root; prints JSON."""
    sys.path.insert(0, str(Path(root) / "src"))
    from hullattack import attack
    from hullattack.attack import hull_attack, verify_isomorphism
    from hullattack.errors import HullNotTrivial, ZlipFailed
    from hullattack.lattices import LatticeBasis

    out = {"raw_s": {}, "corrected_s": {}}
    text = timed(lambda: json.dumps({"public": public_lattices(kind, k, n, m, seed)}), out, "gen")

    def parse():
        pub = json.loads(text)["public"]
        return LatticeBasis.from_dict(pub["L1"]), LatticeBasis.from_dict(pub["L2"])

    l1, l2 = timed(parse, out, "parse")
    refusal = {"non_lcd": HullNotTrivial, "unimodular": ZlipFailed}.get(kind)
    if refusal is not None:
        def refuse():
            try:
                hull_attack(l1, l2)
            except refusal as exc:
                return {"error": str(exc), "transcript": exc.transcript}
            return None

        result = timed(refuse, out, "attack")
        out["ok"] = result is not None
    else:
        spep_s = []
        real_spep = attack.spep

        def spep(*args):
            t0 = time.process_time()
            try:
                return real_spep(*args)
            finally:
                spep_s.append(time.process_time() - t0)

        attack.spep = spep
        res = timed(lambda: hull_attack(l1, l2), out, "attack")
        load = out["corrected_s"]["attack"] / out["raw_s"]["attack"]
        out["raw_s"]["spep"] = sum(spep_s)
        out["corrected_s"]["spep"] = sum(spep_s) * load
        l1, l2 = parse()
        out["ok"] = timed(lambda: verify_isomorphism(l1, l2, res.o_star.matrix), out, "verify")
        result = res.to_dict()
    out["sha256"] = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    print(json.dumps(out))


def public_lattices(kind: str, k: int, n: int, m: int, seed: int) -> dict:
    """The public L1 and L2 of a cell, as the "public" block of an
    instance file."""
    from hullattack.codes import code_from_rows, is_lcd
    from hullattack.instances import generate_instance
    from hullattack.lattices import LatticeBasis, construction_a, random_rational_orthogonal, rotate
    from hullattack.linalg import RatMatrix

    if kind == "instance":
        return generate_instance(k, n, m, seed).to_dict(include_secret=False)["public"]
    rng = random.Random(seed)

    def mixed(lattice):
        rows = [list(r) for r in lattice.basis.num]
        for _ in range(5 * n):
            a, b = rng.sample(range(n), 2)
            sign = rng.choice((1, -1))
            rows[a] = [x + sign * y for x, y in zip(rows[a], rows[b])]
        return LatticeBasis(n, RatMatrix.over(rows, lattice.basis.den))

    if kind == "mixed":
        inst = generate_instance(k, n, m, seed)
        return {name: mixed(lattice).to_dict() for name, lattice in (("L1", inst.l1), ("L2", inst.l2))}
    if kind == "unimodular":
        # E8 on the basis 2e_1, e_i - e_(i-1) for i = 2..7, (1/2, ..., 1/2).
        e8 = [[2] + [0] * 7]
        e8 += [[int(t == i) - int(t == i - 1) for t in range(8)] for i in range(1, 7)]
        e8 += [[Fraction(1, 2)] * 8]
        rows = [[k * int(i == t) for t in range(n)] for i in range(m)]
        rows += [[0] * m + [k * x for x in r] for r in e8]
        o = random_rational_orthogonal(n, seed=rng.randrange(2**32))
        lattice = rotate(mixed(LatticeBasis(n, RatMatrix.from_rows(rows))), o).to_dict()
        return {"L1": lattice, "L2": lattice}
    while True:
        code = code_from_rows(k, [[rng.randrange(k) for _ in range(n)] for _ in range(m)], n)
        if not is_lcd(code):
            break
    base = construction_a(code)
    rotations = [random_rational_orthogonal(n, seed=rng.randrange(2**32)) for _ in "12"]
    return {f"L{i}": rotate(base, o).to_dict() for i, o in enumerate(rotations, 1)}


def run(root: Path, cell: tuple[str, int, int, int]) -> dict:
    argv = [sys.executable, __file__, "--child", str(root), *map(str, cell), str(SEED)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: {cell} failed (exit {proc.returncode}):\n{proc.stderr}")
    out = json.loads(lines[-1])
    if not out["ok"]:
        sys.exit(f"{root}: {cell} attack not verified, or a pair that must be refused not refused")
    return out


def main(argv=None) -> int:
    if argv is None and len(sys.argv) > 1 and sys.argv[1] == "--child":
        root, kind, *nums = sys.argv[2:]
        child(root, kind, *map(int, nums))
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
        "clock": "process time, raw and load-corrected by perfbench/calibrate.py",
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
        summary = {}
        for clock, key in (("raw_s", "raw"), ("corrected_s", "corrected")):
            stages = list(runs[0]["parent"][clock])
            medians = {
                tree: {s: statistics.median(r[tree][clock][s] for r in runs) for s in stages}
                for tree in TREES
            }
            summary[f"median_{key}_s"] = medians
            summary[f"parent_over_change_{key}"] = {
                s: medians["parent"][s] / medians["change"][s] for s in stages
            }
        out["cells"]["{} k={} n={} m={}".format(*cell)] = {**summary, "runs": runs}
    path = HERE / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
