#!/usr/bin/env python3
"""Run perfbench on two checkouts, in pairs, and record every run in one file.

    python3 benchmarks/bench_pair.py --parent DIR --change DIR --tag NAME \
        [--pairs 10] [--seed 7] [--seconds 40] [--workload W[:PAIRS] ...]

DIR is the root of a checkout (for the parent, for example, a
`git archive` of the parent commit unpacked somewhere).  Each workload
runs --pairs pairs, or PAIRS where `--workload W:PAIRS` gives them (say
more pairs on the workload a gain is claimed on).  Pair i runs both
trees with seed --seed + i, each as
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
from its own root, so each builds what it runs from its own source.
The parent runs first in even pairs and the change in odd ones.

benchmarks/BENCH_<NAME>.json keeps the last stdout line of every run,
perfbench's JSON result, and per workload and end-to-end metric the
median and quartiles of each side over the pairs, with the pairs the
change won and lost ("better" comes from BENCHMARK.json; ties count for
neither).  A gain may be claimed when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range.  A run that exits non-zero or prints no JSON stops
the script.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("small-mixed", "large-verify", "reject")
TREES = ("parent", "change")


def workload_arg(text: str) -> tuple[str, int | None]:
    """W or W:PAIRS, as (W, PAIRS or None)."""
    name, _, pairs = text.partition(":")
    if name not in WORKLOADS or (pairs and not (pairs.isdigit() and int(pairs) >= 1)):
        raise argparse.ArgumentTypeError(f"want one of {', '.join(WORKLOADS)}, then :PAIRS >= 1")
    return name, int(pairs) if pairs else None


def run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (the two ends of the range for one value)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict) -> dict:
    """Per end-to-end metric: each side's spread and the pairs won."""
    out = {}
    for name, direction in better.items():
        values = {t: [p[t]["metrics"][name]["value"] for p in pairs] for t in TREES}
        sign = 1 if direction == "lower" else -1
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        parent, change = spread(values["parent"]), spread(values["change"])
        out[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": direction,
            "parent": parent,
            "change": change,
            "change_wins": sum(d < 0 for d in diffs),
            "parent_wins": sum(d > 0 for d in diffs),
            "gain_claimable": (
                10 * sum(d < 0 for d in diffs) >= 9 * len(diffs)
                and sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"]
            ),
        }
    for tree in TREES:
        out[f"{tree}_ops"] = {
            "attempted": sum(p[tree]["attempted"] for p in pairs),
            "failed": sum(p[tree]["failed"] for p in pairs),
            "all_correct": all(p[tree]["correct"] for p in pairs),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--workload", action="append", type=workload_arg)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = {
        "command": f"perfbench/run.py --seed S --seconds {args.seconds} --trace 0",
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    for workload, count in args.workload or [(w, None) for w in WORKLOADS]:
        count = count or args.pairs
        pairs = []
        for i in range(count):
            seed = args.seed + i
            order = TREES if i % 2 == 0 else TREES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for tree in order:
                pair[tree] = run(roots[tree], workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{count} done", file=sys.stderr)
        out["workloads"][workload] = {
            "pairs": count,
            "summary": summarize(pairs, better),
            "runs": pairs,
        }
    path = HERE / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
