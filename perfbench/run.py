#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of gen -> attack -> verify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

One process, one client, no threads, closed loop: each operation starts
when the previous one returns.  A workload is a fixed corpus of items
(perfbench/workloads.json), visited in an order drawn from --seed; each
visit is one chain of three ops:

  gen     build the instance (generate_instance, or a reject input),
  attack  hull_attack on the freshly parsed public lattices,
  verify  verify_isomorphism on lattices parsed again, so the canonical
          form the attack cached is not reused.

Every output is checked: the instance and result JSON against recorded
sha256 digests, each o_star by the independent integer check in
witness.py, each reject input for its recorded error type, each verify
verdict against the expected one.  An op over its time limit, a wrong
output or a crash fails that op and skips the rest of its chain.

--trace 0 runs every item once, then keeps cycling through the items
(reshuffled each cycle) and reruns each one whose last chain still fits
in --seconds.  Within a chain an op is repeated, each repetition
checked, until its samples add up to the workload's min_op_s (at most
MAX_REPS times), so ops cheaper than gen collect more samples.  On
small-mixed and reject min_op_s is 0.3 s; on large-verify it is 1.5 s,
because each gen there takes 1.5 s and would otherwise leave each attack
and verify with about four samples a run.  Set-up is timed in fresh
interpreters started between chains.  A fixed reference kernel
(calibrate.py) is timed before every op and every set-up start, and each
time is divided by the kernel's mean time just before and just after it,
which gives seconds on an unshared core whether or not a neighbour slowed
the machine meanwhile.  An item's time for an op is the median of these,
and the run prints the end-to-end metrics.  --trace 1 runs each item
once traced, plus one untraced attack right after it, and prints the
per-layer metrics and the per-instance stage table.  The last stdout
line is the JSON result.

workloads.json also holds outlier-n20: k = 15, n = 20, seed 1, whose
attack spends most of its time in verify.  Its chain takes about 25 s,
too long to sample more than once in a run, so BENCHMARK.json does not
list it; `--workload outlier-n20 --trace 1` prints its stage table.

--record re-records the digests and the environment in workloads.json,
refusing if any check fails; only a change that alters gen or attack
output on purpose needs it.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibrate
import corpus
import tracing
import witness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = HERE / "workloads.json"
OP_LIMIT_S = 60.0  # over four times the slowest op (the n = 20 outlier attack)
RUN_LIMIT_S = 150.0  # no op starts later, so a run ends well inside 180 s
MAX_REPS = 5  # repetitions of an untraced op within one chain
SETUP_STARTS = 15
STEPS = ("gen", "attack", "verify")


class OpTimeout(Exception):
    pass


class WrongOutput(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("over the per-op time limit")


def backend() -> str:
    try:
        from hullattack import kernels
    except ImportError:  # no backend selection left: the pure kernels
        return "pure"
    return getattr(kernels, "BACKEND", "pure")


def environment() -> dict:
    return {"python": platform.python_version(), "backend": backend(), "nproc": os.cpu_count()}


class Run:
    """Counts, times and checks of one benchmark process."""

    def __init__(self, lib, items, min_op_s=0.0, record=False, tracer=None):
        self.lib = lib
        self.items = items
        self.min_op_s = min_op_s
        self.record = record
        self.tracer = tracer
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.times = defaultdict(list)  # step -> [(item, seconds, index of the gauge sample before)]
        self.instances = {}
        self.results = {}
        self.steps_done = 0  # steps of the current chain that passed every repetition
        self.chain_s = {}  # item -> wall seconds of its last clean chain
        self.gauge = []  # seconds of the reference kernel, sampled before every untraced op
        self.gauge_before = None  # index in gauge of the sample before the last op

    def timed(self, step, idx, fn):
        limit = min(OP_LIMIT_S, self.deadline - time.monotonic())
        if limit <= 0:
            raise OpTimeout("run budget exhausted before the op started")
        gc.collect()  # every op starts without garbage left by the previous one
        self.gauge_before = self.sample_gauge() if self.tracer is None else None
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            if self.tracer is None:
                t0 = time.perf_counter()
                out = fn()
                t1 = time.perf_counter()
            else:
                with self.tracer.span("op." + step, item=idx):
                    t0 = time.perf_counter()
                    out = fn()
                    t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return out, t1 - t0

    def sample_gauge(self) -> int:
        self.gauge.append(calibrate.sample())
        return len(self.gauge) - 1

    def unshared_s(self, t, k) -> float:
        """t seconds measured right after gauge sample k, as seconds on an unshared core."""
        around = (self.gauge[k] + self.gauge[min(k + 1, len(self.gauge) - 1)]) / 2
        return t * calibrate.REFERENCE_S / around

    def digest(self, item, key, text):
        got = corpus.sha256(text)
        if self.record:
            item[key] = got
        elif item.get(key) != got:
            raise WrongOutput(f"{key} mismatch: {got}")

    def attack(self, item, inst, idx):
        lib = self.lib
        l1, l2 = corpus.public(lib, inst)

        def call():
            try:
                return lib.attack.hull_attack(l1, l2, k=item.get("supplied_k"))
            except lib.errors.HullAttackError as exc:
                return exc

        out, t = self.timed("attack", idx, call)
        if isinstance(out, Exception):
            if item.get("error") != type(out).__name__:
                raise WrongOutput(f"attack raised {type(out).__name__}: {out}")
            result = corpus.failure_dict(out)
        else:
            if "error" in item:
                raise WrongOutput(f"attack succeeded where {item['error']} was expected")
            result = out.to_dict()
            reason = witness.check(inst["public"]["L1"], inst["public"]["L2"], result["o_star"])
            if reason:
                raise WrongOutput(f"o_star rejected by the independent check: {reason}")
        self.digest(item, "result_sha256", corpus.dump(result))
        return result, t

    def gen_once(self, idx):
        inst, t = self.timed("gen", idx, lambda: corpus.gen(self.lib, self.items[idx]))
        self.digest(self.items[idx], "instance_sha256", corpus.dump(inst))
        self.instances[idx] = inst
        return t

    def attack_once(self, idx):
        self.results[idx], t = self.attack(self.items[idx], self.instances[idx], idx)
        return t

    def verify_once(self, idx):
        lib, item, inst = self.lib, self.items[idx], self.instances[idx]
        result = self.results[idx]
        if "o_star" in result:
            wit, expect = result["o_star"], True
        else:
            wit = witness.secret_witness(inst["secret"]["O1"], inst["secret"]["O2"])
            expect = item["verify"]
            if (witness.check(inst["public"]["L1"], inst["public"]["L2"], wit) is None) != expect:
                raise WrongOutput("the independent check disagrees with the recorded verdict")
        l1, l2 = corpus.public(lib, inst)
        o = lib.linalg.RatMatrix.from_dict(wit)
        ok, t = self.timed("verify", idx, lambda: lib.attack.verify_isomorphism(l1, l2, o))
        if ok is not expect:
            raise WrongOutput(f"verify returned {ok}, expected {expect}")
        return t

    def repeat(self, step, idx, once):
        """Runs `once` (checked, returns seconds) until its samples add up to min_op_s.

        At most MAX_REPS times, and once only in a traced run.  Short ops
        thus collect as many samples as they need for a steady median.
        """
        total = reps = 0
        while reps == 0 or (self.tracer is None and total < self.min_op_s and reps < MAX_REPS):
            t = once(idx)
            self.times[step].append((idx, t, self.gauge_before))
            total += t
            reps += 1
        self.steps_done += 1

    def chain(self, idx):
        """gen -> attack -> verify on one item; an op that fails ends the chain."""
        self.repeat("gen", idx, self.gen_once)
        self.repeat("attack", idx, self.attack_once)
        self.repeat("verify", idx, self.verify_once)

    def attack_only(self, idx):
        """One more attack on an item's instance, timed under its own name."""
        _result, t = self.attack(self.items[idx], self.instances[idx], idx)
        self.times["attack_untraced"].append((idx, t, self.gauge_before))
        self.steps_done += 1

    def run_items(self, order, chain=None, ops=len(STEPS)):
        for idx in order:
            before = sum(len(v) for v in self.times.values())
            self.steps_done = 0
            t0 = time.monotonic()
            try:
                (chain or self.chain)(idx)
            except OpTimeout as exc:
                self._fail(idx, f"timeout: {exc}")
            except WrongOutput as exc:
                self.wrong += 1
                self._fail(idx, f"wrong output: {exc}")
            except Exception:  # a crash fails the op; the run goes on
                self.wrong += 1
                self._fail(idx, "crash:\n" + traceback.format_exc())
            # every sample is an op that passed; the step that failed and the
            # steps it skipped count once each, as failed ops
            done = sum(len(v) for v in self.times.values()) - before
            self.attempted += done + ops - self.steps_done
            self.failed += ops - self.steps_done
            if self.steps_done == ops:
                self.chain_s[idx] = time.monotonic() - t0

    def _fail(self, idx, msg):
        print(f"FAILED {corpus.label(self.items[idx])}: {msg}", file=sys.stderr)


def setup_start(payload: str) -> float:
    """Import plus parse time of one fresh interpreter (it exits before this returns)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py")],
        input=payload,
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(run: Run, setups) -> dict:
    """Each item's median time, then the median and the sum over items.

    Every time is first divided by the reference kernel's time around it
    and so put in seconds on an unshared core: see calibrate.py.
    """
    print(f"reference kernel: {len(run.gauge)} samples, mean {statistics.fmean(run.gauge):.6f} s "
          f"against {calibrate.REFERENCE_S} s on an unshared core")
    m = {}
    for step in STEPS:
        samples = defaultdict(list)
        for idx, t, k in run.times[step]:
            samples[idx].append(run.unshared_s(t, k))
        per_item = [statistics.median(ts) for ts in samples.values()]
        m[f"{step}_s_p50"] = (_median(per_item), "s")
        if step != "verify":
            m[f"{step}_s_total"] = (sum(per_item), "s")
        print(f"{step}: {len(samples)} items, {len(run.times[step])} samples")
    op_s = sum(t for step in STEPS for _idx, t, _k in run.times[step])
    print(f"timed ops: {op_s:.1f} s unscaled; reference kernel: {sum(run.gauge):.1f} s")
    print("setup starts (unscaled): " + ", ".join(f"{t:.4f}" for t, _k in setups))
    m["setup_s"] = (_median([run.unshared_s(t, k) for t, k in setups]), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def traced(run: Run, order) -> dict:
    """One traced pass; each item's attack also runs untraced right after it."""
    tracer = run.tracer
    tracer.install()
    try:
        for idx in order:
            run.run_items([idx])
            if idx in run.instances:
                run.tracer = None
                with tracer.paused():
                    run.run_items([idx], run.attack_only, 1)
                run.tracer = tracer
    finally:
        tracer.uninstall()
    if tracer.missing:
        print("not instrumented (gone from the library): " + ", ".join(tracer.missing))
    untraced = sum(t for _i, t, _k in run.times["attack_untraced"])
    metrics, rows = tracing.analyse(tracer.spans, untraced)
    gen_s = {i: t for i, t, _k in run.times["gen"]}
    labels = {i: corpus.label(it) for i, it in enumerate(run.items)}
    print(tracing.stage_table(rows, gen_s, labels))
    return {k: (metrics[k], unit) for k, unit in tracing.LAYER_UNITS.items()}


def record(lib, spec) -> int:
    bad = 0
    for name, wl in spec["workloads"].items():
        run = Run(lib, wl["items"], record=True)
        run.deadline = float("inf")
        run.run_items(range(len(wl["items"])))
        print(f"{name}: {run.failed} failed of {run.attempted}")
        bad += run.failed
    if bad:
        print("not recorded: some checks failed", file=sys.stderr)
        return 1
    spec["provenance"]["environment"] = environment()
    WORKLOADS.write_text(json.dumps(spec, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    spec = json.loads(WORKLOADS.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(spec["workloads"]))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    if not args.record and args.workload is None:
        p.error("--workload is required")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        lib = corpus.load_library()
    except ImportError as exc:
        print(f"error: cannot import hullattack from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.record:
        return record(lib, spec)

    env = environment()
    recorded = spec["provenance"]["environment"]
    print("env " + json.dumps({**env, "workload": args.workload, "seed": args.seed}))
    if env["backend"] != recorded["backend"]:
        print(
            f"error: kernel backend {env['backend']!r} differs from the recorded "
            f"{recorded['backend']!r}; runs on different backends are not comparable",
            file=sys.stderr,
        )
        return 3

    wl = spec["workloads"][args.workload]
    items = wl["items"]
    run = Run(lib, items, wl["min_op_s"], tracer=tracing.Tracer() if args.trace else None)
    rng = random.Random(args.seed)
    order = list(range(len(items)))
    if args.trace:
        rng.shuffle(order)
        metrics = traced(run, order)
    else:
        end = min(time.monotonic() + args.seconds, run.deadline)
        rng.shuffle(order)
        run.run_items(order)
        payload = json.dumps([run.instances[i]["public"] for i in sorted(run.instances)])
        setups = []
        ran = True
        while ran:
            rng.shuffle(order)
            ran = False
            for idx in order:
                if run.chain_s.get(idx, float("inf")) <= end - time.monotonic():
                    run.run_items([idx])
                    ran = True
                    if len(setups) < SETUP_STARTS:  # spread over the run, like the ops
                        k = run.sample_gauge()
                        setups.append((setup_start(payload), k))
        while len(setups) < SETUP_STARTS:
            k = run.sample_gauge()
            setups.append((setup_start(payload), k))
        metrics = end_to_end(run, setups)
    frac = run.failed / run.attempted
    print(f"failed_frac {frac:.6f} ({run.failed} failed / {run.attempted} attempted)")
    for k, (v, unit) in metrics.items():
        print(f"{k} {v:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": run.wrong == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
