"""Outside-in tracing of the library for the per-layer metrics.

The tracer replaces library functions by timing wrappers at the names
their callers look up (a module global such as ``hullattack.attack.
s_hull``, or a class attribute such as ``RatMatrix.mul``).  Each call
records a span: name, parent span, start, end and a few attributes.
Spans stay in memory; per-layer self time, counts and the per-attack
stage breakdown are derived from them when the run ends.  Nothing under
``src/`` changes, and `uninstall` puts every original back.
"""

import sys
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter


def _bits(args, kwargs):
    rows = args[0]
    return {"bits": max((abs(x).bit_length() for r in rows for x in r), default=0)}


def _accepted(args, result):
    return {"accepted": result is not None}


def _zlip_method(args, result):
    return {"enum": getattr(result, "method", None) == "enumeration"}


def _gi_nodes(args, result):
    stats = args[2] if len(args) > 2 and isinstance(args[2], dict) else {}
    return {"nodes": stats.get("nodes", 0)}


# (module, attribute, span name, before hook, after hook).  A dotted
# attribute is a method patched on its class; any other attribute is
# patched in every hullattack module that binds the same function.
TARGETS = (
    ("hullattack.attack", "recover_modulus", "attack.modulus", None, None),
    ("hullattack.attack", "_hull_det_matches", "attack.hull", None, _accepted),
    ("hullattack.attack", "solve_scaled_zlip", "attack.zlip", None, _zlip_method),
    ("hullattack.attack", "mod_reduce_to_code", "attack.extract", None, None),
    ("hullattack.attack", "spep", "attack.spep", None, _gi_nodes),
    ("hullattack.attack", "verify_isomorphism", "attack.verify", None, None),
    ("hullattack.kernels", "hnf_rows", "kernels.hnf", _bits, None),
    ("hullattack.kernels", "lll_rows", "kernels.lll", _bits, None),
    ("hullattack.linalg", "RatMatrix.mul", "linalg.ratmul", None, None),
    ("hullattack.linalg", "canonical_basis", "linalg.canonical", None, None),
    ("hullattack.linalg", "bareiss_det", "linalg.bareiss", None, None),
    ("hullattack.linalg", "rat_inverse", "linalg.inverse", None, None),
    ("hullattack.linalg", "inv_int_rows", "linalg.inverse", None, None),
    ("hullattack.linalg", "det", "linalg.det", None, None),
    ("hullattack.lattices", "RationalOrthogonal.__post_init__", "lattices.orth_check", None, None),
    ("hullattack.lattices", "rotate", "lattices.rotate", None, None),
    ("hullattack.lattices", "construction_a", "instances.construction_a", None, None),
    ("hullattack.lattices", "random_rational_orthogonal", "instances.orth", None, None),
    ("hullattack.modring", "kernel_mod", "modring.kernel_mod", None, None),
    ("hullattack.equiv", "solve_weighted_gi", "equiv.gi", None, None),
    ("hullattack.codes", "projection_matrix", "equiv.projection", None, None),
    ("hullattack.codes", "random_free_lcd", "instances.code", None, None),
    ("hullattack.codes", "from_generator", "codes.from_generator", None, None),
)
GENERATORS = {"equiv.gi"}  # timed per resumption, since the work runs lazily

# Direct children of a hull_attack call, by pipeline stage.  `det` runs
# for the modulus before the first hull and for the transcript after it;
# whatever no stage covers is assembly (composing o_star).
STAGES = ("modulus", "hull", "zlip", "extract", "spep", "assembly", "verify")
STAGE_OF = {
    "attack.modulus": "modulus",
    "attack.hull": "hull",
    "attack.zlip": "zlip",
    "lattices.rotate": "extract",
    "attack.extract": "extract",
    "attack.spep": "spep",
    "attack.verify": "verify",
}

LAYER_UNITS = {
    "attack.modulus.s": "s",
    "attack.hull.s": "s",
    "attack.hull.calls": "count",
    "attack.hull.accept_ratio": "ratio",
    "attack.zlip.s": "s",
    "attack.zlip.enum_share": "ratio",
    "attack.extract.s": "s",
    "attack.spep.s": "s",
    "attack.spep.gi_nodes": "count",
    "attack.assembly.s": "s",
    "attack.verify.s": "s",
    "kernels.hnf.s": "s",
    "kernels.hnf.calls": "count",
    "kernels.hnf.in_bits_max": "bits",
    "kernels.lll.s": "s",
    "kernels.lll.calls": "count",
    "kernels.lll.in_bits_max": "bits",
    "linalg.ratmul.s": "s",
    "linalg.ratmul.calls": "count",
    "linalg.canonical.s": "s",
    "linalg.bareiss.s": "s",
    "linalg.inverse.s": "s",
    "lattices.orth_check.s": "s",
    "lattices.orth_check.calls": "count",
    "lattices.rotate.s": "s",
    "modring.kernel_mod.s": "s",
    "equiv.gi.s": "s",
    "equiv.projection.s": "s",
    "instances.code.s": "s",
    "instances.code.draws_per_code": "count",
    "instances.orth.s": "s",
    "instances.construction_a.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, attrs]
        self.missing = []  # targets the library no longer has
        self._stack = []
        self._patches = []

    def _open(self, name, attrs):
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        return span

    def _close(self, span):
        span[3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        s = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(s)

    def _wrap(self, fn, name, before, after):
        def traced(*args, **kwargs):
            if not self._stack:  # outside an op: parsing, checks
                return fn(*args, **kwargs)
            s = self._open(name, before(args, kwargs) if before else {})
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(s)
                if after:
                    s[4].update(after(args, result))

        return traced

    def _wrap_gen(self, fn, name):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                s = self._open(name, {})
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(s)
                yield item

        return traced

    def install(self):
        self.missing = []
        modules = [m for k, m in sys.modules.items() if k.startswith("hullattack") and m]
        for mod_name, attr, name, before, after in TARGETS:
            try:
                owner = import_module(mod_name)
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name)
                orig = getattr(owner, meth)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if name in GENERATORS:
                wrapper = self._wrap_gen(orig, name)
            else:
                wrapper = self._wrap(orig, name, before, after)
            sites = [(owner, meth)] if cls_name else [
                (m, key) for m in modules for key, val in vars(m).items() if val is orig
            ]
            for site, key in sites:
                self._patches.append((site, key, getattr(site, key)))
                setattr(site, key, wrapper)

    def uninstall(self):
        for site, key, orig in reversed(self._patches):
            setattr(site, key, orig)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """The library exactly as shipped, for the untraced comparison runs."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()


def analyse(spans, untraced_attack_s: float):
    """Per-layer metrics and the per-attack stage rows from one traced pass."""
    child_s = [0.0] * len(spans)
    kids = defaultdict(list)
    for s in spans:
        if s[1] >= 0:
            child_s[s[1]] += s[3] - s[2]
            if spans[s[1]][0] == "op.attack":
                kids[s[1]].append(s)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    bits = defaultdict(int)
    for i, (name, _parent, t0, t1, attrs) in enumerate(spans):
        self_s[name] += (t1 - t0) - child_s[i]
        incl_s[name] += t1 - t0
        calls[name] += 1
        bits[name] = max(bits[name], attrs.get("bits", 0))

    stage_s = dict.fromkeys(STAGES, 0.0)
    rows = []
    coverage = 1.0
    for i, (name, _parent, t0, t1, attrs) in enumerate(spans):
        if name != "op.attack":
            continue
        row = dict.fromkeys(STAGES, 0.0)
        hull_seen = False
        for c in kids[i]:
            dur = c[3] - c[2]
            if c[0] == "linalg.det":
                row["hull" if hull_seen else "modulus"] += dur
            elif c[0] in STAGE_OF:
                row[STAGE_OF[c[0]]] += dur
            hull_seen = hull_seen or c[0] == "attack.hull"
        total = t1 - t0
        row["assembly"] = total - sum(row.values())
        if total > 0:
            coverage = min(coverage, child_s[i] / total)
        for st in STAGES:
            stage_s[st] += row[st]
        rows.append({"item": attrs["item"], "attack": total, **row})

    hull_spans = [s for s in spans if s[0] == "attack.hull"]
    zlip_spans = [s for s in spans if s[0] == "attack.zlip"]
    draws = sum(1 for s in spans if s[0] == "codes.from_generator" and s[1] >= 0
                and spans[s[1]][0] == "instances.code")
    m = {f"attack.{st}.s": stage_s[st] for st in STAGES if st != "verify"}
    m.update(
        {
            # wherever verify_isomorphism runs: the attack's last stage and the verify op
            "attack.verify.s": incl_s["attack.verify"],
            "attack.hull.calls": len(hull_spans),
            "attack.hull.accept_ratio": _ratio(
                sum(1 for s in hull_spans if s[4].get("accepted")), len(hull_spans)
            ),
            "attack.zlip.enum_share": _ratio(
                sum(1 for s in zlip_spans if s[4].get("enum")), len(zlip_spans)
            ),
            "attack.spep.gi_nodes": sum(
                s[4].get("nodes", 0) for s in spans if s[0] == "attack.spep"
            ),
            "kernels.hnf.calls": calls["kernels.hnf"],
            "kernels.hnf.in_bits_max": bits["kernels.hnf"],
            "kernels.lll.calls": calls["kernels.lll"],
            "kernels.lll.in_bits_max": bits["kernels.lll"],
            "linalg.ratmul.calls": calls["linalg.ratmul"],
            "lattices.orth_check.calls": calls["lattices.orth_check"],
            "instances.code.draws_per_code": _ratio(draws, calls["instances.code"]),
            "trace.coverage": coverage,
            "trace.overhead": _ratio(sum(r["attack"] for r in rows), untraced_attack_s),
        }
    )
    for key in LAYER_UNITS:
        if key not in m and key.endswith(".s"):
            m[key] = self_s[key[: -len(".s")]]
    return m, rows


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def stage_table(rows, gen_s: dict, labels: dict) -> str:
    """Per-instance stage seconds, in the shape of the ROADMAP Baseline table."""
    head = ["instance", "generate", "attack"] + list(STAGES) + ["largest stage"]
    lines = [" | ".join(head), " | ".join("---" for _ in head)]
    for r in rows:
        largest = max(STAGES, key=lambda st: r[st])
        cells = [labels[r["item"]], f"{gen_s.get(r['item'], 0.0):.3f}", f"{r['attack']:.3f}"]
        cells += [f"{r[st]:.3f}" for st in STAGES]
        cells.append(f"{largest} {r[largest]:.3f}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)
