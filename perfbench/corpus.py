"""Workload inputs and the three user operations on them.

Every library call goes through a module attribute (``lib.instances.
generate_instance``, not a name bound at import), so a traced run that
patches those attributes sees the calls made here too.
"""

import hashlib
import json
import random
from types import SimpleNamespace


def load_library() -> SimpleNamespace:
    """The library modules the benchmark drives, imported on demand."""
    from hullattack import attack, codes, errors, instances, lattices, linalg

    return SimpleNamespace(
        attack=attack,
        codes=codes,
        errors=errors,
        instances=instances,
        lattices=lattices,
        linalg=linalg,
    )


def dump(d: dict) -> str:
    """The bytes `hullattack gen` and `hullattack attack --out` write."""
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def label(item: dict) -> str:
    extra = f" k'={item['supplied_k']}" if "supplied_k" in item else ""
    return f"{item['kind']} k={item['k']} n={item['n']} m={item['m']} seed={item['seed']}{extra}"


def _rotated_pair(lib, code1, code2, n: int, rng: random.Random):
    o1 = lib.lattices.random_rational_orthogonal(n, seed=rng.randrange(2**32))
    o2 = lib.lattices.random_rational_orthogonal(n, seed=rng.randrange(2**32))
    l1 = lib.lattices.rotate(lib.lattices.construction_a(code1), o1)
    l2 = lib.lattices.rotate(lib.lattices.construction_a(code2), o2)
    return l1, l2, o1, o2


def gen(lib, item: dict) -> dict:
    """The instance dict for one workload item (the timed `gen` op).

    instance, wrong_k: `generate_instance`, a solvable challenge.
    non_lcd: one random code over Z_k that is not LCD, rotated twice.
    independent: two unrelated free LCD codes with the same (k, n, m).
    """
    kind, k, n, m, seed = item["kind"], item["k"], item["n"], item["m"], item["seed"]
    if kind in ("instance", "wrong_k"):
        return lib.instances.generate_instance(k, n, m, seed=seed).to_dict()
    rng = random.Random(seed)
    extra = {}
    if kind == "non_lcd":
        while True:
            rows = [[rng.randrange(k) for _ in range(n)] for _ in range(m)]
            code = lib.codes.code_from_rows(k, rows, n)
            if not lib.codes.is_lcd(code):
                break
        l1, l2, o1, o2 = _rotated_pair(lib, code, code, n, rng)
    elif kind == "independent":
        code = lib.codes.random_free_lcd(k, n, m, seed=rng.randrange(2**32))
        code2 = lib.codes.random_free_lcd(k, n, m, seed=rng.randrange(2**32))
        l1, l2, o1, o2 = _rotated_pair(lib, code, code2, n, rng)
        extra["code2"] = code2.to_dict()
    else:
        raise ValueError(f"unknown item kind {kind!r}")
    inst = lib.instances.Instance(
        k=k, n=n, m=m, code=code, l1=l1, l2=l2, o1=o1, o2=o2, seed=seed
    )
    return {**inst.to_dict(), **extra}


def public(lib, inst: dict):
    """Freshly parsed public lattices, so no cached canonical form is shared."""
    pub = inst["public"]
    return lib.lattices.LatticeBasis.from_dict(pub["L1"]), lib.lattices.LatticeBasis.from_dict(
        pub["L2"]
    )


def failure_dict(exc) -> dict:
    """What `hullattack attack --out` writes when the attack fails."""
    return {
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "transcript": getattr(exc, "transcript", []),
    }
