"""Command line interface: gen, attack, verify, selftest.

Exit codes: 0 success, 2 unusable input or output (files or
parameters), 3 the operation itself failed (attack found no isomorphism,
selftest failed), 4 a witness failed verification.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .attack import hull_attack, verify_isomorphism
from .errors import HullAttackError, ParseError, Timeout, VerificationFailed
from .instances import generate_instance
from .lattices import MAX_DEPTH_PER_DIM, LatticeBasis
from .linalg import RatMatrix

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_FAILED = 3
EXIT_UNVERIFIED = 4


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    # ValueError covers invalid UTF-8, invalid JSON and integers longer than
    # the interpreter converts; deep nesting exhausts the recursion limit.
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not isinstance(d, dict):
        raise ParseError(f"{path} does not hold a JSON object")
    return d


def _dump_json(path: str, d: dict) -> bool:
    """Write d to path; on failure print one error line and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(d, indent=2, sort_keys=True))
            fh.write("\n")
    except OSError as exc:
        _err(f"cannot write {path}: {exc}")
        return False
    return True


def _public_lattices(d: dict, path: str) -> tuple[LatticeBasis, LatticeBasis]:
    try:
        pub = d["public"]
        l1 = LatticeBasis.from_dict(pub["L1"])
        l2 = LatticeBasis.from_dict(pub["L2"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path} lacks public lattices: {exc}") from None
    return l1, l2


def cmd_gen(args) -> int:
    if args.k < 2 or args.k % 4 == 0:
        _err(f"modulus must be >= 2 and not divisible by 4, got {args.k}")
        return EXIT_BAD_INPUT
    if not 1 <= args.m <= args.n:
        _err(f"need 1 <= m <= n, got m={args.m}, n={args.n}")
        return EXIT_BAD_INPUT
    if args.depth is not None and not 0 <= args.depth <= MAX_DEPTH_PER_DIM * args.n:
        _err(
            f"rotation depth must be in [0, {MAX_DEPTH_PER_DIM}n] = [0, {MAX_DEPTH_PER_DIM * args.n}],"
            f" got {args.depth}"
        )
        return EXIT_BAD_INPUT
    try:
        inst = generate_instance(args.k, args.n, args.m, seed=args.seed, depth=args.depth)
    except Timeout as exc:
        _err(f"could not generate a free LCD code: {exc}")
        return EXIT_FAILED
    if not _dump_json(args.out, inst.to_dict()):
        return EXIT_BAD_INPUT
    print(f"wrote instance k={args.k} n={args.n} m={args.m} seed={args.seed} to {args.out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    if args.k is not None and (args.k < 2 or args.k % 4 == 0):
        _err(f"modulus must be >= 2 and not divisible by 4, got {args.k}")
        return EXIT_BAD_INPUT
    try:
        d = _load_json(args.infile)
        l1, l2 = _public_lattices(d, args.infile)
    except ParseError as exc:
        _err(str(exc))
        return EXIT_BAD_INPUT
    try:
        res = hull_attack(l1, l2, k=args.k)
    except HullAttackError as exc:
        failure = {
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "transcript": getattr(exc, "transcript", []),
        }
        if args.out and not _dump_json(args.out, failure):
            return EXIT_BAD_INPUT
        _err(f"attack failed ({type(exc).__name__}): {exc}")
        return EXIT_UNVERIFIED if isinstance(exc, VerificationFailed) else EXIT_FAILED
    try:
        payload = res.to_dict()
    except ValueError as exc:
        # An entry past the interpreter's int-to-str digit limit.
        _err(f"verified witness cannot be written: {exc}")
        return EXIT_BAD_INPUT
    if args.out:
        if not _dump_json(args.out, payload):
            return EXIT_BAD_INPUT
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    recovered = next(
        (e.get("k") for e in res.transcript if e.get("step") == "modulus"), None
    )
    print(f"recovered and verified an isomorphism (k={recovered})")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        inst = _load_json(args.instance)
        l1, l2 = _public_lattices(inst, args.instance)
        result = _load_json(args.result)
    except ParseError as exc:
        _err(str(exc))
        return EXIT_BAD_INPUT
    if "error" in result:
        print("verification: FAILED (result file records a failed attack)")
        return EXIT_UNVERIFIED
    try:
        o_star = RatMatrix.from_dict(result["o_star"])
    except (KeyError, TypeError, ParseError) as exc:
        _err(f"{args.result} lacks a readable o_star: {exc}")
        return EXIT_BAD_INPUT
    if verify_isomorphism(l1, l2, o_star):
        print("verification: OK")
        return EXIT_OK
    print("verification: FAILED")
    return EXIT_UNVERIFIED


def cmd_selftest(args) -> int:
    from .selftest import run_level

    ok = run_level(args.level)
    print("selftest: all checks passed" if ok else "selftest: FAILED")
    return EXIT_OK if ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hullattack",
        description="Hull attack on lattice isomorphism for Construction A of LCD codes over Z/kZ.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a challenge instance")
    g.add_argument("--k", type=int, required=True, help="modulus (>= 2, not 0 mod 4)")
    g.add_argument("--n", type=int, required=True, help="ambient dimension")
    g.add_argument("--m", type=int, required=True, help="free rank of the hidden code")
    g.add_argument("--seed", type=int, required=True, help="instance seed")
    g.add_argument("--depth", type=int, default=None, help="rotation depth (default 2n)")
    g.add_argument("--out", required=True, help="output instance file")
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("attack", help="recover an isomorphism from the public lattices")
    a.add_argument("--in", dest="infile", required=True, help="instance file")
    a.add_argument("--out", default=None, help="result file (stdout when omitted)")
    a.add_argument("--k", type=int, default=None, help="skip modulus recovery, use this k")
    a.set_defaults(func=cmd_attack)

    v = sub.add_parser("verify", help="check a result file against an instance")
    v.add_argument("--instance", required=True, help="instance file")
    v.add_argument("--result", required=True, help="result file")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("selftest", help="run built-in consistency checks")
    s.add_argument("--level", choices=("quick", "full"), default="quick")
    s.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
