"""Acceptance gate: ten criteria at full corpus sizes with time limits.

Each criterion prints one ACCEPTANCE line (echoed again in the terminal
summary).  A criterion fails on any violated identity or a blown time
budget; there is no tolerance on the exact-arithmetic checks.
"""

import json
import time

import pytest

from hullattack.attack import recover_modulus
from hullattack.cli import main as cli_main
from hullattack.codes import code_from_rows, is_lcd, random_free_lcd
from hullattack.instances import generate_instance
from hullattack.lattices import construction_a, random_rational_orthogonal, rotate
from hullattack.selftest import (
    brute_force_spep,
    check_closure_inner_products,
    check_closure_preservation,
    check_dual_identity,
    check_end_to_end,
    check_hull_identity,
    check_lcd_gram_unit,
    check_pep_vs_brute,
    check_projection_laws,
    check_spep_vs_brute,
)
from oracles import det, s_hull
import hullattack.selftest as st


def run_criterion(report, num, label, limit, fn):
    t0 = time.time()
    failure = None
    count = None
    try:
        count = fn()
    except AssertionError as exc:
        failure = str(exc)
    dt = time.time() - t0
    ok = failure is None and dt <= limit
    detail = f"{count} cases, {dt:.1f}s" if failure is None else failure
    report(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label} ({detail})")
    if failure is not None:
        raise AssertionError(f"criterion {num} failed: {failure}")
    assert dt <= limit, f"criterion {num} exceeded its {limit}s budget: {dt:.1f}s"


def test_criterion_01_hull_identity(acceptance_report):
    run_criterion(
        acceptance_report,
        1,
        "hull of Construction A equals Construction A of the code hull",
        60,
        lambda: check_hull_identity(samples=500),
    )


def test_criterion_02_dual_identity(acceptance_report):
    run_criterion(
        acceptance_report,
        2,
        "dual-code lattice equals k times the dual lattice",
        60,
        lambda: check_dual_identity(samples=500),
    )


def test_criterion_03_closure_preservation(acceptance_report):
    run_criterion(
        acceptance_report,
        3,
        "closures preserve free LCD in both directions",
        120,
        lambda: check_closure_preservation(samples=300),
    )


def test_criterion_04_closure_inner_products(acceptance_report):
    run_criterion(
        acceptance_report,
        4,
        "closure inner-product identities, exhaustive word pairs",
        60,
        lambda: check_closure_inner_products(ks=range(2, 11), nmax=3),
    )


def test_criterion_05_pep_vs_brute(acceptance_report):
    run_criterion(
        acceptance_report,
        5,
        "pep agrees with brute-force permutation search",
        300,
        lambda: check_pep_vs_brute(samples=200, ks=(2, 3, 5, 6), nmax=5),
    )


def test_criterion_06_spep_vs_brute(acceptance_report):
    run_criterion(
        acceptance_report,
        6,
        "spep agrees with brute-force signed search",
        300,
        lambda: check_spep_vs_brute(samples=200, ks=(3, 5, 6), nmax=4),
    )


def test_criterion_07_projection_laws(acceptance_report):
    run_criterion(
        acceptance_report,
        7,
        "projector laws on free LCD corpora",
        60,
        lambda: check_projection_laws(samples=200),
    )


def test_criterion_08_lcd_gram_unit(acceptance_report):
    run_criterion(
        acceptance_report,
        8,
        "LCD over prime powers implies unit Gram determinant",
        60,
        lambda: check_lcd_gram_unit(samples=200, ks=(3, 9, 27, 5, 25)),
    )


def test_criterion_09_end_to_end(acceptance_report):
    timings: list = []

    def full_run():
        count = check_end_to_end(
            ks=(3, 5, 9, 15, 2, 6, 10),
            n_values=(8, 12),
            seeds_per=50,
            depth=None,  # defaults to 2n inside the generator
            timings=timings,
        )
        worst8 = max((dt for n, dt in timings if n == 8), default=0.0)
        worst12 = max((dt for n, dt in timings if n == 12), default=0.0)
        assert worst8 <= 15, f"an n=8 instance took {worst8:.1f}s"
        assert worst12 <= 120, f"an n=12 instance took {worst12:.1f}s"
        return count

    run_criterion(
        acceptance_report,
        9,
        "gen-attack-verify succeeds on all seeded instances (n=8 and n=12)",
        1800,
        full_run,
    )


def _write(path, payload) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return str(path)


def _adversarial_files(tmp_path):
    """At least 20 fixture files with their expected CLI behavior."""
    import random

    rng = random.Random(424242)
    fixtures = []

    # Non-LCD instances: the hull signature must trip.  A lattice can be
    # Construction A for several moduli (3Z is the zero code mod 3 but
    # also <3> mod 9), so keep only codes whose lattice misses the
    # trivial-hull signature at every candidate modulus.
    made = 0
    while made < 8:
        k = rng.choice([2, 3, 5, 6, 7, 9])
        n = rng.randrange(2, 5)
        c = code_from_rows(k, [[rng.randrange(k) for _ in range(n)] for _ in range(n)])
        if is_lcd(c):
            continue
        lat = construction_a(c)
        cands = recover_modulus(lat)
        if not cands:
            continue
        if any(abs(det(s_hull(lat, kc).basis)) == kc**n for kc, _ in cands):
            continue
        o = random_rational_orthogonal(n, seed=rng.randrange(2**32), depth=4)
        rotated = rotate(lat, o)
        payload = {"public": {"L1": rotated.to_dict(), "L2": rotated.to_dict()}}
        path = tmp_path / f"nonlcd_{made}.json"
        fixtures.append(("attack", _write(path, payload), 3, "HullNotTrivial"))
        made += 1

    # Unimodular lattices: nothing to recover.
    for i, n in enumerate((2, 3)):
        c = random_free_lcd(3, n, n, seed=i + 1)
        lat = construction_a(c)
        payload = {"public": {"L1": lat.to_dict(), "L2": lat.to_dict()}}
        path = tmp_path / f"unimodular_{i}.json"
        fixtures.append(("attack", _write(path, payload), 3, "NoCandidate"))

    # Non-equivalent pairs: equivalence stage must refuse.
    made = 0
    while made < 2:
        c1 = random_free_lcd(5, 4, 2, seed=rng.randrange(2**32))
        c2 = random_free_lcd(5, 4, 2, seed=rng.randrange(2**32))
        if brute_force_spep(c1, c2).outcome != "not_equivalent":
            continue
        o1 = random_rational_orthogonal(4, seed=rng.randrange(2**32), depth=4)
        o2 = random_rational_orthogonal(4, seed=rng.randrange(2**32), depth=4)
        payload = {
            "public": {
                "L1": rotate(construction_a(c1), o1).to_dict(),
                "L2": rotate(construction_a(c2), o2).to_dict(),
            }
        }
        path = tmp_path / f"nonequiv_{made}.json"
        fixtures.append(("attack", _write(path, payload), 3, "SpepFailed"))
        made += 1

    # Malformed files.
    bad1 = tmp_path / "malformed.json"
    bad1.write_text("{this is not json")
    fixtures.append(("attack", str(bad1), 2, None))
    bad2 = tmp_path / "missing_public.json"
    fixtures.append(("attack", _write(bad2, {"k": 3}), 2, None))
    bad3 = tmp_path / "singular.json"
    payload = {
        "public": {
            "L1": {"n": 2, "rows": 2, "cols": 2, "entries": ["1", "1", "1", "1"]},
            "L2": {"n": 2, "rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]},
        }
    }
    fixtures.append(("attack", _write(bad3, payload), 2, None))

    # Moduli divisible by four, both at generation and attack time.
    inst = generate_instance(3, 4, 2, seed=5)
    inst_path = _write(tmp_path / "k4_target.json", inst.to_dict())
    for k in (4, 8, 12, 16):
        fixtures.append(("gen_k", k, 2, None))
        fixtures.append(("attack_k", (inst_path, k), 2, None))

    return fixtures


def test_criterion_10_negative_controls(acceptance_report, tmp_path):
    def run():
        fixtures = _adversarial_files(tmp_path)
        assert len(fixtures) >= 20, f"only {len(fixtures)} fixtures"
        for kind, arg, want_exit, want_error in fixtures:
            if kind == "attack":
                out = tmp_path / "out.json"
                code = cli_main(["attack", "--in", arg, "--out", str(out)])
                assert code == want_exit, f"{arg}: exit {code}, wanted {want_exit}"
                assert code != 0, "an adversarial file produced a result"
                if want_error is not None:
                    with open(out, "r", encoding="utf-8") as fh:
                        d = json.load(fh)
                    assert d["error"]["type"] == want_error, (
                        f"{arg}: {d['error']['type']}, wanted {want_error}"
                    )
                    assert "o_star" not in d
                out.unlink(missing_ok=True)
            elif kind == "gen_k":
                code = cli_main(
                    ["gen", "--k", str(arg), "--n", "4", "--m", "2", "--seed", "1",
                     "--out", str(tmp_path / "never.json")]
                )
                assert code == want_exit, f"gen --k {arg}: exit {code}"
                assert not (tmp_path / "never.json").exists()
            elif kind == "attack_k":
                path, k = arg
                code = cli_main(["attack", "--in", path, "--k", str(k)])
                assert code == want_exit, f"attack --k {k}: exit {code}"
        return len(fixtures)

    run_criterion(
        acceptance_report,
        10,
        "adversarial files fail loudly, never an unverified witness",
        60,
        run,
    )
