"""Consistency checks over randomized corpora.

Each check draws a seeded corpus, asserts an identity the library is
built on, and returns the number of cases it covered.  The CLI selftest
runs curated bundles of these; the acceptance tests run them at full
size.  Checks raise AssertionError with a description on violation.

The plain-permutation solver `pep` and the exhaustive searches
`brute_force_pep` and `brute_force_spep` live here, not in `equiv`,
because only these checks and the tests call them; the attack needs
SPEP alone.
"""

from __future__ import annotations

import random
import time
from itertools import permutations, product
from math import gcd, prod

from .attack import hull_attack, recover_modulus, verify_isomorphism
from .codes import (
    LinearCode,
    apply_signed_perm,
    code_from_rows,
    dual,
    extended_signed_closure,
    from_generator,
    hull,
    is_free_lcd,
    is_lcd,
    is_unit_det,
    projection_matrix,
    random_free_lcd,
    signed_closure,
    signed_perm_maps,
)
from .equiv import EquivResult, SignedPerm, _require_comparable, solve_weighted_gi, spep
from .errors import (
    BadModulus,
    HullAttackError,
    HullNotTrivial,
    NoCandidate,
    SpepFailed,
    TooLarge,
    VerificationFailed,
)
from .instances import generate_instance
from .lattices import (
    LatticeBasis,
    construction_a,
    hull_coefficients,
    random_rational_orthogonal,
    rotate,
)
from .linalg import IntMatrix, RatMatrix
from .modring import ModMatrix, howell_order


def _random_rows(rng: random.Random, k: int, n: int, max_rows: int | None = None) -> ModMatrix:
    rows = rng.randrange(1, (max_rows or n) + 1)
    return ModMatrix.from_rows(k, [[rng.randrange(k) for _ in range(n)] for _ in range(rows)])


def _random_code(rng: random.Random, k: int, n: int, max_rows: int | None = None) -> LinearCode:
    return from_generator(_random_rows(rng, k, n, max_rows))


def _words(c: LinearCode) -> list[tuple[int, ...]]:
    out = {tuple([0] * c.n)}
    for coeffs in product(range(c.k), repeat=c.gen.rows):
        w = [0] * c.n
        for coef, row in zip(coeffs, c.gen.entries):
            for j in range(c.n):
                w[j] = (w[j] + coef * row[j]) % c.k
        out.add(tuple(w))
    return sorted(out)


def _dot(x, y, k: int) -> int:
    return sum(a * b for a, b in zip(x, y)) % k


def check_hull_identity(samples: int = 500, seed: int = 101) -> int:
    """Code-level hull and lattice-level hull agree through Construction A:
    the k-hull C.B of the lattice and the lattice of the code's hull are
    one lattice, as the verifier decides it (identity map, no
    certificate)."""
    rng = random.Random(seed)
    for i in range(samples):
        k = rng.randrange(2, 10)
        n = rng.randrange(1, 5)
        c = _random_code(rng, k, n)
        lat = construction_a(c)
        lhs = LatticeBasis(n, hull_coefficients(lat, k).to_rat().mul(lat.basis))
        rhs = construction_a(hull(c))
        assert verify_isomorphism(rhs, lhs, RatMatrix.identity(n)), (
            f"hull identity broke at sample {i} (k={k}, n={n})"
        )
    return samples


def check_dual_identity(samples: int = 500, seed: int = 102) -> int:
    """The dual-code lattice is k times the dual lattice: L_d lies in k.L*
    (A_d . A^T = 0 mod k for the integer bases) and has its covolume,
    |det L_d| . |det L| = k^n."""
    rng = random.Random(seed)
    for i in range(samples):
        k = rng.randrange(2, 10)
        n = rng.randrange(1, 5)
        c = _random_code(rng, k, n)
        lat = construction_a(c)
        ld = construction_a(dual(c))
        inner = IntMatrix(ld.basis.num).mul(IntMatrix(lat.basis.num).transpose())
        assert all(x % k == 0 for row in inner.entries for x in row), (
            f"dual code lattice not inside k L* at sample {i} (k={k}, n={n})"
        )
        assert ld.abs_det * lat.abs_det == k**n, (
            f"dual identity broke at sample {i} (k={k}, n={n})"
        )
    return samples


def check_closure_preservation(
    samples: int = 300,
    seed: int = 103,
    odd_ks=(3, 5, 7, 9, 15),
    even_ks=(2, 6, 10),
    closure_fn=signed_closure,
    extended_fn=extended_signed_closure,
) -> int:
    """Free LCD survives the closures, in both directions: a closure is
    isomorphic to its code as a module and scales inner products by a
    unit, so it keeps the order |C| and the LCD property.

    The closure functions are injectable so a deliberately corrupted
    closure can be shown to fail this check.
    """
    rng = random.Random(seed)
    count = 0
    for ks, fn in ((odd_ks, closure_fn), (even_ks, extended_fn)):
        for _ in range(samples):
            k = rng.choice(ks)
            n = rng.randrange(1, 4)
            c = _random_code(rng, k, n)
            cl = fn(c)
            assert is_free_lcd(c) == is_free_lcd(cl), (
                f"closure changed the free LCD property (k={k}, gen={c.gen.entries})"
            )
            count += 1
    return count


def check_closure_inner_products(
    ks=range(2, 11), nmax: int = 3, seed: int = 104, codes_per: int = 3
) -> int:
    """Signed closure doubles inner products; extended closure scales
    them by m^2 + 2, a unit.  Exhaustive over every codeword pair of the
    sampled codes (ranks capped at 2 to keep the word count finite)."""
    rng = random.Random(seed)
    checked = 0
    for k in ks:
        ext = k % 4 == 2
        m = k // 2
        if ext:
            assert gcd(m * m + 2, k) == 1, f"m^2+2 is not a unit mod {k}"
        for n in range(1, nmax + 1):
            for _ in range(codes_per):
                c = _random_code(rng, k, n, max_rows=min(n, 2))
                words = _words(c)
                for x in words:
                    xs = [v for a in x for v in (a % k, -a % k)]
                    xe = xs + [(m * a) % k for a in x] if ext else None
                    for y in words:
                        d = _dot(x, y, k)
                        ys = [v for a in y for v in (a % k, -a % k)]
                        assert _dot(xs, ys, k) == (2 * d) % k, f"signed product broke (k={k})"
                        if ext:
                            ye = ys + [(m * a) % k for a in y]
                            assert _dot(xe, ye, k) == ((m * m + 2) * d) % k, (
                                f"extended product broke (k={k})"
                            )
                        checked += 1
    return checked


def check_projection_laws(samples: int = 200, seed: int = 105) -> int:
    """Projectors are idempotent, symmetric, fix the code pointwise, and
    have the code as row space."""
    rng = random.Random(seed)
    done = 0
    while done < samples:
        k = rng.choice([2, 3, 5, 6, 7, 9, 10])
        n = rng.randrange(1, 5)
        m = rng.randrange(1, n + 1)
        try:
            c = random_free_lcd(k, n, m, seed=rng.randrange(2**32))
        except Exception:
            continue
        pi = projection_matrix(c)
        assert pi.mul(pi) == pi, "projector is not idempotent"
        assert pi.transpose() == pi, "projector is not symmetric"
        assert c.gen.mul(pi) == c.gen, "projector moves codewords"
        assert code_from_rows(k, [list(r) for r in pi.entries]) == c, (
            "projector rows do not span the code"
        )
        done += 1
    return done


def check_lcd_gram_unit(samples: int = 200, seed: int = 106, ks=(3, 9, 27, 5, 25)) -> int:
    """Over prime-power moduli every LCD code is free (its order is a
    power of k), and on drawn rows that are a free basis of their code a
    unit Gram determinant is exactly LCD, the rule `random_free_lcd`
    draws by.  Counts LCD codes found among arbitrary random draws."""
    rng = random.Random(seed)
    lcd_seen = 0
    while lcd_seen < samples:
        k = rng.choice(ks)
        n = rng.randrange(1, 5)
        g = _random_rows(rng, k, n)
        c = from_generator(g)
        lcd = is_lcd(c)
        if lcd:
            assert is_free_lcd(c), f"LCD code over Z_{k} is not free: {c.gen.entries}"
            lcd_seen += 1
        if howell_order(c.gen) == k**g.rows:
            assert is_unit_det(g.mul(g.transpose())) == lcd, (
                f"unit Gram determinant disagrees with LCD on a free basis (k={k}, g={g.entries})"
            )
    return lcd_seen


def _equivalence_corpus(rng: random.Random, ks, nmax: int, signed: bool):
    while True:
        k = rng.choice(ks)
        n = rng.randrange(2, nmax + 1)
        m = rng.randrange(1, n + 1)
        try:
            c1 = random_free_lcd(k, n, m, seed=rng.randrange(2**32))
        except Exception:
            continue
        if rng.randrange(2):
            sigma = list(range(n))
            rng.shuffle(sigma)
            signs = [rng.choice([1, -1]) if signed else 1 for _ in range(n)]
            c2 = apply_signed_perm(c1, sigma, signs)
        else:
            try:
                c2 = random_free_lcd(k, n, m, seed=rng.randrange(2**32))
            except Exception:
                continue
        yield c1, c2


def pep(c1: LinearCode, c2: LinearCode, stats: dict | None = None) -> EquivResult:
    """Permutation equivalence of LCD codes.

    Any single graph isomorphism of the projectors is already a code
    equivalence, so the first solution is returned after an exact
    code-level verification.
    """
    _require_comparable(c1, c2)
    for p in solve_weighted_gi(projection_matrix(c1), projection_matrix(c2), stats):
        inv = [0] * len(p)
        for i, v in enumerate(p):
            inv[v] = i
        s = SignedPerm(tuple(inv), (1,) * len(p))
        if not signed_perm_maps(c2, s.sigma, s.signs, c1):
            raise VerificationFailed("projector isomorphism is not a code equivalence")
        return EquivResult(outcome="found", perm=s)
    return EquivResult(outcome="not_equivalent")


def brute_force_spep(c1: LinearCode, c2: LinearCode) -> EquivResult:
    """Exhaustive signed-permutation search, first match in lexicographic
    order (permutations first, then signs with +1 before -1)."""
    _require_comparable(c1, c2)
    n = c1.n
    if n > 6:
        raise TooLarge(f"exhaustive search is capped at n = 6, got n = {n}")
    for sigma in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            s = SignedPerm(sigma, signs)
            if s.apply_to(c2) == c1:
                return EquivResult(outcome="found", perm=s)
    return EquivResult(outcome="not_equivalent")


def brute_force_pep(c1: LinearCode, c2: LinearCode) -> EquivResult:
    """Exhaustive plain-permutation search in lexicographic order."""
    _require_comparable(c1, c2)
    n = c1.n
    if n > 6:
        raise TooLarge(f"exhaustive search is capped at n = 6, got n = {n}")
    for sigma in permutations(range(n)):
        s = SignedPerm(sigma, (1,) * n)
        if s.apply_to(c2) == c1:
            return EquivResult(outcome="found", perm=s)
    return EquivResult(outcome="not_equivalent")


def check_pep_vs_brute(samples: int = 200, seed: int = 107, ks=(2, 3, 5, 6), nmax: int = 5) -> int:
    rng = random.Random(seed)
    corpus = _equivalence_corpus(rng, ks, nmax, signed=False)
    for i in range(samples):
        c1, c2 = next(corpus)
        expected = brute_force_pep(c1, c2)
        got = pep(c1, c2)
        assert got.outcome == expected.outcome, f"pep disagreed with brute force at sample {i}"
        if got.outcome == "found":
            assert got.perm.apply_to(c2) == c1, f"pep witness failed at sample {i}"
    return samples


def check_spep_vs_brute(samples: int = 200, seed: int = 108, ks=(3, 5, 6), nmax: int = 4) -> int:
    rng = random.Random(seed)
    corpus = _equivalence_corpus(rng, ks, nmax, signed=True)
    for i in range(samples):
        c1, c2 = next(corpus)
        expected = brute_force_spep(c1, c2)
        got = spep(c1, c2)
        assert got.outcome == expected.outcome, f"spep disagreed with brute force at sample {i}"
        if got.outcome == "found":
            assert got.perm.apply_to(c2) == c1, f"spep witness failed at sample {i}"
    return samples


def check_end_to_end(
    ks=(3, 5, 9, 15, 2, 6, 10),
    n_values=(8, 12),
    seeds_per: int = 50,
    seed: int = 109,
    depth: int | None = None,
    progress=None,
    timings: list | None = None,
) -> int:
    """Generate, attack, verify; every instance must verify, with and
    without the attack's certificate."""
    count = 0
    for k in ks:
        for n in n_values:
            rng = random.Random(seed + 7919 * k + n)
            for _ in range(seeds_per):
                m = rng.randrange(1, n)  # m < n keeps the modulus recoverable
                t0 = time.time()
                inst = generate_instance(k, n, m, seed=rng.randrange(2**32), depth=depth)
                res = hull_attack(inst.l1, inst.l2)
                # The verifier that solves on G1 and the one that checks the
                # attack's change-of-basis certificate must both accept.
                assert verify_isomorphism(inst.l1, inst.l2, res.o_star.matrix), (
                    f"unverified witness for k={k}, n={n}, m={m}"
                )
                assert verify_isomorphism(inst.l1, inst.l2, res.o_star, res.certificate), (
                    f"certificate rejected for k={k}, n={n}, m={m}"
                )
                if timings is not None:
                    timings.append((n, time.time() - t0))
                count += 1
                if progress is not None:
                    progress(count)
    return count


def check_negative_controls(seed: int = 110) -> int:
    """Adversarial inputs fail loudly and never yield an unverified map."""
    rng = random.Random(seed)
    fixtures = 0

    # Codes with nontrivial hulls must trip the hull signature.  Skip
    # lattices that happen to be an LCD construction for some other
    # modulus (3Z is the zero code mod 3 as well as <3> mod 9).
    found = 0
    while found < 8:
        k = rng.choice([2, 3, 5, 6, 7, 9])
        n = rng.randrange(2, 5)
        c = _random_code(rng, k, n)
        if is_lcd(c):
            continue
        lat = construction_a(c)
        cands = recover_modulus(lat)
        if not cands:
            continue
        # |det hull| is the product of C's pivots times |det L|.
        if any(
            prod(row[i] for i, row in enumerate(hull_coefficients(lat, kc).entries)) * lat.abs_det
            == kc**n
            for kc, _ in cands
        ):
            continue
        try:
            hull_attack(lat, lat)
            raise AssertionError(f"attack accepted a non-LCD code (k={k})")
        except HullNotTrivial:
            found += 1
            fixtures += 1

    # Moduli divisible by four are rejected outright.
    for k in (4, 8, 12, 20):
        try:
            generate_instance(k, 4, 2, seed=1)
            raise AssertionError(f"generate accepted k={k}")
        except BadModulus:
            fixtures += 1
        lat = construction_a(code_from_rows(5, [[1, 0, 0], [0, 1, 0]]))
        try:
            hull_attack(lat, lat, k=k)
            raise AssertionError(f"attack accepted supplied k={k}")
        except BadModulus:
            fixtures += 1

    # Unimodular lattices admit no modulus candidate.
    for n in (2, 3, 4):
        c = random_free_lcd(3, n, n, seed=rng.randrange(2**32))
        lat = construction_a(c)
        try:
            hull_attack(lat, lat)
            raise AssertionError("attack invented a modulus for a unimodular lattice")
        except NoCandidate:
            fixtures += 1

    # Non-equivalent instances fail at the equivalence stage, loudly.
    found = 0
    while found < 5:
        k = rng.choice([3, 5])
        n = 4
        m = rng.randrange(1, n)
        c1 = random_free_lcd(k, n, m, seed=rng.randrange(2**32))
        c2 = random_free_lcd(k, n, m, seed=rng.randrange(2**32))
        if brute_force_spep(c1, c2).outcome != "not_equivalent":
            continue
        o1 = random_rational_orthogonal(n, seed=rng.randrange(2**32), depth=6)
        o2 = random_rational_orthogonal(n, seed=rng.randrange(2**32), depth=6)
        l1 = rotate(construction_a(c1), o1)
        l2 = rotate(construction_a(c2), o2)
        try:
            hull_attack(l1, l2)
            raise AssertionError("attack matched non-equivalent codes")
        except SpepFailed:
            found += 1
            fixtures += 1

    # Whatever the failure, no attack error ever carries a witness.
    assert not hasattr(HullAttackError("x"), "o_star")
    return fixtures


def check_modulus_recovery(samples: int = 100, seed: int = 111) -> int:
    """The true modulus always appears among the candidates."""
    rng = random.Random(seed)
    done = 0
    while done < samples:
        k = rng.choice([2, 3, 5, 6, 9, 10, 15])
        n = rng.randrange(2, 6)
        m = rng.randrange(1, n)
        try:
            c = random_free_lcd(k, n, m, seed=rng.randrange(2**32))
        except Exception:
            continue
        cands = recover_modulus(construction_a(c))
        assert (k, m) in cands, f"true modulus missing from candidates (k={k}, n={n}, m={m})"
        done += 1
    return done


QUICK_CHECKS = (
    ("hull identity", lambda: check_hull_identity(samples=60)),
    ("dual identity", lambda: check_dual_identity(samples=60)),
    ("closure preserves free LCD", lambda: check_closure_preservation(samples=40)),
    ("closure inner products", lambda: check_closure_inner_products(ks=range(2, 8), nmax=2)),
    ("projection laws", lambda: check_projection_laws(samples=40)),
    ("LCD iff unit Gram", lambda: check_lcd_gram_unit(samples=40)),
    ("pep vs brute force", lambda: check_pep_vs_brute(samples=25, nmax=4)),
    ("spep vs brute force", lambda: check_spep_vs_brute(samples=25, nmax=3)),
    ("modulus recovery", lambda: check_modulus_recovery(samples=30)),
    ("end to end", lambda: check_end_to_end(ks=(3, 6), n_values=(4,), seeds_per=4)),
    ("negative controls", check_negative_controls),
)

FULL_CHECKS = (
    ("hull identity", check_hull_identity),
    ("dual identity", check_dual_identity),
    ("closure preserves free LCD", check_closure_preservation),
    ("closure inner products", check_closure_inner_products),
    ("projection laws", check_projection_laws),
    ("LCD iff unit Gram", check_lcd_gram_unit),
    ("pep vs brute force", check_pep_vs_brute),
    ("spep vs brute force", check_spep_vs_brute),
    ("modulus recovery", check_modulus_recovery),
    (
        "end to end",
        lambda: check_end_to_end(ks=(3, 5, 9, 15, 2, 6, 10), n_values=(8,), seeds_per=5),
    ),
    ("negative controls", check_negative_controls),
)


def run_level(level: str = "quick", report=print) -> bool:
    """Run a check bundle; report one line per check; True if all passed."""
    checks = QUICK_CHECKS if level == "quick" else FULL_CHECKS
    all_ok = True
    for name, fn in checks:
        t0 = time.time()
        try:
            count = fn()
        except AssertionError as exc:
            all_ok = False
            report(f"FAIL {name}: {exc}")
            continue
        report(f"ok   {name} ({count} cases, {time.time() - t0:.1f}s)")
    return all_ok
