"""Instance files: a hidden code, two rotated lattices, optional secrets.

An instance is a pair of public bases obtained by rotating the same
Construction A lattice, the HNF read off the code's Howell form, by two
secret orthonormal maps.  Every matrix is held as integers over one
denominator and written entry by entry as "p" or "p/q" in lowest terms.
The attack sees only the public part; the secret block exists so that
generated challenges can be audited.
"""

from __future__ import annotations

import random

from .codes import LinearCode, random_free_lcd
from .errors import BadModulus, ParseError
from .lattices import (
    LatticeBasis,
    RationalOrthogonal,
    construction_a,
    random_rational_orthogonal,
    rotate,
)
from .linalg import Value, json_int


class Instance(Value, frozen=False):
    __slots__ = ("k", "n", "m", "code", "l1", "l2", "o1", "o2", "seed")

    def __init__(
        self,
        k: int,
        n: int,
        m: int,
        code: LinearCode,
        l1: LatticeBasis,
        l2: LatticeBasis,
        o1: RationalOrthogonal | None = None,
        o2: RationalOrthogonal | None = None,
        seed: int | None = None,
    ):
        self.k, self.n, self.m, self.code = k, n, m, code
        self.l1, self.l2, self.o1, self.o2, self.seed = l1, l2, o1, o2, seed

    def to_dict(self, include_secret: bool = True) -> dict:
        d = {
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "code": self.code.to_dict(),
            "public": {"L1": self.l1.to_dict(), "L2": self.l2.to_dict()},
        }
        if include_secret and self.o1 is not None and self.o2 is not None:
            d["secret"] = {"O1": self.o1.to_dict(), "O2": self.o2.to_dict()}
            if self.seed is not None:
                d["secret"]["seed"] = self.seed
        return d

    @staticmethod
    def from_dict(d: dict) -> "Instance":
        if not isinstance(d, dict):
            raise ParseError("instance JSON must be an object")
        k, n, m = json_int(d, "k"), json_int(d, "n"), json_int(d, "m")
        try:
            code = LinearCode.from_dict(d["code"])
            pub = d["public"]
            l1 = LatticeBasis.from_dict(pub["L1"])
            l2 = LatticeBasis.from_dict(pub["L2"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad instance JSON: {exc}") from None
        if (k, n) != (code.k, code.n) or n != l1.n or n != l2.n:
            raise ParseError(
                f"declared (k, n) = ({k}, {n}) does not match the code ({code.k}, {code.n})"
                f" and the lattices of dimension {l1.n} and {l2.n}"
            )
        if not 1 <= m <= n:
            raise ParseError(f"declared m = {m} is outside 1..{n}")
        o1 = o2 = seed = None
        secret = d.get("secret")
        if secret is not None:
            try:
                o1 = RationalOrthogonal.from_dict(secret["O1"])
                o2 = RationalOrthogonal.from_dict(secret["O2"])
                seed = json_int(secret, "seed") if "seed" in secret else None
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad instance secret block: {exc}") from None
            if o1.n != n or o2.n != n:
                raise ParseError(f"secret rotations of dimension {o1.n} and {o2.n}, not {n}")
        return Instance(k=k, n=n, m=m, code=code, l1=l1, l2=l2, o1=o1, o2=o2, seed=seed)


def generate_instance(k: int, n: int, m: int, seed: int, depth: int | None = None) -> Instance:
    """A fresh challenge: free LCD code plus two secret rotations.

    Derives independent sub-seeds for the code and each rotation so the
    whole instance is a deterministic function of (k, n, m, seed, depth).
    """
    if k < 2 or k % 4 == 0:
        raise BadModulus(f"modulus must be >= 2 and not 0 mod 4, got {k}")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = random.Random(seed)
    code = random_free_lcd(k, n, m, seed=rng.randrange(2**32))
    base = construction_a(code)
    o1 = random_rational_orthogonal(n, seed=rng.randrange(2**32), depth=depth)
    o2 = random_rational_orthogonal(n, seed=rng.randrange(2**32), depth=depth)
    return Instance(
        k=k,
        n=n,
        m=m,
        code=code,
        l1=rotate(base, o1),
        l2=rotate(base, o2),
        o1=o1,
        o2=o2,
        seed=seed,
    )
