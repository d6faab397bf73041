"""Exact-arithmetic hull attack on lattice isomorphism.

Recovers the hidden orthonormal transform between rotated Construction-A
lattices of LCD codes over Z/kZ (k odd or k = 2 mod 4; a code that is not
free needs k supplied) by intersecting each lattice with k times its
dual, solving the scaled integer-lattice isomorphism, and reducing the
remaining signed permutation equivalence to weighted graph isomorphism
on code projection matrices.
"""

__version__ = "0.1.0"
