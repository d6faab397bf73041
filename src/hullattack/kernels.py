"""Integer kernels: extended gcd and all-integer LLL.

Everything works on plain lists of Python ints, so results are exact for
arbitrary magnitudes.  Their cost is big-integer arithmetic on entries
that grow inside the algorithms, which compiled code does not reduce.
"""

from operator import mul


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def lll_gram(gram, delta_num, delta_den):
    """All-integer LLL reduction of a quadratic form, with its transform.

    gram is the integer Gram matrix G of some basis b (symmetric and
    positive definite).  Returns (H, G') where H is the transform that
    LLL-reduces b, so H.b is the reduced basis, and G' = H.G.H^T is its
    Gram matrix.  Every size reduction and swap is applied to the rows of
    H and to the rows and columns of G' alike; H is unimodular by
    construction and the basis itself is never touched (Cohen, A Course
    in Computational Algebraic Number Theory, Alg. 2.6.7).

    Gram-Schmidt data is kept as the integers d[i] (leading principal
    Gram determinants) and lam[i][j] = mu[i][j] * d[j+1], so every
    division below is exact.  delta = delta_num/delta_den is the Lovász
    constant, 1/4 < delta <= 1.  Every decision depends only on ratios of
    inner products, so scaling G by a positive constant changes no step.
    Raises ValueError when G is not positive definite (dependent rows).
    """
    g = [list(r) for r in gram]
    n = len(g)
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 0:
        return h, g

    d = [0] * (n + 1)
    d[0] = 1
    d[1] = g[0][0]
    if d[1] <= 0:
        raise ValueError("dependent rows")
    lam = [[0] * n for _ in range(n)]

    def gram_row(i):
        gi = g[i]
        for j in range(i + 1):
            u = gi[j]
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            else:
                if u <= 0:
                    raise ValueError("dependent rows")
                d[i + 1] = u

    def reduce_row(k, j):
        lkj = lam[k][j]
        djj = d[j + 1]
        if 2 * lkj > djj or 2 * lkj < -djj:
            q = (2 * lkj + djj) // (2 * djj)
            hk, hj = h[k], h[j]
            gk, gj = g[k], g[j]
            for t in range(n):
                hk[t] -= q * hj[t]
                gk[t] -= q * gj[t]
            # column k after row k, so G'[k][k] picks up -2q.G[k][j] + q^2.G[j][j]
            for gt in g:
                gt[k] -= q * gt[j]
            lam[k][j] -= q * djj
            lk, lj = lam[k], lam[j]
            for t in range(j):
                lk[t] -= q * lj[t]

    def swap_rows(k, kmax):
        h[k], h[k - 1] = h[k - 1], h[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for gt in g:
            gt[k], gt[k - 1] = gt[k - 1], gt[k]
        lk, lk1 = lam[k], lam[k - 1]
        for t in range(k - 1):
            lk[t], lk1[t] = lk1[t], lk[t]
        l = lam[k][k - 1]
        bb = (d[k - 1] * d[k + 1] + l * l) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - l * t) // d[k]
            lam[i][k - 1] = (bb * t + l * lam[i][k]) // d[k + 1]
        d[k] = bb

    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            gram_row(k)
        reduce_row(k, k - 1)
        l = lam[k][k - 1]
        if delta_den * (d[k + 1] * d[k - 1] + l * l) < delta_num * d[k] * d[k]:
            swap_rows(k, kmax)
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce_row(k, j)
            k += 1
    return h, g


def lll_rows(rows, delta_num, delta_den):
    """All-integer LLL reduction of a full-rank integer basis: `lll_gram`
    on the Gram matrix of the rows, its transform applied to the rows.
    Raises ValueError on dependent rows."""
    if not rows:
        return []
    gram = [[sum(map(mul, u, v)) for v in rows] for u in rows]
    h, _ = lll_gram(gram, delta_num, delta_den)
    cols = list(zip(*rows))
    return [[sum(map(mul, hr, col)) for col in cols] for hr in h]
