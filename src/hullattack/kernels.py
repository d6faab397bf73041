"""Integer kernels: extended gcd and all-integer LLL on a Gram matrix.

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
    """All-integer LLL reduction of a quadratic form: its transform and
    the integer Gram-Schmidt data of the reduced form.

    gram is the integer Gram matrix G of some basis b (symmetric and
    positive definite).  Returns (H, d, lam): the unimodular H that
    LLL-reduces b, so H.b is the reduced basis and H.G.H^T its Gram
    matrix (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7), and the Gram-Schmidt data of H.b.  Size reductions and
    swaps touch only the rows of H and the Gram-Schmidt data; the basis
    itself is never formed, and neither is H.G.H^T.

    Gram-Schmidt data is kept as the integers d[i] (leading principal
    Gram determinants, d[0] = 1, so |b*_i|^2 = d[i+1]/d[i]) and, below
    the diagonal of the n x n lam, lam[i][j] = mu[i][j] * d[j+1], so every
    division below is exact.  Every decision reads d and lam alone.  The
    only inner products needed are those of a row i on its first visit,
    and rows past the highest one visited are untouched, so h_i = e_i
    there: G'[i][j] = e_i.G.h_j = G[i].h_j and G'[i][i] = G[i][i].
    Cohen's algorithm keeps all of G' = H.G.H^T current instead, a row and
    a column update per step, and takes the same steps.

    delta = delta_num/delta_den is the Lovász constant, 1/4 < delta <= 1.
    Every decision depends only on ratios of inner products, so scaling G
    by a positive constant changes no step.  Raises ValueError when G is
    not positive definite (dependent rows).
    """
    n = len(gram)
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 0:
        return h, [1], []

    d = [0] * (n + 1)
    d[0] = 1
    d[1] = gram[0][0]
    if d[1] <= 0:
        raise ValueError("dependent rows")
    lam = [[0] * n for _ in range(n)]

    def gram_row(i):
        gi, li = gram[i], lam[i]
        for j in range(i + 1):
            u = sum(map(mul, gi[:i], h[j])) if j < i else gi[i]
            lj = lam[j]
            for t in range(j):
                u = (d[t + 1] * u - li[t] * lj[t]) // d[t]
            if j < i:
                li[j] = u
            else:
                if u <= 0:
                    raise ValueError("dependent rows")
                d[i + 1] = u

    def reduce_row(k, j):
        # Called when |mu[k][j]| > 1/2: row k minus q times row j, q the
        # integer nearest mu[k][j].  Rows up to kmax are 0 past column kmax.
        lkj, djj = lam[k][j], d[j + 1]
        q = (2 * lkj + djj) // (2 * djj)
        hk = h[k]
        hk[: kmax + 1] = [a - q * b for a, b in zip(hk, h[j][: kmax + 1])]
        lk = lam[k]
        lk[:j] = [a - q * b for a, b in zip(lk, lam[j][:j])]
        lk[j] = lkj - q * djj

    def swap_rows(k):
        h[k], h[k - 1] = h[k - 1], h[k]
        lk, lk1 = lam[k], lam[k - 1]
        lk[: k - 1], lk1[: k - 1] = lk1[: k - 1], lk[: k - 1]
        l = lk[k - 1]
        dk, dk1 = d[k], d[k + 1]
        bb = (d[k - 1] * dk1 + l * l) // dk
        for li in lam[k + 1 : kmax + 1]:
            t = li[k]
            li[k] = u = (dk1 * li[k - 1] - l * t) // dk
            li[k - 1] = (bb * t + l * u) // dk1
        d[k] = bb

    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            gram_row(k)
        lk = lam[k]
        if 2 * abs(lk[k - 1]) > d[k]:
            reduce_row(k, k - 1)
        l = lk[k - 1]
        if delta_den * (d[k + 1] * d[k - 1] + l * l) < delta_num * d[k] * d[k]:
            swap_rows(k)
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                if 2 * abs(lk[j]) > d[j + 1]:
                    reduce_row(k, j)
            k += 1
    return h, d, lam
