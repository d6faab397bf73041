"""Integer kernels: extended gcd, row HNF and all-integer LLL.

Everything works on plain lists of Python ints, so results are exact for
arbitrary magnitudes.  Their cost is big-integer arithmetic on entries
that grow inside the algorithms, which compiled code does not reduce.
"""


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


def hnf_rows(rows, ncols):
    """Row-style Hermite normal form.

    Returns the nonzero rows: echelon shape, positive pivots, entries
    above each pivot reduced into [0, pivot).  Zero rows are dropped, so
    the result is the canonical basis of the row lattice.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if not m[i][c]:
                continue
            a, b = m[r][c], m[i][c]
            g, x, y = xgcd(a, b)
            u, v = -(b // g), a // g
            ri, rj = m[r], m[i]
            for t in range(c, ncols):
                rt, it = ri[t], rj[t]
                ri[t] = x * rt + y * it
                rj[t] = u * rt + v * it
        if m[r][c] < 0:
            m[r] = [-t for t in m[r]]
        p = m[r][c]
        rr = m[r]
        for i in range(r):
            q = m[i][c] // p
            if q:
                ri = m[i]
                for t in range(c, ncols):
                    ri[t] -= q * rr[t]
        r += 1
        if r == nrows:
            break
    return m[:r]


def lll_rows(rows, delta_num, delta_den):
    """All-integer LLL reduction of a full-rank integer basis.

    Gram-Schmidt data is kept as the integers d[i] (leading principal
    Gram determinants) and lam[i][j] = mu[i][j] * d[j+1], so every
    division below is exact.  delta = delta_num/delta_den is the Lovász
    constant, 1/4 < delta <= 1.  Raises ValueError on dependent rows.
    """
    b = [list(r) for r in rows]
    n = len(b)
    if n == 0:
        return b
    ncols = len(b[0])

    def dot(u, v):
        s = 0
        for t in range(ncols):
            s += u[t] * v[t]
        return s

    d = [0] * (n + 1)
    d[0] = 1
    d[1] = dot(b[0], b[0])
    if d[1] <= 0:
        raise ValueError("dependent rows")
    lam = [[0] * n for _ in range(n)]

    def gram_row(i):
        for j in range(i + 1):
            u = dot(b[i], b[j])
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
            bk, bj = b[k], b[j]
            for t in range(ncols):
                bk[t] -= q * bj[t]
            lam[k][j] -= q * djj
            lk, lj = lam[k], lam[j]
            for t in range(j):
                lk[t] -= q * lj[t]

    def swap_rows(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
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
    return b
