"""Exact linear algebra over the scalar tower (or any exact field).

Matrices are lists of lists whose entries support +, -, *, .is_zero() and,
where division is required, .inverse().  Everything here is small (n <= 64).
rref eliminates over sparse {column: entry} rows, so its cost follows the
nonzero entries rather than the matrix size; det keeps plain Gaussian
elimination.
"""

from .exactnum import Scalar

__all__ = ["mat_mul", "mat_add", "mat_sub", "mat_neg", "mat_scale", "eye",
           "zeros", "transpose", "mat_eq_zero", "rref", "nullspace", "rank",
           "det", "charpoly", "inverse"]


def zeros(n, m, zero=None):
    z = Scalar(0) if zero is None else zero
    return [[z for _ in range(m)] for _ in range(n)]


def eye(n, one=None, zero=None):
    o = Scalar(1) if one is None else one
    z = Scalar(0) if zero is None else zero
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    zero = a[0][0] * 0
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            s = None
            for l in range(k):
                x = ai[l]
                if x.is_zero():
                    continue
                y = b[l][j]
                if y.is_zero():
                    continue
                p = x * y
                s = p if s is None else s + p
            row.append(zero if s is None else s)
        out.append(row)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in r] for r in a]


def mat_scale(a, c):
    return [[x * c for x in r] for r in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def mat_eq_zero(a):
    return all(x.is_zero() for r in a for x in r)


def rref(mat):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    The rows are eliminated as {column: entry} maps.  Each pivot is the
    sparsest remaining row with a nonzero entry in its column, and clearing
    that column from another row touches only the pivot row's nonzero
    entries.  The reduced form is unique, so the choice of pivot row changes
    neither the rows nor the pivots."""
    n = len(mat)
    m = len(mat[0]) if n else 0
    live = [{c: x for c, x in enumerate(r) if not x.is_zero()} for r in mat]
    live = [row for row in live if row]
    done, pivots = [], []
    for c in range(m):
        if not live:
            break
        cands = [row for row in live if c in row]
        if not cands:
            continue
        row = min(cands, key=len)
        live = [other for other in live if other is not row]
        inv = row[c].inverse()
        piv = {k: x * inv for k, x in row.items()}
        for other in live + done:
            f = other.get(c)
            if f is None:
                continue
            for k, y in piv.items():
                x = other.get(k)
                x = -(f * y) if x is None else x - f * y
                if x.is_zero():
                    other.pop(k, None)
                else:
                    other[k] = x
        live = [other for other in live if other]
        done.append(piv)
        pivots.append(c)
    zero = mat[0][0] * 0 if m else None
    rows = [[row.get(k, zero) for k in range(m)] for row in done]
    return rows + [[zero] * m for _ in range(n - len(done))], pivots


def rank(mat):
    if not mat:
        return 0
    return len(rref(mat)[1])


def nullspace(mat, ncols=None):
    """Exact basis of {v : mat @ v = 0}; returns list of column vectors."""
    o, z = Scalar(1), Scalar(0)
    if not mat:
        n = ncols or 0
        return [[o if i == j else z for i in range(n)] for j in range(n)]
    m = len(mat[0])
    rows, pivots = rref(mat)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free:
        v = [z] * m
        v[f] = o
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def det_nodiv(mat):
    """Division-free determinant (cofactor expansion with zero skipping);
    works for polynomial entries.  Small matrices only."""
    n = len(mat)
    if n == 0:
        return Scalar(1)

    cols = tuple(range(n))
    memo = {}

    def minor(row, cs):
        if not cs:
            return Scalar(1)
        key = (row, cs)
        if key in memo:
            return memo[key]
        total = None
        sign = 1
        for pos, c in enumerate(cs):
            e = mat[row][c]
            if not e.is_zero():
                rest = cs[:pos] + cs[pos + 1:]
                sub = minor(row + 1, rest)
                term = e * sub
                if sign < 0:
                    term = -term
                total = term if total is None else total + term
            sign = -sign
        out = mat[0][0] * 0 if total is None else total
        memo[key] = out
        return out

    return minor(0, cols)


def det(mat):
    """Determinant by fraction-producing Gaussian elimination (exact field)."""
    n = len(mat)
    rows = [list(r) for r in mat]
    sign = 1
    d = None
    for c in range(n):
        piv = next((i for i in range(c, n) if not rows[i][c].is_zero()), None)
        if piv is None:
            return rows[0][0] * 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        p = rows[c][c]
        d = p if d is None else d * p
        inv = p.inverse()
        for i in range(c + 1, n):
            if rows[i][c].is_zero():
                continue
            f = rows[i][c] * inv
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d if sign == 1 else -d


def inverse(mat):
    n = len(mat)
    aug = [list(mat[i]) + [Scalar(1) if i == j else Scalar(0) for j in range(n)]
           for i in range(n)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [r[n:] for r in rows]


def charpoly(mat):
    """Monic characteristic polynomial coefficients [c_0, ..., c_n] with
    p(x) = sum c_k x^k, c_n = 1, via Faddeev-LeVerrier (exact; needs
    division by small integers only)."""
    n = len(mat)
    coeffs = [Scalar(0)] * (n + 1)
    coeffs[n] = Scalar(1)
    M = eye(n)
    c = Scalar(1)
    for k in range(1, n + 1):
        AM = mat_mul(mat, M)
        tr = Scalar(0)
        for i in range(n):
            tr = tr + AM[i][i]
        c = tr * Scalar.from_rational(-1, k)
        coeffs[n - k] = c
        M = mat_add(AM, mat_scale(eye(n), c))
    return coeffs
