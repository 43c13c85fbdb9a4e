"""Exact linear algebra over the scalar tower (or any exact field).

Matrices are lists of lists whose entries support +, -, *, .is_zero() and,
where division is required, .inverse().  Everything here is small (n <= 64).
rref eliminates over sparse {column: entry} rows, so its cost follows the
nonzero entries rather than the matrix size.

When every entry lies in one quadratic field -- Q, Q(sqrt d) for one
square-free d, or Q(i) -- rref eliminates fraction-free in Python ints:
each row becomes {column: (A, B)} with
A + B sqrt(d) integers (d = 1 for Q, -1 for Q(i)), and only the reduced
rows, or a null-space basis, become exact scalars.  Any other matrix is
eliminated over its entries' own field operations.
"""

from fractions import Fraction
from math import gcd, lcm

from .exactnum import Scalar, ComplexScalar, ZERO, ONE, _mk

__all__ = ["mat_mul", "mat_add", "mat_scale", "eye", "zeros", "transpose",
           "rref", "nullspace", "rank", "charpoly", "inverse"]


def zeros(n, m):
    return [[ZERO] * m for _ in range(n)]


def eye(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


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


def mat_scale(a, c):
    return [[x * c for x in r] for r in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def rref(mat):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    The rows are eliminated as {column: entry} maps.  Each pivot is the
    sparsest remaining row with a nonzero entry in its column, and clearing
    that column from another row touches only the pivot row's nonzero
    entries.  The reduced form is unique, so the choice of pivot row, and
    whether the integer or the field elimination runs, changes neither the
    rows nor the pivots."""
    d = _quadratic_radicand(mat)
    if d is None:
        return _rref_field(mat)
    m = len(mat[0]) if mat else 0
    done, pivots = _eliminate_integer([_integer_row(r, d) for r in mat], m, d)
    zero = mat[0][0] * 0 if m else None
    rows = [[zero] * m for _ in mat]
    for out, row, c in zip(rows, done, pivots):
        for k, (a, b) in row.items():
            out[k] = _quadratic_scalar(a, b, row[c][0], d)
    return rows, pivots


def _quadratic_radicand(mat):
    """d of the one field Q(sqrt d) that holds every entry of mat: 1 for
    Q, a square-free d > 1, or -1 for complex entries with rational parts;
    None for anything else (two radicands, a complex entry with a radical,
    an entry that is not a Scalar or a ComplexScalar)."""
    d = 1
    for row in mat:
        for x in row:
            if type(x) is Scalar:
                irr = x._irr
                if irr is None:
                    continue
                if len(irr) != 1:
                    return None
                r = next(iter(irr))
            elif type(x) is ComplexScalar:
                re, im = x.re, x.im
                if type(re) is not Scalar or type(im) is not Scalar or \
                        re._irr is not None or im._irr is not None:
                    return None
                r = -1
            else:
                return None
            if d == 1:
                d = r
            elif d != r:
                return None
    return d


def _primitive(row):
    """row divided, in place, by the gcd of its integers."""
    g = gcd(*[v for ab in row.values() for v in ab])
    if g > 1:
        for k, (a, b) in row.items():
            row[k] = (a // g, b // g)
    return row


def _integer_row(row, d):
    """A row of Q(sqrt d) entries as {column: (A, B)}, A + B sqrt(d) with
    A, B integers: the entries times the lcm of their denominators, divided
    by their content."""
    parts, den = {}, 1
    for k, x in enumerate(row):
        if x is ZERO:
            continue
        if type(x) is Scalar:
            a, irr = x._q, x._irr
            b = 0 if irr is None else irr[d]
        else:
            a, b = x.re._q, x.im._q
        if a or b:
            den = lcm(den, a.denominator, b.denominator)
            parts[k] = (a, b)
    return _primitive({k: (a.numerator * (den // a.denominator),
                           b.numerator * (den // b.denominator))
                       for k, (a, b) in parts.items()})


def _eliminate_integer(rows, m, d):
    """(reduced rows, pivots) of rows {column: (A, B)} over Q(sqrt d) with m
    columns, eliminated fraction-free in place: a pivot row is multiplied by
    its pivot's conjugate, so the pivot is an integer p, and clearing its
    column from a row with entry f there is  row <- p row - f pivot_row
    (both divided by gcd(p, f) first), after which the row is divided by its
    content.  A reduced row keeps its integer pivot; it is divided by it
    only when exact scalars are built."""
    live = [row for row in rows if row]
    done, pivots = [], []
    for c in range(m):
        if not live:
            break
        cands = [row for row in live if c in row]
        if not cands:
            continue
        row = min(cands, key=len)
        live = [other for other in live if other is not row]
        p0, p1 = row[c]
        if p1:
            row = _primitive({k: (a * p0 - d * b * p1, b * p0 - a * p1)
                              for k, (a, b) in row.items()})
        p = row[c][0]
        for other in live + done:
            f = other.get(c)
            if f is None:
                continue
            f0, f1 = f
            g = gcd(p, f0, f1)
            s, f0, f1 = p // g, f0 // g, f1 // g
            if s != 1:
                for k, (a, b) in other.items():
                    other[k] = (s * a, s * b)
            for k, (a, b) in row.items():
                if f1:
                    a, b = f0 * a + d * f1 * b, f0 * b + f1 * a
                else:
                    a, b = f0 * a, f0 * b
                x = other.get(k)
                if x is not None:
                    a, b = x[0] - a, x[1] - b
                    if not (a or b):
                        del other[k]
                        continue
                else:
                    a, b = -a, -b
                other[k] = (a, b)
            if other:
                _primitive(other)
        live = [other for other in live if other]
        done.append(row)
        pivots.append(c)
    return done, pivots


def _integer_basis(done, pivots, m, d):
    """Null space basis of _eliminate_integer's rows: per free column f, 1 at
    f and, at each pivot, minus the pivot row's entry at f over the pivot."""
    basis = []
    for f in [c for c in range(m) if c not in pivots]:
        v = [ZERO] * m
        v[f] = ONE
        for row, c in zip(done, pivots):
            x = row.get(f)
            if x is not None:
                v[c] = _quadratic_scalar(-x[0], -x[1], row[c][0], d)
        basis.append(v)
    return basis


def _quadratic_scalar(a, b, p, d):
    """(a + b sqrt(d)) / p for integers a, b, p, as a Scalar, or as a
    ComplexScalar for d = -1."""
    if d == -1:
        return ComplexScalar(_mk(Fraction(a, p)), _mk(Fraction(b, p)))
    return _mk(Fraction(a, p), {d: Fraction(b, p)} if b else None)


def _rref_field(mat):
    """rref by the entries' own field operations, for matrices outside one
    quadratic field."""
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
    if not mat:
        return eye(ncols or 0)
    m = len(mat[0])
    d = _quadratic_radicand(mat)
    if d is not None:
        return _integer_basis(*_eliminate_integer(
            [_integer_row(r, d) for r in mat], m, d), m, d)
    rows, pivots = _rref_field(mat)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * m
        v[f] = ONE
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
