import random

from hypothesis import given, settings, strategies as st

from sugraverify import linalg
from sugraverify.clifford import ComplexScalar
from sugraverify.exactnum import Scalar, sqrt_scalar


def S(x):
    return Scalar(x)


def _mat(rows):
    return [[S(x) for x in r] for r in rows]


def test_rref_and_rank():
    m = _mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(m) == 2
    assert linalg.rank(linalg.eye(4)) == 4


def test_nullspace_exact():
    m = _mat([[1, 2, 3], [2, 4, 6]])
    basis = linalg.nullspace(m)
    assert len(basis) == 2
    for v in basis:
        out = [sum((m[i][j] * v[j] for j in range(3)), S(0)) for i in range(2)]
        assert all(x.is_zero() for x in out)


def test_nullspace_over_radical_tower():
    r2 = sqrt_scalar(S(2))
    m = [[S(1), r2], [r2, S(2)]]          # rank 1
    basis = linalg.nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert (m[0][0] * v[0] + m[0][1] * v[1]).is_zero()


def test_det_and_inverse():
    m = _mat([[2, 1], [1, 1]])
    assert linalg.det(m) == S(1)
    inv = linalg.inverse(m)
    assert linalg.mat_eq_zero(linalg.mat_sub(linalg.mat_mul(m, inv), linalg.eye(2)))


def test_det_singular():
    assert linalg.det(_mat([[1, 2], [2, 4]])).is_zero()


def test_charpoly_small():
    # diag(1,2): p(x) = x^2 - 3x + 2
    c = linalg.charpoly(_mat([[1, 0], [0, 2]]))
    assert c == [S(2), S(-3), S(1)]


def test_charpoly_random_cayley_hamilton():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = _mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        coeffs = linalg.charpoly(m)
        acc = linalg.zeros(n, n)
        power = linalg.eye(n)
        for k in range(n + 1):
            acc = linalg.mat_add(acc, linalg.mat_scale(power, coeffs[k]))
            power = linalg.mat_mul(power, m)
        assert linalg.mat_eq_zero(acc)


# ---------------------------------------------------------------------------
# the sparse rref against the dense Gauss-Jordan elimination it replaced
# ---------------------------------------------------------------------------

def _dense_rref(mat):
    """Reference: the first nonzero row of a column is its pivot, and every
    other row is updated over every column."""
    rows = [list(r) for r in mat]
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


_R3 = sqrt_scalar(3)


def _field_entry(field, a, b, d):
    if field == "Q":
        return Scalar.from_rational(a, d)
    if field == "Q(sqrt3)":
        return Scalar.from_rational(a, d) + Scalar.from_rational(b, d) * _R3
    return ComplexScalar(Scalar.from_rational(a, d), Scalar(b))


@st.composite
def _matrices(draw):
    """(field, matrix): entries in Q, Q(sqrt3) or Q(i); dense, half-sparse
    or sparse; sometimes with a row that combines two others."""
    field = draw(st.sampled_from(("Q", "Q(sqrt3)", "complex")))
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    zeros_per_nonzero = draw(st.sampled_from((0, 1, 4)))
    small = st.integers(-3, 3)
    mat = []
    for _ in range(n):
        row = []
        for _ in range(m):
            if draw(st.integers(0, zeros_per_nonzero)):
                row.append(_field_entry(field, 0, 0, 1))
            else:
                row.append(_field_entry(field, draw(small), draw(small),
                                        draw(st.integers(1, 3))))
        mat.append(row)
    if n >= 2 and draw(st.booleans()):
        k = _field_entry(field, draw(small), draw(small), 1)
        mat.append([x + k * y for x, y in zip(mat[0], mat[1])])
    return field, mat


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices())
def test_sparse_rref_matches_dense_gauss_jordan(case):
    field, mat = case
    rows, pivots = linalg.rref(mat)
    want, want_pivots = _dense_rref(mat)
    assert pivots == want_pivots, field
    assert len(rows) == len(want)
    for r, w in zip(rows, want):
        assert len(r) == len(w)
        assert all((x - y).is_zero() for x, y in zip(r, w)), field
