import random

from hypothesis import given, settings, strategies as st

from conftest import det, mat_eq_zero, mat_sub
from sugraverify import catalog, linalg
from sugraverify.clifford import ComplexScalar
from sugraverify.exactnum import Scalar, sqrt_scalar, ZERO


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
    assert det(m) == S(1)
    inv = linalg.inverse(m)
    assert mat_eq_zero(mat_sub(linalg.mat_mul(m, inv), linalg.eye(2)))


def test_det_singular():
    assert det(_mat([[1, 2], [2, 4]])).is_zero()


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
        assert mat_eq_zero(acc)


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


_R2 = sqrt_scalar(2)
_R3 = sqrt_scalar(3)
_RADICALS = {"Q(sqrt2)": _R2, "Q(sqrt3)": _R3}


def _field_entry(field, a, b, d):
    if field == "Q":
        return Scalar.from_rational(a, d)
    if field in _RADICALS:
        return Scalar.from_rational(a, d) + \
            Scalar.from_rational(b, d) * _RADICALS[field]
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


# ---------------------------------------------------------------------------
# the integer elimination against the field elimination it stands in for
# ---------------------------------------------------------------------------

_FIELD_RADICAND = {"Q": 1, "Q(sqrt2)": 2, "Q(sqrt3)": 3, "complex": -1}


def _quadratic_entry(rng, field, den):
    return _field_entry(field, rng.randint(-4, 4), rng.randint(-4, 4),
                        rng.randint(1, den))


def _quadratic_matrix(rng, field, n, m, den=3):
    """An n x m matrix over field, about half of its entries zero, with a
    combination of its first two rows appended half of the time (rank
    deficient)."""
    zero = _field_entry(field, 0, 0, 1)
    mat = [[_quadratic_entry(rng, field, den) if rng.random() < 0.5
            else zero for _ in range(m)] for _ in range(n)]
    if n >= 2 and rng.random() < 0.5:
        k = _quadratic_entry(rng, field, 2)
        mat.append([x + k * y for x, y in zip(mat[0], mat[1])])
    return mat


def _assert_same_rref(mat):
    rows, pivots = linalg.rref(mat)
    want, want_pivots = linalg._rref_field(mat)
    assert pivots == want_pivots
    assert len(rows) == len(want)
    for r, w in zip(rows, want):
        assert len(r) == len(w)
        for x, y in zip(r, w):
            assert type(x) is type(y) and (x - y).is_zero(), (x, y)


def test_integer_rref_matches_the_field_rref():
    rng = random.Random(11)
    for field, d in _FIELD_RADICAND.items():
        for _ in range(40):
            mat = _quadratic_matrix(rng, field, rng.randint(1, 7),
                                    rng.randint(1, 8))
            assert linalg._quadratic_radicand(mat) in (1, d)
            _assert_same_rref(mat)


def test_integer_rref_of_rank_deficient_and_empty_inputs():
    rng = random.Random(12)
    for field in _FIELD_RADICAND:
        row = [_quadratic_entry(rng, field, 3) for _ in range(5)]
        k = _quadratic_entry(rng, field, 2)
        mat = [row, [k * x for x in row], [x + x for x in row]]
        _assert_same_rref(mat)
        assert linalg.rank(mat) == (0 if all(x.is_zero() for x in row)
                                    else 1)
    for mat in ([], [[]], [[ZERO] * 4] * 3,
                [[ComplexScalar(0, 0)] * 3] * 2):
        _assert_same_rref(mat)
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[ZERO, ZERO]]) == ([[ZERO, ZERO]], [])


def test_integer_rref_with_large_denominators():
    rng = random.Random(13)
    for field in _FIELD_RADICAND:
        for _ in range(10):
            _assert_same_rref(_quadratic_matrix(rng, field, 5, 6,
                                                den=10 ** 30))


def test_integer_rref_of_scalar_zeros_beside_complex_entries():
    # kernel_dim's rows: complex entries with the Scalar zero filling the
    # rest, so that mat[0][0] may be a Scalar; the reduced entries are
    # still complex
    rng = random.Random(14)
    for _ in range(20):
        mat = [[_quadratic_entry(rng, "complex", 3) if rng.random() < 0.4
                else ZERO for _ in range(8)] for _ in range(6)]
        assert linalg._quadratic_radicand(mat) in (1, -1)
        _assert_same_rref(mat)
        for row in linalg.rref(mat)[0]:
            assert all(isinstance(x, ComplexScalar) for x in row
                       if not x.is_zero())


def _field_eliminations(monkeypatch):
    """The matrices that rref hands to the field elimination, recorded as
    they go."""
    seen = []
    field = linalg._rref_field

    def spy(mat):
        seen.append(mat)
        return field(mat)

    monkeypatch.setattr(linalg, "_rref_field", spy)
    return seen


def test_two_radicands_and_complex_radicals_take_the_field_path(
        monkeypatch):
    seen = _field_eliminations(monkeypatch)
    two = [[_R2, S(1)], [_R3, S(2)]]
    complex_r2 = [[ComplexScalar(_R2, S(1)), S(1)], [S(1), S(2)]]
    mixed = [[ComplexScalar(S(1), S(1)), _R2]]
    for mat in (two, complex_r2, mixed):
        assert linalg._quadratic_radicand(mat) is None
        assert linalg.rank(mat) == len(mat)
    assert seen == [two, complex_r2, mixed]


def test_verify_all_and_the_susy_rows_eliminate_over_the_integers(
        monkeypatch):
    seen = _field_eliminations(monkeypatch)
    integer = []
    monkeypatch.setattr(linalg, "_eliminate_integer",
                        lambda rows, m, d, run=linalg._eliminate_integer:
                        integer.append(d) or run(rows, m, d))
    counts = []
    monkeypatch.setattr(catalog, "susy_count",
                        lambda p, kind, run=catalog.susy_count:
                        counts.append(kind) or run(p, kind))
    for name in catalog.background_ids():
        assert catalog.verify_background(catalog.get_background(name)).passed
    catalog.table4_lines()
    assert len(counts) == 19
    assert not seen, f"field elimination of {seen[0]}"
    assert {1, 3, -1} <= set(integer)
