import random
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from conftest import det, mat_eq_zero, mat_sub
from sugraverify import linalg
from sugraverify.exactnum import Scalar, Polynomial, sqrt_scalar
from sugraverify.multilinear import KForm, QuadraticSpace, wedge, interior, \
    accumulate
from sugraverify.clifford import (
    ComplexScalar, build_gamma, FrameAlgebra, CliffordElement,
    clifford_action, omega_xf, kernel_dim, chiral_basis)


def S(x):
    return Scalar(x)


@pytest.fixture(scope="module")
def rep_1_10():
    return build_gamma((1, 10))


@pytest.fixture(scope="module")
def rep_1_9():
    return build_gamma((1, 9))


@pytest.fixture(scope="module")
def alg_1_10(rep_1_10):
    return FrameAlgebra.orthonormal(rep_1_10)


# ---------------------------------------------------------------------------
# representation construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sig", [(1, 10), (1, 9)])
def test_clifford_relations(sig):
    # the constructor asserts gamma_a gamma_b + gamma_b gamma_a = 2 eta_ab
    rep = build_gamma(sig)
    assert rep.spinor_dim >= 1
    assert len(rep.gammas) == sum(sig)


def test_unsupported_signature():
    # only the signatures of d=11 and type-II supergravity are built
    for sig in ((2, 3), (1, 5), (1, 2), (0, 1), (0, 4)):
        with pytest.raises(ValueError, match="unsupported signature"):
            build_gamma(sig)


def test_volume_element_minus_identity_1_10(rep_1_10):
    assert rep_1_10.volume_spmat().is_minus_identity()
    assert rep_1_10.spinor_dim == 32


def test_chirality_1_9(rep_1_9):
    chi = rep_1_9.chirality
    assert (chi @ chi).is_identity()
    for g in rep_1_9.gammas:
        left = chi @ g
        right = g @ chi
        # anticommute: left = -right
        assert left.perm == right.perm
        assert all(a == -b for a, b in zip(left.vals, right.vals))
    # half-spinor spaces have dimension 16
    alg = FrameAlgebra.orthonormal(rep_1_9)
    assert len(chiral_basis(alg, 1)) == 16
    assert len(chiral_basis(alg, -1)) == 16
    # built once per representation, whatever the frame
    assert chiral_basis(FrameAlgebra.lightcone(rep_1_9), 1) is \
        chiral_basis(alg, 1)


# ---------------------------------------------------------------------------
# clifford action
# ---------------------------------------------------------------------------

def test_action_identity(alg_1_10):
    one = clifford_action(KForm.scalar(alg_1_10.space, S(1)), alg_1_10)
    assert one.comps == {(): S(1)}


def test_action_square_is_eta(alg_1_10):
    for a in [0, 1, 10]:
        g = clifford_action(KForm.basis(alg_1_10.space, a), alg_1_10)
        sq = g * g
        want = alg_1_10.space.metric_inv[a][a]
        assert sq.comps == {(): want}


def test_action_volume_is_minus_one(alg_1_10):
    vol = KForm.basis(alg_1_10.space, *range(11))
    dense = clifford_action(vol, alg_1_10).realize()
    # eta has one timelike leg: raising all indices gives a sign -1, and the
    # volume element of the representation acts as -1, so c(dvol) = +-1;
    # the recorded convention (volume element acts as minus the identity)
    # the normalized volume element gamma_0...gamma_10 which the rep pins.
    expect = linalg.mat_scale(linalg.eye(32), S(-1) * alg_1_10.space.metric_inv[0][0])
    assert mat_eq_zero(mat_sub(dense, expect))


def test_action_algebra_map_on_disjoint_products(alg_1_10):
    rng = random.Random(31)
    for _ in range(25):
        k1 = rng.randint(1, 3)
        k2 = rng.randint(1, 3)
        idx = rng.sample(range(11), k1 + k2)
        a = KForm.basis(alg_1_10.space, *sorted(idx[:k1]))
        b = KForm.basis(alg_1_10.space, *sorted(idx[k1:]))
        lhs = clifford_action(wedge(a, b), alg_1_10)
        rhs = clifford_action(a, alg_1_10) * clifford_action(b, alg_1_10)
        assert (lhs - rhs).is_zero()


def _sparse_mul(a, b):
    """Product of sparse matrices {row: {col: entry}}."""
    out = {}
    for i, row in a.items():
        acc = {}
        for k, x in row.items():
            for j, y in b.get(k, {}).items():
                accumulate(acc, j, x * y)
        if acc:
            out[i] = acc
    return out


def _sparse_add(out, m, coef):
    """out += coef * m, in place, for sparse matrices."""
    if coef.is_zero():
        return
    for i, row in m.items():
        acc = out.setdefault(i, {})
        for j, x in row.items():
            accumulate(acc, j, x * coef)
        if not acc:
            del out[i]


def _dense_action_oracle(form, alg):
    """Independent c(form): average over permutations of products of raised
    frame gammas, built from the dense orthonormal gammas and multiplied as
    sparse {row: {col: entry}} matrices; returned dense."""
    N = alg.rep.spinor_dim
    n = alg.space.dim
    hat = []
    for c in range(n):
        dense = alg.rep.gamma_dense(c)
        hat.append({i: {j: x for j, x in enumerate(row) if not x.is_zero()}
                    for i, row in enumerate(dense)})
    # frame gamma_a = sum_c M[a][c] gammahat_c, raised with the inverse Gram
    frame = []
    for a in range(n):
        m = {}
        for c in range(n):
            _sparse_add(m, hat[c], alg.frame_map[a][c])
        frame.append(m)
    raised = []
    for a in range(n):
        m = {}
        for b in range(n):
            _sparse_add(m, frame[b], alg.space.metric_inv[a][b])
        raised.append(m)
    one = {i: {i: S(1)} for i in range(N)}
    out = {}
    for idx, c in form.components.items():
        k = len(idx)
        for perm in permutations(range(k)):
            m = one
            for p in perm:
                m = _sparse_mul(m, raised[idx[p]])
            _sparse_add(out, m, c * Scalar.from_rational(_perm_sign(perm),
                                                         factorial(k)))
    dense = linalg.zeros(N, N)
    for i, row in out.items():
        for j, x in row.items():
            dense[i][j] = x
    return dense


def _perm_sign(perm):
    sgn = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sgn = -sgn
    return sgn


def test_action_matches_dense_antisymmetrization_oracle():
    rep = build_gamma((1, 9))
    alg = FrameAlgebra.lightcone(rep)
    rng = random.Random(5)
    for _ in range(4):
        k = rng.randint(1, 3)
        idx = tuple(sorted(rng.sample(range(10), k)))
        form = KForm.basis(alg.space, *idx)
        got = clifford_action(form, alg).realize()
        want = _dense_action_oracle(form, alg)
        assert mat_eq_zero(mat_sub(got, want))


# ---------------------------------------------------------------------------
# Omega_X(F), the d=11 flux term
# ---------------------------------------------------------------------------

def test_omega_zero_flux(alg_1_10):
    F = KForm.zero(alg_1_10.space, 4)
    X = [S(1)] + [S(0)] * 10
    assert omega_xf(X, F, alg_1_10).is_zero()


def test_omega_vanishes_when_both_terms_do(alg_1_10):
    # X along e4, F = e0^e1^e2^e3 ... then iota_X F = 0 but X^flat ^ F != 0;
    # instead pick F containing X's leg and X^flat ^ F = 0 with iota != 0 is
    # nonzero.  The genuinely-zero case: F = 0 legs disjoint plus degree
    # overflow does not apply at degree 4 in dim 11, so build the zero case
    # from linearity: X with zero components.
    F = KForm.basis(alg_1_10.space, 0, 1, 2, 3)
    X = [S(0)] * 11
    assert omega_xf(X, F, alg_1_10).is_zero()


def test_omega_cw11_flux_exact_and_nilpotency():
    rep = build_gamma((1, 10))
    alg = FrameAlgebra.lightcone(rep)       # (e+, e-, e1..e9)
    mu = S(6)
    F = KForm.basis(alg.space, 1, 2, 3, 4, coeff=mu)   # mu e- ^ e1 ^ e2 ^ e3

    # lightcone direction E- (frame index 1)
    X = [S(0)] * 11
    X[1] = S(1)
    om = omega_xf(X, F, alg)
    got = om.realize()
    want = mat_sub(
        linalg.mat_scale(_dense_action_oracle(
            wedge(KForm.basis(alg.space, 0), F), alg), Scalar.from_rational(1, 12)),
        linalg.mat_scale(_dense_action_oracle(
            interior(X, F), alg), Scalar.from_rational(1, 6)))
    assert mat_eq_zero(mat_sub(got, want))
    # recorded: Omega_{E-}(F) is invertible, not nilpotent (det != 0)
    assert not det(got).is_zero()

    # transverse directions give nilpotent operators of degree 2
    Y = [S(0)] * 11
    Y[2] = S(1)
    omy = omega_xf(Y, F, alg)
    assert not omy.is_zero()
    assert (omy * omy).is_zero()


# ---------------------------------------------------------------------------
# the invariant pairing
# ---------------------------------------------------------------------------

def spinor_pairing_matrix(alg):
    """The gamma_0-based charge conjugation pairing (psi, chi) = psi^T C chi.
    For (1,10) C is antisymmetric (a spin-invariant symplectic form); the
    tests below check its spin invariance rather than assume it."""
    return alg.rep.gamma_dense(0)


def test_pairing_is_antisymmetric_and_gamma_compatible(alg_1_10):
    C = spinor_pairing_matrix(alg_1_10)
    Ct = linalg.transpose(C)
    assert mat_eq_zero(linalg.mat_add(Ct, C))
    # (gamma_a psi, chi) = sigma (psi, gamma_a chi) with one sign for all a;
    # the constructed pairing yields sigma = -1 (recorded convention)
    for a in range(11):
        g = alg_1_10.rep.gamma_dense(a)
        lhs = linalg.mat_mul(linalg.transpose(g), C)
        rhs = linalg.mat_scale(linalg.mat_mul(C, g), S(-1))
        assert mat_eq_zero(mat_sub(lhs, rhs))


def test_pairing_spin_invariance(alg_1_10):
    # C gamma_{ab} = -gamma_{ab}^T C for all generators of the spin algebra
    C = spinor_pairing_matrix(alg_1_10)
    rng = random.Random(8)
    for _ in range(8):
        a, b = rng.sample(range(11), 2)
        gab = linalg.mat_mul(alg_1_10.rep.gamma_dense(a),
                             alg_1_10.rep.gamma_dense(b))
        lhs = linalg.mat_mul(C, gab)
        rhs = linalg.mat_mul(linalg.transpose(gab), C)
        assert mat_eq_zero(linalg.mat_add(lhs, rhs))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_empty_list_full_space(alg_1_10):
    dim, basis = kernel_dim([], alg_1_10)
    assert dim == 32 and len(basis) == 32


def test_kernel_identity_trivial(alg_1_10):
    dim, _ = kernel_dim([alg_1_10.identity()], alg_1_10)
    assert dim == 0


def test_dilatino_lightcone_half_kernel():
    # c(b dx^-) on flat E^{1,9}: the lightcone gamma has half rank, so the
    # kernel is 16-dimensional (the parallelisable-background count)
    rep = build_gamma((1, 9))
    alg = FrameAlgebra.lightcone(rep)
    op = clifford_action(KForm.basis(alg.space, 1, coeff=S(3)), alg)
    dim, basis = kernel_dim([op], alg)
    assert dim == 16
    assert _svd_rank_oracle([op], alg) == 32 - 16


def _svd_rank_oracle(ops, alg):
    mats = []
    for op in ops:
        m = op.realize() if hasattr(op, "realize") else op
        mats.append(np.array([[_tofloat(x) for x in row] for row in m]))
    stacked = np.vstack(mats)
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int((sv > 1e-9 * max(1.0, sv[0])).sum())


def _tofloat(x):
    if isinstance(x, ComplexScalar):
        return complex(float(x.re), float(x.im))
    return float(x)


def test_kernel_matches_svd_oracle_random(alg_1_10):
    rng = random.Random(77)
    space = alg_1_10.space
    for _ in range(6):
        ops = []
        for _ in range(rng.randint(1, 2)):
            k = rng.choice([1, 2, 3])
            comps = {}
            for _ in range(rng.randint(1, 3)):
                idx = tuple(sorted(rng.sample(range(11), k)))
                comps[idx] = S(rng.randint(-2, 2))
            ops.append(clifford_action(KForm(space, k, comps), alg_1_10))
        dim, basis = kernel_dim(ops, alg_1_10)
        assert dim == 32 - _svd_rank_oracle(ops, alg_1_10)
        # verify basis vectors are annihilated
        for op in ops:
            m = op.realize()
            for v in basis:
                out = [sum((m[i][j] * v[j] for j in range(32)), S(0))
                       for i in range(32)]
                assert all(x.is_zero() for x in out)


def test_complex_scalar_field_ops():
    i = ComplexScalar(0, 1)
    assert (i * i) == ComplexScalar(-1, 0)
    z = ComplexScalar(S(3), S(4))
    zi = z.inverse()
    assert (z * zi) == ComplexScalar(1, 0)
    assert (z * ComplexScalar(z.re, -z.im)).im.is_zero()


# ---------------------------------------------------------------------------
# invariants as exceptions; kernels and brackets against dense references
# ---------------------------------------------------------------------------

def test_frame_map_not_reproducing_the_gram_raises():
    rep = build_gamma((1, 9))
    space = QuadraticSpace(linalg.eye(10))         # no timelike leg
    with pytest.raises(ValueError, match="Gram"):
        FrameAlgebra(space, rep)
    # the check is an exception, so python -O keeps it
    import subprocess
    import sys
    from conftest import checkout_env
    code = ("from sugraverify import linalg\n"
            "from sugraverify.clifford import build_gamma, FrameAlgebra\n"
            "from sugraverify.multilinear import QuadraticSpace\n"
            "try:\n"
            "    FrameAlgebra(QuadraticSpace(linalg.eye(10)), "
            "build_gamma((1, 9)))\n"
            "except ValueError as e:\n"
            "    print('ValueError:', e)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=checkout_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "ValueError: frame map does not reproduce the Gram" in proc.stdout


def test_lightcone_frame_map_with_a_flipped_off_diagonal_entry_raises():
    # M[1][0] = +1/2 makes gamma_- = (gammahat_9 + gammahat_0)/2, still null
    # but orthogonal to gamma_+: only the off-diagonal B(e+, e-) = 1 fails
    rep = build_gamma((1, 9))
    alg = FrameAlgebra.lightcone(rep)
    M = [row[:] for row in alg.frame_map]
    M[1][0] = Scalar.from_rational(1, 2)
    with pytest.raises(ValueError,
                       match="frame map does not reproduce the Gram matrix"):
        FrameAlgebra(alg.space, rep, M)


_XY = ("x1", "x2")


def _random_poly(rng):
    """A random Polynomial in x1, x2 of degree <= 1 (possibly zero)."""
    terms = {}
    for exp in ((0, 0), (1, 0), (0, 1)):
        c = rng.choice((0, 0, 1, -1, 2))
        if c:
            terms[exp] = S(c)
    return Polynomial(_XY, terms)


def _random_small(rng):
    """A random small rational (possibly zero)."""
    return Scalar.from_rational(rng.choice((0, 1, -1, 2, -2, 3)),
                                rng.choice((1, 2, 3)))


def _random_coeff(rng):
    if rng.random() < 0.5:
        return _random_small(rng)
    return ComplexScalar(_random_small(rng), _random_small(rng))


def _random_rational(rng):
    return Scalar.from_rational(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2))


def _random_element(alg, rng, terms=3, degree=3, coeff=_random_coeff):
    comps = {}
    for _ in range(terms):
        k = rng.randint(0, degree)
        comps[tuple(sorted(rng.sample(range(alg.space.dim), k)))] = coeff(rng)
    return alg.element(comps)


def _dense_kernel(ops, columns):
    """Reference kernel: realize() times each sparse column, one row per row
    of each realized matrix, then linalg.nullspace."""
    rows = []
    for op in ops:
        for row in op.realize():
            out = []
            for col in columns:
                x = S(0)
                for j, b in col.items():
                    if not row[j].is_zero():
                        x = row[j] * b + x
                out.append(x)
            rows.append(out)
    return linalg.nullspace(rows, ncols=len(columns))


def test_chiral_kernel_matches_dense_reference(rep_1_9):
    alg = FrameAlgebra.lightcone(rep_1_9)
    gminus = alg.raised_gamma(1)        # c(e^-): a null leg, half rank
    rng = random.Random(2024)
    cases = []
    for trial in range(4):
        ops = [_random_element(alg, rng) * gminus
               for _ in range(rng.randint(1, 2))]
        if trial % 2:
            ops.append(_random_element(alg, rng, terms=2))
        cases.append(ops)
    # an operator repeated and added -1, 2 and i times over: every row of
    # the copies is a multiple of a row of the first, and reaches rref
    op = cases[0][0]
    i = ComplexScalar(0, 1)
    cases.append([op, op, op.scale(S(-1)), op.scale(S(2)), op.scale(i)])
    full = [{j: S(1)} for j in range(rep_1_9.spinor_dim)]
    dims = set()
    for ops in cases:
        for cols in (chiral_basis(alg, 1), chiral_basis(alg, -1), full):
            dim, basis = kernel_dim(ops, alg, columns=cols)
            want = _dense_kernel(ops, cols)
            assert dim == len(want)
            for v, w in zip(basis, want):
                assert all((a - b).is_zero() for a, b in zip(v, w))
            dims.add(dim)
    assert len(dims) > 1, dims         # both trivial and larger kernels


def test_kernel_columns_other_than_plus_or_minus_one_raise(rep_1_9):
    # the rows are built from signs alone, so a column entry that is not
    # +-1 is refused, by an exception that python -O keeps
    alg = FrameAlgebra.lightcone(rep_1_9)
    op = alg.raised_gamma(1)
    for x in (S(2), Scalar.from_rational(1, 2), S(0), ComplexScalar(0, 1),
              sqrt_scalar(S(2))):
        cols = [{0: S(1)}, {1: S(1), 2: x}]
        with pytest.raises(ValueError, match="not \\+-1"):
            kernel_dim([op], alg, columns=cols)
    cols = [{0: S(-1)}, {1: S(1), 2: ComplexScalar(-1, 0)}]
    assert kernel_dim([op], alg, columns=cols)[0] == \
        len(_dense_kernel([op], cols))


def test_kernels_outside_one_quadratic_field_take_the_field_route(
        rep_1_9, monkeypatch):
    alg = FrameAlgebra.lightcone(rep_1_9)
    gminus = alg.raised_gamma(1)
    r2, r3 = sqrt_scalar(S(2)), sqrt_scalar(S(3))
    i = ComplexScalar(0, 1)
    two_radicands = [alg.element({(2,): r2, (3, 4): r3, (): S(1)}) * gminus]
    complex_radical = [alg.element({(): i * r2, (2, 5): S(1)}) * gminus,
                       alg.element({(3,): S(2), (4,): r2}) * gminus]
    one_radicand = [alg.element({(2,): r2, (3, 4): S(3)}) * gminus]
    integer, field = [], []
    monkeypatch.setattr(linalg, "_eliminate_integer",
                        lambda rows, m, d, run=linalg._eliminate_integer:
                        integer.append(d) or run(rows, m, d))
    monkeypatch.setattr(linalg, "_rref_field",
                        lambda mat, run=linalg._rref_field:
                        field.append(mat) or run(mat))
    full = [{j: S(1)} for j in range(rep_1_9.spinor_dim)]
    dims = set()
    for ops, route in ((two_radicands, "field"), (complex_radical, "field"),
                       (one_radicand, 2)):
        for cols in (chiral_basis(alg, 1), chiral_basis(alg, -1), full):
            del integer[:], field[:]
            dim, basis = kernel_dim(ops, alg, columns=cols)
            if route == "field":
                assert field and not integer
            else:
                assert integer == [route] and not field
            want = _dense_kernel(ops, cols)
            assert dim == len(want)
            for v, w in zip(basis, want):
                assert all((a - b).is_zero() for a, b in zip(v, w))
            dims.add(dim)
    assert 0 < min(dims) and len(dims) > 1, dims


def test_commutator_equals_difference_of_products(rep_1_9):
    alg = FrameAlgebra.lightcone(rep_1_9)
    rng = random.Random(5)
    for _ in range(12):
        x = _random_element(alg, rng, terms=rng.randint(1, 4))
        y = _random_element(alg, rng, terms=rng.randint(1, 4))
        assert (x.commutator(y) - (x * y - y * x)).is_zero()
    # commuting monomials give an exact zero bracket
    g01 = alg.element({(0, 1): S(1)})
    assert g01.commutator(alg.element({(2, 3): S(1)})).is_zero()


def _linked_frame_algebra(rep, rng):
    """A FrameAlgebra whose Gram matrix M eta M^T comes from a random
    rational frame map M and has no zero off-diagonal entry, so that every
    pair of indices is linked."""
    n = rep.n
    eta = linalg.zeros(n, n)
    for a in range(n):
        eta[a][a] = rep.eta[a]
    while True:
        M = [[Scalar.from_rational(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(n)] for _ in range(n)]
        if det(M).is_zero():
            continue
        G = linalg.mat_mul(M, linalg.mat_mul(eta, linalg.transpose(M)))
        if all(not G[a][b].is_zero() for a in range(n) for b in range(n)
               if a != b):
            return FrameAlgebra(QuadraticSpace(G), rep, M)


@pytest.mark.parametrize("frame,sig", [("lightcone", (1, 9)),
                                       ("lightcone", (1, 10)),
                                       ("orthonormal", (1, 10)),
                                       ("linked", (1, 10))])
def test_commutator_matches_difference_of_products_on_every_frame(frame, sig):
    # the j = 0 term alone on pairs with no contractible leg, and the odd
    # terms of Wick's rule (mono_bracket) on the others
    rng = random.Random(23)
    rep = build_gamma(sig)
    if frame == "linked":
        alg = _linked_frame_algebra(rep, rng)
    else:
        alg = getattr(FrameAlgebra, frame)(rep)
    nonzero = 0
    for _ in range(10):
        x = _random_element(alg, rng, terms=rng.randint(1, 4), degree=5)
        y = _random_element(alg, rng, terms=rng.randint(1, 4), degree=5)
        got = x.commutator(y)
        assert (got - (x * y - y * x)).is_zero()
        nonzero += not got.is_zero()
    assert nonzero >= 5
    # a pair sharing leg 0, which in a lightcone frame is null and
    # contracts only with e-: its one Wick term repeats a leg
    x, y = alg.element({(0, 2): S(1)}), alg.element({(0, 3): S(1)})
    got = x.commutator(y)
    assert (got - (x * y - y * x)).is_zero()
    assert got.is_zero() == (frame == "lightcone")


# ---------------------------------------------------------------------------
# Wick's rule on antisymmetrized monomials, against the orthonormal words
# ---------------------------------------------------------------------------

_FRAMES = [("lightcone", (1, 9)), ("lightcone", (1, 10)),
           ("orthonormal", (1, 10)), ("linked", (1, 10))]


def _frame_algebra(frame, sig, rng):
    rep = build_gamma(sig)
    if frame == "linked":
        return _linked_frame_algebra(rep, rng)
    return getattr(FrameAlgebra, frame)(rep)


@pytest.mark.parametrize("frame,sig", _FRAMES)
def test_product_matches_the_product_of_realized_matrices(frame, sig):
    # realize() goes through the orthonormal words of each monomial, not
    # through mono_mul, so this checks Wick's rule and its signs
    rng = random.Random(41)
    alg = _frame_algebra(frame, sig, rng)
    # a random frame map has dense rows, so its words grow fast with degree;
    # rational coefficients keep the realized matrices cheap
    degree = 2 if frame == "linked" else 3
    pairs = [tuple(_random_element(alg, rng, rng.randint(1, 3), degree,
                                   coeff=_random_rational) for _ in range(2))
             for _ in range(6)]
    # lightcone legs on both sides: gamma_[+-] gamma_[+-] and gamma_[+]
    # gamma_[+-] need contractions with both e+ and e-
    pairs.append((alg.element({(0, 1): S(1)}), alg.element({(0, 1, 2): S(1)})))
    pairs.append((alg.element({(0,): S(1)}), alg.element({(0, 1): S(1)})))
    for x, y in pairs:
        want = linalg.mat_mul(x.realize(), y.realize())
        assert mat_eq_zero(mat_sub((x * y).realize(), want)), \
            (x, y)


def _action_by_recursion(alg, idx, cache):
    """c(e^idx) by c(e^a ^ beta) = c(e^a) c(beta) - c(iota_{a#} beta), with
    a the first leg: the Clifford action built from products, as a
    reference for index raising."""
    out = cache.get(idx)
    if out is not None:
        return out
    if len(idx) <= 1:
        out = alg.raised_gamma(idx[0]) if idx else alg.identity()
    else:
        a, rest = idx[0], idx[1:]
        inner = interior(list(alg.space.metric_inv[a]),
                         KForm.basis(alg.space, *rest))
        out = alg.raised_gamma(a) * _action_by_recursion(alg, rest, cache)
        for j, c in inner.components.items():
            out = out - _action_by_recursion(alg, j, cache).scale(c)
    cache[idx] = out
    return out


@pytest.mark.parametrize("frame,sig", _FRAMES)
def test_clifford_action_matches_the_product_recursion(frame, sig):
    rng = random.Random(43)
    alg = _frame_algebra(frame, sig, rng)
    n = alg.space.dim
    cache = {}
    # on the linked frame every leg contracts with every other, so the
    # reference products grow fast: one component per degree there
    terms = 1 if frame == "linked" else 2
    for k in range(6):
        comps = {tuple(sorted(rng.sample(range(n), k))):
                 _random_rational(rng) for _ in range(terms)}
        form = KForm(alg.space, k, comps)
        want = alg.element()
        for idx, c in form.components.items():
            want = want + _action_by_recursion(alg, idx, cache).scale(c)
        got = clifford_action(form, alg)
        assert (got - want).is_zero(), (k, comps)


def test_spin_term_is_half_the_action_of_the_connection_form():
    # 1/4 omega_ab gamma^a gamma^b = 1/2 c(sum_{a<b} omega_ab e^a ^ e^b)
    # for skew omega: the symmetric part G^ab of gamma^a gamma^b drops out
    rng = random.Random(47)
    alg = FrameAlgebra.lightcone(build_gamma((1, 10)))
    n = alg.space.dim
    quarter, half = Scalar.from_rational(1, 4), Scalar.from_rational(1, 2)
    for _ in range(4):
        omega = {}
        for _ in range(8):
            a, b = sorted(rng.sample(range(n), 2))
            w = _random_poly(rng)
            if not w.is_zero():
                omega[(a, b)], omega[(b, a)] = w, -w
        # e+ and e- are always paired: their G^ab is the off-diagonal one
        w = Polynomial(_XY, {(1, 0): S(1)})
        omega[(0, 1)], omega[(1, 0)] = w, -w
        want = alg.element()
        for (a, b), w in omega.items():
            want = want + (alg.raised_gamma(a) * alg.raised_gamma(b)) \
                .scale(w * quarter)
        form = KForm(alg.space, 2, {k: w for k, w in omega.items()
                                    if k[0] < k[1]})
        got = clifford_action(form, alg).scale(half)
        assert (got - want).is_zero()


# ---------------------------------------------------------------------------
# the rational lightcone map against the symmetric sqrt(2) map, and kernel
# bases checked by direct application
# ---------------------------------------------------------------------------

def _sqrt2_lightcone(alg):
    """The algebra on alg's lightcone frame under the symmetric map
    gamma_+- = (gammahat_{n-1} +- gammahat_0)/sqrt2, a boost of the
    rational one."""
    n = alg.rep.n
    r = sqrt_scalar(S(2)).inverse()
    M = linalg.zeros(n, n)
    M[0][n - 1] = M[0][0] = M[1][n - 1] = r
    M[1][0] = -r
    for i in range(n - 2):
        M[2 + i][1 + i] = S(1)
    return FrameAlgebra(alg.space, alg.rep, M)


def _susy_rows():
    """(product, dilaton kind) for every accepted row of the susy table and
    each dilaton kind it admits."""
    from sugraverify import catalog
    rows = []
    for p in catalog.enumerate_parallelisable(10):
        if not catalog.solve_dilaton(p).accepted:
            continue
        rows.append((p, "nonconstant"))
        if catalog.has_constant_dilaton_member(p):
            rows.append((p, "constant"))
    return rows


def _kernel_dims(op, alg):
    """(full, chirality +1, chirality -1) kernel dimensions of op."""
    return tuple(kernel_dim([op], alg, columns=cols)[0]
                 for cols in (None, chiral_basis(alg, 1),
                              chiral_basis(alg, -1)))


def test_rational_lightcone_map_keeps_the_dilatino_kernels():
    from sugraverify import catalog
    half = Scalar.from_rational(1, 2)
    rows = _susy_rows()
    assert len({p.ident() for p, _ in rows}) == 12
    compared = 0
    for p, kind in rows:
        data = catalog.assemble_parallelisable(p, kind)
        alg = data["alg"]
        op = clifford_action(data["dphi"], alg) + \
            clifford_action(data["H"], alg).scale(half)
        dims = _kernel_dims(op, alg)
        assert dims[1] + dims[2] == dims[0], (p.ident(), kind)
        if alg.space.names[:2] != ("e+", "e-"):
            continue            # an orthonormal frame has no lightcone map
        old = _sqrt2_lightcone(alg)
        assert dims == _kernel_dims(CliffordElement(old, op.comps), old), \
            (p.ident(), kind)
        compared += 1
    assert compared >= 7, compared      # the CW and flat rows


def test_rational_lightcone_map_keeps_traces_and_the_volume_element(rep_1_10):
    alg = FrameAlgebra.lightcone(rep_1_10)
    old = _sqrt2_lightcone(alg)
    for a in (alg, old):
        assert all(x.is_rational() for row in a.frame_map for x in row) == \
            (a is alg)
    rng = random.Random(31)
    elements = [_random_element(alg, rng, terms=rng.randint(1, 5))
                for _ in range(12)]
    plus_minus = alg.element({(0,): S(1)}) * alg.element({(1,): S(1)})
    elements.append(alg.element({tuple(range(11)): S(3)}) + plus_minus)
    for x in elements:
        t, t_old = x.trace(), CliffordElement(old, x.comps).trace()
        assert (t - t_old).is_zero(), x
    # gamma_+ gamma_- = 1 + gammahat_0 gammahat_10, and gammahat_0 gammahat_10
    # gammahat_1..gammahat_9 = -vol = +1 in (1,10): trace 32 + 3 * 32
    assert elements[-1].trace() == S(128)
    # gamma_[+-] = gammahat_0 gammahat_10 alone is traceless
    assert alg.element({(0, 1): S(1)}).trace() == S(0)
    vol = clifford_action(alg.space.volume_form(), alg)
    assert mat_eq_zero(mat_sub(
        vol.realize(), CliffordElement(old, vol.comps).realize()))
    for x in vol.realize()[0] + vol.realize()[5]:
        assert x.is_rational()


def test_kernel_bases_are_annihilated_by_direct_application(monkeypatch):
    # every kernel the certificate computes, on the catalog plane waves (a
    # perturbed cw11 among them, so the curvature is not zero) and the susy
    # rows: each basis spinor is mapped to zero by each operator, checked
    # with apply and not through rref
    from sugraverify import catalog, sugra
    calls = []

    def recording(ops, alg, columns=None):
        dim, basis = kernel_dim(ops, alg, columns=columns)
        calls.append((ops, alg, columns, dim, basis))
        return dim, basis

    monkeypatch.setattr(sugra, "kernel_dim", recording)
    for bid in ("cw11", "cw10", "e1_10", "e1_9"):
        assert catalog.verify_background(catalog.get_background(bid)).passed
    catalog.verify_background(
        catalog.get_background("cw11", perturb={(0, 1): S(1)}))
    rows = _susy_rows()
    for p, kind in rows:
        catalog.susy_count(p, kind)
    # one joint kernel per d=11 plane wave (cw11, e1_10 and the perturbed
    # cw11), one per IIB plane wave whose +1 half is the whole kernel (cw10,
    # e1_9), and the two chiral halves of each susy row
    assert len(rows) == 19
    assert len(calls) == 3 + 2 + 2 * len(rows)
    partial = 0
    for ops, alg, columns, dim, basis in calls:
        assert dim == len(basis)
        N = alg.rep.spinor_dim
        partial += 0 < dim < (N if columns is None else len(columns))
        for v in basis:
            if columns is None:
                spinor = {j: x for j, x in enumerate(v) if not x.is_zero()}
            else:
                spinor = {}
                for x, col in zip(v, columns):
                    for j, y in col.items():
                        if not x.is_zero():
                            spinor[j] = spinor[j] + x * y if j in spinor \
                                else x * y
            assert spinor
            for op in ops:
                assert all(y.is_zero() for y in op.apply(spinor).values())
    assert partial > 0
