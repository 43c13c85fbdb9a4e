import random
from itertools import combinations

import pytest

from sugraverify import linalg
from sugraverify.exactnum import Scalar, Polynomial, sqrt_scalar
from sugraverify.multilinear import (
    QuadraticSpace, KForm, BiSymTensor, wedge, interior, interior_frame,
    hodge, form_inner, contraction_inners, map_slots, nonzero_columns,
    kulkarni_nomizu, plucker_check, plucker_rank_oracle, lambda_action, flat,
    form_component, sort_sign, accumulate)
from sugraverify.liealg import CWData
from sugraverify.geometry import cw_patch, _torsion_from_h


def S(x):
    return Scalar(x)


def frame_vec(space, i):
    v = [S(0)] * space.dim
    v[i] = S(1)
    return v


def basis(space, *idx, coeff=None):
    return KForm.basis(space, *idx, coeff=coeff)


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_nilpotent():
    e4 = QuadraticSpace.euclidean(4)
    e1 = basis(e4, 0)
    assert wedge(e1, e1).is_zero()


def test_wedge_disjoint_blocks():
    e4 = QuadraticSpace.euclidean(4)
    a = basis(e4, 0, 1)
    b = basis(e4, 2, 3)
    assert wedge(a, b) == basis(e4, 0, 1, 2, 3)


def test_wedge_repeated_null_leg_kills_cw_flux_square():
    # the plane-wave 4-form has a dx- factor, so F ^ F = 0 identically
    sp = QuadraticSpace.lightcone(9)       # (e+, e-, e1..e9), dim 11
    F = basis(sp, 1, 2, 3, 4)              # e- ^ e1 ^ e2 ^ e3
    assert wedge(F, F).is_zero()


def test_wedge_graded_commutative():
    rng = random.Random(5)
    sp = QuadraticSpace.euclidean(6)
    for _ in range(50):
        ka, kb = rng.randint(1, 3), rng.randint(1, 3)
        a = _random_form(rng, sp, ka)
        b = _random_form(rng, sp, kb)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        sign = (-1) ** (ka * kb)
        assert lhs == (rhs if sign == 1 else -rhs)


# ---------------------------------------------------------------------------
# interior product
# ---------------------------------------------------------------------------

def test_interior_basis_cases():
    e3 = QuadraticSpace.euclidean(3)
    a = basis(e3, 0, 1)
    assert interior(frame_vec(e3, 0), a) == basis(e3, 1)
    assert interior(frame_vec(e3, 2), a).is_zero()


def _interior_oracle(v, a):
    """Independent full-antisymmetrization contraction."""
    space = a.space
    comps = {}
    for idx, c in a.components.items():
        for pos, i in enumerate(idx):
            if v[i].is_zero() if hasattr(v[i], "is_zero") else not v[i]:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = c * v[i] * Scalar((-1) ** pos)
            comps[rest] = comps.get(rest, Scalar(0)) + term
    return KForm(space, a.degree - 1,
                 {k: c for k, c in comps.items() if not c.is_zero()})


def test_interior_lightcone_flux():
    # iota over the lightcone direction of the plane-wave flux: pairing gives
    # e-(d/dx-) = 1 so exactly the transverse volume survives, times mu
    sp = QuadraticSpace.lightcone(9)
    mu = S(6)
    F = basis(sp, 1, 2, 3, 4, coeff=mu)      # mu e- ^ e1 ^ e2 ^ e3
    dminus = frame_vec(sp, 1)                # the e- frame direction... no:
    # the vector dual to pairing with e- is the frame vector indexed by e-
    got = interior(dminus, F)
    assert got == basis(sp, 2, 3, 4, coeff=mu)
    assert got == _interior_oracle(dminus, F)


def test_interior_antiderivation_property():
    rng = random.Random(9)
    sp = QuadraticSpace.minkowski(5)
    for _ in range(60):
        ka, kb = rng.randint(1, 2), rng.randint(1, 2)
        a = _random_form(rng, sp, ka)
        b = _random_form(rng, sp, kb)
        v = [S(rng.randint(-2, 2)) for _ in range(sp.dim)]
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + \
            (wedge(a, interior(v, b)) if ka % 2 == 0 else -wedge(a, interior(v, b)))
        assert lhs == rhs
        assert interior(v, interior(v, wedge(a, b))).is_zero()


def test_interior_adjoint_to_wedge():
    # <a, b ^ c> = <iota_{b#} a, c> for a 1-form b
    rng = random.Random(13)
    sp = QuadraticSpace.minkowski(4)
    for _ in range(60):
        k = rng.randint(1, 3)
        a = _random_form(rng, sp, k)
        b = _random_form(rng, sp, 1)
        c = _random_form(rng, sp, k - 1)
        up = map_slots(b.components, nonzero_columns(sp.metric_inv))
        bsharp = [up.get((i,), S(0)) for i in range(sp.dim)]
        lhs = form_inner(a, wedge(b, c))
        rhs = form_inner(interior(bsharp, a), c)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# inner products and hodge
# ---------------------------------------------------------------------------

def test_norm_of_riemannian_volume():
    e4 = QuadraticSpace.euclidean(4)
    vol = e4.volume_form()
    assert form_inner(vol, vol) == S(1)


def test_cw_flux_is_null():
    # coordinate inverse metric on a CW patch has g^{--} = 0, so |F|^2 = 0;
    # oracle: full contraction below agrees
    sp = _cw_coordinate_space()
    F = basis(sp, 1, 2, 3, 4, coeff=S(6))
    assert form_inner(F, F).is_zero()


def _cw_coordinate_space():
    # coordinate Gram at a point x with h = g--(x) != 0: lightcone pairing
    # plus a (--) entry; inverse has zero in the (--) corner
    n = 11
    g = linalg.zeros(n, n)
    g[0][1] = g[1][0] = S(1)
    g[1][1] = S(7)                       # h(x) value; any nonzero rational
    for i in range(2, n):
        g[i][i] = S(1)
    return QuadraticSpace(g)


def test_orthogonal_two_forms():
    e3 = QuadraticSpace.euclidean(3)
    assert form_inner(basis(e3, 0, 1), basis(e3, 0, 2)).is_zero()


def test_hodge_euclidean_four():
    e4 = QuadraticSpace.euclidean(4)
    assert hodge(basis(e4, 0, 1)) == basis(e4, 2, 3)


@pytest.mark.parametrize("t,n", [(0, 4), (1, 5), (2, 5), (0, 6), (1, 11), (2, 7)])
def test_hodge_involution_sign_law(t, n):
    g = linalg.eye(n)
    for i in range(t):
        g[i][i] = S(-1)
    sp = QuadraticSpace(g)
    rng = random.Random(100 * t + n)
    for k in range(n + 1):
        a = _random_form(rng, sp, k)
        sign = (-1) ** (k * (n - k) + t)
        assert hodge(hodge(a)) == (a if sign == 1 else -a)


def test_hodge_nw6_antiselfdual_iff_equal_weights():
    # canonical parallelising 3-form of the six-dimensional Nappi-Witten
    # group: anti-selfdual exactly when both rotation blocks carry the same
    # weight.  Orientation -1 in the (e+, e-, e1..e4) frame order is the
    # choice that realizes anti-selfduality (recorded calibration).
    sp = QuadraticSpace.lightcone(4, orientation=-1)
    for alpha, beta in [(1, 1), (2, 2)]:
        H = basis(sp, 1, 2, 3, coeff=S(alpha)) + basis(sp, 1, 4, 5, coeff=S(beta))
        assert hodge(H) == -H
    H = basis(sp, 1, 2, 3, coeff=S(1)) + basis(sp, 1, 4, 5, coeff=S(2))
    assert hodge(H) != -H


def test_hodge_nondiagonal_gram_against_orthonormal():
    # lightcone frame result must agree with the same computation done in an
    # orthonormal frame after the exact change of basis e+- = (e_n +- e_0)/sqrt2
    lc = QuadraticSpace.lightcone(2)      # dim 4: e+, e-, e1, e2
    mink = QuadraticSpace.minkowski(4)    # ordered (e0, e1, e2, e3)
    r2inv = sqrt_scalar(Scalar(2)).inverse()

    def to_mink(form):
        # e+ = (e3 + e0)/sqrt2, e- = (e3 - e0)/sqrt2, e1 -> e1, e2 -> e2
        ep = (basis(mink, 3) + basis(mink, 0)) * r2inv
        em = (basis(mink, 3) - basis(mink, 0)) * r2inv
        legs = {0: ep, 1: em, 2: basis(mink, 1), 3: basis(mink, 2)}
        out = KForm.zero(mink, form.degree)
        for idx, c in form.components.items():
            term = KForm.scalar(mink, c)
            for i in idx:
                term = wedge(term, legs[i])
            out = out + term
        return out

    rng = random.Random(4)
    for _ in range(25):
        k = rng.randint(0, 4)
        a = _random_form(rng, lc, k)
        # orientations: e+^e-^e1^e2 = -e0^e3^e1^e2 = e0^e1^e3^e2... compute:
        # (e3+e0)(e3-e0)/2 = -e3^e0 = e0^e3 ... sign bookkeeping is exactly
        # what this test pins down via the volume forms themselves
        lhs = to_mink(hodge(a))
        vol_lc = to_mink(lc.volume_form())
        sign = vol_lc.components[(0, 1, 2, 3)]
        assert sign * sign == S(1)
        rhs = hodge(to_mink(a))
        assert lhs == (rhs if sign == S(1) else -rhs)
        assert form_inner(a, a) == form_inner(to_mink(a), to_mink(a))


# ---------------------------------------------------------------------------
# contractions <iota_A F, iota_B F> in one pass
# ---------------------------------------------------------------------------

def _contraction_space(name):
    """Frames of every kind the verifiers use; the cw11 chart's inverse
    metric has the polynomial entry g^{++} = -A_ij x^i x^j."""
    if name == "cw11 chart":
        A = linalg.zeros(9, 9)
        for i in range(9):
            A[i][i] = S(-1 - i % 3)
        A[0][4] = A[4][0] = S(2)
        return cw_patch(CWData(A)).space
    return {"euclidean": QuadraticSpace.euclidean(6),
            "minkowski": QuadraticSpace.minkowski(7),
            "lightcone": QuadraticSpace.lightcone(4, extra=[-1])}[name]


CONTRACTION_SPACES = ["euclidean", "minkowski", "lightcone", "cw11 chart"]


def _random_coeff(rng, sp):
    """A nonzero random Scalar; on a chart a polynomial in x1."""
    c = S(rng.choice([-2, -1, 1, 3]))
    if isinstance(sp.metric[0][0], Polynomial):
        c = Polynomial.constant(c) + Polynomial.variable("x1") * \
            S(rng.randint(-1, 1))
    return c


def _sparse_random_form(rng, sp, k, terms=6):
    """k-form with a few random components; on a chart some of them are
    polynomials in x1."""
    comps = {}
    for idx in rng.sample(list(combinations(range(sp.dim), k)), terms):
        comps[idx] = _random_coeff(rng, sp)
    return KForm(sp, k, comps)


def _iota(F, A):
    """F(e_a1, ..., e_ad, ...) by explicit interior products."""
    for a in A:
        F = interior_frame(F.space, a, F)
    return F


@pytest.mark.parametrize("name", CONTRACTION_SPACES)
def test_contraction_inners_equal_form_inner_of_explicit_contractions(name):
    sp = _contraction_space(name)
    rng = random.Random(name)
    for k in (2, 3, 4, 5):
        F = _sparse_random_form(rng, sp, k)
        table = contraction_inners(F, 2)
        assert all(len(A) == len(B) <= 2 and A <= B for A, B in table)
        for d in range(3):
            tuples = list(combinations(range(sp.dim), d))
            for A in tuples:
                for B in tuples:
                    if A > B:
                        continue
                    want = form_inner(_iota(F, A), _iota(F, B))
                    got = table.get((A, B), S(0))
                    assert (got - want).is_zero(), (name, k, A, B, got, want)


def _kn_dense(h, k, n):
    """The four-term definition on every canonical key."""
    out = {}
    for x, y in combinations(range(n), 2):
        for z, w in combinations(range(n), 2):
            if (x, y) <= (z, w):
                v = h[x][w] * k[y][z] + h[y][z] * k[x][w] \
                    - h[x][z] * k[y][w] - h[y][w] * k[x][z]
                if not v.is_zero():
                    out[(x, y, z, w)] = v
    return out


@pytest.mark.parametrize("name", CONTRACTION_SPACES)
def test_kulkarni_nomizu_equals_the_four_term_definition(name):
    sp = _contraction_space(name)
    n = sp.dim
    rng = random.Random(name)
    k = linalg.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                k[i][j] = k[j][i] = S(rng.randint(-3, 3))
    for h, kk in ((sp.metric, sp.metric), (sp.metric, k), (k, sp.metric),
                  (k, k)):
        got = kulkarni_nomizu(h, kk, sp)
        want = _kn_dense(h, kk, n)
        assert set(got.components) == set(want), name
        for key, v in want.items():
            assert (got.components[key] - v).is_zero(), (name, key)


@pytest.mark.parametrize("name", CONTRACTION_SPACES)
def test_flat_equals_the_gram_times_the_vector(name):
    sp = _contraction_space(name)
    rng = random.Random(name)
    n = sp.dim
    for _ in range(5):
        X = [_random_coeff(rng, sp) if rng.random() < 0.6 else S(0)
             for _ in range(n)]
        got = flat(sp, X)
        for a in range(n):
            want = sum((sp.metric[a][b] * X[b] for b in range(n)), S(0))
            assert (got.components.get((a,), S(0)) - want).is_zero(), (name, a)


@pytest.mark.parametrize("name", CONTRACTION_SPACES)
def test_ricci_equals_the_double_sum_over_the_inverse_gram(name):
    sp = _contraction_space(name)
    rng = random.Random(name)
    n = sp.dim
    keys = [(i, j, k, l) for i, j in combinations(range(n), 2)
            for k, l in combinations(range(n), 2) if (i, j) <= (k, l)]
    Rm = BiSymTensor(sp, {key: _random_coeff(rng, sp)
                          for key in rng.sample(keys, 15)})
    ric = Rm.ricci()
    for y in range(n):
        for z in range(n):
            want = S(0)
            for a in range(n):
                for b in range(n):
                    want = want + sp.metric_inv[a][b] * Rm.get(a, y, z, b)
            assert (ric[y][z] - want).is_zero(), (name, y, z)


@pytest.mark.parametrize("name", CONTRACTION_SPACES)
def test_torsion_from_h_equals_h_raised_by_the_inverse_gram(name):
    sp = _contraction_space(name)
    rng = random.Random(name)
    n = sp.dim
    H = _sparse_random_form(rng, sp, 3)
    T = _torsion_from_h(H)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                want = S(0)
                for l in range(n):
                    h = form_component(H, (i, j, l))
                    if h is not None:
                        want = want + h * sp.metric_inv[l][k]
                got = T.get((i, j), {}).get(k, S(0))
                assert (got - want).is_zero(), (name, i, j, k)


def _lambda_dense(om, F):
    """lambda_action through the dense matrix A^a_b = g^{ac} omega_{cb}, each
    slot covector e^i going to -A^i_a e^a."""
    sp = om.space
    n = sp.dim
    A = [[S(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                w = form_component(om, (c, b))
                if w is not None:
                    A[a][b] = A[a][b] + sp.metric_inv[a][c] * w
    comps = {}
    for idx, coeff in F.components.items():
        for pos, i in enumerate(idx):
            for a in range(n):
                sign, srt = sort_sign(idx[:pos] + (a,) + idx[pos + 1:])
                if sign:
                    accumulate(comps, srt, coeff * (-A[i][a]) * sign)
    return KForm(sp, F.degree, comps)


@pytest.mark.parametrize("name", CONTRACTION_SPACES)
def test_lambda_action_equals_the_dense_matrix_action(name):
    sp = _contraction_space(name)
    rng = random.Random(name)
    for k in (3, 5):
        for _ in range(3):
            om = _sparse_random_form(rng, sp, 2, terms=4)
            F = _sparse_random_form(rng, sp, k)
            got = lambda_action(om, F)
            assert not got.is_zero(), (name, k)
            assert (got - _lambda_dense(om, F)).is_zero(), (name, k)


def test_nonsymmetric_metric_rejected():
    with pytest.raises(ValueError, match="metric must be symmetric"):
        QuadraticSpace([[S(1), S(2)], [S(0), S(1)]])


def test_fixed_frames_carry_the_gauss_jordan_inverse(monkeypatch):
    # the fixed frames hand their inverse to the checked inverse= path, so
    # building them runs no elimination; the entries are those of
    # linalg.inverse, including 1/s on the lightcone's extra legs
    inverse = linalg.inverse
    calls = []
    monkeypatch.setattr(linalg, "inverse",
                        lambda m: calls.append(m) or inverse(m))
    spaces = [QuadraticSpace.euclidean(6), QuadraticSpace.minkowski(7),
              QuadraticSpace.lightcone(8),
              QuadraticSpace.lightcone(3, extra=[-1, 4, Scalar(2)])]
    assert not calls
    for sp in spaces:
        want = inverse(sp.metric)
        assert all(x == y for r, w in zip(sp.metric_inv, want)
                   for x, y in zip(r, w)), sp
    assert spaces[-1].metric_inv[6][6] == Scalar.from_rational(1, 4)


# ---------------------------------------------------------------------------
# Kulkarni-Nomizu
# ---------------------------------------------------------------------------

def test_kn_two_plane_value():
    e4 = QuadraticSpace.euclidean(4)
    g = linalg.eye(4)
    gg = kulkarni_nomizu(g, g, e4)
    # (g . g)(X,Y,Y,X) = 2(g(X,X)g(Y,Y) - g(X,Y)^2)
    assert gg.get(0, 1, 1, 0) == S(2)


def test_kn_symmetries_random():
    rng = random.Random(17)
    e4 = QuadraticSpace.euclidean(4)
    g = linalg.eye(4)
    k = [[S(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            k[i][j] = k[j][i] = S(rng.randint(-3, 3))
    gk = kulkarni_nomizu(g, k, e4)
    for _ in range(50):
        i, j, kk, l = (rng.randrange(4) for _ in range(4))
        assert gk.get(i, j, kk, l) == -gk.get(j, i, kk, l)
        assert gk.get(i, j, kk, l) == -gk.get(i, j, l, kk)
        assert gk.get(i, j, kk, l) == gk.get(kk, l, i, j)


def test_kn_diagonal_example():
    e2 = QuadraticSpace.euclidean(2)
    g = linalg.eye(2)
    k = [[S(3), S(0)], [S(0), S(5)]]     # a=3, b=5
    gk = kulkarni_nomizu(g, k, e2)
    assert gk.get(0, 1, 1, 0) == S(8)    # a + b


# ---------------------------------------------------------------------------
# Plucker
# ---------------------------------------------------------------------------

def test_plucker_decomposable_basis_form():
    e8 = QuadraticSpace.euclidean(8)
    status, _ = plucker_check(basis(e8, 0, 1, 2, 3))
    assert status == "decomposable"


def test_plucker_witness_for_sum_of_disjoint_blocks():
    e8 = QuadraticSpace.euclidean(8)
    F = basis(e8, 0, 1, 2, 3) + basis(e8, 4, 5, 6, 7)
    status, witness = plucker_check(F)
    assert status == "witness"
    assert witness == (0, 1, 2)
    # residual iota_0 iota_1 iota_2 F ^ F = -e3 ^ e4..e7, nonzero
    g = F
    for i in (2, 1, 0):
        g = interior_frame(e8, i, g)
    assert wedge(g, F) == -basis(e8, 3, 4, 5, 6, 7)


def test_plucker_cw_flux_decomposable():
    sp = QuadraticSpace.lightcone(9)
    status, _ = plucker_check(basis(sp, 1, 2, 3, 4))
    assert status == "decomposable"


def test_plucker_wrong_degree():
    e8 = QuadraticSpace.euclidean(8)
    with pytest.raises(ValueError):
        plucker_check(basis(e8, 0, 1))


def test_plucker_against_rank_oracle_bulk():
    # random 4-forms with entries in {-1,0,1} over dims 5..8, plus planted
    # decomposable ones; the Plucker contraction test must agree with the
    # span-dimension oracle on every sample
    rng = random.Random(2024)
    samples = 10000
    agree = 0
    for s in range(samples):
        n = rng.randint(5, 8)
        sp = _euclid_cache(n)
        if s % 10 == 0:
            F = _random_decomposable(rng, sp, 4)
        else:
            comps = {}
            for idx in combinations(range(n), 4):
                v = rng.choice((-1, 0, 0, 1))
                if v:
                    comps[idx] = S(v)
            F = KForm(sp, 4, comps)
        dec = plucker_check(F)[0] == "decomposable"
        assert dec == plucker_rank_oracle(F)
        agree += 1
    assert agree == samples


def _plucker_by_interior_chain(F):
    """The per-tuple loop that plucker_check replaced: iota_{i1} ...
    iota_{ik-1} F by interior_frame for every increasing tuple, in
    combinations order."""
    space = F.space
    for idx in combinations(range(space.dim), F.degree - 1):
        g = F
        for i in reversed(idx):
            g = interior_frame(space, i, g)
        if not g.is_zero() and not wedge(g, F).is_zero():
            return "witness", idx
    return "decomposable", None


_FRAMES = {"euclidean": QuadraticSpace.euclidean,
           "minkowski": QuadraticSpace.minkowski,
           "lightcone": lambda n: QuadraticSpace.lightcone(n - 2)}


@pytest.mark.parametrize("frame", sorted(_FRAMES))
def test_plucker_check_matches_the_interior_chain(frame):
    # random sparse 4- and 5-forms in dims 8..11, planted decomposable ones,
    # and decomposable ones plus one basis term: the one-pass contractions
    # give the status and the first witness tuple of the interior chain
    rng = random.Random(f"plucker-{frame}")
    seen = set()
    for n in range(8, 12):
        sp = _FRAMES[frame](n)
        for k in (4, 5):
            for kind in range(6):
                if kind % 3 == 0:
                    F = KForm(sp, k, {tuple(sorted(rng.sample(range(n), k))):
                                      S(rng.choice((-2, -1, 1, 3)))
                                      for _ in range(rng.randint(2, 6))})
                else:
                    F = KForm.scalar(sp, S(1))
                    for _ in range(k):
                        F = wedge(F, KForm(sp, 1, {
                            (i,): S(rng.choice((-2, -1, 1, 2)))
                            for i in rng.sample(range(n), rng.randint(1, 3))}))
                    if kind % 3 == 2:
                        F = F + basis(sp, *sorted(rng.sample(range(n), k)))
                got = plucker_check(F)
                assert got == _plucker_by_interior_chain(F), (n, k, kind)
                seen.add(got[0])
    assert seen == {"decomposable", "witness"}


_EUCLID = {}


def _euclid_cache(n):
    if n not in _EUCLID:
        _EUCLID[n] = QuadraticSpace.euclidean(n)
    return _EUCLID[n]


def _random_decomposable(rng, sp, k):
    legs = []
    for _ in range(k):
        comps = {(i,): S(rng.randint(-1, 1)) for i in range(sp.dim)}
        legs.append(KForm(sp, 1, {i: c for i, c in comps.items()
                                  if not c.is_zero()}))
    out = KForm.scalar(sp, S(1))
    for leg in legs:
        out = wedge(out, leg)
    return out


def _random_form(rng, sp, k):
    comps = {}
    for idx in combinations(range(sp.dim), k):
        v = rng.randint(-2, 2)
        if v:
            comps[idx] = S(v)
    return KForm(sp, k, comps)


# ---------------------------------------------------------------------------
# lambda action (2-form acting on 5-forms as a derivation)
# ---------------------------------------------------------------------------

def test_lambda_zero_omega():
    sp = QuadraticSpace.euclidean(10)
    F = basis(sp, 0, 2, 3, 4, 5)
    assert lambda_action(KForm.zero(sp, 2), F).is_zero()


def test_lambda_single_rotation_generator():
    # omega = e0^e1 generates a rotation in the (0,1) plane; acting on a
    # 5-form containing e0 but not e1 swaps the leg (up to the fixed sign
    # convention), matching the d/dt exp(tA) oracle at t = 0
    sp = QuadraticSpace.euclidean(10)
    om = basis(sp, 0, 1)
    F = basis(sp, 0, 2, 3, 4, 5)
    got = lambda_action(om, F)
    expect = _lambda_float_oracle(om, F)
    assert _form_close(got, expect)
    assert set(got.components) == {(1, 2, 3, 4, 5)}
    assert got.components[(1, 2, 3, 4, 5)] in (S(1), S(-1))


def _lambda_float_oracle(om, F, eps=1e-6):
    """Finite difference of the pullback by exp(-t A^T) at t = 0."""
    import numpy as np
    n = om.space.dim
    ginv = np.array([[float(x) for x in row] for row in om.space.metric_inv])
    omega = np.zeros((n, n))
    for (i, j), c in om.components.items():
        omega[i][j] = float(c)
        omega[j][i] = -float(c)
    A = ginv @ omega
    # exp(-eps A^T) up to O(eps^3), far below the difference quotient's
    # tolerance
    M = -eps * A.T
    Rt = np.eye(n) + M + M @ M / 2

    def transform(idx):
        # e^{i1}^..^e^{i5} with each covector mapped by Rt
        out = {}
        from itertools import permutations
        cols = [Rt[:, i] for i in idx]
        for choice in combinations(range(n), 5):
            sub = np.array([[col[r] for r in choice] for col in cols])
            val = np.linalg.det(sub)
            if abs(val) > 1e-14:
                out[choice] = out.get(choice, 0.0) + val
        return out

    acc = {}
    for idx, c in F.components.items():
        for key, v in transform(idx).items():
            acc[key] = acc.get(key, 0.0) + float(c) * v
    base = {idx: float(c) for idx, c in F.components.items()}
    diff = {}
    keys = set(acc) | set(base)
    for kx in keys:
        d = (acc.get(kx, 0.0) - base.get(kx, 0.0)) / eps
        if abs(d) > 1e-4:
            diff[kx] = d
    return diff


def _form_close(form, float_dict, tol=1e-3):
    keys = set(form.components) | set(float_dict)
    for kx in keys:
        a = float(form.components.get(kx, S(0)))
        b = float_dict.get(kx, 0.0)
        if abs(a - b) > tol:
            return False
    return True


def test_lambda_block_flux_satisfies_jacobi_like_identity():
    # For F = dvol(block1) + dvol(block2) in signature (1,9) -- the
    # five-form of the constant axi-dilaton solution -- the identity
    # lambda(iota_X iota_Y iota_Z F) F = 0 holds for all frame triples.
    sp = QuadraticSpace.minkowski(10)
    c = S(1)
    F = basis(sp, 0, 1, 2, 3, 4, coeff=c) + basis(sp, 5, 6, 7, 8, 9, coeff=c)
    n = sp.dim
    for tri in combinations(range(n), 3):
        g = F
        for i in reversed(tri):
            g = interior_frame(sp, i, g)
        # g is a 2-form
        assert lambda_action(g, F).is_zero()


def test_signature_computation():
    assert QuadraticSpace.minkowski(5).signature() == (1, 4)
    assert QuadraticSpace.lightcone(3).signature() == (1, 4)
    assert QuadraticSpace.euclidean(6).signature() == (0, 6)


@pytest.mark.parametrize("t,n", [(0, 13), (1, 13), (2, 13)])
def test_hodge_involution_top_dimension(t, n):
    # the involution law at the maximal supported dimension, all degrees
    g = linalg.eye(n)
    for i in range(t):
        g[i][i] = S(-1)
    sp = QuadraticSpace(g)
    rng = random.Random(1000 + t)
    for k in range(n + 1):
        comps = {}
        for _ in range(3):
            idx = tuple(sorted(rng.sample(range(n), k)))
            comps[idx] = S(rng.randint(-2, 2))
        a = KForm(sp, k, {i: c for i, c in comps.items() if not c.is_zero()})
        sign = (-1) ** (k * (n - k) + t)
        assert hodge(hodge(a)) == (a if sign == 1 else -a)


def test_wedge_overflow_and_inner_degree_mismatch():
    e3 = QuadraticSpace.euclidean(3)
    a = basis(e3, 0, 1)
    b = basis(e3, 0, 2)
    over = wedge(wedge(a, b), basis(e3, 1))
    assert over.is_zero()
    with pytest.raises(ValueError):
        form_inner(basis(e3, 0), basis(e3, 0, 1))
