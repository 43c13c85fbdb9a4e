import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cw_lie_algebra, biinvariant_ricci, det, mat_eq_zero,
                      mat_sub)
from sugraverify import linalg
from sugraverify.exactnum import Scalar
from sugraverify.multilinear import KForm, hodge, form_inner, interior
from sugraverify.geometry import SymmetricSpace
from sugraverify.liealg import (
    MetricLieAlgebra, CWData, jacobi_check, invariance_check,
    double_extension, abelian,
    rotation_block_derivation, cw_canonicalize, canonical_three_form,
    ce_differential, d6_catalog, antiselfdual_filter,
    so3, so12, su3, nw6, nw6_family, so12_so3)


def S(x):
    return Scalar(x)


def R(n, d=1):
    return Scalar.from_rational(n, d)


# ---------------------------------------------------------------------------
# jacobi / invariance
# ---------------------------------------------------------------------------

def test_jacobi_abelian_and_so3():
    assert jacobi_check(abelian(4))[0] == "pass"
    assert jacobi_check(so3())[0] == "pass"
    assert jacobi_check(su3())[0] == "pass"


def test_jacobi_cw_symmetric_vs_perturbed():
    rng = random.Random(2)
    for _ in range(10):
        m = rng.randint(2, 4)
        A = [[S(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                A[i][j] = A[j][i] = S(rng.randint(-3, 3))
        g = cw_lie_algebra(CWData(A))
        assert jacobi_check(g)[0] == "pass"
        assert g.derived_series()[-1] == 0   # solvable
    # a non-symmetric profile breaks Jacobi
    data = CWData.diagonal([1, 1])
    data.A[0][1] = S(2)
    assert jacobi_check(cw_lie_algebra(data))[0] == "witness"


def test_invariance_checks():
    assert invariance_check(abelian(5))[0] == "pass"
    assert invariance_check(so12())[0] == "pass"       # Killing form
    assert invariance_check(nw6())[0] == "pass"        # d(E^4, R) pairing
    # breaking the metric breaks invariance
    g = so3()
    g.metric[0][0] = S(2)
    assert invariance_check(g)[0] == "witness"


@pytest.mark.parametrize("make", [so3, nw6, so12_so3])
def test_sparse_invariance_check_agrees_with_the_dense_one(make):
    # the sparse check walks the nonzero lowered brackets only; the dense
    # one tests B([e_i,e_j],e_k) = B(e_i,[e_j,e_k]) on every basis triple,
    # also where one side's bracket vanishes
    def dense(g):
        e = g.basis_vector
        return all((g.inner(g.basis_bracket(i, j), e(k)) -
                    g.inner(e(i), g.basis_bracket(j, k))).is_zero()
                   for i, j, k in itertools.product(range(g.dim), repeat=3))

    g = make()
    verdicts = set()
    for i, j in [(None, None)] + list(
            itertools.combinations_with_replacement(range(g.dim), 2)):
        metric = [row[:] for row in g.metric]
        if i is not None:       # None keeps the invariant metric
            metric[i][j] = metric[j][i] = metric[i][j] + S(3)
        if det(metric).is_zero():
            continue
        h = MetricLieAlgebra(g.dim, g.bracket_table(), metric)
        status = invariance_check(h)[0]
        assert (status == "pass") == dense(h), (i, j)
        verdicts.add(status)
    assert verdicts == {"pass", "witness"}


@pytest.mark.parametrize("make", [so12_so3, su3, nw6])
def test_inner_matches_the_dense_double_sum(make):
    # inner walks the nonzero metric entries only
    g = make()
    n = g.dim
    rng = random.Random(11)
    vecs = [g.basis_vector(i) for i in range(n)] + \
        [[R(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(4)]
    for x in vecs:
        for y in vecs:
            want = S(0)
            for i in range(n):
                for j in range(n):
                    want = want + x[i] * y[j] * g.metric[i][j]
            assert g.inner(x, y) == want


# ---------------------------------------------------------------------------
# double extension
# ---------------------------------------------------------------------------

def test_double_extension_brackets_and_signature():
    J = rotation_block_derivation([1, 1])
    d6 = double_extension(abelian(4), J)
    assert jacobi_check(d6)[0] == "pass"
    assert invariance_check(d6)[0] == "pass"
    # central charge: [v, w] = <Jv, w> e+ (the sign invariance forces)
    assert d6.basis_bracket(2, 3)[0] == S(1)
    # signature bookkeeping: (0,4) -> (1,5)
    assert d6.space.signature() == (1, 5)


def test_double_extension_matches_nw6_brackets():
    d6 = nw6()
    # printed brackets: [e-,e1]=e2, [e-,e2]=-e1, [e1,e2]=e+ (and 3<->4)
    assert d6.basis_bracket(1, 2)[3] == S(1)
    assert d6.basis_bracket(1, 3)[2] == S(-1)
    assert d6.basis_bracket(2, 3)[0] == S(1)
    assert d6.basis_bracket(1, 4)[5] == S(1)
    assert d6.basis_bracket(4, 5)[0] == S(1)


def test_double_extension_rejects_bad_J():
    J = linalg.zeros(4, 4)
    J[0][1] = S(1)            # not skew
    with pytest.raises(ValueError):
        double_extension(abelian(4), J)
    # skew but not a derivation: rotate an so(3) leg into a flat direction
    from sugraverify.liealg import direct_sum
    g = direct_sum(so3(), abelian(1), 1, "so3+e1")
    Jmix = linalg.zeros(4, 4)
    Jmix[3][0], Jmix[0][3] = S(1), S(-1)
    with pytest.raises(ValueError):
        double_extension(g, Jmix)


def test_double_extension_degenerate_J_leaves_center():
    J = rotation_block_derivation([1, 0])    # second block untouched
    d6 = double_extension(abelian(4), J)
    # A = J^2/4 is degenerate: the plane-wave block decomposes
    center = d6.center()
    assert len(center) > 1                   # e+ plus the dead directions


def test_double_extension_random_property():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.choice([2, 4, 6])
        weights = [rng.randint(-3, 3) for _ in range(n // 2)]
        J = rotation_block_derivation(weights)
        d = double_extension(abelian(n), J, b=rng.randint(-2, 2))
        assert jacobi_check(d)[0] == "pass"
        assert invariance_check(d)[0] == "pass"
        t, s = d.space.signature()
        assert (t, s) == (1, n + 1)


def test_b_parameter_removed_by_automorphism():
    # phi: e- -> e- + b/2 e+ (others fixed) is a Lie algebra automorphism
    # carrying the b = 0 scalar product to the b one, so the two metric Lie
    # algebras are isometrically isomorphic
    b = 6
    J = rotation_block_derivation([1, 1])
    with_b = double_extension(abelian(4), J, b=b)
    no_b = double_extension(abelian(4), J, b=0)
    n = with_b.dim
    phi = linalg.eye(n)
    phi[0][1] = R(b, 2)
    # automorphism: [phi x, phi y] = phi([x, y]) (same brackets both sides)
    for i in range(n):
        for j in range(n):
            lhs = no_b.bracket(phi_col(phi, i), phi_col(phi, j))
            br = no_b.basis_bracket(i, j)
            rhs = [sum((phi[k][l] * br[l] for l in range(n)), S(0))
                   for k in range(n)]
            assert all((a - c).is_zero() for a, c in zip(lhs, rhs))
    # isometry onto the b-metric: <phi e_i, phi e_j>_{b=0} = <e_i, e_j>_b
    for i in range(n):
        for j in range(n):
            lhs = no_b.inner(phi_col(phi, i), phi_col(phi, j))
            assert (lhs - with_b.metric[i][j]).is_zero()


def phi_col(phi, j):
    return [phi[k][j] for k in range(len(phi))]


# ---------------------------------------------------------------------------
# Cahen-Wallach algebras
# ---------------------------------------------------------------------------

def test_cw_algebra_zero_profile_decouples():
    g = cw_lie_algebra(CWData.diagonal([0, 0, 0]))
    # [e-, a] = 0 and [a, v] = 0: the dual directions are central, and
    # [e-, v] = a is the only bracket left
    assert sorted(k for k in g.bracket_table() if k[0] < k[1]) == \
        [(1, 2), (1, 3), (1, 4)]


def second_derived_central(alg):
    """The second derived ideal of alg lies in its center."""
    span = linalg.eye(alg.dim)
    for _ in range(2):
        rows = []
        for a in range(len(span)):
            for b in range(a + 1, len(span)):
                rows.append(alg.bracket(span[a], span[b]))
        rows = [r for r in rows if any(not x.is_zero() for x in r)]
        if not rows:
            return True
        red, piv = linalg.rref(rows)
        span = red[:len(piv)]
    aug = [list(v) for v in alg.center()]
    return all(linalg.rank(aug + [list(v)]) == linalg.rank(aug)
               for v in span)


def test_cw11_profile_matches_theorem_data():
    mu = S(6)
    vals = [mu * mu * R(-1, 36) * S(k) for k in [4, 4, 4, 1, 1, 1, 1, 1, 1]]
    data = CWData.diagonal(vals)
    assert SymmetricSpace.plane_wave(data).dim == 11   # g = k + p has 20
    assert cw_lie_algebra(data).dim == 2 + 2 * 9
    assert second_derived_central(cw_lie_algebra(data))   # 3-step solvable
    assert not cw_canonicalize(data)[1]         # det A != 0


def test_cw_canonicalize_scale_and_permutation_quotient():
    t1, d1 = cw_canonicalize(CWData.diagonal([1, 2]))
    t2, d2 = cw_canonicalize(CWData.diagonal([4, 8]))
    t3, d3 = cw_canonicalize(CWData.diagonal([2, 1]))
    assert t1 == t2 == t3
    assert not (d1 or d2 or d3)


def key_from_eigenvalues(vals):
    """The key from the elementary symmetric functions e_j of the
    eigenvalues: c_{m-j} = (-1)^j e_j and tr A^2 = sum of squares."""
    vals = [Fraction(v) for v in vals]
    t = sum(v * v for v in vals)
    key = []
    for j in range(1, len(vals) + 1):
        e = sum(math.prod(sub) for sub in itertools.combinations(vals, j))
        c = (-1) ** j * e
        q = c * c / t ** j if c else Fraction(0)
        key.append(((c > 0) - (c < 0), R(q.numerator, q.denominator)))
    return tuple(key)


def test_cw_canonicalize_d11_matrix():
    mu = S(6)
    vals = [mu * mu * R(-1, 36) * S(k) for k in [4, 4, 4, 1, 1, 1, 1, 1, 1]]
    key, degenerate = cw_canonicalize(CWData.diagonal(vals))
    assert not degenerate
    assert key == key_from_eigenvalues([-4] * 3 + [-1] * 6)
    assert key[0] == (1, S(18 * 18 // 54))      # e1^2 / tr A^2


def test_cw_canonicalize_degenerate_flag():
    key, degenerate = cw_canonicalize(CWData.diagonal([1, 0, 2]))
    assert degenerate
    assert key[-1] == (0, S(0))                 # det A = 0
    zero, degenerate = cw_canonicalize(CWData.diagonal([0, 0]))
    assert degenerate and zero == ((0, S(0)), (0, S(0)))


def _pythagorean_rotation(rng, n):
    """Random exact orthogonal matrix from Givens rotations with rational
    (cos, sin) pairs."""
    pairs = [(R(3, 5), R(4, 5)), (R(5, 13), R(12, 13)), (R(8, 17), R(15, 17)),
             (R(20, 29), R(21, 29))]
    O = linalg.eye(n)
    for _ in range(rng.randint(1, 4)):
        c, s = rng.choice(pairs)
        if rng.random() < 0.5:
            s = -s
        i, j = rng.sample(range(n), 2)
        g = linalg.eye(n)
        g[i][i] = c
        g[j][j] = c
        g[i][j] = -s
        g[j][i] = s
        O = linalg.mat_mul(O, g)
    return O


def test_cw_canonicalize_invariance_under_conjugation_and_scale():
    rng = random.Random(99)
    for trial in range(1000):
        m = rng.randint(2, 4)
        diag = [rng.randint(-4, 4) for _ in range(m)]
        D = CWData.diagonal(diag)
        O = _pythagorean_rotation(rng, m)
        c = R(rng.randint(1, 5), rng.randint(1, 5))
        # A' = c * O^T D O
        A2 = linalg.mat_scale(
            linalg.mat_mul(linalg.transpose(O),
                           linalg.mat_mul(D.A, O)), c)
        t1, d1 = cw_canonicalize(D)
        t2, d2 = cw_canonicalize(CWData(A2))
        assert t1 == t2, f"trial {trial}: {t1} vs {t2}"
        assert d1 == d2 == (0 in diag)


# ---------------------------------------------------------------------------
# canonical three-form, CE differential, Ricci
# ---------------------------------------------------------------------------

def test_canonical_three_form_abelian_zero():
    assert canonical_three_form(abelian(4)).is_zero()


def test_parallelising_torsion_of_double_extension():
    # H = e- ^ omega with omega the rotation 2-form of J
    J = rotation_block_derivation([2, 3])
    d = double_extension(abelian(4), J)
    H = canonical_three_form(d)
    sp = d.space
    want = KForm(sp, 3, {(1, 2, 3): S(2), (1, 4, 5): S(3)})
    assert H == want


def test_nw6_canonical_three_form_components():
    H = canonical_three_form(nw6())
    assert H.components == {(1, 2, 3): S(1), (1, 4, 5): S(1)}


def test_ce_differential_central_dual_closed():
    d6 = nw6()
    # e+ is central: the dual one-form e^0 ... d e^0 (X,Y) = -e^0([X,Y]):
    # [e1,e2] = e+ so d e^0 != 0; the form dual to a central element *in the
    # bracket image complement* is e^1 (dual to e-): closed
    em_dual = KForm.basis(d6.space, 1)
    assert ce_differential(em_dual, d6).is_zero()


def test_ce_differential_so3_maurer_cartan():
    g = so3()
    d_e1 = ce_differential(KForm.basis(g.space, 0), g)
    assert d_e1 == KForm(g.space, 2, {(1, 2): S(-1)})


def test_canonical_three_form_closed_for_catalog():
    for g in d6_catalog(1, 1) + [su3(), so3(), nw6_family(2, 5)]:
        H = canonical_three_form(g)
        assert ce_differential(H, g).is_zero()


def test_canonical_three_form_closed_random_double_extensions():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.choice([2, 4])
        J = rotation_block_derivation([rng.randint(1, 4) for _ in range(n // 2)])
        d = double_extension(abelian(n), J)
        assert ce_differential(canonical_three_form(d), d).is_zero()


def test_biinvariant_ricci_abelian_zero():
    ric = biinvariant_ricci(abelian(4))
    assert mat_eq_zero(ric)


def test_biinvariant_ricci_so3():
    # -1/4 tr(ad ad) = +1/2 delta for the unit structure constants; positive
    # multiple of the metric (round-sphere calibration)
    ric = biinvariant_ricci(so3())
    want = linalg.mat_scale(linalg.eye(3), R(1, 2))
    assert mat_eq_zero(mat_sub(ric, want))


def _ad(g, i):
    """The matrix of ad e_i: column j is [e_i, e_j]."""
    return linalg.transpose([g.basis_bracket(i, j) for j in range(g.dim)])


def _ricci_trace_oracle(g):
    # brute-force trace of ad composition
    n = g.dim
    out = linalg.zeros(n, n)
    for i in range(n):
        adi = _ad(g, i)
        for j in range(n):
            adj = _ad(g, j)
            m = linalg.mat_mul(adi, adj)
            tr = S(0)
            for k in range(n):
                tr = tr + m[k][k]
            out[i][j] = tr * R(-1, 4)
    return out


def test_biinvariant_ricci_nw6():
    g = nw6()
    ric = biinvariant_ricci(g)
    oracle = _ricci_trace_oracle(g)
    assert mat_eq_zero(mat_sub(ric, oracle))
    # two rotation blocks of weight 1: Ric(e-, e-) = 1, everything else 0
    for i in range(6):
        for j in range(6):
            want = S(1) if (i, j) == (1, 1) else S(0)
            assert (ric[i][j] - want).is_zero()


# ---------------------------------------------------------------------------
# the six-dimensional catalog
# ---------------------------------------------------------------------------

def test_d6_catalog_passes_checks():
    cat = d6_catalog(1, 1)
    assert len(cat) == 5
    for g in cat:
        assert jacobi_check(g)[0] == "pass"
        assert invariance_check(g)[0] == "pass"


def test_antiselfduality_filter_discards_mixed_products():
    cat = d6_catalog(1, 1)
    kept = antiselfdual_filter(cat)
    names = {g.name for g in kept}
    assert names == {"e15", "so12+so3(1,1)", "d(E4,R)(1,1)"}
    # cases (2) and (3) are exactly the discarded ones
    dropped = {g.name for g in cat} - names
    assert dropped == {"e12+so3", "e3+so12"}


def test_nw6_antiselfdual_iff_equal_weights():
    for a, b, want in [(1, 1, True), (3, 3, True), (1, 2, False)]:
        H = canonical_three_form(nw6_family(a, b))
        assert (hodge(H) == -H) is want


def test_so12_so3_antiselfdual_iff_beta_equals_alpha():
    for a, b in [(1, 1), (4, 4), (2, 2)]:
        H = canonical_three_form(so12_so3(a, b))
        assert hodge(H) == -H
    for a, b in [(1, 2), (2, 1), (1, 4)]:
        H = canonical_three_form(so12_so3(a, b))
        assert hodge(H) != -H


def test_d2n2_weight_normalization():
    from sugraverify.liealg import d2n2, normalize_weights
    assert normalize_weights([3, 1, 2]) == [R(1, 3), R(2, 3), S(1)]
    assert normalize_weights([-2, 4]) == [R(1, 2), S(1)]
    g = d2n2([2, 2])           # normalizes to (1,1): isomorphic to nw6
    assert g.name == "d2n2(1,1)"
    assert jacobi_check(g)[0] == "pass"
    assert invariance_check(g)[0] == "pass"
    with pytest.raises(ValueError):
        normalize_weights([1, 0])


def test_cw_canonicalize_irreducible_spectra_agree_on_conjugates():
    # profiles whose integer characteristic cubic has no rational root, so
    # their eigenvalues leave the flat tower: conjugate copies still agree
    rng = random.Random(7)
    irreducible = 0
    for vals in itertools.product([-2, -1, 0, 1, 2, 3], repeat=3):
        A = [[S(1), S(vals[0]), S(vals[1])],
             [S(vals[0]), S(2), S(vals[2])],
             [S(vals[1]), S(vals[2]), S(3)]]
        p = [int(str(c)) for c in linalg.charpoly(A)]
        roots = [r for d in range(1, abs(p[0]) + 1) if p[0] % d == 0
                 for r in (d, -d)]
        if p[0] == 0 or any(sum(c * r ** k for k, c in enumerate(p)) == 0
                            for r in roots):
            continue
        irreducible += 1
        O = _pythagorean_rotation(rng, 3)
        A2 = linalg.mat_scale(
            linalg.mat_mul(linalg.transpose(O), linalg.mat_mul(A, O)),
            R(rng.randint(1, 5), rng.randint(1, 5)))
        assert cw_canonicalize(CWData(A2)) == cw_canonicalize(CWData(A)), vals
    assert irreducible == 179                   # of the 216 profiles


@st.composite
def _profile_and_motion(draw):
    """A symmetric integer profile, a rational Cayley rotation
    O = (I - S)(I + S)^-1 with S skew and integer, and a positive scale."""
    m = draw(st.integers(2, 4))
    entry = st.integers(-4, 4)
    A = linalg.zeros(m, m)
    S_ = linalg.zeros(m, m)
    for i in range(m):
        for j in range(i, m):
            A[i][j] = A[j][i] = S(draw(entry))
            if j > i:
                S_[i][j] = S(draw(st.integers(-3, 3)))
                S_[j][i] = -S_[i][j]
    I = linalg.eye(m)
    O = linalg.mat_mul(mat_sub(I, S_),
                       linalg.inverse(linalg.mat_add(I, S_)))
    c = R(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return A, O, c


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_profile_and_motion())
def test_cw_key_is_invariant_under_cayley_rotations_and_scale(case):
    A, O, c = case
    assert mat_eq_zero(mat_sub(
        linalg.mat_mul(linalg.transpose(O), O), linalg.eye(len(A))))
    A2 = linalg.mat_scale(
        linalg.mat_mul(linalg.transpose(O), linalg.mat_mul(A, O)), c)
    assert cw_canonicalize(CWData(A2)) == cw_canonicalize(CWData(A))
    trace = sum((A[i][i] for i in range(len(A))), S(0))
    if not trace.is_zero():
        minus = linalg.mat_scale(A, S(-1))
        assert cw_canonicalize(CWData(minus))[0] != cw_canonicalize(
            CWData(A))[0]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
def test_cw_key_of_a_diagonal_profile_is_its_symmetric_functions(vals):
    key, degenerate = cw_canonicalize(CWData.diagonal(vals))
    assert key == key_from_eigenvalues(vals)
    assert degenerate == (0 in vals)
