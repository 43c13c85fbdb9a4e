import random
from itertools import combinations

import pytest

from sugraverify import linalg
from sugraverify.exactnum import Scalar, Polynomial
from sugraverify.multilinear import KForm, BiSymTensor, form_component
from sugraverify.liealg import (CWData, abelian, double_extension,
                                rotation_block_derivation, nw6, d6_catalog,
                                canonical_three_form, su3, so12_so3,
                                biinvariant_ricci)
from sugraverify.geometry import (
    CoordinatePatch, cw_patch, flat_patch, christoffel, riemann, ricci,
    exterior_derivative, covariant_derivative_form, curvature_with_torsion,
    flat_torsion_consequences, lightcone_coframe, spin_connection,
    killing_check, ConstCurvBlock, ProductGeometry)


def S(x):
    return Scalar(x)


def R(n, d=1):
    return Scalar.from_rational(n, d)


def cw11_data(mu=6):
    m = S(mu)
    vals = [m * m * R(-1, 36) * S(k) for k in [4, 4, 4, 1, 1, 1, 1, 1, 1]]
    return CWData.diagonal(vals)


# ---------------------------------------------------------------------------
# christoffel / riemann on patches
# ---------------------------------------------------------------------------

def test_signature_of_every_geometry_kind():
    # a chart's metric is polynomial: its signature is read at the origin
    assert cw_patch(cw11_data()).signature() == (1, 10)
    assert nw6().signature() == (1, 5)
    prod = ProductGeometry([ConstCurvBlock(5, S(-5), lorentzian=True),
                            ConstCurvBlock(5, S(5))])
    assert prod.signature() == (1, 9)
    with pytest.raises(ValueError):
        ProductGeometry([ConstCurvBlock(5, S(-5), lorentzian=True),
                         ConstCurvBlock(5, S(-5), lorentzian=True)])
    with pytest.raises(ValueError):
        ProductGeometry([ConstCurvBlock(5, S(5))])


def test_product_derivatives_check_the_block_premise():
    prod = ProductGeometry([ConstCurvBlock(4, S(-12), lorentzian=True),
                            ConstCurvBlock(2, S(0), label="E2"),
                            ConstCurvBlock(3, S(6))])
    sp = prod.space
    # whole curved blocks, with any flat legs: parallel and closed
    for idx in [(0, 1, 2, 3), (6, 7, 8), (0, 1, 2, 3, 4), (5,), (6, 7, 8, 5)]:
        F = KForm(sp, len(idx), {tuple(sorted(idx)): S(2)})
        assert prod.d(F).is_zero() and prod.nabla(F) == {}, idx
    # part of a curved block: neither is verified, and the text says where
    F = KForm(sp, 2, {(6, 7): S(1)})
    assert not prod.d(F).is_zero()
    assert "S3 in 2 of its 3 legs" in str(prod.d(F))
    (direction, nF), = prod.nabla(F).items()
    assert direction == 6 and not nF.is_zero()


def test_flat_patch_is_flat():
    p = flat_patch(4)
    assert christoffel(p) == {}
    assert riemann(p).is_zero()


def test_sphere_calibration_via_two_sphere_patch():
    # stereographic-free check: use the exactly polynomial "round sphere in
    # disguise" is not available, so calibrate on a product block instead;
    # the coordinate-side calibration uses the CW patch below.  Here: the
    # constant-curvature block with S = 2 in dim 2 must have Gaussian
    # curvature +1 and Riem = (K/2) g . g.
    blk = ProductGeometry([ConstCurvBlock(2, 2, lorentzian=False),
                           ConstCurvBlock(1, 0, lorentzian=True,
                                          label="E(1,0)")])
    riem = blk.riemann()
    assert riem.get(0, 1, 1, 0) == S(1)     # K = S/(n(n-1)) = 1


def test_cw_christoffel_structure():
    p = cw_patch(cw11_data())
    ch = christoffel(p)
    # only Gamma^+_{-i} = A_ij x^j and Gamma^i_{--} = -A_ij x^j survive
    for (k, i, j), v in ch.items():
        pair = tuple(sorted((i, j)))
        assert (k == 0 and pair[0] == 1 and pair[1] >= 2) or \
               (k >= 2 and (i, j) == (1, 1))
    names = p.coords
    A11 = R(-36, 36) * S(4)                  # -4 mu^2/36 at mu=6 gives -4
    x1 = Polynomial.variable(names[2])
    assert ch[(0, 1, 2)] == S(-4) * x1
    assert ch[(2, 1, 1)] == S(4) * x1


def test_cw_riemann_components_and_ricci():
    p = cw_patch(cw11_data())
    riem = riemann(p)
    # only R(-,i,j,-)-type components, equal to -A_ij
    for (i, j, k, l), v in riem.components.items():
        assert {i, k} == {0, 1} or (i == 1 and k == 1) or True
    # R(d-, di, dj, d-) = -A_ij
    for i in range(9):
        want = S(4) if i < 3 else S(1)
        got = riem.get(1, 2 + i, 2 + i, 1)
        assert got == Polynomial.constant(want) or got == want
    ric = riem.ricci()
    # Ric(d-,d-) = -tr A = mu^2/2 = 18 at mu = 6
    v = ric[1][1]
    assert v.constant_value() == S(18)
    # all other components vanish
    for a in range(11):
        for b in range(11):
            if (a, b) != (1, 1):
                assert ric[a][b].is_zero()


def test_first_bianchi_for_levi_civita_random_cw():
    rng = random.Random(3)
    for _ in range(5):
        m = rng.randint(2, 3)
        A = [[S(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                A[i][j] = A[j][i] = S(rng.randint(-2, 2))
        p = cw_patch(CWData(A))
        riem = riemann(p)
        assert riem.cyclic_violation() is None


def test_killing_covector_for_ignorable_coordinate():
    p = cw_patch(cw11_data())
    # d+ is Killing (metric x+-independent); so is d- here? no: g-- depends
    # on x^i only, and d- IS Killing for CW (g is x- independent)
    n = p.dim
    V = [Polynomial.constant(0)] * n
    V[0] = Polynomial.constant(1)
    ok, _ = killing_check(p, V)
    assert ok
    V2 = [Polynomial.constant(0)] * n
    V2[1] = Polynomial.constant(1)
    ok2, _ = killing_check(p, V2)
    assert ok2
    # a transverse translation is NOT Killing once A != 0
    V3 = [Polynomial.constant(0)] * n
    V3[2] = Polynomial.constant(1)
    ok3, _ = killing_check(p, V3)
    assert not ok3


# ---------------------------------------------------------------------------
# exterior/covariant derivatives
# ---------------------------------------------------------------------------

def test_exterior_derivative_flux_closed():
    p = cw_patch(cw11_data())
    mu = S(6)
    F = KForm(p.space, 4, {(1, 2, 3, 4): Polynomial.constant(mu)})
    assert exterior_derivative(F, p).is_zero()
    # h dx- ^ dx1 has dh ^ dx- ^ dx1 != 0 for x2-dependent h
    h = Polynomial.variable(p.coords[3])
    G = KForm(p.space, 2, {(1, 2): h})
    dG = exterior_derivative(G, p)
    assert not dG.is_zero()


def test_covariant_derivative_of_parallel_flux():
    p = cw_patch(cw11_data())
    F = KForm(p.space, 4, {(1, 2, 3, 4): Polynomial.constant(S(6))})
    nF = covariant_derivative_form(F, p)
    assert all(f.is_zero() for f in nF.values())


# ---------------------------------------------------------------------------
# curvature with torsion
# ---------------------------------------------------------------------------

def test_torsion_zero_reduces_to_riemann():
    p = cw_patch(cw11_data(mu=3))
    H0 = KForm(p.space, 3, {})
    rd = curvature_with_torsion(p, H0)
    assert (rd - riemann(p)).is_zero()


def torsion_expansion(geom, H):
    """Reference R^D from the expansion of the curvature of nabla + T/2,
    with g((nabla_X T)(Y,Z), W) = (nabla_X H)(Y,Z,W):
    R + 1/2 (nabla_X H)(Y,Z,W) - 1/2 (nabla_Y H)(X,Z,W)
      - 1/4 g(T(X,W),T(Y,Z)) + 1/4 g(T(Y,W),T(X,Z))."""
    n = geom.dim
    ginv = geom.space.metric_inv
    base = geom.riemann()
    nH = geom.nabla(H)
    half, quarter = R(1, 2), R(1, 4)

    def nh(x, y, z, w):
        c = form_component(nH[x], (y, z, w)) if x in nH else None
        return S(0) if c is None else c

    def tt(i, j, k, l):
        # g(T(e_i,e_j), T(e_k,e_l)) = H_{ija} g^{ab} H_{klb}
        total = S(0)
        for a in range(n):
            x = form_component(H, (i, j, a))
            for b in range(n):
                y = form_component(H, (k, l, b))
                if x is not None and y is not None:
                    total = total + x * ginv[a][b] * y
        return total

    def component(x, y, z, w):
        return base.get(x, y, z, w) + half * (nh(x, y, z, w) - nh(y, x, z, w)) \
            - quarter * (tt(x, w, y, z) - tt(y, w, x, z))

    return BiSymTensor.from_function(geom.space, component)


def same_components(a, b):
    return {k: str(v) for k, v in a.components.items()} == \
        {k: str(v) for k, v in b.components.items()}


def test_torsion_curvature_equals_its_expansion_on_algebras():
    algebras = d6_catalog(1, 1) + d6_catalog(1, 2) + [su3(), nw6()]
    nonzero = 0
    for g in algebras:
        H = canonical_three_form(g)
        for torsion in (H, H + H):
            rd = curvature_with_torsion(g, torsion)
            assert same_components(rd, torsion_expansion(g, torsion)), g.name
            nonzero += not rd.is_zero()
    # 2H misses the parallelising balance on every non-abelian algebra
    assert nonzero == len(algebras) - 2


def test_torsion_curvature_equals_its_expansion_on_a_chart():
    # the nw6 plane-wave chart with a formal torsion coefficient h, and a
    # closed, non-parallel torsion on flat space
    p = cw_patch(CWData.diagonal([R(-1, 4)] * 4))
    h = Polynomial.variable("h")
    H = KForm(p.space, 3, {(1, 2, 3): h, (1, 4, 5): h})
    rd = curvature_with_torsion(p, H)
    assert not rd.is_zero()
    assert same_components(rd, torsion_expansion(p, H))
    q = flat_patch(5)
    x0, x1 = (Polynomial.variable(c) for c in q.coords[:2])
    H = KForm(q.space, 3, {(0, 2, 3): x1, (1, 2, 3): x0})
    assert same_components(curvature_with_torsion(q, H),
                           torsion_expansion(q, H))


def test_torsion_curvature_needs_a_connection():
    prod = ProductGeometry([ConstCurvBlock(3, S(-6), lorentzian=True),
                            ConstCurvBlock(3, S(6))])
    H = prod.volume_form(1)
    with pytest.raises(ValueError, match="no frame connection"):
        curvature_with_torsion(prod, H)


def test_torsion_curvature_names_an_unmet_block_premise():
    # e^{013} meets the curved block AdS3 in 2 of its 3 legs, so d(H) is
    # Unverified: closure was never computed and must not be reported as
    # failing
    prod = ProductGeometry([ConstCurvBlock(3, S(-6), lorentzian=True),
                            ConstCurvBlock(3, S(6))])
    H = KForm.basis(prod.space, 0, 1, 3)
    with pytest.raises(ValueError) as err:
        curvature_with_torsion(prod, H)
    msg = str(err.value)
    assert "not computed" in msg and "AdS3 in 2 of its 3 legs" in msg, msg
    assert "is not closed" not in msg


def test_lie_algebra_riemann_has_the_biinvariant_ricci():
    # an oracle independent of the Koszul coefficients: Ric = -1/4 B(ad, ad)
    rng = random.Random(8)
    algebras = d6_catalog(1, 1) + d6_catalog(1, 2) + [su3(), nw6()]
    for _ in range(10):
        n = rng.choice([2, 4, 6])
        J = rotation_block_derivation(
            [rng.choice([-3, -1, 1, 2, 5]) for _ in range(n // 2)])
        algebras.append(double_extension(abelian(n), J,
                                         b=rng.choice([0, 1, -2])))
    for g in algebras:
        assert riemann(g).ricci() == biinvariant_ricci(g), g.name


def test_catalog_algebras_parallelising_connection_flat():
    for g in d6_catalog(1, 1) + [su3(), nw6()]:
        H = canonical_three_form(g)
        rd = curvature_with_torsion(g, H)
        assert rd.is_zero(), g.name
        rep = flat_torsion_consequences(g, H)
        assert rep["precondition_RD_zero"]
        assert rep["nabla_H_zero"]
        assert rep["jacobi_cyclic"]


def test_random_double_extensions_flat_with_canonical_torsion():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.choice([2, 4])
        J = rotation_block_derivation(
            [rng.randint(1, 5) for _ in range(n // 2)])
        d = double_extension(abelian(n), J, b=0)
        H = canonical_three_form(d)
        assert curvature_with_torsion(d, H).is_zero()


def test_non_closed_torsion_rejected():
    p = cw_patch(CWData.diagonal([-1, -1, -1, -1]))
    x1 = Polynomial.variable(p.coords[2])
    H = KForm(p.space, 3, {(1, 2, 3): x1 * x1})   # d(x1^2 dx-^dx1^dx2) = 0?
    # x1^2 dx- ^ dx1 ^ dx2 is closed (d/dx1 lands on an existing leg);
    # use an x2-dependent coefficient on (1,2,3) to break closure:
    H = KForm(p.space, 3, {(1, 2, 3): Polynomial.variable(p.coords[4])})
    with pytest.raises(ValueError):
        curvature_with_torsion(p, H)


def test_nw6_coordinate_torsion_coefficient_solved():
    """The plane-wave chart of the six-dimensional Nappi-Witten group has
    A = -1/4 and parallelising torsion h dx- ^ (dx12 + dx34); solving
    R^D = 0 for h gives h = +-1 exactly (the printed 2/3 fails)."""
    data = CWData.diagonal([R(-1, 4)] * 4)
    p = cw_patch(data)
    sols = []
    for cand in [S(1), S(-1), R(2, 3), R(1, 2)]:
        H = KForm(p.space, 3, {(1, 2, 3): Polynomial.constant(cand),
                               (1, 4, 5): Polynomial.constant(cand)})
        rd = curvature_with_torsion(p, H)
        if rd.is_zero():
            sols.append(cand)
    assert S(1) in sols and S(-1) in sols
    assert R(2, 3) not in sols and R(1, 2) not in sols


def test_nw6_torsion_coefficient_solver_quadratic():
    # solve for the coefficient through a formal variable: R^D components
    # are quadratic polynomials in h; their common zero set is {+-1}
    data = CWData.diagonal([R(-1, 4)] * 4)
    p = cw_patch(data)
    h = Polynomial.variable("h")
    H = KForm(p.space, 3, {(1, 2, 3): h, (1, 4, 5): h})
    rd = curvature_with_torsion(p, H)
    # collect the distinct polynomial constraints in h
    constraints = set()
    for key, val in rd.components.items():
        sub = val.subs({c: Scalar(0) for c in p.coords if c in val.vars})
        if not sub.is_zero():
            constraints.add(str(sub))
    # h^2 = 1 must be among them (coefficient 1/4 - h^2/4)
    assert any("h" in c for c in constraints)
    for cand, ok in [(S(1), True), (S(-1), True), (R(2, 3), False)]:
        H2 = KForm(p.space, 3, {(1, 2, 3): Polynomial.constant(cand),
                                (1, 4, 5): Polynomial.constant(cand)})
        assert curvature_with_torsion(p, H2).is_zero() is ok


def test_flat_torsion_consequences_negative_control():
    # a closed perturbation of the canonical torsion (here a rescale, which
    # stays closed but breaks the parallelising balance) gives R^D != 0 and
    # the report flags the precondition with a witness
    g = nw6()
    H = canonical_three_form(g)
    Hbad = H + H
    rep = flat_torsion_consequences(g, Hbad)
    assert rep["precondition_RD_zero"] is False
    assert rep.get("witness") is not None


# ---------------------------------------------------------------------------
# spin connection
# ---------------------------------------------------------------------------

def test_spin_connection_flat_frame_vanishes():
    p = cw_patch(CWData.diagonal([0, 0]))
    cof, frm, gram = lightcone_coframe(p)
    om = spin_connection(p, cof, frm, gram)
    assert all(not d for d in om)


def test_spin_connection_cw_structure():
    p = cw_patch(cw11_data())
    cof, frm, gram = lightcone_coframe(p)
    om = spin_connection(p, cof, frm, gram)
    # only the dx- component carries connection terms, of (-,i)/(i,-) type
    for mu in range(p.dim):
        if mu == 1:
            continue
        assert not om[mu], f"unexpected connection along {p.coords[mu]}"
    for (a, b), v in om[1].items():
        assert {a, b} & {1} and {a, b} - {1} <= set(range(2, 11))
    # omega_{-,(-,i)} = a_i = A_ij x^j
    x1 = Polynomial.variable(p.coords[2])
    got = om[1][(1, 2)]
    assert got == S(-4) * x1


def test_product_geometry_ricci_blocks():
    R6 = S(6)
    ads7 = ConstCurvBlock(7, S(-7) * R6, lorentzian=True, label="AdS7")
    s4 = ConstCurvBlock(4, S(8) * R6, lorentzian=False, label="S4")
    prod = ProductGeometry([ads7, s4])
    ric = prod.ricci()
    # S4(8R): Ric = 2R g; AdS7(-7R): Ric = -R g
    for i in range(7):
        assert ric[i][i] == S(-1) * R6 * prod.space.metric[i][i]
    for i in range(7, 11):
        assert ric[i][i] == S(2) * R6 * prod.space.metric[i][i]


def test_first_bianchi_fails_for_torsion_curvature_with_witness():
    # a closed but non-parallel torsion produces nabla-T terms in R^D that
    # break the first Bianchi identity (Lie-algebra torsion curvatures keep
    # it, through the Jacobi identity); the witness is the correction term
    p = flat_patch(5)
    x0 = Polynomial.variable(p.coords[0])
    x1 = Polynomial.variable(p.coords[1])
    H = KForm(p.space, 3, {(0, 2, 3): x1, (1, 2, 3): x0})
    assert exterior_derivative(H, p).is_zero()
    rd = curvature_with_torsion(p, H)
    assert not rd.is_zero()
    assert rd.cyclic_violation() is not None


def test_metric_parallel_under_levi_civita():
    # nabla_mu g_{nu rho} = 0 componentwise on a plane-wave chart
    p = cw_patch(cw11_data(mu=3))
    ch = christoffel(p)
    n = p.dim

    def gamma(k, i, j):
        if i <= j:
            return ch.get((k, i, j))
        return ch.get((k, j, i))

    for mu in range(n):
        for nu in range(n):
            for rho in range(nu, n):
                e = p.metric[nu][rho]
                total = None
                if p.coords[mu] in e.vars:
                    d = e.partial(p.coords[mu])
                    if not d.is_zero():
                        total = d
                for lam in range(n):
                    for (a, b) in ((nu, rho), (rho, nu)):
                        gm = gamma(lam, mu, a)
                        if gm is None or p.metric[lam][b].is_zero():
                            continue
                        t = gm * p.metric[lam][b]
                        total = -t if total is None else total - t
                assert total is None or total.is_zero(), (mu, nu, rho)
