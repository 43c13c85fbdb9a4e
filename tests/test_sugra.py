import random
import subprocess
import sys
from itertools import combinations

import pytest

from sugraverify.exactnum import Scalar, Polynomial, sqrt_scalar
from sugraverify.multilinear import (QuadraticSpace, KForm, form_inner, hodge,
                                     interior_frame, lambda_action, wedge,
                                     flat, map_slots, nonzero_columns,
                                     crossed_inners)
from sugraverify.liealg import (CWData, nw6, nw6_family,
                                so12_so3, e15, canonical_three_form)
from sugraverify.geometry import (SymmetricSpace, CoordinatePatch, cw_patch,
                                  lightcone_coframe, spin_connection)
from sugraverify.clifford import (ComplexScalar, build_gamma, FrameAlgebra,
                                  clifford_action, omega_xf, kernel_dim,
                                  chiral_basis)
from sugraverify.sugra import (BackgroundSpec, VerificationReport, verify_d11,
                               verify_d11_maxsusy, supercovariant_connection,
                               supercovariant_curvature,
                               supercovariant_flatness,
                               verify_iib_maxsusy, verify_d6,
                               verify_typeII_common, dilatino_kernel,
                               _riemann_flux_rhs,
                               _plujac_holds,
                               _maxwell_residual)
from conftest import checkout_env, flat_patch
from sugraverify.catalog import (get_background, verify_background,
                                 assemble_parallelisable, typeII_background,
                                 GeometryProduct)

S = Scalar
R_ = Scalar.from_rational


def names(rep):
    return {c.name: c.passed for c in rep.conditions}


def chart_spec(theory, name, data, flux, orientation=1):
    """The plane wave of data at its base point, as the package builds it,
    with the fluxes flux(space) on its frame."""
    p = SymmetricSpace.plane_wave(data, orientation)
    return BackgroundSpec(theory, name, p, flux(p.space), cw_data=data)


def as_chart(b):
    """b on the plane-wave chart of its profile, its constant fluxes
    carried over to the chart's coordinates: the reference the pair at the
    base point is held to."""
    p = cw_patch(b.cw_data, orientation=b.geometry.space.orientation)
    return b._replace(geometry=p, fluxes={
        name: KForm(p.space, F.degree, {
            idx: Polynomial.constant(c) for idx, c in F.components.items()})
        for name, F in b.fluxes.items()})


# ---------------------------------------------------------------------------
# d = 11
# ---------------------------------------------------------------------------

def test_flat_d11_trivially_passes():
    rep = verify_background(get_background("e1_10"))
    assert rep.passed
    assert rep.invariants["nu"] == "32/32"


def test_cw11_passes_everything():
    rep = verify_background(get_background("cw11"))
    assert rep.passed
    got = names(rep)
    for key in ["dF=0", "maxwell d*F=-1/2 F^F", "einstein Ric=T(g,F)",
                "nabla F=0", "riemann-flux identity", "plucker",
                "supercovariant curvature R^D = 0", "sl(32) tracelessness",
                "clifford-trace field equation identity", "nu = 1"]:
        assert got[key], key
    assert rep.invariants["tr A"] == "-18"        # mu^2/2 = 18 with a sign
    assert rep.invariants["|F|^2"] == "0"


def test_cw11_perturbed_profile_fails_einstein_with_witness():
    b = get_background("cw11", perturb={(0, 0): S(1)})
    rep = verify_d11(b)
    assert not rep.passed
    cond = {c.name: c for c in rep.conditions}
    assert not cond["einstein Ric=T(g,F)"].passed
    # the violated component is the (x-, x-) one (coordinate index 1)
    assert cond["einstein Ric=T(g,F)"].witness.startswith("component 1,1")


def test_cw11_wrong_profile_not_flat_kernel_reported():
    # A = -(mu^2/36) diag(2,2,2,...) instead of (4,4,4,1...)
    mu = S(6)
    vals = [mu * mu * R_(-1, 36) * S(2) for _ in range(9)]
    data = CWData.diagonal(vals)

    def flux(space):
        return {"F4": KForm(space, 4, {(1, 2, 3, 4): mu})}

    b = chart_spec("d11", "cw11-wrong", data, flux)
    rep, dim, basis, alg = supercovariant_flatness(b)
    assert not rep.passed
    assert dim < 32
    got = names(rep)
    assert got["sl(32) tracelessness"]           # traceless even off-shell


def test_ads7s4_and_ads4s7_pass():
    for name in ("ads7xs4", "ads4xs7"):
        rep = verify_background(get_background(name))
        assert rep.passed, (name, [c.name for c in rep.conditions
                                   if not c.passed])


def _freund_rubin_swapped():
    # AdS7(-8R) x S4(7R)-style mismatch: magnitudes of the two scalar
    # curvatures interchanged
    Rv = S(6)
    prod = SymmetricSpace.product([(7, S(-8) * Rv, True, "AdS7"),
                                   (4, S(7) * Rv, False, "S4")])
    q = sqrt_scalar(S(6) * Rv)
    return BackgroundSpec("d11", "ads7xs4-swapped", prod, {
        "F4": KForm(prod.space, 4, {(7, 8, 9, 10): q})})


def test_freund_rubin_swapped_radii_fails_riemann_identity():
    rep = verify_d11_maxsusy(_freund_rubin_swapped())
    assert not rep.passed
    cond = {c.name: c for c in rep.conditions}
    assert not cond["riemann-flux identity"].passed
    assert cond["riemann-flux identity"].witness


def test_maxsusy_implies_field_equations_cross_check():
    # both are computed independently; on every passing max-susy background
    # the field-equation subreport also passes
    for name in ("cw11", "ads7xs4", "ads4xs7", "e1_10"):
        b = get_background(name)
        full = verify_d11_maxsusy(b)
        base = verify_d11(b)
        assert full.passed
        assert base.passed


def _random_chart_flux(p, rng):
    """A 4-form on the chart p with three components of degree <= 2 in the
    coordinates; half the draws put two components on disjoint legs, so
    that F ^ F != 0."""
    xs = [Polynomial.variable(c) for c in p.coords]
    legs = rng.sample(range(p.dim), 8)
    idxs = [legs[:4], legs[4:] if rng.random() < 0.5 else legs[2:6],
            rng.sample(range(p.dim), 4)]
    comps = {}
    for idx in idxs:
        c = Polynomial.constant(rng.randint(-3, 3))
        for _ in range(3):
            c = c + xs[rng.randrange(p.dim)] * xs[rng.randrange(p.dim)] \
                * S(rng.randint(-2, 2)) + xs[rng.randrange(p.dim)]
        comps[tuple(sorted(idx))] = c
    return KForm(p.space, 4, comps)


@pytest.mark.parametrize("chart", ["cw11", "flat"])
def test_maxwell_residual_is_the_hodge_dual_of_d_star_F(chart):
    # div F + 1/2 *(F ^ F) from nabla F equals *(d*F + 1/2 F ^ F) through
    # two Hodge duals on the chart, F ^ F != 0 included
    p = cw_patch(get_background("cw11").cw_data) if chart == "cw11" else \
        flat_patch(11)
    rng = random.Random(f"maxwell-{chart}")
    wedged = 0
    for _ in range(6):
        F = _random_chart_flux(p, rng)
        FF = wedge(F, F)
        want = hodge(p.d(hodge(F)) + FF * R_(1, 2))
        got = _maxwell_residual(p.space, F, p.nabla(F))
        assert not want.is_zero()
        assert (got - want).is_zero()
        wedged += not FF.is_zero()
    assert wedged >= 2


def test_chart_flux_violating_maxwell_fails_with_a_witness():
    # F = x1 dx1 ^ dx5 ^ dx6 ^ dx7 added to the cw11 flux is closed but not
    # co-closed: div F = dx5 ^ dx6 ^ dx7, one of the C(11, 3) components
    b = as_chart(get_background("cw11"))
    p = b.geometry
    F = b.fluxes["F4"] + KForm(p.space, 4, {
        (2, 6, 7, 8): Polynomial.variable("x1")})
    rep = verify_d11(BackgroundSpec("d11", "cw11-not-coclosed", p,
                                    {"F4": F}, cw_data=b.cw_data))
    cond = {c.name: c for c in rep.conditions}
    assert cond["dF=0"].passed
    maxwell = cond["maxwell d*F=-1/2 F^F"]
    assert not maxwell.passed
    assert maxwell.witness == "(1) x5^x6^x7; 1 of 165 components fail"
    assert maxwell.witness.split(";")[0] == str(hodge(p.d(hodge(F))))


# ---------------------------------------------------------------------------
# IIB
# ---------------------------------------------------------------------------

def test_ads5xs5_passes_iib_conditions():
    rep = verify_background(get_background("ads5xs5"))
    assert rep.passed
    got = names(rep)
    for key in ["self-duality *F=F", "riemann-flux identity (IIB)",
                "plucker-jacobi identity", "F = G + *G", "G decomposable"]:
        assert got[key], key


def _ads5xs5_printed():
    # the normalization 2 sqrt(R/5), common in other F conventions
    Rv = S(5)
    prod = SymmetricSpace.product([(5, -Rv, True, "AdS5"),
                                   (5, Rv, False, "S5")], orientation=-1)
    c = S(2) * sqrt_scalar(Rv * R_(1, 5))
    G = KForm(prod.space, 5, {(0, 1, 2, 3, 4): c})
    return BackgroundSpec("iib", "ads5xs5-printed", prod, {
        "F5": G + KForm(prod.space, 5, {(5, 6, 7, 8, 9): c}), "G5": G})


def test_ads5xs5_printed_flux_normalization_fails():
    rep = verify_iib_maxsusy(_ads5xs5_printed())
    assert not rep.passed
    assert not names(rep)["riemann-flux identity (IIB)"]


def test_cw10_passes_with_nu_one():
    rep = verify_background(get_background("cw10"))
    assert rep.passed
    assert rep.invariants["nu"] == "32/32"
    assert rep.invariants["chirality"] in ("+1", "-1")


def test_cw10_printed_half_flux_fails_flatness():
    mu = S(1)
    data = CWData.diagonal([-(mu * mu)] * 8)
    half = R_(1, 2)

    def flux(space):
        F = KForm(space, 5, {(1, 2, 3, 4, 5): half * mu,
                             (1, 6, 7, 8, 9): half * mu})
        G = KForm(space, 5, {(1, 2, 3, 4, 5): half * mu})
        return {"F5": F, "G5": G}

    b = chart_spec("iib", "cw10-half", data, flux)
    rep = verify_iib_maxsusy(b)
    assert not rep.passed
    assert rep.invariants["nu"] == "16/32"


def test_mu_zero_gives_flat_iib():
    rep = verify_background(get_background("e1_9"))
    assert rep.passed
    assert rep.invariants["nu"] == "32/32"


def test_non_self_dual_flux_fails_self_duality_with_witness():
    mu = S(1)
    data = CWData.diagonal([-(mu * mu)] * 8)

    def flux(space):
        # single block: *F has the other block, so F is not self-dual
        return {"F5": KForm(space, 5, {(1, 2, 3, 4, 5): mu})}

    b = chart_spec("iib", "cw10-nonsd", data, flux)
    rep = verify_iib_maxsusy(b)
    assert not rep.passed
    cond = {c.name: c for c in rep.conditions}
    sd = cond["self-duality *F=F"]
    assert not sd.passed
    # the witness is *F - F: the missing block with its coefficient and F
    # itself with the opposite sign, and how many of the C(10, 5) components
    # of a 5-form fail
    F = b.fluxes["F5"]
    assert sd.witness == f"{hodge(F) - F}; 2 of 252 components fail"
    assert "xm^x5^x6^x7^x8" in sd.witness and "xm^x1^x2^x3^x4" in sd.witness
    # the rest of the report is still computed
    assert "riemann-flux identity (IIB)" in cond
    assert "supercovariant curvature R^D = 0 on the Weyl bundle" in cond


def _plujac_reference(F):
    """lambda(iota^3 F) F = 0 over every frame triple, each iota^3 F taken by
    three explicit interior products."""
    space = F.space
    for tri in combinations(range(space.dim), 3):
        g = F
        for i in reversed(tri):
            g = interior_frame(space, i, g)
        if not g.is_zero() and not lambda_action(g, F).is_zero():
            return False
    return True


@pytest.mark.parametrize("name", ["minkowski", "lightcone"])
def test_plujac_verdict_equals_explicit_contractions(name):
    space = {"minkowski": QuadraticSpace.minkowski(10),
             "lightcone": QuadraticSpace.lightcone(8)}[name]
    rng = random.Random(name)
    verdicts = []
    for _ in range(20):
        idxs = rng.sample(list(combinations(range(10), 5)),
                          rng.choice([1, 2, 2, 4]))
        F = KForm(space, 5, {idx: S(rng.choice([-2, -1, 1, 3]))
                             for idx in idxs})
        want = _plujac_reference(F)
        assert _plujac_holds(F) == want, F
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_plujac_negative_control_on_the_cw10_chart():
    # a third component (1,2,3,6,7) joining the two blocks of the cw10 flux
    data = CWData.diagonal([S(-1)] * 8)
    one = S(1)

    def flux(space):
        return {"F5": KForm(space, 5, {(1, 2, 3, 4, 5): one,
                                       (1, 6, 7, 8, 9): one,
                                       (1, 2, 3, 6, 7): one})}

    rep = verify_iib_maxsusy(chart_spec("iib", "cw10-plujac", data, flux))
    assert names(rep)["plucker-jacobi identity"] is False
    assert not rep.passed


# ---------------------------------------------------------------------------
# Riemann-flux identities against the dense loop over canonical keys
# ---------------------------------------------------------------------------

def _cw10_perturbed(i, j, dv):
    A = [[S(0)] * 8 for _ in range(8)]
    for k in range(8):
        A[k][k] = S(-1)
    A[i][j] = A[i][j] + dv
    if i != j:
        A[j][i] = A[j][i] + dv
    one = S(1)

    def flux(space):
        return {"F5": KForm(space, 5, {(1, 2, 3, 4, 5): one,
                                       (1, 6, 7, 8, 9): one}),
                "G5": KForm(space, 5, {(1, 2, 3, 4, 5): one})}

    return chart_spec("iib", "cw10-perturbed", CWData(A), flux)


def _dense_rhs(theory, space, F):
    """[(key, right-hand side)] of the Riemann-flux identity on every
    canonical key, visited pair by pair with explicit interior products,
    form_inner and the four-term Kulkarni-Nomizu definition: the reference
    the sparse identities are held to."""
    n = space.dim
    g = space.metric

    def inner(a, bb, c, d):
        """<iota_a iota_bb F, iota_c iota_d F>"""
        if a == bb or c == d:
            return S(0)
        return form_inner(interior_frame(space, a, interior_frame(space, bb, F)),
                          interior_frame(space, c, interior_frame(space, d, F)))

    def kn(h, k, x, y, z, w):
        return h[x][w] * k[y][z] + h[y][z] * k[x][w] \
            - h[x][z] * k[y][w] - h[y][w] * k[x][z]

    F2 = form_inner(F, F)
    T2 = [[form_inner(interior_frame(space, i, F), interior_frame(space, j, F))
           for j in range(n)] for i in range(n)]
    out = []
    pairs = list(combinations(range(n), 2))
    for pi, (x, y) in enumerate(pairs):
        for (z, w) in pairs[pi:]:
            if theory == "d11":
                want = R_(1, 12) * inner(x, y, w, z) \
                    + R_(1, 36) * kn(g, T2, x, y, z, w) \
                    + R_(-1, 72) * F2 * kn(g, g, x, y, z, w)
            else:
                want = inner(x, w, y, z) - inner(x, z, y, w)
            out.append(((x, y, z, w), want))
    return out


def _dense_identity_failures(b):
    """Every failing component (key, difference) of the background's
    Riemann-flux identity, in the dense loop's order, and the number of
    canonical keys."""
    geom = b.geometry
    F = b.fluxes["F4" if b.theory == "d11" else "F5"]
    riem = geom.riemann()
    rhs = _dense_rhs(b.theory, geom.space, F)
    out = [(key, str(riem.get(*key) - want)) for key, want in rhs
           if not (riem.get(*key) - want).is_zero()]
    return out, len(rhs)


@pytest.mark.parametrize("theory", ["d11", "iib"])
def test_sparse_riemann_flux_rhs_equals_the_dense_loop(theory):
    # random fluxes, so that every term and every ordering of the
    # contraction table enters, on a lightcone frame and on a chart whose
    # inverse metric has a polynomial entry
    A = [[S(0)] * 5 for _ in range(5)]
    for i in range(5):
        A[i][i] = S(-1 - i % 2)
    A[1][3] = A[3][1] = S(1)
    spaces = [QuadraticSpace.lightcone(5), cw_patch(CWData(A)).space]
    rhs = _riemann_flux_rhs if theory == "d11" else crossed_inners
    k = 4 if theory == "d11" else 5
    rng = random.Random(theory)
    for space in spaces:
        for _ in range(2):
            F = KForm(space, k, {
                idx: S(rng.choice([-2, -1, 1, 3])) for idx in
                rng.sample(list(combinations(range(space.dim), k)), 6)})
            got = rhs(space, F)
            want = {key: v for key, v in _dense_rhs(theory, space, F)
                    if not v.is_zero()}
            assert set(got.components) == set(want)
            for key, v in want.items():
                assert (got.components[key] - v).is_zero(), key


@pytest.mark.parametrize("b", [
    get_background("cw11", perturb={(0, 0): S(1)}),
    get_background("cw11", perturb={(3, 5): R_(1, 2)}),
    _cw10_perturbed(0, 4, R_(1, 3)),
    _cw10_perturbed(7, 7, S(-1)),
    _freund_rubin_swapped(),
    _ads5xs5_printed(),
], ids=["cw11-A11", "cw11-A46", "cw10-A15", "cw10-A88", "fr-swapped",
        "ads5xs5-printed"])
def test_riemann_flux_witness_is_the_dense_loops_first_failure(b):
    name = "riemann-flux identity" + (" (IIB)" if b.theory == "iib" else "")
    verify = verify_d11_maxsusy if b.theory == "d11" else verify_iib_maxsusy
    cond = {c.name: c for c in verify(b).conditions}[name]
    failures, total = _dense_identity_failures(b)
    assert failures and not cond.passed
    key, diff = failures[0]
    assert cond.witness == (f"component {key}: {diff}; {len(failures)} of "
                            f"{total} canonical components fail")


# ---------------------------------------------------------------------------
# d = 6
# ---------------------------------------------------------------------------

def test_e15_maximally_supersymmetric():
    rep = verify_background(get_background("e1_5"))
    assert rep.passed


def test_nw6_passes_d6_checks():
    rep = verify_background(get_background("nw6"))
    assert rep.passed
    got = names(rep)
    for key in ["dH=0", "*H=-H", "einstein Ric = 1/2 <iH,iH>",
                "parallelising connection flat (R^D = 0)"]:
        assert got[key], key


def test_ads3xs3_passes_and_unequal_weights_fail():
    rep = verify_background(get_background("ads3xs3"))
    assert rep.passed
    g = so12_so3(1, 2)
    bad = BackgroundSpec("d6-(1,0)", "ads3xs3(1,2)", SymmetricSpace.group(g),
                         {"H3": canonical_three_form(g)})
    rep2 = verify_d6(bad)
    assert not rep2.passed
    cond = {c.name: c for c in rep2.conditions}
    assert not cond["*H=-H"].passed
    assert cond["*H=-H"].witness           # nonzero anti-selfduality defect


def test_nw6_unequal_weights_fail_antiselfduality():
    g = nw6_family(1, 2)
    bad = BackgroundSpec("d6-(1,0)", "d(E4,R)(1,2)", SymmetricSpace.group(g),
                         {"H3": canonical_three_form(g)})
    rep = verify_d6(bad)
    assert not rep.passed


def test_d6_torsion_that_the_group_holonomy_moves_fails_on_its_premise():
    # on the nw6 group at its identity, e^{234} is not invariant under
    # hol = ad [g, g]: dH = 0 and flatness fail naming the generator
    g = nw6()
    H = KForm(g.space, 3, {(2, 3, 4): S(1)})
    rep = verify_d6(BackgroundSpec("d6-(1,0)", "nw6-e234",
                                   SymmetricSpace.group(g), {"H3": H}))
    cond = {c.name: c for c in rep.conditions}
    assert not rep.passed and not cond["dH=0"].passed
    assert "R(e1,e2) takes it to" in cond["dH=0"].witness
    assert cond["parallelising connection flat (R^D = 0)"].witness == \
        f"premise dH = 0 is undecided: {cond['dH=0'].witness}"


def test_theory_gate_rejects_dimension_and_signature():
    from sugraverify.liealg import MetricLieAlgebra
    from sugraverify import linalg
    # a ten-dimensional plane wave is not a d=11 background
    with pytest.raises(ValueError, match="d11 needs dimension 11"):
        verify_d11(chart_spec("d11", "cw10-as-d11",
                              get_background("cw10").cw_data,
                              lambda sp: {"F4": KForm(sp, 4, {})}))
    # nor an eleven-dimensional one a IIB background
    with pytest.raises(ValueError, match="iib needs dimension 10"):
        verify_iib_maxsusy(chart_spec(
            "iib", "cw11-as-iib", get_background("cw11").cw_data,
            lambda sp: {"F5": KForm(sp, 5, {})}))
    # a euclidean six-dimensional algebra has the right dimension only
    e6 = MetricLieAlgebra(6, {}, linalg.eye(6), name="E6")
    with pytest.raises(ValueError, match=r"signature \(0, 6\)"):
        verify_d6(BackgroundSpec("d6-(1,0)", "e6", SymmetricSpace.group(e6),
                                 {"H3": canonical_three_form(e6)}))


# ---------------------------------------------------------------------------
# type-II common sector
# ---------------------------------------------------------------------------

def test_ads3_s3_s3_e_background_passes():
    p = GeometryProduct("AdS3", spheres=2, flats=1)
    b = typeII_background(p, "nonconstant")
    rep = verify_typeII_common(b)
    assert rep.passed, [c.name for c in rep.conditions if not c.passed]
    assert rep.invariants["|H|^2"] == "4"


def test_ads3_saturated_radii_constant_dilaton():
    p = GeometryProduct("AdS3", spheres=2, flats=1)
    b = typeII_background(p, "constant")
    rep = verify_typeII_common(b)
    assert rep.passed
    assert rep.invariants["|H|^2"] == "0"
    assert rep.invariants["|dphi|^2"] == "0"


def test_ads3_e7_is_not_a_background():
    p = GeometryProduct("AdS3", flats=7)
    with pytest.raises(ValueError):
        assemble_parallelisable(p, "nonconstant")


def test_e19_null_dilaton_passes():
    p = GeometryProduct("E(1,0)", flats=9)
    b = typeII_background(p, "nonconstant")
    rep = verify_typeII_common(b)
    assert rep.passed
    assert names(rep)["nabla d phi = 0"]


def test_cw_with_sphere_passes_on_chart():
    p = GeometryProduct("CW6", spheres=1, flats=1)
    b = typeII_background(p, "nonconstant")
    rep = verify_typeII_common(b)
    assert rep.passed, [c.name for c in rep.conditions if not c.passed]


def test_dilatino_kernels_match_summary_table():
    # E^{1,9}: 32 constant, 16 nonconstant; CW10: 16 nonconstant
    e19 = GeometryProduct("E(1,0)", flats=9)
    b = typeII_background(e19, "constant")
    assert dilatino_kernel(b) == (32, 32)
    b = typeII_background(e19, "nonconstant")
    assert dilatino_kernel(b) == (16, 16)
    cw10 = GeometryProduct("CW10")
    b = typeII_background(cw10, "nonconstant")
    assert dilatino_kernel(b) == (16, 16)
    b = typeII_background(cw10, "constant")
    assert dilatino_kernel(b) == (16, 16)


_EVEN_DILATINO = """
from sugraverify.catalog import typeII_background, GeometryProduct
from sugraverify.exactnum import Scalar
from sugraverify.multilinear import KForm
from sugraverify.sugra import dilatino_kernel
b = typeII_background(GeometryProduct("E(1,0)", flats=9), "constant")
space = b.frame_data["space"]
b.frame_data["H"] = KForm(space, 2, {(2, 3): Scalar(1)})
try:
    dilatino_kernel(b)
except RuntimeError as e:
    print(e)
"""


def test_dilatino_kernel_rejects_an_even_operator_under_python_O():
    # with a 2-form in place of H, c(dphi + 1/2 H) has the even monomial
    # g[e1,e2] and does not swap S+ and S-, so its kernel is not the sum of
    # its chiral kernels; the premise is an exception, which -O keeps
    out =subprocess.run([sys.executable, "-O", "-c", _EVEN_DILATINO],
                         capture_output=True, text=True, timeout=60,
                         env=checkout_env())
    assert out.returncode == 0, out.stderr
    assert "even monomial g[e1,e2]" in out.stdout


def _iib_half_calls(monkeypatch, b):
    """supercovariant_flatness(b) with sugra.kernel_dim spied on: (report,
    the number of kernel_dim calls)."""
    from sugraverify import sugra
    calls = []

    def spy(ops, alg, columns=None):
        calls.append(columns)
        return kernel_dim(ops, alg, columns=columns)

    monkeypatch.setattr(sugra, "kernel_dim", spy)
    return supercovariant_flatness(b)[0], len(calls)


def _chiral_kernel_dims(b):
    """{sign: kernel dimension of R^D on that chiral half}, both computed."""
    alg, curv = supercovariant_curvature(b)
    return {sign: kernel_dim(list(curv.values()), alg,
                             columns=chiral_basis(alg, sign))[0]
            for sign in (1, -1)}


def test_iib_half_check_stops_at_a_whole_plus_half(monkeypatch):
    # cw10's flux is self-dual: the +1 kernel is the whole half, so the -1
    # half is not eliminated; a tie would go to +1 anyway
    b = get_background("cw10")
    rep, calls = _iib_half_calls(monkeypatch, b)
    assert calls == 1
    assert _chiral_kernel_dims(b)[1] == 16
    assert rep.invariants == {"kernel dimension (complex)": "16",
                              "chirality": "+1", "nu": "32/32"}
    assert rep.passed


def test_iib_half_check_tries_the_minus_half_on_anti_selfdual_flux(
        monkeypatch):
    # flipping the sign of the F5 term carrying leg 9 makes the flux
    # anti-self-dual: the +1 kernel is empty, the -1 half is tried and
    # carries all of nu, as it did when both halves were always tried
    b = get_background("cw10")
    F = b.fluxes["F5"]
    flipped = KForm(F.space, 5, {I: -c if 9 in I else c
                                 for I, c in F.components.items()})
    b = b._replace(fluxes=dict(b.fluxes, F5=flipped))
    rep, calls = _iib_half_calls(monkeypatch, b)
    assert calls == 2
    dims = _chiral_kernel_dims(b)
    assert dims[-1] == 16 and dims[1] < 16
    assert rep.invariants == {"kernel dimension (complex)": "16",
                              "chirality": "-1", "nu": "32/32"}
    assert rep.passed


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_json_roundtrip():
    rep = verify_background(get_background("nw6"))
    text = rep.to_json()
    back = VerificationReport.from_json(text)
    assert back == rep
    assert "out of scope" in rep.to_text()


def test_out_of_scope_declarations_present():
    rep = verify_background(get_background("cw11"))
    joined = " ".join(rep.out_of_scope)
    assert "enhanced" in joined
    assert "quadric" in joined
    assert "SU(1,1)" in joined


def test_typeII_product_reports_for_spec_examples():
    from sugraverify.catalog import verify_typeII_product
    # AdS3 x S3 x S3 x E with strict radii bound and phi = a + 1/2 |H| y
    rep = verify_typeII_product(GeometryProduct("AdS3", spheres=2, flats=1),
                                "nonconstant")
    assert rep.passed
    assert any("saturated" in n or "equality" in n for n in rep.notes)
    # AdS3 x E7 is not a background: failing report with the violated reason
    rep2 = verify_typeII_product(GeometryProduct("AdS3", flats=7))
    assert not rep2.passed
    assert "|H|^2 < 0" in rep2.conditions[0].witness
    # E^{1,9} with a null linear dilaton
    rep3 = verify_typeII_product(GeometryProduct("E(1,0)", flats=9),
                                 "nonconstant")
    assert rep3.passed


def test_typeII_negative_control_unbalanced_dilaton():
    # doubling the dilaton slope breaks |dphi|^2 = 1/4 |H|^2 with witness
    p = GeometryProduct("E(1,0)", spheres=1, flats=6)
    b = typeII_background(p, "nonconstant")
    dphi = b.frame_data["dphi"]
    b.frame_data["dphi"] = dphi + dphi
    rep = verify_typeII_common(b)
    assert not rep.passed
    cond = {c.name: c for c in rep.conditions}
    assert cond["|dphi|^2 = 1/4 |H|^2"].witness


def test_structural_nabla_dphi_checks_its_premise():
    from sugraverify.catalog import (enumerate_parallelisable, solve_dilaton,
                                     verify_typeII_product)
    accepted = [p for p in enumerate_parallelisable(10)
                if solve_dilaton(p).accepted]
    assert len(accepted) == 12
    for p in accepted:
        rep = verify_typeII_product(p, "nonconstant")
        assert rep.passed, p.display()
        cond = {c.name: c for c in rep.conditions}["nabla d phi = 0"]
        assert "chart" in cond.note or "(checked)" in cond.note
    # negative control: the dilaton gradient moved onto a leg of the sphere,
    # where the torsion lives, is not parallel
    b = typeII_background(GeometryProduct("E(1,0)", spheres=1, flats=6),
                          "nonconstant")
    dphi = b.frame_data["dphi"]
    (coeff,) = dphi.components.values()
    b.frame_data["dphi"] = KForm(dphi.space, 1, {(1,): coeff})
    assert any(1 in idx for idx in b.frame_data["H"].components)
    cond = {c.name: c for c in verify_typeII_common(b).conditions}
    assert not cond["nabla d phi = 0"].passed
    assert "leg 1" in cond["nabla d phi = 0"].witness


# ---------------------------------------------------------------------------
# supercovariant curvature: the chart calibration of the pointwise formula
# ---------------------------------------------------------------------------

def _coeff_map(el, f):
    return el.alg.element({k: f(c) for k, c in el.comps.items()})


def _d(c, var):
    """d/dvar of a Scalar, Polynomial or ComplexScalar coefficient."""
    if isinstance(c, ComplexScalar):
        return ComplexScalar(_d(c.re, var), _d(c.im, var))
    if isinstance(c, Polynomial) and var in c.vars:
        return c.partial(var)
    return S(0)


def _at_origin(c):
    if isinstance(c, ComplexScalar):
        return ComplexScalar(_at_origin(c.re), _at_origin(c.im))
    if isinstance(c, Polynomial):
        return c.subs({v: S(0) for v in c.vars}).constant_value()
    return c


def _chart_thetas(b):
    """(chart, alg, [Theta_mu]): the coordinate components Theta_mu =
    1/2 c(omega_mu) + Omega(d_mu) of the supercovariant connection, from the
    chart's lightcone coframe and spin connection, with polynomial
    coefficients (complex ones for IIB)."""
    p = as_chart(b).geometry
    n = p.dim
    cof, frm, gram = lightcone_coframe(p)
    om = spin_connection(p, cof, frm, gram)
    alg = FrameAlgebra.lightcone(build_gamma((1, n - 1)))
    F = b.fluxes["F4" if b.theory == "d11" else "F5"]
    F = KForm(alg.space, F.degree, map_slots(F.components,
                                             nonzero_columns(frm)))
    thetas = []
    for mu in range(n):
        # omega_mu is skew: 1/4 omega_ab gamma^a gamma^b = 1/2 c(omega_mu)
        spin = clifford_action(KForm(alg.space, 2, {
            k: w for k, w in om[mu].items() if k[0] < k[1]}), alg)
        spin = spin.scale(R_(1, 2))
        X = [cof[a][mu] for a in range(n)]      # d_mu in frame components
        if b.theory == "d11":
            thetas.append(spin + omega_xf(X, F, alg))
            continue
        flux = clifford_action(F, alg) * \
            clifford_action(flat(alg.space, X), alg)
        thetas.append(_coeff_map(spin, lambda c: ComplexScalar(c, 0))
                      + _coeff_map(flux, lambda c: ComplexScalar(
                          0, c * R_(1, 4))))
    return p, alg, thetas


def _chart_curvature(b):
    """{(mu, nu): d_mu Theta_nu - d_nu Theta_mu + [Theta_mu, Theta_nu]} for
    mu < nu, as polynomial identities on the chart, and the chart."""
    p, alg, th = _chart_thetas(b)
    out = {}
    for mm, nn in combinations(range(p.dim), 2):
        out[(mm, nn)] = _coeff_map(th[nn], lambda c: _d(c, p.coords[mm])) \
            - _coeff_map(th[mm], lambda c: _d(c, p.coords[nn])) \
            + th[mm].commutator(th[nn])
    return out, p


def _rotated_cw11(perturb=None):
    """cw11 at mu = 6 in coordinates rotated by (3/5, 4/5) in the (x1, x4)
    plane, so that the profile has an off-diagonal entry and F4 two
    components; perturb adds to one profile entry."""
    c, s = R_(3, 5), R_(4, 5)
    A = [[S(0)] * 9 for _ in range(9)]
    for i, k in enumerate([4, 4, 4, 1, 1, 1, 1, 1, 1]):
        A[i][i] = S(-k)
    d0, d3 = A[0][0], A[3][3]
    A[0][0], A[3][3] = c * c * d0 + s * s * d3, s * s * d0 + c * c * d3
    A[0][3] = A[3][0] = c * s * (d0 - d3)
    for (i, j), dv in (perturb or {}).items():
        A[i][j] = A[i][j] + dv
        if i != j:
            A[j][i] = A[j][i] + dv

    def flux(space):
        # dx1 = c dy1 + s dy4, and dx- ^ dy4 ^ dy2 ^ dy3 equals
        # dx- ^ dy2 ^ dy3 ^ dy4
        return {"F4": KForm(space, 4, {
            (1, 2, 3, 4): S(6) * c, (1, 3, 4, 5): S(6) * s})}

    return chart_spec("d11", "cw11-rotated", CWData(A), flux)


_CALIBRATION = {"cw11": lambda: get_background("cw11"),
                "cw10": lambda: get_background("cw10"),
                "cw11-rotated": _rotated_cw11,
                "cw11-rotated-perturbed": lambda: _rotated_cw11(
                    {(1, 1): S(1), (0, 5): R_(1, 2)})}


@pytest.mark.parametrize("case", sorted(_CALIBRATION))
def test_pointwise_curvature_equals_the_chart_curvature_at_the_origin(case):
    # the sign calibration of R^D_ab = -1/2 c(R_ab) + [Omega_a, Omega_b]:
    # the chart's d Theta + [Theta, Theta], built from its spin connection,
    # evaluated at the origin, where e_a = d_a, for every pair (a, b)
    b = _CALIBRATION[case]()
    chart, _ = _chart_curvature(b)
    alg, curv = supercovariant_curvature(b)
    assert sorted(chart) == sorted(curv)
    nonzero = 0
    for key, r in chart.items():
        assert (_coeff_map(r, _at_origin) - curv[key]).is_zero(), key
        nonzero += not curv[key].is_zero()
    # the d=11 solutions are flat and the perturbed wave is not; the cw10
    # values vanish only on one Weyl half
    assert (nonzero > 0) == (case in ("cw10", "cw11-rotated-perturbed"))
    assert curv[(0, 1)].alg is alg


def test_spin_curvature_matches_riemann_on_chart():
    # with zero flux the supercovariant curvature is the spin-connection
    # curvature; it must equal -1/4 R_{mu nu a b} gamma^a gamma^b with the
    # geometry module's Riemann tensor (sign convention pinned by test): on
    # the chart as a polynomial identity, and pointwise at the origin
    mu = S(3)
    vals = [mu * mu * R_(-1, 36) * S(k) for k in [4, 4, 4, 1, 1, 1, 1, 1, 1]]
    data = CWData.diagonal(vals)

    def flux(space):
        return {"F4": KForm(space, 4, {})}

    b = chart_spec("d11", "cw11-noflux", data, flux)
    alg, omegas = supercovariant_connection(b)
    assert all(om.is_zero() for om in omegas)
    chart, p = _chart_curvature(b)
    _, pointwise = supercovariant_curvature(b)
    riem = p.riemann()
    cof, frm, gram = lightcone_coframe(p)
    n = p.dim
    quarter = Scalar.from_rational(-1, 4)
    for mm in range(n):
        for nn in range(mm + 1, n):
            want = alg.element()
            at_origin = alg.element()
            for a in range(n):
                for bb in range(n):
                    # frame components of R(d_mu, d_nu, E_a, E_b)
                    comp = None
                    for x in range(n):
                        if frm[a][x].is_zero():
                            continue
                        for y in range(n):
                            if frm[bb][y].is_zero():
                                continue
                            r = riem.get(mm, nn, x, y)
                            if hasattr(r, "is_zero") and r.is_zero():
                                continue
                            t = frm[a][x] * frm[bb][y] * r
                            comp = t if comp is None else comp + t
                    if comp is None:
                        continue
                    gg = alg.raised_gamma(a) * alg.raised_gamma(bb)
                    want = want + gg.scale(comp * quarter)
                    at_origin = at_origin + gg.scale(
                        _at_origin(comp) * quarter)
            assert (chart[(mm, nn)] - want).is_zero(), (mm, nn)
            assert (pointwise[(mm, nn)] - at_origin).is_zero(), (mm, nn)


def test_cw11_doubled_flux_fails_supercovariant_flatness():
    b = get_background("cw11")
    F = b.fluxes["F4"] * S(2)
    rep = verify_d11_maxsusy(b._replace(name="cw11-2F", fluxes={"F4": F}))
    cond = {c.name: c for c in rep.conditions}
    assert cond["nabla F=0"].passed
    rd = cond["supercovariant curvature R^D = 0"]
    assert not rd.passed and "values fail" in rd.witness
    assert not cond["nu = 1"].passed
    assert rep.invariants["nu"] != "32/32"


def test_transverse_flux_fails_flatness_on_the_nabla_F_premise():
    # mu dx1 ^ dx2 ^ dx3 ^ dx4 on the cw11 profile is not parallel, so R^D
    # at the origin certifies nothing: every flatness condition fails and
    # names the premise, and no kernel is reported
    b = get_background("cw11")
    F = KForm(b.geometry.space, 4, {(2, 3, 4, 5): S(6)})
    rep = verify_d11_maxsusy(b._replace(name="cw11-transverse",
                                        fluxes={"F4": F}))
    cond = {c.name: c for c in rep.conditions}
    assert not cond["nabla F=0"].passed
    for name in ("supercovariant curvature R^D = 0", "sl(32) tracelessness",
                 "clifford-trace field equation identity", "nu = 1"):
        assert not cond[name].passed, name
        assert cond[name].witness.startswith("premise nabla F = 0 fails"), \
            name
    assert "nu" not in rep.invariants
    rep2, dim, basis, alg = supercovariant_flatness(
        b._replace(fluxes={"F4": F}))
    assert not rep2.passed and dim is None and alg is None


def test_chart_metric_at_the_origin_must_be_the_lightcone_gram():
    # the pointwise formula reads frame components at the base point; a
    # geometry whose Gram there is not the lightcone Gram is refused
    b = get_background("cw11")
    p = cw_patch(b.cw_data)
    g = [row[:] for row in p.metric]
    ginv = [row[:] for row in p.metric_inv]
    g[2][2] = ginv[2][2] = Polynomial.constant(S(-1))
    q = CoordinatePatch(p.coords, g, ginv)
    with pytest.raises(ValueError, match="lightcone Gram"):
        supercovariant_connection(b._replace(geometry=q))


def test_nw6_chart_as_d6_background():
    # the plane-wave chart of the six-dimensional Nappi-Witten group with
    # the exactly solved torsion coefficient passes the full d=6 verifier
    # (chart-level twin of the algebraic catalog entry)
    from sugraverify.liealg import CWData as _CWData
    data = _CWData.diagonal([R_(-1, 4)] * 4)

    def flux(space):
        one = S(1)
        return {"H3": KForm(space, 3, {(1, 2, 3): one, (1, 4, 5): one})}

    b = chart_spec("d6-(1,0)", "nw6-chart", data, flux, orientation=-1)
    rep = verify_d6(b)
    assert rep.passed, [c.name for c in rep.conditions if not c.passed]
    # the printed coefficient 2/3 fails Einstein and flatness on the chart
    def flux_bad(space):
        c = R_(2, 3)
        return {"H3": KForm(space, 3, {(1, 2, 3): c, (1, 4, 5): c})}

    b2 = chart_spec("d6-(1,0)", "nw6-chart-printed", data, flux_bad,
                    orientation=-1)
    rep2 = verify_d6(b2)
    assert not rep2.passed


def test_cw10_connection_commutators_equal_difference_of_products():
    # the flux terms Omega_a (complex coefficients) and the curvature values
    # (real spin part plus complex brackets)
    alg, omegas = supercovariant_connection(get_background("cw10"))
    _, curv = supercovariant_curvature(get_background("cw10"))
    n = alg.space.dim
    nonzero = 0
    for mm in range(n):
        for nn in range(mm + 1, n):
            for x, y in ((omegas[mm], omegas[nn]),
                         (curv[(0, 1)] + omegas[mm], omegas[nn])):
                got = x.commutator(y)
                assert (got - (x * y - y * x)).is_zero(), (mm, nn)
                nonzero += not got.is_zero()
    assert nonzero


def test_iib_report_keeps_the_catalog_notes():
    rep = verify_background(get_background("cw10"))
    assert any(n.startswith("flux normalization mu (not mu/2)")
               for n in rep.notes), rep.notes
    assert get_background("e1_9").notes[0] in \
        verify_background(get_background("e1_9")).notes
