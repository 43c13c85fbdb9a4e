import random
from itertools import combinations

import pytest

from sugraverify.exactnum import Scalar, Polynomial, sqrt_scalar
from sugraverify.multilinear import (QuadraticSpace, KForm, form_inner, hodge,
                                     interior_frame, lambda_action)
from sugraverify.liealg import (CWData, nw6, nw6_family, so12_so3, e15,
                                canonical_three_form)
from sugraverify.geometry import ConstCurvBlock, ProductGeometry, cw_patch
from sugraverify.clifford import build_gamma, FrameAlgebra
from sugraverify.sugra import (BackgroundSpec, VerificationReport, verify_d11,
                               verify_d11_maxsusy, supercovariant_flatness,
                               verify_iib_maxsusy, verify_d6,
                               verify_typeII_common, dilatino_kernel,
                               killing_vectors_from_kernel, _riemann_flux_rhs,
                               _riemann_iib_rhs, _plujac_holds)
from sugraverify.catalog import (get_background, verify_background,
                                 assemble_parallelisable, typeII_background,
                                 GeometryProduct)

S = Scalar
R_ = Scalar.from_rational


def names(rep):
    return {c.name: c.passed for c in rep.conditions}


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
        return {"F4": KForm(space, 4, {(1, 2, 3, 4): Polynomial.constant(mu)})}

    b = BackgroundSpec("d11", "cw11-wrong", "cw", cw_data=data,
                       flux_builder=flux)
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
    ads7 = ConstCurvBlock(7, S(-8) * Rv, lorentzian=True, label="AdS7")
    s4 = ConstCurvBlock(4, S(7) * Rv, lorentzian=False, label="S4")
    prod = ProductGeometry([ads7, s4])
    q = sqrt_scalar(S(6) * Rv)

    def flux(space):
        return {"F4": prod.volume_form(1, q)}

    return BackgroundSpec("d11", "ads7xs4-swapped", "product", product=prod,
                          flux_builder=flux)


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


def test_killing_vectors_from_cw11_kernel():
    b = get_background("cw11")
    rep, dim, basis, alg = supercovariant_flatness(b)
    assert dim == 32
    # lightcone-annihilated constant spinors: gamma(e-) eps = 0; their
    # bilinears point along d+ only, and satisfy Killing's equation exactly
    from sugraverify.clifford import clifford_action, kernel_dim
    ann = clifford_action(KForm.basis(alg.space, 1), alg)
    k, sub = kernel_dim([ann], alg)
    assert k == 16
    fd = {"space": alg.space}
    from sugraverify.clifford import spinor_to_vector
    found_nonzero = False
    for i in range(3):
        V = spinor_to_vector(sub[i], sub[i], alg)
        # only the e+ frame component may survive
        for a in range(1, 11):
            assert V[a].is_zero()
        if not V[0].is_zero():
            found_nonzero = True
    assert found_nonzero
    pairs = killing_vectors_from_kernel(b, sub, alg)
    assert pairs and all(ok for _, ok in pairs)


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
    ads5 = ConstCurvBlock(5, -Rv, lorentzian=True, label="AdS5")
    s5 = ConstCurvBlock(5, Rv, lorentzian=False, label="S5")
    prod = ProductGeometry([ads5, s5], orientation=-1)
    c = S(2) * sqrt_scalar(Rv * R_(1, 5))

    def flux(space):
        G = prod.volume_form(0, c)
        return {"F5": G + prod.volume_form(1, c), "G5": G}

    return BackgroundSpec("iib", "ads5xs5-printed", "product", product=prod,
                          flux_builder=flux)


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
        F = KForm(space, 5,
                  {(1, 2, 3, 4, 5): Polynomial.constant(half * mu),
                   (1, 6, 7, 8, 9): Polynomial.constant(half * mu)})
        G = KForm(space, 5, {(1, 2, 3, 4, 5): Polynomial.constant(half * mu)})
        return {"F5": F, "G5": G}

    b = BackgroundSpec("iib", "cw10-half", "cw", cw_data=data,
                       flux_builder=flux)
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
        return {"F5": KForm(space, 5,
                            {(1, 2, 3, 4, 5): Polynomial.constant(mu)})}

    b = BackgroundSpec("iib", "cw10-nonsd", "cw", cw_data=data,
                       flux_builder=flux)
    rep = verify_iib_maxsusy(b)
    assert not rep.passed
    cond = {c.name: c for c in rep.conditions}
    sd = cond["self-duality *F=F"]
    assert not sd.passed
    # the witness is *F - F: the missing block with its coefficient and F
    # itself with the opposite sign
    F = flux(b.geometry.space)["F5"]
    assert sd.witness == str(hodge(F) - F)
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
    one = Polynomial.constant(1)

    def flux(space):
        return {"F5": KForm(space, 5, {(1, 2, 3, 4, 5): one,
                                       (1, 6, 7, 8, 9): one,
                                       (1, 2, 3, 6, 7): one})}

    rep = verify_iib_maxsusy(BackgroundSpec("iib", "cw10-plujac", "cw",
                                            cw_data=data, flux_builder=flux))
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
    one = Polynomial.constant(1)

    def flux(space):
        return {"F5": KForm(space, 5, {(1, 2, 3, 4, 5): one,
                                       (1, 6, 7, 8, 9): one}),
                "G5": KForm(space, 5, {(1, 2, 3, 4, 5): one})}

    return BackgroundSpec("iib", "cw10-perturbed", "cw", cw_data=CWData(A),
                          flux_builder=flux)


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
    F = b.flux_builder(geom.space)["F4" if b.theory == "d11" else "F5"]
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
    rhs = _riemann_flux_rhs if theory == "d11" else _riemann_iib_rhs
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
    bad = BackgroundSpec("d6-(1,0)", "ads3xs3(1,2)", "algebra",
                         algebra=so12_so3(1, 2))
    rep2 = verify_d6(bad)
    assert not rep2.passed
    cond = {c.name: c for c in rep2.conditions}
    assert not cond["*H=-H"].passed
    assert cond["*H=-H"].witness           # nonzero anti-selfduality defect


def test_nw6_unequal_weights_fail_antiselfduality():
    bad = BackgroundSpec("d6-(1,0)", "d(E4,R)(1,2)", "algebra",
                         algebra=nw6_family(1, 2))
    rep = verify_d6(bad)
    assert not rep.passed


def test_theory_gate_rejects_dimension_and_signature():
    from sugraverify.liealg import MetricLieAlgebra
    from sugraverify import linalg
    # a ten-dimensional plane wave is not a d=11 background
    with pytest.raises(ValueError, match="d11 needs dimension 11"):
        verify_d11(BackgroundSpec("d11", "cw10-as-d11", "cw",
                                  cw_data=get_background("cw10").cw_data,
                                  flux_builder=lambda sp: {
                                      "F4": KForm(sp, 4, {})}))
    # nor an eleven-dimensional one a IIB background
    with pytest.raises(ValueError, match="iib needs dimension 10"):
        verify_iib_maxsusy(BackgroundSpec(
            "iib", "cw11-as-iib", "cw", cw_data=get_background("cw11").cw_data,
            flux_builder=lambda sp: {"F5": KForm(sp, 5, {})}))
    # a euclidean six-dimensional algebra has the right dimension only
    e6 = MetricLieAlgebra(6, {}, linalg.eye(6), name="E6")
    with pytest.raises(ValueError, match=r"signature \(0, 6\)"):
        verify_d6(BackgroundSpec("d6-(1,0)", "e6", "algebra", algebra=e6))


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


def test_spin_curvature_matches_riemann_on_chart():
    # with zero flux the supercovariant curvature is the spin-connection
    # curvature; it must equal -1/4 R_{mu nu a b} gamma^a gamma^b with the
    # geometry module's Riemann tensor (sign convention pinned by test)
    from sugraverify.sugra import supercovariant_connection
    from sugraverify.geometry import riemann, lightcone_coframe
    from sugraverify.liealg import CWData
    mu = S(3)
    vals = [mu * mu * R_(-1, 36) * S(k) for k in [4, 4, 4, 1, 1, 1, 1, 1, 1]]
    data = CWData.diagonal(vals)

    def flux(space):
        return {"F4": KForm(space, 4, {})}

    b = BackgroundSpec("d11", "cw11-noflux", "cw", cw_data=data,
                       flux_builder=flux)
    p, alg, thetas = supercovariant_connection(b)
    riem = riemann(p)
    cof, frm, gram = lightcone_coframe(p)
    n = p.dim
    quarter = Scalar.from_rational(-1, 4)
    for mm in range(n):
        for nn in range(mm + 1, n):
            got = thetas[nn].partial(p.coords[mm]) \
                - thetas[mm].partial(p.coords[nn]) \
                + thetas[mm].commutator(thetas[nn])
            want = alg.element()
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
                    term = (alg.raised_gamma(a) * alg.raised_gamma(bb)) \
                        .scale(comp * quarter)
                    want = want + term
            assert (got - want).is_zero(), (mm, nn)


def test_nw6_chart_as_d6_background():
    # the plane-wave chart of the six-dimensional Nappi-Witten group with
    # the exactly solved torsion coefficient passes the full d=6 verifier
    # (chart-level twin of the algebraic catalog entry)
    from sugraverify.liealg import CWData as _CWData
    data = _CWData.diagonal([R_(-1, 4)] * 4)

    def flux(space):
        one = Polynomial.constant(1)
        return {"H3": KForm(space, 3, {(1, 2, 3): one, (1, 4, 5): one})}

    b = BackgroundSpec("d6-(1,0)", "nw6-chart", "cw", cw_data=data,
                       flux_builder=flux,
                       frame_data={"orientation": -1})
    rep = verify_d6(b)
    assert rep.passed, [c.name for c in rep.conditions if not c.passed]
    # the printed coefficient 2/3 fails Einstein and flatness on the chart
    def flux_bad(space):
        c = Polynomial.constant(R_(2, 3))
        return {"H3": KForm(space, 3, {(1, 2, 3): c, (1, 4, 5): c})}

    b2 = BackgroundSpec("d6-(1,0)", "nw6-chart-printed", "cw", cw_data=data,
                        flux_builder=flux_bad,
                        frame_data={"orientation": -1})
    rep2 = verify_d6(b2)
    assert not rep2.passed


def test_cw10_connection_commutators_equal_difference_of_products():
    from sugraverify.sugra import supercovariant_connection
    p, alg, thetas = supercovariant_connection(get_background("cw10"))
    n = p.dim
    nonzero = 0
    for mm in range(n):
        for nn in range(mm + 1, n):
            x, y = thetas[mm], thetas[nn]
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
