import random
from itertools import combinations

import pytest

from sugraverify import kaluza
from sugraverify.catalog import get_background, verify_background
from sugraverify.exactnum import Scalar
from sugraverify.liealg import nw6, nw6_family, so12_so3, e15, \
    canonical_three_form
from sugraverify.multilinear import KForm, QuadraticSpace, interior, wedge
from sugraverify.kaluza import reduce_group, reduce_d11, \
    unit_spacelike_sample
from sugraverify.sugra import BackgroundSpec

S = Scalar
# x9 in the d=11 plane-wave frame (xp, xm, x1..x9)
X9 = [S(0)] * 10 + [S(1)]


def test_cw11_flux_reduction_along_transverse_direction():
    # iota_{x9} F = 0 for F = mu dx- ^ dx1 ^ dx2 ^ dx3: H3 = 0, and the
    # horizontal part G4 = F is what is left
    witnesses = reduce_d11(get_background("cw11"), X9)
    assert witnesses["H3 = iota_X F4 = 0"] == ""
    assert witnesses["G4 = F4 - X_flat ^ H3 / |X|^2 = 0"] == \
        "(6) xm^x1^x2^x3"


# ---------------------------------------------------------------------------
# group reductions
# ---------------------------------------------------------------------------

def test_abelian_reduction_flat():
    g = e15()
    X = [S(0)] * 6
    X[1] = S(1)
    red = reduce_group(g, X)
    assert red.passed
    assert red.F2.is_zero() and red.G2.is_zero()


def test_nw6_unit_spacelike_e1():
    g = nw6()
    X = [S(0)] * 6
    X[2] = S(1)
    red = reduce_group(g, X)
    assert red.passed
    assert red.checks["F = G2"]
    assert not red.F2.is_zero()


def test_so12_so3_reduction_along_sphere_direction():
    g = so12_so3(1, 1)
    X = [S(0)] * 6
    X[3] = S(1)
    red = reduce_group(g, X)
    assert red.passed
    assert red.checks["dG2 = 0"]
    assert red.checks["d *_h G2 = -F ^ G2"]


def _restrict_by_interior_chain(form, basis):
    """{increasing a: form(v_ak, ..., v_a1)} over the nonzero values, by the
    chain of interior products that kaluza._restrict replaced."""
    comps = {}
    for idx in combinations(range(len(basis)), form.degree):
        out = form
        for i in reversed(idx):
            out = interior(basis[i], out)
        val = out.components.get((), S(0))
        if not val.is_zero():
            comps[idx] = val
    return comps


_D6_ALGEBRAS = {"nw6": nw6, "so12_so3(1,1)": lambda: so12_so3(1, 1),
                "e15": e15}


@pytest.mark.parametrize("name", sorted(_D6_ALGEBRAS))
def test_restrict_is_the_interior_chain_up_to_the_reversal_sign(name):
    # The chain evaluates form(v_k, ..., v_1) and the pullback form(v_1,
    # ..., v_k); they differ by (-1)^(k(k-1)/2), -1 for k = 2 and 3.  Every
    # reduction check is homogeneous in the restricted forms (H_q3 - *_h G2
    # flips as a whole), and the orientation test reads the (n-1)-form
    # iota_X vol_g with n = 6, whose sign is (-1)^10 = +1, so the verdicts
    # do not move.
    g = _D6_ALGEBRAS[name]()
    rng = random.Random(name)
    H = canonical_three_form(g) * S(-1)
    flipped = 0
    for X in unit_spacelike_sample(g, rng, 3):
        red = reduce_group(g, X)
        assert red.passed
        quotient = QuadraticSpace(red.h, 1)
        forms = [red.G2, H - wedge(red.alpha, red.G2), H,
                 interior(X, g.space.volume_form())]
        forms += [KForm(g.space, k, {
            tuple(sorted(rng.sample(range(g.dim), k))): S(rng.randint(-3, 3))
            for _ in range(3)}) for k in range(1, 6)]
        for form in forms:
            k = form.degree
            sign = -1 if k * (k - 1) // 2 % 2 else 1
            old = _restrict_by_interior_chain(form, red.complement)
            new = kaluza._restrict(form, red.complement, quotient)
            assert new.components == {i: c * sign for i, c in old.items()}
            flipped += sign < 0 and bool(old)
    assert flipped > 0


def test_null_and_timelike_directions_rejected():
    g = nw6()
    X = [S(0)] * 6
    X[0] = S(1)                     # e+ is null
    with pytest.raises(ValueError):
        reduce_group(g, X)
    g2 = so12_so3(1, 1)
    T = [S(0)] * 6
    T[0] = S(1)                     # e0 timelike
    with pytest.raises(ValueError):
        reduce_group(g2, T)


def test_reduction_sweep_all_catalog_algebras():
    # >= 50 exact spacelike directions per six-dimensional catalog algebra;
    # F = G2 and H = *_h G2 + alpha ^ G2 must hold exactly on every one
    # (duality-compatible algebras only: the mixed products have no
    # anti-selfdual torsion and are excluded by the d6 filter)
    rng = random.Random(31)
    for g in [e15(), nw6(), so12_so3(1, 1), nw6_family(1, 1)]:
        for X in unit_spacelike_sample(g, rng, 50):
            red = reduce_group(g, X)
            assert red.passed, (g.name, [str(x) for x in X], red.checks)


def test_flat_d11_reduction():
    # e1_10 along x9: every check is computed and passes, and all 32
    # spinors descend
    witnesses = reduce_d11(get_background("e1_10"), X9)
    assert list(witnesses) == list(kaluza._FLAT_CHECKS) + \
        [kaluza._SUSY_CHECK]
    assert not any(witnesses.values())
    # any spacelike combination reduces the same way
    X = [S(0), S(3), S(4)] + [S(0)] * 8
    assert reduce_d11(get_background("e1_10"), X) == witnesses


def test_flat_d11_null_direction_rejected():
    e1_10 = get_background("e1_10")
    for X in ([S(1)] + [S(0)] * 10,             # xp is null
              [S(1), S(-1)] + [S(0)] * 9):      # xp - xm is timelike
        with pytest.raises(ValueError, match="spacelike"):
            reduce_d11(e1_10, X)
    with pytest.raises(ValueError, match="expected 11 components"):
        reduce_d11(e1_10, X9[:10])


def test_d11_reduction_of_a_curved_parent_fails_naming_the_holonomy():
    # cw11 along x9: R(xm, x9) moves X_flat, so X is not parallel, the
    # quotient is not flat, and only 16 spinors are X-invariant
    witnesses = reduce_d11(get_background("cw11"), X9)
    assert "R(xm,x9) takes it to" in \
        witnesses["X_flat parallel (|X| and the dilaton constant)"]
    assert witnesses["R = 0 (flat quotient)"] == "R(xm,x1,xm,x1) = -4"
    assert witnesses[kaluza._SUSY_CHECK] == (
        "the joint kernel is 16-dimensional, of 32; premise X_flat "
        "parallel fails")
    rep = _iia_report(get_background("cw11"))
    flat, susy = rep.conditions
    assert not flat.passed and "R(xm,x9)" in flat.witness
    assert not susy.passed and "16-dimensional" in susy.witness
    assert susy.note == ""


def test_d11_reduction_with_flux_along_the_fibre_fails():
    # F4 on the legs (xm, x1, x2, x9) of flat space: H3 = iota_X F4 != 0
    parent = get_background("e1_10")
    parent = parent._replace(fluxes={"F4": KForm(
        parent.geometry.space, 4, {(1, 2, 3, 10): S(1)})})
    witnesses = reduce_d11(parent, X9)
    assert witnesses["H3 = iota_X F4 = 0"] == "(-1) xm^x1^x2"
    assert witnesses["G4 = F4 - X_flat ^ H3 / |X|^2 = 0"] == ""
    assert witnesses[kaluza._SUSY_CHECK] == \
        "the joint kernel is 16-dimensional, of 32"
    rep = _iia_report(parent)
    assert [c.passed for c in rep.conditions] == [False, False]


def test_verify_e1_9_iia_computes_its_spinor_kernel(monkeypatch):
    calls = []
    kernel_dim = kaluza.kernel_dim

    def spy(ops, alg, columns=None):
        calls.append(len(ops))
        return kernel_dim(ops, alg, columns)

    monkeypatch.setattr(kaluza, "kernel_dim", spy)
    rep = verify_background(get_background("e1_9_iia"))
    assert rep.passed and calls == [56]     # 55 values of R^D and Omega_X


def _iia_report(parent):
    return kaluza.verify_iia(BackgroundSpec(
        "iia", "e1_9_iia", None, {},
        frame_data={"parent": parent, "along": X9}))
