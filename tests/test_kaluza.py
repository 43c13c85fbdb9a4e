import random

import pytest

from sugraverify.exactnum import Scalar
from sugraverify.multilinear import KForm, wedge, interior
from sugraverify.liealg import (nw6, nw6_family, so12_so3, e15,
                                canonical_three_form, d6_catalog)
from sugraverify.kaluza import (reduce_form, reduce_group, reduce_flat_d11,
                                unit_spacelike_sample)

S = Scalar


def test_reduce_form_horizontal_input():
    g = e15()
    sp = g.space
    alpha = KForm.basis(sp, 1)                 # dual to e1; alpha(e1) = 1
    xi = [S(0)] * 6
    xi[1] = S(1)
    F = KForm.basis(sp, 2, 3)
    G, H = reduce_form(F, alpha, xi)
    assert H.is_zero() and G == F


def test_reduce_form_vertical_roundtrip():
    g = e15()
    sp = g.space
    alpha = KForm.basis(sp, 1)
    xi = [S(0)] * 6
    xi[1] = S(1)
    om = KForm.basis(sp, 2, 3)
    F = wedge(alpha, om)
    G, H = reduce_form(F, alpha, xi)
    assert G.is_zero()
    # round-trip: G - alpha ^ H = F
    assert (G - wedge(alpha, H)) == F
    # horizontality
    assert interior(xi, G).is_zero() and interior(xi, H).is_zero()


def test_reduce_form_requires_normalized_pairing():
    g = e15()
    sp = g.space
    alpha = KForm.basis(sp, 1, coeff=S(2))
    xi = [S(0)] * 6
    xi[1] = S(1)
    with pytest.raises(ValueError):
        reduce_form(KForm.basis(sp, 2, 3), alpha, xi)


def test_cw11_flux_reduction_along_transverse_direction():
    # iota_{d9} F = 0 for F = mu dx- ^ dx1 ^ dx2 ^ dx3: H = 0, G = F
    from sugraverify.catalog import get_background
    b = get_background("cw11")
    p = b.geometry
    F = b.fluxes["F4"]
    xi = [None] * 11
    from sugraverify.exactnum import Polynomial
    xi = [Polynomial.constant(0)] * 11
    xi[10] = Polynomial.constant(1)
    alpha = KForm(p.space, 1, {(10,): Polynomial.constant(1)})
    G, H = reduce_form(F, alpha, xi)
    assert H.is_zero()
    assert (G - F).is_zero()


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
    out = reduce_flat_d11({"type": "translation",
                           "components": [S(0)] * 10 + [S(1)]})
    assert out["metric"] == "flat E^{1,9}"
    assert out["dilaton"] == "constant"
    assert out["F2"] == out["H3"] == out["G4"] == "0"
    assert out["max_susy_preserved"]
    # any spacelike combination reduces the same way
    out2 = reduce_flat_d11({"type": "translation",
                            "components": [S(0), S(3), S(4)] + [S(0)] * 8})
    assert out2["metric"] == out["metric"]


def test_flat_d11_null_direction_rejected():
    with pytest.raises(ValueError):
        reduce_flat_d11({"type": "translation",
                         "components": [S(1), S(1)] + [S(0)] * 9})
    with pytest.raises(ValueError):
        reduce_flat_d11({"type": "rotation",
                         "components": [S(0)] * 10 + [S(1)]})
