"""The plane wave at one point, a SymmetricSpace, held to the polynomial
chart at the chart origin: the Riemann tensor, the nabla F verdict and
the torsion curvature of d = 6; and the sparse construction check of a
symmetric space (first Bianchi identity and R_ab . R = 0) against a
dense loop."""

import json
import random
from ast import literal_eval
from itertools import combinations

import pytest

from conftest import cw_lie_algebra, mat_sub
from sugraverify.exactnum import Scalar, Polynomial
from sugraverify.multilinear import KForm, BiSymTensor, kulkarni_nomizu
from sugraverify.liealg import CWData
from sugraverify.geometry import (SymmetricSpace, cw_patch,
                                  curvature_with_torsion, Unverified)
from sugraverify.sugra import BackgroundSpec, verify_d11_maxsusy, verify_d6
from sugraverify.catalog import (get_background, load_background,
                                 typeII_background, GeometryProduct)
from sugraverify import linalg

S = Scalar
R_ = Scalar.from_rational


def _at_origin(c):
    if isinstance(c, Polynomial):
        return c.subs({v: S(0) for v in c.vars}).constant_value()
    return c


def _rotated(rng, diag):
    """O diag(diag) O^T for a random exact rotation O (a Cayley transform)."""
    m = len(diag)
    K = linalg.zeros(m, m)
    for i in range(m):
        for j in range(i + 1, m):
            K[i][j] = S(rng.randint(-2, 2))
            K[j][i] = -K[i][j]
    I = linalg.eye(m)
    O = linalg.mat_mul(mat_sub(I, K),
                       linalg.inverse(linalg.mat_add(I, K)))
    D = linalg.zeros(m, m)
    for i, d in enumerate(diag):
        D[i][i] = S(d)
    return linalg.mat_mul(O, linalg.mat_mul(D, linalg.transpose(O)))


def _dense_with_a_flat_direction():
    # rank 3 on four transverse legs: A = sum_k c_k u_k u_k^T with
    # (1, 1, 1, 1) in the kernel of every u_k u_k^T
    us = ([1, -1, 0, 0], [0, 1, -1, 0], [1, 1, 0, -2])
    A = linalg.zeros(4, 4)
    for c, u in zip((-1, 2, -3), us):
        for i in range(4):
            for j in range(4):
                A[i][j] = A[i][j] + S(c * u[i] * u[j])
    return A


def _degenerate():
    # two zero eigenvalues on five transverse legs, with off-diagonal terms
    A = linalg.zeros(5, 5)
    A[0][0], A[1][2], A[2][1], A[3][3], A[2][2] = \
        S(-1), S(2), S(2), S(3), S(4)
    return A


PROFILES = {
    "cw11": lambda: get_background("cw11").cw_data,
    "cw10": lambda: get_background("cw10").cw_data,
    "cw11-rotated": lambda: CWData(_rotated(
        random.Random(11), [-4, -4, -4, -1, -1, -1, -1, -1, -1])),
    "cw10-rotated": lambda: CWData(_rotated(random.Random(10), [-1] * 8)),
    "dense-flat": lambda: CWData(_dense_with_a_flat_direction()),
    "degenerate": lambda: CWData(_degenerate()),
    # only the last transverse direction is curved: only a6 moves forms
    "one-curved": lambda: CWData.diagonal([0] * 5 + [-1]),
}


@pytest.mark.parametrize("case", sorted(PROFILES))
def test_pair_riemann_equals_the_chart_riemann_at_the_origin(case):
    # R(xm, x_i, xm, x_j) = A_ij is the chart's Riemann tensor at x = 0 in
    # the coordinate frame (d+, d-, d_i), component by component, with no
    # relabelling; so is -[[X,Y],Z] on p of the transvection algebra
    data = PROFILES[case]()
    pair, chart = SymmetricSpace.plane_wave(data), cw_patch(data)
    assert pair.dim == chart.dim == data.n
    assert pair.space.metric == [[_at_origin(x) for x in row]
                                 for row in chart.metric]
    got, want = pair.riemann().components, chart.riemann().components
    assert got and set(got) == set(want)
    for key, v in want.items():
        assert (_at_origin(v) - got[key]).is_zero(), key
    g, B, n = cw_lie_algebra(data), pair.space.metric, data.n
    for (a, b, c, w), v in got.items():
        abc = g.bracket(g.bracket(g.basis_vector(a), g.basis_vector(b)),
                        g.basis_vector(c))
        assert (v + sum((abc[t] * B[t][w] for t in range(n)), S(0))) \
            .is_zero(), (a, b, c, w)
    ric = pair.ricci()
    for i, row in enumerate(chart.ricci()):
        for j, v in enumerate(row):
            assert (_at_origin(v) - ric[i][j]).is_zero(), (i, j)


def _random_form(rng, n):
    """A constant 3-, 4- or 5-form; half the draws are built on an xm leg
    with transverse legs only, so that both verdicts occur."""
    k = rng.choice((3, 4, 5))
    if rng.random() < 0.5:
        return k, {(1,) + tuple(sorted(rng.sample(range(2, n), k - 1))):
                   S(rng.choice((-1, 1))) for _ in range(rng.choice((1, 2)))}
    return k, {idx: S(rng.choice((-2, -1, 1, 3))) for idx in
               rng.sample(list(combinations(range(n), k)),
                          rng.choice((1, 2, 3)))}


def test_pair_nabla_verdict_equals_the_chart_nabla_on_random_forms():
    # invariance under the holonomy at the point decides nabla F = 0 as the
    # chart's covariant derivative of the same constant form does, and d(F)
    # is zero exactly when nabla(F) is {}
    rng = random.Random(2024)
    verdicts = []
    for case in ("cw11", "cw10", "dense-flat", "degenerate", "one-curved"):
        data = PROFILES[case]()
        pair, chart = SymmetricSpace.plane_wave(data), cw_patch(data)
        for _ in range(64):
            k, comps = _random_form(rng, pair.dim)
            F = KForm(pair.space, k, comps)
            nabla = pair.nabla(F)
            want = all(G.is_zero() for G in chart.nabla(KForm(
                chart.space, k, {i: Polynomial.constant(c)
                                 for i, c in comps.items()})).values())
            assert (nabla == {}) == want, (case, comps)
            assert pair.d(F).is_zero() == want
            if not want:
                (xi, why), = nabla.items()
                assert isinstance(why, Unverified)
                assert str(pair.d(F)) == str(why)
                assert xi.startswith("R(xm,x")
                assert f"{xi} takes it to " in str(why)
            verdicts.append(want)
    assert len(verdicts) == 320
    assert 50 < sum(verdicts) < 270


def test_flux_with_an_xp_leg_fails_nabla_F_with_a_xi_witness():
    # mu dx+ ^ dx1 ^ dx2 ^ dx3 added to the cw11 flux is not parallel: the
    # holonomy generator R(xm,x1) moves its dx+ leg.  nabla F = 0 fails
    # naming it, and dF = 0 and Maxwell fail as undecided with the same
    # witness
    b = get_background("cw11")
    F = b.fluxes["F4"] + KForm(b.geometry.space, 4, {(0, 2, 3, 4): S(6)})
    rep = verify_d11_maxsusy(b._replace(name="cw11-xp", fluxes={"F4": F}))
    cond = {c.name: c for c in rep.conditions}
    why = ("the form is not invariant under the holonomy, hence not "
           "parallel: R(xm,x1) takes it to (-24) xp^xm^x2^x3")
    assert not cond["nabla F=0"].passed
    assert cond["nabla F=0"].witness == f"direction R(xm,x1): {why}"
    for name in ("dF=0", "maxwell d*F=-1/2 F^F"):
        assert not cond[name].passed and cond[name].witness == why, name
    assert cond["supercovariant curvature R^D = 0"].witness.startswith(
        "premise nabla F = 0 fails (direction R(xm,x1))")
    assert not rep.passed
    chart = cw_patch(b.cw_data)
    assert not all(G.is_zero() for G in chart.nabla(KForm(
        chart.space, 4, {i: Polynomial.constant(c)
                         for i, c in F.components.items()})).values())


@pytest.mark.parametrize("coeff", [S(1), R_(2, 3)], ids=["solved", "printed"])
def test_torsion_curvature_on_the_nw6_pair_equals_the_chart_value(coeff):
    # the nw6 plane wave with H = c (e^{-12} + e^{-34}): at the point, R -
    # 1/4 g(T(X,W),T(Y,Z)) + 1/4 g(T(Y,W),T(X,Z)) equals the chart's
    # curvature of nabla + T/2 at the origin; it vanishes for the solved
    # coefficient 1 and not for the printed 2/3
    data = CWData.diagonal([R_(-1, 4)] * 4)
    pair = SymmetricSpace.plane_wave(data, -1)
    chart = cw_patch(data, orientation=-1)
    comps = {(1, 2, 3): coeff, (1, 4, 5): coeff}
    got = curvature_with_torsion(pair, KForm(pair.space, 3, comps))
    want = curvature_with_torsion(chart, KForm(chart.space, 3, {
        i: Polynomial.constant(c) for i, c in comps.items()}))
    keys = set(got.components) | set(want.components)
    for key in keys:
        w = want.components.get(key)
        w = S(0) if w is None else _at_origin(w)
        assert (w - got.get(*key)).is_zero(), key
    assert len(got.components) == (0 if coeff == 1 else 4)


def test_d6_torsion_with_an_xp_leg_fails_flatness_on_its_premise():
    # an H that the holonomy moves is not closed at one point as far as the
    # space there can tell: dH = 0 and flatness fail naming R(xm,x1), with
    # exit code 1, not 2
    data = CWData.diagonal([R_(-1, 4)] * 4)
    pair = SymmetricSpace.plane_wave(data, -1)
    H = KForm(pair.space, 3, {(0, 2, 3): S(1), (1, 4, 5): S(1)})
    rep = verify_d6(BackgroundSpec("d6-(1,0)", "nw6-xp", pair, {"H3": H},
                                   cw_data=data))
    cond = {c.name: c for c in rep.conditions}
    assert not rep.passed and not cond["dH=0"].passed
    assert cond["parallelising connection flat (R^D = 0)"].witness == \
        f"premise dH = 0 is undecided: {cond['dH=0'].witness}"
    assert "R(xm,x1) takes it to" in cond["dH=0"].witness


def _dense_verdict(R):
    """What the construction of a SymmetricSpace on R decides, from dense
    loops over every index: ("bianchi", the first (x < y < z, w) where the
    cyclic sum fails), ("moved", the first (a, b) whose R_ab does not
    annihilate R), or ("pass", None).  R_ab acts on p as the endomorphism
    A^t_x = g^{tc} R(a, b, c, x), on R as a derivation."""
    sp, n = R.space, R.space.dim
    idx = range(n)
    for x, y, z in combinations(idx, 3):
        for w in idx:
            if not (R.get(x, y, z, w) + R.get(y, z, x, w)
                    + R.get(z, x, y, w)).is_zero():
                return "bianchi", (x, y, z, w)
    ginv = sp.metric_inv
    keys = [(x, y, z, w) for x, y in combinations(idx, 2)
            for z, w in combinations(idx, 2) if (x, y) <= (z, w)]
    for a, b in combinations(idx, 2):
        A = [[sum((ginv[t][c] * R.get(a, b, c, x) for c in idx), S(0))
              for x in idx] for t in idx]
        if all(v.is_zero() for row in A for v in row):
            continue
        for key in keys:
            total = S(0)
            for s in range(4):
                for t in idx:
                    if not A[t][key[s]].is_zero():
                        moved = key[:s] + (t,) + key[s + 1:]
                        total = total + A[t][key[s]] * R.get(*moved)
            if not total.is_zero():
                return "moved", (a, b)
    return "pass", None


def _sparse_verdict(space, R):
    try:
        SymmetricSpace(space, R)
    except ValueError as e:
        msg = str(e)
        if "Bianchi" in msg:
            return "bianchi", literal_eval(msg.rsplit(" at ", 1)[1])
        return "moved", literal_eval(msg.split(" = ", 1)[1].split(", R(")[0])
    return "pass", None


def test_sparse_premise_checks_agree_with_the_dense_ones():
    # the construction check over R's nonzero components (the first
    # Bianchi identity, then R_ab . R = 0) decides as the dense loops do,
    # with the same witness, on plane waves of random profiles and on
    # products, each also with one random component added, and on random
    # Kulkarni-Nomizu products g . h
    rng = random.Random(7)
    seen = {}
    for trial in range(24):
        m = rng.randint(2, 4)
        if trial % 3 == 0:
            data = CWData([[S(0)] * m for _ in range(m)])
            for i in range(m):
                for j in range(i, m):
                    data.A[i][j] = data.A[j][i] = S(rng.randint(-2, 2))
            R = SymmetricSpace.plane_wave(data).riemann()
        elif trial % 3 == 1:
            R = SymmetricSpace.product([
                (rng.randint(1, 3), S(0), True, "T"),
                (m, S(rng.randint(-3, 3)), False, "")]).riemann()
        else:
            sp = SymmetricSpace.product([(m + 2, S(0), True, "")]).space
            h = [[S(rng.randint(-2, 2)) if i == j else S(0)
                  for j in range(sp.dim)] for i in range(sp.dim)]
            R = kulkarni_nomizu(sp.metric, h, sp)
        for extra in (False, True):
            if extra:
                n = R.space.dim
                i, j = sorted(rng.sample(range(n), 2))
                k, l = sorted(rng.sample(range(n), 2))
                R = R + BiSymTensor(R.space, {min((i, j, k, l),
                                                  (k, l, i, j)): S(1)})
            verdict = _sparse_verdict(R.space, R)
            assert verdict == _dense_verdict(R), (trial, extra)
            seen[verdict[0]] = seen.get(verdict[0], 0) + 1
    assert min(seen.get(v, 0) for v in ("pass", "bianchi", "moved")) >= 5, \
        seen


def test_file_and_catalog_plane_waves_are_pairs_not_charts(tmp_path):
    # the verifiers see every plane wave at one point, with scalar fluxes
    # on the legs xp, xm, x1..; only the tests build charts
    b = get_background("cw11")
    doc = {"theory": "d11", "name": "cw11-file", "geometry": {
        "type": "cw", "profile": [[str(x) for x in row]
                                  for row in b.cw_data.A]},
        "fluxes": {"F4": [{"indices": [1, 2, 3, 4], "coeff": "6"}]}}
    path = tmp_path / "cw11.json"
    path.write_text(json.dumps(doc))
    specs = [get_background(bid) for bid in ("cw11", "e1_10", "cw10",
                                             "e1_9")]
    specs.append(load_background(str(path)))
    for spec in specs:
        assert isinstance(spec.geometry, SymmetricSpace), spec.name
        assert all(isinstance(c, Scalar) for F in spec.fluxes.values()
                   for c in F.components.values()), spec.name
    assert specs[-1].geometry.space.names[:4] == ("xp", "xm", "x1", "x2")
    dilaton = typeII_background(GeometryProduct("CW6", spheres=1, flats=1),
                                "nonconstant").frame_data
    assert isinstance(dilaton["pair"], SymmetricSpace)
    assert dilaton["pair"].nabla(dilaton["dphi_pair"]) == {}
