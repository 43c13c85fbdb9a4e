"""Acceptance suite: one test per criterion, every check exact (tolerance
zero) unless stated as a property sweep.  Each test prints a PASS/FAIL line;
run with  pytest tests/test_acceptance.py -v -s  to see them inline.
"""

import random
import time

import pytest

from conftest import det
from sugraverify.exactnum import Scalar, Polynomial
from sugraverify.multilinear import KForm, hodge
from sugraverify import linalg
from sugraverify.liealg import (CWData, cw_canonicalize, canonical_three_form,
                                double_extension, abelian,
                                rotation_block_derivation, d6_catalog,
                                antiselfdual_filter, nw6, nw6_family,
                                so12_so3, su3, e15)
from sugraverify.geometry import (cw_patch, curvature_with_torsion,
                                  flat_torsion_consequences, SymmetricSpace)
from sugraverify.sugra import (BackgroundSpec, supercovariant_flatness,
                               verify_d6, verify_iib_maxsusy)
from sugraverify.kaluza import reduce_group, reduce_d11, \
    unit_spacelike_sample
from sugraverify.catalog import (get_background, verify_background,
                                 enumerate_parallelisable, solve_dilaton,
                                 susy_count, table2_lines, table3_lines,
                                 table3_rejections, table4_lines,
                                 GeometryProduct)

S = Scalar
R_ = Scalar.from_rational


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_d11_catalog():
    """AdS7(-7R)xS4(8R) at R=6, AdS4(8R)xS7(-7R) at R=-6, CW11 at mu=6:
    Einstein, Maxwell, dF=0, nabla F=0, Riemann identity, Plucker -- exact,
    under 10 s each."""
    ok = True
    details = []
    for name in ("ads7xs4", "ads4xs7", "cw11"):
        t0 = time.time()
        rep = verify_background(get_background(name))
        dt = time.time() - t0
        ok = ok and rep.passed and dt < 10
        details.append(f"{name}: {'pass' if rep.passed else 'FAIL'} "
                       f"in {dt:.2f}s")
    report(1, ok, "; ".join(details))


def test_criterion_2_cw11_supercovariant_flatness():
    """R^D = 0 in 32x32 matrices at one point, which nabla F = 0 and the
    constant profile make enough; nu = 1; all values traceless; the
    Clifford-trace field equation; under 60 s."""
    t0 = time.time()
    rep, dim, basis, alg = supercovariant_flatness(get_background("cw11"))
    dt = time.time() - t0
    got = {c.name: c.passed for c in rep.conditions}
    ok = (got["supercovariant curvature R^D = 0"]
          and got["sl(32) tracelessness"]
          and got["clifford-trace field equation identity"]
          and dim == 32 and dt < 60)
    report(2, ok, f"kernel 32/32, {dt:.2f}s")


def test_criterion_3_iib_catalog():
    """AdS5xS5 at R=5 passes the IIB Riemann identity, the 2-form/5-form
    identity and F = G + *G; CW10 at A = -mu^2, mu = 1 additionally passes
    supercovariant flatness with nu = 1; under 60 s."""
    t0 = time.time()
    rep1 = verify_background(get_background("ads5xs5"))
    rep2 = verify_background(get_background("cw10"))
    dt = time.time() - t0
    ok = rep1.passed and rep2.passed and \
        rep2.invariants["nu"] == "32/32" and dt < 60
    report(3, ok, f"ads5xs5 {'pass' if rep1.passed else 'FAIL'}, "
                  f"cw10 nu={rep2.invariants['nu']}, {dt:.2f}s")


def test_criterion_4_d6():
    """NW6 passes dH=0, *H=-H, Einstein, R^D=0; the chart torsion
    coefficient is solved (not trusted) and reported; so(1,2)+so(3)
    anti-selfduality holds iff beta = alpha; the filter discards exactly
    the two mixed products; under 10 s."""
    t0 = time.time()
    rep = verify_background(get_background("nw6"))
    ok = rep.passed
    # solve the chart torsion coefficient on CW(A = -1/4)
    data = CWData.diagonal([R_(-1, 4)] * 4)
    p = cw_patch(data)
    sols = []
    for cand in [S(1), S(-1), R_(2, 3)]:
        H = KForm(p.space, 3, {(1, 2, 3): Polynomial.constant(cand),
                               (1, 4, 5): Polynomial.constant(cand)})
        if curvature_with_torsion(p, H).is_zero():
            sols.append(str(cand))
    ok = ok and sols == ["1", "-1"]
    # beta = alpha exactly
    for a, b, want in [(1, 1, True), (3, 3, True), (1, 2, False),
                       (2, 1, False)]:
        H = canonical_three_form(so12_so3(a, b))
        ok = ok and ((hodge(H) == -H) is want)
    kept = {g.name for g in antiselfdual_filter(d6_catalog(1, 1))}
    dropped = {g.name for g in d6_catalog(1, 1)} - kept
    ok = ok and dropped == {"e12+so3", "e3+so12"}
    dt = time.time() - t0
    report(4, ok and dt < 10,
           f"chart torsion coefficient solved: +-1 (printed 2/3 fails); "
           f"filter drops {sorted(dropped)}; {dt:.2f}s")


def test_criterion_5_flat_torsion_theorem_property():
    """For every catalog metric Lie algebra and >= 100 random double
    extensions: R^D(canonical H) = 0, nabla H = 0 and the cyclic Jacobi
    identity hold -- 100% of instances."""
    count = ok_count = 0
    for g in d6_catalog(1, 1) + [su3(), nw6_family(2, 3)]:
        H = canonical_three_form(g)
        repd = flat_torsion_consequences(SymmetricSpace.group(g), H)
        count += 1
        ok_count += int(repd["precondition_RD_zero"] and repd["nabla_H_zero"]
                        and repd["jacobi_cyclic"])
    rng = random.Random(2718)
    for _ in range(100):
        n = rng.choice([2, 4, 6])
        weights = [rng.randint(1, 6) for _ in range(n // 2)]
        g = double_extension(abelian(n), rotation_block_derivation(weights),
                             b=rng.randint(-2, 2))
        repd = flat_torsion_consequences(SymmetricSpace.group(g),
                                         canonical_three_form(g))
        count += 1
        ok_count += int(repd["precondition_RD_zero"] and repd["nabla_H_zero"]
                        and repd["jacobi_cyclic"])
    report(5, ok_count == count, f"{ok_count}/{count} instances")


def _pythagorean_rotation(rng, n):
    pairs = [(R_(3, 5), R_(4, 5)), (R_(5, 13), R_(12, 13)),
             (R_(8, 17), R_(15, 17)), (R_(20, 29), R_(21, 29))]
    O = linalg.eye(n)
    for _ in range(rng.randint(1, 4)):
        c, s = rng.choice(pairs)
        if rng.random() < 0.5:
            s = -s
        i, j = rng.sample(range(n), 2)
        giv = linalg.eye(n)
        giv[i][i] = c
        giv[j][j] = c
        giv[i][j] = -s
        giv[j][i] = s
        O = linalg.mat_mul(O, giv)
    return O


def test_criterion_6_cw_moduli_invariance():
    """Canonical plane-wave invariant under >= 1000 random exact orthogonal
    conjugations and positive rescalings: exact key equality every time;
    degeneracy flag coincides with det A = 0 exactly."""
    rng = random.Random(4242)
    trials = 1000
    good = 0
    for _ in range(trials):
        m = rng.randint(2, 4)
        diag = [rng.randint(-4, 4) for _ in range(m)]
        D = CWData.diagonal(diag)
        O = _pythagorean_rotation(rng, m)
        c = R_(rng.randint(1, 5), rng.randint(1, 5))
        A2 = linalg.mat_scale(
            linalg.mat_mul(linalg.transpose(O), linalg.mat_mul(D.A, O)), c)
        t1, d1 = cw_canonicalize(D)
        t2, d2 = cw_canonicalize(CWData(A2))
        det_zero = det(D.A).is_zero()
        if t1 == t2 and d1 == d2 == det_zero:
            good += 1
    report(6, good == trials, f"{good}/{trials} exact matches")


def test_criterion_7_kaluza_klein():
    """The d=11 reduction of e1_10 along x9 computes flat IIA with zero
    fluxes, constant dilaton and all 32 spinors; F = G2 and H = *_h G2 + alpha ^ G2 hold for >= 50 exact unit
    spacelike directions in each six-dimensional catalog algebra."""
    witnesses = reduce_d11(get_background("e1_10"), [S(0)] * 10 + [S(1)])
    ok = not any(witnesses.values())
    rng = random.Random(99)
    algebras = [e15(), nw6(), so12_so3(1, 1), nw6_family(1, 1)]
    total = good = 0
    for g in algebras:
        for X in unit_spacelike_sample(g, rng, 50):
            red = reduce_group(g, X)
            total += 1
            good += int(red.checks["F = G2"]
                        and red.checks["H = *_h G2 + alpha ^ G2"])
    ok = ok and good == total
    report(7, ok, f"{good}/{total} reductions exact")


def test_criterion_8_tables():
    """Exactly the 17 parallelisable products; exactly the 12 dilaton rows
    with the printed patterns; the three stated rejections with reasons;
    frame-constant susy counts reproduce the 32 and every 16; golden file
    diffs empty; under 5 s."""
    import os
    from sugraverify import catalog as cat
    t0 = time.time()
    golden_dir = os.path.join(os.path.dirname(cat.__file__), "golden")

    def lines(name):
        with open(os.path.join(golden_dir, name)) as fh:
            return fh.read().splitlines()

    t2 = table2_lines()
    t3 = table3_lines()
    rej = table3_rejections()
    t4 = table4_lines()
    ok = (len(t2) == 17 and t2 == lines("table2.txt"))
    ok = ok and (len(t3) == 12 and t3 == lines("table3.txt"))
    ok = ok and rej == lines("table3_rejected.txt")
    reasons = " ".join(rej)
    ok = ok and "AdS3 x E7" in reasons and "CW4(A) x S3 x S3" in reasons \
        and "E(1,0) x S3 x S3 x S3" in reasons
    ok = ok and t4 == lines("table4.txt")
    by_name = {l.split(" | ")[0]: l for l in t4}
    ok = ok and "constant: 32" in by_name["E(1,9)"]
    sixteens = [l for l in t4 if "nonconstant: 16" in l]
    ok = ok and len(sixteens) == 12
    dt = time.time() - t0
    report(8, ok and dt < 5, f"17/12/5 rows, all 16s and the 32; {dt:.2f}s")


def test_criterion_9_negative_controls():
    """Every documented perturbation fails with a nonzero witness."""
    ok = True
    details = []
    # A11 + 1 in CW11
    b = get_background("cw11", perturb={(0, 0): S(1)})
    rep = verify_background(b)
    cond = {c.name: c for c in rep.conditions}
    ok = ok and not rep.passed and cond["einstein Ric=T(g,F)"].witness
    details.append("cw11 A11+1: einstein witness")
    # swapped Freund-Rubin radii
    from sugraverify.exactnum import sqrt_scalar
    from sugraverify.sugra import verify_d11_maxsusy
    Rv = S(6)
    prod = SymmetricSpace.product([(7, S(-8) * Rv, True, "AdS7"),
                                   (4, S(7) * Rv, False, "S4")])
    q = sqrt_scalar(S(6) * Rv)
    bb = BackgroundSpec("d11", "fr-swapped", prod,
                        {"F4": KForm(prod.space, 4, {(7, 8, 9, 10): q})})
    rep2 = verify_d11_maxsusy(bb)
    c2 = {c.name: c for c in rep2.conditions}
    ok = ok and not rep2.passed and c2["riemann-flux identity"].witness
    details.append("swapped FR radii: riemann witness")
    # beta = 2 alpha in d six
    g12 = so12_so3(1, 2)
    bad = BackgroundSpec("d6-(1,0)", "ads3xs3(1,2)", SymmetricSpace.group(g12),
                         {"H3": canonical_three_form(g12)})
    rep3 = verify_d6(bad)
    c3 = {c.name: c for c in rep3.conditions}
    ok = ok and not rep3.passed and c3["*H=-H"].witness
    details.append("beta=2alpha: anti-selfduality witness")
    # non-closed torsion
    g = nw6()
    sp = g.space
    Hbad = KForm(sp, 3, {(0, 2, 3): S(1)})      # e+ leg: not CE-closed here?
    from sugraverify.liealg import ce_differential
    if ce_differential(Hbad, g).is_zero():
        Hbad = KForm(sp, 3, {(2, 3, 4): S(1)})
    raised = False
    try:
        curvature_with_torsion(SymmetricSpace.group(g), Hbad)
    except ValueError:
        raised = True
    ok = ok and raised
    details.append("non-closed H rejected")
    report(9, ok, "; ".join(details))


def test_criterion_10_out_of_scope_declared():
    """The undone items appear verbatim in every CLI report."""
    rep = verify_background(get_background("cw11"))
    text = rep.to_text()
    ok = ("not checked (out of scope):" in text
          and "enhanced plane-wave supersymmetry counts" in text
          and "quadric embeddings" in text
          and "full IIB SU(1,1) bundle sector" in text)
    import json
    doc = json.loads(rep.to_json())
    ok = ok and len(doc["out_of_scope"]) == 3
    report(10, ok)
