"""Field-equation and supersymmetry verifiers.

Covers d=11, the constant axi-dilaton sector of IIB, d=6 (1,0), and the
type-II common sector.  Every check is exact; each verifier emits a
VerificationReport listing all conditions it owes (passes, failures with
witnesses, and cited facts, reported as such rather than silently
skipped).  Every geometry a verifier reads is a geometry.SymmetricSpace
at one point (a plane wave, a product or a group), so each verifier has
one body, through the interface described in geometry's docstring.
"""

from collections import namedtuple
from itertools import combinations
from math import comb
import json

from .exactnum import Scalar, ONE as _ONE
from .multilinear import (KForm, BiSymTensor, wedge, hodge, interior,
                          form_inner, contraction_inners, basis_contractions,
                          kulkarni_nomizu, plucker_check, lambda_action,
                          crossed_inners)
from .clifford import (ComplexScalar, build_gamma, FrameAlgebra,
                       clifford_action, omega_xf, kernel_dim, chiral_basis)
from .geometry import Unverified, curvature_with_torsion

__all__ = ["BackgroundSpec", "VerificationReport", "theory_geometry",
           "verify_d11", "verify_d11_maxsusy", "supercovariant_connection",
           "supercovariant_curvature", "supercovariant_flatness",
           "verify_iib_maxsusy", "verify_d6", "verify_typeII_common",
           "dilatino_kernel", "OUT_OF_SCOPE"]

_Z = Scalar(0)
_HALF = Scalar.from_rational(1, 2)

OUT_OF_SCOPE = [
    "enhanced plane-wave supersymmetry counts (18-28 of the summary table): "
    "require x^- dependent spinors, not computed",
    "quadric embeddings of the symmetric spaces: existence cited, no "
    "verification operation",
    "full IIB SU(1,1) bundle sector (varying axi-dilaton, B and G fluxes): "
    "only the constant axi-dilaton, F-only sector is verified",
]


Condition = namedtuple("Condition", "name passed witness note",
                       defaults=("", ""))


class VerificationReport:
    def __init__(self, background, theory):
        self.background = background
        self.theory = theory
        self.conditions = []
        self.invariants = {}
        self.notes = []
        self.out_of_scope = list(OUT_OF_SCOPE)

    def add(self, name, passed, witness="", note=""):
        self.conditions.append(Condition(name, bool(passed), witness, note))

    @property
    def passed(self):
        return all(c.passed for c in self.conditions)

    def to_json(self):
        return json.dumps({
            "background": self.background,
            "theory": self.theory,
            "conditions": [{"name": c.name, "passed": c.passed,
                            "witness": c.witness, "note": c.note}
                           for c in self.conditions],
            "invariants": self.invariants,
            "notes": self.notes,
            "out_of_scope": self.out_of_scope,
            "passed": self.passed,
        }, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text):
        d = json.loads(text)
        rep = VerificationReport(d["background"], d["theory"])
        for c in d["conditions"]:
            rep.add(c["name"], c["passed"], c["witness"], c["note"])
        rep.invariants = d["invariants"]
        rep.notes = d["notes"]
        rep.out_of_scope = d["out_of_scope"]
        return rep

    def to_text(self):
        lines = [f"background: {self.background}   theory: {self.theory}"]
        for c in self.conditions:
            status = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.witness}]" if c.witness else ""
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"  {status}  {c.name}{extra}{note}")
        for k in sorted(self.invariants):
            lines.append(f"  info  {k} = {self.invariants[k]}")
        for n in self.notes:
            lines.append(f"  note  {n}")
        lines.append("  not checked (out of scope):")
        for o in self.out_of_scope:
            lines.append(f"    - {o}")
        lines.append(f"  overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def __eq__(self, other):
        return isinstance(other, VerificationReport) and \
            self.to_json() == other.to_json()


class BackgroundSpec(namedtuple("BackgroundSpec", "theory name geometry "
                                "fluxes notes cw_data frame_data",
                                defaults=((), None, None))):
    """A background as data, built once.

    geometry is a SymmetricSpace at one point (a plane wave, a product of
    constant-curvature blocks or a group with a bi-invariant metric), and
    fluxes a dict of named KForms on geometry.space; notes go into the
    report.
    cw_data keeps a plane wave's profile, which the tr A invariant reads.
    The typeII-common and iia records have no geometry.  The typeII-common
    verifier reads the frame_data that the catalog assembles by hand; the
    iia record's frame_data is its d=11 parent and the direction that
    kaluza.verify_iia reduces it along.
    """

    __slots__ = ()


_DIMENSION = {"d11": 11, "iib": 10, "d6-(1,0)": 6}


def theory_geometry(theory, name, geom):
    """geom, rejected unless it has the theory's dimension n and lorentzian
    signature (1, n-1)."""
    n = _DIMENSION[theory]
    sig = geom.signature()
    if geom.dim != n or sig != (1, n - 1):
        raise ValueError(f"{name}: {theory} needs dimension {n} and "
                         f"signature (1, {n - 1}), got dimension {geom.dim} "
                         f"and signature {sig}")
    return geom


_FLUX = {"d11": "F4", "iib": "F5", "d6-(1,0)": "H3"}


def _theory_fluxes(b):
    """b's fluxes, rejected unless they include its theory's."""
    need = _FLUX[b.theory]
    if need not in b.fluxes:
        raise ValueError(f"{b.name}: {b.theory} needs the flux {need}, "
                         f"which the background does not give")
    return b.fluxes


def _add_vanishing(rep, name, value, note=""):
    """Condition `value = 0` for a form or a {direction: form} dict; the
    witness is the first part that is not zero and how many components fail
    over all parts.  An Unverified part is its own witness."""
    parts = value.items() if isinstance(value, dict) else [(None, value)]
    bad = next(((k, v) for k, v in parts if not v.is_zero()), None)
    if bad is None:
        rep.add(name, True, note=note)
        return
    where, first = bad
    witness = str(first) if where is None else f"direction {where}: {first}"
    if not isinstance(first, Unverified):
        n = first.space.dim
        total = comb(n, first.degree) * (1 if where is None else n)
        fails = sum(len(v.components) for _, v in parts
                    if isinstance(v, KForm))
        witness += f"; {fails} of {total} components fail"
    rep.add(name, False, witness=witness, note=note)


FREUND_RUBIN = ("supercovariant flatness on the Freund-Rubin product is "
                "cited through its equivalence with the curvature conditions "
                "above; it is not recomputed in trigonometric coordinates")


def _add_supercovariant_flatness(rep, b, nabla_F):
    """Supercovariant flatness: computed on a plane wave (b.cw_data), from
    R^D at one point with nabla F = 0 as its premise; cited on a
    product."""
    if b.cw_data is None:
        rep.notes.append(FREUND_RUBIN)
        return
    fl = supercovariant_flatness(b, nabla_F)[0]
    for c in fl.conditions:
        rep.add(c.name, c.passed, c.witness, c.note)
    rep.invariants.update(fl.invariants)


# ---------------------------------------------------------------------------
# d = 11
# ---------------------------------------------------------------------------

def _stress(space, table, a, trace):
    """T(X,Y) = a <iota_X F, iota_Y F> - trace g(X,Y) |F|^2 as a matrix,
    from the contraction_inners table of F (depth 1 or more) and the
    nonzero Gram entries; a = 1/2 is the stress tensor."""
    T = [[_Z] * space.dim for _ in range(space.dim)]
    for (A, B), v in table.items():
        if len(A) == 1:
            T[A[0]][B[0]] = T[B[0]][A[0]] = v * a
    c = -(trace * table.get(((), ()), _Z))
    if not c.is_zero():
        for j, col in enumerate(space.metric_cols):
            for i, gij in col:
                T[i][j] = T[i][j] + gij * c
    return T


def _add_einstein(rep, name, geom, T):
    """Condition Ric = T over the entries i <= j of the two symmetric
    matrices; the witness is the first entry that differs and how many
    do."""
    n = geom.dim
    ric = geom.ricci()
    fails = [(i, j, d) for i in range(n) for j in range(i, n)
             for d in (ric[i][j] - T[i][j],) if not d.is_zero()]
    witness = ""
    if fails:
        i, j, d = fails[0]
        witness = (f"component {i},{j}: {d}; {len(fails)} of "
                   f"{n * (n + 1) // 2} components fail")
    rep.add(name, not fails, witness=witness)


def verify_d11(b):
    """Closedness dF = 0, the nonlinear Maxwell equation
    d*F = -1/2 F ^ F, and the Einstein equation, all exact."""
    return _d11_field_equations(b)[0]


def _d11_field_equations(b):
    """verify_d11's report, with the geometry, F and nabla F, which the
    maximal-supersymmetry layer reuses.  Maxwell is checked as its Hodge
    dual (_maxwell_residual); * is invertible, so the two are equivalent."""
    rep = VerificationReport(b.name, "d11")
    geom = theory_geometry("d11", b.name, b.geometry)
    F = _theory_fluxes(b)["F4"]
    nabla_F = geom.nabla(F)
    _add_vanishing(rep, "dF=0", geom.d(F))
    _add_vanishing(rep, "maxwell d*F=-1/2 F^F",
                   _maxwell_residual(geom.space, F, nabla_F))
    _add_einstein(rep, "einstein Ric=T(g,F)", geom,
                  _stress(geom.space, contraction_inners(F, 1), _HALF,
                          Scalar.from_rational(1, 6)))
    rep.invariants["|F|^2"] = str(form_inner(F, F))
    if b.cw_data is not None:
        rep.invariants["tr A"] = str(_trace(b.cw_data.A))
    rep.notes.extend(b.notes)
    return rep, geom, F, nabla_F


def _maxwell_residual(space, F, nabla_F):
    """div F + 1/2 *(F ^ F), the Hodge dual of d*F + 1/2 F ^ F, with
    div F = g^{ae} iota_{e_a} nabla_e F = *d*F taken from nabla F as
    {direction e: form}.  An Unverified derivative (a form that is not
    parallel at the point of a symmetric space) is returned as it is."""
    div = KForm.zero(space, F.degree - 1)
    for e, G in nabla_F.items():
        if isinstance(G, Unverified):
            return G
        div = div + interior(space.metric_inv[e], G)
    FF = wedge(F, F)
    return div if FF.is_zero() else \
        div + hodge(FF) * Scalar.from_rational(1, 2)


def _trace(A):
    t = _Z
    for i in range(len(A)):
        t = t + A[i][i]
    return t


def _riemann_flux_rhs(space, F):
    """The right-hand side of the maximal-supersymmetry Riemann identity of
    d=11, as a BiSymTensor:
    Riem(X,Y,Z,W) = 1/12 <iota_X iota_Y F, iota_W iota_Z F>
                    + 1/36 (g . T2)(X,Y,Z,W) - 1/72 |F|^2 (g . g)(X,Y,Z,W).
    iota_X iota_Y F = -F(e_X, e_Y, ...), so the first term is -1/12 of the
    depth-2 table at its own canonical key.  The last two terms are one
    product g . h with h = 1/36 T2 - 1/72 |F|^2 g, built as _stress."""
    table = contraction_inners(F, 2)
    c12 = Scalar.from_rational(-1, 12)
    t4 = BiSymTensor(space, {A + B: v * c12 for (A, B), v in table.items()
                             if len(A) == 2})
    h = _stress(space, table, Scalar.from_rational(1, 36),
                Scalar.from_rational(1, 72))
    return t4 + kulkarni_nomizu(space.metric, h, space)


def _add_identity(rep, name, riem, want):
    """Condition riem = want; the witness is the first failing canonical
    component and how many of them fail."""
    diff = riem - want
    first = diff.first_nonzero()
    pairs = riem.space.dim * (riem.space.dim - 1) // 2
    rep.add(name, first is None, witness="" if first is None else
            f"component {first[0]}: {first[1]}; {len(diff.components)} of "
            f"{pairs * (pairs + 1) // 2} canonical components fail")


def verify_d11_maxsusy(b):
    """nabla F = 0, the Riemann-flux identity, the Plucker identity and
    supercovariant flatness; the underlying field equations are re-verified
    first (no silent skips)."""
    rep, geom, F, nabla_F = _d11_field_equations(b)
    _add_vanishing(rep, "nabla F=0", nabla_F)
    _add_identity(rep, "riemann-flux identity", geom.riemann(),
                  _riemann_flux_rhs(geom.space, F))
    status, witness = plucker_check(F)
    rep.add("plucker", status == "decomposable",
            witness="" if status == "decomposable" else str(witness))
    _add_supercovariant_flatness(rep, b, nabla_F)
    return rep


# ---------------------------------------------------------------------------
# supercovariant flatness on plane waves, at one point
# ---------------------------------------------------------------------------

def supercovariant_connection(b):
    """The flux terms Omega_a of the supercovariant derivative D_a = nabla_a
    + Omega_a of a plane wave at its base point, whose frame has the
    lightcone Gram: omega_xf(e_a, F) for d11 and i/4 c(F) c(e_a^flat) for
    IIB.  Returns (alg, [Omega_a]) on the lightcone frame algebra."""
    if b.theory not in ("d11", "iib") or b.cw_data is None:
        raise ValueError("supercovariant connection only for d11/iib plane "
                         "waves")
    p = b.geometry
    n = p.dim
    alg = FrameAlgebra.lightcone(build_gamma((1, n - 1)))
    if p.space.metric != alg.space.metric:
        raise ValueError(f"{b.name}: the frame at the point does not have "
                         f"the lightcone Gram")
    F = b.fluxes[_FLUX[b.theory]]
    F = KForm(alg.space, F.degree, F.components)
    if b.theory == "d11":
        return alg, [omega_xf([_ONE if i == a else _Z for i in range(n)],
                              F, alg) for a in range(n)]
    iq = ComplexScalar(_Z, Scalar.from_rational(1, 4))
    cF = clifford_action(F, alg).scale(iq)
    return alg, [cF * alg.element({(a,): _ONE}) for a in range(n)]


def supercovariant_curvature(b):
    """R^D_ab = -1/2 c(R_ab) + [Omega_a, Omega_b] for a < b, with R_ab the
    2-form R(e_a, e_b, ., .), at the base point of a plane wave.  It is the
    curvature of D there when nabla F = 0 (docs/conventions.md).  Returns
    (alg, {(a, b): R^D_ab})."""
    alg, omegas = supercovariant_connection(b)
    spin = {}                   # (a, b): {(c, d): R(e_a, e_b, e_c, e_d)}
    for (i, j, k, l), v in b.geometry.riemann().components.items():
        spin.setdefault((i, j), {})[(k, l)] = v
        spin.setdefault((k, l), {})[(i, j)] = v
    minus_half = Scalar.from_rational(-1, 2)
    curv = {}
    for a, c in combinations(range(alg.space.dim), 2):
        r = clifford_action(KForm(alg.space, 2, spin.get((a, c), {})), alg)
        curv[(a, c)] = r.scale(minus_half) + omegas[a].commutator(omegas[c])
    return alg, curv


# the conditions supercovariant_flatness adds, per theory
_FLATNESS_CONDITIONS = {
    "d11": ("supercovariant curvature R^D = 0", "sl(32) tracelessness",
            "clifford-trace field equation identity", "nu = 1"),
    "iib": ("supercovariant curvature R^D = 0 on the Weyl bundle", "nu = 1")}


def supercovariant_flatness(b, nabla_F=None):
    """Curvature of the supercovariant connection of a plane wave, its joint
    kernel, and the supersymmetry fraction nu.  Returns (report, kernel
    dimension, kernel basis, alg).

    R^D is taken at the base point (supercovariant_curvature).  The
    plane-wave builder checked nabla R = 0; with nabla F = 0 as
    well, R^D is parallel and vanishes everywhere iff it vanishes there.
    nabla F (computed here unless given) is therefore the premise of every
    condition: where it fails, they fail naming it, and nothing else is
    computed.  Also checks (for d11) that every curvature value is
    traceless (the sl(32) property) and the Clifford-trace field-equation
    identity sum_a c(e^a) R^D_{b a} = 0.  The IIB chirality is recorded
    relative to the frame's orientation."""
    rep = VerificationReport(b.name, b.theory)
    if nabla_F is None:
        nabla_F = b.geometry.nabla(b.fluxes[_FLUX[b.theory]])
    bad = next((e for e, G in sorted(nabla_F.items()) if not G.is_zero()),
               None)
    if bad is not None:
        why = (f"premise nabla F = 0 fails (direction {bad}), so R^D at one "
               f"point does not decide flatness")
        for name in _FLATNESS_CONDITIONS[b.theory]:
            rep.add(name, False, witness=why)
        return rep, None, [], None
    alg, curv = supercovariant_curvature(b)
    N = alg.rep.spinor_dim
    if b.theory == "d11":
        fails = [(k, r) for k, r in sorted(curv.items()) if not r.is_zero()]
        rep.add("supercovariant curvature R^D = 0", not fails,
                witness="" if not fails else
                f"{(fails[0][0], str(fails[0][1])[:120])}; {len(fails)} of "
                f"{len(curv)} values fail")
        rep.add("sl(32) tracelessness",
                all(r.trace().is_zero() for r in curv.values()))
        n = alg.space.dim
        ok = True
        for c in range(n):
            total = alg.element()
            for a in range(n):
                if a != c:
                    r = curv[(c, a)] if c < a else -curv[(a, c)]
                    total = total + alg.raised_gamma(a) * r
            ok = ok and total.is_zero()
        rep.add("clifford-trace field equation identity", ok)
        dim, basis = kernel_dim(list(curv.values()), alg)
        rep.invariants["kernel dimension"] = str(dim)
        rep.invariants["nu"] = f"{dim}/{N}"
        rep.add("nu = 1", dim == N)
        return rep, dim, basis, alg
    # IIB: complex Weyl spinors; the curvature must annihilate the chiral
    # half carrying the supersymmetry.  Both halves are tried, and the
    # realized one is recorded relative to the frame's orientation: c(vol)
    # is Gamma_11 times the orientation.
    results = {}
    for sign in (1, -1):
        results[sign] = kernel_dim(list(curv.values()), alg,
                                   columns=chiral_basis(alg, sign))
    best = max(results, key=lambda s: results[s][0])
    dim, basis = results[best]
    rep.add("supercovariant curvature R^D = 0 on the Weyl bundle",
            2 * dim == N,
            witness="" if 2 * dim == N else
            f"chiral kernel only {dim}-dimensional (complex)")
    rep.invariants["kernel dimension (complex)"] = str(dim)
    chirality = best * b.geometry.space.orientation
    rep.invariants["chirality"] = f"{chirality:+d}"
    rep.invariants["nu"] = f"{2 * dim}/{N}"
    rep.add("nu = 1", 2 * dim == N,
            note=f"complex Weyl kernel on the chirality {chirality:+d} half")
    return rep, dim, basis, alg


# ---------------------------------------------------------------------------
# IIB (constant axi-dilaton sector)
# ---------------------------------------------------------------------------

def verify_iib_maxsusy(b):
    """Self-duality, closedness, nabla F = 0, the IIB Riemann identity, the
    2-form/5-form identity, the decomposition F = G + *G with G
    decomposable, and supercovariant flatness."""
    rep = VerificationReport(b.name, "iib")
    geom = theory_geometry("iib", b.name, b.geometry)
    fluxes = _theory_fluxes(b)
    F = fluxes["F5"]
    _add_vanishing(rep, "self-duality *F=F", hodge(F) - F)
    _add_vanishing(rep, "dF=0", geom.d(F))
    nabla_F = geom.nabla(F)
    _add_vanishing(rep, "nabla F=0", nabla_F)
    _add_identity(rep, "riemann-flux identity (IIB)", geom.riemann(),
                  crossed_inners(geom.space, F))
    rep.add("plucker-jacobi identity", _plujac_holds(F),
            note="lambda(iota^3 F) F = 0 over all frame triples")
    G = fluxes.get("G5")
    if G is not None:
        rep.add("F = G + *G", (F - (G + hodge(G))).is_zero())
        status, witness = plucker_check(G)
        rep.add("G decomposable", status == "decomposable",
                witness="" if status == "decomposable" else str(witness))
    rep.notes.extend(b.notes)
    _add_supercovariant_flatness(rep, b, nabla_F)
    return rep


def _plujac_holds(F):
    """lambda(iota^3 F) F = 0 for every nonzero iota_A F over frame triples A,
    all taken from one basis_contractions pass."""
    for A, comps in basis_contractions(F, 3).items():
        if len(A) == 3 and \
                not lambda_action(KForm(F.space, 2, comps), F).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# d = 6 (1,0)
# ---------------------------------------------------------------------------

def verify_d6(b):
    """dH = 0, anti-selfduality *H = -H, the Einstein equation
    Ric = 1/2 <iota_X H, iota_Y H> (this module's Ricci sign), and flatness
    of the parallelising connection, all at one point of a symmetric space
    (a group at its identity, a plane wave or a product)."""
    rep = VerificationReport(b.name, "d6-(1,0)")
    geom = theory_geometry("d6-(1,0)", b.name, b.geometry)
    H = _theory_fluxes(b)["H3"]
    dH = geom.d(H)
    _add_vanishing(rep, "dH=0", dH)
    _add_vanishing(rep, "*H=-H", hodge(H) + H)
    _add_einstein(rep, "einstein Ric = 1/2 <iH,iH>", geom,
                  _stress(geom.space, contraction_inners(H, 1), _HALF, _Z))
    if isinstance(dH, Unverified):      # an H that the holonomy moves
        flat, witness = False, f"premise dH = 0 is undecided: {dH}"
    else:
        rd = curvature_with_torsion(geom, H)
        flat = rd.is_zero()
        witness = "" if flat else str(rd.first_nonzero())
    rep.add("parallelising connection flat (R^D = 0)", flat, witness=witness)
    rep.add("maximally supersymmetric", flat,
            note="flat D with anti-selfdual closed torsion carries the full "
                 "spinor space")
    rep.invariants["|H|^2"] = str(form_inner(H, H))
    rep.notes.extend(b.notes)
    return rep


# ---------------------------------------------------------------------------
# type-II common sector
# ---------------------------------------------------------------------------

def verify_typeII_common(b):
    """The parallelisable equations of motion: nabla d phi = 0,
    d phi ^ *H = 0, |d phi|^2 - 1/4 |H|^2 = 0, on an assembled frame."""
    rep = VerificationReport(b.name, "typeII-common")
    space = b.frame_data["space"]
    H = b.frame_data["H"]
    dphi = b.frame_data["dphi"]          # 1-form on the frame
    n = space.dim
    # nabla d phi: computed on the plane wave at one point when a lightcone
    # frame carries the dilaton (dphi_pair); k of its transvection pair acts
    # on the frame as the holonomy that nabla tests.  Otherwise the frame is
    # left-invariant on a group with a bi-invariant metric, so
    # (nabla_X dphi)(Y) = -1/2 dphi([X,Y]); the brackets span the legs that
    # H touches (those of AdS3, S3 and SU(3)), and a frame-constant dphi
    # without such legs is parallel.
    pair_dphi = b.frame_data.get("dphi_pair")
    if pair_dphi is not None:
        _add_vanishing(rep, "nabla d phi = 0",
                       b.frame_data["pair"].nabla(pair_dphi),
                       note="computed on the plane-wave transvection pair, "
                            "where dphi is parallel iff k-invariant (checked)")
    else:
        legs = {i for idx in H.components for i in idx}
        bad = [i for (i,) in sorted(dphi.components) if i in legs]
        rep.add("nabla d phi = 0", not bad,
                witness=f"dphi has a component on leg {bad[0]}, which H "
                        f"touches" if bad else "",
                note="structural: dphi has no leg that H touches (checked), "
                     "so the frame-constant dilaton gradient is parallel")
    sH = hodge(H)
    rep.add("dphi ^ *H = 0", wedge(dphi, sH).is_zero())
    bal = form_inner(dphi, dphi) - Scalar.from_rational(1, 4) * form_inner(H, H)
    rep.add("|dphi|^2 = 1/4 |H|^2", bal.is_zero(),
            witness="" if bal.is_zero() else str(bal))
    rep.invariants["|H|^2"] = str(form_inner(H, H))
    rep.invariants["|dphi|^2"] = str(form_inner(dphi, dphi))
    for nnote in b.notes:
        rep.notes.append(nnote)
    return rep


def dilatino_kernel(b):
    """Kernel of the algebraic dilatino operator c(dphi + 1/2 H) on the
    32-dimensional type-II spinor space, frame-constant sector.  Returns
    (iia_count, iib_count): IIA counts the kernel on S+ + S-, IIB twice the
    kernel on S+."""
    space = b.frame_data["space"]
    H = b.frame_data["H"]
    dphi = b.frame_data["dphi"]
    alg = b.frame_data["alg"]
    op = clifford_action(dphi, alg) + \
        clifford_action(H, alg).scale(Scalar.from_rational(1, 2))
    dim_full, _ = kernel_dim([op], alg)
    plus = chiral_basis(alg, 1)
    dim_plus, _ = kernel_dim([op], alg, columns=plus)
    minus = chiral_basis(alg, -1)
    dim_minus, _ = kernel_dim([op], alg, columns=minus)
    if dim_plus + dim_minus != dim_full:
        raise RuntimeError(f"dilatino kernel: chiral halves {dim_plus} + "
                           f"{dim_minus} != full kernel {dim_full}")
    return dim_full, 2 * dim_plus
