"""Field-equation and supersymmetry verifiers.

Covers d=11, the constant axi-dilaton sector of IIB, d=6 (1,0), and the
type-II common sector.  Every check is exact; each verifier emits a
VerificationReport listing all conditions it owes (passes, failures with
witnesses, and structural facts on symmetric products, reported as such
with the premise that was checked rather than silently skipped).  Each
verifier has one body for every geometry kind: it works through the
geometry interface described in geometry's docstring.
"""

from collections import namedtuple
import json

from .exactnum import Scalar, Polynomial
from .multilinear import (KForm, BiSymTensor, wedge, hodge, form_inner,
                          contraction_inners, basis_contractions, flat,
                          map_slots, nonzero_columns, kulkarni_nomizu,
                          plucker_check, lambda_action, accumulate)
from .clifford import (ComplexScalar, build_gamma, FrameAlgebra,
                       clifford_action, omega_xf, kernel_dim, chiral_basis,
                       spinor_to_vector)
from .liealg import canonical_three_form
from .geometry import (CoordinatePatch, cw_patch, curvature_with_torsion,
                       spin_connection, killing_check)

__all__ = ["BackgroundSpec", "VerificationReport", "verify_d11",
           "verify_d11_maxsusy", "supercovariant_flatness",
           "verify_iib_maxsusy", "verify_d6", "verify_typeII_common",
           "dilatino_kernel", "OUT_OF_SCOPE"]

_Z = Scalar(0)

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


class BackgroundSpec:
    """Concrete background: geometry + fluxes.

    kind selects the geometry payload: "cw" (plane-wave chart from cw_data),
    "product" (constant-curvature blocks), "algebra" (a metric Lie algebra),
    or "parallelisable" (type-II frame data assembled by the catalog).
    """

    def __init__(self, theory, name, kind, cw_data=None, product=None,
                 algebra=None, flux_builder=None, frame_data=None,
                 notes=None):
        self.theory = theory
        self.name = name
        self.kind = kind
        self.cw_data = cw_data
        self.product = product
        self.algebra = algebra
        self.flux_builder = flux_builder      # space -> dict of named KForms
        self.frame_data = {} if frame_data is None else frame_data
        self.notes = [] if notes is None else notes
        self._geometry = None

    @property
    def geometry(self):
        """The geometry the verifiers work on, built once (see the
        interface in geometry's docstring)."""
        if self._geometry is None:
            if self.kind == "cw":
                self._geometry = cw_patch(
                    self.cw_data,
                    orientation=self.frame_data.get("orientation", 1))
            else:
                self._geometry = {"product": self.product,
                                  "algebra": self.algebra}.get(self.kind)
            if self._geometry is None:
                raise ValueError(f"{self.name}: no geometry of kind "
                                 f"{self.kind!r}")
        return self._geometry


_DIMENSION = {"d11": 11, "iib": 10, "d6-(1,0)": 6}


def _theory_geometry(b, theory):
    """b's geometry, rejected unless it has the theory's dimension n and
    lorentzian signature (1, n-1)."""
    geom = b.geometry
    n = _DIMENSION[theory]
    sig = geom.signature()
    if geom.dim != n or sig != (1, n - 1):
        raise ValueError(f"{b.name}: {theory} needs dimension {n} and "
                         f"signature (1, {n - 1}), got dimension {geom.dim} "
                         f"and signature {sig}")
    return geom


_FLUX = {"d11": "F4", "iib": "F5", "d6-(1,0)": "H3"}


def _theory_fluxes(b, space):
    """b's fluxes on `space`, rejected unless they include its theory's."""
    fluxes = b.flux_builder(space)
    need = _FLUX[b.theory]
    if need not in fluxes:
        raise ValueError(f"{b.name}: {b.theory} needs the flux {need}, "
                         f"which the background does not give")
    return fluxes


def _add_vanishing(rep, name, value, note=""):
    """Condition `value = 0` for a form or a {direction: form} dict; the
    witness is the first part that is not zero."""
    parts = value.items() if isinstance(value, dict) else [(None, value)]
    bad = next(((k, v) for k, v in parts if not v.is_zero()), None)
    if bad is None:
        rep.add(name, True, note=note)
    else:
        where = "" if bad[0] is None else f"direction {bad[0]}: "
        rep.add(name, False, witness=f"{where}{bad[1]}", note=note)


FREUND_RUBIN = ("supercovariant flatness on the Freund-Rubin product is "
                "cited through its equivalence with the curvature conditions "
                "above; it is not recomputed in trigonometric coordinates")


def _add_supercovariant_flatness(rep, b, geom):
    """Supercovariant flatness: computed where there is a chart, cited on a
    product (its blocks carry no coordinates here)."""
    if not isinstance(geom, CoordinatePatch):
        rep.notes.append(FREUND_RUBIN)
        return
    fl = supercovariant_flatness(b)[0]
    for c in fl.conditions:
        rep.add(c.name, c.passed, c.witness, c.note)
    rep.invariants.update(fl.invariants)


# ---------------------------------------------------------------------------
# d = 11
# ---------------------------------------------------------------------------

def _stress(space, F, trace):
    """T(X,Y) = 1/2 <iota_X F, iota_Y F> - trace g(X,Y) |F|^2
    componentwise."""
    _, F2, T2 = _contractions(F, 1)
    half = Scalar.from_rational(1, 2)
    if trace.is_zero() or F2.is_zero():
        return [[t * half for t in row] for row in T2]
    return [[t * half - trace * g * F2 for t, g in zip(row, grow)]
            for row, grow in zip(T2, space.metric)]


def _contractions(F, depth):
    """contraction_inners(F, depth), |F|^2 and <iota_i F, iota_j F>."""
    table = contraction_inners(F, depth)
    T2 = [[_Z] * F.space.dim for _ in range(F.space.dim)]
    for (A, B), v in table.items():
        if len(A) == 1:
            T2[A[0]][B[0]] = T2[B[0]][A[0]] = v
    return table, table.get(((), ()), _Z), T2


def _tensor_eq(a, b, n):
    """First witness where two symmetric matrices differ, else None."""
    for i in range(n):
        for j in range(n):
            d = a[i][j] - b[i][j]
            if not d.is_zero():
                return (i, j, str(d))
    return None


def _add_einstein(rep, name, geom, T):
    w = _tensor_eq(geom.ricci(), T, geom.dim)
    rep.add(name, w is None,
            witness="" if w is None else f"component {w[0]},{w[1]}: {w[2]}")


def verify_d11(b):
    """Closedness dF = 0, the nonlinear Maxwell equation
    d*F = -1/2 F ^ F, and the Einstein equation, all exact."""
    rep = VerificationReport(b.name, "d11")
    geom = _theory_geometry(b, "d11")
    F = _theory_fluxes(b, geom.space)["F4"]
    _add_vanishing(rep, "dF=0", geom.d(F), geom.premise)
    rhs = wedge(F, F) * Scalar.from_rational(-1, 2)
    _add_vanishing(rep, "maxwell d*F=-1/2 F^F", geom.d(hodge(F)) - rhs,
                   geom.premise)
    _add_einstein(rep, "einstein Ric=T(g,F)", geom,
                  _stress(geom.space, F, Scalar.from_rational(1, 6)))
    rep.invariants["|F|^2"] = str(_poly_str(form_inner(F, F)))
    if b.cw_data is not None:
        rep.invariants["tr A"] = str(_trace(b.cw_data.A))
    rep.notes.extend(b.notes)
    return rep


def _poly_str(x):
    if isinstance(x, Polynomial):
        return x.constant_value() if x.is_constant() else x
    return x


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
    depth-2 table at its own canonical key."""
    table, F2, T2 = _contractions(F, 2)
    c12 = Scalar.from_rational(-1, 12)
    t4 = BiSymTensor(space, {A + B: v * c12 for (A, B), v in table.items()
                             if len(A) == 2})
    want = t4 + kulkarni_nomizu(space.metric, T2, space) \
        .scale(Scalar.from_rational(1, 36))
    if F2.is_zero():
        return want
    return want + kulkarni_nomizu(space.metric, space.metric, space) \
        .scale(Scalar.from_rational(-1, 72) * F2)


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
    rep = verify_d11(b)
    geom = b.geometry
    F = _theory_fluxes(b, geom.space)["F4"]
    _add_vanishing(rep, "nabla F=0", geom.nabla(F), geom.premise)
    _add_identity(rep, "riemann-flux identity", geom.riemann(),
                  _riemann_flux_rhs(geom.space, F))
    status, witness = plucker_check(_scalarize(F))
    rep.add("plucker", status == "decomposable",
            witness="" if status == "decomposable" else str(witness))
    _add_supercovariant_flatness(rep, b, geom)
    return rep


def _scalarize(F):
    comps = {}
    for idx, c in F.components.items():
        comps[idx] = c.constant_value() if isinstance(c, Polynomial) else c
    return KForm(F.space, F.degree, comps)


# ---------------------------------------------------------------------------
# supercovariant flatness on plane-wave charts
# ---------------------------------------------------------------------------

def supercovariant_connection(b):
    """Assemble the coordinate components Theta_mu of the supercovariant
    connection on a plane-wave chart.  Returns (patch, alg, [Theta_mu])."""
    if b.theory not in ("d11", "iib"):
        raise ValueError("supercovariant connection only for d11/iib")
    p = b.geometry
    n = p.dim
    cof, frm, gram = p.coframe()
    om = spin_connection(p, cof, frm, gram)
    alg = FrameAlgebra.lightcone(build_gamma((1, n - 1)))
    quarter = Scalar.from_rational(1, 4)
    F = b.flux_builder(p.space)[_FLUX[b.theory]]
    F_frame = KForm(alg.space, F.degree,
                    map_slots(F.components, nonzero_columns(frm)))
    if b.theory == "d11":
        def flux_term(X):
            return omega_xf(X, F_frame, alg)
    else:
        cF = clifford_action(F_frame, alg)
        iq = ComplexScalar(_Z, Scalar.from_rational(1, 4))

        def flux_term(X):
            return (cF * clifford_action(flat(alg.space, X), alg)).scale(iq)
    thetas = []
    for mu in range(n):
        th = alg.element()
        for (a, bb), w in om[mu].items():
            th = th + (alg.raised_gamma(a) * alg.raised_gamma(bb)) \
                .scale(w * quarter)
        X = [cof[a][mu] for a in range(n)]       # d_mu in frame comps
        thetas.append(th + flux_term(X))
    return p, alg, thetas


def supercovariant_flatness(b):
    """Curvature of the supercovariant connection on a plane-wave chart,
    its joint kernel, and the supersymmetry fraction nu.

    Also asserts (for d11) that every curvature value is traceless (the
    sl(32) property) and that the Clifford-trace field-equation identity
    sum_a c(e^a) R_{X, E_a} = 0 holds."""
    p, alg, thetas = supercovariant_connection(b)
    n = p.dim
    curv = {}
    for mu in range(n):
        for nu in range(mu + 1, n):
            r = thetas[nu].partial(p.coords[mu]) \
                - thetas[mu].partial(p.coords[nu]) \
                + thetas[mu].commutator(thetas[nu])
            curv[(mu, nu)] = r
    rep = VerificationReport(b.name, b.theory)
    N = alg.rep.spinor_dim
    if b.theory == "d11":
        flat = all(r.is_zero() for r in curv.values())
        rep.add("supercovariant curvature R^D = 0", flat,
                witness="" if flat else str(_first_nonzero_curv(curv)))
        # sl(32): tracelessness of every curvature value
        rep.add("sl(32) tracelessness",
                all(r.trace().is_zero() for r in curv.values()))
        # field-equation identity: sum_a c(e^a) R_{d_mu, E_a} = 0
        frm = p.coframe()[1]
        ok = True
        for mu in range(n):
            total = alg.element()
            for a in range(n):
                acc = alg.element()
                for nu in range(n):
                    if frm[a][nu].is_zero():
                        continue
                    r = _curv_lookup(curv, mu, nu)
                    if r is None:
                        continue
                    acc = acc + r.scale(frm[a][nu])
                total = total + alg.raised_gamma(a) * acc
            if not total.is_zero():
                ok = False
        rep.add("clifford-trace field equation identity", ok)
        ops = list(curv.values())
        dim, basis = kernel_dim(ops, alg)
        rep.invariants["kernel dimension"] = str(dim)
        rep.invariants["nu"] = f"{dim}/{N}"
        rep.add("nu = 1", dim == N)
        return rep, dim, basis, alg
    else:
        # IIB: complex Weyl spinors; the curvature must annihilate the
        # chiral half carrying the supersymmetry.  Both halves are tried
        # and the realized chirality is recorded.
        results = {}
        for sign in (1, -1):
            cols = chiral_basis(alg, sign)
            dim, basis = kernel_dim(list(curv.values()), alg, columns=cols)
            results[sign] = (dim, basis)
        best = max(results, key=lambda s: results[s][0])
        dim, basis = results[best]
        rep.add("supercovariant curvature R^D = 0 on the Weyl bundle",
                2 * dim == N,
                witness="" if 2 * dim == N else
                f"chiral kernel only {dim}-dimensional (complex)")
        rep.invariants["kernel dimension (complex)"] = str(dim)
        rep.invariants["chirality"] = f"{best:+d}"
        rep.invariants["nu"] = f"{2 * dim}/{N}"
        rep.add("nu = 1", 2 * dim == N,
                note=f"complex Weyl kernel on the chirality {best:+d} half")
        return rep, dim, basis, alg


def _first_nonzero_curv(curv):
    for key in sorted(curv):
        if not curv[key].is_zero():
            return (key, str(curv[key])[:120])
    return None


def _curv_lookup(curv, mu, nu):
    if mu == nu:
        return None
    if mu < nu:
        return curv[(mu, nu)]
    return curv[(nu, mu)].scale(Scalar(-1))


# ---------------------------------------------------------------------------
# IIB (constant axi-dilaton sector)
# ---------------------------------------------------------------------------

def _riemann_iib_rhs(space, F):
    """R(X,Y,Z,W) = <iota_X iota_W F, iota_Y iota_Z F>
                  - <iota_X iota_Z F, iota_Y iota_W F>   (this module's
    Riemann sign), as a BiSymTensor.  With Q(a,b;c,d) = <F(e_a, e_b, ...),
    F(e_c, e_d, ...)> the right-hand side is Q(W,X;Z,Y) - Q(Z,X;W,Y): each
    ordering of each depth-2 table entry gives Q(w,x;z,y) at (x, y, z, w),
    and its negative at (x, y, w, z); the canonical one of the two is kept."""
    comps = {}
    for (A, B), v in contraction_inners(F, 2).items():
        if len(A) < 2:
            continue
        for (p, q), (r, t) in ((A, B),) if A == B else ((A, B), (B, A)):
            for x, w, y, z, s in ((q, p, t, r, v), (p, q, t, r, -v),
                                  (q, p, r, t, -v), (p, q, r, t, v)):
                if z > w:
                    z, w, s = w, z, -s
                if x < y and z < w and (x, y) <= (z, w):
                    accumulate(comps, (x, y, z, w), s)
    return BiSymTensor(space, comps)


def verify_iib_maxsusy(b):
    """Self-duality, closedness, nabla F = 0, the IIB Riemann identity, the
    2-form/5-form identity, the decomposition F = G + *G with G
    decomposable, and supercovariant flatness."""
    rep = VerificationReport(b.name, "iib")
    geom = _theory_geometry(b, "iib")
    fluxes = _theory_fluxes(b, geom.space)
    F = fluxes["F5"]
    _add_vanishing(rep, "self-duality *F=F", hodge(F) - F)
    _add_vanishing(rep, "dF=0", geom.d(F), geom.premise)
    _add_vanishing(rep, "nabla F=0", geom.nabla(F), geom.premise)
    _add_identity(rep, "riemann-flux identity (IIB)", geom.riemann(),
                  _riemann_iib_rhs(geom.space, F))
    Fs = _scalarize(F)
    rep.add("plucker-jacobi identity", _plujac_holds(Fs),
            note="lambda(iota^3 F) F = 0 over all frame triples")
    G = fluxes.get("G5")
    if G is not None:
        Gs = _scalarize(G)
        rep.add("F = G + *G", (Fs - (Gs + hodge(Gs))).is_zero())
        status, witness = plucker_check(Gs)
        rep.add("G decomposable", status == "decomposable",
                witness="" if status == "decomposable" else str(witness))
    rep.notes.extend(b.notes)
    _add_supercovariant_flatness(rep, b, geom)
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
    of the parallelising connection.  Geometry may be a metric Lie algebra
    or a plane-wave chart."""
    rep = VerificationReport(b.name, "d6-(1,0)")
    geom = _theory_geometry(b, "d6-(1,0)")
    H = _theory_fluxes(b, geom.space)["H3"] if b.flux_builder \
        else canonical_three_form(geom)
    _add_vanishing(rep, "dH=0", geom.d(H), geom.premise)
    _add_vanishing(rep, "*H=-H", hodge(H) + H)
    _add_einstein(rep, "einstein Ric = 1/2 <iH,iH>", geom,
                  _stress(geom.space, H, _Z))
    rd = curvature_with_torsion(geom, H)
    rep.add("parallelising connection flat (R^D = 0)", rd.is_zero(),
            witness="" if rd.is_zero() else str(rd.first_nonzero()))
    rep.add("maximally supersymmetric", rd.is_zero(),
            note="flat D with anti-selfdual closed torsion carries the full "
                 "spinor space")
    rep.invariants["|H|^2"] = str(_poly_str(form_inner(H, H)))
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
    # nabla d phi: computed on the chart when a plane-wave factor is present.
    # Otherwise the frame is left-invariant on a group with a bi-invariant
    # metric, so (nabla_X dphi)(Y) = -1/2 dphi([X,Y]); the brackets span the
    # legs that H touches (those of AdS3, S3 and SU(3)), and a frame-constant
    # dphi without such legs is parallel.
    if b.frame_data.get("cw_patch") is not None:
        p = b.frame_data["cw_patch"]
        phi_poly = b.frame_data["phi_poly"]
        ok = _nabla_dphi_zero(p, phi_poly)
        rep.add("nabla d phi = 0", ok, note="verified on the plane-wave chart")
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


def _nabla_dphi_zero(p, phi_poly):
    dphi = KForm(p.space, 1, {(mu,): p.partial(phi_poly, mu)
                              for mu in range(p.dim)
                              if p.partial(phi_poly, mu) is not None})
    return all(f.is_zero() for f in p.nabla(dphi).values())


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


def killing_vectors_from_kernel(b, basis, alg):
    """Spinor bilinears of kernel spinors, with the exact coordinate Killing
    check on the chart.  Returns the list of (vector components, is_killing).
    Lightcone-annihilated constant spinors give vectors along d+ only."""
    p = b.geometry
    n = p.dim
    frm = p.coframe()[1]
    out = []
    for i in range(min(4, len(basis))):
        for j in range(min(4, len(basis))):
            V = spinor_to_vector(basis[i], basis[j], alg)
            # frame components -> coordinate components via E_a
            Vc = []
            for mu in range(n):
                s = None
                for a in range(n):
                    if V[a].is_zero() or frm[a][mu].is_zero():
                        continue
                    t = frm[a][mu] * V[a]
                    s = t if s is None else s + t
                Vc.append(Polynomial.constant(0) if s is None else s)
            ok, _ = killing_check(p, Vc)
            out.append((V, ok))
    return out
