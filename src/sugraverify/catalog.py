"""Built-in backgrounds, the parallelisable-geometry enumeration, dilaton
solving, supersymmetry counting, and the background-file format.

The elementary factors and their torsion/dilaton classes:

    factor    dim  torsion                  dilaton freedom
    AdS3      3    dH = 0, |H|^2 < 0        constant
    E(1,0)    1    H = 0                    unconstrained
    E(0,1)    1    H = 0                    unconstrained
    S3        3    dH = 0, |H|^2 > 0        constant
    S7        7    dH != 0, |H|^2 > 0       constant
    SU(3)     8    dH = 0, |H|^2 > 0        constant
    CW2n      2n   dH = 0, |H|^2 = 0        phi(x-)

A catalog background is plain data (sugra.BackgroundSpec): its geometry and
its fluxes on that geometry's space, built once by its builder.  _BUILDERS
is the one table of catalog ids, in catalog order; each builder holds its
id's default parameters, and only the background asked for is built.
"""

from collections import namedtuple

from .exactnum import Scalar, sqrt_scalar, parse_scalar
from .multilinear import KForm, form_inner
from .clifford import build_gamma, FrameAlgebra
from .liealg import (CWData, nw6, so12_so3, e15, canonical_three_form,
                     SU3_STRUCTURE)
from .geometry import SymmetricSpace
from .kaluza import verify_iia
from .sugra import (BackgroundSpec, VerificationReport, theory_geometry,
                    _DIMENSION,
                    verify_d11_maxsusy, verify_iib_maxsusy, verify_d6,
                    verify_typeII_common, dilatino_kernel)
from . import linalg

__all__ = ["ElementaryFactor", "GeometryProduct", "FACTORS",
           "enumerate_parallelisable", "solve_dilaton", "susy_count",
           "builtin_backgrounds", "background_ids", "load_background",
           "table2_lines", "table3_lines", "table4_lines"]

_Z = Scalar(0)
R_ = Scalar.from_rational


# torsion: "neg" | "zero-flat" | "pos" | "pos-nonclosed" | "null"
# dilaton: "constant" | "unconstrained" | "xminus"
ElementaryFactor = namedtuple("ElementaryFactor",
                              "name dim lorentzian torsion dilaton")


FACTORS = {
    "AdS3": ElementaryFactor("AdS3", 3, True, "neg", "constant"),
    "E(1,0)": ElementaryFactor("E(1,0)", 1, True, "zero-flat", "unconstrained"),
    "E(0,1)": ElementaryFactor("E(0,1)", 1, False, "zero-flat", "unconstrained"),
    "S3": ElementaryFactor("S3", 3, False, "pos", "constant"),
    "S7": ElementaryFactor("S7", 7, False, "pos-nonclosed", "constant"),
    "SU(3)": ElementaryFactor("SU(3)", 8, False, "pos", "constant"),
    "CW4": ElementaryFactor("CW4", 4, True, "null", "xminus"),
    "CW6": ElementaryFactor("CW6", 6, True, "null", "xminus"),
    "CW8": ElementaryFactor("CW8", 8, True, "null", "xminus"),
    "CW10": ElementaryFactor("CW10", 10, True, "null", "xminus"),
}


class GeometryProduct(namedtuple("GeometryProduct",
                                 "lorentz spheres s7 su3 flats",
                                 defaults=(0, 0, 0, 0))):
    """Multiset of elementary factors making a ten-dimensional spacetime:
    the lorentzian factor (AdS3, CWn or E(1,0)), the numbers of S3, S7 and
    SU(3) factors, and the number of spacelike flat directions."""

    __slots__ = ()

    @property
    def dim(self):
        d = FACTORS[self.lorentz].dim + 3 * self.spheres + 7 * self.s7 \
            + 8 * self.su3 + self.flats
        return d

    def display(self):
        parts = []
        if self.lorentz == "E(1,0)":
            parts.append(f"E(1,{self.flats})" if self.flats else "E(1,0)")
        elif self.lorentz.startswith("CW"):
            parts.append(f"{self.lorentz}(A)")
        else:
            parts.append(self.lorentz)
        parts.extend(["S7"] * self.s7)
        parts.extend(["S3"] * self.spheres)
        parts.extend(["SU(3)"] * self.su3)
        if self.lorentz != "E(1,0)" and self.flats:
            parts.append(f"E{self.flats}" if self.flats > 1 else "E1")
        return " x ".join(parts)

    def ident(self):
        return self.display().lower().replace(" x ", "_").replace("(a)", "") \
            .replace("(1,", "1_").replace(")", "").replace("(", "") \
            .replace(",", "_")


def enumerate_parallelisable(total_dim=10):
    """All ten-dimensional products of the elementary factors with exactly
    one lorentzian causal block (the plane-wave enumeration)."""
    out = []
    for lorentz in ["AdS3", "E(1,0)", "CW4", "CW6", "CW8", "CW10"]:
        base = FACTORS[lorentz].dim
        rest = total_dim - base
        if rest < 0:
            continue
        for n_s7 in range(rest // 7 + 1):
            for n_su3 in range((rest - 7 * n_s7) // 8 + 1):
                for n_s3 in range((rest - 7 * n_s7 - 8 * n_su3) // 3 + 1):
                    flats = rest - 7 * n_s7 - 8 * n_su3 - 3 * n_s3
                    out.append(GeometryProduct(lorentz, n_s3, n_s7, n_su3,
                                               flats))
    if any(p.dim != total_dim for p in out):
        raise RuntimeError(f"a product is not {total_dim}-dimensional")
    return sorted(out, key=lambda p: p.display())


DilatonSolution = namedtuple("DilatonSolution",
                             "accepted pattern reason constraint",
                             defaults=("", "", ""))


def solve_dilaton(p):
    """Type-II dilaton constraint solving per geometry (the two-equation
    analysis |dphi|^2 = 1/4 |H|^2 with dphi along the allowed directions)."""
    if p.s7:
        return DilatonSolution(False, reason="S7 cannot appear: dH != 0 "
                               "while the type-II torsion is closed")
    pos = p.spheres > 0 or p.su3 > 0
    neg = p.lorentz == "AdS3"
    cw = p.lorentz.startswith("CW")
    spacelike_flat = p.flats > 0
    if neg:
        if not pos:
            return DilatonSolution(False, reason="|H|^2 < 0 cannot be "
                                   "balanced: no positive-norm torsion "
                                   "blocks and |dphi|^2 >= 0")
        return DilatonSolution(True, pattern="phi = a + 1/2 |H| y",
                               constraint="sum 1/R_i^2 >= 1/R_0^2; equality "
                               "iff the dilaton is constant")
    if cw:
        if pos and not spacelike_flat:
            return DilatonSolution(False, reason="null dilaton gradient: "
                                   "|dphi|^2 = 0 < 1/4 |H|^2")
        if pos:
            return DilatonSolution(True,
                                   pattern="phi = a + b x- + 1/2 |H| y")
        return DilatonSolution(True, pattern="phi = a + b x-")
    # flat lorentzian block
    if pos:
        if not spacelike_flat:
            return DilatonSolution(False, reason="dilaton gradient is "
                                   "timelike: |dphi|^2 <= 0 < 1/4 |H|^2")
        return DilatonSolution(True, pattern="phi = a + 1/2 |H| y")
    return DilatonSolution(True, pattern="phi = a + b x-")


# ---------------------------------------------------------------------------
# concrete frame assembly for the susy counts
# ---------------------------------------------------------------------------

_CW_WEIGHTS = {4: [1], 6: [1, 2], 8: [1, 2, 4], 10: [1, 2, 4, 8]}


def _null_frame(p):
    """Whether p is assembled on a lightcone frame: its lorentzian block is a
    plane wave, or flat with no curved factor beside it."""
    return p.lorentz.startswith("CW") or \
        (p.lorentz == "E(1,0)" and not (p.spheres or p.su3))


def assemble_parallelisable(p, dilaton_kind):
    """Concrete frame data (space, H, dphi, FrameAlgebra) for a geometry
    product and a dilaton class ("constant" or "nonconstant"), with exact
    sample radii satisfying the constraint of solve_dilaton."""
    sol = solve_dilaton(p)
    if not sol.accepted:
        raise ValueError(f"{p.display()}: {sol.reason}")
    rep = build_gamma((1, 9))
    notes = []
    if _null_frame(p):
        alg = FrameAlgebra.lightcone(rep)
        next_slot = 2
    else:
        alg = FrameAlgebra.orthonormal(rep)
        # slot 0 is timelike: AdS3 owns it, otherwise it belongs to the
        # flat block and curved factors start at slot 1
        next_slot = 0 if p.lorentz == "AdS3" else 1
    space = alg.space
    Hcomps = {}
    dphi_comps = {}
    # lorentzian block
    if p.lorentz == "AdS3":
        # curvature radius R0; each positive block below contributes +4 to
        # |H|^2 and the AdS3 block -4/R0^2: saturation (constant dilaton)
        # sets 1/R0^2 to the number of positive blocks, the strict case
        # (nonconstant) undershoots it
        if dilaton_kind == "constant":
            inv_r0sq = Scalar(p.spheres + p.su3) if (p.spheres + p.su3) \
                else Scalar(1)
        else:
            inv_r0sq = R_(1, 4) if (p.spheres + p.su3) == 1 else Scalar(1)
        h0 = Scalar(2) * sqrt_scalar(inv_r0sq)
        Hcomps[(0, 1, 2)] = -h0
        next_slot = 3
        notes.append(f"AdS3 block with 1/R0^2 = {inv_r0sq}")
    elif p.lorentz.startswith("CW"):
        weights = _CW_WEIGHTS[FACTORS[p.lorentz].dim]
        for i, w in enumerate(weights):
            Hcomps[(1, next_slot + 2 * i, next_slot + 2 * i + 1)] = Scalar(w)
        next_slot += 2 * len(weights)
        notes.append(f"{p.lorentz} block with generic weights {weights}")
    # spheres (unit 1/R^2 = 1 each)
    for _ in range(p.spheres):
        Hcomps[(next_slot, next_slot + 1, next_slot + 2)] = Scalar(-2)
        next_slot += 3
    if p.su3:
        for (i, j, k), f in SU3_STRUCTURE.items():
            Hcomps[(next_slot + i, next_slot + j, next_slot + k)] = f
        next_slot += 8
    H = KForm(space, 3, Hcomps)
    H2 = form_inner(H, H)
    # dilaton
    if dilaton_kind == "constant":
        if not H2.is_zero():
            raise ValueError(f"{p.display()}: constant dilaton requires "
                             f"|H|^2 = 0, got {H2}")
    else:
        if "x-" in sol.pattern:
            dphi_comps[(1,)] = Scalar(1)            # b = 1 along e-
        if "|H| y" in sol.pattern:
            y = space.dim - 1                       # last flat leg
            coeff = sqrt_scalar(H2) * R_(1, 2)
            if coeff.is_zero():
                raise ValueError("pattern requires |H| > 0")
            dphi_comps[(y,)] = coeff
    dphi = KForm(space, 1, dphi_comps)
    return {"space": space, "H": H, "dphi": dphi, "alg": alg, "notes": notes}


def susy_count(p, dilaton_kind):
    """Frame-constant supersymmetry count for a geometry product.  Returns
    {"iia": n, "iib": n, "sector": "frame-constant"}; enhanced counts are
    out of scope and reported as such by the CLI."""
    frame_data = assemble_parallelisable(p, dilaton_kind)
    iia, iib = dilatino_kernel(BackgroundSpec(
        "typeII-common", p.display(), None, {}, frame_data=frame_data))
    return {"iia": iia, "iib": iib, "sector": "frame-constant"}


def _dilaton_pair(p, dphi):
    """(pair, dphi): the plane wave of p's flat and plane-wave block at its
    base point, and the dilaton gradient on it there (1 along e-, plus
    dphi's last flat leg).  The dilaton has no legs on the curved factors
    and the product metric is block diagonal, so nabla dphi is computed on
    this plane wave and vanishes structurally elsewhere."""
    weights = _CW_WEIGHTS[FACTORS[p.lorentz].dim] \
        if p.lorentz.startswith("CW") else []
    m = 8 - 3 * p.spheres - 8 * p.su3   # transverse legs of the pair
    diag = []
    for w in weights:
        lam = Scalar(w) * Scalar(w) * R_(-1, 4)
        diag.extend([lam, lam])
    diag.extend([Scalar(0)] * (m - len(diag)))
    pair = SymmetricSpace.plane_wave(CWData.diagonal(diag))
    comps = {(1,): Scalar(1)}
    ycoeff = dphi.components.get((dphi.space.dim - 1,))
    if ycoeff is not None:
        comps[(pair.dim - 1,)] = ycoeff
    return pair, KForm(pair.space, 1, comps)


def typeII_background(p, dilaton_kind):
    """The typeII-common record of a geometry product: its assembled frame
    data, with the dilaton's plane wave where the dilaton varies on a
    lightcone frame."""
    frame_data = assemble_parallelisable(p, dilaton_kind)
    notes = frame_data.pop("notes")
    if _null_frame(p) and dilaton_kind != "constant":
        frame_data["pair"], frame_data["dphi_pair"] = \
            _dilaton_pair(p, frame_data["dphi"])
    return BackgroundSpec("typeII-common", p.display(), None, {}, notes,
                          frame_data=frame_data)


def verify_typeII_product(p, dilaton_kind="nonconstant"):
    """Full type-II report for a geometry product: rejected geometries
    produce a failing report carrying the violated equation, accepted ones
    run the equations of motion on the assembled frame."""
    sol = solve_dilaton(p)
    if not sol.accepted:
        rep = VerificationReport(p.display(), "typeII-common")
        rep.add("equations of motion solvable", False, witness=sol.reason)
        return rep
    rep = verify_typeII_common(typeII_background(p, dilaton_kind))
    if sol.constraint:
        rep.notes.append(sol.constraint)
    return rep


# ---------------------------------------------------------------------------
# golden tables
# ---------------------------------------------------------------------------

def table2_lines():
    return [p.display() for p in enumerate_parallelisable(10)]


def table3_lines():
    out = []
    for p in enumerate_parallelisable(10):
        sol = solve_dilaton(p)
        if sol.accepted:
            out.append(f"{p.display()} | {sol.pattern}")
    return out


def table3_rejections():
    out = []
    for p in enumerate_parallelisable(10):
        sol = solve_dilaton(p)
        if not sol.accepted:
            out.append(f"{p.display()} | rejected: {sol.reason}")
    return out


def has_constant_dilaton_member(p):
    """Constant dilaton requires |H|^2 = 0: AdS3 products balance the radii
    against the spheres, pure plane-wave/flat products have null torsion."""
    if p.lorentz == "AdS3":
        return p.spheres > 0 or p.su3 > 0
    return not (p.spheres or p.su3)


def table4_lines():
    out = []
    for p in enumerate_parallelisable(10):
        sol = solve_dilaton(p)
        if not sol.accepted:
            continue
        if has_constant_dilaton_member(p):
            counts = susy_count(p, "constant")
            const = str(counts["iia"])
            if counts["iia"] != counts["iib"]:
                const = f"IIA {counts['iia']} / IIB {counts['iib']}"
        else:
            const = "x"
        ncounts = susy_count(p, "nonconstant")
        nonconst = str(ncounts["iia"])
        if ncounts["iia"] != ncounts["iib"]:
            nonconst = f"IIA {ncounts['iia']} / IIB {ncounts['iib']}"
        extra = ""
        if p.lorentz.startswith("CW") and not (p.spheres or p.su3) \
                and p.lorentz != "CW4":
            extra = " (enhanced counts for special profiles: out of scope)"
        out.append(f"{p.display()} | constant: {const} | "
                   f"nonconstant: {nonconst}{extra}")
    return out


# ---------------------------------------------------------------------------
# builtin backgrounds
# ---------------------------------------------------------------------------

def _plane_wave(theory, name, data, fluxes, notes=()):
    """The plane wave of the profile `data` at its base point, with the
    fluxes {name: {indices: Scalar}} on the frame (xp, xm, x1..)."""
    p = SymmetricSpace.plane_wave(data)
    return BackgroundSpec(theory, name, p, _forms(p.space, fluxes), notes,
                          data)


def _cw11_background(mu=6, perturb=None):
    m = Scalar(mu)
    vals = [m * m * R_(-1, 36) * Scalar(k)
            for k in [4, 4, 4, 1, 1, 1, 1, 1, 1]]
    A = linalg.zeros(9, 9)
    for i, v in enumerate(vals):
        A[i][i] = v
    if perturb:
        for (i, j), dv in perturb.items():
            A[i][j] = A[i][j] + dv
            if i != j:
                A[j][i] = A[j][i] + dv
    return _plane_wave("d11", "cw11", CWData(A), {"F4": {(1, 2, 3, 4): m}})


def _ads7_s4_background(R=6):
    R = Scalar(R)
    prod = SymmetricSpace.product([(7, Scalar(-7) * R, True, "AdS7"),
                                   (4, Scalar(8) * R, False, "S4")])
    return BackgroundSpec("d11", "ads7xs4", prod, _forms(prod.space, {
        "F4": {(7, 8, 9, 10): sqrt_scalar(Scalar(6) * R)}}))


def _ads4_s7_background(R=-6):
    R = Scalar(R)
    prod = SymmetricSpace.product([(4, Scalar(8) * R, True, "AdS4"),
                                   (7, Scalar(-7) * R, False, "S7")])
    return BackgroundSpec("d11", "ads4xs7", prod, _forms(prod.space, {
        "F4": {(0, 1, 2, 3): sqrt_scalar(Scalar(-6) * R)}}))


def _ads5_s5_background(R=5):
    R = Scalar(R)
    prod = SymmetricSpace.product([(5, -R, True, "AdS5"),
                                   (5, R, False, "S5")], orientation=-1)
    c = sqrt_scalar(R * R_(1, 20))
    return BackgroundSpec("iib", "ads5xs5", prod, _forms(prod.space, {
        "F5": {(0, 1, 2, 3, 4): c, (5, 6, 7, 8, 9): c},
        "G5": {(0, 1, 2, 3, 4): c}}), [
        "flux normalization sqrt(R/20) per block volume is the value forced "
        "by the Riemann-flux identity and the flatness of the "
        "supercovariant connection (the often-quoted 2 sqrt(R/5) belongs "
        "to a different normalization of F and fails both here)",
        "orientation -1 of the ordered (AdS5, S5) frame realizes "
        "the self-duality *F = F (recorded)"])


def _cw10_background(mu=1):
    m = Scalar(mu)
    return _plane_wave(
        "iib", "cw10", CWData.diagonal([-(m * m)] * 8),
        {"F5": {(1, 2, 3, 4, 5): m, (1, 6, 7, 8, 9): m},
         "G5": {(1, 2, 3, 4, 5): m}},
        ["flux normalization mu (not mu/2) per half-volume is the value "
         "forced by supercovariant flatness at A = -mu^2; the coefficient "
         "mu/2 leaves a 16-dimensional kernel only"])


def _e1_10_background():
    return _plane_wave(
        "d11", "e1_10", CWData.diagonal([0] * 9), {"F4": {}},
        ["mu = 0 member of the plane-wave family: flat space, zero flux"])


def _e1_9_iia_background():
    """The reduction of its d=11 parent e1_10 along x9 of the parent's frame
    (xp, xm, x1..x9), which kaluza.verify_iia computes."""
    return BackgroundSpec(
        "iia", "e1_9_iia", None, {},
        ["obtained by reducing the flat eleven-dimensional vacuum along a "
         "spacelike translation"],
        frame_data={"parent": _e1_10_background(),
                    "along": [Scalar(0)] * 10 + [Scalar(1)]})


def _d6_background(name, algebra, notes=()):
    """A d=6 background on the group of a metric Lie algebra at its
    identity, its torsion the canonical three-form."""
    return BackgroundSpec("d6-(1,0)", name, SymmetricSpace.group(algebra),
                          {"H3": canonical_three_form(algebra)}, notes)


# every catalog id and its builder, in catalog order: 4 (d=11), 3 (IIB),
# 1 (IIA) and 3 (d=6); a builder takes the parameters _PARAMETERS gives its
# id, as keywords with their default values
_BUILDERS = {
    "ads7xs4": _ads7_s4_background,
    "ads4xs7": _ads4_s7_background,
    "cw11": _cw11_background,
    "e1_10": _e1_10_background,
    "ads5xs5": _ads5_s5_background,
    "cw10": _cw10_background,
    "e1_9": lambda: _plane_wave(
        "iib", "e1_9", CWData.diagonal([0] * 8), {"F5": {}, "G5": {}},
        ["mu = 0 member of the plane-wave family: flat space, zero fluxes"]),
    "e1_9_iia": _e1_9_iia_background,
    "ads3xs3": lambda: _d6_background(
        "ads3xs3", so12_so3(1, 1),
        ["equal radii Freund-Rubin family member (beta = alpha)"]),
    "nw6": lambda: _d6_background("nw6", nw6()),
    "e1_5": lambda: _d6_background("e1_5", e15()),
}

_PARAMETERS = {"cw11": ("mu", "perturb"), "cw10": ("mu",),
               "ads7xs4": ("R",), "ads4xs7": ("R",), "ads5xs5": ("R",)}


def builtin_backgrounds():
    """The full catalog, each background built once, in catalog order."""
    return [build() for build in _BUILDERS.values()]


def background_ids():
    return list(_BUILDERS)


def get_background(name, mu=None, Rv=None, perturb=None):
    """The catalog background `name`, built with the parameters given; an
    id rejects every parameter _PARAMETERS does not list for it."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown background id {name!r}")
    given = {k: v for k, v in {"mu": mu, "R": Rv, "perturb": perturb}.items()
             if v is not None}
    extra = [k for k in given if k not in _PARAMETERS.get(name, ())]
    if extra:
        raise ValueError(f"{name} takes no parameter {', '.join(extra)}")
    return _BUILDERS[name](**given)


def verify_background(b):
    """Dispatch to the theory verifier, including the max-susy layer."""
    if b.theory == "d11":
        return verify_d11_maxsusy(b)
    if b.theory == "iib":
        return verify_iib_maxsusy(b)
    if b.theory == "iia":
        return verify_iia(b)
    if b.theory == "d6-(1,0)":
        return verify_d6(b)
    if b.theory == "typeII-common":
        return verify_typeII_common(b)
    raise ValueError(f"no verifier for theory {b.theory}")


# ---------------------------------------------------------------------------
# background files
# ---------------------------------------------------------------------------

_FLUX_DEGREE = {"F4": 4, "F5": 5, "G5": 5, "H3": 3}
# the theories whose verifiers need no frame data beyond the file's
_FILE_THEORIES = ("d11", "iib", "d6-(1,0)")


def _file_scalar(text, params, where):
    """parse_scalar on the background-file entry `where`, naming it on
    error."""
    if not isinstance(text, str):
        raise ValueError(f"{where}: expected an exact scalar string, got "
                         f"{text!r}")
    try:
        return parse_scalar(text, params)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"{where}: {e}") from None


def _known_keys(obj, where, known):
    """Reject the first key of the file object obj (at the entry path
    prefix where) that the format does not define, naming its path."""
    for key in obj:
        if key not in known:
            raise ValueError(f"{where}{key}: unknown key; expected "
                             f"{', '.join(known)}")


class _Bindings(dict):
    """A file's parameter bindings, remembering the names a scalar read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return dict.__getitem__(self, name)


def _file_fluxes(doc, params, dim):
    """{name: {indices: Scalar}} for the "fluxes" of a background file on a
    frame of dimension dim.  Every entry must name a known flux and give its
    degree's increasing indices below dim, once."""
    fluxes = doc.get("fluxes", {})
    if not isinstance(fluxes, dict):
        raise ValueError("fluxes: expected an object of named fluxes")
    parsed = {}
    for fname, entries in fluxes.items():
        k = _FLUX_DEGREE.get(fname)
        if k is None:
            raise ValueError(f"fluxes.{fname}: unknown flux; expected one of "
                             f"{', '.join(_FLUX_DEGREE)}")
        if not isinstance(entries, list):
            raise ValueError(f"fluxes.{fname}: expected a list of entries")
        comps = parsed[fname] = {}
        for pos, e in enumerate(entries):
            where = f"fluxes.{fname}[{pos}]"
            if isinstance(e, dict):
                _known_keys(e, f"{where}.", ("indices", "coeff"))
            idx = e.get("indices") if isinstance(e, dict) else None
            if not (isinstance(idx, list) and len(idx) == k
                    and all(type(i) is int and 0 <= i < dim for i in idx)
                    and idx == sorted(set(idx))):
                raise ValueError(f"{where}: indices {idx!r} are not {k} "
                                 f"increasing integers in 0..{dim - 1}")
            if tuple(idx) in comps:
                raise ValueError(f"{where}: indices {idx} repeat an earlier "
                                 f"entry")
            comps[tuple(idx)] = _file_scalar(e.get("coeff"), params,
                                             f"{where}.coeff")
    return parsed


def _forms(space, fluxes):
    """{name: KForm on space} for {name: {indices: Scalar}}, each of its
    name's degree."""
    return {f: KForm(space, _FLUX_DEGREE[f], comps)
            for f, comps in fluxes.items()}


def _file_dimension(theory, dim, where, what):
    """Reject a geometry entry whose dimension is not its theory's, before
    any matrix of that size is built."""
    if dim != _DIMENSION[theory]:
        raise ValueError(f"{where}: {theory} needs dimension "
                         f"{_DIMENSION[theory]}, {what} dimension {dim}")


def load_background(path):
    """Flat JSON schema for user-supplied backgrounds; exact scalars are
    strings parsed against the parameter bindings.  See README for the
    schema.  Malformed entries raise ValueError naming the entry."""
    import json
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object at the top level, got "
                         f"{type(doc).__name__}")
    _known_keys(doc, "", ("theory", "name", "parameters", "geometry",
                          "fluxes"))
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise ValueError("parameters: expected an object of scalar strings")
    params = _Bindings((k, _file_scalar(v, {}, f"parameters.{k}"))
                       for k, v in params.items())
    theory = doc.get("theory")
    if theory not in _FILE_THEORIES:
        raise ValueError(f"theory: expected one of "
                         f"{', '.join(_FILE_THEORIES)}, got {theory!r}")
    name = doc.get("name", "user-background")
    if not isinstance(name, str):
        raise ValueError(f"name: expected a string, got {name!r}")
    geom = doc.get("geometry")
    if not isinstance(geom, dict):
        raise ValueError("geometry: expected an object with a type")
    kind = geom.get("type")
    orientation = geom.get("orientation", 1)
    if type(orientation) is not int or orientation not in (1, -1):
        raise ValueError(f"geometry.orientation: expected 1 or -1, got "
                         f"{orientation!r}")
    data = None
    if kind == "cw":
        _known_keys(geom, "geometry.", ("type", "orientation", "profile"))
        rows = geom.get("profile")
        if not (isinstance(rows, list) and all(
                isinstance(r, list) and len(r) == len(rows) for r in rows)):
            raise ValueError("geometry.profile: expected a square matrix")
        _file_dimension(theory, len(rows) + 2, "geometry.profile",
                        f"a {len(rows)}x{len(rows)} profile gives")
        data = CWData([[_file_scalar(x, params, f"geometry.profile[{i}][{j}]")
                        for j, x in enumerate(row)]
                       for i, row in enumerate(rows)])
        geometry = SymmetricSpace.plane_wave(data, orientation)
    elif kind == "product":
        _known_keys(geom, "geometry.", ("type", "orientation", "blocks"))
        entries = geom.get("blocks")
        if not isinstance(entries, list):
            raise ValueError("geometry.blocks: expected a list of blocks")
        blocks = []
        for i, blk in enumerate(entries):
            where = f"geometry.blocks[{i}]"
            if not isinstance(blk, dict):
                raise ValueError(f"{where}: expected an object, got {blk!r}")
            _known_keys(blk, f"{where}.", ("dim", "scalar_curvature",
                                           "lorentzian", "label"))
            dim = blk.get("dim")
            if not (type(dim) is int and dim >= 1):
                raise ValueError(f"{where}.dim: expected a positive integer, "
                                 f"got {dim!r}")
            lorentzian = blk.get("lorentzian", False)
            if type(lorentzian) is not bool:
                raise ValueError(f"{where}.lorentzian: expected true or "
                                 f"false, got {lorentzian!r}")
            label = blk.get("label", "")
            if not isinstance(label, str):
                raise ValueError(f"{where}.label: expected a string, got "
                                 f"{label!r}")
            blocks.append((dim, _file_scalar(
                blk.get("scalar_curvature"), params,
                f"{where}.scalar_curvature"), lorentzian, label))
        _file_dimension(theory, sum(b[0] for b in blocks), "geometry.blocks",
                        "the blocks give")
        try:
            geometry = SymmetricSpace.product(blocks, orientation)
        except ValueError as e:     # it names the block entry
            raise ValueError(f"geometry.{e}") from None
    elif kind is None:
        raise ValueError("geometry.type: expected cw or product, got None")
    else:
        raise ValueError(f"unknown geometry type {kind!r}")
    fluxes = _file_fluxes(doc, params, geometry.dim)
    unread = [k for k in params if k not in params.read]
    if unread:
        raise ValueError(f"parameters.{unread[0]}: unknown key; no scalar "
                         f"of the file reads it")
    # the signature is checked before the forms are built
    theory_geometry(theory, name, geometry)
    return BackgroundSpec(theory, name, geometry,
                          _forms(geometry.space, fluxes), cw_data=data)
