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
"""

from collections import namedtuple

from .exactnum import Scalar, Polynomial, sqrt_scalar, parse_scalar
from .multilinear import KForm
from .clifford import build_gamma, FrameAlgebra
from .liealg import CWData, nw6, so12_so3, e15, _SU3_TRIPLES
from .geometry import ConstCurvBlock, ProductGeometry, cw_patch
from .sugra import (BackgroundSpec, VerificationReport,
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


def _su3_three_form(space, offset, scale=None):
    r3h = sqrt_scalar(Scalar(3)) * R_(1, 2)
    comps = {}
    triples = {key: (f if isinstance(f, Scalar) else Scalar(f))
               for key, f in _SU3_TRIPLES}
    triples[(3, 4, 7)] = r3h
    triples[(5, 6, 7)] = r3h
    for (i, j, k), f in triples.items():
        comps[(offset + i, offset + j, offset + k)] = f
    return KForm(space, 3, comps)


def assemble_parallelisable(p, dilaton_kind):
    """Concrete frame data (space, H, dphi, FrameAlgebra) for a geometry
    product and a dilaton class ("constant" or "nonconstant"), with exact
    sample radii satisfying the constraint of solve_dilaton."""
    sol = solve_dilaton(p)
    if not sol.accepted:
        raise ValueError(f"{p.display()}: {sol.reason}")
    rep = build_gamma((1, 9))
    use_null = p.lorentz.startswith("CW") or \
        (p.lorentz == "E(1,0)" and not (p.spheres or p.su3))
    notes = []
    if use_null:
        alg = FrameAlgebra.lightcone(rep)
        space = alg.space
        next_slot = 2
    else:
        alg = FrameAlgebra.orthonormal(rep)
        space = alg.space
        # slot 0 is timelike: AdS3 owns it, otherwise it belongs to the
        # flat block and curved factors start at slot 1
        next_slot = 0 if p.lorentz == "AdS3" else 1
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
    sphere_slots = []
    for _ in range(p.spheres):
        a, b, c = next_slot, next_slot + 1, next_slot + 2
        Hcomps[(a, b, c)] = Scalar(-2)
        sphere_slots.append((a, b, c))
        next_slot += 3
    if p.su3:
        su3f = _su3_three_form(space, next_slot)
        for k, v in su3f.components.items():
            Hcomps[k] = v
        next_slot += 8
    H = KForm(space, 3, Hcomps)
    from .multilinear import form_inner
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
    out = {"space": space, "H": H, "dphi": dphi, "alg": alg, "notes": notes}
    if use_null and dilaton_kind != "constant":
        # exact chart for the flat + plane-wave block: the dilaton has no
        # legs on the curved factors and the product metric is block
        # diagonal, so nabla dphi is verified on this chart and vanishes
        # structurally elsewhere
        weights = _CW_WEIGHTS.get(FACTORS[p.lorentz].dim, []) \
            if p.lorentz.startswith("CW") else []
        m = 8 - 3 * p.spheres - 8 * p.su3   # transverse legs on the chart
        diag = []
        for w in weights:
            lam = Scalar(w) * Scalar(w) * R_(-1, 4)
            diag.extend([lam, lam])
        while len(diag) < m:
            diag.append(Scalar(0))
        chart = cw_patch(CWData.diagonal(diag))
        phi = Polynomial.variable(chart.coords[1])        # b = 1 along x-
        ycoeff = dphi_comps.get((space.dim - 1,))
        if ycoeff is not None:
            phi = phi + ycoeff * Polynomial.variable(chart.coords[-1])
        out["cw_patch"] = chart
        out["phi_poly"] = phi
    return out


def susy_count(p, dilaton_kind):
    """Frame-constant supersymmetry count for a geometry product.  Returns
    {"iia": n, "iib": n, "sector": "frame-constant"}; enhanced counts are
    out of scope and reported as such by the CLI."""
    frame_data = assemble_parallelisable(p, dilaton_kind)
    b = BackgroundSpec("typeII-common", p.display(), "parallelisable",
                       frame_data=frame_data)
    iia, iib = dilatino_kernel(b)
    return {"iia": iia, "iib": iib, "sector": "frame-constant"}


def typeII_background(p, dilaton_kind):
    frame_data = assemble_parallelisable(p, dilaton_kind)
    notes = list(frame_data.pop("notes"))
    return BackgroundSpec("typeII-common", p.display(), "parallelisable",
                          frame_data=frame_data, notes=notes)


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

def _cw11_background(mu=Scalar(6), perturb=None):
    m = mu if isinstance(mu, Scalar) else Scalar(mu)
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
    data = CWData(A)

    def flux(space):
        return {"F4": KForm(space, 4,
                            {(1, 2, 3, 4): Polynomial.constant(m)})}

    return BackgroundSpec("d11", "cw11", "cw", cw_data=data,
                          flux_builder=flux)


def _e1_10_background():
    data = CWData.diagonal([0] * 9)

    def flux(space):
        return {"F4": KForm(space, 4, {})}

    b = BackgroundSpec("d11", "e1_10", "cw", cw_data=data, flux_builder=flux)
    b.notes.append("mu = 0 member of the plane-wave family: flat space, "
                   "zero flux")
    return b


def _ads7_s4_background(Rv=Scalar(6)):
    ads7 = ConstCurvBlock(7, Scalar(-7) * Rv, lorentzian=True, label="AdS7")
    s4 = ConstCurvBlock(4, Scalar(8) * Rv, lorentzian=False, label="S4")
    prod = ProductGeometry([ads7, s4])
    q = sqrt_scalar(Scalar(6) * Rv)

    def flux(space):
        return {"F4": prod.volume_form(1, q)}

    return BackgroundSpec("d11", "ads7xs4", "product", product=prod,
                          flux_builder=flux)


def _ads4_s7_background(Rv=Scalar(-6)):
    ads4 = ConstCurvBlock(4, Scalar(8) * Rv, lorentzian=True, label="AdS4")
    s7 = ConstCurvBlock(7, Scalar(-7) * Rv, lorentzian=False, label="S7")
    prod = ProductGeometry([ads4, s7])
    q = sqrt_scalar(Scalar(-6) * Rv)

    def flux(space):
        return {"F4": prod.volume_form(0, q)}

    return BackgroundSpec("d11", "ads4xs7", "product", product=prod,
                          flux_builder=flux)


def _ads5_s5_background(Rv=Scalar(5)):
    ads5 = ConstCurvBlock(5, -Rv, lorentzian=True, label="AdS5")
    s5 = ConstCurvBlock(5, Rv, lorentzian=False, label="S5")
    prod = ProductGeometry([ads5, s5], orientation=-1)
    c = sqrt_scalar(Rv * R_(1, 20))

    def flux(space):
        G = prod.volume_form(0, c)
        return {"F5": G + prod.volume_form(1, c), "G5": G}

    b = BackgroundSpec("iib", "ads5xs5", "product", product=prod,
                       flux_builder=flux)
    b.notes.append(
        "flux normalization sqrt(R/20) per block volume is the value forced "
        "by the Riemann-flux identity and the flatness of the "
        "supercovariant connection (the often-quoted 2 sqrt(R/5) belongs "
        "to a different normalization of F and fails both here)")
    b.notes.append("orientation -1 of the ordered (AdS5, S5) frame realizes "
                   "the self-duality *F = F (recorded)")
    return b


def _cw10_background(mu=Scalar(1)):
    m = mu if isinstance(mu, Scalar) else Scalar(mu)
    data = CWData.diagonal([-(m * m)] * 8)

    def flux(space):
        F = KForm(space, 5, {(1, 2, 3, 4, 5): Polynomial.constant(m),
                             (1, 6, 7, 8, 9): Polynomial.constant(m)})
        G = KForm(space, 5, {(1, 2, 3, 4, 5): Polynomial.constant(m)})
        return {"F5": F, "G5": G}

    b = BackgroundSpec("iib", "cw10", "cw", cw_data=data, flux_builder=flux)
    b.notes.append(
        "flux normalization mu (not mu/2) per half-volume is the value "
        "forced by supercovariant flatness at A = -mu^2; the coefficient "
        "mu/2 leaves a 16-dimensional kernel only")
    return b


def _e1_9_background():
    data = CWData.diagonal([0] * 8)

    def flux(space):
        return {"F5": KForm(space, 5, {}), "G5": KForm(space, 5, {})}

    b = BackgroundSpec("iib", "e1_9", "cw", cw_data=data, flux_builder=flux)
    b.notes.append("mu = 0 member of the plane-wave family: flat space, "
                   "zero fluxes")
    return b


def _e1_9_iia_background():
    b = BackgroundSpec("iia", "e1_9_iia", "flat")
    b.frame_data["direction"] = {"type": "translation",
                                 "components": [Scalar(0)] * 10 + [Scalar(1)]}
    b.notes.append("obtained by reducing the flat eleven-dimensional vacuum "
                   "along a spacelike translation")
    return b


def _d6_backgrounds():
    out = []
    b = BackgroundSpec("d6-(1,0)", "ads3xs3", "algebra",
                       algebra=so12_so3(1, 1))
    b.notes.append("equal radii Freund-Rubin family member (beta = alpha)")
    out.append(b)
    out.append(BackgroundSpec("d6-(1,0)", "nw6", "algebra", algebra=nw6()))
    out.append(BackgroundSpec("d6-(1,0)", "e1_5", "algebra", algebra=e15()))
    return out


def builtin_backgrounds():
    """The full catalog: 4 (d=11) + 3 (IIB) + 1 (IIA) + 3 (d=6)."""
    out = [_ads7_s4_background(), _ads4_s7_background(), _cw11_background(),
           _e1_10_background(), _ads5_s5_background(), _cw10_background(),
           _e1_9_background(), _e1_9_iia_background()]
    out.extend(_d6_backgrounds())
    return out


def background_ids():
    return [b.name for b in builtin_backgrounds()]


# the parameters each builtin id takes; any other is an error
_PARAMETERS = {"cw11": ("mu", "perturb"), "cw10": ("mu",),
               "ads7xs4": ("R",), "ads4xs7": ("R",), "ads5xs5": ("R",)}


def get_background(name, mu=None, Rv=None, perturb=None):
    given = {"mu": mu, "R": Rv, "perturb": perturb}
    extra = [k for k, v in given.items()
             if v is not None and k not in _PARAMETERS.get(name, ())]
    builders = {
        "cw11": lambda: _cw11_background(Scalar(mu) if mu is not None
                                         else Scalar(6),
                                         perturb=perturb),
        "e1_10": _e1_10_background,
        "ads7xs4": lambda: _ads7_s4_background(Scalar(Rv) if Rv is not None
                                               else Scalar(6)),
        "ads4xs7": lambda: _ads4_s7_background(Scalar(Rv) if Rv is not None
                                               else Scalar(-6)),
        "ads5xs5": lambda: _ads5_s5_background(Scalar(Rv) if Rv is not None
                                               else Scalar(5)),
        "cw10": lambda: _cw10_background(Scalar(mu) if mu is not None
                                         else Scalar(1)),
        "e1_9": _e1_9_background,
        "e1_9_iia": _e1_9_iia_background,
    }
    d6 = {} if name in builders else {b.name: b for b in _d6_backgrounds()}
    if name not in builders and name not in d6:
        raise KeyError(f"unknown background id {name!r}")
    if extra:
        raise ValueError(f"{name} takes no parameter {', '.join(extra)}")
    return builders[name]() if name in builders else d6[name]


def verify_background(b):
    """Dispatch to the theory verifier, including the max-susy layer."""
    if b.theory == "d11":
        return verify_d11_maxsusy(b)
    if b.theory == "iib":
        return verify_iib_maxsusy(b)
    if b.theory == "iia":
        from .kaluza import reduce_flat_d11
        rep = VerificationReport(b.name, "iia")
        red = reduce_flat_d11(b.frame_data["direction"])
        rep.add("flat E^{1,9} with zero fluxes and constant dilaton",
                red["metric"] == "flat E^{1,9}" and red["dilaton"] == "constant"
                and red["F2"] == red["H3"] == red["G4"] == "0")
        rep.add("maximal supersymmetry preserved", red["max_susy_preserved"],
                note=red["note"])
        for n in b.notes:
            rep.notes.append(n)
        return rep
    if b.theory == "d6-(1,0)":
        return verify_d6(b)
    if b.theory == "typeII-common":
        return verify_typeII_common(b)
    raise ValueError(f"no verifier for theory {b.theory}")


# ---------------------------------------------------------------------------
# background files
# ---------------------------------------------------------------------------

_FLUX_DEGREE = {"F4": 4, "F5": 5, "G5": 5, "H3": 3}


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


def _file_fluxes(doc, params, dim, wrap):
    """flux(space) for the "fluxes" of a background file on a frame of
    dimension dim.  Every entry must name a known flux and give its degree's
    increasing indices below dim, once; wrap(Scalar) is the coefficient."""
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

    def flux(space):
        return {f: KForm(space, _FLUX_DEGREE[f],
                         {i: wrap(c) for i, c in comps.items()})
                for f, comps in parsed.items()}

    return flux


def load_background(path):
    """Flat JSON schema for user-supplied backgrounds; exact scalars are
    strings parsed against the parameter bindings.  See README for the
    schema.  Malformed entries raise ValueError naming the entry."""
    import json
    with open(path) as fh:
        doc = json.load(fh)
    params = {k: _file_scalar(v, {}, f"parameters.{k}") for k, v in
              doc.get("parameters", {}).items()}
    theory = doc["theory"]
    name = doc.get("name", "user-background")
    kind = doc["geometry"]["type"]
    if kind == "cw":
        rows = doc["geometry"]["profile"]
        if not (isinstance(rows, list) and all(
                isinstance(r, list) and len(r) == len(rows) for r in rows)):
            raise ValueError("geometry.profile: expected a square matrix")
        data = CWData([[_file_scalar(x, params, f"geometry.profile[{i}][{j}]")
                        for j, x in enumerate(row)]
                       for i, row in enumerate(rows)])
        return BackgroundSpec(theory, name, "cw", cw_data=data,
                              flux_builder=_file_fluxes(
                                  doc, params, data.n, Polynomial.constant))
    if kind == "product":
        blocks = []
        for i, blk in enumerate(doc["geometry"]["blocks"]):
            if not (type(blk["dim"]) is int and blk["dim"] >= 1):
                raise ValueError(f"geometry.blocks[{i}].dim: expected a "
                                 f"positive integer, got {blk['dim']!r}")
            blocks.append(ConstCurvBlock(
                blk["dim"], _file_scalar(blk["scalar_curvature"], params,
                                         f"geometry.blocks[{i}]"
                                         f".scalar_curvature"),
                lorentzian=blk.get("lorentzian", False),
                label=blk.get("label", "")))
        prod = ProductGeometry(blocks,
                               doc["geometry"].get("orientation", 1))
        return BackgroundSpec(theory, name, "product", product=prod,
                              flux_builder=_file_fluxes(
                                  doc, params, prod.dim, lambda c: c))
    raise ValueError(f"unknown geometry type {kind!r}")
