"""Exact tensor calculus on polynomial-metric coordinate patches and on
algebraic products of constant-curvature blocks.

Every geometry a verifier sees -- a CoordinatePatch, a ProductGeometry or a
liealg.MetricLieAlgebra -- offers one interface: ``space`` and ``dim``,
``signature()``, ``riemann()`` and ``ricci()``, the exterior derivative
``d(F)``, the covariant derivative ``nabla(F)`` as {direction: form}, the
``premise`` a report cites for d and nabla (empty where they are computed),
and (chart and algebra) the connection coefficients ``gamma(k, i, j)`` and
coordinate partials ``partial(x, mu)``, None where they vanish.

Curvature is one formula over ``gamma`` and ``partial`` (``_curvature``):
``riemann()`` of a chart or an algebra applies it to the Levi-Civita
coefficients, ``curvature_with_torsion`` to Gamma + T/2.  Only
``CoordinatePatch.gamma`` reads the Christoffel symbols.

Sign conventions (calibrated once, see docs/conventions.md):
  * Riemann  R(X,Y)Z = [nabla_X, nabla_Y]Z - nabla_[X,Y] Z,
    R(X,Y,Z,W) = g(R(X,Y)Z, W); the round unit sphere has
    R(X,Y,Y,X) = +1 for orthonormal X,Y and Riem = 1/2 g . g.
  * Ricci  Ric(Y,Z) = g^{ab} R(e_a, Y, Z, e_b), positive on spheres.
  * Metric connections with skew torsion:  D_X Y = nabla_X Y + 1/2 T(X,Y)
    with H(X,Y,Z) = g(T(X,Y),Z); their curvature violates the first
    Bianchi identity, which BiSymTensor's symmetries permit.
"""

from itertools import combinations

from .exactnum import Scalar, Polynomial
from .multilinear import QuadraticSpace, KForm, BiSymTensor, sort_sign, \
    form_component, signature, accumulate, kulkarni_nomizu, flat, \
    nonzero_columns
from . import linalg

__all__ = ["CoordinatePatch", "cw_patch", "christoffel", "riemann", "ricci",
           "exterior_derivative", "covariant_derivative_form",
           "curvature_with_torsion", "flat_torsion_consequences",
           "lightcone_coframe", "spin_connection", "killing_check",
           "ConstCurvBlock", "ProductGeometry"]

_Z = Scalar(0)


def _pz(vars=()):
    return Polynomial(vars, {})


class CoordinatePatch:
    """Chart with polynomial metric components and an exact polynomial
    inverse (verified by its QuadraticSpace).  Christoffel symbols, Riemann
    tensor and lightcone coframe are built once, on first use."""

    premise = ""            # d and nabla are computed, not structural

    def __init__(self, coords, metric, inverse, orientation=1):
        self.coords = tuple(coords)
        self.dim = len(coords)
        self.metric = metric
        self.metric_inv = inverse
        self.space = QuadraticSpace(metric, orientation, names=self.coords,
                                    inverse=inverse)
        self._christoffel = None
        self._riemann = None
        self._coframe = None

    def metric_at_origin(self):
        vals = {v: Scalar(0) for v in self.coords}
        out = []
        for row in self.metric:
            out.append([_eval_const(x, vals) for x in row])
        return out

    def signature(self):
        return signature(self.metric_at_origin())

    def gamma(self, k, i, j):
        ch = self._christoffel
        if ch is None:
            ch = christoffel(self)
        return ch.get((k, i, j) if i <= j else (k, j, i))

    def partial(self, x, mu):
        if not isinstance(x, Polynomial) or self.coords[mu] not in x.vars:
            return None
        d = x.partial(self.coords[mu])
        return None if d.is_zero() else d

    def riemann(self):
        if self._riemann is None:
            self._riemann = riemann(self)
        return self._riemann

    def ricci(self):
        return self.riemann().ricci()

    def d(self, F):
        return exterior_derivative(F, self)

    def nabla(self, F):
        return covariant_derivative_form(F, self)

    def coframe(self):
        """lightcone_coframe of a plane-wave chart."""
        if self._coframe is None:
            self._coframe = lightcone_coframe(self)
        return self._coframe

    def __repr__(self):
        return f"CoordinatePatch({', '.join(self.coords)})"


def _eval_const(p, vals):
    if isinstance(p, Scalar):
        return p
    return p.subs(vals).constant_value()


def cw_patch(data, names=None, orientation=1):
    """Plane-wave chart: g = 2 dx+ dx- + (sum A_ij x^i x^j)(dx-)^2 + dx.dx
    with coordinates (x+, x-, x1..x_{n-2})."""
    m = data.n - 2
    coords = tuple(names) if names else \
        ("xp", "xm") + tuple(f"x{i+1}" for i in range(m))
    xs = [Polynomial.variable(c) for c in coords]
    h = _pz()
    for i in range(m):
        for j in range(m):
            if not data.A[i][j].is_zero():
                h = h + data.A[i][j] * xs[2 + i] * xs[2 + j]
    n = data.n
    g = [[_pz() for _ in range(n)] for _ in range(n)]
    ginv = [[_pz() for _ in range(n)] for _ in range(n)]
    one = Polynomial.constant(1)
    g[0][1] = g[1][0] = one
    g[1][1] = h
    ginv[0][1] = ginv[1][0] = one
    ginv[0][0] = -h
    for i in range(m):
        g[2 + i][2 + i] = one
        ginv[2 + i][2 + i] = one
    return CoordinatePatch(coords, g, ginv, orientation)


def flat_patch(dim, lorentzian=True, names=None):
    """Minkowski/euclidean chart, mostly-plus."""
    coords = tuple(names) if names else tuple(f"x{i}" for i in range(dim))
    g = [[_pz() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        g[i][i] = Polynomial.constant(-1 if (lorentzian and i == 0) else 1)
    return CoordinatePatch(coords, g, [row[:] for row in g])


def christoffel(p):
    """Levi-Civita symbols as a sparse dict {(k,i,j): Polynomial} (i <= j),
    keyed in (i, j, k) order:

      Gamma^k_{ij} = 1/2 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}),

    summed over increasing l.  Only the nonzero partials d_m g_{ab} of the
    nonzero metric entries are taken, and a bracket is formed only for an
    (i, j, l) that one of them enters."""
    if p._christoffel is not None:
        return p._christoffel
    n = p.dim
    g = p.metric
    dg = {}                     # (m, a, b): d_m g_{ab}, both orders of a, b
    for a in range(n):
        for b in range(a, n):
            if g[a][b].is_zero():
                continue
            for m in range(n):
                x = p.partial(g[a][b], m)
                if x is not None:
                    dg[(m, a, b)] = dg[(m, b, a)] = x
    reached = set()             # the (i <= j, l) whose bracket takes d_m g_ab
    for m, a, b in dg:
        reached.add((min(m, a), max(m, a), b))
        reached.add((min(a, b), max(a, b), m))
    brackets = {}               # (i, j): [(l, bracket)], l increasing
    zero = _pz()
    for i, j, l in sorted(reached):
        s = dg.get((i, j, l), zero) + dg.get((j, i, l), zero) \
            - dg.get((l, i, j), zero)
        if not s.is_zero():
            brackets.setdefault((i, j), []).append((l, s))
    out = {}
    half = Scalar.from_rational(1, 2)
    for (i, j), terms in brackets.items():
        totals = {}
        for l, s in terms:
            for k, gkl in p.space.inverse_cols[l]:
                t = gkl * s
                totals[k] = totals[k] + t if k in totals else t
        for k in sorted(totals):
            if not totals[k].is_zero():
                out[(k, i, j)] = totals[k] * half
    p._christoffel = out
    return out


def _curvature(geom, gamma):
    """Curvature R(a,b,c,w) = g(R(e_a,e_b)e_c, e_w) of the connection D with
    coefficients gamma(k, i, j) = e^k(D_{e_i} e_j) (None where zero):

      R^k_{cab} = d_a G^k_{bc} - d_b G^k_{ac} + G^k_{al} G^l_{bc}
                  - G^k_{bl} G^l_{ac} - C^l_{ab} G^k_{lc},

    with d = geom.partial and the frame bracket C^l_{ab} = L^l_{ab} - L^l_{ba}
    read from the torsion-free Levi-Civita coefficients L = geom.gamma (zero
    on a chart, the structure constants on a Lie algebra).  Only
    BiSymTensor's canonical keys are evaluated, so pair symmetry is assumed;
    for D = nabla + T/2 it follows from dH = 0."""
    n = geom.dim
    # conn[a][k] = {l: G^k_{al}}, the matrix of D_{e_a}, tabulated once
    conn = [{} for _ in range(n)]
    brackets = {}
    for a in range(n):
        for k in range(n):
            row = {}
            for l in range(n):
                v = gamma(k, a, l)
                if v is not None and not v.is_zero():
                    row[l] = v
            if row:
                conn[a][k] = row
    for a, b in combinations(range(n), 2):
        for l in range(n):
            x, y = geom.gamma(l, a, b), geom.gamma(l, b, a)
            if x is y:
                continue            # one stored symmetric entry, or None
            c = (_Z if x is None else x) - (_Z if y is None else y)
            if not c.is_zero():
                brackets.setdefault((a, b), {})[l] = c
    comps = {}
    for a, b in combinations(range(n), 2):
        # the matrix R(e_a, e_b) as {(k, c): R^k_{cab}}
        m = {}
        for d, e, sign in ((a, b, 1), (b, a, -1)):
            for k, row in conn[e].items():
                for c, v in row.items():
                    dv = geom.partial(v, d)
                    if dv is not None:
                        accumulate(m, (k, c), dv if sign > 0 else -dv)
            for k, row in conn[d].items():
                for l, x in row.items():
                    for c, y in conn[e].get(l, {}).items():
                        t = x * y
                        accumulate(m, (k, c), t if sign > 0 else -t)
        for l, cl in brackets.get((a, b), {}).items():
            for k, row in conn[l].items():
                for c, y in row.items():
                    accumulate(m, (k, c), -(cl * y))
        for (k, c), v in m.items():
            for w, gkw in geom.space.metric_cols[k]:
                if c < w and (a, b) <= (c, w):
                    accumulate(comps, (a, b, c, w), v * gkw)
    return BiSymTensor(geom.space, comps)


def riemann(p):
    """Riemann tensor of the Levi-Civita connection of a chart or a metric
    Lie algebra, as a BiSymTensor."""
    return _curvature(p, p.gamma)


def ricci(p):
    return p.riemann().ricci()


def exterior_derivative(F, p):
    """Coordinate exterior derivative of a KForm with polynomial components."""
    n = p.dim
    comps = {}
    for idx, c in F.components.items():
        for mu in range(n):
            dc = p.partial(c, mu)
            if dc is None or mu in idx:
                continue
            pos = sum(1 for i in idx if i < mu)
            accumulate(comps, tuple(sorted(idx + (mu,))),
                       dc if pos % 2 == 0 else -dc)
    return KForm(p.space, F.degree + 1, comps)


def covariant_derivative_form(F, p):
    """nabla_mu F_{i1..ik} as a dict {mu: KForm} (each a k-form), on any
    geometry with connection coefficients p.gamma and partials p.partial."""
    n = p.dim
    out = {}
    for mu in range(n):
        comps = {}
        for idx, c in F.components.items():
            dc = p.partial(c, mu)
            if dc is not None:
                accumulate(comps, idx, dc)
            # (nabla_mu F)_J -= Gamma^{i}_{mu j} F_{J|pos: j -> i}: the stored
            # component at idx feeds outputs with slot pos replaced by j
            for pos, i in enumerate(idx):
                for j in range(n):
                    gma = p.gamma(i, mu, j)
                    if gma is None:
                        continue
                    new = idx[:pos] + (j,) + idx[pos + 1:]
                    sign, srt = sort_sign(new)
                    if sign == 0:
                        continue
                    term = c * gma
                    if sign < 0:
                        term = -term
                    accumulate(comps, srt, -term)
        out[mu] = KForm(p.space, F.degree, comps)
    return out


# ---------------------------------------------------------------------------
# connections with torsion
# ---------------------------------------------------------------------------

def _torsion_from_h(H):
    """T^k_{ij} = H_{ijl} g^{lk} as {(i, j): {k: T^k_{ij}}}, nonzero entries
    only: each component of H in its six index orders, its last index raised
    through the nonzero inverse-Gram entries."""
    T = {}
    for (a, b, c), h in H.components.items():
        for i, j, l, x in ((a, b, c, h), (b, c, a, h), (c, a, b, h),
                           (b, a, c, -h), (a, c, b, -h), (c, b, a, -h)):
            row = T.setdefault((i, j), {})
            for k, glk in H.space.inverse_cols[l]:
                accumulate(row, k, x * glk)
    return T


def curvature_with_torsion(geom, H):
    """Curvature of D = nabla + T/2 (H must be closed; checked), by the
    Riemann formula of _curvature with the coefficients Gamma + T/2.  It
    equals the expansion

    R^D(X,Y,Z,W) = R + 1/2 g((nabla_X T)(Y,Z),W) - 1/2 g((nabla_Y T)(X,Z),W)
                   - 1/4 g(T(X,W),T(Y,Z)) + 1/4 g(T(Y,W),T(X,Z)),

    which the tests check.  On a metric Lie algebra with its canonical
    3-form this vanishes identically (the parallelising connection)."""
    dH = geom.d(H)
    if isinstance(dH, Unverified):
        raise ValueError(f"closure of the torsion 3-form was not computed: "
                         f"{dH}")
    if not dH.is_zero():
        raise ValueError("torsion 3-form is not closed")
    T = _torsion_from_h(H)
    half = Scalar.from_rational(1, 2)

    def gamma(k, i, j):
        lc, t = geom.gamma(k, i, j), T.get((i, j), {}).get(k)
        if t is None:
            return lc
        return t * half if lc is None else lc + t * half

    return _curvature(geom, gamma)


def flat_torsion_consequences(geom, H):
    """Given R^D = 0 (re-verified), independently check that the torsion is
    parallel (nabla H = 0) and satisfies the cyclic Jacobi identity.
    Returns a dict report; a nonzero R^D is a precondition violation."""
    report = {"precondition_RD_zero": None, "nabla_H_zero": None,
              "jacobi_cyclic": None}
    rd = curvature_with_torsion(geom, H)
    if not rd.is_zero():
        report["precondition_RD_zero"] = False
        report["witness"] = rd.first_nonzero()
        return report
    report["precondition_RD_zero"] = True
    report["nabla_H_zero"] = all(f.is_zero() for f in geom.nabla(H).values())
    # cyclic identity sum T(X, T(Y,Z)) = 0
    T = _torsion_from_h(H)
    ok = True
    for i, j, k in combinations(range(geom.dim), 3):
        total = {}                  # m: sum_cyclic T^l_{bc} T^m_{al}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in T.get((b, c), {}).items():
                for m, y in T.get((a, l), {}).items():
                    accumulate(total, m, x * y)
        ok = ok and not total
    report["jacobi_cyclic"] = ok
    return report


# ---------------------------------------------------------------------------
# frames and the spin connection
# ---------------------------------------------------------------------------

def lightcone_coframe(p):
    """For a plane-wave patch: e+ = dx+ + h/2 dx-, e- = dx-, e^i = dx^i.
    Returns (coframe, frame, gram): coframe[a][mu] with e^a = coframe[a][mu]
    dx^mu, frame[a][mu] with E_a = frame[a][mu] d_mu, and the constant
    lightcone Gram matrix as a QuadraticSpace-ready list."""
    n = p.dim
    h = p.metric[1][1]
    half = Scalar.from_rational(1, 2)
    cof = [[_pz() for _ in range(n)] for _ in range(n)]
    frm = [[_pz() for _ in range(n)] for _ in range(n)]
    one = Polynomial.constant(1)
    cof[0][0] = one
    cof[0][1] = h * half
    cof[1][1] = one
    frm[0][0] = one
    frm[1][1] = one
    frm[1][0] = -(h * half)
    for i in range(2, n):
        cof[i][i] = one
        frm[i][i] = one
    gram = linalg.zeros(n, n)
    gram[0][1] = gram[1][0] = Scalar(1)
    for i in range(2, n):
        gram[i][i] = Scalar(1)
    # exactness: coframe . frame^T = id and e^a_mu G^{ab} ... metric check
    _check_frame(p, cof, frm, gram)
    return cof, frm, gram


def _check_frame(p, cof, frm, gram):
    """Raise ValueError unless the coframe and frame are dual, e^a(E_b) =
    delta^a_b, and the coframe orthonormalizes the metric, g_{mu nu} =
    G_{ab} e^a_mu e^b_nu.  Both sums run over nonzero entries only."""
    n = p.dim
    cof_rows = nonzero_columns(linalg.transpose(cof))
    frm_cols = nonzero_columns(frm)
    dual = {}
    for a, row in enumerate(cof_rows):
        for mu, x in row:
            for b, y in frm_cols[mu]:
                accumulate(dual, (a, b), x * y)
    for a in range(n):
        for b in range(n):
            want = Scalar(1 if a == b else 0)
            if not (dual.get((a, b), _pz()) - want).is_zero():
                raise ValueError("coframe/frame are not dual")
    metric = {}
    for a, row in enumerate(nonzero_columns(gram)):     # symmetric
        for b, gab in row:
            for mu, x in cof_rows[a]:
                for nu, y in cof_rows[b]:
                    accumulate(metric, (mu, nu), x * y * gab)
    for mu in range(n):
        for nu in range(n):
            if not (metric.get((mu, nu), _pz()) - p.metric[mu][nu]).is_zero():
                raise ValueError("coframe does not orthonormalize the metric")


def spin_connection(p, cof, frm, gram):
    """Connection coefficients omega_{mu,ab} (lowered, skew in ab) of the
    Levi-Civita connection in the given frame:
    omega_mu^a_b = e^a_nu (d_mu E_b^nu + Gamma^nu_{mu lam} E_b^lam).

    The sums run over the nonzero frame, coframe and Gram entries and the
    stored Christoffel symbols; each output dict is keyed in (a, b) order.
    Raises ValueError if the lowered coefficients are not skew."""
    n = p.dim
    # conn[mu][lam] = [(nu, Gamma^nu_{mu lam})]
    conn = [[[] for _ in range(n)] for _ in range(n)]
    for (k, i, j), v in christoffel(p).items():
        conn[i][j].append((k, v))
        if i != j:
            conn[j][i].append((k, v))
    frm_rows = nonzero_columns(linalg.transpose(frm))
    cof_cols, gram_cols = nonzero_columns(cof), nonzero_columns(gram)
    lowered = []
    for mu in range(n):
        omega = {}                      # (a, b): omega_mu^a_b, b-major
        for b in range(n):
            # v^nu = d_mu E_b^nu + Gamma^nu_{mu lam} E_b^lam
            v = {}
            for nu, x in frm_rows[b]:
                dx = p.partial(x, mu)
                if dx is not None:
                    v[nu] = dx
            for lam, x in frm_rows[b]:
                for nu, gma in conn[mu][lam]:
                    t = gma * x
                    v[nu] = v[nu] + t if nu in v else t
            col = {}
            for nu in sorted(v):
                for a, e in cof_cols[nu]:
                    t = e * v[nu]
                    col[a] = col[a] + t if a in col else t
            for a in sorted(col):
                if not col[a].is_zero():
                    omega[(a, b)] = col[a]
        # lower the first index with the Gram matrix
        low = {}
        for (c, b), u in omega.items():
            for a, gac in gram_cols[c]:
                t = gac * u
                low[(a, b)] = low[(a, b)] + t if (a, b) in low else t
        lowered.append({k: low[k] for k in sorted(low)
                        if not low[k].is_zero()})
    for om in lowered:
        for (a, b), v in om.items():
            w = om.get((b, a))
            e = v + w if w is not None else v
            if not e.is_zero():
                raise ValueError("spin connection not metric-skew")
    return lowered


def killing_check(p, V):
    """Exact Killing equation nabla_(mu V_nu) = 0 for a vector field with
    polynomial components V^mu; returns (True, None) or (False, (mu, nu))."""
    n = p.dim
    nV = p.nabla(flat(p.space, V))
    for mu in range(n):
        for nu in range(mu, n):
            s = form_component(nV[mu], (nu,))
            t = form_component(nV[nu], (mu,))
            if s is None:
                s = t
            elif t is not None:
                s = s + t
            if s is not None and not s.is_zero():
                return False, (mu, nu)
    return True, None


# ---------------------------------------------------------------------------
# products of constant-curvature blocks
# ---------------------------------------------------------------------------

class ConstCurvBlock:
    """Constant-curvature factor described by its scalar curvature."""

    def __init__(self, dim, scalar_curvature, lorentzian=False, label=""):
        self.dim = dim
        self.S = scalar_curvature if isinstance(scalar_curvature, Scalar) \
            else Scalar(scalar_curvature)
        self.lorentzian = lorentzian
        self.label = label or ("AdS%d" % dim if lorentzian else "S%d" % dim)

    def sectional(self):
        return self.S * Scalar.from_rational(1, self.dim * (self.dim - 1))

    def ricci_factor(self):
        return self.S * Scalar.from_rational(1, self.dim)

    def __repr__(self):
        return f"{self.label}({self.S})"


class Unverified:
    """A derivative that a product of constant-curvature blocks cannot
    compute, because the form fails the premise of the structural pass.
    It is never zero, stays unverified under subtraction, and prints why."""

    def __init__(self, why):
        self.why = why

    def is_zero(self):
        return False

    def __sub__(self, other):
        return self

    def __str__(self):
        return self.why


class ProductGeometry:
    """Ordered product of constant-curvature blocks with the concatenated
    orthonormal frame (exactly one lorentzian block, timelike leg first).

    Forms on it are frame-constant.  d and nabla are structural: such a form
    is parallel, hence closed, when each component meets every curved block
    in none or all of its legs (on S^n and AdS_n the only parallel forms are
    1 and the volume form; flat blocks accept any legs).  That premise is
    checked; where it fails the derivative is Unverified."""

    premise = ("structural: every component meets each curved block in none "
               "or all of its legs (checked), so the frame-constant form is "
               "parallel, hence closed")

    def __init__(self, blocks, orientation=1):
        lorentzian = sum(1 for b in blocks if b.lorentzian)
        if lorentzian != 1:
            raise ValueError(f"a product needs exactly one lorentzian block, "
                             f"got {lorentzian}")
        self.blocks = blocks
        self.dim = sum(b.dim for b in blocks)
        g = linalg.eye(self.dim)
        names = []
        ranges = []
        ofs = 0
        for b in blocks:
            ranges.append(range(ofs, ofs + b.dim))
            for i in range(b.dim):
                names.append(f"{b.label}:{i}")
            if b.lorentzian:
                g[ofs][ofs] = Scalar(-1)
            ofs += b.dim
        self.ranges = ranges
        self.space = QuadraticSpace(g, orientation, names)

    def signature(self):
        return self.space.signature()

    def block_of(self, index):
        for bi, r in enumerate(self.ranges):
            if index in r:
                return bi
        raise IndexError(index)

    def volume_form(self, block_index, coeff=None):
        """coeff * dvol(block) as a KForm on the product frame."""
        c = Scalar(1) if coeff is None else coeff
        idx = tuple(self.ranges[block_index])
        return KForm(self.space, len(idx), {idx: c})

    def riemann(self):
        """Block-diagonal Riemann: Riem_b = (K_b/2) (g_b . g_b) per block,
        g_b the metric restricted to the block."""
        out = BiSymTensor(self.space)
        for blk, r in zip(self.blocks, self.ranges):
            if blk.dim < 2:         # no 2-plane, no sectional curvature
                continue
            gb = [[x if i in r and j in r else _Z for j, x in enumerate(row)]
                  for i, row in enumerate(self.space.metric)]
            out = out + kulkarni_nomizu(gb, gb, self.space).scale(
                blk.sectional() * Scalar.from_rational(1, 2))
        return out

    def ricci(self):
        n = self.dim
        out = linalg.zeros(n, n)
        for bi, r in enumerate(self.ranges):
            f = self.blocks[bi].ricci_factor()
            for i in r:
                out[i][i] = f * self.space.metric[i][i]
        return out

    def _premise_failure(self, F):
        """(first leg of the block, Unverified) for the first component that
        meets a curved block in some but not all of its legs, or None."""
        for idx in sorted(F.components):
            for blk, r in zip(self.blocks, self.ranges):
                k = sum(1 for i in idx if i in r)
                if 0 < k < blk.dim and not blk.S.is_zero():
                    return r[0], Unverified(
                        f"component {idx} meets the curved block "
                        f"{blk.label} in {k} of its {blk.dim} legs")
        return None

    def d(self, F):
        bad = self._premise_failure(F)
        if bad is None:
            return KForm.zero(self.space, min(F.degree + 1, self.dim))
        return bad[1]

    def nabla(self, F):
        bad = self._premise_failure(F)
        return {} if bad is None else {bad[0]: bad[1]}

    def gamma(self, *args):
        raise ValueError("a product of constant-curvature blocks has no "
                         "frame connection; torsion needs a chart or a "
                         "metric Lie algebra")

    partial = gamma
