"""Metric Lie algebras: verification primitives, double extensions,
plane-wave (Cahen-Wallach) profiles and their moduli, canonical 3-forms
and the Chevalley-Eilenberg differential.  An algebra is data only: the
geometry of its group is geometry.SymmetricSpace.group, which reads its
space and brackets.

Structure constants are stored as a dense 3-index array of Scalars with
[e_i, e_j] = sum_k c[i][j][k] e_k.  Invariant metrics are exact symmetric
matrices; orientation is a sign attached to the ordered basis (fixed per
catalog entry so the stated duality properties hold).
"""

from itertools import combinations

from .exactnum import Scalar, ZERO, ONE, sqrt_scalar
from .multilinear import (QuadraticSpace, KForm, hodge, form_component,
                          sort_sign, accumulate)
from . import linalg

__all__ = ["MetricLieAlgebra", "CWData", "jacobi_check", "invariance_check",
           "double_extension", "cw_canonicalize",
           "canonical_three_form", "ce_differential",
           "d6_catalog", "so3", "so12", "su3", "SU3_STRUCTURE"]

_Z = ZERO


class MetricLieAlgebra:
    """Lie algebra with an invariant scalar product and an orientation."""

    def __init__(self, dim, brackets, metric, orientation=1, name=""):
        self.dim = dim
        self.c = [[[_Z] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in brackets.items():
            for k, v in vec.items():
                val = v if isinstance(v, Scalar) else Scalar(v)
                self.c[i][j][k] = val
                self.c[j][i][k] = -val
        self.metric = [[x if isinstance(x, Scalar) else Scalar(x) for x in row]
                       for row in metric]
        self.orientation = orientation
        self.name = name
        self._space = None

    def bracket(self, x, y):
        """[x, y] for coefficient vectors x, y."""
        out = [_Z] * self.dim
        for i in range(self.dim):
            if x[i].is_zero():
                continue
            ci = self.c[i]
            for j in range(self.dim):
                if y[j].is_zero():
                    continue
                cij = ci[j]
                f = x[i] * y[j]
                for k in range(self.dim):
                    if not cij[k].is_zero():
                        out[k] = out[k] + f * cij[k]
        return out

    def basis_bracket(self, i, j):
        return self.c[i][j]

    def bracket_table(self):
        """{(i, j): {k: c_ij^k}}, nonzero brackets and entries only."""
        n = self.dim
        return {(i, j): {k: v for k, v in enumerate(self.c[i][j])
                         if not v.is_zero()}
                for i in range(n) for j in range(n)
                if any(not v.is_zero() for v in self.c[i][j])}

    def lowered_brackets(self):
        """{(i, j): {k: B([e_i, e_j], e_k)}}, nonzero brackets and entries
        only, lowered through the nonzero Gram entries."""
        low = {}
        for ij, vec in self.bracket_table().items():
            row = low[ij] = {}
            for i, x in vec.items():
                for k, gik in self.space.metric_cols[i]:
                    accumulate(row, k, x * gik)
        return low

    def inner(self, x, y):
        out = _Z
        for j, col in enumerate(self.space.metric_cols):
            if y[j].is_zero():
                continue
            for i, g in col:
                if not x[i].is_zero():
                    out = out + x[i] * y[j] * g
        return out

    @property
    def space(self):
        """The frame QuadraticSpace carrying forms on this algebra."""
        if self._space is None:
            self._space = QuadraticSpace(self.metric, self.orientation)
        return self._space

    def basis_vector(self, i):
        v = [_Z] * self.dim
        v[i] = ONE
        return v

    def derived_series(self):
        """Dimensions of the derived series (for solvability checks)."""
        n = self.dim
        span = linalg.eye(n)
        dims = [n]
        while True:
            rows = []
            for a in range(len(span)):
                for b in range(a + 1, len(span)):
                    rows.append(self.bracket(span[a], span[b]))
            rows = [r for r in rows if any(not x.is_zero() for x in r)]
            if not rows:
                dims.append(0)
                break
            red, piv = linalg.rref(rows)
            span = red[:len(piv)]
            dims.append(len(piv))
            if dims[-1] == dims[-2]:
                break
        return dims

    def center(self):
        """Basis of the center."""
        rows = []
        n = self.dim
        for i in range(n):
            for k in range(n):
                rows.append([self.c[j][i][k] for j in range(n)])
        rows = [r for r in rows if any(not x.is_zero() for x in r)]
        return linalg.nullspace(rows, ncols=n)

    def __repr__(self):
        return f"MetricLieAlgebra({self.name or 'dim %d' % self.dim})"


def jacobi_check(g):
    """Cyclic Jacobi identity over the nonzero brackets of a
    MetricLieAlgebra g: each term [e_i, [e_j, e_k]] (j < k)
    enters the Jacobiator of the sorted triple with the sign of its sorting
    permutation.  Returns ("pass", None) or ("witness", the first failing
    triple)."""
    br = g.bracket_table()
    outer = sorted({i for i, _ in br})
    jac = {}
    for (j, k), inner in br.items():
        if j > k:
            continue
        for l, x in inner.items():
            for i in outer:
                sign, key = sort_sign((i, j, k))
                if not sign:
                    continue
                for t, y in br.get((i, l), {}).items():
                    accumulate(jac.setdefault(key, {}), t,
                               x * y if sign > 0 else -(x * y))
    bad = sorted(key for key, vec in jac.items() if vec)
    return ("witness", bad[0]) if bad else ("pass", None)


def invariance_check(g):
    """Ad-invariance of g's metric, B([e_a,e_b],e_k) + B(e_b,[e_a,e_k]) = 0,
    over the nonzero lowered brackets (it is symmetric in b and k).
    Returns ("pass", None) or ("witness", the first failing (a, b, k))."""
    low = g.lowered_brackets()
    for (a, b), row in low.items():
        for k, v in row.items():
            if not (v + low.get((a, k), {}).get(b, _Z)).is_zero():
                return ("witness", (a, b, k))
    return ("pass", None)


# ---------------------------------------------------------------------------
# double extensions d(g, R)
# ---------------------------------------------------------------------------

def double_extension(g, J, b=0, orientation=None, name=""):
    """Double extension of a metric Lie algebra by a one-dimensional algebra
    acting through the skew derivation J (a dim x dim matrix).

    Basis ordering of the result: (e+, e-, old basis), with
    [e-, x] = J x,  [x, y] = [x,y]_g + <x, J y> e+,  e+ central, and
    scalar product  <e+,e-> = 1, <e-,e-> = b, old block unchanged.
    J must be skew with respect to the metric and a derivation of the
    bracket; violations raise with a witness.
    """
    n = g.dim
    # skewness: <Jx, y> + <x, Jy> = 0
    for i in range(n):
        for j in range(n):
            s = _Z
            for k in range(n):
                s = s + J[k][i] * g.metric[k][j] + g.metric[i][k] * J[k][j]
            if not s.is_zero():
                raise ValueError(f"J not metric-skew at basis pair {(i, j)}")
    # derivation: J[x,y] = [Jx,y] + [x,Jy]
    for i in range(n):
        for j in range(n):
            br = g.basis_bracket(i, j)
            lhs = [sum((J[k][l] * br[l] for l in range(n)), _Z) for k in range(n)]
            jx = [J[k][i] for k in range(n)]
            jy = [J[k][j] for k in range(n)]
            rhs1 = g.bracket(jx, g.basis_vector(j))
            rhs2 = g.bracket(g.basis_vector(i), jy)
            if any(not (a - x - y).is_zero() for a, x, y in zip(lhs, rhs1, rhs2)):
                raise ValueError(f"J not a bracket derivation at {(i, j)}")
    dim = n + 2
    brackets = {}
    for i in range(n):
        col = {k + 2: J[k][i] for k in range(n) if not J[k][i].is_zero()}
        if col:
            brackets[(1, i + 2)] = col          # [e-, x] = Jx
    for i in range(n):
        for j in range(i + 1, n):
            vec = {}
            br = g.basis_bracket(i, j)
            for k in range(n):
                if not br[k].is_zero():
                    vec[k + 2] = br[k]
            # central charge <Jx, y> e+ (the sign forced by invariance of
            # the scalar product together with [e-, x] = Jx)
            omega = _Z
            for k in range(n):
                if not (J[k][i].is_zero() or g.metric[k][j].is_zero()):
                    omega = omega + J[k][i] * g.metric[k][j]
            if not omega.is_zero():
                vec[0] = omega
            if vec:
                brackets[(i + 2, j + 2)] = vec
    metric = linalg.zeros(dim, dim)
    metric[0][1] = metric[1][0] = Scalar(1)
    metric[1][1] = Scalar(b)
    for i in range(n):
        for j in range(n):
            metric[i + 2][j + 2] = g.metric[i][j]
    if orientation is None:
        # lightcone-ordered frames are oriented so the equal-weight canonical
        # 3-form comes out anti-selfdual in six dimensions (calibration)
        orientation = -1
    return MetricLieAlgebra(dim, brackets, metric, orientation, name)


def abelian(dim, metric=None, name=""):
    m = linalg.eye(dim) if metric is None else metric
    return MetricLieAlgebra(dim, {}, m, 1, name or f"E{dim}")


def rotation_block_derivation(weights):
    """Block-diagonal skew J with 2x2 rotation generators of the given
    weights: J e_{2i} = w_i e_{2i+1}, J e_{2i+1} = -w_i e_{2i}."""
    n = 2 * len(weights)
    J = linalg.zeros(n, n)
    for i, w in enumerate(weights):
        wv = w if isinstance(w, Scalar) else Scalar(w)
        J[2 * i + 1][2 * i] = wv
        J[2 * i][2 * i + 1] = -wv
    return J


# ---------------------------------------------------------------------------
# Cahen-Wallach symmetric-space data
# ---------------------------------------------------------------------------

class CWData:
    """Plane-wave data: total dimension n and the symmetric (n-2)x(n-2)
    profile matrix A of  g = 2 dx+ dx- + (A_ij x^i x^j)(dx-)^2 + dx^2."""

    def __init__(self, A):
        self.A = [[x if isinstance(x, Scalar) else Scalar(x) for x in row]
                  for row in A]
        m = len(self.A)
        for i in range(m):
            for j in range(m):
                if not (self.A[i][j] - self.A[j][i]).is_zero():
                    raise ValueError("profile matrix must be symmetric")
        self.n = m + 2

    @staticmethod
    def diagonal(values):
        m = len(values)
        A = linalg.zeros(m, m)
        for i, v in enumerate(values):
            A[i][i] = v if isinstance(v, Scalar) else Scalar(v)
        return CWData(A)


# ---------------------------------------------------------------------------
# moduli of Cahen-Wallach metrics
# ---------------------------------------------------------------------------

def cw_canonicalize(data):
    """Exact invariant of a Cahen-Wallach metric up to isometry, i.e. of its
    symmetric profile A up to orthogonal conjugation and positive scale.

    With p(x) = sum c_k x^k the characteristic polynomial of the m x m
    matrix A (c_{m-j} = (-1)^j e_j(eigenvalues)) and t = tr A^2, the key is
    ((sign c_{m-j}, c_{m-j}^2 / t^j) for j = 1..m).  Each entry is
    invariant under A -> c O^T A O with c > 0, and the key fixes the
    characteristic polynomial of A / sqrt(t), hence the spectrum up to
    scale: two profiles are equivalent iff their keys agree.  A = 0 (t = 0)
    gets the all-zero key.  Returns (key, degenerate) with degenerate iff
    det A = 0."""
    A = data.A
    m = len(A)
    coeffs = linalg.charpoly(A)
    t = sum((x * x for row in A for x in row), _Z)
    key = []
    tj = Scalar(1)
    for j in range(1, m + 1):
        c = coeffs[m - j]
        tj = tj * t
        key.append((c.sign(), _Z if c.is_zero() else c * c / tj))
    return tuple(key), coeffs[0].is_zero()


# ---------------------------------------------------------------------------
# canonical forms and the CE differential
# ---------------------------------------------------------------------------

def canonical_three_form(g):
    """H_ijk = B([e_i, e_j], e_k) (totally antisymmetric by invariance)."""
    status, w = invariance_check(g)
    if status != "pass":
        raise ValueError(f"metric not invariant (witness {w})")
    low = g.lowered_brackets()
    return KForm(g.space, 3, {(i, j, k): v for (i, j), row in
                              sorted(low.items()) if i < j
                              for k, v in sorted(row.items()) if j < k})


def ce_differential(omega, g):
    """Chevalley-Eilenberg differential of an invariant form:
    d w(X_0..X_k) = sum_{i<j} (-1)^{i+j} w([X_i,X_j], X_0.. ^i ^j ..X_k)."""
    n = g.dim
    k = omega.degree
    if k + 1 > n:
        return KForm.zero(g.space, n)     # Lambda^{n+1} = 0
    comps = {}
    for idx in combinations(range(n), k + 1):
        total = None
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                br = g.basis_bracket(idx[a], idx[b])
                rest = tuple(x for t, x in enumerate(idx) if t != a and t != b)
                # w([e_a, e_b], rest) = sum_l br[l] w(l, rest)
                for l in range(n):
                    if br[l].is_zero():
                        continue
                    val = form_component(omega, (l,) + rest)
                    if val is None:
                        continue
                    term = br[l] * val
                    if (a + b) % 2:
                        term = -term
                    total = term if total is None else total + term
        if total is not None and not total.is_zero():
            comps[idx] = total
    return KForm(g.space, k + 1, comps)


# ---------------------------------------------------------------------------
# catalog algebras
# ---------------------------------------------------------------------------

def so3(scale=1):
    """so(3) with [e1,e2]=e3 cyclic and metric scale*delta."""
    s = scale if isinstance(scale, Scalar) else Scalar(scale)
    brackets = {(0, 1): {2: Scalar(1)}, (1, 2): {0: Scalar(1)},
                (0, 2): {1: Scalar(-1)}}
    return MetricLieAlgebra(3, brackets, linalg.mat_scale(linalg.eye(3), s),
                            1, "so3")


def so3_block(scale=1):
    """so(3) in the basis used for the Freund-Rubin product: [e5,e3] = -e4,
    [e5,e4] = e3, [e3,e4] = -e5 (local indices 0,1,2 for e3,e4,e5)."""
    s = scale if isinstance(scale, Scalar) else Scalar(scale)
    brackets = {(2, 0): {1: Scalar(-1)}, (2, 1): {0: Scalar(1)},
                (0, 1): {2: Scalar(-1)}}
    return MetricLieAlgebra(3, brackets, linalg.mat_scale(linalg.eye(3), s),
                            1, "so3block")


def so12(scale=1):
    """so(1,2) with the displayed brackets [e0,e1]=-e2, [e0,e2]=e1,
    [e1,e2]=e0 and metric scale*diag(-1,1,1)."""
    s = scale if isinstance(scale, Scalar) else Scalar(scale)
    brackets = {(0, 1): {2: Scalar(-1)}, (0, 2): {1: Scalar(1)},
                (1, 2): {0: Scalar(1)}}
    m = linalg.mat_scale(linalg.eye(3), s)
    m[0][0] = -s
    return MetricLieAlgebra(3, brackets, m, 1, "so12")


_HALF = Scalar.from_rational(1, 2)
_R3H = sqrt_scalar(Scalar(3)) * _HALF
# the structure constants f_ijk (i < j < k) of su(3) in the Gell-Mann basis,
# numbered from 0: f_123 = 1, six of magnitude 1/2, f_458 = f_678 = sqrt(3)/2
SU3_STRUCTURE = {(0, 1, 2): Scalar(1), (0, 3, 6): _HALF, (0, 4, 5): -_HALF,
                 (1, 3, 5): _HALF, (1, 4, 6): _HALF, (2, 3, 4): _HALF,
                 (2, 5, 6): -_HALF, (3, 4, 7): _R3H, (5, 6, 7): _R3H}


def su3(scale=1):
    """su(3) in the Gell-Mann basis (SU3_STRUCTURE), with metric
    scale*delta (ad-invariant since the f are totally antisymmetric)."""
    s = scale if isinstance(scale, Scalar) else Scalar(scale)
    brackets = {}
    for (i, j, k), f in SU3_STRUCTURE.items():
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            sign = Scalar(1 if a < b else -1)
            brackets.setdefault((min(a, b), max(a, b)), {})[c] = f * sign
    return MetricLieAlgebra(8, brackets, linalg.mat_scale(linalg.eye(8), s),
                            1, "su3")


def direct_sum(g1, g2, orientation=1, name=""):
    n1, n2 = g1.dim, g2.dim
    brk = {}
    for i in range(n1):
        for j in range(i + 1, n1):
            vec = {k: g1.c[i][j][k] for k in range(n1)
                   if not g1.c[i][j][k].is_zero()}
            if vec:
                brk[(i, j)] = vec
    for i in range(n2):
        for j in range(i + 1, n2):
            vec = {n1 + k: g2.c[i][j][k] for k in range(n2)
                   if not g2.c[i][j][k].is_zero()}
            if vec:
                brk[(n1 + i, n1 + j)] = vec
    metric = linalg.zeros(n1 + n2, n1 + n2)
    for i in range(n1):
        for j in range(n1):
            metric[i][j] = g1.metric[i][j]
    for i in range(n2):
        for j in range(n2):
            metric[n1 + i][n1 + j] = g2.metric[i][j]
    return MetricLieAlgebra(n1 + n2, brk, metric, orientation, name)


def nw6(alpha=1):
    """Six-dimensional analogue of the Nappi-Witten algebra: the double
    extension of E^4 by equal-weight rotations in both planes.  Orientation
    -1 in the (e+, e-, e1..e4) ordering makes the canonical 3-form
    anti-selfdual (recorded calibration)."""
    J = rotation_block_derivation([alpha, alpha])
    out = double_extension(abelian(4), J, b=0, orientation=-1, name="nw6")
    return out


def so12_so3(alpha=1, beta=1):
    """so(1,2) + so(3) with invariant metric diag(-a,a,a,b,b,b), in the
    displayed pseudo-orthonormal bases of both blocks."""
    return direct_sum(so12(alpha), so3_block(beta), 1,
                      f"so12+so3({alpha},{beta})")


def e15():
    m = linalg.eye(6)
    m[0][0] = Scalar(-1)
    return MetricLieAlgebra(6, {}, m, 1, "e15")


def e12_so3():
    m3 = linalg.eye(3)
    m3[0][0] = Scalar(-1)
    flat = MetricLieAlgebra(3, {}, m3, 1, "e12")
    return direct_sum(flat, so3(), 1, "e12+so3")


def e3_so12():
    flat = MetricLieAlgebra(3, {}, linalg.eye(3), 1, "e3")
    return direct_sum(flat, so12(), 1, "e3+so12")


def d6_catalog(alpha=1, beta=1):
    """The five families of six-dimensional lorentzian Lie algebras:
    E^{1,5}; E^{1,2}+so(3); E^3+so(1,2); so(1,2)+so(3); d(E^4,R)."""
    return [e15(), e12_so3(), e3_so12(), so12_so3(alpha, beta),
            nw6_family(alpha, beta)]


def nw6_family(alpha=1, beta=1):
    """d(E^4, R) with independent rotation weights on the two planes."""
    J = rotation_block_derivation([alpha, beta])
    return double_extension(abelian(4), J, b=0, orientation=-1,
                            name=f"d(E4,R)({alpha},{beta})")


def normalize_weights(weights):
    """Moduli normal form of the rotation weights of d(E^{2n}, R): absolute
    values sorted ascending with the largest scaled to 1 (the reciprocal
    rescaling of the lightcone pair absorbs the overall factor)."""
    vals = []
    for w in weights:
        v = w if isinstance(w, Scalar) else Scalar(w)
        if v.is_zero():
            raise ValueError("weights must be nonzero (nondegenerate J)")
        if v.sign() < 0:
            v = -v
        vals.append(v)
    vals.sort()
    top = vals[-1]
    return [v / top for v in vals]


def d2n2(weights):
    """The indecomposable solvable lorentzian algebra d(E^{2n}, R) with
    normalized rotation weights."""
    norm = normalize_weights(weights)
    J = rotation_block_derivation(norm)
    label = ",".join(str(w) for w in norm)
    return double_extension(abelian(2 * len(norm)), J, b=0, orientation=-1,
                            name=f"d2n2({label})")


def antiselfdual_filter(algebras):
    """Keep the algebras whose canonical 3-form is anti-selfdual (the
    abelian one passes trivially with H = 0)."""
    out = []
    for g in algebras:
        H = canonical_three_form(g)
        if hodge(H) == -H:
            out.append(g)
    return out
