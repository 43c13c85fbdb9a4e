"""Metric Lie algebras: verification primitives, double extensions,
plane-wave (Cahen-Wallach) algebras and their moduli, canonical 3-forms,
the Chevalley-Eilenberg differential, and bi-invariant Ricci curvature.

Structure constants are stored as a dense 3-index array of Scalars with
[e_i, e_j] = sum_k c[i][j][k] e_k.  Invariant metrics are exact symmetric
matrices; orientation is a sign attached to the ordered basis (fixed per
catalog entry so the stated duality properties hold).
"""

from itertools import combinations

from .exactnum import Scalar, ZERO, ONE, sqrt_scalar
from .multilinear import QuadraticSpace, KForm, hodge, form_component
from .geometry import covariant_derivative_form, riemann
from . import linalg

__all__ = ["MetricLieAlgebra", "CWData", "jacobi_check", "invariance_check",
           "double_extension", "cw_algebra", "cw_canonicalize",
           "canonical_three_form", "ce_differential", "biinvariant_ricci",
           "d6_catalog", "so3", "so12", "su3"]

_Z = ZERO


class MetricLieAlgebra:
    """Lie algebra with an invariant scalar product and an orientation.
    It is also the geometry of its group with the left-invariant metric, in
    the invariant frame (the interface in geometry's docstring)."""

    premise = ""            # d and nabla are computed, not structural

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
        self._gamma = None
        self._riemann = None

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

    def ad(self, x):
        """Matrix of ad_x."""
        n = self.dim
        m = [[_Z] * n for _ in range(n)]
        for i in range(n):
            if x[i].is_zero():
                continue
            for j in range(n):
                for k in range(n):
                    if not self.c[i][j][k].is_zero():
                        m[k][j] = m[k][j] + x[i] * self.c[i][j][k]
        return m

    def inner(self, x, y):
        out = _Z
        for i in range(self.dim):
            if x[i].is_zero():
                continue
            for j in range(self.dim):
                if not (y[j].is_zero() or self.metric[i][j].is_zero()):
                    out = out + x[i] * y[j] * self.metric[i][j]
        return out

    @property
    def space(self):
        """The frame QuadraticSpace carrying forms on this algebra."""
        if self._space is None:
            self._space = QuadraticSpace(self.metric, self.orientation)
        return self._space

    # -- the geometry of the group with its left-invariant metric ----------

    def signature(self):
        return self.space.signature()

    def gamma(self, k, i, j):
        """Levi-Civita coefficient: the e_k component of nabla_{e_i} e_j, or
        None where it vanishes.  From the Koszul formula
        2 B(nabla_i j, k) = B([i,j],k) - B([j,k],i) + B([k,i],j)."""
        if self._gamma is None:
            n = self.dim
            half = Scalar.from_rational(1, 2)
            lower = [[[(self.inner(self.c[i][j], self.basis_vector(l))
                        - self.inner(self.c[j][l], self.basis_vector(i))
                        + self.inner(self.c[l][i], self.basis_vector(j)))
                       * half for l in range(n)]
                      for j in range(n)] for i in range(n)]
            self._gamma = {}
            for i in range(n):
                for j in range(n):
                    for kk, row in enumerate(self.space.inverse_cols):
                        s = _Z
                        for l, g in row:
                            if not lower[i][j][l].is_zero():
                                s = s + g * lower[i][j][l]
                        if not s.is_zero():
                            self._gamma[(kk, i, j)] = s
        return self._gamma.get((k, i, j))

    def partial(self, x, mu):
        """Invariant frame components are constant."""
        return None

    def riemann(self):
        if self._riemann is None:
            self._riemann = riemann(self)
        return self._riemann

    def ricci(self):
        return biinvariant_ricci(self)

    def d(self, F):
        return ce_differential(F, self)

    def nabla(self, F):
        return covariant_derivative_form(F, self)

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
    """Cyclic Jacobi identity over all basis triples; returns 'pass' or a
    witness triple."""
    n = g.dim
    for i, j, k in combinations(range(n), 3):
        acc = [_Z] * n
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            inner = g.basis_bracket(b, c)
            term = g.bracket(g.basis_vector(a), inner)
            acc = [x + y for x, y in zip(acc, term)]
        if any(not x.is_zero() for x in acc):
            return ("witness", (i, j, k))
    return ("pass", None)


def invariance_check(g):
    """B([X,Y],Z) = B(X,[Y,Z]) on all basis triples."""
    n = g.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = g.inner(g.basis_bracket(i, j), g.basis_vector(k))
                rhs = g.inner(g.basis_vector(i), g.basis_bracket(j, k))
                if not (lhs - rhs).is_zero():
                    return ("witness", (i, j, k))
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

    def is_degenerate(self):
        return linalg.det(self.A).is_zero()


class CWAlgebra:
    """The transvection algebra of a Cahen-Wallach space, with its symmetric
    split.  Basis ordering: (e+, e-, v_1..v_m, a_1..a_m) where the v span
    the flat directions and the a span V*.  The invariant product B lives on
    p = span(e+, e-, v) only (it is k-invariant, not a full metric)."""

    def __init__(self, data):
        self.data = data
        m = data.n - 2
        self.dim = 2 + 2 * m
        self.m = m
        A = data.A
        brackets = {}
        for i in range(m):
            brackets[(1, 2 + i)] = {2 + m + i: Scalar(1)}       # [e-, v] = v^flat
            col = {2 + j: A[j][i] for j in range(m) if not A[j][i].is_zero()}
            if col:
                brackets[(1, 2 + m + i)] = col                  # [e-, a] = A(a^sharp)
            for j in range(m):
                if not A[i][j].is_zero():
                    brackets[(2 + m + i, 2 + j)] = {0: A[i][j]}  # [a, v] = A(v,a) e+
        self.brackets = brackets
        alg = MetricLieAlgebra(self.dim, brackets, linalg.eye(self.dim),
                               name=f"gA(n={data.n})")
        self.c = alg.c
        self._alg = alg
        # B on p = (e+, e-, v): lightcone pairing + euclidean block
        self.B_p = linalg.zeros(2 + m, 2 + m)
        self.B_p[0][1] = self.B_p[1][0] = Scalar(1)
        for i in range(m):
            self.B_p[2 + i][2 + i] = Scalar(1)

    def p_indices(self):
        return list(range(2 + self.m))

    def k_indices(self):
        return list(range(2 + self.m, self.dim))

    def jacobi(self):
        return jacobi_check(self._alg)

    def symmetric_split_check(self):
        """[k,p] in p and [p,p] in k, verified from the structure constants."""
        p = set(self.p_indices())
        k = set(self.k_indices())
        for i in k:
            for j in p:
                for l in range(self.dim):
                    if not self.c[i][j][l].is_zero() and l not in p:
                        return False
        for i in p:
            for j in p:
                for l in range(self.dim):
                    if not self.c[i][j][l].is_zero() and l not in k:
                        return False
        return True

    def k_invariance_check(self):
        """B([xi, x], y) + B(x, [xi, y]) = 0 for xi in k and x, y in p."""
        p = self.p_indices()
        for xi in self.k_indices():
            for a in p:
                for b in p:
                    br1 = self.c[xi][a]
                    br2 = self.c[xi][b]
                    s = _Z
                    for l in p:
                        s = s + br1[l] * self.B_p[p.index(l)][p.index(b)] \
                              + self.B_p[p.index(a)][p.index(l)] * br2[l]
                    if not s.is_zero():
                        return False
        return True

    def solvable(self):
        dims = self._alg.derived_series()
        return dims[-1] == 0

    def second_derived_central(self):
        """The second derived ideal lies in the center (three-step solvable)."""
        n = self.dim
        alg = self._alg
        span = linalg.eye(n)
        for _ in range(2):
            rows = []
            for a in range(len(span)):
                for b in range(a + 1, len(span)):
                    rows.append(alg.bracket(span[a], span[b]))
            rows = [r for r in rows if any(not x.is_zero() for x in r)]
            if not rows:
                return True
            red, piv = linalg.rref(rows)
            span = red[:len(piv)]
        center = alg.center()
        if not span:
            return True
        aug = [list(v) for v in center]
        for v in span:
            if linalg.rank(aug + [list(v)]) != linalg.rank(aug):
                return False
        return True


def cw_algebra(data):
    """Transvection algebra of a Cahen-Wallach space (symmetric split and
    invariance facts checked on construction)."""
    out = CWAlgebra(data)
    status, witness = out.jacobi()
    if status != "pass":
        raise RuntimeError(f"CW Jacobi identity fails at {witness}")
    if not (out.symmetric_split_check() and out.k_invariance_check()):
        raise RuntimeError("CW algebra: symmetric split or k-invariance "
                           "fails")
    return out


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
# canonical forms, CE differential, Ricci
# ---------------------------------------------------------------------------

def canonical_three_form(g):
    """H_ijk = B([e_i, e_j], e_k) (totally antisymmetric by invariance)."""
    status, w = invariance_check(g)
    if status != "pass":
        raise ValueError(f"metric not invariant (witness {w})")
    n = g.dim
    comps = {}
    for i, j, k in combinations(range(n), 3):
        v = g.inner(g.basis_bracket(i, j), g.basis_vector(k))
        if not v.is_zero():
            comps[(i, j, k)] = v
    return KForm(g.space, 3, comps)


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


def biinvariant_ricci(g):
    """Ric(X,Y) = -1/4 tr(ad_X ad_Y), the Ricci tensor of the bi-invariant
    metric (sign calibrated so the round 3-sphere has positive Ricci)."""
    status, w = invariance_check(g)
    if status != "pass":
        raise ValueError(f"metric not invariant (witness {w})")
    n = g.dim
    out = linalg.zeros(n, n)
    quarter = Scalar.from_rational(-1, 4)
    for i in range(n):
        for j in range(i, n):
            tr = _Z
            for a in range(n):
                for b in range(n):
                    if not (g.c[i][a][b].is_zero() or g.c[j][b][a].is_zero()):
                        tr = tr + g.c[j][b][a] * g.c[i][a][b]
            # tr(ad_i ad_j) = sum_{a,b} (ad_i)_{b a}(ad_j)_{a b}
            val = quarter * tr
            out[i][j] = val
            out[j][i] = val
    return out


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


_SU3_TRIPLES = [((0, 1, 2), 1), ((0, 3, 6), Scalar.from_rational(1, 2)),
                ((0, 4, 5), Scalar.from_rational(-1, 2)),
                ((1, 3, 5), Scalar.from_rational(1, 2)),
                ((1, 4, 6), Scalar.from_rational(1, 2)),
                ((2, 3, 4), Scalar.from_rational(1, 2)),
                ((2, 5, 6), Scalar.from_rational(-1, 2))]


def su3(scale=1):
    """su(3) in the Gell-Mann basis: f_123 = 1, six structure constants 1/2,
    f_458 = f_678 = sqrt(3)/2, with metric scale*delta (ad-invariant since
    the f are totally antisymmetric)."""
    s = scale if isinstance(scale, Scalar) else Scalar(scale)
    r3h = sqrt_scalar(Scalar(3)) * Scalar.from_rational(1, 2)
    triples = {key: (f if isinstance(f, Scalar) else Scalar(f))
               for key, f in _SU3_TRIPLES}
    triples[(3, 4, 7)] = r3h
    triples[(5, 6, 7)] = r3h
    brackets = {}
    for (i, j, k), f in triples.items():
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            brackets.setdefault(tuple(sorted((a, b))), {})
            sign = 1 if a < b else -1
            key = tuple(sorted((a, b)))
            brackets[key][c] = f * Scalar(sign)
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
