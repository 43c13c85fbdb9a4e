"""Helpers shared by the test modules."""

import os

from sugraverify import linalg
from sugraverify.exactnum import Polynomial, Scalar
from sugraverify.geometry import (CoordinatePatch, riemann,
                                  covariant_derivative_form)
from sugraverify.liealg import (MetricLieAlgebra, ce_differential,
                                invariance_check)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def checkout_env(**overrides):
    """os.environ with this checkout's src first on PYTHONPATH, plus the
    given variables, so that a subprocess imports the package under test
    whether or not it is installed."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path
                                              else ""), **overrides)


def cw_lie_algebra(data):
    """The transvection algebra g = k + p of the Cahen-Wallach space of the
    profile data.A, with basis (e+, e-, v_1..v_m, a_1..a_m) and brackets
    [e-, v_i] = a_i, [e-, a_i] = A v_i and [a_i, v_j] = A_ij e+, as a
    MetricLieAlgebra with the identity metric."""
    A, m = data.A, data.n - 2
    brackets = {}
    for i in range(m):
        brackets[(1, 2 + i)] = {2 + m + i: Scalar(1)}
        col = {2 + j: A[j][i] for j in range(m) if not A[j][i].is_zero()}
        if col:
            brackets[(1, 2 + m + i)] = col
        for j in range(m):
            if not A[i][j].is_zero():
                brackets[(2 + m + i, 2 + j)] = {0: A[i][j]}
    n = data.n + m
    return MetricLieAlgebra(n, brackets, linalg.eye(n), name="g_A")


def flat_patch(dim, lorentzian=True):
    """Minkowski (or euclidean) chart, mostly-plus, coordinates x0.."""
    g = [[Polynomial((), {}) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        g[i][i] = Polynomial.constant(-1 if (lorentzian and i == 0) else 1)
    return CoordinatePatch([f"x{i}" for i in range(dim)], g,
                           [row[:] for row in g])


class KoszulFrame:
    """The Levi-Civita connection of the left-invariant metric of a metric
    Lie algebra g in its invariant frame: gamma(k, i, j) is the e_k
    component of nabla_{e_i} e_j from the Koszul formula
    2 B(nabla_i e_j, e_k) = B([i,j],k) - B([j,k],i) + B([k,i],j), None
    where it vanishes, and partial is None (frame components are
    constant).  geometry.riemann and curvature_with_torsion read it as they
    read a chart, d is the Chevalley-Eilenberg differential and nabla the
    coefficient formula: the oracle that SymmetricSpace.group is held to."""

    def __init__(self, g):
        self.g, self.space, self.dim = g, g.space, g.dim
        n, half = g.dim, Scalar.from_rational(1, 2)
        e = [g.basis_vector(i) for i in range(n)]
        self._gamma = {}
        for i in range(n):
            for j in range(n):
                lower = [(g.inner(g.c[i][j], e[l]) - g.inner(g.c[j][l], e[i])
                          + g.inner(g.c[l][i], e[j])) * half
                         for l in range(n)]
                for k, row in enumerate(self.space.inverse_cols):
                    s = Scalar(0)
                    for l, x in row:
                        s = s + x * lower[l]
                    if not s.is_zero():
                        self._gamma[(k, i, j)] = s

    def gamma(self, k, i, j):
        return self._gamma.get((k, i, j))

    def partial(self, x, mu):
        return None

    def riemann(self):
        return riemann(self)

    def d(self, F):
        return ce_differential(F, self.g)

    def nabla(self, F):
        return covariant_derivative_form(F, self)


def biinvariant_ricci(g):
    """Ric(X,Y) = -1/4 tr(ad_X ad_Y), the Ricci tensor of the bi-invariant
    metric of g (sign calibrated so the round 3-sphere has positive Ricci):
    the Ricci oracle of SymmetricSpace.group."""
    status, w = invariance_check(g)
    if status != "pass":
        raise ValueError(f"metric not invariant (witness {w})")
    n = g.dim
    out = linalg.zeros(n, n)
    quarter = Scalar.from_rational(-1, 4)
    for i in range(n):
        for j in range(i, n):
            # tr(ad_i ad_j) = sum_{a,b} (ad_i)_{b a} (ad_j)_{a b}
            tr = Scalar(0)
            for a in range(n):
                for b in range(n):
                    if not (g.c[i][a][b].is_zero() or g.c[j][b][a].is_zero()):
                        tr = tr + g.c[j][b][a] * g.c[i][a][b]
            out[i][j] = out[j][i] = quarter * tr
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq_zero(a):
    return all(x.is_zero() for r in a for x in r)


def det(mat):
    """Determinant by fraction-producing Gaussian elimination (exact field):
    the dense oracle of the package's rank and invertibility checks."""
    n = len(mat)
    rows = [list(r) for r in mat]
    sign = 1
    d = None
    for c in range(n):
        piv = next((i for i in range(c, n) if not rows[i][c].is_zero()), None)
        if piv is None:
            return rows[0][0] * 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        p = rows[c][c]
        d = p if d is None else d * p
        inv = p.inverse()
        for i in range(c + 1, n):
            if rows[i][c].is_zero():
                continue
            f = rows[i][c] * inv
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d if sign == 1 else -d
