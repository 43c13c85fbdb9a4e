"""Helpers shared by the test modules."""

import os

from sugraverify import linalg
from sugraverify.exactnum import Polynomial, Scalar
from sugraverify.geometry import CoordinatePatch
from sugraverify.liealg import MetricLieAlgebra

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
