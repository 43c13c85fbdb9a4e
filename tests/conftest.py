"""Helpers shared by the test modules."""

import os

from sugraverify import linalg
from sugraverify.exactnum import Polynomial
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


def cw_lie_algebra(cw):
    """The transvection algebra g = k + p of a CWAlgebra, with its dense
    structure constants, as a MetricLieAlgebra with the identity metric."""
    n = cw.dim + cw.m
    return MetricLieAlgebra(n, cw.brackets, linalg.eye(n), name="g_A")


def flat_patch(dim, lorentzian=True):
    """Minkowski (or euclidean) chart, mostly-plus, coordinates x0.."""
    g = [[Polynomial((), {}) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        g[i][i] = Polynomial.constant(-1 if (lorentzian and i == 0) else 1)
    return CoordinatePatch([f"x{i}" for i in range(dim)], g,
                           [row[:] for row in g])
