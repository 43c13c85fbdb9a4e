"""Exact-arithmetic verification of supergravity backgrounds built on
lorentzian symmetric spaces and parallelised Lie groups."""

from ._backend import BACKEND_NAME
from .exactnum import Scalar, parse_scalar, sqrt_scalar

__version__ = "0.1.0"

__all__ = ["Scalar", "parse_scalar", "sqrt_scalar",
           "BACKEND_NAME", "__version__"]
