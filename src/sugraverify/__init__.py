"""Exact-arithmetic verification of supergravity backgrounds built on
lorentzian symmetric spaces and parallelised Lie groups."""

from .exactnum import Scalar, parse_scalar, sqrt_scalar

__version__ = "0.1.0"

# every rational is a fractions.Fraction; the benchmark records this name
BACKEND_NAME = "fractions"

__all__ = ["Scalar", "parse_scalar", "sqrt_scalar",
           "BACKEND_NAME", "__version__"]
