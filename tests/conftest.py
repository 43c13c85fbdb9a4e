"""Helpers shared by the test modules."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def checkout_env(**overrides):
    """os.environ with this checkout's src first on PYTHONPATH, plus the
    given variables, so that a subprocess imports the package under test
    whether or not it is installed."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path
                                              else ""), **overrides)
