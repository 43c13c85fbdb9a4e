"""The benchmark's tracer wraps methods of the package by name; these tests
keep those names resolvable, so that ``sugrabench/run.py --trace 1`` runs.
They only read ``sugrabench/``."""

import importlib.util
import inspect
import os

import sugraverify.cli  # noqa: F401  (imports every traced module)
from sugraverify.exactnum import Polynomial, Scalar, sqrt_scalar

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "sugrabench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("sugrabench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _tracing()
    for table in (tracing.SPANS, tracing.COUNTS):
        for targets in table.values():
            for target in targets:
                owner, attr = tracing._resolve(target)
                assert callable(getattr(owner, attr)), target


def test_counted_scalar_and_polynomial_targets_are_binary_methods():
    tracing = _tracing()
    for targets in tracing.COUNTS.values():
        for target in targets:
            owner, attr = tracing._resolve(target)
            if owner not in (Scalar, Polynomial):
                continue
            fn = vars(owner).get(attr)
            assert inspect.isfunction(fn), target
            params = list(inspect.signature(fn).parameters.values())
            assert len(params) == 2, target
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert inspect.isfunction(vars(Scalar)["is_rational"])


def test_tracer_counts_scalar_products_and_restores_the_methods():
    tracing = _tracing()
    before = {name: vars(Scalar)[name] for name in ("__mul__", "__add__")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert Scalar(2) * Scalar(3) == 6
        assert sqrt_scalar(2) * 3 + 1 == 1 + 3 * sqrt_scalar(2)
    finally:
        tracer.uninstall()
    assert {name: vars(Scalar)[name] for name in before} == before
    assert tracer.calls["exactnum.scalar_mul"] >= 2
    assert tracer.rational_products >= 1 and tracer.mixed_products >= 1
