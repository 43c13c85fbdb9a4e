import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import checkout_env
from sugraverify import cli, exactnum
from sugraverify.exactnum import Scalar, Polynomial, parse_scalar, sqrt_scalar


def rational(n, d=1):
    return Scalar.from_rational(n, d)


def test_defining_relation_of_adjoined_radical():
    r6 = sqrt_scalar(Scalar(6))
    assert r6 * r6 == Scalar(6)


def test_rational_addition():
    assert rational(1, 2) + rational(1, 3) == rational(5, 6)


def test_flux_coefficient_product():
    # 2*sqrt(5)/5 times 2*sqrt(5) is exactly 4 (rational reconstruction:
    # (2/5)*2*5 = 4)
    a = rational(2, 5) * sqrt_scalar(Scalar(5))
    b = Scalar(2) * sqrt_scalar(Scalar(5))
    prod = a * b
    assert prod.is_rational()
    assert prod.rational_value() == 4


def test_radical_products_merge_into_squarefree_form():
    r6 = sqrt_scalar(Scalar(6))
    r10 = sqrt_scalar(Scalar(10))
    p = r6 * r10          # sqrt(60) = 2 sqrt(15)
    assert p == Scalar(2) * sqrt_scalar(Scalar(15))
    assert p.radicands == [15]


def test_sqrt_of_rational():
    assert sqrt_scalar(rational(4, 9)) == rational(2, 3)
    s = sqrt_scalar(rational(5, 4))        # sqrt(5)/2
    assert s * s == rational(5, 4)
    assert str(s) == "sqrt(5)/2"


def test_sqrt_rejects_nested_radicals():
    with pytest.raises(ValueError):
        sqrt_scalar(Scalar(1) + sqrt_scalar(Scalar(2)))


def test_division_by_conjugation():
    # 1/(1+sqrt(2)) = sqrt(2)-1 requires conjugate rationalization
    x = Scalar(1) + sqrt_scalar(Scalar(2))
    assert x.inverse() == sqrt_scalar(Scalar(2)) - Scalar(1)
    # multi-radical inverse
    y = Scalar(3) + sqrt_scalar(Scalar(2)) - rational(1, 2) * sqrt_scalar(Scalar(3))
    assert (y * y.inverse()) == Scalar(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_exact_sign_and_order():
    assert (sqrt_scalar(Scalar(2)) - rational(141421356, 100000000)).sign() == 1
    assert (sqrt_scalar(Scalar(2)) + sqrt_scalar(Scalar(3)) - Scalar(4)).sign() == -1
    vals = [Scalar(1), sqrt_scalar(Scalar(2)), rational(3, 2)]
    assert sorted(vals) == [Scalar(1), sqrt_scalar(Scalar(2)), rational(3, 2)]


def _random_scalar(rng):
    t = Scalar(rng.randint(-4, 4))
    for r in rng.sample([2, 3, 5, 6], rng.randint(0, 2)):
        t = t + rational(rng.randint(-3, 3), rng.randint(1, 4)) * sqrt_scalar(Scalar(r))
    return t


def test_ring_axioms_on_random_scalars():
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_canonicalization_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        a = _random_scalar(rng)
        assert Scalar(a) == a            # rebuild from canonical form
        assert (a - a).is_zero()
        assert not (a + Scalar(1) - a - Scalar(1))._terms


def test_scalar_string_roundtrip():
    cases = ["5/6", "2*sqrt(5)/5", "0", "-3", "1 - sqrt(2)", "7*sqrt(30)/4"]
    for text in cases:
        v = parse_scalar(text)
        assert parse_scalar(str(v)) == v


def test_parse_with_parameters():
    v = parse_scalar("-1/36*mu^2", {"mu": Scalar(6)})
    assert v == Scalar(-1)
    with pytest.raises(ValueError):
        parse_scalar("mu + 1")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def x(name):
    return Polynomial.variable(name)


def test_poly_square_of_variable():
    p = x("x1") * x("x1")
    assert p.terms == {(2,): Scalar(1)}


def test_poly_add_zero_identity():
    p = Scalar(4) * x("x1") * x("x1") + x("x2") * x("x2")
    assert p + Polynomial.constant(0) == p


def test_poly_quadratic_expansion():
    # sum A_ij xi xj with A = diag(4,1)
    p = Scalar(4) * x("x1") * x("x1") + Scalar(1) * x("x2") * x("x2")
    assert p.subs({"x1": Scalar(1), "x2": Scalar(2)}).constant_value() \
        == Scalar(8)
    assert p.degree() == 2


def test_poly_partial():
    p = x("x1") * x("x1")
    assert p.partial("x1") == Scalar(2) * x("x1")
    q = Scalar(4) * x("x1") * x("x1") + x("x2") * x("x2")
    assert q.partial("x2") == Scalar(2) * x("x2")
    # no dependence on an aligned-but-absent variable
    r = (q + x("xm") - x("xm"))
    assert r.partial("xm").is_zero()


def test_poly_partial_unknown_variable():
    with pytest.raises(KeyError):
        (x("a") * x("a")).partial("b")


def _random_poly(rng):
    p = Polynomial.constant(rng.randint(-3, 3))
    for _ in range(rng.randint(0, 3)):
        v = x(rng.choice(["u", "v", "w"]))
        term = Polynomial.constant(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 2)):
            term = term * v
        p = p + term
    return p


def test_poly_ring_axioms():
    rng = random.Random(23)
    for _ in range(1000):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_poly_subs_partial_evaluation():
    p = x("u") * x("v") + x("v")
    q = p.subs({"u": Scalar(2)})
    assert q == Scalar(3) * x("v")


# ---------------------------------------------------------------------------
# the shape dispatch of Scalar against a dictionary reference in Q(√2, √3, √6)
# ---------------------------------------------------------------------------

# n = m*m*r for every product n of two radicands of Q(√2, √3, √6)
_SQUAREFREE = {1: (1, 1), 2: (1, 2), 3: (1, 3), 4: (2, 1), 6: (1, 6),
               9: (3, 1), 12: (2, 3), 18: (3, 2), 36: (6, 1)}
_RADICANDS = (1, 2, 3, 6)


def _ref(coeffs):
    return {r: c for r, c in zip(_RADICANDS, coeffs) if c}


def _ref_add(x, y, sign=1):
    out = dict(x)
    for r, c in y.items():
        out[r] = out.get(r, 0) + sign * c
    return {r: c for r, c in out.items() if c}


def _ref_mul(x, y):
    out = {}
    for r1, c1 in x.items():
        for r2, c2 in y.items():
            m, r = _SQUAREFREE[r1 * r2]
            out[r] = out.get(r, 0) + c1 * c2 * m
    return {r: c for r, c in out.items() if c}


def _build(coeffs):
    out = Scalar(0)
    for r, c in zip(_RADICANDS, coeffs):
        out = out + Scalar(c) * sqrt_scalar(r)
    return out


def _as_ref(s):
    return {r: Fraction(c) for r, c in s._terms.items()}


_coeff = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))
_element = st.tuples(_coeff, _coeff, _coeff, _coeff)


@st.composite
def _pairs(draw):
    """Two elements, often with a zero, a rational or a sum or product
    that cancels to a rational."""
    x = draw(_element)
    kind = draw(st.sampled_from(("any", "conjugate", "shift", "equal",
                                 "rational")))
    if kind == "any":
        y = draw(_element)
    elif kind == "conjugate":           # (a + b√2)(a - b√2) is rational
        x = (x[0], x[1], 0, 0)
        y = (x[0], -x[1], 0, 0)
    elif kind == "shift":               # (a + c√3) - c√3 is rational
        y = (0,) + x[1:]
    elif kind == "equal":
        y = x
    else:
        x, y = (x[0], 0, 0, 0), draw(_element)
    return (x, y) if draw(st.booleans()) else (y, x)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_pairs())
def test_shape_dispatch_matches_dictionary_reference(pair):
    (xc, yc) = pair
    x, y = _build(xc), _build(yc)
    X, Y = _ref(xc), _ref(yc)
    assert _as_ref(x) == X and _as_ref(y) == Y
    assert _as_ref(x + y) == _ref_add(X, Y)
    assert _as_ref(x - y) == _ref_add(X, Y, -1)
    assert _as_ref(x * y) == _ref_mul(X, Y)
    assert _as_ref(-x) == _ref_add({}, X, -1)
    if Y:
        assert _ref_mul(_as_ref(x / y), Y) == X
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for s, ref in ((x, X), (x + y, _ref_add(X, Y)), (x * y, _ref_mul(X, Y))):
        assert s.is_rational() == (set(ref) <= {1})
        assert s.is_zero() == (not ref)
        assert parse_scalar(str(s)) == s
    for a, b in ((x, y), (x + y - y, x), (x * y, y * x),
                 (parse_scalar(str(x)), x)):
        if a == b:
            assert hash(a) == hash(b)
        assert (a == b) == (_as_ref(a) == _as_ref(b))
    q = X.get(1, Fraction(0))
    assert (x == q.numerator) == (set(X) <= {1} and q.denominator == 1)
    assert _as_ref(x * 3) == _ref_mul(X, {1: 3})
    assert _as_ref(2 - x) == _ref_add({1: 2}, X, -1)
    assert _as_ref(x + 0) == X and _as_ref(x * 0) == {}


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.fractions(max_denominator=60), st.fractions(max_denominator=60),
       st.sampled_from((2, 3, 5, 6, 7)))
def test_is_zero_agrees_with_fraction_zero(a, b, r):
    # is_zero reads the numerator of _q, so _q is a Fraction on every
    # constructor path: Scalar(int), Scalar(Fraction), from_rational, the
    # parser, and the _mk results of the arithmetic
    x, y, root = Scalar(a), Scalar(b), sqrt_scalar(r)
    mu = {"mu": x}
    cases = [
        (Scalar(a.numerator), Fraction(a.numerator)),
        (x, a), (Scalar(Fraction(0, 7)), Fraction(0)),
        (Scalar.from_rational(a.numerator, a.denominator), a),
        (parse_scalar("0*mu", mu), Fraction(0)),
        (parse_scalar("mu - mu", mu), Fraction(0)),
        (parse_scalar("2*mu", mu), 2 * a),
        (x - y, a - b), (x - x, Fraction(0)), (x + y, a + b),
        (x * Scalar(0), Fraction(0)), (Scalar(0) * x, Fraction(0)),
        (x * y, a * b), (-x, -a), (x * 0, Fraction(0)), (x - 0, a),
        ((x + y * root) - y * root, a),      # irrational parts cancel
        (y * root - root * y, Fraction(0)),
        (root * root - r, Fraction(0)),
        ((x + root) * (x - root), a * a - r),
    ]
    if a:
        cases.append((x.inverse() * x, Fraction(1)))
    for value, want in cases:
        assert type(value._q) is Fraction
        assert value.is_rational()
        assert value.is_zero() == (want == 0)
        assert value.rational_value() == want
    z = x + y * root                    # rational only when b is 0
    assert type(z._q) is Fraction
    assert z.is_rational() == (b == 0)
    assert z.is_zero() == (a == 0 and b == 0)


def test_cancellation_returns_a_rational_shape():
    r2, r3 = sqrt_scalar(2), sqrt_scalar(3)
    for s in ((1 + r2) * (1 - r2), (rational(1, 2) + r3) - r3, r2 * r2,
              r2 * r3 - sqrt_scalar(6)):
        assert s.is_rational() and s.radicands == []
        assert hash(s) == hash(Scalar(s.rational_value()))
    assert (1 + r2) * (1 - r2) == -1


def test_inverse_conjugates_over_a_common_factor_of_composite_radicands():
    # the first radicand is composite and shares a factor with the others,
    # so the conjugation must be chosen by gcds, not from the first radicand
    for parts in ((6, 10, 15), (6, 2, 3), (15, 21, 35)):
        for perm in itertools.permutations(parts):
            x = Scalar(1)
            for k, r in enumerate(perm, 1):
                x = x + k * sqrt_scalar(r)
            assert x * x.inverse() == 1, perm


# ---------------------------------------------------------------------------
# hostile input: exponents and radicands
# ---------------------------------------------------------------------------

def test_parse_scalar_bounds_exponents_before_multiplying(monkeypatch,
                                                         capsys, tmp_path):
    bound = exactnum.MAX_EXPONENT
    original = Scalar.__pow__

    def guarded(self, k):
        if k > bound:
            raise RuntimeError(f"power {k} computed")
        return original(self, k)

    monkeypatch.setattr(Scalar, "__pow__", guarded)
    assert parse_scalar(f"2^{bound}") == Scalar(2 ** bound)
    assert parse_scalar("(2^8)^8") == Scalar(2 ** 64)
    for text in (f"2^{bound + 1}", "2^999999999", "(2^8)^9",
                 "((3^2)^2)^17", "mu^999999999"):
        with pytest.raises(ValueError, match="exceeds"):
            parse_scalar(text, {"mu": Scalar(3)})
    assert cli.main(["verify", "cw11", "--perturb", "A11=2^999999999"]) == 2
    assert "exceeds" in capsys.readouterr().err
    path = tmp_path / "m.json"
    path.write_text(json.dumps([["2^999999999", "0"], ["0", "1"]]))
    assert cli.main(["canonicalize-cw", str(path)]) == 2
    assert "exceeds" in capsys.readouterr().err


# two 12- and 13-digit primes: their product has 24 digits
SEMIPRIME = 100000000003 * 1000000000039


def test_sqrt_factors_large_radicands_exactly_or_refuses():
    n = 1000003 * 1000033               # both primes beyond trial division
    s = sqrt_scalar(n)
    assert s.radicands == [n] and s * s == n
    t = sqrt_scalar(100003 ** 2 * 7)    # a square of a large prime
    assert t == 100003 * sqrt_scalar(7)
    assert sqrt_scalar(Scalar(100019 * 100043) / 4) * 2 == \
        sqrt_scalar(100019 * 100043)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large to factor exactly"):
        sqrt_scalar(SEMIPRIME)
    assert time.perf_counter() - start < 1.0


def test_cli_refuses_a_background_with_an_unfactorable_radicand(tmp_path):
    doc = {"theory": "d11", "name": "semiprime",
           "geometry": {"type": "product", "blocks": [
               {"dim": 4, "scalar_curvature": "-48", "lorentzian": True,
                "label": "AdS4"},
               {"dim": 7, "scalar_curvature": "42", "label": "S7"}]},
           "fluxes": {"F4": [{"indices": [0, 1, 2, 3],
                              "coeff": f"sqrt({SEMIPRIME})"}]}}
    path = tmp_path / "semiprime.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "sugraverify.cli", "verify",
                           str(path)], capture_output=True, text=True,
                          timeout=60, env=checkout_env())
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "too large to factor exactly" in proc.stderr
    assert "Traceback" not in proc.stderr


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# 11 factors (1+sqrt(p)): 2,047 radicands if it were expanded
ROOT_PRODUCT = "*".join(f"(1+sqrt({p}))" for p in PRIMES[:11])
# the inverse of a sum of 12 roots: 2,048 radicands, about a second to build
ROOT_SUM_INVERSE = "1/(" + "+".join(f"sqrt({p})" for p in PRIMES) + ")"


def test_parse_scalar_bounds_the_distinct_radicands():
    bound = exactnum.MAX_RADICANDS
    for text in (ROOT_PRODUCT, ROOT_SUM_INVERSE):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="distinct square roots"):
            parse_scalar(text)
        assert time.perf_counter() - start < 1.0
    # up to the bound everything is still computed, repeated roots included
    inside = "*".join(f"(1+sqrt({p}))" for p in PRIMES[:bound])
    assert len(parse_scalar(inside).radicands) == 2 ** bound - 1
    assert parse_scalar(f"{inside}*sqrt(8)/sqrt(18)") == \
        parse_scalar(inside) * rational(2, 3)
    # a parameter brings its radicands along
    a = sum((sqrt_scalar(p) for p in PRIMES[:bound]), Scalar(0))
    assert parse_scalar("a*sqrt(2)", {"a": a}) == a * sqrt_scalar(2)
    with pytest.raises(ValueError, match="distinct square roots"):
        parse_scalar(f"a*sqrt({PRIMES[bound]})", {"a": a})


def test_cli_refuses_a_scalar_with_too_many_radicands(tmp_path):
    # in subprocesses with a timeout: without the bound, verifying either
    # input takes minutes
    def verify(*args):
        proc = subprocess.run([sys.executable, "-m", "sugraverify.cli",
                               "verify", *args], capture_output=True,
                              text=True, timeout=30, env=checkout_env())
        assert proc.returncode == 2, (proc.stdout, proc.stderr)
        assert "distinct square roots" in proc.stderr
        assert "Traceback" not in proc.stderr

    verify("cw11", "--perturb", f"A11={ROOT_PRODUCT}")
    doc = {"theory": "d11", "name": "roots",
           "geometry": {"type": "product", "blocks": [
               {"dim": 4, "scalar_curvature": "-48", "lorentzian": True,
                "label": "AdS4"},
               {"dim": 7, "scalar_curvature": "42", "label": "S7"}]},
           "fluxes": {"F4": [{"indices": [0, 1, 2, 3],
                              "coeff": ROOT_SUM_INVERSE}]}}
    path = tmp_path / "roots.json"
    path.write_text(json.dumps(doc))
    verify(str(path))
