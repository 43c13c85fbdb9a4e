"""Exact scalars (rationals with adjoined square roots, and complex numbers
over them) and sparse polynomials.

A Scalar is a finite sum  sum_r  c_r * sqrt(r)  where each radicand r is a
positive square-free integer (r = 1 for the rational part) and each c_r is a
Fraction.  The rational part is held directly and the other terms in
a radicand map that a rational value does not have, so the rational
arithmetic that dominates costs one rational operation.  The representation
is canonical: zero coefficients are never stored, so equality is equality of
the parts.  The tower is flat by design -- sqrt of a non-rational Scalar is
rejected rather than nested.

Polynomials are multivariate over Scalar with a sparse exponent-tuple
representation and are used for coordinate-dependent tensor components.
"""

from fractions import Fraction
from math import gcd, isqrt

__all__ = ["Scalar", "ComplexScalar", "Polynomial", "parse_scalar",
           "sqrt_scalar"]


_Q0 = Fraction(0)
_Q1 = Fraction(1)

# trial division covers the divisors up to _TRIAL_BOUND; a cofactor below
# its cube has at most two prime factors, so it is still factored exactly
_TRIAL_BOUND = 10 ** 5


def _squarefree_split(n):
    """n = m*m*r with r square-free; returns (m, r).  n must be positive.

    Raises ValueError when n has a cofactor free of primes up to
    _TRIAL_BOUND that is too large to classify without factoring it."""
    m, r, d = 1, 1, 2
    while d * d <= n:
        if d > _TRIAL_BOUND:
            # n is 1, p, p*q or p*p with primes p, q > _TRIAL_BOUND
            if n >= _TRIAL_BOUND ** 3:
                raise ValueError("radicand too large to factor exactly")
            s = isqrt(n)
            if s * s == n:
                return m * s, r
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            m *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return m, r * n


_SQRT_CACHE = {}


def _sqrt_bounds(r, digits):
    """Rational lower/upper bounds for sqrt(r) with 10**-digits spacing."""
    key = (r, digits)
    if key not in _SQRT_CACHE:
        scale = 10 ** digits
        lo = isqrt(r * scale * scale)
        _SQRT_CACHE[key] = (Fraction(lo, scale), Fraction(lo + 1, scale))
    return _SQRT_CACHE[key]


class Scalar:
    """Element of Q(sqrt(p1), sqrt(p2), ...), canonically represented.

    _q is the rational part.  _irr is None for a rational value, otherwise
    a {radicand > 1: coefficient} map with no zero coefficient.  Scalars are
    immutable, so results share maps and the constants ZERO and ONE are
    handed out freely.
    """

    __slots__ = ("_q", "_irr")

    def __init__(self, value=0):
        if isinstance(value, Scalar):
            self._q, self._irr = value._q, value._irr
        else:
            self._q, self._irr = Fraction(value), None

    @staticmethod
    def from_rational(n, d=1):
        return _mk(Fraction(n, d))

    @property
    def _terms(self):
        """{radicand: coefficient}, radicand 1 for the rational part; a
        fresh dict, so changing it changes nothing."""
        terms = {1: self._q} if self._q else {}
        if self._irr is not None:
            terms.update(self._irr)
        return terms

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return self._irr is None and not self._q

    def is_rational(self):
        return self._irr is None

    def rational_value(self):
        if self._irr is not None:
            raise ValueError(f"not rational: {self}")
        return self._q

    @property
    def radicands(self):
        return sorted(self._irr or ())

    # -- ring operations ----------------------------------------------------
    #
    # Each operation branches once on the shapes of its operands: a zero
    # operand costs no rational arithmetic, two rationals cost one rational
    # operation, a rational times an irrational scales the map, and only two
    # irrationals merge radicands.  An int operand is used as a rational.

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, int):
            return Scalar(other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Scalar):
            oq, oirr = other._q, other._irr
        elif isinstance(other, int):
            oq, oirr = other, None
        else:
            return NotImplemented
        q, irr = self._q, self._irr
        if oirr is None:
            if not oq:
                return self
            if irr is None and not q:
                return other if isinstance(other, Scalar) else \
                    _mk(Fraction(oq))
            return _mk(q + oq, irr)
        if irr is None:
            return other if not q else _mk(q + oq, oirr)
        merged = dict(irr)
        for r, c in oirr.items():
            if r in merged:
                c += merged[r]
                if not c:
                    del merged[r]
                    continue
            merged[r] = c
        return _mk(q + oq, merged or None)

    __radd__ = __add__

    def __neg__(self):
        irr = self._irr
        if irr is None:
            return _mk(-self._q) if self._q else self
        return _mk(-self._q, {r: -c for r, c in irr.items()})

    def __sub__(self, other):
        if isinstance(other, Scalar):
            if self._irr is None and other._irr is None:
                q, oq = self._q, other._q
                if not oq:
                    return self
                return _mk(q - oq) if q else _mk(-oq)
            return self + (-other)
        if isinstance(other, int):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Scalar):
            oq, oirr = other._q, other._irr
        elif isinstance(other, int):
            oq, oirr = other, None
        else:
            return NotImplemented
        q, irr = self._q, self._irr
        if oirr is None:
            if not oq:
                return ZERO
            if irr is None:
                return _mk(q * oq) if q else ZERO
            return self._scaled(oq)
        if irr is None:
            return other._scaled(q) if q else ZERO
        terms = {}
        for r1, c1 in self._terms.items():
            for r2, c2 in other._terms.items():
                # sqrt(r1)*sqrt(r2) = g*sqrt(r1'*r2') with g = gcd, coprime parts
                if r1 == r2:
                    r, m = 1, r1
                elif r1 == 1:
                    r, m = r2, 1
                elif r2 == 1:
                    r, m = r1, 1
                else:
                    g = gcd(r1, r2)
                    r, m = (r1 // g) * (r2 // g), g
                c = c1 * c2 * m
                if r in terms:
                    terms[r] += c
                else:
                    terms[r] = c
        q = terms.pop(1, _Q0)
        return _mk(q, {r: c for r, c in terms.items() if c} or None)

    __rmul__ = __mul__

    def _scaled(self, k):
        """self * k for an irrational self and a nonzero rational k."""
        q = self._q
        return _mk(q * k if q else q, {r: c * k for r, c in self._irr.items()})

    def inverse(self):
        """Exact inverse by iterated conjugate multiplication (field inverse)."""
        irr = self._irr
        if irr is None:
            if not self._q:
                raise ZeroDivisionError("division by zero Scalar")
            return _mk(_Q1 / self._q)
        # g > 1 divides a radicand and, for every radicand r, gcd(g, r) is
        # 1 or g; flipping sqrt(r) for g | r is then the conjugation over
        # any prime of g, found without factoring
        g = next(iter(irr))
        for r in irr:
            d = gcd(g, r)
            if d != 1:
                g = d
        conj = _mk(self._q, {r: (-c if r % g == 0 else c)
                             for r, c in irr.items()})
        norm = self * conj          # invariant under the conjugation => fewer primes
        return conj * norm.inverse()

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self._irr == other._irr and self._q == other._q
        if isinstance(other, int):
            return self._irr is None and self._q == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def sign(self):
        """Exact sign (-1, 0, +1).  Zero is decided by canonical form; the
        sign of a nonzero element by interval refinement, which terminates."""
        if self.is_zero():
            return 0
        digits = 20
        while True:
            lo = hi = self._q
            for r, c in (self._irr or {}).items():
                bl, bh = _sqrt_bounds(r, digits)
                if c >= 0:
                    lo += c * bl
                    hi += c * bh
                else:
                    lo += c * bh
                    hi += c * bl
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            digits *= 2

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __float__(self):
        out = 0.0
        for r, c in self._terms.items():
            out += float(c) * (r ** 0.5 if r != 1 else 1.0)
        return out

    def __bool__(self):
        return not self.is_zero()

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        terms = self._terms
        for r in sorted(terms):
            c = terms[r]
            n, d = c.numerator, c.denominator
            if r == 1:
                body = f"{abs(n)}" if d == 1 else f"{abs(n)}/{d}"
            else:
                head = "" if abs(n) == 1 else f"{abs(n)}*"
                body = f"{head}sqrt({r})" if d == 1 else f"{head}sqrt({r})/{d}"
            if not parts:
                parts.append(("-" if n < 0 else "") + body)
            else:
                parts.append((" - " if n < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Scalar({self})"


_new = object.__new__


def _mk(q, irr=None):
    """The Scalar with rational part q (a Fraction) and radicand map irr (None,
    or a map with no zero coefficient)."""
    s = _new(Scalar)
    s._q = q
    s._irr = irr
    return s


def sqrt_scalar(x):
    """Exact square root of a non-negative *rational* Scalar (flat tower:
    sqrt of anything else is rejected)."""
    if isinstance(x, int):
        x = Scalar(x)
    if not x.is_rational():
        raise ValueError(f"sqrt({x}) leaves the flat radical tower")
    q = x.rational_value()
    if q < 0:
        raise ValueError(f"sqrt of negative value {q}")
    if q == 0:
        return ZERO
    n, d = q.numerator, q.denominator
    m, r = _squarefree_split(n * d)     # sqrt(n/d) = sqrt(n d)/d
    c = Fraction(m, d)
    return _mk(c) if r == 1 else _mk(_Q0, {r: c})


ZERO = Scalar(0)
ONE = Scalar(1)


_REAL = (int, Scalar)


def _from_int(n):
    return ZERO if n == 0 else ONE if n == 1 else Scalar(n)


class ComplexScalar:
    """a + b*i with exact real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if not isinstance(re, int) else _from_int(re)
        self.im = im if not isinstance(im, int) else _from_int(im)

    def is_zero(self):
        return self.re.is_zero() and self.im.is_zero()

    # a real operand (int or Scalar) acts on re and im directly

    def __add__(self, other):
        if isinstance(other, ComplexScalar):
            return ComplexScalar(self.re + other.re, self.im + other.im)
        if isinstance(other, _REAL):
            return ComplexScalar(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return ComplexScalar(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, ComplexScalar):
            return ComplexScalar(self.re - other.re, self.im - other.im)
        if isinstance(other, _REAL):
            return ComplexScalar(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, ComplexScalar):
            return ComplexScalar(self.re * other.re - self.im * other.im,
                                 self.re * other.im + self.im * other.re)
        if isinstance(other, _REAL):
            return ComplexScalar(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not isinstance(n, Scalar):
            raise TypeError("can only invert ComplexScalar with Scalar parts")
        ninv = n.inverse()
        return ComplexScalar(self.re * ninv, -self.im * ninv)

    def __truediv__(self, other):
        if not isinstance(other, ComplexScalar):
            other = ComplexScalar(other)
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, (ComplexScalar,) + _REAL):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        return f"({self.re}) + ({self.im})*i"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Sparse multivariate polynomial over Scalar.

    terms maps exponent tuples (aligned with .vars, a sorted tuple of names)
    to Scalar coefficients; zero coefficients are never stored.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        self.vars = tuple(vars)
        self.terms = {} if terms is None else terms

    @staticmethod
    def constant(value, vars=()):
        c = value if isinstance(value, Scalar) else Scalar(value)
        if c.is_zero():
            return Polynomial(vars, {})
        return Polynomial(tuple(vars), {(0,) * len(vars): c})

    @staticmethod
    def variable(name):
        return Polynomial((name,), {(1,): ONE})

    @staticmethod
    def _promote(x, vars=()):
        if isinstance(x, Polynomial):
            return x
        return Polynomial.constant(x, vars)

    def _aligned(self, other):
        other = Polynomial._promote(other)
        if self.vars == other.vars:
            return self, other
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        return self._on_vars(allvars), other._on_vars(allvars)

    def _on_vars(self, allvars):
        if self.vars == allvars:
            return self
        pos = [allvars.index(v) for v in self.vars]
        terms = {}
        for exp, c in self.terms.items():
            e = [0] * len(allvars)
            for p, k in zip(pos, exp):
                e[p] = k
            terms[tuple(e)] = c
        return Polynomial(allvars, terms)

    def is_zero(self):
        return not self.terms

    def constant_value(self):
        """The value as a Scalar; raises if genuinely coordinate-dependent."""
        val = ZERO
        for exp, c in self.terms.items():
            if any(exp):
                raise ValueError(f"not constant: {self}")
            val = val + c
        return val

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Polynomial.constant(other, self.vars)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for exp, c in b.terms.items():
            s = terms.get(exp, ZERO) + c
            if s.is_zero():
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return Polynomial(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Scalar, Polynomial)):
            return self + (-Polynomial._promote(other, self.vars))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            c0 = other if isinstance(other, Scalar) else Scalar(other)
            if c0.is_zero():
                return Polynomial(self.vars, {})
            return Polynomial(self.vars,
                              {e: c * c0 for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._aligned(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                if e in terms:
                    c = terms[e] + c
                if c.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = c
        return Polynomial(a.vars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Polynomial.constant(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return not self.is_zero()

    def partial(self, var):
        """Formal partial derivative; unknown variable is an error."""
        if var not in self.vars:
            raise KeyError(f"unknown variable {var!r}; have {self.vars}")
        i = self.vars.index(var)
        terms = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k == 0:
                continue
            e = exp[:i] + (k - 1,) + exp[i + 1:]
            c2 = c * k
            terms[e] = terms.get(e, ZERO) + c2
        return Polynomial(self.vars, {e: c for e, c in terms.items()
                                      if not c.is_zero()})

    def subs(self, values):
        """Substitute Scalars for a subset of the variables."""
        keep = [i for i, v in enumerate(self.vars) if v not in values]
        newvars = tuple(self.vars[i] for i in keep)
        out = Polynomial(newvars, {})
        for exp, c in self.terms.items():
            coef = c
            for i, v in enumerate(self.vars):
                if v in values:
                    val = values[v]
                    if not isinstance(val, Scalar):
                        val = Scalar(val)
                    coef = coef * val ** exp[i]
            term = Polynomial(newvars, {tuple(exp[i] for i in keep): coef})
            if not coef.is_zero():
                out = out + term
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, exp) if k)
            cs = str(c)
            if mono:
                cs = f"({cs})*{mono}" if ("+" in cs or " - " in cs) else \
                     (mono if cs == "1" else f"-{mono}" if cs == "-1"
                      else f"{cs}*{mono}")
            parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# parsing of exact scalar strings ("5/6", "2*sqrt(5)/5", "-1/36*mu^2", ...)
# ---------------------------------------------------------------------------

# the largest exponent parse_scalar accepts, counting the exponents of nested
# powers multiplied together, so that "(2^64)^64" is refused as well; the
# catalog uses only ^2
MAX_EXPONENT = 64

# the most distinct radicands a parsed scalar may draw on, from its sqrt atoms
# and its parameters together, so that every value it can build lies in a
# field of dimension at most 2^MAX_RADICANDS over Q
MAX_RADICANDS = 8


class _Parser:
    def __init__(self, text, params):
        self.toks = self._lex(text)
        self.pos = 0
        self.params = params
        self.nested = 1         # largest exponent product in the last power
        self.radicands = set()

    @staticmethod
    def _lex(text):
        toks, i = [], 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                toks.append(("int", int(text[i:j])))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(("name", text[i:j]))
                i = j
            elif ch in "+-*/^()":
                toks.append((ch, ch))
                i += 1
            else:
                raise ValueError(f"bad character {ch!r} in scalar expression")
        toks.append(("end", None))
        return toks

    def peek(self):
        return self.toks[self.pos][0]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ValueError(f"expected {kind}, got {tok[0]}")
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.power()
        while self.peek() in "*/":
            op = self.take()[0]
            rhs = self.power()
            node = node * rhs if op == "*" else node / rhs
        return node

    def power(self):
        outer, self.nested = self.nested, 1
        base = self.atom()
        if self.peek() == "^":
            self.take()
            k = self.take("int")[1]
            self.nested *= k
            if self.nested > MAX_EXPONENT:
                raise ValueError(f"exponent {self.nested} (nested powers "
                                 f"multiplied) exceeds {MAX_EXPONENT}")
            base = base ** k
        self.nested = max(outer, self.nested)
        return base

    def atom(self):
        kind = self.peek()
        if kind == "-":
            self.take()
            return -self.atom()
        if kind == "+":
            self.take()
            return self.atom()
        if kind == "int":
            return Scalar(self.take()[1])
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if kind == "name":
            name = self.take()[1]
            if name == "sqrt":
                self.take("(")
                arg = self.expr()
                self.take(")")
                return self.adjoin(sqrt_scalar(arg))
            if name in self.params:
                v = self.params[name]
                return self.adjoin(v if isinstance(v, Scalar) else Scalar(v))
            raise ValueError(f"unbound parameter {name!r}")
        raise ValueError(f"unexpected token {kind}")

    def adjoin(self, value):
        """value, once its radicands fit under MAX_RADICANDS with the ones
        already read."""
        self.radicands.update(value.radicands)
        if len(self.radicands) > MAX_RADICANDS:
            raise ValueError(f"more than {MAX_RADICANDS} distinct square "
                             f"roots in one scalar")
        return value


def parse_scalar(text, params=None):
    """Parse an exact scalar string, e.g. "2*sqrt(5)/5" or "-1/36*mu^2".

    Parameter names are resolved against `params` (a mapping to Scalars);
    an unbound name is an error -- verification runs are always numeric.
    """
    p = _Parser(text, params or {})
    out = p.expr()
    p.take("end")
    return out
