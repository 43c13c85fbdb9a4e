"""Exact Clifford algebra representations and the Clifford action of forms.

Gamma matrices for the supported signatures are built from tensor products
of 2x2 real blocks {1, s1, s3, eps} together with octonion/quaternion
left-multiplication matrices, so every entry is 0 or +-1 (or a fourth root
of unity in the complex (1,5) case).  They are stored as signed
permutations.

Computations with spinor endomorphisms happen in a sparse monomial basis
{gamma_S} indexed by sorted tuples of frame indices, with multiplication
driven by the frame Gram matrix (which may pair lightcone legs
off-diagonally).  This keeps connection/curvature algebra exact and fast.
Two monomials without linked legs (legs s != t across them with G[s][t]
!= 0) commute or anticommute up to one contracted monomial, so commutators
decide them by parity (docs/conventions.md).

A frame is tied to the orthonormal gammas by a rational frame map; the
lightcone one sends gamma_+ to gammahat_{n-1} + gammahat_0 and gamma_- to
half their difference, so no square root enters a coefficient.

Elements act on sparse spinors ({index: component}) through their
orthonormal words, each a coefficient times a signed permutation, with the
words of all monomials merged.  A kernel's rows come from one pass over the
words and stay sparse, repeated rows are dropped, and linalg.rref eliminates
over the nonzero entries only; no dense spinor_dim x spinor_dim matrix is
built.  realize() builds one only for callers that ask for it.
"""

from .exactnum import Scalar, Polynomial, ZERO, ONE
from .multilinear import QuadraticSpace, KForm, interior, wedge, \
    accumulate, flat, nonzero_columns
from . import linalg

__all__ = ["ComplexScalar", "CliffordRep", "build_gamma", "FrameAlgebra",
           "CliffordElement", "clifford_action", "omega_xf",
           "spinor_to_vector", "kernel_dim"]

_Z = ZERO
_ONE = ONE


def coeff_partial(c, var):
    if isinstance(c, Polynomial):
        return c.partial(var) if var in c.vars else Polynomial(c.vars, {})
    if isinstance(c, ComplexScalar):
        return ComplexScalar(coeff_partial(c.re, var), coeff_partial(c.im, var))
    return _Z


_REAL = (int, Scalar, Polynomial)


def _from_int(n):
    return ZERO if n == 0 else ONE if n == 1 else Scalar(n)


class ComplexScalar:
    """a + b*i with exact real/imaginary parts (Scalar or Polynomial)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if not isinstance(re, int) else _from_int(re)
        self.im = im if not isinstance(im, int) else _from_int(im)

    @staticmethod
    def i():
        return ComplexScalar(0, 1)

    def is_zero(self):
        return self.re.is_zero() and self.im.is_zero()

    def is_real(self):
        return self.im.is_zero()

    def conj(self):
        return ComplexScalar(self.re, -self.im)

    # a real operand (int, Scalar or Polynomial) acts on re and im directly

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
        if not isinstance(other, (ComplexScalar, int, Scalar, Polynomial)):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        return f"({self.re}) + ({self.im})*i"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# signed permutation matrices (entries one nonzero unit per column)
# ---------------------------------------------------------------------------

class SPMat:
    """M e_j = val[j] e_{perm[j]} with unit values (+-1 or ComplexScalar)."""

    __slots__ = ("perm", "vals")

    def __init__(self, perm, vals):
        self.perm = tuple(perm)
        self.vals = tuple(vals)

    @staticmethod
    def identity(n):
        return SPMat(range(n), [1] * n)

    def __matmul__(self, other):
        perm = tuple(self.perm[p] for p in other.perm)
        vals = tuple(_unit_mul(self.vals[p], v)
                     for p, v in zip(other.perm, other.vals))
        return SPMat(perm, vals)

    def scale(self, s):
        return SPMat(self.perm, tuple(_unit_mul(v, s) for v in self.vals))

    def tensor(self, other):
        n2 = len(other.perm)
        perm, vals = [], []
        for i, (pi, vi) in enumerate(zip(self.perm, self.vals)):
            for j, (pj, vj) in enumerate(zip(other.perm, other.vals)):
                perm.append(pi * n2 + pj)
                vals.append(_unit_mul(vi, vj))
        return SPMat(perm, vals)

    def dense(self, scalar=True):
        n = len(self.perm)
        zero = _Z if scalar else ComplexScalar(0, 0)
        out = [[zero] * n for _ in range(n)]
        for j, (p, v) in enumerate(zip(self.perm, self.vals)):
            out[p][j] = _unit_to_coeff(v, scalar)
        return out

    def column(self, j):
        return self.perm[j], self.vals[j]

    def __eq__(self, other):
        return self.perm == other.perm and \
            all(_unit_eq(a, b) for a, b in zip(self.vals, other.vals))

    def is_minus_identity(self):
        return self.perm == tuple(range(len(self.perm))) and \
            all(_unit_eq(v, -1) for v in self.vals)

    def is_identity(self):
        return self.perm == tuple(range(len(self.perm))) and \
            all(_unit_eq(v, 1) for v in self.vals)


def _unit_mul(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    ca = a if isinstance(a, ComplexScalar) else ComplexScalar(a, 0)
    cb = b if isinstance(b, ComplexScalar) else ComplexScalar(b, 0)
    return ca * cb


def _unit_eq(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return _unit_mul(a, 1) == _unit_mul(b, 1)


def _unit_to_coeff(v, scalar):
    if isinstance(v, int):
        return Scalar(v) if scalar else ComplexScalar(v, 0)
    if scalar:
        if not v.is_real():
            raise ValueError("complex unit in a real representation")
        return v.re
    return v


_E2 = SPMat((1, 0), (-1, 1))          # eps = [[0,1],[-1,0]]
_S1 = SPMat((1, 0), (1, 1))           # sigma_1
_S3 = SPMat((0, 1), (1, -1))          # sigma_3
_I2 = SPMat.identity(2)
_IE = SPMat((1, 0), (ComplexScalar(0, -1), ComplexScalar(0, 1)))   # i*eps


# ---------------------------------------------------------------------------
# octonion / quaternion left multiplications
# ---------------------------------------------------------------------------

_FANO = [(1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7),
         (3, 4, 7), (3, 6, 5)]


def _octonion_table():
    """table[i][j] = (sign, k) with e_i e_j = sign e_k; e_0 = 1."""
    t = [[None] * 8 for _ in range(8)]
    for i in range(8):
        t[0][i] = (1, i)
        t[i][0] = (1, i)
    for i in range(1, 8):
        t[i][i] = (-1, 0)
    for (a, b, c) in _FANO:
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            t[i][j] = (1, k)
            t[j][i] = (-1, k)
    return t


def _left_mult_spmats(dim):
    """Signed-permutation matrices of left multiplication by the basis
    units of the octonions (dim 8) or quaternions (dim 4)."""
    table = _octonion_table()
    mats = []
    for a in range(dim):
        perm, vals = [0] * dim, [0] * dim
        for j in range(dim):
            s, k = table[a][j]
            perm[j] = k
            vals[j] = s
        mats.append(SPMat(perm, vals))
    return mats


def _b_block(l):
    """[[0, L],[L^T, 0]] as a signed permutation on doubled空间 space."""
    n = len(l.perm)
    perm, vals = [0] * (2 * n), [0] * (2 * n)
    # columns 0..n-1 (first block) hit rows n..2n-1 via L^T;
    # columns n..2n-1 hit rows 0..n-1 via L.
    # L^T e_j = sum_k L_{jk} e_k : column j of L^T has value L[j][k] at row k
    # for signed perms: L e_j = vals[j] e_{perm[j]}  =>  L^T e_{perm[j]} = vals[j] e_j
    for j in range(n):
        perm[n + j] = l.perm[j]
        vals[n + j] = l.vals[j]
    for j in range(n):
        perm[l.perm[j]] = n + j
        vals[l.perm[j]] = l.vals[j]
    return SPMat(perm, vals)


# ---------------------------------------------------------------------------
# representation construction
# ---------------------------------------------------------------------------

class CliffordRep:
    """Exact gamma matrices for one orthonormal signature.

    gammas[a] obeys gamma_a gamma_b + gamma_b gamma_a = 2 eta_ab with
    eta = diag(-1,...,-1,+1,...,+1) (t timelike legs first, mostly-plus).
    """

    def __init__(self, signature, gammas, real=True):
        self.signature = signature
        self.t, self.s = signature
        self.n = self.t + self.s
        self.gammas = gammas
        self.spinor_dim = len(gammas[0].perm)
        self.real = real
        self.eta = [Scalar(-1)] * self.t + [Scalar(1)] * self.s
        self._check_relations()
        self.chirality = None
        if self.n % 2 == 0:
            vol = gammas[0]
            for g in gammas[1:]:
                vol = vol @ g
            self.chirality = vol

    def _check_relations(self):
        n = self.spinor_dim
        for a in range(self.n):
            for b in range(a, self.n):
                ab = self.gammas[a] @ self.gammas[b]
                ba = self.gammas[b] @ self.gammas[a]
                if a == b:
                    want = self.eta[a]
                    for j in range(n):
                        p, v = ab.column(j)
                        if p != j or not _unit_eq(v, int(want.rational_value())):
                            raise RuntimeError(f"gamma_{a}^2 != eta")
                else:
                    for j in range(n):
                        pa, va = ab.column(j)
                        pb, vb = ba.column(j)
                        if pa != pb or not _unit_eq(_unit_mul(va, 1),
                                                    _unit_mul(-1, vb)):
                            raise RuntimeError(
                                f"gamma_{a} gamma_{b} not anticommuting")

    def gamma_dense(self, a):
        return self.gammas[a].dense(scalar=self.real)

    def volume_spmat(self):
        vol = self.gammas[0]
        for g in self.gammas[1:]:
            vol = vol @ g
        return vol


_REP_CACHE = {}


def build_gamma(signature):
    """Exact Clifford representation for (1,10), (1,9), (1,5), (1,2) and
    (0,k) for k <= 4.  For (1,10) the normalized volume element is forced
    to act as minus the identity (flipping gamma_0 if necessary)."""
    signature = tuple(signature)
    rep = _REP_CACHE.get(signature)
    if rep is None:
        rep = _REP_CACHE[signature] = _make_rep(signature)
    return rep


def _make_rep(signature):
    t, s = signature
    if signature == (1, 10) or signature == (1, 9):
        octs = _left_mult_spmats(8)
        bs = [_b_block(l) for l in octs]          # eight 16x16 involutions
        omega = bs[0]
        for b in bs[1:]:
            omega = omega @ b
        two = [_E2, _S1, _S3]
        gsets = [g.tensor(omega) for g in two] + [_I2.tensor(b) for b in bs]
        if signature == (1, 9):
            gammas = gsets[:10]
        else:
            gammas = gsets
            vol = gammas[0]
            for g in gammas[1:]:
                vol = vol @ g
            if vol.is_identity():
                gammas = [gammas[0].scale(-1)] + gammas[1:]
            rep = CliffordRep(signature, gammas)
            if not rep.volume_spmat().is_minus_identity():
                raise RuntimeError("(1,10) volume element is not -1")
            return rep
        rep = CliffordRep(signature, gammas)
        if rep.chirality is None or \
                not (rep.chirality @ rep.chirality).is_identity():
            raise RuntimeError("(1,9) chirality does not square to 1")
        return rep
    if signature == (1, 5):
        gammas = [
            _E2.tensor(_I2).tensor(_I2),
            _S1.tensor(_I2).tensor(_I2),
            _S3.tensor(_IE).tensor(_I2),
            _S3.tensor(_S1).tensor(_I2),
            _S3.tensor(_S3).tensor(_IE),
            _S3.tensor(_S3).tensor(_S1),
        ]
        return CliffordRep(signature, gammas, real=False)
    if signature == (1, 2):
        return CliffordRep(signature, [_E2, _S1, _S3])
    if t == 0 and 1 <= s <= 4:
        if s == 1:
            gammas = [SPMat((0,), (1,))]
        elif s == 2:
            gammas = [_S1, _S3]
        elif s == 3:
            gammas = [_S1.tensor(_I2), _S3.tensor(_I2), _E2.tensor(_E2)]
        else:
            quats = _left_mult_spmats(4)
            gammas = [_b_block(l) for l in quats]
        return CliffordRep(signature, gammas)
    raise ValueError(f"unsupported signature {signature}")


# ---------------------------------------------------------------------------
# sparse Clifford elements over a frame Gram matrix
# ---------------------------------------------------------------------------

class FrameAlgebra:
    """Clifford algebra of a frame with Gram matrix G, tied to an orthonormal
    representation through an exact frame map  gamma_a = sum_b M[a][b]
    gammahat_b  with M eta M^T = G."""

    def __init__(self, space, rep, frame_map=None):
        self.space = space
        self.rep = rep
        n = space.dim
        if n != rep.n:
            raise ValueError(f"frame dimension {n} does not match the "
                             f"representation's {rep.n}")
        if frame_map is None:
            frame_map = linalg.eye(n)
        self.frame_map = frame_map
        # M eta M^T - G = sum_b eta_b M[., b] M[., b]^T - G, nonzero entries
        check = {}
        for b, col in enumerate(nonzero_columns(frame_map)):
            for a, x in col:
                for c, y in col:
                    accumulate(check, (a, c), x * y * rep.eta[b])
        for c, col in enumerate(space.metric_cols):
            for a, g in col:
                accumulate(check, (a, c), -g)
        if check:
            raise ValueError("frame map does not reproduce the Gram matrix")
        # bit b of _links[a] is set when a != b are linked, G[a][b] != 0;
        # commutator decides pairs without linked legs by parity
        self._links = [sum(1 << b for b, _ in row if b != a)
                       for a, row in enumerate(space.metric_cols)]
        self._bits_cache = {}
        self._square_cache = {}
        self._mono_cache = {}
        self._bracket_cache = {}
        self._word_cache = {}
        self._matrix_cache = {}
        self._action_cache = {}

    @staticmethod
    def orthonormal(rep, orientation=1):
        g = linalg.eye(rep.n)
        for a in range(rep.t):
            g[a][a] = Scalar(-1)
        space = QuadraticSpace(g, orientation)
        return FrameAlgebra(space, rep)

    @staticmethod
    def lightcone(rep, orientation=1):
        """Frame (e+, e-, e1..e_{n-2}) over the orthonormal representation,
        with gamma_+ = gammahat_{n-1} + gammahat_0 and gamma_- =
        (gammahat_{n-1} - gammahat_0)/2, so B(e+, e-) = 1 and the frame map
        is rational.  The symmetric map (gammahat_{n-1} +- gammahat_0)/sqrt2
        differs from it by a boost, which changes no kernel dimension, trace
        or chirality."""
        n = rep.n
        space = QuadraticSpace.lightcone(n - 2, orientation=orientation)
        half = Scalar.from_rational(1, 2)
        M = linalg.zeros(n, n)
        M[0][n - 1] = _ONE
        M[0][0] = _ONE
        M[1][n - 1] = half
        M[1][0] = -half
        for i in range(n - 2):
            M[2 + i][1 + i] = Scalar(1)
        return FrameAlgebra(space, rep, M)

    # -- monomial product over the Gram matrix ------------------------------

    def mono_mul(self, S, T):
        """gamma_S gamma_T as {monomial: Scalar} (cached)."""
        key = (S, T)
        out = self._mono_cache.get(key)
        if out is not None:
            return out
        acc = {S: _ONE}
        for b in T:
            nxt = {}
            for mono, c in acc.items():
                for m2, c2 in self._insert(mono, b).items():
                    cc = c * c2
                    if m2 in nxt:
                        cc = nxt[m2] + cc
                    if cc.is_zero():
                        nxt.pop(m2, None)
                    else:
                        nxt[m2] = cc
            acc = nxt
        self._mono_cache[key] = acc
        return acc

    def mono_bracket(self, S, T):
        """gamma_S gamma_T - gamma_T gamma_S as {monomial: Scalar} (cached;
        empty when the monomials commute)."""
        key = (S, T)
        out = self._bracket_cache.get(key)
        if out is None:
            out = dict(self.mono_mul(S, T))
            for mono, c in self.mono_mul(T, S).items():
                accumulate(out, mono, -c)
            self._bracket_cache[key] = out
        return out

    def _mono_bits(self, S):
        """(legs of S, legs linked to a leg of S) as bit masks (cached)."""
        bits = self._bits_cache.get(S)
        if bits is None:
            legs = links = 0
            for s in S:
                legs |= 1 << s
                links |= self._links[s]
            bits = self._bits_cache[S] = (legs, links)
        return bits

    def _unlinked_bracket(self, S, T, legs_s, legs_t):
        """gamma_S gamma_T - gamma_T gamma_S for monomials with no linked
        legs s != t, whose exponent |S||T| - |S & T| is odd: the one
        monomial 2 (merge sign) prod_{i in S & T} G_ii gamma_{S ^ T}, or
        nothing when a shared leg is null."""
        shared = legs_s & legs_t
        f = self._square_cache.get(shared)
        if f is None:
            f = Scalar(2)
            for i in S:
                if shared >> i & 1:
                    f = f * self.space.metric[i][i]
            self._square_cache[shared] = f
        if f.is_zero():
            return {}
        # each leg t of T passes the legs of S above it
        if sum((legs_s >> (t + 1)).bit_count() for t in T) & 1:
            f = -f
        return {tuple(sorted(set(S).symmetric_difference(T))): f}

    def _insert(self, S, b):
        """gamma_S gamma_b expanded over monomials."""
        G = self.space.metric
        out = {}
        lst = list(S)
        # move b leftwards from the end until sorted position
        sign = 1
        for pos in range(len(lst), 0, -1):
            s = lst[pos - 1]
            if s < b:
                mono = tuple(lst[:pos] + [b] + lst[pos:])
                accumulate(out, mono, Scalar(sign))
                return out
            # contraction 2 G(s,b), with current sign
            g = G[s][b]
            if not g.is_zero():
                mono = tuple(lst[:pos - 1] + lst[pos:])
                accumulate(out, mono, Scalar(2 * sign) * g)
            if s == b:
                # gamma_b gamma_b handled via contraction minus recursion:
                # gamma_s gamma_b = 2G - gamma_b gamma_s kills the repeated leg
                rest = tuple(lst[:pos - 1] + lst[pos:])
                accumulate(out, rest, Scalar(-sign) * G[b][b])
                return out
            sign = -sign
        mono = tuple([b] + lst)
        accumulate(out, mono, Scalar(sign))
        return out

    # -- realization --------------------------------------------------------

    def mono_words(self, S):
        """gamma_S (frame monomial) expanded over orthonormal words, as
        {word: coefficient} (cached)."""
        words = self._word_cache.get(S)
        if words is not None:
            return words
        n = self.rep.n
        # expand each frame generator into orthonormal ones and reduce
        terms = {(): _ONE}
        eta = self.rep.eta
        for a in S:
            nxt = {}
            row = self.frame_map[a]
            for word, c in terms.items():
                for b in range(n):
                    if row[b].is_zero():
                        continue
                    w2, sgn, contract = _reduce_word(word, b, eta)
                    if w2 is None:
                        continue
                    cc = c * (row[b] * sgn if contract is None
                              else row[b] * sgn * contract)
                    if w2 in nxt:
                        cc = nxt[w2] + cc
                    if cc.is_zero():
                        nxt.pop(w2, None)
                    else:
                        nxt[w2] = cc
            terms = nxt
        self._word_cache[S] = terms
        return terms

    def word_matrix(self, word):
        """The orthonormal word gammahat_{b1}...gammahat_{bk} as an SPMat
        (cached)."""
        sp = self._matrix_cache.get(word)
        if sp is None:
            sp = SPMat.identity(self.rep.spinor_dim)
            for b in word:
                sp = sp @ self.rep.gammas[b]
            self._matrix_cache[word] = sp
        return sp

    def raised_gamma(self, a):
        """c(e^a): the frame gamma with index raised by the inverse Gram."""
        return CliffordElement(
            self, {(b,): g for b, g in self.space.inverse_cols[a]})

    def element(self, comps=None):
        return CliffordElement(self, comps or {})

    def identity(self):
        return CliffordElement(self, {(): _ONE})


def _reduce_word(word, b, eta):
    """Multiply the reduced orthonormal word by gammahat_b on the right.

    Orthonormal words are strictly increasing tuples; eta is diagonal, so
    the reduction yields a single word with a sign and possibly an eta
    contraction factor.  Returns (word, sign, contraction|None)."""
    lst = list(word)
    sign = 1
    for pos in range(len(lst), 0, -1):
        s = lst[pos - 1]
        if s == b:
            return tuple(lst[:pos - 1] + lst[pos:]), sign, eta[b]
        if s < b:
            return tuple(lst[:pos] + [b] + lst[pos:]), sign, None
        sign = -sign
    return tuple([b] + lst), sign, None


class CliffordElement:
    """Sparse sum of frame gamma monomials with exact coefficients."""

    __slots__ = ("alg", "comps")

    def __init__(self, alg, comps=None):
        self.alg = alg
        self.comps = {}
        if comps:
            for k, c in comps.items():
                if not c.is_zero():
                    self.comps[tuple(k)] = c

    def is_zero(self):
        return not self.comps

    def __add__(self, other):
        if isinstance(other, CliffordElement):
            comps = dict(self.comps)
            for k, c in other.comps.items():
                accumulate(comps, k, c)
            return CliffordElement(self.alg, comps)
        return NotImplemented

    def __neg__(self):
        return CliffordElement(self.alg, {k: -c for k, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return CliffordElement(self.alg, {k: v * c for k, v in self.comps.items()})

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return self.scale(other)
        comps = {}
        for s, cs in self.comps.items():
            for t, ct in other.comps.items():
                c = cs * ct
                for mono, f in self.alg.mono_mul(s, t).items():
                    accumulate(comps, mono, c * f)
        return CliffordElement(self.alg, comps)

    __rmul__ = scale

    def commutator(self, other):
        """[self, other], one coefficient product per non-commuting pair of
        monomials.

        A pair gamma_S, gamma_T with no linked legs s != t (G[s][t] = 0)
        obeys gamma_S gamma_T = (-1)^(|S||T| - |S & T|) gamma_T gamma_S: an
        even exponent commutes and is skipped, an odd one brackets to a
        single monomial (FrameAlgebra._unlinked_bracket).  Only a linked
        pair, in a lightcone frame one with e+ on one side and e- on the
        other, expands through the cached mono_bracket."""
        alg = self.alg
        right = [(t, ct, alg._mono_bits(t)[0])
                 for t, ct in other.comps.items()]
        comps = {}
        for s, cs in self.comps.items():
            legs_s, links_s = alg._mono_bits(s)
            for t, ct, legs_t in right:
                if links_s & legs_t:
                    br = alg.mono_bracket(s, t)
                elif (len(s) * len(t) - (legs_s & legs_t).bit_count()) & 1:
                    br = alg._unlinked_bracket(s, t, legs_s, legs_t)
                else:
                    continue
                if not br:
                    continue
                c = cs * ct
                for mono, f in br.items():
                    accumulate(comps, mono, c * f)
        return CliffordElement(self.alg, comps)

    def partial(self, var):
        return CliffordElement(self.alg, {k: coeff_partial(c, var)
                                          for k, c in self.comps.items()})

    def subs(self, values):
        def sub(c):
            if isinstance(c, Polynomial):
                out = c.subs(values)
                return out.constant_value() if out.is_constant() else out
            if isinstance(c, ComplexScalar):
                return ComplexScalar(sub(c.re), sub(c.im))
            return c
        return CliffordElement(self.alg, {k: sub(c) for k, c in self.comps.items()})

    def words(self):
        """The element over orthonormal words, as a list of (coefficient,
        SPMat) with one entry per word whose coefficient is nonzero."""
        merged = {}
        for mono, c in self.comps.items():
            for word, w in self.alg.mono_words(mono).items():
                accumulate(merged, word, c * w)
        return [(c, self.alg.word_matrix(word)) for word, c in merged.items()]

    def apply(self, spinor):
        """The image of a sparse spinor {index: component}, in the same form
        (zero components are left out)."""
        out = {}
        for c, sp in self.words():
            perm, vals = sp.perm, sp.vals
            for j, x in spinor.items():
                accumulate(out, perm[j], _unit_scale(c * x, vals[j]))
        return out

    def realize(self):
        """Dense spinor_dim x spinor_dim matrix (entries keep the coefficient
        ring of the element)."""
        N = self.alg.rep.spinor_dim
        one, zero = _units(self.alg)
        out = [[zero] * N for _ in range(N)]
        for j in range(N):
            for i, x in self.apply({j: one}).items():
                out[i][j] = x
        return out

    def trace(self):
        """Each word adds its coefficient times the units at the fixed
        points of its signed permutation."""
        t = _units(self.alg)[1]
        for c, sp in self.words():
            for j, (p, u) in enumerate(zip(sp.perm, sp.vals)):
                if p == j:
                    t = t + _unit_scale(c, u)
        return t

    def __str__(self):
        if not self.comps:
            return "0"
        names = self.alg.space.names
        return " + ".join(
            f"({c}) g[{','.join(names[i] for i in k)}]" if k else f"({c}) 1"
            for k, c in sorted(self.comps.items()))

    __repr__ = __str__


def _unit_scale(x, u):
    """x times a unit of a signed permutation (+-1 or ComplexScalar)."""
    if isinstance(u, int):
        return x if u == 1 else -x
    return u * x


def _units(alg):
    """(one, zero) of the representation's scalar ring."""
    if alg.rep.real:
        return _ONE, _Z
    return ComplexScalar(1, 0), ComplexScalar(0, 0)


# ---------------------------------------------------------------------------
# Clifford action of forms
# ---------------------------------------------------------------------------

def clifford_action(omega, alg):
    """c: exterior algebra -> End(S) with c(e^{a1}^...^e^{ak}) the
    antisymmetrized product of raised gammas; on orthogonal products this is
    the plain matrix product.  Accepts a KForm on alg.space."""
    if omega.space is not alg.space:
        raise ValueError("form lives on a different frame")
    out = alg.element()
    for idx, c in omega.components.items():
        out = out + _action_basis(alg, idx).scale(c)
    return out


def _action_basis(alg, idx):
    """c(e^{idx}) via the recursion c(a ^ beta) = c(a) c(beta) - c(iota_{a#} beta)."""
    cached = alg._action_cache.get(idx)
    if cached is not None:
        return cached
    if len(idx) == 0:
        out = alg.identity()
    elif len(idx) == 1:
        out = alg.raised_gamma(idx[0])
    else:
        a, rest = idx[0], idx[1:]
        beta = KForm.basis(alg.space, *rest)
        sharp = alg.space.metric_inv[a]
        inner = interior(list(sharp), beta)
        out = alg.raised_gamma(a) * _action_basis(alg, rest) \
            - clifford_action(inner, alg)
    alg._action_cache[idx] = out
    return out


def omega_xf(X, F, alg):
    """Supercovariant flux term of eleven-dimensional supergravity:
    Omega_X(F) = 1/12 c(X_flat ^ F) - 1/6 c(iota_X F)."""
    term1 = clifford_action(wedge(flat(alg.space, X), F), alg)
    term2 = clifford_action(interior(X, F), alg)
    return term1.scale(Scalar.from_rational(1, 12)) \
        - term2.scale(Scalar.from_rational(1, 6))


# ---------------------------------------------------------------------------
# spinor bilinears and kernels
# ---------------------------------------------------------------------------

def spinor_to_vector(eps1, eps2, alg):
    """V^a with g(V, X) = (eps1, X . eps2); indices raised with the Gram."""
    C = alg.rep.gammas[0]           # the pairing matrix, as a signed perm
    n = alg.space.dim
    psi = _sparse(eps2)
    V_low = []
    for a in range(n):
        # gamma_a in the frame: c of the *lowered* basis vector e_a
        s = _Z
        for j, x in alg.element({(a,): _ONE}).apply(psi).items():
            p, u = C.column(j)
            if not eps1[p].is_zero():
                s = s + eps1[p] * _unit_scale(x, u)
        V_low.append(s)
    return [sum((g * V_low[b] for b, g in row), _Z)
            for row in alg.space.inverse_cols]


def _sparse(col):
    """A dense spinor as {index: component}."""
    return {i: x for i, x in enumerate(col) if not x.is_zero()}


def kernel_dim(ops, alg, columns=None):
    """Joint kernel of a list of CliffordElements.  Polynomial coefficients
    are handled by demanding that every coordinate-monomial part of each
    operator annihilates the spinor.  Returns (dimension, basis_vectors).
    `columns` restricts to the subspace spanned by the given dense column
    vectors (e.g. a chiral half); basis vectors are then coordinates on
    those columns.

    Each part's rows come from one pass over its orthonormal words and stay
    sparse until the elimination; a row that repeats an earlier one up to a
    factor adds nothing to the row space and is dropped."""
    N = alg.rep.spinor_dim
    one, zero = _units(alg)
    if columns is None:
        cols = [{j: one} for j in range(N)]
    else:
        cols = [_sparse(c) for c in columns]
    ncols = len(cols)
    rows, seen = [], {}
    for op in ops:
        for part in _coordinate_parts(op):
            block = {}
            for c, sp in part.words():
                perm, vals = sp.perm, sp.vals
                for k, col in enumerate(cols):
                    for j, x in col.items():
                        accumulate(block.setdefault(perm[j], {}), k,
                                   _unit_scale(c if x is one else c * x,
                                               vals[j]))
            for row in block.values():
                if row and _new_direction(
                        row, seen.setdefault(frozenset(row), [])):
                    rows.append([row.get(k, zero) for k in range(ncols)])
    basis = linalg.nullspace(rows, ncols=ncols, one=one, zero=zero)
    return len(basis), basis


def _new_direction(row, same_support):
    """Whether a nonzero sparse row is a multiple of none of the rows in
    same_support, which have the same columns; if so it is added there.
    A factor of +-1, the common one, is tested without multiplying."""
    k0 = next(iter(row))
    a = row[k0]
    for other in same_support:
        b = other[k0]
        if a == b:
            same = all(x == other[k] for k, x in row.items())
        elif a == -b:
            same = all(x == -other[k] for k, x in row.items())
        else:
            same = all(x * b == other[k] * a for k, x in row.items())
        if same:
            return False
    same_support.append(row)
    return True


def _coordinate_parts(op):
    """The constant elements E_m with op = sum_m x^m E_m, one per coordinate
    monomial x^m of the coefficients."""
    parts = {}
    for mono, c in op.comps.items():
        for key, k in _coeff_terms(c).items():
            accumulate(parts.setdefault(key, {}), mono, k)
    return [CliffordElement(op.alg, p) for p in parts.values()]


def _coeff_terms(c):
    """{coordinate monomial: constant} of a Scalar, Polynomial or
    ComplexScalar coefficient; a monomial is its sorted ((var, exp), ...)
    with the zero exponents left out."""
    if isinstance(c, Polynomial):
        return {tuple((v, e) for v, e in zip(c.vars, exp) if e): k
                for exp, k in c.terms.items()}
    if isinstance(c, ComplexScalar):
        re, im = _coeff_terms(c.re), _coeff_terms(c.im)
        return {key: ComplexScalar(re.get(key, _Z), im.get(key, _Z))
                for key in {**re, **im}}
    return {} if c.is_zero() else {(): c}


def chiral_basis(alg, sign):
    """Exact basis of the +-1 chirality eigenspace (even-dimensional reps),
    as dense column vectors."""
    chi = alg.rep.chirality
    if chi is None:
        raise ValueError("representation has no chirality operator")
    N = alg.rep.spinor_dim
    real = alg.rep.real
    one, zero = _units(alg)
    s = Scalar(sign) if real else ComplexScalar(sign, 0)
    out = []
    for j in range(N):
        p, v = chi.column(j)
        if p < j:
            continue            # the pair (p, j) was tried from p
        # chi e_j = v e_p, so e_j + (sign / v) e_p when p != j
        col = {j: one}
        if p != j:
            col[p] = s * _unit_to_coeff(v, real).inverse()
        img = {}
        for i, x in col.items():
            q, u = chi.column(i)
            accumulate(img, q, _unit_scale(x, u))
        if img.keys() == col.keys() and \
                all((img[i] - s * x).is_zero() for i, x in col.items()):
            out.append([col.get(i, zero) for i in range(N)])
    if len(out) != N // 2:
        raise RuntimeError("chiral split must halve the spinor space")
    return out
