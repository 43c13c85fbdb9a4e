"""Exact Clifford algebra representations and the Clifford action of forms.

Gamma matrices for the two signatures that the verifiers use, (1,10) and
(1,9), are built from tensor products of 2x2 real blocks {1, s1, s3, eps}
together with octonion left-multiplication matrices, so every entry is 0
or +-1.  They are stored as signed permutations.

Computations with spinor endomorphisms happen in a sparse basis of
antisymmetrized frame monomials gamma_[S] = gamma_[s1...sk], indexed by
sorted tuples of frame indices, over the frame Gram matrix (which may pair
lightcone legs off-diagonally).  In this basis the Clifford action of a
form raises its indices, c(e^S) = gamma^[S], and a product is Wick's rule:
one term per set of contractions G[s][t] between the two monomials
(docs/conventions.md).  The same terms with a parity rule give the
bracket.

A frame is tied to the orthonormal gammas by a rational frame map; the
lightcone one sends gamma_+ to gammahat_{n-1} + gammahat_0 and gamma_- to
half their difference, so no square root enters a coefficient.  Distinct
orthonormal gammas anticommute, so gamma_[S] maps slot by slot to
orthonormal words.

Elements act on sparse spinors ({index: component}) through their
orthonormal words, each a coefficient times a signed permutation, with the
words of all monomials merged.  A kernel's rows come from one pass over the
words as sparse integer pairs A + B sqrt(d), eliminated fraction-free over
the nonzero entries only; Scalars appear only in the kernel basis, and no
dense spinor_dim x spinor_dim matrix is built.  realize() builds one only
for callers that ask for it.
"""

from .exactnum import Scalar, ComplexScalar, ZERO, ONE
from .multilinear import QuadraticSpace, interior, wedge, accumulate, flat, \
    map_slots, nonzero_columns, _merge_sign
from . import linalg

__all__ = ["ComplexScalar", "CliffordRep", "build_gamma", "FrameAlgebra",
           "CliffordElement", "clifford_action", "omega_xf", "kernel_dim"]

_Z = ZERO
_ONE = ONE
_TWO = Scalar(2)


# ---------------------------------------------------------------------------
# signed permutation matrices (entries one nonzero unit per column)
# ---------------------------------------------------------------------------

class SPMat:
    """M e_j = val[j] e_{perm[j]} with unit values +-1."""

    __slots__ = ("perm", "vals")

    def __init__(self, perm, vals):
        self.perm = tuple(perm)
        self.vals = tuple(vals)

    @staticmethod
    def identity(n):
        return SPMat(range(n), [1] * n)

    def __matmul__(self, other):
        perm = tuple(self.perm[p] for p in other.perm)
        vals = tuple(self.vals[p] * v for p, v in zip(other.perm, other.vals))
        return SPMat(perm, vals)

    def scale(self, s):
        return SPMat(self.perm, tuple(v * s for v in self.vals))

    def tensor(self, other):
        n2 = len(other.perm)
        perm, vals = [], []
        for i, (pi, vi) in enumerate(zip(self.perm, self.vals)):
            for j, (pj, vj) in enumerate(zip(other.perm, other.vals)):
                perm.append(pi * n2 + pj)
                vals.append(vi * vj)
        return SPMat(perm, vals)

    def dense(self):
        n = len(self.perm)
        out = [[_Z] * n for _ in range(n)]
        for j, (p, v) in enumerate(zip(self.perm, self.vals)):
            out[p][j] = Scalar(v)
        return out

    def column(self, j):
        return self.perm[j], self.vals[j]

    def __eq__(self, other):
        return self.perm == other.perm and self.vals == other.vals

    def is_minus_identity(self):
        return self.perm == tuple(range(len(self.perm))) and \
            all(v == -1 for v in self.vals)

    def is_identity(self):
        return self.perm == tuple(range(len(self.perm))) and \
            all(v == 1 for v in self.vals)


_E2 = SPMat((1, 0), (-1, 1))          # eps = [[0,1],[-1,0]]
_S1 = SPMat((1, 0), (1, 1))           # sigma_1
_S3 = SPMat((0, 1), (1, -1))          # sigma_3
_I2 = SPMat.identity(2)


# ---------------------------------------------------------------------------
# octonion left multiplications
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


def _left_mult_spmats():
    """Signed-permutation matrices of left multiplication by the basis
    units of the octonions."""
    table = _octonion_table()
    mats = []
    for a in range(8):
        perm, vals = [0] * 8, [0] * 8
        for j in range(8):
            s, k = table[a][j]
            perm[j] = k
            vals[j] = s
        mats.append(SPMat(perm, vals))
    return mats


def _b_block(l):
    """[[0, L],[L^T, 0]] as a signed permutation on doubled space."""
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

    def __init__(self, signature, gammas):
        self.signature = signature
        self.t, self.s = signature
        self.n = self.t + self.s
        self.gammas = gammas
        self.spinor_dim = len(gammas[0].perm)
        self.eta = [Scalar(-1)] * self.t + [Scalar(1)] * self.s
        self._check_relations()
        self.chiral_halves = {}     # sign: chiral_basis, built on first use
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
                        if p != j or v != int(want.rational_value()):
                            raise RuntimeError(f"gamma_{a}^2 != eta")
                else:
                    for j in range(n):
                        pa, va = ab.column(j)
                        pb, vb = ba.column(j)
                        if pa != pb or va != -vb:
                            raise RuntimeError(
                                f"gamma_{a} gamma_{b} not anticommuting")

    def gamma_dense(self, a):
        return self.gammas[a].dense()

    def volume_spmat(self):
        vol = self.gammas[0]
        for g in self.gammas[1:]:
            vol = vol @ g
        return vol


_REP_CACHE = {}


def build_gamma(signature):
    """Exact Clifford representation for (1,10) or (1,9), the signatures of
    d=11 and type-II supergravity; ValueError for any other.  For (1,10)
    the normalized volume element is forced to act as minus the identity
    (flipping gamma_0 if necessary)."""
    signature = tuple(signature)
    rep = _REP_CACHE.get(signature)
    if rep is None:
        rep = _REP_CACHE[signature] = _make_rep(signature)
    return rep


def _make_rep(signature):
    if signature not in ((1, 10), (1, 9)):
        raise ValueError(f"unsupported signature {signature}")
    octs = _left_mult_spmats()
    bs = [_b_block(l) for l in octs]          # eight 16x16 involutions
    omega = bs[0]
    for b in bs[1:]:
        omega = omega @ b
    two = [_E2, _S1, _S3]
    gammas = [g.tensor(omega) for g in two] + [_I2.tensor(b) for b in bs]
    if signature == (1, 9):
        rep = CliffordRep(signature, gammas[:10])
        if rep.chirality is None or \
                not (rep.chirality @ rep.chirality).is_identity():
            raise RuntimeError("(1,9) chirality does not square to 1")
        return rep
    vol = gammas[0]
    for g in gammas[1:]:
        vol = vol @ g
    if vol.is_identity():
        gammas = [gammas[0].scale(-1)] + gammas[1:]
    rep = CliffordRep(signature, gammas)
    if not rep.volume_spmat().is_minus_identity():
        raise RuntimeError("(1,10) volume element is not -1")
    return rep


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
        # bit b of _partners[a] is set when G[a][b] != 0
        self._partners = [sum(1 << b for b, _ in row)
                          for row in space.metric_cols]
        # contractions G[s][t] != 0 of each leg s, with None for a unit entry
        self._contractions = [[(t, None if g == 1 else g) for t, g in row]
                              for row in space.metric_cols]
        self._frame_rows = nonzero_columns(linalg.transpose(frame_map))
        self._bits_cache = {}
        self._mono_cache = {}
        self._bracket_cache = {}
        self._word_cache = {}
        self._matrix_cache = {}

    @staticmethod
    def orthonormal(rep):
        return FrameAlgebra(QuadraticSpace.minkowski(rep.n), rep)

    @staticmethod
    def lightcone(rep):
        """Frame (e+, e-, e1..e_{n-2}) over the orthonormal representation,
        with gamma_+ = gammahat_{n-1} + gammahat_0 and gamma_- =
        (gammahat_{n-1} - gammahat_0)/2, so B(e+, e-) = 1 and the frame map
        is rational.  The symmetric map (gammahat_{n-1} +- gammahat_0)/sqrt2
        differs from it by a boost, which changes no kernel dimension, trace
        or chirality."""
        n = rep.n
        space = QuadraticSpace.lightcone(n - 2)
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
        """gamma_[S] gamma_[T] as {monomial: Scalar}, by Wick's rule
        (cached)."""
        key = (S, T)
        out = self._mono_cache.get(key)
        if out is None:
            out = self._mono_cache[key] = self._wick(S, T)
        return out

    def mono_bracket(self, S, T):
        """gamma_[S] gamma_[T] - gamma_[T] gamma_[S] as {monomial: Scalar}
        (cached; empty when the monomials commute).  gamma_[T] gamma_[S] is
        Wick's sum for gamma_[S] gamma_[T] with its j-contraction terms
        times (-1)^(|S||T| - j), so the bracket is twice the terms with
        |S||T| - j odd."""
        key = (S, T)
        out = self._bracket_cache.get(key)
        if out is None:
            out = self._bracket_cache[key] = \
                self._wick(S, T, (len(S) * len(T) + 1) & 1)
        return out

    def _wick(self, S, T, parity=None):
        """Wick's rule for gamma_[S] gamma_[T], as {monomial: Scalar}.

        Each set of j contractions, a leg s of S paired with a leg t of T
        and weighted G[s][t], whose remaining legs are distinct gives one
        term: the product of the weights times gamma_[remaining legs], with
        the sign that brings every contracted pair together and then the
        remaining legs into order.  The legs of S are walked in order; one
        also in T whose only partner is itself must be contracted, or the
        term is zero.  With a parity, only the terms whose j has it are
        kept, doubled (mono_bracket)."""
        rows, partners = self._contractions, self._partners
        states = [(T, (), 1, None, 0)]   # (rest of T, kept legs of S, ...)
        for i, s in enumerate(S):
            passed = len(S) - 1 - i      # legs of S that s moves past
            nxt = []
            for rest, kept, sign, factor, j in states:
                if not (partners[s] == 1 << s and s in rest):
                    nxt.append((rest, kept + (s,), sign, factor, j))
                for t, g in rows[s]:
                    if t not in rest:
                        continue
                    q = rest.index(t)    # legs of T that t moves past
                    nxt.append((rest[:q] + rest[q + 1:], kept,
                                -sign if (passed + q) & 1 else sign,
                                factor if g is None else
                                g if factor is None else factor * g, j + 1))
            states = nxt
        out = {}
        for rest, kept, sign, factor, j in states:
            if parity is not None:
                if (j ^ parity) & 1:
                    continue
                sign *= 2
            merge, mono = _merge_sign(kept, rest)
            if merge:
                c = Scalar(sign * merge)
                accumulate(out, mono, c if factor is None else c * factor)
        return out

    def _mono_bits(self, S):
        """(legs of S, partners of the legs of S) as bit masks (cached)."""
        bits = self._bits_cache.get(S)
        if bits is None:
            legs = partners = 0
            for s in S:
                legs |= 1 << s
                partners |= self._partners[s]
            bits = self._bits_cache[S] = (legs, partners)
        return bits

    # -- realization --------------------------------------------------------

    def mono_words(self, S):
        """gamma_[S] over orthonormal words, as {word: coefficient}
        (cached): each leg maps through its row of the frame map, and
        distinct orthonormal gammas anticommute, so gammahat_[B] is the
        signed word of sorted B."""
        words = self._word_cache.get(S)
        if words is None:
            words = self._word_cache[S] = map_slots({S: _ONE},
                                                    self._frame_rows)
        return words

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


class CliffordElement:
    """Sparse sum of antisymmetrized frame monomials gamma_[S] with exact
    coefficients, comps = {sorted S: coefficient}."""

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
        monomials: twice the Wick terms with |S||T| - j odd
        (FrameAlgebra.mono_bracket).  A pair with no contractible leg (no
        s in S and t in T with G[s][t] != 0) has only the j = 0 term, so it
        brackets to 2 gamma_[S u T] when |S||T| is odd and the legs are
        disjoint, and to nothing otherwise."""
        alg = self.alg
        right = [(t, ct, alg._mono_bits(t)[0])
                 for t, ct in other.comps.items()]
        comps = {}
        for s, cs in self.comps.items():
            legs_s, partners_s = alg._mono_bits(s)
            for t, ct, legs_t in right:
                if partners_s & legs_t:
                    terms = alg.mono_bracket(s, t).items()
                    if not terms:
                        continue
                elif len(s) * len(t) & 1 and not legs_s & legs_t:
                    sign, mono = _merge_sign(s, t)
                    terms = ((mono, _TWO if sign > 0 else -_TWO),)
                else:
                    continue
                c = cs * ct
                for mono, f in terms:
                    accumulate(comps, mono, c * f)
        return CliffordElement(self.alg, comps)

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
        out = [[_Z] * N for _ in range(N)]
        for j in range(N):
            for i, x in self.apply({j: _ONE}).items():
                out[i][j] = x
        return out

    def trace(self):
        """Each word adds its coefficient times the units at the fixed
        points of its signed permutation."""
        t = _Z
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
    """x times a unit +-1 of a signed permutation."""
    return x if u == 1 else -x


# ---------------------------------------------------------------------------
# Clifford action of forms
# ---------------------------------------------------------------------------

def clifford_action(omega, alg):
    """c: exterior algebra -> End(S) with c(e^{a1}^...^e^{ak}) the
    antisymmetrized product of raised gammas, gamma^[a1...ak]: the
    components of omega with every index raised through the nonzero
    inverse-Gram entries.  Accepts a KForm on alg.space."""
    if omega.space is not alg.space:
        raise ValueError("form lives on a different frame")
    return CliffordElement(alg, map_slots(omega.components,
                                          alg.space.inverse_cols))


def omega_xf(X, F, alg):
    """Supercovariant flux term of eleven-dimensional supergravity:
    Omega_X(F) = 1/12 c(X_flat ^ F) - 1/6 c(iota_X F)."""
    term1 = clifford_action(wedge(flat(alg.space, X), F), alg)
    term2 = clifford_action(interior(X, F), alg)
    return term1.scale(Scalar.from_rational(1, 12)) \
        - term2.scale(Scalar.from_rational(1, 6))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernel_dim(ops, alg, columns=None):
    """Joint kernel of a list of CliffordElements with exact (rational or
    complex rational) coefficients.  Returns (dimension, basis_vectors).
    `columns` restricts to the subspace spanned by the given sparse column
    vectors ({index: +-1}, e.g. a chiral half; any other entry is a
    ValueError); basis vectors are then coordinates on those columns.

    Each operator's coefficients are scaled once to primitive integer pairs
    A + B sqrt(d) (which keeps its kernel), and a word moves each column
    entry with a sign, so the rows are {column: (A, B)} sums of +-(A, B),
    eliminated fraction-free; Scalars appear only in the basis.  Operators
    outside one quadratic field take Scalar rows and linalg.nullspace."""
    if columns is None:
        columns = [{j: _ONE} for j in range(alg.rep.spinor_dim)]
    ncols = len(columns)
    entries = []                    # (column, spinor index, sign)
    for k, col in enumerate(columns):
        for j, x in col.items():
            s = 1 if x is _ONE or x == 1 else -1 if x == -1 else 0
            if not s:
                raise ValueError(f"kernel column {k} has entry {x}, not +-1")
            entries.append((k, j, s))
    words = [op.words() for op in ops]
    d = linalg._quadratic_radicand([[c for c, _ in w] for w in words])
    rows = []
    if d is None:
        for op in ops:
            images = [op.apply(col) for col in columns]
            rows += [[img.get(i, _Z) for img in images]
                     for i in range(alg.rep.spinor_dim)]
        basis = linalg.nullspace(rows, ncols=ncols)
        return len(basis), basis
    for w in words:
        block = {}
        for t, pos in linalg._integer_row([c for c, _ in w], d).items():
            neg = (-pos[0], -pos[1])
            perm, vals = w[t][1].perm, w[t][1].vals
            for k, j, s in entries:
                row = block.setdefault(perm[j], {})
                e = pos if vals[j] == s else neg
                x = row.get(k)
                row[k] = e if x is None else (x[0] + e[0], x[1] + e[1])
        rows += ({k: e for k, e in row.items() if e[0] or e[1]}
                 for row in block.values())
    basis = linalg._integer_basis(
        *linalg._eliminate_integer(rows, ncols, d), ncols, d)
    return len(basis), basis


def chiral_basis(alg, sign):
    """Exact basis of the +-1 chirality eigenspace (even-dimensional reps),
    as a tuple of sparse columns {index: +-1}.  It is built and checked on
    first use and then held on the representation."""
    rep = alg.rep
    half = rep.chiral_halves.get(sign)
    if half is not None:
        return half
    chi = rep.chirality
    if chi is None:
        raise ValueError("representation has no chirality operator")
    N = rep.spinor_dim
    s = Scalar(sign)
    out = []
    for j in range(N):
        p, v = chi.column(j)
        if p < j:
            continue            # the pair (p, j) was tried from p
        # chi e_j = v e_p, so e_j + (sign / v) e_p when p != j; v = +-1
        col = {j: _ONE}
        if p != j:
            col[p] = s if v == 1 else -s
        img = {}
        for i, x in col.items():
            q, u = chi.column(i)
            accumulate(img, q, _unit_scale(x, u))
        if img.keys() == col.keys() and \
                all((img[i] - s * x).is_zero() for i, x in col.items()):
            out.append(col)
    if len(out) != N // 2:
        raise RuntimeError("chiral split must halve the spinor space")
    half = rep.chiral_halves[sign] = tuple(out)
    return half
