"""Exterior algebra over a fixed quadratic space.

KForms live on a QuadraticSpace: a finite-dimensional real vector space with
an exact symmetric invertible Gram matrix (not necessarily diagonal -- the
lightcone frames used for plane waves pair e+ with e-) and an orientation.
Coefficients may be Scalar or Polynomial; the same code serves algebraic
frames and coordinate patches.

Conventions (see docs/conventions.md):
  * interior product iota_v pairs a vector (given in frame components)
    against the first slot, no metric involved;
  * <a,b> on k-forms is the sum over increasing index tuples with indices
    raised by the inverse Gram (Gram determinants for non-diagonal frames);
  * hodge(a) is defined by  b ^ *a = <b,a> vol  with
    vol = sqrt(|det g|) e^1^...^e^n in the oriented frame order;
  * Kulkarni-Nomizu: (h . k)(X,Y,Z,W) = h(X,W)k(Y,Z) + h(Y,Z)k(X,W)
    - h(X,Z)k(Y,W) - h(Y,W)k(X,Z), so the unit round sphere has
    Riem = 1/2 g . g with sectional curvature +1.
"""

from itertools import combinations

from .exactnum import Scalar, ZERO, ONE, sqrt_scalar
from . import linalg

__all__ = ["QuadraticSpace", "KForm", "BiSymTensor", "wedge", "interior",
           "interior_frame", "hodge", "form_inner", "contraction_inners",
           "basis_contractions", "flat", "map_slots", "nonzero_columns",
           "kulkarni_nomizu", "crossed_inners", "plucker_check",
           "covector_action", "derivation_action", "lambda_action",
           "sort_sign",
           "form_component", "signature", "accumulate"]

_Z = ZERO


class QuadraticSpace:
    """Frame data: dimension, exact Gram matrix, orientation sign.

    Entries are usually Scalars; a coordinate patch may carry Polynomial
    entries, in which case the exact inverse must be supplied (and is
    verified), as the fixed frames below supply theirs.  metric_cols and
    inverse_cols are nonzero_columns of the Gram and inverse-Gram matrices,
    found once; both are symmetric, so these are their rows too, and every
    raise, lower and frame check walks them."""

    def __init__(self, metric, orientation=1, names=None, inverse=None):
        self.dim = len(metric)
        if not (1 <= self.dim <= 13):
            raise ValueError("quadratic spaces support dimensions 1..13")
        self.metric = [list(row) for row in metric]
        self.metric_cols = nonzero_columns(self.metric)
        # an asymmetric pair has a nonzero entry whose mirror differs
        for j, col in enumerate(self.metric_cols):
            for i, g in col:
                if not (self.metric[j][i] - g).is_zero():
                    raise ValueError("metric must be symmetric")
        self.metric_inv = linalg.inverse(self.metric) if inverse is None \
            else [list(row) for row in inverse]
        self.inverse_cols = nonzero_columns(self.metric_inv)
        if inverse is not None:
            prod = {}               # g g^{-1} - 1 over the nonzero entries
            for j, col in enumerate(self.inverse_cols):
                for k, x in col:
                    for i, gik in self.metric_cols[k]:
                        accumulate(prod, (i, j), gik * x)
                accumulate(prod, (j, j), -ONE)
            if prod:
                raise ValueError("supplied inverse is not exact")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.orientation = orientation
        self.names = tuple(names) if names else tuple(f"e{i}" for i in range(self.dim))
        self._signature = None
        self._volume_coeff = None
        self._gram_cache = {}

    @staticmethod
    def euclidean(n, orientation=1):
        g = linalg.eye(n)
        return QuadraticSpace(g, orientation, inverse=g)

    @staticmethod
    def minkowski(n, orientation=1):
        """Mostly-plus frame (-,+,...,+) with the timelike leg first."""
        g = linalg.eye(n)
        g[0][0] = Scalar(-1)
        return QuadraticSpace(g, orientation, inverse=g)

    @staticmethod
    def lightcone(n_transverse, extra=None, orientation=1):
        """Frame (e+, e-, e1..ek, [extra diagonal legs]) with B(e+,e-) = 1."""
        n = 2 + n_transverse + (len(extra) if extra else 0)
        g = linalg.zeros(n, n)
        g[0][1] = g[1][0] = Scalar(1)
        for i in range(n_transverse):
            g[2 + i][2 + i] = Scalar(1)
        inv = [row[:] for row in g]
        for k, s in enumerate(extra or (), 2 + n_transverse):
            g[k][k] = Scalar(s)
            inv[k][k] = g[k][k].inverse()
        names = ["e+", "e-"] + [f"e{i+1}" for i in range(n_transverse)]
        if extra:
            names += [f"f{i+1}" for i in range(len(extra))]
        return QuadraticSpace(g, orientation, names, inverse=inv)

    def signature(self):
        if self._signature is None:
            self._signature = signature(self.metric)
        return self._signature

    def volume_coeff(self):
        """sqrt(|det g|) as an exact Scalar (must lie in the flat tower;
        polynomial metrics must have constant determinant)."""
        if self._volume_coeff is None:
            d = linalg.det_nodiv(self.metric)
            if not isinstance(d, Scalar):
                d = d.constant_value()
            if d.sign() < 0:
                d = -d
            self._volume_coeff = sqrt_scalar(d)
        return self._volume_coeff

    def volume_form(self):
        c = self.volume_coeff()
        if self.orientation < 0:
            c = -c
        return KForm(self, self.dim, {tuple(range(self.dim)): c})

    def gram_minor(self, rows, cols):
        """det of the inverse-metric minor <e^rows, e^cols> (cached;
        division-free so polynomial inverse metrics work)."""
        key = (rows, cols)
        if key not in self._gram_cache:
            m = [[self.metric_inv[i][j] for j in cols] for i in rows]
            self._gram_cache[key] = linalg.det_nodiv(m) if m else Scalar(1)
        return self._gram_cache[key]

    def __repr__(self):
        t, s = self.signature()
        return f"QuadraticSpace(dim={self.dim}, signature=({t},{s}))"


def signature(metric):
    """(t, s) of a constant symmetric matrix, t timelike directions,
    computed exactly by recursive congruence diagonalization."""
    g = [list(r) for r in metric]
    n = len(g)
    t = s = 0
    idx = list(range(n))
    while idx:
        # find a nonzero diagonal entry, else create one
        d = next((i for i in idx if not g[i][i].is_zero()), None)
        if d is None:
            i = idx[0]
            j = next(j for j in idx if not g[i][j].is_zero())
            for k in range(n):          # row/col op: e_i -> e_i + e_j
                g[i][k] = g[i][k] + g[j][k]
            for k in range(n):
                g[k][i] = g[k][i] + g[k][j]
            d = i
        if g[d][d].sign() > 0:
            s += 1
        else:
            t += 1
        idx.remove(d)
        inv = g[d][d].inverse()
        for i in list(idx):
            if g[i][d].is_zero():
                continue
            f = g[i][d] * inv
            for k in range(n):
                g[i][k] = g[i][k] - f * g[d][k]
            for k in range(n):
                g[k][i] = g[k][i] - f * g[k][d]
    return t, s


class KForm:
    """Exterior form of fixed degree with components on increasing tuples."""

    __slots__ = ("space", "degree", "components")

    def __init__(self, space, degree, components=None):
        if not (0 <= degree <= space.dim):
            raise ValueError(f"degree {degree} out of range for dim {space.dim}")
        self.space = space
        self.degree = degree
        self.components = {}
        if components:
            for idx, c in components.items():
                if not c.is_zero():
                    if len(idx) != degree or list(idx) != sorted(set(idx)):
                        raise ValueError(f"bad index tuple {idx}")
                    self.components[tuple(idx)] = c

    @staticmethod
    def zero(space, degree):
        return KForm(space, degree, {})

    @staticmethod
    def basis(space, *indices, coeff=None):
        """coeff * e^{i1} ^ ... ^ e^{ik} for strictly increasing indices."""
        c = Scalar(1) if coeff is None else coeff
        return KForm(space, len(indices), {tuple(indices): c})

    @staticmethod
    def scalar(space, value):
        c = value if not isinstance(value, int) else Scalar(value)
        return KForm(space, 0, {(): c})

    def is_zero(self):
        return not self.components

    def __add__(self, other):
        if not isinstance(other, KForm) or other.space is not self.space \
                or other.degree != self.degree:
            raise ValueError("can only add forms of equal degree on one space")
        comps = dict(self.components)
        for idx, c in other.components.items():
            accumulate(comps, idx, c)
        return KForm(self.space, self.degree, comps)

    def __neg__(self):
        return KForm(self.space, self.degree,
                     {i: -c for i, c in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, c):
        if isinstance(c, KForm):
            return NotImplemented
        return KForm(self.space, self.degree,
                     {i: v * c for i, v in self.components.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.space is other.space and self.degree == other.degree
                and (self - other).is_zero())

    def __hash__(self):
        return hash((id(self.space), self.degree,
                     frozenset(self.components.keys())))

    def __str__(self):
        if not self.components:
            return "0"
        names = self.space.names
        parts = []
        for idx in sorted(self.components):
            mono = "^".join(names[i] for i in idx) if idx else "1"
            parts.append(f"({self.components[idx]}) {mono}")
        return " + ".join(parts)

    __repr__ = __str__


def accumulate(d, key, v):
    """d[key] += v, dropping the key when the sum is zero."""
    if key in d:
        v = d[key] + v
    if v.is_zero():
        d.pop(key, None)
    else:
        d[key] = v


def _merge_sign(a, b):
    """Merge two increasing tuples; returns (sign, merged) or (0, None)."""
    out = []
    i = j = 0
    sign = 1
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def wedge(a, b):
    """Graded-commutative product; degree overflow gives the zero form."""
    if a.space is not b.space:
        raise ValueError("forms on different spaces")
    deg = a.degree + b.degree
    if deg > a.space.dim:
        return KForm.zero(a.space, a.space.dim)
    comps = {}
    for ia, ca in a.components.items():
        for ib, cb in b.components.items():
            sign, idx = _merge_sign(ia, ib)
            if sign == 0:
                continue
            c = ca * cb
            if sign < 0:
                c = -c
            accumulate(comps, idx, c)
    return KForm(a.space, deg, comps)


def sort_sign(idx):
    """(sign, sorted tuple) of the permutation that sorts idx, or (0, None)
    when an index repeats."""
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return 0, None
    return sign, tuple(lst)


def form_component(F, idx):
    """Component of F at an index tuple in any order, or None where it
    vanishes."""
    sign, srt = sort_sign(idx)
    c = F.components.get(srt) if sign else None
    if c is None:
        return None
    return c if sign > 0 else -c


def interior(v, a):
    """iota_v a for a vector v given by frame components (antiderivation)."""
    if a.degree == 0:
        return KForm.zero(a.space, 0)
    comps = {}
    for idx, c in a.components.items():
        for pos, i in enumerate(idx):
            vi = v[i]
            if vi.is_zero():
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = c * vi
            if pos % 2:
                term = -term
            accumulate(comps, rest, term)
    return KForm(a.space, a.degree - 1, comps)


def interior_frame(space, i, a):
    """iota against the i-th frame vector."""
    v = [ZERO] * space.dim
    v[i] = ONE
    return interior(v, a)


def nonzero_columns(M):
    """[[(a, M[a][mu]) for the nonzero entries of column mu] for each mu],
    for a square or rectangular M."""
    return [[(a, row[mu]) for a, row in enumerate(M) if not row[mu].is_zero()]
            for mu in range(len(M[0]))]


def map_slots(components, cols):
    """Components of the form whose every slot goes through a matrix M,
    e^mu -> sum_a M[a][mu] e^a, cols = nonzero_columns(M), expanding each slot
    over the nonzero entries of its column only.  A frame matrix converts
    coordinate to frame components; M = metric_inv raises every index."""
    out = {}
    for idx, c in components.items():
        terms = [((), c)]
        for mu in idx:
            terms = [(done + (a,), coeff * e) for done, coeff in terms
                     for a, e in cols[mu] if a not in done]
        for word, coeff in terms:
            sign, srt = sort_sign(word)
            accumulate(out, srt, coeff if sign > 0 else -coeff)
    return out


def flat(space, X):
    """The 1-form X_flat = g(X, .) of a vector given by frame components,
    lowered through the nonzero Gram entries."""
    return KForm(space, 1, map_slots({(b,): x for b, x in enumerate(X)
                                      if not x.is_zero()}, space.metric_cols))


def basis_contractions(F, depth):
    """{A: {J: (iota_A F)_J}} over increasing frame tuples A of length
    d <= depth, iota_A F = F(e_a1, ..., e_ad, ...), leaving out zeros.  Each
    F_I gives iota_A F at J = I - A for every A in I, with the sign of moving
    the legs of A to the front; no arithmetic is done."""
    k = F.degree
    out = {}
    for d in range(min(depth, k) + 1):
        for pos in combinations(range(k), d):
            # moving the legs at pos to the front takes this many swaps
            odd = (sum(pos) - d * (d - 1) // 2) % 2
            rest = [p for p in range(k) if p not in pos]
            for I, c in F.components.items():
                out.setdefault(tuple(I[p] for p in pos), {})[
                    tuple(I[p] for p in rest)] = -c if odd else c
    return out


def contraction_inners(F, depth):
    """{(A, B): <iota_A F, iota_B F>} over pairs A <= B of increasing frame
    tuples of one length d <= depth, leaving out zeros.  Each iota_B F of
    basis_contractions is raised through the nonzero inverse-Gram entries
    and paired with iota_A F at J.  det g^{-1}[J, J'] is the antisymmetrised
    product of the rows of J, so this equals form_inner's Gram-minor sum."""
    by_tuple = basis_contractions(F, depth)
    raised = {}                     # J -> [(B, (iota_B F)^J)]
    for B, comps in by_tuple.items():
        for J, u in map_slots(comps, F.space.inverse_cols).items():
            raised.setdefault(J, []).append((B, u))
    out = {}
    for A, comps in by_tuple.items():
        for J, v in comps.items():
            for B, u in raised.get(J, ()):
                if A <= B:
                    accumulate(out, (A, B), v * u)
    return out


def form_inner(a, b):
    """<a,b> over increasing index tuples, indices raised with the inverse
    Gram; the general (non-diagonal) case contracts with Gram minors."""
    if a.space is not b.space:
        raise ValueError("forms on different spaces")
    if a.degree != b.degree:
        raise ValueError("degree mismatch in form inner product")
    space = a.space
    total = None
    for ia, ca in a.components.items():
        for ib, cb in b.components.items():
            g = space.gram_minor(ia, ib)
            if g.is_zero():
                continue
            term = ca * cb * g
            total = term if total is None else total + term
    return ZERO if total is None else total


def hodge(a):
    """Hodge dual with respect to the space's orientation."""
    space = a.space
    n = space.dim
    k = a.degree
    volc = space.volume_coeff()
    if space.orientation < 0:
        volc = -volc
    comps = {}
    all_idx = tuple(range(n))
    for J in combinations(all_idx, n - k):
        # coefficient of e^J in *a:  (*a)_J such that  b ^ *a = <b,a> vol
        comp = tuple(i for i in all_idx if i not in J)   # complement, increasing
        sign, merged = _merge_sign(comp, J)
        if merged != all_idx:
            raise RuntimeError(f"{comp} and {J} do not partition the frame")
        total = None
        for ia, ca in a.components.items():
            g = space.gram_minor(comp, ia)
            if g.is_zero():
                continue
            term = ca * g
            total = term if total is None else total + term
        if total is None:
            continue
        c = total * volc
        if sign < 0:
            c = -c
        if not c.is_zero():
            comps[J] = c
    return KForm(space, n - k, comps)


def kulkarni_nomizu(h, k, space):
    """KN product of two symmetric 2-tensors (given as matrices), as a
    BiSymTensor.  Its four terms put h[a][b] k[c][d] at the sorted key with
    (x, y) = {a, c}, (z, w) = {b, d}, with sign + iff a < c and d < b agree;
    a pair of nonzero entries counts where that key is canonical."""
    n = space.dim
    ks = [(c, d, k[c][d]) for c in range(n) for d in range(n)
          if not k[c][d].is_zero()]
    comps = {}
    for a in range(n):
        for b in range(n):
            if h[a][b].is_zero():
                continue
            for c, d, y in ks:
                key = (min(a, c), max(a, c), min(b, d), max(b, d))
                if a != c and b != d and key[:2] <= key[2:]:
                    p = h[a][b] * y
                    accumulate(comps, key, p if (a < c) == (d < b) else -p)
    return BiSymTensor(space, comps)


def crossed_inners(space, F):
    """The BiSymTensor (X,Y,Z,W) -> <iota_X iota_W F, iota_Y iota_Z F>
    - <iota_X iota_Z F, iota_Y iota_W F>: the right-hand side of the IIB
    Riemann identity, and -4 times the torsion-square terms of a connection
    with skew torsion F = H.  With Q(a,b;c,d) = <F(e_a, e_b, ...),
    F(e_c, e_d, ...)> it is Q(W,X;Z,Y) - Q(Z,X;W,Y): each ordering of each
    depth-2 table entry gives Q(w,x;z,y) at (x, y, z, w), and its negative
    at (x, y, w, z); the canonical one of the two is kept."""
    comps = {}
    for (A, B), v in contraction_inners(F, 2).items():
        if len(A) < 2:
            continue
        for (p, q), (r, t) in ((A, B),) if A == B else ((A, B), (B, A)):
            for x, w, y, z, s in ((q, p, t, r, v), (p, q, t, r, -v),
                                  (q, p, r, t, -v), (p, q, r, t, v)):
                if z > w:
                    z, w, s = w, z, -s
                if x < y and z < w and (x, y) <= (z, w):
                    accumulate(comps, (x, y, z, w), s)
    return BiSymTensor(space, comps)


class BiSymTensor:
    """4-tensor skew in (1,2) and (3,4), symmetric under pair exchange.

    Stored on canonical keys (i<j, k<l, (i,j) <= (k,l)).  The first Bianchi
    identity is NOT part of the symmetries (torsion curvatures violate it).
    """

    __slots__ = ("space", "components")

    def __init__(self, space, components=None):
        self.space = space
        self.components = {}
        if components:
            for key, c in components.items():
                if not c.is_zero():
                    i, j, k, l = key
                    if not (i < j and k < l and (i, j) <= (k, l)):
                        raise ValueError(f"non-canonical key {key}")
                    self.components[key] = c

    @staticmethod
    def canonical(i, j, k, l):
        """(sign, canonical key) of the index order (i, j, k, l) under the
        symmetries, or (0, None) where they make it vanish."""
        if i == j or k == l:
            return 0, None
        sign = 1
        if i > j:
            i, j, sign = j, i, -sign
        if k > l:
            k, l, sign = l, k, -sign
        return sign, (i, j, k, l) if (i, j) <= (k, l) else (k, l, i, j)

    def get(self, i, j, k, l):
        """Component with arbitrary index order, via the symmetries."""
        sign, key = self.canonical(i, j, k, l)
        c = self.components.get(key) if sign else None
        if c is None:
            return ZERO
        return c if sign > 0 else -c

    def is_zero(self):
        return not self.components

    def __add__(self, other):
        comps = dict(self.components)
        for key, c in other.components.items():
            accumulate(comps, key, c)
        return BiSymTensor(self.space, comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return BiSymTensor(self.space,
                           {k: v * c for k, v in self.components.items()})

    def first_nonzero(self):
        for key in sorted(self.components):
            return key, self.components[key]
        return None

    def ricci(self):
        """Ric(Y,Z) = sum_a g^{ab} R(e_a, Y, Z, e_b) (positive on spheres),
        summed over the stored components in each index order that the
        symmetries give them."""
        n = self.space.dim
        inv = [dict(col) for col in self.space.inverse_cols]
        ric = {}
        for (i, j, k, l), v in self.components.items():
            for p, q, r, s in ((i, j, k, l), (k, l, i, j))[
                    :1 if (i, j) == (k, l) else 2]:
                for a, y, z, b, flip in ((p, q, r, s, False),
                                         (q, p, r, s, True),
                                         (p, q, s, r, True),
                                         (q, p, s, r, False)):
                    gab = inv[a].get(b)
                    if gab is None or y > z:
                        continue
                    term = gab * (-v if flip else v)
                    ric[y, z] = ric[y, z] + term if (y, z) in ric else term
        out = [[Scalar(0)] * n for _ in range(n)]
        for (y, z), total in ric.items():
            out[y][z] = out[z][y] = total
        return out


def plucker_check(F):
    """Plucker decomposability test for a 4- or 5-form with Scalar entries.

    Contracts down to a 1-form with basis vectors and wedges back against F;
    decomposable iff every contraction wedge vanishes.  The nonzero
    contractions iota_A F over increasing (k-1)-tuples A come from one
    basis_contractions pass and are walked in sorted order, so the witness
    is the first failing A of combinations(range(n), k-1).  Returns
    ("decomposable", None) or ("witness", index_tuple).
    """
    if F.degree not in (4, 5):
        raise ValueError("plucker_check expects a 4- or 5-form")
    depth = F.degree - 1
    table = basis_contractions(F, depth)
    for idx in sorted(A for A in table if len(A) == depth):
        if not wedge(KForm(F.space, 1, table[idx]), F).is_zero():
            return "witness", idx
    return "decomposable", None


def plucker_rank_oracle(F):
    """Independent decomposability test: F (degree k) is decomposable iff the
    span of all (k-1)-fold basis contractions has dimension <= k."""
    space = F.space
    n = space.dim
    k = F.degree
    rows = []
    for idx in combinations(range(n), k - 1):
        g = F
        for i in reversed(idx):
            g = interior_frame(space, i, g)
        if not g.is_zero():
            rows.append([g.components.get((j,), _Z) for j in range(n)])
    if not rows:
        return True         # zero form: trivially a (degenerate) wedge
    return linalg.rank(rows) <= k


def covector_action(omega):
    """The skew endomorphism A^a_b = g^{ac} omega_{cb} of the 2-form omega,
    acting on covectors: {i: {a: -A^i_a}}, e^i -> -A^i_a e^a, nonzero
    entries only."""
    space = omega.space
    if omega.degree != 2:
        raise ValueError("omega must be a 2-form")
    A = {}
    for (c, b), v in omega.components.items():
        for a, gac in space.inverse_cols[c]:
            accumulate(A.setdefault(a, {}), b, -(gac * v))
        for a, gab in space.inverse_cols[b]:
            accumulate(A.setdefault(a, {}), c, gab * v)
    return A


def derivation_action(act, F):
    """F moved by the covector action act ({i: {a: c}}, e^i -> c e^a, as
    covector_action gives it), extended to forms as a derivation."""
    comps = {}
    for idx, coeff in F.components.items():
        for pos, i in enumerate(idx):
            for a, x in act.get(i, {}).items():
                sign, srt = sort_sign(idx[:pos] + (a,) + idx[pos + 1:])
                if sign:
                    accumulate(comps, srt, coeff * x if sign > 0
                               else -(coeff * x))
    return KForm(F.space, F.degree, comps)


def lambda_action(omega, F):
    """Action on F of the skew endomorphism associated to the 2-form omega,
    extended to forms as a derivation."""
    return derivation_action(covector_action(omega), F)
