"""Dimensional reduction along a one-parameter isometry group.

Group reductions happen at the invariant-frame level: given a metric Lie
algebra with parallelising torsion H and a unit spacelike element X, the
reduced data (h, alpha, F, G2) is computed algebraically and the exact
identities F = G2 and H = *_h G2 + alpha ^ G2 are verified.  Flat-space
reductions of the eleven-dimensional vacuum are handled separately.
"""

from .exactnum import Scalar, sqrt_scalar
from .multilinear import QuadraticSpace, KForm, wedge, interior, hodge
from .liealg import canonical_three_form, ce_differential
from . import linalg

__all__ = ["reduce_form", "reduce_group", "reduce_flat_d11",
           "unit_spacelike_sample"]

_Z = Scalar(0)


def reduce_form(F, alpha, xi):
    """Split an invariant form along the fibre:  F = G - alpha ^ H with
    H = -iota_xi F and both G, H horizontal.  alpha(xi) = 1 is required."""
    pairing = _Z
    for (i,), c in alpha.components.items():
        pairing = pairing + c * xi[i]
    if not (pairing - Scalar(1)).is_zero():
        raise ValueError("alpha(xi) != 1")
    H = interior(xi, F) * Scalar(-1)
    G = F + wedge(alpha, H)
    for name, form in (("G", G), ("H", H)):
        if not interior(xi, form).is_zero():
            raise ValueError(f"{name} failed horizontality")
    return G, H


class ReducedBackground:
    """Outcome of a group reduction: quotient metric and fluxes plus the
    verified identities."""

    def __init__(self, h, alpha, F2, G2, complement, checks):
        self.h = h
        self.alpha = alpha
        self.F2 = F2
        self.G2 = G2
        self.complement = complement
        self.checks = checks

    @property
    def passed(self):
        return all(v for v in self.checks.values())


def reduce_group(g, X, H=None):
    """Reduce a parallelised group along the left-invariant direction X
    (spacelike; normalized internally so the dilaton vanishes).

    Computes alpha = <X,.>, F = -<X,[.,.]>, the quotient metric h on the
    orthogonal complement, G2 = iota_X H, and verifies F = G2 and
    H = *_h G2 + alpha ^ G2 exactly.

    H defaults to the parallelising torsion g(T(X,Y),Z) = -B([X,Y],Z) of
    the connection whose parallel fields are left-invariant (minus the
    canonical 3-form); the reduction identities hold in that convention."""
    n = g.dim
    if H is None:
        H = canonical_three_form(g) * Scalar(-1)
    norm2 = g.inner(X, X)
    if norm2.sign() <= 0:
        raise ValueError("reduction direction must be spacelike")
    inv = sqrt_scalar(norm2).inverse() if not (norm2 - Scalar(1)).is_zero() \
        else Scalar(1)
    Xu = [x * inv for x in X]
    space = g.space
    # alpha = B(Xu, .) as a 1-form
    alpha = KForm(space, 1, {(i,): g.inner(Xu, g.basis_vector(i))
                             for i in range(n)})
    alpha = KForm(space, 1, {k: c for k, c in alpha.components.items()
                             if not c.is_zero()})
    # F(Y,Z) = -<Xu, [Y,Z]>
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = -g.inner(Xu, g.basis_bracket(i, j))
            if not v.is_zero():
                comps[(i, j)] = v
    F2 = KForm(space, 2, comps)
    G2 = interior(Xu, H)
    checks = {}
    checks["F = G2"] = (F2 - G2).is_zero()
    # orthogonal complement of X: exact basis of ker B(X, .); using the
    # unnormalized X keeps the complement (and hence h) rational, so the
    # quotient Hodge star stays inside the flat radical tower
    rows = [[g.inner(X, g.basis_vector(i)) for i in range(n)]]
    comp_basis = linalg.nullspace(rows, ncols=n)
    # quotient metric h on the complement
    m = len(comp_basis)
    h = [[g.inner(comp_basis[a], comp_basis[b]) for b in range(m)]
         for a in range(m)]
    t, s = _signature_of(h)
    checks["lorentzian quotient"] = (t, s) == (1, m - 1)
    # push H and G2 to the quotient frame and verify H = *_h G2 + alpha^G2.
    # The quotient orientation is fixed by vol_h = -iota_X vol_g: the choice
    # under which anti-selfdual torsion reduces with G3 = + *_h G2
    # (recorded convention).
    quotient = QuadraticSpace(h, 1)
    vol_q = _restrict(interior(Xu, space.volume_form()), comp_basis, quotient)
    want = quotient.volume_form()
    ratio = None
    for idx, c in want.components.items():
        got = vol_q.components.get(idx, _Z)
        ratio = got * c.inverse()
    if ratio is not None and ratio.sign() > 0:
        quotient = QuadraticSpace(h, -1)
    G2_q = _restrict(G2, comp_basis, quotient)
    H_q3 = _restrict(H - wedge(alpha, G2), comp_basis, quotient)
    checks["H = *_h G2 + alpha ^ G2"] = (H_q3 - hodge(G2_q)).is_zero()
    # closure conditions on the quotient: dG2 = 0 and d *_h G2 = -F ^ G2.
    # The canonical horizontal lift of *_h G2 is L = H - alpha ^ G2, so the
    # second condition is the exact ambient identity dL + F ^ G2 = 0.
    checks["dG2 = 0"] = ce_differential(G2, g).is_zero()
    L = H - wedge(alpha, G2)
    checks["d *_h G2 = -F ^ G2"] = \
        (ce_differential(L, g) + wedge(F2, G2)).is_zero()
    return ReducedBackground(h, alpha, F2, G2, comp_basis, checks)


def _signature_of(h):
    return QuadraticSpace([row[:] for row in h], 1).signature()


def _restrict(form, basis, quotient):
    """Components of an invariant form evaluated on a complement basis."""
    m = len(basis)
    comps = {}
    from itertools import combinations
    for idx in combinations(range(m), form.degree):
        val = _eval_on(form, [basis[i] for i in idx])
        if not val.is_zero():
            comps[idx] = val
    return KForm(quotient, form.degree, comps)


def _eval_on(form, vectors):
    out = form
    for v in reversed(vectors):
        out = interior(v, out)
    return out.components.get((), _Z)


def reduce_flat_d11(direction):
    """Reduction of the flat eleven-dimensional vacuum along a spacelike
    translation: flat ten-dimensional space, zero fluxes, constant dilaton,
    maximal supersymmetry preserved.  Rejects non-spacelike directions."""
    t = direction.get("type", "translation")
    if t != "translation":
        raise ValueError("only translation reductions are supported")
    comps = direction["components"]          # components in the flat frame
    eta = [Scalar(-1)] + [Scalar(1)] * 10
    norm2 = _Z
    for i, c in enumerate(comps):
        norm2 = norm2 + eta[i] * c * c
    if norm2.sign() <= 0:
        raise ValueError("reduction direction must be spacelike")
    return {
        "metric": "flat E^{1,9}",
        "dilaton": "constant",
        "F2": "0", "H3": "0", "G4": "0",
        "max_susy_preserved": True,
        "note": "flat spinor connection downstairs: 32 constant Killing "
                "spinors remain",
    }


def unit_spacelike_sample(g, rng, count):
    """Random exact rational directions with positive norm on a metric Lie
    algebra (used for reduction property sweeps)."""
    out = []
    n = g.dim
    while len(out) < count:
        X = [Scalar(rng.randint(-3, 3)) for _ in range(n)]
        norm2 = g.inner(X, X)
        if norm2.sign() > 0:
            out.append(X)
    return out
