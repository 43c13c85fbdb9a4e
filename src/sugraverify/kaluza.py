"""Dimensional reduction along a one-parameter isometry group.

Group reductions happen at the invariant-frame level: given a metric Lie
algebra with parallelising torsion H and a unit spacelike element X, the
reduced data (h, alpha, F, G2) is computed algebraically and the exact
identities F = G2 and H = *_h G2 + alpha ^ G2 are verified.  A d=11
background is reduced to IIA along a direction X of its frame at one point
(reduce_d11), on the same symmetric space that verifies it; verify_iia
reports the catalog's IIA entry from its d=11 parent that way.
"""

from .exactnum import Scalar, sqrt_scalar
from .multilinear import QuadraticSpace, KForm, wedge, interior, hodge, \
    flat, map_slots, nonzero_columns
from .liealg import canonical_three_form, ce_differential
from .clifford import omega_xf, kernel_dim
from .sugra import VerificationReport, theory_geometry, \
    supercovariant_curvature
from . import linalg

__all__ = ["reduce_group", "reduce_d11", "verify_iia",
           "unit_spacelike_sample"]

_Z = Scalar(0)


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


def reduce_group(g, X):
    """Reduce a parallelised group along the left-invariant direction X
    (spacelike; normalized internally so the dilaton vanishes).

    Computes alpha = <X,.>, F = -<X,[.,.]>, the quotient metric h on the
    orthogonal complement, G2 = iota_X H, and verifies F = G2 and
    H = *_h G2 + alpha ^ G2 exactly.

    H is minus the canonical 3-form: the parallelising torsion
    g(T(X,Y),Z) = -B([X,Y],Z) of the connection whose parallel fields are
    left-invariant; the reduction identities hold in that convention."""
    n = g.dim
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
    quotient = QuadraticSpace(h, 1)
    checks["lorentzian quotient"] = quotient.signature() == (1, m - 1)
    # push H and G2 to the quotient frame and verify H = *_h G2 + alpha^G2.
    # The quotient orientation is fixed by vol_h = -iota_X vol_g: the choice
    # under which anti-selfdual torsion reduces with G3 = + *_h G2
    # (recorded convention).
    vol_q = _restrict(interior(Xu, space.volume_form()), comp_basis, quotient)
    want = quotient.volume_form()
    ratio = None
    for idx, c in want.components.items():
        got = vol_q.components.get(idx, _Z)
        ratio = got * c.inverse()
    if ratio is not None and ratio.sign() > 0:
        quotient = QuadraticSpace(h, -1, inverse=quotient.metric_inv)
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


def _restrict(form, basis, quotient):
    """The pullback of an invariant form to the complement: its components
    form(b_a1, ..., b_ak) on the complement basis, for a1 < ... < ak, in
    one map_slots pass that sends e^mu to sum_a b_a^mu e^a."""
    return KForm(quotient, form.degree,
                 map_slots(form.components, nonzero_columns(basis)))


# the checks of reduce_d11 that make the reduced background flat with zero
# fluxes and constant dilaton, and the one that counts its spinors
_FLAT_CHECKS = ("X_flat parallel (|X| and the dilaton constant)",
                "F2 = d X_flat / |X|^2 = 0", "R = 0 (flat quotient)",
                "H3 = iota_X F4 = 0", "G4 = F4 - X_flat ^ H3 / |X|^2 = 0")
_SUSY_CHECK = "all spinors descend (ker R^D_ab and Omega_X)"


def reduce_d11(parent, X):
    """Reduce the d=11 plane wave parent (a BackgroundSpec) to IIA along X,
    given by its components in the parent's frame at its point.  X must be
    spacelike; otherwise ValueError.  Returns {check: witness}, the
    witness "" where the check passes.

    Each check is computed on the parent: X_flat parallel (nabla), so |X|
    and the dilaton are constant, and F2 = d X_flat / |X|^2 = 0 (d); R = 0,
    so the quotient is flat; H3 = iota_X F4 and the horizontal part G4 of
    F4 vanish.  For a parallel X the spinorial Lie derivative acts on a
    D-parallel spinor as -Omega_X, so the spinors that descend lie in the
    joint kernel of the parent's R^D_ab and Omega_X, whose premises are
    nabla F = 0 and X_flat parallel; all of them descend iff the kernel is
    the whole spinor space (docs/conventions.md)."""
    geom = theory_geometry("d11", parent.name, parent.geometry)
    space = geom.space
    if len(X) != space.dim:
        raise ValueError(f"expected {space.dim} components")
    Xb = flat(space, X)
    norm2 = sum((X[i] * c for (i,), c in Xb.components.items()), _Z)
    if norm2.sign() <= 0:
        raise ValueError("reduction direction must be spacelike")
    F = parent.fluxes["F4"]
    alg, curv = supercovariant_curvature(parent)
    omega = omega_xf(X, KForm(alg.space, 4, F.components), alg)
    kernel, _ = kernel_dim(list(curv.values()) + [omega], alg)
    moved = geom.nabla(Xb)
    H3 = interior(X, F)
    R = geom.riemann().first_nonzero()
    witnesses = dict(zip(_FLAT_CHECKS, (
        str(next(iter(moved.values()))) if moved else "",
        _witness(geom.d(Xb)),
        "" if R is None else
        f"R({','.join(space.names[i] for i in R[0])}) = {R[1]}",
        _witness(H3),
        _witness(F - wedge(Xb, H3) * norm2.inverse()))))
    N = alg.rep.spinor_dim
    why = [] if kernel == N else \
        [f"the joint kernel is {kernel}-dimensional, of {N}"]
    why += [f"premise {name} fails" for name, bad in (
        ("nabla F = 0", geom.nabla(F)), ("X_flat parallel", moved)) if bad]
    witnesses[_SUSY_CHECK] = "; ".join(why)
    return witnesses


def _witness(x):
    """"" for a zero form, else the form (or an Unverified) as text."""
    return "" if x.is_zero() else str(x)


def verify_iia(b):
    """The report of the IIA record b, reduced by reduce_d11 from its d=11
    parent b.frame_data["parent"] along b.frame_data["along"]: one
    condition for a flat background with zero fluxes and constant dilaton,
    naming each failing check, and one for maximal supersymmetry."""
    witnesses = reduce_d11(b.frame_data["parent"], b.frame_data["along"])
    rep = VerificationReport(b.name, "iia")
    bad = [f"{k}: {witnesses[k]}" for k in _FLAT_CHECKS if witnesses[k]]
    rep.add("flat E^{1,9} with zero fluxes and constant dilaton", not bad,
            witness="; ".join(bad))
    why = witnesses[_SUSY_CHECK]
    rep.add("maximal supersymmetry preserved", not why, witness=why,
            note="" if why else "flat spinor connection downstairs: 32 "
                                "constant Killing spinors remain")
    rep.notes.extend(b.notes)
    return rep


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
