"""Seeded workloads of the sugraverify benchmark.

Each workload is an endless, deterministic stream of ops made from the seed
alone.  A generator yields plain data (ints, strings, JSON documents); the
program receives only that data, and every op checks its own mathematical
outcome.  Streams are built in balanced rounds, so that a run of any length
sees the same mix of op kinds whatever the seed.

Why these three workloads:

* ``certificate`` replays the published certificate unit by unit: the 11
  catalog backgrounds, one row of the susy-count table per accepted
  product, three group reductions and the 17/12/5 table sizes.  It is what
  ``verify all`` plus ``enumerate --tables`` pay.  Its inputs repeat every
  pass, so a cache keyed on inputs would look good here and nowhere else.
* ``planewave`` verifies generated d=11 and IIB plane waves, conjugated by
  exact rational rotations, half of them with one profile entry perturbed.
  No input repeats, the polynomials are denser than in the catalog, and the
  run covers the failure path, the JSON/``parse_scalar`` input layer and the
  float fallback of ``cw_canonicalize``.
* ``forms`` runs the Plucker test against its rank oracle and the Hodge
  involution sign law on random forms.  Plucker and Hodge are most of the
  Tier-1 wall time; the Tier-1 suite itself takes minutes and is not a
  workload, so this stands in for it.  It uses no Clifford and no chart
  code, which makes it the control for optimisations in those layers.

``verify all`` runs a process pool; it is not measured, because on a
two-core machine it would measure the scheduler, not the verifier.
"""

import hashlib
import json
import os
import random
from fractions import Fraction
from itertools import combinations

from sugraverify import catalog
from sugraverify.exactnum import Scalar
from sugraverify.kaluza import reduce_group, unit_spacelike_sample
from sugraverify.liealg import cw_canonicalize, e15, nw6, so12_so3
from sugraverify.multilinear import (KForm, QuadraticSpace, hodge,
                                     plucker_check, plucker_rank_oracle)

PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
                       (20, 21, 29))


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


def digest(items):
    """sha256 of the canonical JSON of a list of generated inputs."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

D6_ALGEBRAS = {"nw6": nw6, "so12_so3(1,1)": lambda: so12_so3(1, 1),
               "e15": e15}
CATALOG_IDS = ("ads7xs4", "ads4xs7", "cw11", "e1_10", "ads5xs5", "cw10",
               "e1_9", "e1_9_iia", "ads3xs3", "nw6", "e1_5")
PLANE_WAVE_IDS = ("cw11", "e1_10", "cw10", "e1_9")
# frame-constant susy counts (IIA, IIB) per accepted product, constant
# dilaton first (None: no constant-dilaton member), then nonconstant
SUSY_TABLE = {
    "ads3_s3_e4": ((16, 16), (16, 16)),
    "ads3_s3_s3_e1": ((16, 16), (16, 16)),
    "cw10": ((16, 16), (16, 16)),
    "cw4_e6": ((16, 16), (16, 16)),
    "cw4_s3_e3": (None, (16, 16)),
    "cw6_e4": ((16, 16), (16, 16)),
    "cw6_s3_e1": (None, (16, 16)),
    "cw8_e2": ((16, 16), (16, 16)),
    "e1_1_su3": (None, (16, 16)),
    "e1_3_s3_s3": (None, (16, 16)),
    "e1_6_s3": (None, (16, 16)),
    "e1_9": ((32, 32), (16, 16)),
}


def certificate_pass(seed, index):
    """Units of one certificate pass, in seeded order."""
    rng = _rng("certificate", seed, index)
    units = [["verify", bid] for bid in CATALOG_IDS]
    units += [["susy", ident] for ident in sorted(SUSY_TABLE)]
    for name in sorted(D6_ALGEBRAS):
        X = unit_spacelike_sample(D6_ALGEBRAS[name](), rng, 1)[0]
        units.append(["reduce", name, [str(x) for x in X]])
    units.append(["tables"])
    rng.shuffle(units)
    return units


class Certificate:
    name = "certificate"
    digest_passes = 4

    def __init__(self, seed, workdir=None):
        self.seed = seed
        self.passes = [certificate_pass(seed, p)
                       for p in range(self.digest_passes)]
        self.products = {p.ident(): p
                         for p in catalog.enumerate_parallelisable(10)}
        self.round_ops = len(self.passes[0])

    def inputs_digest(self):
        return digest(self.passes[:self.digest_passes])

    def unit(self, i):
        p, k = divmod(i, self.round_ops)
        while p >= len(self.passes):
            self.passes.append(certificate_pass(self.seed, len(self.passes)))
        return self.passes[p][k]

    def prepare(self, i):
        self.unit(i)

    def plane_waves(self, i):
        u = self.unit(i)
        return int(u[0] == "verify" and u[1] in PLANE_WAVE_IDS)

    def run(self, i):
        u = self.unit(i)
        if u[0] == "verify":
            rep = catalog.verify_background(catalog.get_background(u[1]))
            nu_ok = u[1] not in PLANE_WAVE_IDS or \
                rep.invariants.get("nu") == "32/32"
            return rep.passed and nu_ok
        if u[0] == "susy":
            p = self.products[u[1]]
            const, nonconst = SUSY_TABLE[u[1]]
            if catalog.has_constant_dilaton_member(p) != (const is not None):
                return False
            if const is not None:
                c = catalog.susy_count(p, "constant")
                if (c["iia"], c["iib"]) != const:
                    return False
            n = catalog.susy_count(p, "nonconstant")
            return (n["iia"], n["iib"]) == nonconst
        if u[0] == "reduce":
            X = [Scalar(int(x)) for x in u[2]]
            return reduce_group(D6_ALGEBRAS[u[1]](), X).passed
        return (len(catalog.table2_lines()), len(catalog.table3_lines()),
                len(catalog.table3_rejections())) == (17, 12, 5)


# ---------------------------------------------------------------------------
# planewave
# ---------------------------------------------------------------------------

# family -> (theory, profile / mu^2 as diagonal, flux terms as (name,
# chart indices), transverse blocks that rotations mix, mu choices).
# Chart indices: 0 = x+, 1 = x-, 2.. = x1..
PLANE_WAVE_FAMILIES = {
    "cw11": ("d11", [Fraction(-4, 36)] * 3 + [Fraction(-1, 36)] * 6,
             [("F4", (1, 2, 3, 4))], (range(0, 3), range(3, 9)), (6, 12)),
    "cw10": ("iib", [Fraction(-1)] * 8,
             [("F5", (1, 2, 3, 4, 5)), ("F5", (1, 6, 7, 8, 9)),
              ("G5", (1, 2, 3, 4, 5))], (range(0, 4), range(4, 8)), (1, 2)),
}
ROTATIONS = 2


def rational_rotation(rng, m, blocks, count=ROTATIONS):
    """Exact rational matrix in SO(m): a product of rotations by
    Pythagorean-triple angles in disjoint planes that each join the two
    blocks.  A rotation inside one block would leave the profile and flux
    unchanged, so every generated background has the same density."""
    O = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    planes = zip(rng.sample(blocks[0], count), rng.sample(blocks[1], count))
    for i, j in planes:
        a, b, c = rng.choice(PYTHAGOREAN_TRIPLES)
        ci, cj = Fraction(a, c), Fraction(b, c)
        ri, rj = O[i], O[j]
        O[i] = [ci * x - cj * y for x, y in zip(ri, rj)]
        O[j] = [cj * x + ci * y for x, y in zip(ri, rj)]
    return O


def _det(M):
    """Exact determinant of a small Fraction matrix by elimination."""
    M = [row[:] for row in M]
    n, d = len(M), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            d = -d
        d *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return d


def _times(coeff, name):
    """Exact scalar string coeff * name (name may be empty)."""
    if coeff == 0:
        return "0"
    text = str(coeff)
    return f"{text}*{name}" if name else text


def _trace(M):
    return sum(M[i][i] for i in range(len(M)))


def _square(M):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*M)]
            for row in M]


def _proportional_spectra_possible(A, B):
    """Necessary condition for B = s A up to conjugation with s > 0, from
    the first two power sums."""
    ta, tb = _trace(A), _trace(B)
    return tb * ta > 0 and \
        _trace(_square(B)) * ta * ta == _trace(_square(A)) * tb * tb


def planewave_doc(seed, index):
    """(background document, expectation) for one generated plane wave.
    A round of six holds cw11 twice clean and twice perturbed, and cw10 once
    each: the median op is then a d=11 one and the 90th percentile an IIB
    one, instead of either sitting in the gap between the two."""
    rnd, pos = divmod(index, 6)
    order = [("cw11", False), ("cw11", False), ("cw11", True),
             ("cw11", True), ("cw10", False), ("cw10", True)]
    _rng("planewave-round", seed, rnd).shuffle(order)
    family, perturbed = order[pos]
    rng = _rng("planewave", seed, index)
    theory, diag, flux_terms, blocks, mus = PLANE_WAVE_FAMILIES[family]
    mu = rng.choice(mus)
    m = len(diag)
    O = rational_rotation(rng, m, blocks)
    # coordinates y = O x: profile O D O^T, each transverse leg set I of a
    # flux term goes to every J with coefficient det O[J, I]
    P = [[sum(O[i][k] * diag[k] * O[j][k] for k in range(m))
          for j in range(m)] for i in range(m)]
    profile = [[_times(P[i][j], "mu^2") for j in range(m)] for i in range(m)]
    if perturbed:
        A = [[x * mu * mu for x in row] for row in P]
        while True:
            i, j = sorted(rng.sample(range(m), 2)) if rng.random() < 0.5 \
                else [rng.randrange(m)] * 2
            delta = rng.choice((-2, -1, 1, 2))
            B = [row[:] for row in A]
            B[i][j] += delta
            if i != j:
                B[j][i] += delta
            if not _proportional_spectra_possible(A, B):
                break
        for a, b in {(i, j), (j, i)}:
            profile[a][b] = f"{profile[a][b]}{delta:+d}"
    fluxes = {}
    for fname, idx in flux_terms:
        legs = [t - 2 for t in idx[1:]]
        for J in combinations(range(m), len(legs)):
            c = _det([[O[r][k] for k in legs] for r in J])
            if c:
                terms = fluxes.setdefault(fname, {})
                key = (idx[0],) + tuple(r + 2 for r in J)
                terms[key] = terms.get(key, 0) + c
    doc = {
        "theory": theory,
        "name": f"{family}-s{seed}-{index}",
        "parameters": {"mu": str(mu)},
        "geometry": {"type": "cw", "profile": profile},
        "fluxes": {fname: [{"indices": list(k), "coeff": _times(c, "mu")}
                           for k, c in sorted(terms.items()) if c]
                   for fname, terms in fluxes.items()},
    }
    return doc, {"family": family, "perturbed": perturbed}


class Planewave:
    name = "planewave"
    pregenerate = 18
    round_ops = 6

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.docs = []
        self.base_keys = {
            fam: cw_canonicalize(catalog.get_background(fam).cw_data)[0]
            for fam in PLANE_WAVE_FAMILIES}
        for _ in range(self.pregenerate):
            self._extend()

    def _extend(self):
        i = len(self.docs)
        doc, expect = planewave_doc(self.seed, i)
        path = os.path.join(self.workdir, f"planewave-{i:05d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        self.docs.append((path, doc, expect))

    def inputs_digest(self):
        return digest([d for _, d, _ in self.docs[:self.pregenerate]])

    def plane_waves(self, i):
        return 1

    def prepare(self, i):
        while i >= len(self.docs):
            self._extend()

    def run(self, i):
        path, _, expect = self.docs[i]
        b = catalog.load_background(path)
        rep = catalog.verify_background(b)
        key = cw_canonicalize(b.cw_data)[0]
        same = key == self.base_keys[expect["family"]]
        if expect["perturbed"]:
            return not rep.passed and not same
        return rep.passed and rep.invariants.get("nu") == "32/32" and same


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

SPACE_KINDS = ("euclidean", "minkowski", "lightcone")
# sixteen Plucker dimensions per round, weighted so that the median op is a
# dimension-7 one rather than one at the edge between two dimensions
PLUCKER_DIMS = (5, 5, 5, 6, 6, 6, 7, 7, 7, 7, 7, 7, 8, 8, 8, 8)
HODGE_DIMS = (9, 10, 11, 11)


def make_space(kind, n):
    if kind == "euclidean":
        return QuadraticSpace.euclidean(n)
    if kind == "minkowski":
        return QuadraticSpace.minkowski(n)
    return QuadraticSpace.lightcone(n - 2)


def _wedge_of_vectors(vectors, n):
    """Components of v1 ^ ... ^ vk: the k x k minors of the leg matrix."""
    k = len(vectors)
    comps = {}
    for idx in combinations(range(n), k):
        d = _det([[Fraction(v[i]) for i in idx] for v in vectors])
        if d:
            comps[idx] = int(d)
    return comps


def form_spec(seed, index):
    """One generated form.  A round of twenty holds sixteen Plucker forms
    (two of them planted decomposable) and four sparse Hodge forms, one per
    Hodge dimension."""
    rnd, pos = divmod(index, 20)
    rr = _rng("forms-round", seed, rnd)
    planted = rr.sample(range(16), 2)
    kinds = [("plucker", n, j in planted) for j, n in enumerate(PLUCKER_DIMS)]
    kinds += [("hodge", n, False) for n in HODGE_DIMS]
    rr.shuffle(kinds)
    test, n, plant = kinds[pos]
    rng = _rng("forms", seed, index)
    space = rng.choice(SPACE_KINDS)
    if test == "plucker":
        if plant:
            legs = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(4)]
            comps = _wedge_of_vectors(legs, n)
        else:
            comps = {}
            for idx in combinations(range(n), 4):
                v = rng.choice((-1, 0, 0, 1))
                if v:
                    comps[idx] = v
        degree = 4
    else:
        degree = rng.randint(n // 2 - 1, n // 2 + 1)
        comps = {}
        for _ in range(rng.randint(4, 10)):
            idx = tuple(sorted(rng.sample(range(n), degree)))
            comps[idx] = rng.choice((-2, -1, 1, 2))
    return {"test": test, "space": space, "dim": n, "degree": degree,
            "planted": plant,
            "components": [[list(k), v] for k, v in sorted(comps.items())]}


class Forms:
    name = "forms"
    pregenerate = 200
    round_ops = 100

    def __init__(self, seed, workdir=None):
        self.seed = seed
        self.specs = [form_spec(seed, i) for i in range(self.pregenerate)]

    def inputs_digest(self):
        return digest(self.specs[:self.pregenerate])

    def plane_waves(self, i):
        return 0

    def prepare(self, i):
        while i >= len(self.specs):
            self.specs.append(form_spec(self.seed, len(self.specs)))

    def run(self, i):
        spec = self.specs[i]
        space = make_space(spec["space"], spec["dim"])
        k = spec["degree"]
        a = KForm(space, k, {tuple(idx): Scalar(v)
                             for idx, v in spec["components"]})
        if spec["test"] == "plucker":
            dec = plucker_check(a)[0] == "decomposable"
            return dec == plucker_rank_oracle(a) and \
                (dec or not spec["planted"])
        n = space.dim
        t = space.signature()[0]
        sign = (-1) ** (k * (n - k) + t)
        return hodge(hodge(a)) == (a if sign == 1 else -a)


WORKLOADS = {w.name: w for w in (Certificate, Planewave, Forms)}
