"""Per-layer tracing of sugraverify, installed from the benchmark's side.

Each traced public function is wrapped where it is looked up: the attribute
of its own module and every module that imported it by name, so calls from
inside the package are seen too.  A wrapped function records a span (name,
op id, parent span, start, end); scalar and monomial arithmetic is only
counted, because a span per scalar operation would swamp the trace.  Spans
stay in memory and are written out when the run ends.  A span's self time
is its duration minus the time its child spans cover.
"""

import sys
import time
from collections import Counter

# metric prefix -> "module:attribute" targets timed as spans
SPANS = {
    "multilinear.interior": ["multilinear:interior"],
    "multilinear.plucker_check": ["multilinear:plucker_check"],
    "multilinear.plucker_rank_oracle": ["multilinear:plucker_rank_oracle"],
    "multilinear.hodge": ["multilinear:hodge"],
    "multilinear.wedge": ["multilinear:wedge"],
    "multilinear.kulkarni_nomizu": ["multilinear:kulkarni_nomizu"],
    "geometry.cw_patch": ["geometry:cw_patch"],
    "geometry.christoffel": ["geometry:christoffel"],
    "geometry.riemann": ["geometry:riemann"],
    "geometry.lightcone_coframe": ["geometry:lightcone_coframe"],
    "geometry.spin_connection": ["geometry:spin_connection"],
    "clifford.build_gamma": ["clifford:build_gamma"],
    "clifford.realize": ["clifford:CliffordElement.realize"],
    "clifford.element_mul": ["clifford:CliffordElement.__mul__",
                             "clifford:CliffordElement.commutator"],
    "clifford.kernel_dim": ["clifford:kernel_dim"],
    "clifford.chiral_basis": ["clifford:chiral_basis"],
    "linalg.rref": ["linalg:rref"],
    "linalg.charpoly": ["linalg:charpoly"],
    "liealg.cw_canonicalize": ["liealg:cw_canonicalize"],
    "kaluza.reduce_group": ["kaluza:reduce_group"],
    "sugra.verify_d11": ["sugra:verify_d11"],
    "sugra.verify_d11_maxsusy": ["sugra:verify_d11_maxsusy"],
    "sugra.supercovariant_connection": ["sugra:supercovariant_connection"],
    "sugra.supercovariant_flatness": ["sugra:supercovariant_flatness"],
    "sugra.verify_iib_maxsusy": ["sugra:verify_iib_maxsusy"],
    "sugra.verify_d6": ["sugra:verify_d6"],
    "sugra.dilatino_kernel": ["sugra:dilatino_kernel"],
    "catalog.assemble_parallelisable": ["catalog:assemble_parallelisable"],
    "catalog.load_background": ["catalog:load_background"],
}

# metric prefix -> targets that are counted only
COUNTS = {
    "clifford.mono_mul": ["clifford:FrameAlgebra.mono_mul"],
    "exactnum.scalar_mul": ["exactnum:Scalar.__mul__",
                            "exactnum:Scalar.__rmul__"],
    "exactnum.scalar_add": ["exactnum:Scalar.__add__",
                            "exactnum:Scalar.__radd__"],
    "exactnum.poly_mul": ["exactnum:Polynomial.__mul__",
                          "exactnum:Polynomial.__rmul__"],
    "exactnum.parse_scalar": ["exactnum:parse_scalar"],
}

# (metric, unit) in the order they are reported; BENCHMARK.json lists the
# same names under per_layer
METRICS = [
    ("multilinear.interior.calls", "count"),
    ("multilinear.interior.self_s", "s"),
    ("multilinear.plucker_check.self_s", "s"),
    ("multilinear.plucker_rank_oracle.self_s", "s"),
    ("multilinear.hodge.calls", "count"),
    ("multilinear.hodge.self_s", "s"),
    ("multilinear.wedge.self_s", "s"),
    ("multilinear.kulkarni_nomizu.self_s", "s"),
    ("geometry.cw_patch.calls", "count"),
    ("geometry.christoffel.calls", "count"),
    ("geometry.christoffel.self_s", "s"),
    ("geometry.riemann.calls", "count"),
    ("geometry.riemann.self_s", "s"),
    ("geometry.lightcone_coframe.calls", "count"),
    ("geometry.spin_connection.self_s", "s"),
    ("geometry.christoffel_per_background", "count"),
    ("clifford.build_gamma.self_s", "s"),
    ("clifford.mono_mul.calls", "count"),
    ("clifford.realize.calls", "count"),
    ("clifford.realize.self_s", "s"),
    ("clifford.element_mul.self_s", "s"),
    ("clifford.kernel_dim.calls", "count"),
    ("clifford.kernel_dim.self_s", "s"),
    ("clifford.chiral_basis.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.entries", "count"),
    ("linalg.charpoly.self_s", "s"),
    ("liealg.cw_canonicalize.self_s", "s"),
    ("kaluza.reduce_group.self_s", "s"),
    ("sugra.verify_d11.self_s", "s"),
    ("sugra.verify_d11_maxsusy.self_s", "s"),
    ("sugra.supercovariant_connection.self_s", "s"),
    ("sugra.supercovariant_flatness.self_s", "s"),
    ("sugra.verify_iib_maxsusy.self_s", "s"),
    ("sugra.verify_d6.self_s", "s"),
    ("sugra.dilatino_kernel.self_s", "s"),
    ("catalog.assemble_parallelisable.self_s", "s"),
    ("catalog.load_background.self_s", "s"),
    ("exactnum.scalar_mul.calls", "count"),
    ("exactnum.scalar_add.calls", "count"),
    ("exactnum.poly_mul.calls", "count"),
    ("exactnum.parse_scalar.calls", "count"),
    ("exactnum.rational_only_ratio", "ratio"),
    ("tracing.ops", "count"),
    ("tracing.ops_per_s_traced", "1/s"),
    ("tracing.ops_per_s_untraced", "1/s"),
    ("tracing.overhead_ops_per_s", "1/s"),
]


def _resolve(target):
    modname, path = target.split(":")
    owner = sys.modules[f"sugraverify.{modname}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counts of one traced run; install() wraps the layers and
    uninstall() restores them."""

    def __init__(self):
        self.spans = []          # [name, op, parent, start, end]
        self.stack = []
        self.op = None
        self.calls = Counter()
        self.rref_entries = 0
        self.christoffel_builds = 0
        self.rational_products = 0
        self.mixed_products = 0
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("sugraverify") and m is not None]
        modules += list(extra_modules)
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, targets in table.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    original = getattr(owner, attr)
                    wrapper = make(name, original)
                    self._replace(owner, attr, original, wrapper)
                    if not isinstance(owner, type):
                        for mod in modules:
                            for key, value in list(vars(mod).items()):
                                if value is original:
                                    self._replace(mod, key, original,
                                                  wrapper)

    def _replace(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            if name == "linalg.rref":
                mat = args[0]
                self.rref_entries += len(mat) * (len(mat[0]) if mat else 0)
            elif name == "geometry.christoffel" and \
                    getattr(args[0], "_christoffel", None) is None:
                self.christoffel_builds += 1
            idx = len(spans)
            rec = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def _count(self, name, fn):
        calls = self.calls
        if name == "exactnum.scalar_mul":
            scalar = sys.modules["sugraverify.exactnum"].Scalar

            def counted(a, b):
                calls[name] += 1
                if isinstance(b, (int, scalar)):
                    if a.is_rational() and (isinstance(b, int)
                                            or b.is_rational()):
                        self.rational_products += 1
                    else:
                        self.mixed_products += 1
                return fn(a, b)
        else:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        return counted

    # -- ops and results ----------------------------------------------------

    def run_op(self, op_id, fn):
        """Run fn() as the root span "op" of op_id."""
        self.op = op_id
        return self._span("op", fn)()

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for k, (name, op, parent, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return out

    def metrics(self, plane_waves):
        selfs = self.self_times()
        values = {}
        for name, _ in METRICS:
            prefix, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = self.calls[prefix]
            elif kind == "self_s":
                values[name] = selfs[prefix]
        values["linalg.rref.entries"] = self.rref_entries
        values["geometry.christoffel_per_background"] = \
            self.christoffel_builds / plane_waves if plane_waves else 0.0
        products = self.rational_products + self.mixed_products
        values["exactnum.rational_only_ratio"] = \
            self.rational_products / products if products else 0.0
        return values
