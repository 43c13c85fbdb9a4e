"""Every module-level import in the package is used or re-exported, every
module-level function and method is called from the package or named in
ORPHANS with the reason it stays, and liealg does not read geometry."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "sugraverify")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def _module_imports(body):
    """{bound name: line} of the imports among the module-level statements,
    including those under a module-level if or try."""
    out = {}
    for node in body:
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                out[a.asname or a.name] = node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse]
            if isinstance(node, ast.Try):
                blocks += [h.body for h in node.handlers] + [node.finalbody]
            for block in blocks:
                out.update(_module_imports(block))
    return out


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    keep = used | _exported(tree)
    return sorted((line, name) for name, line in
                  _module_imports(tree.body).items() if name not in keep)


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_import(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == [], module


def test_unused_import_check_catches_them():
    # KForm is never read, json only rebound; wedge is exported, os read
    src = ("import os\nfrom .multilinear import KForm, wedge\n"
           "try:\n    import json\nexcept ImportError:\n    json = None\n"
           "__all__ = ['wedge']\n\ndef f():\n    return os.sep\n")
    assert unused_imports(src) == [(2, "KForm"), (4, "json")]


# module:function for the module-level functions, and module:Class.method
# for the methods, that no module of the package reads, exported or not,
# each with the reason it stays (the ROADMAP item that would give it a
# caller or move it)
ORPHANS = {
    "catalog:builtin_backgrounds":
        "tests: the catalog size and the golden reports of every id",
    "catalog:verify_typeII_product":
        "tests; its caller comes with the type-II row reports (ROADMAP 3)",
    "clifford:CliffordElement.realize":
        "tests: the dense reference of every sparse Clifford product and "
        "kernel; the benchmark tracer's clifford.realize target",
    "clifford:CliffordRep.gamma_dense":
        "tests: the dense gammas of the spinor pairing (ROADMAP 8)",
    "geometry:cw_patch":
        "tests: the plane-wave chart that SymmetricSpace.plane_wave is held "
        "to; the benchmark tracer's geometry.cw_patch target (ROADMAP 4)",
    "geometry:flat_torsion_consequences":
        "tests: the flat-torsion acceptance criterion (ROADMAP 8)",
    "geometry:lightcone_coframe":
        "tests: the chart calibration of the pointwise R^D; the benchmark "
        "tracer's geometry.lightcone_coframe target (ROADMAP 4)",
    "geometry:spin_connection":
        "tests: the chart calibration of the pointwise R^D; the benchmark "
        "tracer's geometry.spin_connection target (ROADMAP 4)",
    "kaluza:unit_spacelike_sample":
        "the certificate benchmark's reduce units and the reduction sweeps",
    "liealg:MetricLieAlgebra.center":
        "tests: the center oracle of the double extensions (ROADMAP 8)",
    "liealg:MetricLieAlgebra.derived_series":
        "tests: the solvability oracle of the plane-wave algebras "
        "(ROADMAP 8)",
    "liealg:antiselfdual_filter":
        "tests: the d=6 acceptance criterion (ROADMAP 8)",
    "liealg:d6_catalog":
        "tests: the five d=6 families that the group geometry is held to "
        "(ROADMAP 8)",
    "liealg:jacobi_check":
        "tests: the Jacobi oracle of the group's Bianchi check (ROADMAP 8)",
    "multilinear:KForm.basis":
        "tests: the basis forms of the form, Clifford and Lie-algebra tests "
        "(ROADMAP 8)",
    "multilinear:KForm.scalar":
        "tests: 0-forms of the Hodge and Clifford tests (ROADMAP 8)",
    "multilinear:QuadraticSpace.euclidean":
        "tests: the euclidean frames of the form tests (ROADMAP 8)",
    "multilinear:plucker_rank_oracle":
        "the forms benchmark workload and the Plucker tests (ROADMAP 1)",
    "sugra:VerificationReport.from_json":
        "tests: the report round trip through JSON (ROADMAP 5)",
    "sugra:verify_d11":
        "tests: the d=11 field equations alone; the benchmark tracer's "
        "sugra.verify_d11 target",
}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined(tree):
    """(qualified name, name) of the module-level functions of tree and
    the non-dunder methods of its module-level classes."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, _FUNCTIONS) and not (
                        m.name.startswith("__") and m.name.endswith("__")):
                    yield f"{node.name}.{m.name}", m.name


def _reads(node, own=frozenset()):
    """(kind, name) of the names that node reads, kind "name" for a bare
    name and "attr" for an attribute, leaving out a read of a function's
    own name inside its body."""
    for n in ast.iter_child_nodes(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read = ("name", n.id)
        elif isinstance(n, ast.Attribute):
            read = ("attr", n.attr)
        else:
            read = None
        if read is not None and read[1] not in own:
            yield read
        yield from _reads(n, own | {n.name} if isinstance(n, _FUNCTIONS)
                          else own)


def orphaned_functions(sources):
    """Sorted module:name of the module-level functions, and module:
    Class.method of the non-dunder methods of module-level classes, in
    sources ({module: source}) that no module reads outside the function's
    own body: a function by name or attribute, a method by attribute only,
    so that a local variable of the same name does not count.  An __all__
    entry is not a read."""
    defined, reads = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, q, name) for q, name in _defined(tree)]
        reads.update(_reads(tree))
    names = {name for _, name in reads}
    attrs = {name for kind, name in reads if kind == "attr"}
    return sorted(f"{m}:{q}" for m, q, name in defined
                  if name not in (attrs if "." in q else names))


def _sources():
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module)) as fh:
            sources[module[:-3]] = fh.read()
    return sources


def test_every_orphaned_function_is_named_with_its_reason():
    assert orphaned_functions(_sources()) == sorted(ORPHANS)


def test_orphan_check_catches_them():
    # f calls only itself, g is called from another module, h is only
    # exported, k is read as an attribute; of the methods of C, p calls
    # only itself, q is read as an attribute, t only as a local variable's
    # name and __init__ is a dunder
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n"
                    "__all__ = ['h']\n\ndef h():\n    pass\n",
               "b": "from .a import g\n\ndef k():\n    return g()\n\n"
                    "def m(x):\n    return x.k\n",
               "c": "class C:\n    def __init__(self):\n        pass\n\n"
                    "    def p(self):\n        return self.p()\n\n"
                    "    def q(self):\n        pass\n\n"
                    "    def t(self):\n        pass\n\n"
                    "def r(c):\n    t = c.q()\n    return t\n"}
    assert orphaned_functions(sources) == ["a:f", "a:h", "b:m", "c:C.p",
                                           "c:C.t", "c:r"]


# the polynomial chart is the reference the tests hold the plane-wave pair
# to; only the modules that define it may read it
CHART_NAMES = ("Polynomial", "CoordinatePatch", "cw_patch")
CHART_MODULES = ("exactnum", "geometry")


def chart_readers(sources):
    """Sorted module:name for each module outside CHART_MODULES that
    imports, reads or reads as an attribute a name of CHART_NAMES."""
    out = set()
    for module, source in sources.items():
        if module in CHART_MODULES:
            continue
        for n in ast.walk(ast.parse(source)):
            name = n.id if isinstance(n, ast.Name) else \
                n.attr if isinstance(n, ast.Attribute) else \
                n.name if isinstance(n, ast.alias) else None
            if name in CHART_NAMES:
                out.add(f"{module}:{name}")
    return sorted(out)


def test_no_verifier_module_reads_the_chart():
    assert chart_readers(_sources()) == []


def test_chart_reader_check_catches_them():
    # an import, an attribute and a call count; a docstring and the
    # defining module do not
    sources = {"sugra": "from .exactnum import Polynomial as P\n",
               "catalog": "def f(geometry):\n    return geometry.cw_patch\n",
               "cli": "'the cw_patch chart'\n",
               "liealg": "x = CoordinatePatch(1)\n",
               "geometry": "def cw_patch():\n    return Polynomial()\n"}
    assert chart_readers(sources) == ["catalog:cw_patch",
                                      "liealg:CoordinatePatch",
                                      "sugra:Polynomial"]


def geometry_imports(source):
    """Sorted names that a module's source imports from geometry, and
    "geometry" where it imports the module itself, at any depth."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            module = getattr(n, "module", None) or ""
            for a in n.names:
                if module.split(".")[-1] == "geometry":
                    out.add(a.name)
                elif a.name.split(".")[-1] == "geometry":
                    out.add("geometry")
    return sorted(out)


def test_liealg_imports_nothing_from_geometry():
    # an algebra is data; its group's geometry is SymmetricSpace.group
    assert geometry_imports(_sources()["liealg"]) == []


def test_geometry_import_check_catches_them():
    src = ("from .geometry import riemann\nfrom . import linalg\n"
           "def f():\n    from .geometry import SymmetricSpace\n"
           "    from . import geometry\n")
    assert geometry_imports(src) == ["SymmetricSpace", "geometry",
                                     "riemann"]
    assert geometry_imports("import sugraverify.geometry\n") == \
        ["geometry"]


# a switch read from the environment is a second path through the program;
# the report directory is the one the package reads
ENV_VARIABLES = ["SUGRAVERIFY_REPORT_DIR"]


def environment_reads(sources):
    """Sorted module:variable for each os.environ.get, os.environ[...] and
    os.getenv read in sources, with "?" for a variable that is not a
    string literal."""
    out = set()
    for module, source in sources.items():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Subscript) and _name(n.value) == "environ":
                key = n.slice
            elif isinstance(n, ast.Call) and n.args and (
                    _name(n.func) == "getenv" or
                    isinstance(n.func, ast.Attribute) and n.func.attr == "get"
                    and _name(n.func.value) == "environ"):
                key = n.args[0]
            else:
                continue
            out.add(f"{module}:" + (key.value if isinstance(key, ast.Constant)
                                    else "?"))
    return sorted(out)


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else \
        node.id if isinstance(node, ast.Name) else None


def test_the_report_directory_is_the_only_environment_variable():
    assert sorted({r.split(":")[1] for r in environment_reads(_sources())}) \
        == ENV_VARIABLES


def test_environment_read_check_catches_them():
    # a get, a subscript, getenv under either import and a computed name
    # count; a string that names a variable and a get on another mapping
    # or by itself do not
    sources = {"a": "import os\nX = os.environ.get('A_MODE', 'auto')\n"
                    "V = {}.get('H')\nU = get('I')\n",
               "b": "import os\ndef f():\n    return os.environ['B']\n",
               "c": "from os import getenv, environ\nY = getenv('C')\n"
                    "Z = environ.get('D' + 'E')\n",
               "d": "import os\nW = os.getenv('F')\n'os.environ.get(\"G\")'\n"}
    assert environment_reads(sources) == ["a:A_MODE", "b:B", "c:?", "c:C",
                                          "d:F"]
