"""Every module-level import in the package is used or re-exported."""

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
