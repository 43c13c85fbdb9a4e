import ast
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import checkout_env
from sugraverify.exactnum import Scalar
from sugraverify.liealg import cw_canonicalize
from sugraverify.geometry import SymmetricSpace
from sugraverify import catalog, cli
from sugraverify.catalog import (enumerate_parallelisable, solve_dilaton,
                                 susy_count, builtin_backgrounds,
                                 get_background, verify_background,
                                 load_background, GeometryProduct,
                                 table2_lines, table3_lines,
                                 table3_rejections, table4_lines)

GOLDEN = os.path.join(os.path.dirname(catalog.__file__), "golden")
PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read().splitlines()


def test_enumeration_has_exactly_seventeen_products():
    products = enumerate_parallelisable(10)
    assert len(products) == 17
    names = [p.display() for p in products]
    assert "E(1,0) x S3 x S3 x S3" in names      # the once-omitted entry
    assert len(set(names)) == 17
    # dimension and causality constraints
    assert all(p.dim == 10 for p in products)


def test_table2_matches_golden():
    assert table2_lines() == golden("table2.txt")


def test_table3_matches_golden_rows_and_rejections():
    lines = table3_lines()
    assert len(lines) == 12
    assert lines == golden("table3.txt")
    rej = table3_rejections()
    assert len(rej) == 5
    assert rej == golden("table3_rejected.txt")
    joined = " ".join(rej)
    assert "AdS3 x E7" in joined
    assert "E(1,0) x S3 x S3 x S3" in joined
    assert "CW4(A) x S3 x S3" in joined


def test_table4_matches_golden():
    assert table4_lines() == golden("table4.txt")


def test_table4_values():
    lines = table4_lines()
    by_name = {l.split(" | ")[0]: l for l in lines}
    assert "constant: 32" in by_name["E(1,9)"]
    assert "nonconstant: 16" in by_name["E(1,9)"]
    for name in ["AdS3 x S3 x E4", "AdS3 x S3 x S3 x E1", "CW10(A)",
                 "CW4(A) x E6", "CW6(A) x E4", "CW8(A) x E2"]:
        assert "constant: 16" in by_name[name], name
    for name in ["E(1,1) x SU(3)", "E(1,3) x S3 x S3", "E(1,6) x S3",
                 "CW4(A) x S3 x E3", "CW6(A) x S3 x E1"]:
        assert "constant: x" in by_name[name], name
        assert "nonconstant: 16" in by_name[name], name
    # enhanced counts flagged as out of scope on the pure plane-wave rows
    assert "out of scope" in by_name["CW10(A)"]


def test_builtin_catalog_size_and_verification():
    cat = builtin_backgrounds()
    assert len(cat) == 11
    by_theory = {}
    for b in cat:
        by_theory.setdefault(b.theory, []).append(b.name)
    assert len(by_theory["d11"]) == 4
    assert len(by_theory["iib"]) == 3
    assert len(by_theory["iia"]) == 1
    assert len(by_theory["d6-(1,0)"]) == 3
    # golden/reports.json holds every catalog report as of the last
    # deliberate report change; a difference here is a change in what the
    # certificate says
    with open(os.path.join(GOLDEN, "reports.json")) as fh:
        reports = json.load(fh)
    assert sorted(reports) == sorted(b.name for b in cat)
    for b in cat:
        rep = verify_background(b)
        assert rep.passed, (b.name,
                            [c.name for c in rep.conditions if not c.passed])
        assert json.loads(rep.to_json()) == reports[b.name], b.name


CATALOG_IDS = ["ads7xs4", "ads4xs7", "cw11", "e1_10", "ads5xs5", "cw10",
               "e1_9", "e1_9_iia", "ads3xs3", "nw6", "e1_5"]


def test_background_ids_build_no_background(monkeypatch):
    def refuse(**_):
        raise AssertionError("a background was built")

    for bid in CATALOG_IDS:
        monkeypatch.setitem(catalog._BUILDERS, bid, refuse)
    assert catalog.background_ids() == CATALOG_IDS
    # get_background builds only the id asked for
    monkeypatch.setitem(catalog._BUILDERS, "nw6", lambda: "nw6 built")
    assert get_background("nw6") == "nw6 built"


def test_every_background_holds_its_fluxes_on_its_geometrys_space(tmp_path):
    specs = builtin_backgrounds()
    for fname, doc in (("cw.json", cw11_document()),
                       ("product.json", ads4xs7_document([0, 1, 2, 3]))):
        path = tmp_path / fname
        path.write_text(json.dumps(doc))
        specs.append(load_background(str(path)))
    assert [b.name for b in specs] == CATALOG_IDS + ["cw11-from-file",
                                                     "ads4xs7-legs"]
    for b in specs:
        assert all(F.space is b.geometry.space for F in b.fluxes.values()), \
            b.name
    # only the IIA entry, reduced from d = 11, has no fluxes of its own
    assert [b.name for b in specs if not b.fluxes] == ["e1_9_iia"]


def test_builtin_cw_profiles_nondegenerate():
    for name in ("cw11", "cw10"):
        b = get_background(name)
        key, degenerate = cw_canonicalize(b.cw_data)
        assert not degenerate
        assert all(sign == 1 for sign, _ in key)     # A negative definite


def test_susy_count_annotated_sector():
    p = GeometryProduct("E(1,0)", flats=9)
    out = susy_count(p, "constant")
    assert out == {"iia": 32, "iib": 32, "sector": "frame-constant"}


# ---------------------------------------------------------------------------
# background files
# ---------------------------------------------------------------------------

def cw11_document():
    return {
        "theory": "d11",
        "name": "cw11-from-file",
        "parameters": {"mu": "6"},
        "geometry": {
            "type": "cw",
            "profile": [["-1/36*mu^2*4" if i == j and i < 3 else
                         ("-1/36*mu^2" if i == j else "0")
                         for j in range(9)] for i in range(9)],
        },
        "fluxes": {
            "F4": [{"indices": [1, 2, 3, 4], "coeff": "mu"}],
        },
    }


def test_background_file_roundtrip(tmp_path):
    path = tmp_path / "cw11.json"
    path.write_text(json.dumps(cw11_document()))
    b = load_background(str(path))
    rep = verify_background(b)
    assert rep.passed


def _f4(*entries):
    return [{"indices": list(idx), "coeff": c} for idx, c in entries]


# each edit of the passing cw11 file, and the entry its error must name
BAD_FILE_ENTRIES = {
    "index-out-of-range": (
        lambda d: d["fluxes"].update(F4=_f4(((0, 2, 3, 40), "mu"))),
        "fluxes.F4[0]"),
    "numeric-coefficient": (
        lambda d: d["fluxes"].update(F4=_f4(((1, 2, 3, 4), 3))),
        "fluxes.F4[0].coeff"),
    "numeric-profile-entry": (
        lambda d: d["geometry"]["profile"][2].__setitem__(2, 3),
        "geometry.profile[2][2]"),
    "repeated-indices": (
        lambda d: d["fluxes"]["F4"].extend(_f4(((1, 2, 3, 4), "0"))),
        "fluxes.F4[1]"),
    "degree-below-the-name": (
        lambda d: d["fluxes"].update(F4=_f4(((1, 2, 3), "mu"))),
        "fluxes.F4[0]"),
    "one-short-entry": (
        lambda d: d["fluxes"]["F4"].extend(_f4(((1, 2, 3, 5), "mu"),
                                               ((1, 2, 6), "mu"))),
        "fluxes.F4[2]"),
    "unknown-flux": (
        lambda d: d["fluxes"].update(G7=[]),
        "fluxes.G7"),
    "parameters-as-a-list": (
        lambda d: d.update(parameters=[]),
        "parameters"),
    "geometry-as-a-string": (
        lambda d: d.update(geometry="cw"),
        "geometry"),
    "block-as-a-number": (
        lambda d: d.update(geometry={"type": "product", "blocks": [3]}),
        "geometry.blocks[0]"),
    "type-missing": (
        lambda d: d["geometry"].pop("type"),
        "geometry.type"),
    "profile-missing": (
        lambda d: d["geometry"].pop("profile"),
        "geometry.profile"),
    "blocks-missing": (
        lambda d: d.update(geometry={"type": "product"}),
        "geometry.blocks"),
    "dim-missing": (
        lambda d: d.update(geometry={"type": "product", "blocks": [
            {"scalar_curvature": "0", "lorentzian": True}]}),
        "geometry.blocks[0].dim"),
    "scalar-curvature-missing": (
        lambda d: d.update(geometry={"type": "product", "blocks": [
            {"dim": 11, "lorentzian": True}]}),
        "geometry.blocks[0].scalar_curvature"),
    "name-as-a-number": (
        lambda d: d.update(name=5),
        "name"),
    "lorentzian-as-a-string": (
        lambda d: d.update(geometry={"type": "product", "blocks": [
            {"dim": 11, "scalar_curvature": "0", "lorentzian": "no"}]}),
        "geometry.blocks[0].lorentzian"),
    "label-as-a-number": (
        lambda d: d.update(geometry={"type": "product", "blocks": [
            {"dim": 11, "scalar_curvature": "0", "lorentzian": True,
             "label": 7}]}),
        "geometry.blocks[0].label"),
    # a JSON true is not the orientation +1, though Python's True == 1
    **{f"orientation-{tag}": (
        lambda d, value=value: d.update(geometry={
            "type": "product", "orientation": value, "blocks": [
                {"dim": 11, "scalar_curvature": "0", "lorentzian": True}]}),
        "geometry.orientation")
       for tag, value in (("as-a-string", "x"), ("two", 2), ("true", True))},
    # a cw geometry reads its orientation the same way
    **{f"cw-orientation-{tag}": (
        lambda d, value=value: d["geometry"].update(orientation=value),
        "geometry.orientation")
       for tag, value in (("as-a-string", "x"), ("two", 2), ("true", True))},
    # a 1-dimensional block has no 2-plane, so no curvature to hold
    "one-dimensional-block-with-curvature": (
        lambda d: d.update(geometry={"type": "product", "blocks": [
            {"dim": 1, "scalar_curvature": "7", "lorentzian": True},
            {"dim": 10, "scalar_curvature": "0"}]}),
        "geometry.blocks[0].scalar_curvature"),
    # the block dimensions are summed before any matrix is built
    "block-of-dimension-4000": (
        lambda d: d.update(geometry={"type": "product", "blocks": [
            {"dim": 4000, "scalar_curvature": "0", "lorentzian": True}]}),
        "geometry.blocks"),
    # every key the format does not define is refused, naming its path
    "unknown-top-level-key": (
        lambda d: d.update(bogus_top=1),
        "bogus_top"),
    "unused-parameter": (
        lambda d: d["parameters"].update(bogus="1"),
        "parameters.bogus"),
    "blocks-under-a-cw-geometry": (
        lambda d: d["geometry"].update(blocks=5),
        "geometry.blocks"),
    "profile-under-a-product-geometry": (
        lambda d: d.update(geometry={"type": "product", "profile": [],
                                     "blocks": []}),
        "geometry.profile"),
    "unknown-block-key": (
        lambda d: d.update(geometry={"type": "product", "blocks": [
            {"dim": 11, "scalar_curvature": "0", "lorentzian": True,
             "bogus": 1}]}),
        "geometry.blocks[0].bogus"),
    "unknown-flux-entry-key": (
        lambda d: d["fluxes"]["F4"][0].update(extra=3),
        "fluxes.F4[0].extra"),
    # a file cannot supply the frame data these theories' verifiers need
    "theory-typeII-common": (
        lambda d: d.update(theory="typeII-common"),
        "theory"),
    "theory-iia": (
        lambda d: d.update(theory="iia"),
        "theory"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILE_ENTRIES))
def test_cli_verify_names_the_bad_entry_of_a_background_file(
        tmp_path, capsys, case):
    edit, entry = BAD_FILE_ENTRIES[case]
    doc = cw11_document()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"error: {path}: {entry}: "), err


def test_background_file_dimensions_are_checked_before_building(
        tmp_path, monkeypatch):
    # a block of dimension 4000 or a 4000x4000 profile is refused from its
    # declared size, naming the entry and both dimensions; no
    # SymmetricSpace or CWData is constructed
    doc = cw11_document()
    doc["geometry"] = {"type": "product", "blocks": [
        {"dim": 4000, "scalar_curvature": "0", "lorentzian": True}]}
    short = cw11_document()
    short["geometry"]["profile"] = [["0"] * 7 for _ in range(7)]
    cases = ((doc, "geometry.blocks: d11 needs dimension 11, the blocks "
                   "give dimension 4000"),
             (short, "geometry.profile: d11 needs dimension 11, a 7x7 "
                     "profile gives dimension 9"))
    for name in ("SymmetricSpace", "CWData"):
        monkeypatch.setattr(catalog, name, None)
    for d, message in cases:
        path = tmp_path / "big.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError) as e:
            load_background(str(path))
        assert str(e.value) == message


def test_cw_file_orientation_fixes_iib_self_duality(tmp_path):
    # the cw10 profile and flux with orientation -1 is the same chart with
    # the opposite Hodge dual: F is anti-selfdual there
    b = get_background("cw10")
    doc = {
        "theory": "iib",
        "name": "cw10-reversed",
        "geometry": {"type": "cw", "orientation": -1, "profile": [
            [str(x) for x in row] for row in b.cw_data.A]},
        "fluxes": {name: [{"indices": list(idx), "coeff": str(c)}
                          for idx, c in sorted(F.components.items())]
                   for name, F in b.fluxes.items()},
    }
    path = tmp_path / "cw10.json"
    path.write_text(json.dumps(doc))
    loaded = load_background(str(path))
    assert loaded.geometry.space.orientation == -1
    cond = {c.name: c.passed for c in verify_background(loaded).conditions}
    assert not cond["self-duality *F=F"]
    assert not cond["F = G + *G"]
    assert cli.main(["verify", str(path)]) == 1
    doc["geometry"]["orientation"] = 1
    path.write_text(json.dumps(doc))
    assert verify_background(load_background(str(path))).passed


@pytest.mark.parametrize("orientation,sign,chirality,passed", [
    (1, 1, "+1", True), (-1, -1, "+1", True),
    (-1, 1, "-1", False), (1, -1, "-1", False)])
def test_iib_chirality_is_relative_to_the_frame_orientation(
        tmp_path, orientation, sign, chirality, passed):
    # F5 = mu e^{-1234} + sign mu e^{-5678} is self-dual for the orientation
    # sign.  R^D = 0 holds on one Weyl half either way; c(vol) flips with the
    # orientation, so the recorded chirality is +1 exactly where F is
    # self-dual, and -1 where self-duality fails
    b = get_background("cw10")
    doc = {"theory": "iib", "name": "cw10-oriented", "geometry": {
        "type": "cw", "orientation": orientation,
        "profile": [[str(x) for x in row] for row in b.cw_data.A]},
        "fluxes": {"F5": [{"indices": [1, 2, 3, 4, 5], "coeff": "1"},
                          {"indices": [1, 6, 7, 8, 9], "coeff": str(sign)}],
                   "G5": [{"indices": [1, 2, 3, 4, 5], "coeff": "1"}]}}
    path = tmp_path / "cw10.json"
    path.write_text(json.dumps(doc))
    rep = verify_background(load_background(str(path)))
    cond = {c.name: c for c in rep.conditions}
    assert rep.invariants["chirality"] == chirality
    assert rep.invariants["nu"] == "32/32"
    assert cond["supercovariant curvature R^D = 0 on the Weyl bundle"].passed
    assert cond["nu = 1"].note == \
        f"complex Weyl kernel on the chirality {chirality} half"
    assert cond["self-duality *F=F"].passed == passed
    assert rep.passed == passed


def d6_product_document(a, b):
    """AdS3(-6) x S3(6) with H3 = a dvol(AdS3) + b dvol(S3)."""
    return {"theory": "d6-(1,0)", "name": "ads3xs3-file", "geometry": {
        "type": "product", "blocks": [
            {"dim": 3, "scalar_curvature": "-6", "lorentzian": True},
            {"dim": 3, "scalar_curvature": "6"}]},
        "fluxes": {"H3": [{"indices": [0, 1, 2], "coeff": str(a)},
                          {"indices": [3, 4, 5], "coeff": str(b)}]}}


def test_d6_product_file_gets_a_report(tmp_path):
    # the torsion curvature of a product is R - 1/4 crossed_inners(H) at one
    # point: 2 dvol on each block passes all five conditions, dvol fails
    # Einstein and flatness, and the signs (2, -2) fail anti-selfduality
    path = tmp_path / "d6.json"
    failing = {(2, 2): set(), (1, 1): {
        "einstein Ric = 1/2 <iH,iH>",
        "parallelising connection flat (R^D = 0)",
        "maximally supersymmetric"}, (2, -2): {"*H=-H"}}
    for (a, b), fails in failing.items():
        path.write_text(json.dumps(d6_product_document(a, b)))
        rep = verify_background(load_background(str(path)))
        assert len(rep.conditions) == 5
        assert {c.name for c in rep.conditions if not c.passed} == fails, \
            (a, b)
        assert cli.main(["verify", str(path)]) == (1 if fails else 0)


def catalog_document(bid):
    """The background file of the catalog plane wave or product bid."""
    b = get_background(bid)
    g = b.geometry
    if b.cw_data is not None:
        geometry = {"type": "cw", "profile": [[str(x) for x in row]
                                              for row in b.cw_data.A]}
    else:
        # the blocks, read back from the legs label:i and the Ricci trace
        ric, blocks = g.ricci(), {}
        for i, name in enumerate(g.space.names):
            blk = blocks.setdefault(name.split(":")[0], {
                "dim": 0, "scalar_curvature": Scalar(0),
                "lorentzian": False})
            blk["dim"] += 1
            blk["scalar_curvature"] += ric[i][i] * g.space.metric[i][i]
            blk["lorentzian"] |= g.space.metric[i][i].sign() < 0
        geometry = {"type": "product", "blocks": [
            dict(blk, label=label, scalar_curvature=str(
                blk["scalar_curvature"])) for label, blk in blocks.items()]}
    geometry["orientation"] = g.space.orientation
    return {"theory": b.theory, "name": bid, "parameters": {},
            "geometry": geometry,
            "fluxes": {name: [{"indices": list(idx), "coeff": str(c)}
                              for idx, c in sorted(F.components.items())]
                       for name, F in b.fluxes.items()}}


FUZZ_IDS = ("cw11", "e1_10", "cw10", "e1_9", "ads7xs4", "ads4xs7", "ads5xs5")
FUZZ_DOCUMENTS = {bid: catalog_document(bid) for bid in FUZZ_IDS}
JSON_VALUES = (None, True, 7, -1.5, "x", [], {}, [1, "2"], {"k": 0})


def _json_paths(node, path=()):
    """Every path (tuple of keys and list positions) below node."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def test_catalog_documents_verify_as_their_catalog_ids(tmp_path):
    # the documents the fuzz mutates pass, and report as the catalog does
    for bid, doc in FUZZ_DOCUMENTS.items():
        path = tmp_path / f"{bid}.json"
        path.write_text(json.dumps(doc))
        rep = verify_background(load_background(str(path)))
        want = verify_background(get_background(bid))
        assert rep.passed and rep.conditions == want.conditions, bid


def test_only_symmetric_spaces_reach_the_verifiers(tmp_path):
    # every catalog geometry (the iia record has none) and every cw or
    # product document, of each theory, is a SymmetricSpace at one point
    specs = [b for b in builtin_backgrounds() if b.geometry is not None]
    assert [b.name for b in specs] == [i for i in CATALOG_IDS
                                       if i != "e1_9_iia"]
    nw6_wave = {"theory": "d6-(1,0)", "geometry": {
        "type": "cw", "orientation": -1, "profile": [
            ["-1/4" if i == j else "0" for j in range(4)]
            for i in range(4)]},
        "fluxes": {"H3": [{"indices": [1, 2, 3], "coeff": "1"},
                          {"indices": [1, 4, 5], "coeff": "1"}]}}
    docs = list(FUZZ_DOCUMENTS.values()) + [
        cw11_document(), ads4xs7_document([0, 1, 2, 3]),
        d6_product_document(2, 2), nw6_wave]
    for i, doc in enumerate(docs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(doc))
        specs.append(load_background(str(path)))
    assert {b.theory for b in specs} == {"d11", "iib", "d6-(1,0)"}
    for b in specs:
        assert type(b.geometry) is SymmetricSpace, b.name


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_single_key_mutations_of_catalog_documents_exit_0_1_or_2(data):
    # delete a key or list entry, add an unknown key to an object, or give
    # a value another JSON type: verify exits 0, 1 or 2, raises nothing,
    # and takes less than the per-document bound
    bid = data.draw(st.sampled_from(FUZZ_IDS))
    doc = json.loads(json.dumps(FUZZ_DOCUMENTS[bid]))
    path = data.draw(st.sampled_from([()] + list(_json_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    action = data.draw(st.sampled_from(
        ("add",) if not path else ("delete", "add", "retype")))
    if action == "add" and not isinstance(node, dict):
        action = "retype"
    if action == "delete":
        del parent[path[-1]]
    elif action == "add":
        node["zz_unknown"] = data.draw(st.sampled_from(JSON_VALUES))
    else:
        parent[path[-1]] = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not type(node)]))
    with tempfile.TemporaryDirectory() as d:
        fname = os.path.join(d, "mutant.json")
        with open(fname, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", fname])
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (bid, path, action, err.getvalue())
    assert (code == 2) == err.getvalue().startswith("error: "), err.getvalue()
    assert elapsed < 10, (bid, path, action, elapsed)


def test_cli_verify_rejects_a_background_file_that_is_not_an_object(
        tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([cw11_document()]))
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(
        f"error: {path}: expected a JSON object at the top level"), err


def test_background_file_product(tmp_path):
    doc = {
        "theory": "d11",
        "name": "fr-from-file",
        "parameters": {"R": "6"},
        "geometry": {
            "type": "product",
            "blocks": [
                {"dim": 7, "scalar_curvature": "-7*R", "lorentzian": True,
                 "label": "AdS7"},
                {"dim": 4, "scalar_curvature": "8*R", "label": "S4"},
            ],
        },
        "fluxes": {
            "F4": [{"indices": [7, 8, 9, 10], "coeff": "sqrt(6*R)"}],
        },
    }
    path = tmp_path / "fr.json"
    path.write_text(json.dumps(doc))
    b = load_background(str(path))
    rep = verify_background(b)
    assert rep.passed


def ads4xs7_document(legs):
    return {
        "theory": "d11",
        "name": "ads4xs7-legs",
        "parameters": {"R": "-6"},
        "geometry": {
            "type": "product",
            "blocks": [
                {"dim": 4, "scalar_curvature": "8*R", "lorentzian": True,
                 "label": "AdS4"},
                {"dim": 7, "scalar_curvature": "-7*R", "label": "S7"},
            ],
        },
        "fluxes": {"F4": [{"indices": legs, "coeff": "sqrt(-6*R)"}]},
    }


def test_product_flux_across_blocks_fails_closure_and_parallelism(tmp_path):
    # F4 on three AdS4 legs and one S7 leg is not parallel: the holonomy
    # generator R(AdS4:0,AdS4:3) moves it, and the three conditions fail
    # naming that generator and the moved form
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(ads4xs7_document([0, 1, 2, 4])))
    rep = verify_background(load_background(str(path)))
    cond = {c.name: c for c in rep.conditions}
    why = ("the form is not invariant under the holonomy, hence not "
           "parallel: R(AdS4:0,AdS4:3) takes it to (-24) "
           "AdS4:1^AdS4:2^AdS4:3^S7:0")
    for name in ("dF=0", "maxwell d*F=-1/2 F^F", "nabla F=0"):
        assert not cond[name].passed, name
        assert cond[name].witness.endswith(why), name
        assert not cond[name].note, name
    assert cond["nabla F=0"].witness == f"direction R(AdS4:0,AdS4:3): {why}"
    # on the AdS4 volume the same document passes, computed, not cited
    path.write_text(json.dumps(ads4xs7_document([0, 1, 2, 3])))
    rep = verify_background(load_background(str(path)))
    assert rep.passed
    assert not {c.name: c for c in rep.conditions}["dF=0"].note


def test_background_of_the_wrong_dimension_or_signature_is_rejected(tmp_path):
    flat = {
        "theory": "d11",
        "name": "flat-4d",
        "geometry": {
            "type": "product",
            "blocks": [
                {"dim": 1, "scalar_curvature": "0", "lorentzian": True},
                {"dim": 3, "scalar_curvature": "0"},
            ],
        },
        "fluxes": {"F4": []},
    }
    two = json.loads(json.dumps(ads4xs7_document([0, 1, 2, 3])))
    two["geometry"]["blocks"][1]["lorentzian"] = True
    for doc, words in ((flat, ["d11 needs dimension 11", "dimension 4"]),
                       (two, ["exactly one lorentzian block"])):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            verify_background(load_background(str(path)))
        code, out, err = run_cli("verify", str(path))
        assert code == 2, (out, err)
        assert err.startswith("error: ") and "Traceback" not in err, err
        for w in words:
            assert w in err, err


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "sugraverify.cli", *args],
                          capture_output=True, text=True, env=checkout_env())
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_verify_pass_and_json():
    code, out, _ = run_cli("verify", "nw6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["out_of_scope"]


def test_cli_verify_perturbed_fails_with_witness():
    code, out, _ = run_cli("verify", "cw11", "--perturb", "A11=+1")
    assert code == 1
    assert "FAIL" in out and "einstein" in out


def test_cli_verify_missing_flux_names_the_flux_and_the_file(tmp_path):
    doc = ads4xs7_document([0, 1, 2, 3])
    doc["fluxes"] = {}
    path = tmp_path / "noflux.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(path))
    assert code == 2, (out, err)
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert "F4" in err and str(path) in err, err
    assert err.strip() != "error: 'F4'", err


def test_cli_verify_rejects_a_bad_perturbation_key():
    for bad in ("B11=1", "A1=1", "A11"):
        code, out, err = run_cli("verify", "cw11", "--perturb", bad)
        assert code == 2, (bad, out, err)
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert "--perturb" in err and bad in err, err


def test_cli_verify_parameter_the_id_does_not_take_exits_2(tmp_path):
    code, out, err = run_cli("verify", "e1_10", "--perturb", "A11=+1")
    assert code == 2, (out, err)
    assert "e1_10 takes no parameter perturb" in err, err
    with pytest.raises(ValueError, match="takes no parameter mu"):
        get_background("ads4xs7", mu=2)
    code, out, err = run_cli("verify", "all", "--perturb", "A11=+1")
    assert code == 2 and not out, (out, err)
    assert "--perturb applies only to a catalog id" in err, err
    path = tmp_path / "ads4xs7.json"
    path.write_text(json.dumps(ads4xs7_document([0, 1, 2, 3])))
    code, out, err = run_cli("verify", str(path), "--mu", "2")
    assert code == 2 and not out, (out, err)
    assert str(path) in err and "--mu" in err, err


def test_cli_verify_unknown_id():
    code, _, err = run_cli("verify", "nosuchthing")
    assert code == 2
    assert "unknown" in err


def test_cli_enumerate_tables():
    code, out, _ = run_cli("enumerate", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["parallelisable_geometries"]) == 17
    assert len(doc["backgrounds_with_dilaton"]) == 12
    assert len(doc["rejected"]) == 5


def test_cli_susy():
    code, out, _ = run_cli("susy", "e1_9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "32" in json.dumps(doc["constant"])
    code, out, _ = run_cli("susy", "ads3_e7")
    assert code == 1


def test_cli_canonicalize(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([["-4", "0"], ["0", "-1"]]))
    code, out, _ = run_cli("canonicalize-cw", str(path), "--format", "json")
    assert code == 0
    # p(x) = x^2 + 5x + 4 and tr A^2 = 17
    assert json.loads(out) == {"canonical_key": [[1, "25/17"], [1, "16/289"]],
                               "degenerate": False}


def test_cli_canonicalize_large_primes_exactly_without_numpy(tmp_path):
    vals = [1000003, 1000033, 999983]
    path = tmp_path / "m.json"
    rows = [[str(v) if i == j else "0" for j in range(3)]
            for i, v in enumerate(vals)]
    path.write_text(json.dumps(rows))
    script = ("import json, sys; from sugraverify.cli import main; "
              f"main(['canonicalize-cw', {str(path)!r}, '--format', 'json']); "
              "print(json.dumps('numpy' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    doc, numpy_loaded = proc.stdout.rstrip().rsplit("\n", 1)
    assert numpy_loaded == "false"
    e1, e2, e3 = (sum(vals), vals[0] * vals[1] + vals[0] * vals[2]
                  + vals[1] * vals[2], vals[0] * vals[1] * vals[2])
    t = sum(v * v for v in vals)
    want = [[-1, Fraction(e1 ** 2, t)], [1, Fraction(e2 ** 2, t ** 2)],
            [-1, Fraction(e3 ** 2, t ** 3)]]
    assert json.loads(doc) == {"canonical_key": [[s, str(v)] for s, v in want],
                               "degenerate": False}


BAD_PROFILES = {
    "missing": (None, "No such file"),
    "nonsymmetric": (json.dumps([["1", "2"], ["0", "1"]]), "symmetric"),
    "invalid": ("[[1, 2], [2", "Expecting"),
    "badscalar": (json.dumps([["1", "x"], ["x", "1"]]), "unbound parameter"),
}


@pytest.mark.parametrize("name", list(BAD_PROFILES))
def test_cli_canonicalize_rejects_bad_input(tmp_path, name):
    text, message = BAD_PROFILES[name]
    path = tmp_path / f"{name}.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli("canonicalize-cw", str(path))
    assert code == 2 and not out, (out, err)
    assert err.startswith(f"error: {path}: ") and message in err, err
    assert "Traceback" not in err, err


def test_cli_reduce():
    code, out, _ = run_cli("reduce", "nw6", "--along", "0,0,1,0,0,0")
    assert code == 0 and "PASS" in out
    code, _, err = run_cli("reduce", "nw6", "--along", "1,0,0,0,0,0")
    assert code == 2 and "spacelike" in err


def test_cli_reduce_d11_prints_its_checks(capsys):
    # --along is X in the frame (xp, xm, x1..x9); x9 reduces e1_10 to flat
    # IIA
    x9 = ",".join(["0"] * 10 + ["1"])
    assert cli.main(["reduce", "e1_10", "--along", x9]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 6 and all(l.startswith("PASS  ") for l in lines)
    assert "PASS  H3 = iota_X F4 = 0" in lines
    assert cli.main(["reduce", "e1_10", "--along", x9, "--format",
                     "json"]) == 0
    out, _ = capsys.readouterr()
    assert json.loads(out) == {line[6:]: True for line in lines}
    # a null (xp) or timelike (xp - xm) direction exits 2
    for along in (",".join(["1"] + ["0"] * 10),
                  ",".join(["1", "-1"] + ["0"] * 9)):
        assert cli.main(["reduce", "e1_10", "--along", along]) == 2
        out, err = capsys.readouterr()
        assert not out and "spacelike" in err, err


def test_cli_reduce_rejects_a_bad_direction(monkeypatch, capsys):
    for algebra in ("nw6", "e1_10"):
        code, out, err = run_cli("reduce", algebra, "--along", "a,b")
        assert code == 2 and not out, (algebra, out, err)
        assert err == "error: unbound parameter 'a'\n", err
    code, _, err = run_cli("reduce", "nw6", "--along", "1,0")
    assert code == 2 and "expected 6 components" in err, err
    # each malformed id exits 2 with a message, not a traceback; a d2n2 id
    # too large for a QuadraticSpace, or of another dimension than --along,
    # is rejected before any algebra is built
    from sugraverify import liealg
    built = []
    monkeypatch.setattr(liealg, "d2n2", lambda w: built.append(w))
    six = "0,0,1,0,0,0"
    for algebra, along, why in (
            ("d2n2()", six, "unexpected token"),
            ("d2n2(1,x)", six, "unbound parameter 'x'"),
            ("so12+so3(x)", six, "unbound parameter 'x'"),
            ("so12+so3()", six, "unexpected token"),
            ("so12+so3(0)", six, "so12+so3(0): the scale a must be nonzero"),
            ("d2n2(1,2,3,4,5,6,7)", ",".join(["0"] * 16),
             "d2n2(1,2,3,4,5,6,7) has dimension 16 and --along 16 "
             "components; both must agree, at most 13"),
            ("d2n2(1,2,3,4,5)", six,
             "has dimension 12 and --along 6 components")):
        assert cli.main(["reduce", algebra, "--along", along]) == 2, algebra
        out, err = capsys.readouterr()
        assert not out and err.startswith("error: ") and why in err, err
    assert built == []
    monkeypatch.undo()
    assert cli.main(["reduce", "d2n2(0)", "--along", "0,0,1,0"]) == 2
    out, err = capsys.readouterr()
    assert not out and "weights must be nonzero" in err, err


def test_cli_verify_all_parallel():
    code, out, _ = run_cli("verify", "all")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 11
    names = [l.split()[1] for l in lines]
    assert names == sorted(names)
    assert all(l.startswith("PASS") for l in lines)


def test_report_directory_env_var(tmp_path):
    env = checkout_env(SUGRAVERIFY_REPORT_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "sugraverify.cli", "verify", "nw6"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    saved = tmp_path / "nw6.json"
    assert saved.exists()
    doc = json.loads(saved.read_text())
    assert doc["passed"] is True


def test_cli_enumerate_diff_against_golden_empty():
    code, out, _ = run_cli("enumerate", "--tables", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["parallelisable_geometries"] == golden("table2.txt")
    assert doc["backgrounds_with_dilaton"] == golden("table3.txt")
    assert doc["rejected"] == golden("table3_rejected.txt")
    assert doc["susy_counts"] == golden("table4.txt")


def declared_console_script(name):
    """(module, attribute) that [project.scripts] in pyproject.toml gives
    for the console script `name`."""
    with open(PYPROJECT, encoding="utf-8") as fh:
        text = fh.read()
    try:
        import tomllib
    except ModuleNotFoundError:        # Python 3.10: read the table plainly
        scripts, in_table = {}, False
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                in_table = line == "[project.scripts]"
            elif in_table and "=" in line:
                key, value = (part.strip().strip("\"'")
                              for part in line.split("=", 1))
                scripts[key] = value
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    module, _, attr = scripts[name].partition(":")
    return module, attr


def test_console_entry_point():
    # run the declared entry point the way the installed wrapper script
    # does, so that no install is needed
    module, attr = declared_console_script("sugraverify")
    code = (f"import sys; from {module} import {attr.split('.')[0]}; "
            f"sys.argv[0] = 'sugraverify'; sys.exit({attr}())")
    proc = subprocess.run([sys.executable, "-c", code, "enumerate"],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert "E(1,9)" in proc.stdout


@pytest.mark.skipif(shutil.which("sugraverify") is None,
                    reason="the sugraverify script is not installed")
def test_installed_console_script():
    proc = subprocess.run(["sugraverify", "enumerate"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "E(1,9)" in proc.stdout


def declared_dev_requirements():
    """Distribution names in the `dev` extra of pyproject.toml."""
    with open(PYPROJECT, encoding="utf-8") as fh:
        text = fh.read()
    try:
        import tomllib
    except ModuleNotFoundError:        # Python 3.10: read the one-line array
        line = next(l for l in text.splitlines()
                    if l.replace(" ", "").startswith("dev=["))
        reqs = re.findall(r'"([^"]+)"', line)
    else:
        reqs = tomllib.loads(text)["project"]["optional-dependencies"]["dev"]
    return {re.match(r"[A-Za-z0-9_.-]+", r)[0].lower() for r in reqs}


def test_every_third_party_test_import_is_a_dev_dependency():
    root = os.path.dirname(PYPROJECT)
    tests = os.path.join(root, "tests")
    local = set(os.listdir(root)) | set(os.listdir(os.path.join(root, "src")))
    imported = set()
    for name in sorted(os.listdir(tests)):
        if name.endswith(".py"):
            with open(os.path.join(tests, name)) as fh:
                tree = ast.parse(fh.read(), name)
            local.add(name[:-3])
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported |= {a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert "numpy" in third_party         # the scan sees nested imports
    assert third_party <= declared_dev_requirements(), third_party


def test_package_has_no_assert_statements():
    # python -O strips asserts, so invariants must raise
    pkg = os.path.dirname(catalog.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []
