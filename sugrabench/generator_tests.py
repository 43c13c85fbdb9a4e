"""Tests of the benchmark's input generators.

    python3 -m pytest sugrabench/generator_tests.py

Kept out of the package's test suite (the file name does not match
``test_*.py``): they check the benchmark, not the program.
"""

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads as W  # noqa: E402
from sugraverify import catalog  # noqa: E402
from sugraverify.multilinear import (KForm, plucker_check,  # noqa: E402
                                     plucker_rank_oracle)
from sugraverify.exactnum import Scalar  # noqa: E402


def test_same_seed_same_inputs():
    for seed in (1, 2):
        assert [W.certificate_pass(seed, p) for p in range(2)] == \
            [W.certificate_pass(seed, p) for p in range(2)]
        assert [W.planewave_doc(seed, i) for i in range(8)] == \
            [W.planewave_doc(seed, i) for i in range(8)]
        assert [W.form_spec(seed, i) for i in range(40)] == \
            [W.form_spec(seed, i) for i in range(40)]
    assert W.planewave_doc(1, 0) != W.planewave_doc(2, 0)
    assert W.form_spec(1, 0) != W.form_spec(2, 0)


def test_inputs_digest_depends_only_on_seed(tmp_path):
    a = W.Forms(3).inputs_digest()
    assert a == W.Forms(3).inputs_digest() != W.Forms(4).inputs_digest()
    p1, p2 = tmp_path / "a", tmp_path / "b"
    p1.mkdir()
    p2.mkdir()
    assert W.Planewave(3, str(p1)).inputs_digest() == \
        W.Planewave(3, str(p2)).inputs_digest()


def test_rational_rotation_is_special_orthogonal():
    import random
    O = W.rational_rotation(random.Random(5), 9, (range(3), range(3, 9)))
    for i in range(9):
        for j in range(9):
            dot = sum(O[i][k] * O[j][k] for k in range(9))
            assert dot == Fraction(int(i == j))
    assert W._det(O) == 1


def test_rounds_are_balanced():
    round_ = [W.planewave_doc(7, i)[1] for i in range(6)]
    assert sorted((e["family"], e["perturbed"]) for e in round_) == \
        [("cw10", False), ("cw10", True), ("cw11", False), ("cw11", False),
         ("cw11", True), ("cw11", True)]
    specs = [W.form_spec(7, i) for i in range(20)]
    assert sum(s["test"] == "hodge" for s in specs) == 4
    assert sum(s["planted"] for s in specs) == 2


def test_unperturbed_plane_waves_pass_and_perturbed_fail(tmp_path):
    w = W.Planewave(11, str(tmp_path))
    for i in range(6):
        path, _, expect = w.docs[i]
        rep = catalog.verify_background(catalog.load_background(path))
        assert rep.passed == (not expect["perturbed"])
        assert w.run(i)


def test_planted_forms_are_decomposable():
    planted = [s for s in (W.form_spec(5, i) for i in range(100))
               if s["planted"]]
    assert len(planted) == 10
    for spec in planted:
        space = W.make_space(spec["space"], spec["dim"])
        F = KForm(space, 4, {tuple(k): Scalar(v)
                             for k, v in spec["components"]})
        assert plucker_rank_oracle(F)
        assert plucker_check(F)[0] == "decomposable"


def test_certificate_pass_covers_every_unit():
    units = W.certificate_pass(1, 0)
    kinds = [u[0] for u in units]
    assert kinds.count("verify") == len(W.CATALOG_IDS) == 11
    assert kinds.count("susy") == len(W.SUSY_TABLE) == 12
    assert kinds.count("reduce") == 3 and kinds.count("tables") == 1
    accepted = {p.ident() for p in catalog.enumerate_parallelisable(10)
                if catalog.solve_dilaton(p).accepted}
    assert accepted == set(W.SUSY_TABLE)
